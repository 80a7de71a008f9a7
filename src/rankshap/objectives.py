"""Listwise explanation objectives and the listwise coalition game.

An objective reduces a perturbed ranking to one scalar similarity against the
model's unperturbed reference ranking. All variants take their maximum 1.0 at
the reference permutation, so attribution signs are comparable across them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .data import BackgroundSet, QueryGroup
from .errors import DimensionError
from .masking import chunk_size, coalition_to_template
from .rankers import Scorer, rank, rank_many


def _ranks_of(perm: np.ndarray) -> np.ndarray:
    """Position of each doc in the permutation (inverse permutation)."""
    return np.argsort(perm)


class ListwiseObjective:
    """Base: holds the reference permutation and reduces rankings to scalars."""

    def __init__(self, reference):
        self.reference = np.asarray(reference, dtype=int)
        self.reference.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.reference)

    def evaluate(self, pi) -> float:
        raise NotImplementedError

    def evaluate_many(self, perms: np.ndarray) -> np.ndarray:
        """Evaluate a (k, m) batch of permutations; default loops."""
        return np.array([self.evaluate(p) for p in perms])

    def describe(self) -> str:
        raise NotImplementedError


class _PairTauObjective(ListwiseObjective):
    """Shared machinery for tau over a fixed subset of document pairs."""

    def _init_pairs(self, keep: np.ndarray | None):
        iu, ju = np.triu_indices(self.m, k=1)
        if keep is not None:
            iu, ju = iu[keep], ju[keep]
        self._iu, self._ju = iu, ju
        r = _ranks_of(self.reference)
        self._s_ref = np.sign(r[iu] - r[ju])

    def evaluate(self, pi) -> float:
        return float(self.evaluate_many(np.asarray(pi, dtype=int)[None, :])[0])

    def evaluate_many(self, perms: np.ndarray) -> np.ndarray:
        perms = np.asarray(perms, dtype=int)
        if perms.shape[1] != self.m:
            raise DimensionError(f"permutation length {perms.shape[1]} != {self.m}")
        ranks = np.argsort(perms, axis=1)
        s = np.sign(ranks[:, self._iu] - ranks[:, self._ju])
        return (s @ self._s_ref) / len(self._s_ref)


class KendallTauObjective(_PairTauObjective):
    def __init__(self, reference):
        super().__init__(reference)
        if self.m < 2:
            raise ValueError("objective needs at least 2 documents")
        self._init_pairs(None)

    def describe(self) -> str:
        return "kendall"


class TopKTauObjective(_PairTauObjective):
    """Tau over pairs touching a document subset (top-k of the reference by default)."""

    def __init__(self, reference, k: int | None = None, docs: Iterable[int] | None = None):
        super().__init__(reference)
        if self.m < 2:
            raise ValueError("objective needs at least 2 documents")
        if (k is None) == (docs is None):
            raise ValueError("give exactly one of k or docs")
        if k is not None:
            if not 1 <= k <= self.m:
                raise ValueError(f"k must be in [1, {self.m}], got {k}")
            docs = self.reference[:k]
            self._label = f"topk:{k}"
        else:
            docs = np.fromiter(docs, dtype=int)
            if docs.size == 0 or docs.min() < 0 or docs.max() >= self.m:
                raise ValueError("invalid document subset")
            self._label = "group:" + ",".join(str(d) for d in sorted(set(docs.tolist())))
        members = np.zeros(self.m, dtype=bool)
        members[np.asarray(docs, dtype=int)] = True
        iu, ju = np.triu_indices(self.m, k=1)
        self._init_pairs(members[iu] | members[ju])

    def describe(self) -> str:
        return self._label


class DocRankObjective(ListwiseObjective):
    """Similarity of one document's rank to its reference position, in [0,1]."""

    def __init__(self, reference, target_doc: int):
        super().__init__(reference)
        if self.m < 2:
            raise ValueError("objective needs at least 2 documents")
        if not 0 <= target_doc < self.m:
            raise ValueError(f"doc index {target_doc} out of range for m={self.m}")
        self.target_doc = target_doc
        self._ref_rank = int(_ranks_of(self.reference)[target_doc])

    def evaluate(self, pi) -> float:
        return float(self.evaluate_many(np.asarray(pi, dtype=int)[None, :])[0])

    def evaluate_many(self, perms: np.ndarray) -> np.ndarray:
        perms = np.asarray(perms, dtype=int)
        if perms.shape[1] != self.m:
            raise DimensionError(f"permutation length {perms.shape[1]} != {self.m}")
        ranks = np.argsort(perms, axis=1)[:, self.target_doc]
        return 1.0 - np.abs(ranks - self._ref_rank) / (self.m - 1)

    def describe(self) -> str:
        return f"docrank:{self.target_doc}"


def reference_ranking(group: QueryGroup, scorer: Scorer) -> np.ndarray:
    """The model's unperturbed ranking of the group."""
    return rank(scorer.score_batch(group.feature_matrix()))


def make_objective(spec: str, reference) -> ListwiseObjective:
    """Parse `kendall`, `topk:<k>`, `docrank:<j>`, or `group:<i,j,...>`."""
    spec = spec.strip()
    if spec == "kendall":
        return KendallTauObjective(reference)
    head, _, arg = spec.partition(":")
    try:
        if head == "topk":
            return TopKTauObjective(reference, k=int(arg))
        if head == "docrank":
            return DocRankObjective(reference, int(arg))
        if head == "group":
            return TopKTauObjective(reference, docs=[int(x) for x in arg.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad objective spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown objective spec {spec!r}")


class ListwiseGame:
    """Coalition game for one query: v(S, b) evaluated in batches by `values`.

    `value` and `mean_value` wrap `values` for one coalition; `mean_value`
    evaluates all background rows in one scorer batch.
    """

    def __init__(self, group: QueryGroup, scorer: Scorer, objective: ListwiseObjective,
                 background: BackgroundSet | np.ndarray):
        self.X = group.feature_matrix()
        self.scorer = scorer
        self.objective = objective
        self.background = np.asarray(getattr(background, "vectors", background), dtype=float)
        if self.background.shape[1] != self.X.shape[1]:
            raise DimensionError(
                f"background dim {self.background.shape[1]} != feature dim {self.X.shape[1]}"
            )
        self.n = self.X.shape[1]
        self.m = self.X.shape[0]

    def values(self, visible: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Objective values of k masked lists, one per row of the (k, n) `rows`.

        List i keeps the features where the boolean visible[i] is True and
        takes rows[i] elsewhere, in every document; a single (1, n) `visible`
        row applies to all k. A chunk holds as many whole background batches
        as fit in MASK_BUDGET_BYTES of mask tensor, and at least one; each
        chunk makes one score, rank and reduce call.
        """
        k = len(rows)
        step = chunk_size(self.m * self.n * 8, len(self.background))
        if k > step:
            visible = np.broadcast_to(visible, rows.shape)
        out = np.empty(k)
        for lo in range(0, k, step):
            vis, B = visible[lo:lo + step], rows[lo:lo + step]
            # (c, m, n): each row masks the whole group identically.
            masked = np.where(vis[:, None, :], self.X, B[:, None, :])
            scores = self.scorer.score_batch(masked.reshape(len(B) * self.m, self.n))
            perms = rank_many(scores.reshape(len(B), self.m))
            out[lo:lo + len(B)] = self.objective.evaluate_many(perms)
        return out

    def _visible(self, visible) -> np.ndarray:
        return coalition_to_template(visible, self.n)[None, :] == 0

    def value(self, visible, b: np.ndarray) -> float:
        return float(self.values(self._visible(visible), np.asarray(b, dtype=float)[None, :])[0])

    def mean_value(self, visible) -> float:
        return float(self.values(self._visible(visible), self.background).mean())
