"""Listwise explanation objectives and the coalition games played on masked rows.

An objective reduces a perturbed ranking to one scalar similarity against the
model's unperturbed reference ranking. All variants take their maximum 1.0 at
the reference permutation, so attribution signs are comparable across them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .data import BackgroundSet, QueryGroup, background_array
from .errors import DimensionError
from .masking import check_exact_width, chunk_size, coalition_to_template, first_rows
from .rankers import Scorer, rank, rank_many


def _ranks_of(perm: np.ndarray) -> np.ndarray:
    """Position of each doc in the permutation (inverse permutation)."""
    return np.argsort(perm)


class ListwiseObjective:
    """Base: holds the reference permutation and reduces rankings to scalars."""

    def __init__(self, reference):
        self.reference = np.asarray(reference, dtype=int)
        self.reference.setflags(write=False)
        if self.m < 2:
            raise ValueError("objective needs at least 2 documents")
        if self.reference.ndim != 1 or (np.sort(self.reference) != np.arange(self.m)).any():
            raise ValueError(f"reference {self.reference.tolist()} is not a permutation"
                             f" of 0..{self.m - 1}")

    @property
    def m(self) -> int:
        return len(self.reference)

    def evaluate(self, pi) -> float:
        """Value of one permutation: a one-row `evaluate_many`."""
        return float(self.evaluate_many(np.asarray(pi, dtype=int)[None, :])[0])

    def evaluate_many(self, perms: np.ndarray) -> np.ndarray:
        """Values of a (k, m) batch of permutations; subclasses implement it."""
        raise NotImplementedError

    def _check(self, perms) -> np.ndarray:
        """The (k, m) int permutation matrix; raises if its width is not m."""
        perms = np.asarray(perms, dtype=int)
        if perms.shape[1] != self.m:
            raise DimensionError(f"permutation length {perms.shape[1]} != {self.m}")
        return perms

    def describe(self) -> str:
        raise NotImplementedError


class _PairTauObjective(ListwiseObjective):
    """Tau over a fixed set of document pairs: (P - 2 * discordant) / P.

    `_pairs` is an (m, m) boolean mask over reference positions that keeps
    the pairs (t, u), t < u, that count; P is its count. A list is discordant
    on (t, u) when it ranks the reference's t-th document below its u-th.
    """

    def _init_pairs(self, members: np.ndarray | None):
        """All pairs, or those touching a member (a boolean per reference position)."""
        m = self.m
        self._pairs = np.triu(np.ones((m, m), dtype=bool), k=1)
        if members is not None:
            self._pairs &= members[:, None] | members[None, :]
        self._members = members
        self._n_pairs = int(np.count_nonzero(self._pairs))
        self._ref_pos = _ranks_of(self.reference)
        self._rank_values = np.arange(m, dtype=np.min_scalar_type(m - 1))
        self._narrow_ref_pos = self._ref_pos.astype(self._rank_values.dtype)  # compared, not indexed
        # A list's count is at most P, so a narrow signed sum is exact.
        self._count_dtype = np.int32 if self._n_pairs < 2**31 else np.int64
        self._rank_pairs = None  # rank pairs r < s, made by the first call of k >= m lists

    def evaluate_many(self, perms: np.ndarray) -> np.ndarray:
        perms = self._check(perms)
        # Compare along the longer axis, the lists' or the documents': numpy's
        # per-row overhead outweighs the work of a short inner loop.
        if len(perms) >= perms.shape[1]:
            discordant = self._count_by_rank(perms)
        else:
            discordant = self._count_by_document(perms)
        return (self._n_pairs - 2 * discordant) / self._n_pairs

    def _count_by_document(self, perms: np.ndarray) -> np.ndarray:
        """Discordant pairs per list from (rows, m, m) comparisons of the ranks
        of the reference's documents."""
        k, m = perms.shape
        # a[i, t]: the rank perms[i] gives the reference's t-th document.
        a = np.empty((k, m), dtype=self._rank_values.dtype)
        a[np.arange(k)[:, None], self._ref_pos[perms]] = self._rank_values
        discordant = np.empty(k, dtype=np.int64)
        # Chunks of (rows, m, m) comparisons within MASK_BUDGET_BYTES, or one list.
        step = chunk_size(m * m)
        for lo in range(0, k, step):
            rows = a[lo:lo + step]
            worse = rows[:, :, None] > rows[:, None, :]
            worse &= self._pairs
            discordant[lo:lo + step] = worse.reshape(len(rows), -1).sum(1, self._count_dtype)
        return discordant

    def _count_by_rank(self, perms: np.ndarray) -> np.ndarray:
        """Discordant pairs per list from (pairs, k) comparisons along the lists.

        q[r, i] is the reference position of list i's r-th document, so rank
        pair r < s is discordant when q[r] > q[s], and counts when either
        document is a member. The pairs are walked in blocks within
        MASK_BUDGET_BYTES of (pairs, k) booleans."""
        if self._rank_pairs is None:
            self._rank_pairs = np.triu_indices(self.m, k=1)
        first, second = self._rank_pairs
        q = self._narrow_ref_pos.take(perms.T)
        member = None if self._members is None else self._members[q]
        discordant = np.zeros(len(perms), dtype=np.int64)
        step = min(255, chunk_size(len(perms)))  # so a block's counts fit a uint8
        for lo in range(0, len(first), step):
            r, s = first[lo:lo + step], second[lo:lo + step]
            worse = q.take(r, axis=0) > q.take(s, axis=0)
            if member is not None:
                worse &= member.take(r, axis=0) | member.take(s, axis=0)
            discordant += worse.view(np.uint8).sum(0, dtype=np.uint8)
        return discordant


class KendallTauObjective(_PairTauObjective):
    def __init__(self, reference):
        super().__init__(reference)
        self._init_pairs(None)

    def describe(self) -> str:
        return "kendall"


class TopKTauObjective(_PairTauObjective):
    """Tau over pairs touching a document subset (top-k of the reference by default)."""

    def __init__(self, reference, k: int | None = None, docs: Iterable[int] | None = None):
        super().__init__(reference)
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
        self._init_pairs(members[self.reference])

    def describe(self) -> str:
        return self._label


class DocRankObjective(ListwiseObjective):
    """Similarity of one document's rank to its reference position, in [0,1]."""

    def __init__(self, reference, target_doc: int):
        super().__init__(reference)
        if not 0 <= target_doc < self.m:
            raise ValueError(f"doc index {target_doc} out of range for m={self.m}")
        self.target_doc = target_doc
        self._ref_rank = int(_ranks_of(self.reference)[target_doc])

    def evaluate_many(self, perms: np.ndarray) -> np.ndarray:
        perms = self._check(perms)
        rank = np.argmax(perms == self.target_doc, axis=1)
        return 1.0 - np.abs(rank - self._ref_rank) / (self.m - 1)

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


class CoalitionGame:
    """Coalition game v(S, b) over a background, evaluated in batches by `values`.

    `_values` masks the scored rows `X` with background rows, scores them and
    reduces each coalition's scores with the `_reduce` a subclass implements:
    one value per (coalition, row) pair. `_grid_means` averages it over the
    background, evaluating each distinct row once per coalition; `means` (and
    `mean_value`, a one-coalition `means`) and `table` call it. `values` takes
    background indices, and `value` one coalition and any row. Once `table` has
    evaluated every coalition, `means` reads it.

    Given the `scorer` and the rows it scores, the game plays only the columns
    in `scorer.reads(n)`: it keys background rows, coalitions and (coalition,
    row) pairs on them, evaluates one of each key and, unless the scorer reads
    every column, gives it those columns alone. Every output keeps the bytes of
    the full game.
    """

    def __init__(self, n: int, background: BackgroundSet | np.ndarray,
                 scorer: Scorer | None = None, X: np.ndarray | None = None):
        self.n = n
        self.background = background_array(background)
        if self.background.ndim != 2 or not len(self.background) or self.background.shape[1] != n:
            raise DimensionError(f"background shape {self.background.shape} is not (>= 1, {n})")
        self.scorer, self.X = scorer, X
        self._played, self._cols = np.arange(n), slice(None)
        if scorer is not None:
            self._play()
        first, self._inverse = first_rows(self.background[:, self._played])
        self._distinct = np.ascontiguousarray(self.background[first][:, self._cols])
        self._table = None

    def _play(self) -> None:
        n, scorer = self.n, self.scorer
        reads = np.asarray(scorer.reads(n))
        if reads.ndim != 1 or reads.size and (reads.dtype.kind not in "iu" or reads[0] < 0
                                              or reads[-1] >= n or (np.diff(reads) <= 0).any()):
            raise ValueError(f"scorer {scorer.name}: reads({n}) must be strictly increasing"
                             f" feature indices in [0, {n}), got {reads.tolist()}")
        self._played = reads.astype(np.intp)  # np.asarray([]) is float
        # Padded to whole bytes with the last: one flat np.packbits then packs each row.
        self._packed = np.pad(self._played, (0, -len(self._played) % 8), mode="edge")
        if len(self._played) < n:  # `_values` gets those columns alone
            self._cols = self._played
        self._X = np.ascontiguousarray(self.X[:, self._cols])  # X[:, cols] is F-ordered

    def _values(self, visible: np.ndarray, rows: np.ndarray,
                index: np.ndarray | None = None) -> np.ndarray:
        """v of k coalitions, one per row of the boolean `visible`, and of k background
        rows, `rows` or, given `index`, `rows[index]`, both on the columns `_cols`: `X`
        masked by each pair, scored and reduced. A chunk holds whole batches of the
        distinct background rows within MASK_BUDGET_BYTES of masked rows, and at least
        one; one score call each. The hidden entries are read from `rows` in place, so
        no background row is copied per pair."""
        m, n = self._X.shape
        step = chunk_size(m * n * 8, len(self._distinct))
        out = np.empty(len(rows) if index is None else len(index))
        for lo in range(0, len(out), step):
            vis = visible[lo:lo + step]
            k = len(vis)
            # (k, m, n): a copy of X per pair, with the pair's hidden background
            # entries, read from `rows` in place, scattered into every row of X alike.
            masked = np.repeat(self._X[None], k, axis=0)
            c, j = np.nonzero(~vis)
            masked[c, :, j] = rows[lo + c if index is None else index[lo + c], j, None]
            scores = self.scorer.score_batch(masked.reshape(k * m, n))
            del masked  # before the reduce and the next chunk's copy: lowers peak memory
            out[lo:lo + k] = self._reduce(scores.reshape(k, m))
        return out

    def _reduce(self, scores: np.ndarray) -> np.ndarray:
        """Values of a (c, m) score matrix, one per row; subclasses implement it."""
        raise NotImplementedError

    def values(self, visible: np.ndarray, index: np.ndarray) -> np.ndarray:
        """v of k pairs: one coalition per row of the boolean `visible` (or one row for
        all k) and one index into the background per pair. Unless every column is played,
        the pairs are keyed on their packed played bits and distinct row, and `_values`
        evaluates each key once. `_values` reads the distinct rows by index, so no float
        row is copied per pair."""
        inv = self._inverse[index]
        visible = np.broadcast_to(visible, (len(inv), self.n))
        if len(self._played) == self.n or len(inv) < 2:
            return self._values(visible[:, self._cols], self._distinct, inv)
        index_bytes = inv.astype(np.min_scalar_type(len(self._distinct)))[:, None].view(np.uint8)
        keys = np.hstack([np.packbits(visible[:, self._packed]).reshape(len(inv), -1), index_bytes])
        first, inverse = first_rows(keys)
        return self._values(visible[first][:, self._cols], self._distinct, inv[first])[inverse]

    def _visible(self, visible) -> np.ndarray:
        return coalition_to_template(visible, self.n)[None, :] == 0

    def value(self, visible, b: np.ndarray) -> float:
        C = self._cols
        return float(self._values(self._visible(visible)[:, C], np.asarray(b, float)[None, C])[0])

    def table(self) -> np.ndarray:
        """Read-only `means` of all 2^n coalitions by bitmask (bit i set: feature
        i visible), evaluated on the first call in chunks within
        MASK_BUDGET_BYTES; CapacityError above EXACT_MAX_N. Only the 2^r
        patterns of the r played columns are evaluated."""
        if self._table is None:
            n, P = self.n, self._played
            check_exact_width(n)
            r = len(P)
            pattern_means = np.empty(1 << r)
            step = chunk_size(self._distinct.nbytes)
            for lo in range(0, 1 << r, step):
                patterns = np.arange(lo, min(lo + step, 1 << r), dtype=np.uint32)[:, None]
                visible = np.zeros((len(patterns), n), dtype=bool)
                visible[:, P] = (patterns >> np.arange(r, dtype=np.uint32)) & 1 != 0
                pattern_means[lo:lo + step] = self._grid_means(visible)
            masks = np.arange(1 << n, dtype=np.uint32)
            pattern = np.zeros(1 << n, dtype=np.uint32)
            for j, i in enumerate(P.tolist()):
                pattern |= ((masks >> i) & 1) << j
            table = pattern_means[pattern]
            table.flags.writeable = False
            self._table = table
        return self._table

    def means(self, visible: np.ndarray) -> np.ndarray:
        """Background mean of v(S, .) for each row of the (c, n) boolean
        `visible`: a read of the table once it exists, otherwise
        `_grid_means` of one coalition per pattern of the played columns."""
        if self._table is not None:
            return self._table[visible @ (1 << np.arange(self.n))]
        if len(self._played) == self.n:
            return self._grid_means(visible)
        first, inverse = first_rows(visible[:, self._played])
        return self._grid_means(visible[first])[inverse]

    def _grid_means(self, visible: np.ndarray) -> np.ndarray:
        """Background means of coalitions that differ on the played columns,
        tiled over the distinct background rows in chunks within
        MASK_BUDGET_BYTES of rows and read back in background order."""
        k = len(self._distinct)
        out = np.empty(len(visible))
        step = chunk_size(self._distinct.nbytes)
        for lo in range(0, len(visible), step):
            vis = visible[lo:lo + step, self._cols]
            c = len(vis)
            vals = self._values(np.repeat(vis, k, axis=0), np.tile(self._distinct, (c, 1)))
            # np.take gives a C-contiguous (c, len(inverse)) array, whose row means
            # sum in the order of a full evaluation; vals[:, inverse] is F-ordered
            # and sums in another order.
            out[lo:lo + c] = np.take(vals.reshape(c, k), self._inverse, axis=1).mean(axis=1)
        return out

    def mean_value(self, visible) -> float:
        return float(self.means(self._visible(visible))[0])


class ListwiseGame(CoalitionGame):
    """Coalition game for one query: v(S, b) is the objective of the masked list."""

    def __init__(self, group: QueryGroup, scorer: Scorer, objective: ListwiseObjective,
                 background: BackgroundSet | np.ndarray):
        self.objective = objective
        self.m = len(group)
        super().__init__(group.n, background, scorer, group.feature_matrix())

    def _reduce(self, scores: np.ndarray) -> np.ndarray:
        return self.objective.evaluate_many(rank_many(scores))
