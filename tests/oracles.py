"""Scalar reference implementations of listwise masking and the objectives.

The package computes the listwise game only in batches (`ListwiseGame.values`
and the objective classes' `evaluate_many`). These one-list, one-permutation
forms are kept here as independent oracles for the tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from rankshap import DimensionError, Document, QueryGroup, rank


def apply_mask(x: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Keep x where t is 0, take b where t is 1."""
    x, t, b = np.asarray(x, dtype=float), np.asarray(t), np.asarray(b, dtype=float)
    if not (x.shape == t.shape == b.shape):
        raise DimensionError(
            f"shape mismatch: x{x.shape}, t{t.shape}, b{b.shape}"
        )
    return np.where(t == 0, x, b)


def masked_matrix(X: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`apply_mask` applied row-wise to a (m, n) feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(t) or X.shape[1] != len(b):
        raise DimensionError(f"shape mismatch: X{X.shape}, t({len(t)},), b({len(b)},)")
    return np.where(np.asarray(t) == 0, X, np.asarray(b, dtype=float))


def masked_group(group: QueryGroup, t: np.ndarray, b: np.ndarray) -> QueryGroup:
    """Apply the same (t, b) mask to every document of the group."""
    docs = tuple(
        Document(
            query_id=d.query_id,
            doc_index=d.doc_index,
            features=apply_mask(d.features, t, b),
            relevance=d.relevance,
        )
        for d in group.documents
    )
    return QueryGroup(query_id=group.query_id, documents=docs, n=group.n)


def _check_perm_pair(pi_ref, pi) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(pi_ref, dtype=int), np.asarray(pi, dtype=int)
    if a.shape != b.shape:
        raise DimensionError(f"permutation lengths differ: {a.shape} vs {b.shape}")
    return a, b


def _ranks_of(perm: np.ndarray) -> np.ndarray:
    """Position of each doc in the permutation (inverse permutation)."""
    return np.argsort(perm)


def kendall_tau(pi_ref, pi) -> float:
    """Kendall's tau-a over all document pairs (permutations are tie-free)."""
    a, b = _check_perm_pair(pi_ref, pi)
    m = len(a)
    if m < 2:
        raise ValueError("kendall_tau needs at least 2 documents")
    ra, rb = _ranks_of(a), _ranks_of(b)
    iu, ju = np.triu_indices(m, k=1)
    s = np.sign(ra[iu] - ra[ju]) * np.sign(rb[iu] - rb[ju])
    return float(s.sum() / len(s))


def subset_tau(pi_ref, pi, docs: Iterable[int]) -> float:
    """Tau restricted to pairs with at least one member in `docs`."""
    a, b = _check_perm_pair(pi_ref, pi)
    m = len(a)
    if m < 2:
        raise ValueError("subset_tau needs at least 2 documents")
    members = np.zeros(m, dtype=bool)
    idx = np.fromiter(docs, dtype=int)
    if idx.size == 0:
        raise ValueError("document subset must be non-empty")
    if idx.min() < 0 or idx.max() >= m:
        raise ValueError(f"document index out of range for m={m}")
    members[idx] = True
    ra, rb = _ranks_of(a), _ranks_of(b)
    iu, ju = np.triu_indices(m, k=1)
    keep = members[iu] | members[ju]
    s = np.sign(ra[iu[keep]] - ra[ju[keep]]) * np.sign(rb[iu[keep]] - rb[ju[keep]])
    return float(s.sum() / len(s))


def topk_tau(pi_ref, pi, k: int) -> float:
    """Tau over pairs touching the top-k documents of the reference ranking."""
    a, _ = _check_perm_pair(pi_ref, pi)
    if not 1 <= k <= len(a):
        raise ValueError(f"k must be in [1, {len(a)}], got {k}")
    return subset_tau(pi_ref, pi, a[:k])


def doc_rank_distance(pi_ref, pi, j: int) -> float:
    """1 - |rank shift of doc j| / (m-1); 1 means position preserved."""
    a, b = _check_perm_pair(pi_ref, pi)
    m = len(a)
    if m < 2:
        raise ValueError("doc_rank_distance needs at least 2 documents")
    if not 0 <= j < m:
        raise ValueError(f"doc index {j} out of range for m={m}")
    return 1.0 - abs(int(_ranks_of(b)[j]) - int(_ranks_of(a)[j])) / (m - 1)


def value_function(group, scorer, objective, t: np.ndarray, b: np.ndarray) -> float:
    """Similarity of the masked group's ranking to the reference ranking."""
    perturbed = masked_matrix(group.feature_matrix(), t, b)
    return objective.evaluate(rank(scorer.score_batch(perturbed)))
