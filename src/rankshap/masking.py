"""Coalition encoding and listwise background masking.

Convention: template bit 1 means the feature is replaced by the background
value, bit 0 keeps the original. A coalition lists the VISIBLE features, so
its template has 0 exactly at the coalition members.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .data import Document, QueryGroup
from .errors import DimensionError

# Byte budget of one batch of masked rows. The batched game and the estimators
# cut their coalition batches into chunks of at most this size.
MASK_BUDGET_BYTES = 256 * 1024


def chunk_size(item_bytes: int, group: int = 1) -> int:
    """Items per chunk: whole groups of `group` items within MASK_BUDGET_BYTES,
    and at least one group."""
    return group * max(1, MASK_BUDGET_BYTES // (group * item_bytes))


def coalition_to_template(visible: Iterable[int], n: int) -> np.ndarray:
    """Template with bit 0 at each visible feature index, 1 elsewhere."""
    bits = np.ones(n, dtype=np.uint8)
    idx = np.fromiter(visible, dtype=int)
    if idx.size:
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"coalition index out of range for n={n}")
        bits[idx] = 0
    return bits


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
