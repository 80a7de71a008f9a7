"""Coalition encoding, background rows and the memory budget of batched masking.

Convention: template bit 1 means the feature is replaced by the background
value, bit 0 keeps the original. A coalition lists the VISIBLE features, so
its template has 0 exactly at the coalition members.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import CapacityError

# Widest game whose 2^n coalitions are enumerated: at n = 20 the 2^n uint32
# coalition masks take 4 MiB and their values 8 MiB.
EXACT_MAX_N = 20

# Byte budget of one batch of masked rows. The batched game and the estimators
# cut their coalition batches into chunks of at most this size.
MASK_BUDGET_BYTES = 256 * 1024


def check_exact_width(n: int) -> None:
    """Raise CapacityError when 2^n coalitions are too many to enumerate."""
    if n > EXACT_MAX_N:
        raise CapacityError(f"exact enumeration needs n <= {EXACT_MAX_N}, got n={n}")


def chunk_size(item_bytes: int, group: int = 1) -> int:
    """Items per chunk: whole groups of `group` items within MASK_BUDGET_BYTES,
    and at least one group."""
    return group * max(1, MASK_BUDGET_BYTES // (group * item_bytes))


def first_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row's first occurrence, in first-seen order,
    and the index of each row among them, so that `keys[first][inverse]`
    equals `keys`; rows without repeats give `first = arange(len(keys))`.

    Rows are keyed by their bytes, so -0.0 and 0.0 stay apart: `np.unique`
    with `axis=0` compares them as equal floats and would merge them.
    """
    keys = np.ascontiguousarray(keys)
    if keys.shape[1] == 0:  # one empty key for every row
        return np.arange(min(len(keys), 1)), np.zeros(len(keys), dtype=np.intp)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return first[order], position[inverse.ravel()]


def coalition_to_template(visible: Iterable[int], n: int) -> np.ndarray:
    """Template with bit 0 at each visible feature index, 1 elsewhere."""
    bits = np.ones(n, dtype=np.uint8)
    idx = np.fromiter(visible, dtype=int)
    if idx.size:
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"coalition index out of range for n={n}")
        bits[idx] = 0
    return bits
