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

# Byte budget of one batch: the masked float rows of the batched game with the
# indices of their hidden entries, the masked walks of permutation sampling with
# their per-sample arrays, and the comparisons of the pair-tau reduce are cut
# into chunks of at most this size. Of 256 to 768 KiB, 512 KiB was the fastest
# for permutation sampling within +5% peak memory, when its chunk still counted
# 8 bytes per prefix entry of its boolean coalitions.
MASK_BUDGET_BYTES = 512 * 1024


def check_exact_width(n: int) -> None:
    """Raise CapacityError when 2^n coalitions are too many to enumerate."""
    if n > EXACT_MAX_N:
        raise CapacityError(f"exact enumeration needs n <= {EXACT_MAX_N}, got n={n}")


def chunk_size(item_bytes: int, group: int = 1) -> int:
    """Items per chunk: whole groups of `group` items within MASK_BUDGET_BYTES,
    and at least one group; an item of 0 bytes (a row of no columns) counts as 1."""
    return group * max(1, MASK_BUDGET_BYTES // (group * max(item_bytes, 1)))


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
    width = keys.itemsize * keys.shape[1]
    if width <= 8:  # zero-padded to one uint64 each, which sorts faster than np.void
        padded = np.zeros((len(keys), 8), dtype=np.uint8)
        padded[:, :width] = keys.view(np.uint8).reshape(len(keys), width)
        keys = padded.view(np.uint64).ravel()
    else:
        keys = keys.view(np.dtype((np.void, width))).ravel()
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
