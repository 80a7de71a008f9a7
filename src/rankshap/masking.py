"""Coalition encoding and the memory budget of batched listwise masking.

Convention: template bit 1 means the feature is replaced by the background
value, bit 0 keeps the original. A coalition lists the VISIBLE features, so
its template has 0 exactly at the coalition members.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

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
