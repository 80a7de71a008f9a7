"""Non-Shapley comparison attributors: greedy selection and random values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import Attribution, estimator_meta
from .objectives import ListwiseGame

FULL = "full"


@dataclass
class GreedyResult:
    """Selection order plus the two greedy attribution readings.

    attributions_iter holds each feature's marginal contribution at the moment
    it was added; attributions_marg holds its leave-one-out contribution with
    respect to the final selection. Unselected features are 0 in both.
    evaluations counts the coalitions passed to `means`: 1 + sum(n - t) over
    the steps t taken, plus one leave-one-out coalition per selected feature.
    """

    selection_order: list[int]
    attributions_iter: np.ndarray
    attributions_marg: np.ndarray
    evaluations: int


def greedy_select(
    means,
    n: int,
    k,
    *,
    stop_on_negative: bool = False,
) -> GreedyResult:
    """Iteratively add the feature with the largest marginal gain to ṽ.

    `means` gives ṽ for (c, n) boolean rows of visible features, as
    `ListwiseGame.means` does; each step makes one call. `k` is the target
    selection size or FULL to add every feature. With stop_on_negative,
    selection also stops once every remaining feature has a negative marginal
    contribution. Argmax ties break to the lowest index.
    """
    if k == FULL:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] or FULL, got {k}")
    eye = np.eye(n, dtype=bool)
    visible = np.zeros(n, dtype=bool)
    selected: list[int] = []
    iter_attr = np.zeros(n)
    current = means(visible[None, :])[0]
    evaluations = 1
    while len(selected) < k:
        candidates = np.flatnonzero(~visible)
        vals = means(visible | eye[candidates])
        evaluations += len(candidates)
        gains = vals - current
        best = int(np.argmax(gains))
        if stop_on_negative and gains[best] < 0:
            break
        feat = int(candidates[best])
        selected.append(feat)
        visible[feat] = True
        iter_attr[feat] = gains[best]
        current = vals[best]

    marg_attr = np.zeros(n)
    marg_attr[selected] = current - means(visible & ~eye[selected])
    evaluations += len(selected)
    return GreedyResult(
        selection_order=selected,
        attributions_iter=iter_attr,
        attributions_marg=marg_attr,
        evaluations=evaluations,
    )


def greedy_attribution(game: ListwiseGame, k, *, stop_on_negative: bool = False) -> GreedyResult:
    """Greedy feature selection on the listwise game's background means."""
    return greedy_select(game.means, game.n, k, stop_on_negative=stop_on_negative)


def random_attribution(n: int, seed: int) -> Attribution:
    """Uniform random values normalized to sum to 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    values = rng.uniform(size=n)
    values /= values.sum()
    return Attribution(values=values, base_value=0.0, meta=estimator_meta("random", 0, 0, seed))
