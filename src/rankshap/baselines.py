"""Non-Shapley comparison attributors: greedy selection and random values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import Attribution, _background_array
from .data import BackgroundSet, QueryGroup
from .objectives import ListwiseGame, ListwiseObjective
from .rankers import Scorer

FULL = "full"


@dataclass
class GreedyResult:
    """Selection order plus the two greedy attribution readings.

    attributions_iter holds each feature's marginal contribution at the moment
    it was added; attributions_marg holds its leave-one-out contribution with
    respect to the final selection. Unselected features are 0 in both.
    """

    selection_order: list[int]
    attributions_iter: np.ndarray
    attributions_marg: np.ndarray
    evaluations: int


def greedy_select(
    vtilde,
    n: int,
    k,
    *,
    stop_on_negative: bool = False,
) -> GreedyResult:
    """Iteratively add the feature with the largest marginal gain to ṽ.

    `k` is the target selection size or FULL to add every feature. With
    stop_on_negative, selection also stops once every remaining feature has a
    negative marginal contribution. Argmax ties break to the lowest index.
    """
    if k == FULL:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] or FULL, got {k}")
    cache: dict[tuple[int, ...], float] = {}
    calls = 0

    def v(sel: tuple[int, ...]) -> float:
        nonlocal calls
        if sel not in cache:
            cache[sel] = vtilde(sel)
            calls += 1
        return cache[sel]

    selected: list[int] = []
    iter_attr = np.zeros(n)
    current = v(())
    while len(selected) < k:
        best_gain, best_feat = None, None
        for i in range(n):
            if i in selected:
                continue
            gain = v(tuple(sorted(selected + [i]))) - current
            if best_gain is None or gain > best_gain:
                best_gain, best_feat = gain, i
        if stop_on_negative and best_gain < 0:
            break
        selected.append(best_feat)
        iter_attr[best_feat] = best_gain
        current = v(tuple(sorted(selected)))

    marg_attr = np.zeros(n)
    final = tuple(sorted(selected))
    v_final = v(final)
    for i in selected:
        marg_attr[i] = v_final - v(tuple(j for j in final if j != i))
    return GreedyResult(
        selection_order=selected,
        attributions_iter=iter_attr,
        attributions_marg=marg_attr,
        evaluations=calls,
    )


def greedy_attribution(
    group: QueryGroup,
    scorer: Scorer,
    objective: ListwiseObjective,
    background: BackgroundSet | np.ndarray,
    k,
    *,
    stop_on_negative: bool = False,
) -> GreedyResult:
    """Greedy feature selection on the listwise value function."""
    game = ListwiseGame(group, scorer, objective, _background_array(background))
    return greedy_select(game.mean_value, game.n, k, stop_on_negative=stop_on_negative)


def random_attribution(n: int, seed: int) -> Attribution:
    """Uniform random values normalized to sum to 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    values = rng.uniform(size=n)
    values /= values.sum()
    meta = {"estimator": "random", "n_samples": 0, "background_size": 0, "seed": seed}
    return Attribution(values=values, base_value=0.0, meta=meta)
