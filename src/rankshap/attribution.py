"""Shapley attribution estimators over coalition games.

Estimators take a value function v(S, b), where S is the set of visible
feature indices and b one background vector. Expectations over the background
set are always full means, so the exact estimator is deterministic.

Each estimator plays the `CoalitionGame` that `_as_game` makes of its
arguments: exact enumeration reads its `table()`, the kernel its `means` and
permutation sampling its batched `values`, one background index per prefix.
When `value_fn` is a game's bound `value` and no `mean_value_fn` is given,
that is the game itself on its own background, whose table is kept, and
otherwise a game over the given background that masks through the bound
game's `_values`. Any other `value_fn` is lifted one coalition and row at a
time, and a `mean_value_fn(S)` given to the exact or kernel estimator is
called once per coalition instead.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import BackgroundSet, QueryGroup, background_array
from .errors import EstimationError
# Nothing here calls coalition_to_template; perfbench's tracer patches this
# module's name for it.
from .masking import chunk_size, coalition_to_template, first_rows
from .objectives import CoalitionGame, ListwiseGame, ListwiseObjective, reference_ranking
from .rankers import Scorer


ESTIMATORS = ("exact", "permutation", "kernel")


@dataclass
class EstimatorConfig:
    kind: str = "exact"  # one of ESTIMATORS
    n_samples: int = 2048
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ESTIMATORS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "kernel" and self.n_samples < 2:
            raise ValueError(f"kernel estimator needs n_samples >= 2, got {self.n_samples}")
        if self.kind == "permutation" and self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")


def check_kernel_budget(n: int, n_samples: int) -> None:
    """Raise EstimationError for a kernel budget that can never give a full-rank
    design. Below the full 2^n enumeration, the n_samples - 2 sampled rows
    pair each draw with its complement, whose row in the constrained fit is
    the draw's negated; n - 1 independent draws need n_samples >= 2n - 1."""
    if n_samples < 2 * n - 1:
        raise EstimationError(
            f"kernel estimator needs n_samples >= 2n - 1 = {2 * n - 1} for {n} features"
            f" to have a full-rank design, got {n_samples}"
        )


@dataclass
class Attribution:
    """Per-feature attribution values plus estimator metadata."""

    values: np.ndarray
    base_value: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ValueError("attribution values must be finite")
        if not math.isfinite(self.base_value):
            raise ValueError(f"attribution base_value must be finite, got {self.base_value!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def save(self, csv_path: str | Path) -> None:
        """Write `feature_index,phi` CSV plus a JSON sidecar with the metadata."""
        csv_path = Path(csv_path)
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature_index", "phi"])
            for i, phi in enumerate(self.values):
                writer.writerow([i, repr(float(phi))])
        sidecar = dict(self.meta, base_value=self.base_value)
        csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))

    @classmethod
    def load(cls, csv_path: str | Path) -> "Attribution":
        """Read a `save`d attribution; a malformed CSV or sidecar raises a
        ValueError naming the file, and the CSV line for a bad row."""
        csv_path = Path(csv_path)
        with csv_path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [(reader.line_num, row) for row in reader]
        if not {"feature_index", "phi"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{csv_path}: header must name feature_index and phi")
        if not rows:
            raise ValueError(f"{csv_path}: no attribution rows")
        values = np.empty(len(rows))
        seen = np.zeros(len(rows), dtype=bool)
        for line, row in rows:
            if None in row:
                raise ValueError(f"{csv_path}: line {line} has more fields than the header")
            index, phi = row["feature_index"], row["phi"]
            try:
                i = int(index)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{csv_path}: feature_index {index!r} on line {line} is not an integer"
                ) from None
            if not 0 <= i < len(rows) or seen[i]:
                raise ValueError(f"{csv_path}: feature_index {i} on line {line} is repeated"
                                 f" or outside 0..{len(rows) - 1}")
            try:
                values[i] = float(phi)
            except (TypeError, ValueError):
                values[i] = math.nan
            if not math.isfinite(values[i]):
                raise ValueError(f"{csv_path}: phi {phi!r} on line {line} is not a finite number")
            seen[i] = True
        meta = {}
        sidecar = csv_path.with_suffix(".json")
        if sidecar.exists():
            try:
                meta = json.loads(sidecar.read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(f"{sidecar}: invalid JSON: {exc}") from None
            if not isinstance(meta, dict):
                raise ValueError(f"{sidecar}: expected a JSON object")
        base_value = meta.pop("base_value", 0.0)
        # A type check, since bool is an int subclass.
        if type(base_value) not in (int, float) or not math.isfinite(base_value):
            raise ValueError(f"{sidecar}: base_value {base_value!r} is not a finite number")
        return cls(values=values, base_value=float(base_value), meta=meta)


ValueFn = Callable[[Sequence[int], np.ndarray], float]
ValuesFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def shapley_weight(n: int, s: int) -> float:
    """Coalition weight s!(n-s-1)!/n! for a coalition of size s out of n features."""
    if not 0 <= s <= n - 1:
        raise ValueError(f"coalition size {s} out of range for n={n}")
    # Int true division is correctly rounded at every size.
    return math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)


def kernel_weight(n: int, s: int) -> float:
    """SHAP kernel weight (n-1) / (C(n,s) * s * (n-s)) for 1 <= s <= n-1."""
    if not 1 <= s <= n - 1:
        raise ValueError(f"interior coalition size {s} out of range for n={n}")
    return (n - 1) / (math.comb(n, s) * s * (n - s))


def estimator_meta(estimator: str, n_samples: int, background_size: int, seed: int,
                   **extra) -> dict:
    """The `meta` dict of an attribution: how it was estimated, plus `extra` keys."""
    return {
        "estimator": estimator,
        "n_samples": n_samples,
        "background_size": background_size,
        "seed": seed,
        **extra,
    }


def _members(visible: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(visible).tolist())


class _GameOver(CoalitionGame):
    """A game over a given background whose `_values` is the given `values(visible,
    rows)`; each coalition mean, in `means` or `table()`, is one `mean_value_fn(S)`
    call instead, unless that is None. Given the `game` whose `_values` that is, it
    plays the columns that game's scorer reads."""

    def __init__(self, n: int, B: np.ndarray, values: ValuesFn, mean_value_fn,
                 game: CoalitionGame | None = None):
        if game is None:
            super().__init__(n, B)
        else:
            super().__init__(n, B, game.scorer, game.X)
        self._values = values
        self._mean_value_fn = mean_value_fn

    def _grid_means(self, visible: np.ndarray) -> np.ndarray:
        if self._mean_value_fn is None:
            return super()._grid_means(visible)
        return np.array([self._mean_value_fn(_members(v)) for v in visible])


def _as_game(value_fn: ValueFn, n: int, B: np.ndarray, mean_value_fn=None) -> CoalitionGame:
    """Without a `mean_value_fn`, the game whose bound `value` is `value_fn` when
    B has that game's background bytes, or a game over B that masks its rows
    through that game's `_values`; otherwise a game over B that evaluates
    `value_fn` one coalition and row at a time, or `mean_value_fn` once per
    coalition for its means."""
    game = getattr(value_fn, "__self__", None)
    if mean_value_fn is None and isinstance(game, CoalitionGame) and value_fn == game.value:
        if (game.n == n and B.shape == game.background.shape
                and B.tobytes() == game.background.tobytes()):
            return game
        return _GameOver(n, B, game._values, None, game)

    def values(visible, rows):
        return np.array([value_fn(_members(v), b) for v, b in zip(visible, rows)])

    return _GameOver(n, B, values, mean_value_fn)


def exact_shapley(
    value_fn: ValueFn,
    n: int,
    background,
    *,
    mean_value_fn=None,
) -> Attribution:
    """Exact Shapley values by full coalition enumeration (2^n evaluations)."""
    B = background_array(background)
    V = _as_game(value_fn, n, B, mean_value_fn).table()
    masks = np.arange(1 << n, dtype=np.uint32)
    sizes = sum((masks >> i) & 1 for i in range(n))
    w = np.array([shapley_weight(n, s) for s in range(n)])
    values = np.empty(n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        values[i] = np.sum(w[sizes[without]] * (V[without | (1 << i)] - V[without]))
    meta = estimator_meta("exact", 1 << n, len(B), int(getattr(background, "seed", 0)))
    return Attribution(values=values, base_value=float(V[0]), meta=meta)


def permutation_shapley(
    value_fn: ValueFn,
    n: int,
    background,
    n_samples: int,
    seed: int,
) -> Attribution:
    """Monte Carlo Shapley estimation by sampled feature permutations.

    One sample draws a permutation and one background vector and walks the
    permutation once, so it yields a marginal contribution for every feature
    at the cost of n+1 value evaluations. The n+1 prefixes of a chunk of
    samples are evaluated in one batch, and the chunk's contributions are
    added in one step that still sums them sample by sample, in the order
    they are drawn.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    B = background_array(background)
    evaluate = _as_game(value_fn, n, B).values
    rng = np.random.default_rng(seed)
    contrib = np.zeros(n)
    base_sum = 0.0
    prefix = np.arange(n + 1)[:, None]
    step = chunk_size((n + 1) * n * 8)
    for lo in range(0, n_samples, step):
        c = min(step, n_samples - lo)
        sigmas = np.empty((c, n), dtype=np.intp)
        index = np.empty(c, dtype=np.intp)
        for j in range(c):
            sigmas[j] = rng.permutation(n)
            index[j] = rng.integers(len(B))
        # Prefix j of a permutation holds the features at positions below j.
        pos = np.argsort(sigmas, axis=1)
        visible = (prefix > pos[:, None, :]).reshape(c * (n + 1), n)
        vals = evaluate(visible, np.repeat(index, n + 1)).reshape(c, n + 1)
        # Each sample's steps in feature order, added to the sums in the order drawn.
        steps = np.take_along_axis(np.diff(vals, axis=1), pos, axis=1)
        contrib = np.add.accumulate(np.vstack([contrib, steps]))[-1]
        base_sum = float(np.add.accumulate(np.append(base_sum, vals[:, 0]))[-1])
    meta = estimator_meta("permutation", n_samples, len(B), seed)
    return Attribution(values=contrib / n_samples, base_value=base_sum / n_samples, meta=meta)


def _solve_constrained_wls(Z: np.ndarray, y: np.ndarray, w: np.ndarray, delta: float) -> np.ndarray:
    """Weighted additive fit with the efficiency constraint sum(phi) = delta; n >= 2."""
    n = Z.shape[1]
    # Eliminate the last coefficient through the constraint, then solve WLS.
    y_adj = y - Z[:, -1] * delta
    X = Z[:, :-1] - Z[:, -1][:, None]
    sw = np.sqrt(w)[:, None]
    sol, _, rank, _ = np.linalg.lstsq(X * sw, (y_adj * np.sqrt(w)), rcond=None)
    if rank < n - 1:
        raise EstimationError(
            "singular kernel regression system; increase n_samples for a full-rank design"
        )
    phi = np.empty(n)
    phi[:-1] = sol
    phi[-1] = delta - sol.sum()
    return phi


@functools.lru_cache(maxsize=1)
def _kernel_design(n: int, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Kernel SHAP coalitions for n >= 2: read-only `(c, n)` boolean rows, their
    weights, and the coalitions evaluated including the empty and full ones.

    The design depends only on its arguments, so the latest one is kept for
    the pointwise top documents and queries that share a config. Full
    enumeration lists masks in ascending order. Sampling draws each coalition
    followed by its complement; a repeated draw adds weight to the row of its
    first draw.
    """
    if n_samples >= (1 << n):
        masks = np.arange(1, (1 << n) - 1, dtype=np.uint64)
        rows = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)) != 0
        size_weight = np.array([0.0] + [kernel_weight(n, s) for s in range(1, n)])
        weights = size_weight[rows.sum(axis=1)]
        evaluations = 1 << n
    else:
        rng = np.random.default_rng(seed)
        sizes = np.arange(1, n)
        p = (n - 1) / (sizes * (n - sizes))
        p /= p.sum()
        budget = n_samples - 2
        draws = np.zeros((budget, n), dtype=bool)
        for row in draws[::2]:
            s = int(rng.choice(sizes, p=p))
            row[rng.choice(n, size=s, replace=False)] = True
        draws[1::2] = ~draws[::2][:budget // 2]
        first, inverse = first_rows(draws)
        rows = draws[first]
        weights = np.bincount(inverse).astype(float)
        evaluations = 2 + len(rows)
    rows.flags.writeable = False
    weights.flags.writeable = False
    return rows, weights, evaluations


def kernel_shap(
    value_fn: ValueFn,
    n: int,
    background,
    n_samples: int,
    seed: int,
    *,
    mean_value_fn=None,
) -> Attribution:
    """Shapley values by kernel-weighted least squares over sampled coalitions.

    Coalitions are drawn proportionally to the Shapley kernel in complement
    pairs; the empty and full coalitions are always evaluated and enter the
    fit only through the exact efficiency constraint. When the budget covers
    all 2^n coalitions the full enumeration is used instead of sampling.
    """
    if n_samples < 2:
        raise ValueError(f"kernel estimator needs n_samples >= 2, got {n_samples}")
    check_kernel_budget(n, n_samples)
    B = background_array(background)
    means = _as_game(value_fn, n, B, mean_value_fn).means
    base, v_full = means(np.array([[False] * n, [True] * n])).tolist()
    delta = v_full - base
    if n == 1:
        phi = np.array([delta])
        return Attribution(
            values=phi, base_value=base, meta=estimator_meta("kernel", 2, len(B), seed)
        )

    # seed=None asks numpy for fresh entropy, so that draw is not kept.
    draw = _kernel_design.__wrapped__ if seed is None else _kernel_design
    rows, w, evaluations = draw(n, n_samples, seed)
    Z = rows.astype(float)
    y = means(rows) - base
    phi = _solve_constrained_wls(Z, y, w, delta)
    meta = estimator_meta("kernel", n_samples, len(B), seed, coalitions_evaluated=evaluations)
    # lstsq can give -0.0 for a zero value; + 0.0 writes 0.0, as exact enumeration does.
    return Attribution(values=phi + 0.0, base_value=base, meta=meta)


def _run_estimator(game, background, cfg: EstimatorConfig) -> Attribution:
    if cfg.kind == "exact":
        return exact_shapley(game.value, game.n, background)
    if cfg.kind == "permutation":
        return permutation_shapley(game.value, game.n, background, cfg.n_samples, cfg.seed)
    # Without a table the listwise kernel runs the game's one means body a
    # coalition at a time, through mean_value, which perfbench's tracer counts.
    listwise = isinstance(game, ListwiseGame) and game._table is None
    return kernel_shap(game.value, game.n, background, cfg.n_samples, cfg.seed,
                       mean_value_fn=game.mean_value if listwise else None)


def rankingshap_explain(
    group: QueryGroup,
    scorer: Scorer,
    objective: ListwiseObjective | None,
    background: BackgroundSet | np.ndarray,
    cfg: EstimatorConfig,
) -> Attribution:
    """Listwise Shapley attribution of the query's ranking objective.

    A single document gets the all-zero attribution with base 1.0, and its
    `objective` may be None.
    """
    B = background_array(background)
    if len(group) == 1:
        # A single document makes every objective constant: all values are 0.
        meta = estimator_meta(cfg.kind, 0, len(B), cfg.seed, objective="constant:m=1",
                              query_id=group.query_id)
        return Attribution(values=np.zeros(group.n), base_value=1.0, meta=meta)
    game = ListwiseGame(group, scorer, objective, B)
    attr = _run_estimator(game, background, cfg)
    attr.meta["objective"] = objective.describe()
    attr.meta["query_id"] = group.query_id
    return attr


class _PointwiseGame(CoalitionGame):
    """Coalition game on the mean model score of the `(t, n)` rows `X`, or of one
    row; by linearity its Shapley values are the mean of the rows' own games'."""

    def __init__(self, X: np.ndarray, scorer: Scorer, B: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.B = B  # perfbench's tracer reads it
        super().__init__(X.shape[1], B, scorer, X)

    def _reduce(self, scores: np.ndarray) -> np.ndarray:
        # A plain mean turns a lone -0.0 score into 0.0; one document keeps its bytes.
        return scores.sum(axis=1, initial=-0.0) / scores.shape[1]


def pointwise_shap_explain(
    group: QueryGroup,
    scorer: Scorer,
    background: BackgroundSet | np.ndarray,
    cfg: EstimatorConfig,
    top_docs: int = 5,
) -> Attribution:
    """Pointwise score attribution of the mean score of the top-ranked documents."""
    if isinstance(top_docs, bool) or not isinstance(top_docs, numbers.Integral):
        raise ValueError(f"top_docs must be an integer, got {top_docs!r}")
    if top_docs < 1:
        raise ValueError(f"top_docs must be at least 1, got {top_docs}")
    B = background_array(background)
    top = reference_ranking(group, scorer)[:top_docs]
    game = _PointwiseGame(group.feature_matrix()[top], scorer, B)
    try:
        # Finite scores can sum to inf, and infinite ones to NaN.
        with np.errstate(over="raise", invalid="raise"):
            attr = _run_estimator(game, background, cfg)
    except FloatingPointError as exc:
        raise ValueError(f"pointwise attribution: {exc}") from None
    meta = dict(attr.meta, estimator=f"pointwise-{cfg.kind}", seed=cfg.seed,
                top_docs=len(top), query_id=group.query_id)
    # + 0.0 turns a -0.0 that the kernel fit can give into 0.0, as a sum over documents did.
    return Attribution(values=attr.values + 0.0, base_value=attr.base_value, meta=meta)
