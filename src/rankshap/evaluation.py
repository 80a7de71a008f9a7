"""Ground-truth attribution estimation, stability analysis, and faithfulness metrics."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from .attribution import (
    Attribution,
    EstimatorConfig,
    _run_estimator,
    check_kernel_budget,
    estimator_meta,
    exact_shapley,
    permutation_shapley,
    pointwise_shap_explain,
)
from .baselines import greedy_attribution, random_attribution
from .data import BackgroundSet, QueryGroup, background_array, sample_background
from .errors import DimensionError
from .masking import check_exact_width
from .objectives import ListwiseGame, ListwiseObjective, make_objective, reference_ranking
from .rankers import Scorer


@dataclass
class GroundTruth:
    """High-budget importance estimate with cross-run stability statistics."""

    mean_attribution: Attribution
    per_run: list[Attribution]
    std_per_feature: np.ndarray
    n_samples: int
    runs: int


def _spawn_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _permutation_runs(games: list[ListwiseGame], n_samples: int, seed: int) -> list[Attribution]:
    """One `permutation_shapley` run per game on its own background, seeded in turn from `seed`."""
    return [
        permutation_shapley(game.value, game.n, game.background, n_samples, run_seed)
        for game, run_seed in zip(games, _spawn_seeds(seed, len(games)))
    ]


def estimate_ground_truth(
    group: QueryGroup,
    scorer: Scorer,
    objective: ListwiseObjective | None,
    background: BackgroundSet | np.ndarray,
    n_samples: int = 2**16,
    runs: int = 3,
    seed: int = 0,
) -> GroundTruth:
    """Permutation-sampling estimate repeated over independent runs.

    Reports the per-run attributions, their mean, and the per-feature sample
    standard deviation (ddof=1) across runs. A single document's attribution
    is all zero with base 1.0, from no runs, and `objective` may be None.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs for a std estimate, got {runs}")
    if len(group) == 1:
        meta = estimator_meta("ground-truth", 0, len(background_array(background)), seed,
                              runs=0, objective="constant:m=1")
        zero = Attribution(values=np.zeros(group.n), base_value=1.0, meta=meta)
        return GroundTruth(zero, [], np.zeros(group.n), n_samples=0, runs=0)
    game = ListwiseGame(group, scorer, objective, background)
    per_run = _permutation_runs([game] * runs, n_samples, seed)
    stacked = np.stack([a.values for a in per_run])
    mean_attr = Attribution(
        values=stacked.mean(axis=0),
        base_value=float(np.mean([a.base_value for a in per_run])),
        meta=estimator_meta(
            "ground-truth", n_samples, len(game.background), seed,
            runs=runs, objective=objective.describe(),
        ),
    )
    return GroundTruth(
        mean_attribution=mean_attr,
        per_run=per_run,
        std_per_feature=stacked.std(axis=0, ddof=1),
        n_samples=n_samples,
        runs=runs,
    )


@dataclass
class StabilityRow:
    n_samples: int
    mean_std_all: float
    mean_std_top5: float


def stability_curve(
    group: QueryGroup,
    scorer: Scorer,
    objective: ListwiseObjective | None,
    background_pool: BackgroundSet | np.ndarray,
    sample_sizes: list[int],
    runs: int = 3,
    mode: str = "same_background",
    background_size: int | None = None,
    seed: int = 0,
) -> list[StabilityRow]:
    """Cross-run attribution std as a function of the sampling budget.

    same_background reuses one background set for all runs; independent_background
    draws a fresh background of `background_size` vectors from the pool per run,
    with replacement when it exceeds the pool. `background_size` defaults to
    the whole pool; same_background takes the pool's first `background_size` rows.
    Each run plays one game at every size, so the backgrounds do not depend on it.
    A single document's std is 0 at every size, and `objective` may be None.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs for a std estimate, got {runs}")
    if mode not in ("same_background", "independent_background"):
        raise ValueError(f"unknown mode {mode!r}")
    if not sample_sizes:
        raise ValueError("sample_sizes must be non-empty")
    pool = background_array(background_pool)
    size = len(pool) if background_size is None else background_size
    if size < 1:
        raise ValueError(f"background_size must be at least 1, got {size}")
    if mode == "same_background" and size > len(pool):
        raise ValueError(f"background_size {size} exceeds the pool of {len(pool)} rows")
    if len(group) == 1:
        return [StabilityRow(n, 0.0, 0.0) for n in sample_sizes]
    if mode == "same_background":
        games = [ListwiseGame(group, scorer, objective, pool[:size])] * runs
    else:
        rngs = [np.random.default_rng(s) for s in _spawn_seeds(seed ^ 0x5AB1E, runs)]
        draws = [rng.choice(len(pool), size=size, replace=size > len(pool)) for rng in rngs]
        games = [ListwiseGame(group, scorer, objective, pool[idx]) for idx in draws]
    rows = []
    for n_samples in sample_sizes:
        per_run = _permutation_runs(games, n_samples, seed + n_samples)
        stacked = np.stack([a.values for a in per_run])
        std = stacked.std(axis=0, ddof=1)
        top5 = np.argsort(-np.abs(stacked.mean(axis=0)), kind="stable")[:5]
        rows.append(
            StabilityRow(
                n_samples=n_samples,
                mean_std_all=float(std.mean()),
                mean_std_top5=float(std[top5].mean()),
            )
        )
    return rows


def _attribution_ranks(values: np.ndarray) -> np.ndarray:
    """Rank features descending by value; ties give the lower index the better rank."""
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.arange(len(values))
    return ranks


def _metric_values(gt, pred, k: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The gt and predicted values, checked for equal shape and 1 <= k <= n."""
    gt_v = np.asarray(getattr(gt, "values", gt), dtype=float)
    pred_v = np.asarray(getattr(pred, "values", pred), dtype=float)
    if gt_v.shape != pred_v.shape:
        raise DimensionError(f"length mismatch: {gt_v.shape} vs {pred_v.shape}")
    if k is not None and not 1 <= k <= len(gt_v):
        raise ValueError(f"k must be in [1, {len(gt_v)}], got {k}")
    return gt_v, pred_v


def order_metric(gt, pred, k: int | None = None) -> float:
    """Spearman's footrule between the gt and predicted feature rankings.

    With k, the sum runs only over the top-k features of the ground truth.
    """
    gt_v, pred_v = _metric_values(gt, pred, k)
    gt_ranks = _attribution_ranks(gt_v)
    pred_ranks = _attribution_ranks(pred_v)
    diffs = np.abs(gt_ranks - pred_ranks)
    if k is None:
        return float(diffs.sum())
    top = np.argsort(-gt_v, kind="stable")[:k]
    return float(diffs[top].sum())


def valdis_metric(gt, pred, k: int | None = None) -> float:
    """Mean L1 distance between attribution values (top-k of gt when k given)."""
    gt_v, pred_v = _metric_values(gt, pred, k)
    diffs = np.abs(gt_v - pred_v)
    if k is None:
        return float(diffs.mean())
    top = np.argsort(-gt_v, kind="stable")[:k]
    return float(diffs[top].sum() / k)


@dataclass
class EvalReport:
    """Aggregated faithfulness metrics, one row per attribution method."""

    rows: dict[str, dict[str, float]]
    ks: tuple[int, ...]
    per_query: list[dict] = field(default_factory=list)
    skipped_queries: int = 0

    def columns(self) -> list[str]:
        cols = ["order_all"] + [f"order@{k}" for k in self.ks]
        cols += ["valdis_all"] + [f"valdis@{k}" for k in self.ks]
        return cols

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method"] + self.columns())
            for method, row in self.rows.items():
                writer.writerow([method] + [repr(row[c]) for c in self.columns()])

    def per_query_jsonl(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            for record in self.per_query:
                fh.write(json.dumps(record) + "\n")


@dataclass(frozen=True)
class Method:
    """One parsed method: its report name, its kind and, for greedy, k and the reading."""

    name: str
    kind: str
    k: int = 0
    reading: str = "iter"


def parse_methods(names, n: int, *, evaluate: bool = True) -> list[Method]:
    """Parse method names for data with n features.

    The names are `rankingshap`, `pointwise`, `random`, `greedy<k>` with
    1 <= k <= n and an optional `_iter` or `_marg` reading, and, for
    `evaluate` only, `gt`. In `evaluate` a bare `greedy<k>` stands for both
    readings; otherwise it is the iterative one. Raises ValueError naming the
    first bad or repeated name (after expansion).
    """
    kinds = ("rankingshap", "pointwise", "random") + (("gt",) if evaluate else ())
    methods: list[Method] = []
    for name in names:
        greedy = re.fullmatch(r"greedy([1-9][0-9]*)(?:_(iter|marg))?", name)
        if name in kinds:
            parsed = [Method(name, name)]
        elif greedy and int(greedy[1]) <= n:
            k, reading = int(greedy[1]), greedy[2]
            if reading or not evaluate:
                parsed = [Method(name, "greedy", k, reading or "iter")]
            else:
                parsed = [Method(f"{name}_{r}", "greedy", k, r) for r in ("iter", "marg")]
        else:
            raise ValueError(
                f"invalid method {name!r}: expected one of {', '.join(kinds)} or "
                f"greedy<k>[_iter|_marg] with 1 <= k <= {n}"
            )
        for method in parsed:
            if any(m.name == method.name for m in methods):
                raise ValueError(f"repeated method {method.name!r}")
            methods.append(method)
    return methods


def _run_method(method: Method, group, game: ListwiseGame, background, cfg: EstimatorConfig,
                seed, greedy_results: dict, stop_on_negative: bool = False):
    """Attribution values of one parsed method (not `gt`) on one query and its
    game, with `cfg` reseeded to `seed`.

    `greedy_results` keeps each k's greedy result for this query, so the iter
    and marg readings share one run.
    """
    qcfg = replace(cfg, seed=seed)
    if method.kind == "rankingshap":
        return _run_estimator(game, background, qcfg).values
    if method.kind == "pointwise":
        return pointwise_shap_explain(group, game.scorer, background, qcfg).values
    if method.kind == "random":
        return random_attribution(group.n, seed).values
    k = method.k
    if k not in greedy_results:
        greedy_results[k] = greedy_attribution(game, k, stop_on_negative=stop_on_negative)
    result = greedy_results[k]
    return result.attributions_marg if method.reading == "marg" else result.attributions_iter


def run_benchmark(
    dataset: list[QueryGroup],
    scorer: Scorer,
    objective_spec: str,
    methods,
    cfg: EstimatorConfig,
    gt_source: str = "exact",
    background_size: int = 10,
    ks: tuple[int, ...] = (3, 10),
    seed: int = 0,
) -> EvalReport:
    """Compare attribution methods against ground-truth importance per query.

    Backgrounds are drawn per query from that query's own documents. Queries
    with a single document are skipped and counted. An estimated ground truth
    runs at `estimate_ground_truth`'s defaults. The methods share the query's
    game, so after an exact ground truth they read its coalition table.
    """
    if gt_source not in ("exact", "estimated"):
        raise ValueError(f"unknown gt_source {gt_source!r}")
    n = dataset[0].n if dataset else 0
    methods = parse_methods(methods, n)
    if cfg.kind == "kernel":
        check_kernel_budget(n, cfg.n_samples)
    if "exact" in (cfg.kind, gt_source):
        check_exact_width(n)
    ks = tuple(k for k in ks if k <= n)
    per_query = []
    skipped = 0
    query_seeds = _spawn_seeds(seed, len(dataset))
    for group, qseed in zip(dataset, query_seeds):
        if len(group) == 1:
            skipped += 1
            continue
        background = sample_background(
            list(group.documents), min(background_size, len(group)), qseed
        )
        objective = make_objective(objective_spec, reference_ranking(group, scorer))
        game = ListwiseGame(group, scorer, objective, background)
        if gt_source == "exact":
            gt = exact_shapley(game.value, game.n, background).values
        else:
            gt = estimate_ground_truth(
                group, scorer, objective, background, seed=qseed
            ).mean_attribution.values
        greedy_results = {}
        for method in methods:
            pred = gt if method.kind == "gt" else _run_method(
                method, group, game, background, cfg, qseed, greedy_results
            )
            record = {"query_id": group.query_id, "method": method.name}
            record["order_all"] = order_metric(gt, pred)
            record["valdis_all"] = valdis_metric(gt, pred)
            for k in ks:
                record[f"order@{k}"] = order_metric(gt, pred, k)
                record[f"valdis@{k}"] = valdis_metric(gt, pred, k)
            per_query.append(record)
    report = EvalReport(rows={}, ks=ks, per_query=per_query, skipped_queries=skipped)
    for method in methods:
        records = [r for r in per_query if r["method"] == method.name]
        # A left-to-right sum: from Python 3.12 on, sum() compensates floats.
        report.rows[method.name] = {
            c: reduce(add, [r[c] for r in records], 0.0) / len(records) if records else np.nan
            for c in report.columns()
        }
    return report
