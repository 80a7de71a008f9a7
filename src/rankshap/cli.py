"""Command-line front end: explain, ground-truth, evaluate, synthetic."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attribution import ESTIMATORS, Attribution, EstimatorConfig, rankingshap_explain
from .data import group_by_query, parse_letor, sample_background
from .errors import DimensionError, RankShapError, naming_query
from .evaluation import (
    EvalReport,
    estimate_ground_truth,
    order_metric,
    run_benchmark,
    stability_curve,
    valdis_metric,
)
from .objectives import make_objective, reference_ranking
from .rankers import load_scorer
from .synthetic import SYNTHETIC_METHODS, run_synthetic, write_synthetic_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _load_inputs(args):
    """Documents, query groups and scorer; the scorer must read the data's width."""
    docs = parse_letor(Path(args.data).read_text())
    groups = group_by_query(docs)
    if not groups:
        raise RankShapError(f"no documents parsed from {args.data}")
    scorer = load_scorer(args.scorer)
    if scorer.n_features not in (None, groups[0].n):
        raise DimensionError(
            f"scorer {args.scorer} reads {scorer.n_features} features, "
            f"but {args.data} has {groups[0].n}"
        )
    return docs, groups, scorer


def _check_queries(args, groups, names_files: bool = True) -> None:
    """Refuse, before any query runs, an objective spec that does not fit a
    multi-document query and, when each query names an output file, a query
    id that holds a path separator."""
    for g in groups:
        if names_files and ("/" in g.query_id or "\\" in g.query_id):
            raise ValueError(f"{args.data}: query id {g.query_id!r} holds a path separator")
        if len(g) > 1:
            try:
                make_objective(args.objective, range(len(g)))
            except ValueError as exc:
                raise ValueError(f"{args.data}: query {g.query_id!r}: {exc}") from None


def _objective(spec: str, group, scorer):
    """The query's objective, or None for a single document (constant attribution)."""
    if len(group) == 1:
        return None
    return make_objective(spec, reference_ranking(group, scorer))


def _check_positive(args, *flags: str) -> None:
    """Refuse, before any query runs, a count flag below 1, naming the flag."""
    for flag in flags:
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be positive, got {getattr(args, flag)}")


def _seed(text: str) -> int:
    """The `--seed` argument type: a non-negative integer, as numpy's RNG needs."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected non-negative integer, got {text!r}")
    return seed


def _sample_sizes(spec: str) -> list[int]:
    """The `--stability` sample sizes: comma-separated positive integers."""
    sizes = [s.strip() for s in spec.split(",")]
    if not all(s.isdecimal() and int(s) > 0 for s in sizes):
        raise ValueError(f"--stability needs comma-separated positive integers, got {spec!r}")
    return [int(s) for s in sizes]


def _run_config(args, extra=None) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {**cfg, **(extra or {})}


def cmd_explain(args) -> int:
    docs, groups, scorer = _load_inputs(args)
    n = groups[0].n
    n_samples = args.nsamples if args.nsamples is not None else 2 * n + 2048
    _check_queries(args, groups)
    background = sample_background(docs, args.background, args.seed)
    cfg = EstimatorConfig(kind=args.estimator, n_samples=n_samples, seed=args.seed)

    def explain_one(group):
        with naming_query(group.query_id):
            objective = _objective(args.objective, group, scorer)
            return rankingshap_explain(group, scorer, objective, background, cfg)

    attrs = [explain_one(g) for g in groups]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for group, attr in zip(groups, attrs):
        attr.meta["config"] = _run_config(args, {"n_samples": n_samples})
        attr.save(out_dir / f"query_{group.query_id}.csv")
    print(f"wrote {len(groups)} attribution files to {out_dir}")
    return EXIT_OK


def cmd_ground_truth(args) -> int:
    if args.runs < 2:
        raise ValueError("ground truth needs --runs >= 2 (std undefined otherwise)")
    _check_positive(args, "nsamples", "background")
    sizes = _sample_sizes(args.stability) if args.stability else None
    docs, groups, scorer = _load_inputs(args)
    if args.query is not None:
        groups = [g for g in groups if g.query_id == args.query]
        if not groups:
            raise RankShapError(f"query {args.query!r} not found")
    _check_queries(args, groups)
    background = sample_background(docs, args.background, args.seed)

    def gt_one(group):
        with naming_query(group.query_id):
            objective = _objective(args.objective, group, scorer)
            gt = estimate_ground_truth(
                group, scorer, objective, background, args.nsamples, args.runs, args.seed
            )
            stability = sizes and stability_curve(
                group, scorer, objective, background, sizes, runs=args.runs, seed=args.seed
            )
        return group, gt, stability

    results = [gt_one(g) for g in groups]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for group, gt, stability in results:
        prefix = out_dir / f"gt_{group.query_id}"
        gt.mean_attribution.meta["config"] = _run_config(args)
        gt.mean_attribution.save(prefix.with_suffix(".csv"))
        for r, attr in enumerate(gt.per_run):
            attr.save(prefix.parent / f"{prefix.name}_run{r}.csv")
        summary = {
            "query_id": group.query_id,
            "std_per_feature": gt.std_per_feature.tolist(),
            "mean_std": float(gt.std_per_feature.mean()),
            "n_samples": gt.n_samples,
            "runs": gt.runs,
            "seed": args.seed,
        }
        if sizes:
            summary["stability"] = [vars(r) for r in stability]
        (prefix.parent / f"{prefix.name}_stability.json").write_text(
            json.dumps(summary, indent=2)
        )
    print(f"wrote ground truth bundles for {len(groups)} queries to {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.gt_file:
        stray = [f"--{flag}" for flag in ("data", "scorer") if getattr(args, flag) is not None]
        if stray:
            raise ValueError(f"evaluate --gt-file does not read {' or '.join(stray)}")
        stems = [Path(f).stem for f in args.pred or ()]
        if not stems:
            raise ValueError("evaluate --gt-file needs at least one --pred file")
        repeated = [f for f, stem in zip(args.pred, stems) if stems.count(stem) > 1]
        if repeated:
            raise ValueError(f"--pred files {', '.join(repeated)} share a method name")
        gt_path = Path(args.gt_file)
        if not gt_path.exists():
            raise ValueError(f"ground-truth file not found: {gt_path}")
        gt = Attribution.load(gt_path)
        rows = {}
        for stem, pred_file in zip(stems, args.pred):
            pred = Attribution.load(pred_file)
            if pred.n != gt.n:
                raise ValueError(f"feature dimension mismatch: gt has {gt.n},"
                                 f" {pred_file} has {pred.n}")
            rows[stem] = {"order_all": order_metric(gt, pred),
                          "valdis_all": valdis_metric(gt, pred)}
        EvalReport(rows, ks=()).to_csv(args.out)
        print(f"wrote evaluation to {args.out}")
        return EXIT_OK

    if args.pred is not None:
        raise ValueError("evaluate reads --pred only with --gt-file")
    for flag in ("data", "scorer"):
        if getattr(args, flag) is None:
            raise ValueError(f"evaluate needs --{flag} unless --gt-file is given")
    _check_positive(args, "background")
    _, groups, scorer = _load_inputs(args)
    if all(len(g) == 1 for g in groups):
        raise ValueError(f"no query in {args.data} has 2 or more documents")
    _check_queries(args, groups, names_files=False)
    cfg = EstimatorConfig(kind=args.estimator, n_samples=args.nsamples, seed=args.seed)
    report = run_benchmark(groups, scorer, args.objective, args.methods.split(","), cfg,
                           gt_source=args.gt, background_size=args.background, seed=args.seed)
    report.to_csv(args.out)
    per_query = Path(args.out).with_suffix(".jsonl")
    report.per_query_jsonl(per_query)
    print(f"wrote report to {args.out} (per-query records: {per_query})")
    return EXIT_OK


def cmd_synthetic(args) -> int:
    rows = run_synthetic(
        variant=args.variant,
        methods=tuple(args.methods.split(",")),
        seed=args.seed,
    )
    write_synthetic_csv(rows, args.out)
    sidecar = Path(args.out).with_suffix(".json")
    sidecar.write_text(json.dumps(_run_config(args), indent=2, sort_keys=True))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankshap", description="Listwise Shapley feature attribution for rankers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="attribute per-query ranking objectives")
    p.add_argument("--data", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--objective", default="kendall")
    p.add_argument("--estimator", default="kernel", choices=ESTIMATORS)
    p.add_argument("--nsamples", type=int, default=None)
    p.add_argument("--background", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="attributions")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("ground-truth", help="high-budget permutation-sampling estimate")
    p.add_argument("--data", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--objective", default="kendall")
    p.add_argument("--nsamples", type=int, default=2**16)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--background", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--query", default=None)
    p.add_argument("--stability", default=None, help="comma-separated sample sizes")
    p.add_argument("--out", default="ground_truth")
    p.set_defaults(func=cmd_ground_truth)

    p = sub.add_parser("evaluate", help="order/valdis metrics against ground truth")
    p.add_argument("--data")
    p.add_argument("--scorer")
    p.add_argument("--objective", default="kendall")
    p.add_argument("--methods", default="rankingshap,pointwise,greedy5,random")
    p.add_argument("--estimator", default="kernel", choices=ESTIMATORS)
    p.add_argument("--nsamples", type=int, default=2048)
    p.add_argument("--background", type=int, default=10)
    p.add_argument("--gt", default="exact", choices=["exact", "estimated"])
    p.add_argument("--gt-file", default=None, help="evaluate saved attribution CSVs instead")
    p.add_argument("--pred", nargs="*", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synthetic", help="talent-search scenario attributions")
    p.add_argument("--variant", default="biased", choices=["biased", "unbiased"])
    p.add_argument("--methods", default=",".join(SYNTHETIC_METHODS))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="synthetic.csv")
    p.set_defaults(func=cmd_synthetic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RankShapError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
