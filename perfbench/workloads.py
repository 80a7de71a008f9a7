"""Workloads of the benchmark: seeded input generators, the depth-2 tree
scorer, one runner per workload and the output checks that decide whether a
query failed.

Every workload works inside the current directory: `setup` writes its inputs
there and each query writes its outputs under `out/q<index>/`. Paths handed
to the CLI are relative, so the files a query writes do not depend on where
the run happens and the output digest is comparable across runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from rankshap import cli
from rankshap import data as rs_data
from rankshap.attribution import Attribution, EstimatorConfig, rankingshap_explain
from rankshap.objectives import make_objective, reference_ranking
from rankshap.rankers import Scorer

# v(full) = 1 because the full coalition reproduces the reference ranking.
EFFICIENCY_TOL = 1e-9


class QueryFailed(Exception):
    """A query exited nonzero or wrote output that failed a check."""


def letor_text(rng: np.random.Generator, qids, m: int, n: int) -> str:
    """LETOR lines for `m` documents per query id, features uniform in [0, 1).

    Values are written as `repr(float(x))`: under numpy 2, `repr(np.float64)`
    reads `np.float64(...)`, which `parse_letor` rejects.
    """
    lines = []
    for qid in qids:
        X = np.round(rng.random((m, n)), 6)
        labels = rng.integers(0, 3, size=m)
        for label, x in zip(labels, X):
            feats = " ".join(f"{k}:{float(v)!r}" for k, v in enumerate(x, start=1))
            lines.append(f"{int(label)} qid:{qid} {feats}")
    return "\n".join(lines) + "\n"


def linear_weights(rng: np.random.Generator, n: int, half_zero: bool) -> np.ndarray:
    """Gaussian weights; with `half_zero`, n // 2 of them are exactly 0."""
    w = rng.normal(size=n)
    if half_zero:
        w[rng.choice(n, size=n // 2, replace=False)] = 0.0
    return w


class TreeEnsembleScorer(Scorer):
    """Sum of depth-2 regression trees with axis-aligned splits.

    Linear and additive scorers (depth-1 stumps included) rank every
    background row of a listwise mask the same way, because the masked
    features shift all documents' scores alike. A depth-2 tree makes the
    second split depend on the first, so background rows change the ranking.
    """

    def __init__(self, split_feature, split_threshold, leaves):
        # Column 0 is the root split, columns 1 and 2 the left and right children.
        self.split_feature = np.asarray(split_feature, dtype=np.intp)
        self.split_threshold = np.asarray(split_threshold, dtype=float)
        self.leaves = np.asarray(leaves, dtype=float)
        self._leaf_base = 4 * np.arange(len(self.leaves))
        self.name = f"trees[{len(self.leaves)}x2]"

    @classmethod
    def random(cls, rng: np.random.Generator, n: int, trees: int) -> "TreeEnsembleScorer":
        return cls(
            split_feature=rng.integers(0, n, size=(trees, 3)),
            split_threshold=rng.uniform(0.2, 0.8, size=(trees, 3)),
            leaves=rng.normal(size=(trees, 4)),
        )

    def score(self, features: np.ndarray) -> float:
        return float(self.score_batch(np.asarray(features, dtype=float)[None, :])[0])

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        go = X[:, self.split_feature] > self.split_threshold  # (rows, trees, 3)
        right = go[:, :, 0]
        child = np.where(right, go[:, :, 2], go[:, :, 1])
        leaf = self._leaf_base + 2 * right + child
        return self.leaves.ravel()[leaf].sum(axis=1)


def _check_efficiency(attr: Attribution, where: str) -> None:
    if not np.isfinite(attr.values).all():
        raise QueryFailed(f"{where}: non-finite attribution")
    gap = abs(attr.base_value + float(attr.values.sum()) - 1.0)
    if gap > EFFICIENCY_TOL:
        raise QueryFailed(f"{where}: efficiency gap {gap:.3g} > {EFFICIENCY_TOL}")


def _check_zero_weights(attr: Attribution, zero: np.ndarray, where: str) -> None:
    bad = [int(i) for i in zero if attr.values[i] != 0.0]
    if bad:
        raise QueryFailed(f"{where}: zero-weight features {bad[:5]} have nonzero values")


def _load(csv_path: Path) -> Attribution:
    if not csv_path.exists() or not csv_path.with_suffix(".json").exists():
        raise QueryFailed(f"missing {csv_path} or its JSON sidecar")
    return Attribution.load(csv_path)


class Workload:
    """One workload: `setup` makes the inputs, `run` processes query `q`,
    `check` verifies what that query wrote and returns its quality numbers."""

    name = ""
    pool = 1  # distinct generated queries; the loop cycles through them

    def __init__(self, scorer_wrapper=None):
        self.scorer_wrapper = scorer_wrapper

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, q: int) -> None:
        raise NotImplementedError

    def check(self, q: int) -> dict[str, float]:
        raise NotImplementedError

    @staticmethod
    def out_dir(q: int) -> Path:
        return Path("out") / f"q{q}"


class CliWorkload(Workload):
    """A workload that calls `rankshap <command>` in-process, one query per call."""

    command = ""
    m = n = 0
    half_zero = False
    flags: tuple[str, ...] = ()

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.weights = linear_weights(rng, self.n, self.half_zero)
        self.zero = np.flatnonzero(self.weights == 0.0)
        Path("scorer.json").write_text(
            json.dumps({"kind": "linear", "weights": self.weights.tolist()})
        )
        for i in range(self.pool):
            path = Path(f"q{i}.letor")
            path.write_text(letor_text(rng, [str(i)], self.m, self.n))
            groups = rs_data.group_by_query(rs_data.parse_letor(path.read_text()))
            if len(groups) != 1 or len(groups[0]) != self.m or groups[0].n != self.n:
                raise RuntimeError(f"{path}: generated input has the wrong shape")

    def data_file(self, q: int) -> str:
        return f"q{q % self.pool}.letor"

    def argv(self, q: int) -> list[str]:
        out = self.out_dir(q)
        return [self.command, "--data", self.data_file(q), "--scorer", "scorer.json",
                "--out", str(out), *self.flags]

    def run(self, q: int) -> None:
        self.out_dir(q).mkdir(parents=True, exist_ok=True)
        call_cli(self.argv(q))


def call_cli(argv: list[str]) -> None:
    """Run `rankshap` in-process; a nonzero exit raises QueryFailed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise QueryFailed(f"rankshap {argv[0]} exited {code}: {stderr.getvalue().strip()}")


class ExplainDefault(CliWorkload):
    """`rankshap explain` at its defaults: kernel estimator, 2n+2048 samples,
    100 background rows, MQ2008 width."""

    name = "explain-default"
    command = "explain"
    m, n = 20, 46
    pool = 16

    def check(self, q: int) -> dict[str, float]:
        csvs = sorted(self.out_dir(q).glob("*.csv"))
        if len(csvs) != 1:
            raise QueryFailed(f"expected one attribution CSV, found {len(csvs)}")
        _check_efficiency(_load(csvs[0]), csvs[0].name)
        return {}


class GroundTruthPerm(CliWorkload):
    """`rankshap ground-truth`: permutation sampling, one background row per
    value call, three runs of a few hundred permutations."""

    name = "groundtruth-perm"
    command = "ground-truth"
    m, n = 20, 46
    half_zero = True
    pool = 16
    runs = 3
    flags = ("--nsamples", "200", "--runs", str(runs), "--background", "10")

    def check(self, q: int) -> dict[str, float]:
        prefix = self.out_dir(q) / f"gt_{q % self.pool}"
        paths = [prefix.with_suffix(".csv")]
        paths += [prefix.parent / f"{prefix.name}_run{r}.csv" for r in range(self.runs)]
        for path in paths:
            attr = _load(path)
            _check_efficiency(attr, path.name)
            _check_zero_weights(attr, self.zero, path.name)
        summary = prefix.parent / f"{prefix.name}_stability.json"
        if not summary.exists():
            raise QueryFailed(f"missing {summary}")
        mean_std = float(json.loads(summary.read_text())["mean_std"])
        if not np.isfinite(mean_std):
            raise QueryFailed("non-finite ground-truth std")
        return {"gt_std_mean": mean_std}


class EvaluateExact(CliWorkload):
    """`rankshap evaluate` with default methods against exact ground truth."""

    name = "evaluate-exact"
    command = "evaluate"
    m, n = 10, 12
    half_zero = True
    pool = 48
    methods = ("rankingshap", "pointwise", "greedy5_iter", "greedy5_marg", "random")
    exact_checks = 2  # queries whose exact attributions are also written and checked

    def argv(self, q: int) -> list[str]:
        out = self.out_dir(q) / "report.csv"
        return [self.command, "--data", self.data_file(q), "--scorer", "scorer.json",
                "--out", str(out)]

    def check(self, q: int) -> dict[str, float]:
        report = self.out_dir(q) / "report.csv"
        if not report.exists():
            raise QueryFailed(f"missing {report}")
        with report.open() as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        if sorted(rows) != sorted(self.methods):
            raise QueryFailed(f"report lists {sorted(rows)}, expected {sorted(self.methods)}")
        values = {m: {k: float(v) for k, v in row.items() if k != "method"}
                  for m, row in rows.items()}
        if not all(np.isfinite(list(v.values())).all() for v in values.values()):
            raise QueryFailed("non-finite value in the evaluate report")
        ours, rand = values["rankingshap"], values["random"]
        if not ours["order_all"] < rand["order_all"]:
            raise QueryFailed(
                f"rankingshap order_all {ours['order_all']} does not beat random {rand['order_all']}"
            )
        if q < self.exact_checks:
            # The report does not write the exact attributions it compares
            # against, so the exact estimator's output is checked here.
            exact_dir = self.out_dir(q) / "exact"
            call_cli(["explain", "--data", self.data_file(q), "--scorer", "scorer.json",
                      "--estimator", "exact", "--background", "10", "--out", str(exact_dir)])
            path = exact_dir / f"query_{q % self.pool}.csv"
            attr = _load(path)
            _check_efficiency(attr, "exact " + path.name)
            _check_zero_weights(attr, self.zero, "exact " + path.name)
        return {"order_vs_exact": ours["order_all"], "valdis_vs_exact": ours["valdis_all"]}


class LonglistMslr(Workload):
    """`rankingshap_explain` as a library call at MSLR-WEB width with a tree
    ensemble, kernel estimator with 1024 samples."""

    name = "longlist-mslr"
    m, n, background, trees = 200, 136, 10, 32
    pool = 8
    cfg = EstimatorConfig(kind="kernel", n_samples=1024, seed=0)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        scorer = TreeEnsembleScorer.random(rng, self.n, self.trees)
        self.scorer = self.scorer_wrapper(scorer) if self.scorer_wrapper else scorer
        path = Path("longlist.letor")
        path.write_text(letor_text(rng, [str(i) for i in range(self.pool)], self.m, self.n))
        docs = rs_data.parse_letor(path.read_text())
        self.groups = rs_data.group_by_query(docs)
        if len(self.groups) != self.pool or any(
            len(g) != self.m or g.n != self.n for g in self.groups
        ):
            raise RuntimeError(f"{path}: generated input has the wrong shape")
        self.bg = rs_data.sample_background(docs, self.background, seed=0)

    def run(self, q: int) -> None:
        group = self.groups[q % self.pool]
        objective = make_objective("kendall", reference_ranking(group, self.scorer))
        attr = rankingshap_explain(group, self.scorer, objective, self.bg, self.cfg)
        out = self.out_dir(q)
        out.mkdir(parents=True, exist_ok=True)
        attr.save(out / f"query_{group.query_id}.csv")

    def check(self, q: int) -> dict[str, float]:
        path = self.out_dir(q) / f"query_{self.groups[q % self.pool].query_id}.csv"
        _check_efficiency(_load(path), path.name)
        return {}


WORKLOADS = {w.name: w for w in (ExplainDefault, GroundTruthPerm, LonglistMslr, EvaluateExact)}
