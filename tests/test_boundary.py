"""Every `rankshap` command, run in process at small shapes on hostile input,
exits 0 or 2 and never 1, with NumPy RuntimeWarnings as errors.

The inputs hold LETOR values such as 1e308, -0.0, NaN, ±inf and subnormals,
missing keys, comments and blank lines; linear weights that are extreme,
tiny or zero, and the talent scorer on talent-shaped rows; and every
command, objective kind and estimator. An exit of 0 must leave only finite
numbers: every CSV cell that is a number, every JSON number, and every
attribution, which loads with its sidecar and, being listwise, is efficient
(its base plus its values is the objective of the reference ranking, 1).
An exit of 2 must print one `error:` line.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rankshap import Attribution
from rankshap.cli import main

FINITE = ["0", "-0.0", "1", "-1", "0.5", "-2.5", "1e308", "-1e308", "5e-324", "-5e-324",
          "2.2250738585072014e-308", "1e-300"]
NON_FINITE = ["nan", "inf", "-inf"]
VALUES = st.sampled_from(FINITE * 4 + NON_FINITE)  # a non-finite value fails the whole file
WEIGHTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 5e-324, 1e-300])
# Talent rows: experience, skills, grade, university code, requirements met.
TALENT = [["0", "0.5", "1", "1e308", "-0.0"], ["0.3", "1", "-1e308", "5e-324"],
          ["1", "3.2", "8", "1e308", "-1e308"], ["0", "1", "2", "3", "4", "2.4", "7"],
          ["0", "1", "0.5", "-0.0"]]


@st.composite
def letor_text(draw, n, talent):
    """Up to 3 queries of 1 to 4 documents on n features. The first line holds
    key n, so the file is n wide; other lines may leave keys out."""
    lines = []
    for q in range(draw(st.integers(1, 3))):
        for d in range(draw(st.integers(1, 4))):
            keys = list(range(1, n + 1))
            if lines:
                keys = draw(st.lists(st.sampled_from(keys), unique=True))
            values = [draw(st.sampled_from(TALENT[k - 1]) if talent else VALUES) for k in keys]
            line = f"{draw(st.integers(0, 2))} qid:q{q} " + " ".join(
                f"{k}:{v}" for k, v in zip(draw(st.permutations(keys)), values))
            if draw(st.booleans()):
                line += " # a comment"
            lines.append(line)
            if draw(st.integers(0, 5)) == 0:
                lines.append(draw(st.sampled_from(["", "# a comment line", "   "])))
    return "\n".join(lines) + "\n"


@st.composite
def runs(draw):
    """The argv of one command, without its output path, and the input files' text."""
    command = draw(st.sampled_from(["explain", "ground-truth", "evaluate", "synthetic"]))
    seed = str(draw(st.integers(0, 3)))
    if command == "synthetic":
        methods = draw(st.lists(st.sampled_from(["rankingshap", "pointwise", "greedy2",
                                                 "greedy5", "random"]), min_size=1, unique=True))
        variant = draw(st.sampled_from(["biased", "unbiased"]))
        return ["synthetic", "--variant", variant, "--methods", ",".join(methods),
                "--seed", seed], None, None
    talent = draw(st.integers(0, 4)) == 0
    n = 5 if talent else draw(st.integers(1, 4))
    data = draw(letor_text(n, talent))
    if talent:
        scorer = {"kind": "talent", "variant": draw(st.sampled_from(["biased", "unbiased"]))}
    else:
        scorer = {"kind": "linear", "weights": draw(st.lists(WEIGHTS, min_size=n, max_size=n))}
    objective = draw(st.sampled_from(["kendall", "topk:1", "topk:2", "topk:4", "group:0,1",
                                      "docrank:0", "docrank:2"]))
    argv = [command, "--objective", objective, "--seed", seed,
            "--background", str(draw(st.integers(1, 5)))]
    if command == "ground-truth":
        argv += ["--nsamples", str(draw(st.integers(1, 12))), "--runs", str(draw(st.integers(2, 3)))]
        if draw(st.booleans()):
            argv += ["--stability", "2,3"]
    else:
        argv += ["--estimator", draw(st.sampled_from(["exact", "kernel", "permutation"])),
                 "--nsamples", str(draw(st.integers(1, 40)))]
    if command == "evaluate":
        methods = draw(st.lists(st.sampled_from(["rankingshap", "pointwise", "greedy1",
                                                 "greedy2_marg", "random", "gt"]),
                                min_size=1, unique=True))
        argv += ["--methods", ",".join(methods)]
    return argv, data, json.dumps(scorer)


def _reject(constant):
    raise AssertionError(f"non-finite JSON number {constant}")


def check_outputs(out: Path, command: str) -> None:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert files
    for path in files:
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject)
        elif path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_reject)
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                for row in list(csv.reader(fh))[1:]:
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        assert math.isfinite(value), f"{path.name}: {cell}"
            if command in ("explain", "ground-truth"):
                attr = Attribution.load(path)
                assert abs(attr.base_value + math.fsum(attr.values) - 1.0) <= 1e-9, path.name


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
# Talent rows whose masked mixtures sum experience and skills of 1e308 to inf.
@example(run=(["explain", "--estimator", "exact"],
              "0 qid:a 1:1e308 2:0.5 3:3 4:0 5:1\n1 qid:a 1:0.5 2:1e308 3:3 4:0 5:1\n",
              '{"kind": "talent"}'))
# Finite scores whose pointwise mean over the two documents overflows.
@example(run=(["evaluate", "--methods", "pointwise", "--estimator", "permutation"],
              "0 qid:a 1:1e308\n0 qid:a 1:0.924\n", '{"kind": "linear", "weights": [-1.0]}'))
def test_every_command_exits_0_with_finite_outputs_or_2_with_an_error(run):
    argv, data, scorer = run
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tmp = Path(tmp)
        out = tmp / "out"
        if data is not None:
            (tmp / "data.txt").write_text(data)
            argv = argv + ["--data", str(tmp / "data.txt"), "--scorer", scorer]
        if argv[0] in ("explain", "ground-truth"):
            argv += ["--out", str(out)]
        else:
            out.mkdir()
            argv += ["--out", str(out / f"{argv[0]}.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), err.getvalue()
        if code == 0:
            check_outputs(out, argv[0])
        else:
            assert err.getvalue().startswith("error:"), err.getvalue()

