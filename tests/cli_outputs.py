"""Write the outputs of a fixed list of `rankshap` commands into one directory.

    PYTHONPATH=src python tests/cli_outputs.py OUT

OUT must be empty or absent. The script writes a seeded 10-feature LETOR
file, which holds a single-document query, a second one in SVMLight-sparse
form (keys out of order, zeros omitted, a last line short of 10 features),
a sparse and a dense linear scorer, and a third file and scorer whose
weights hold 0.0 and -0.0 on columns of nonnegative values and of both
signs into OUT. It then runs `explain` (kernel, exact, permutation, and on
the sparse file), `ground-truth` (with `--stability`, and over several
permutation chunks of a background larger than the file's 16 documents),
`evaluate` (exact and estimated ground truth, the exact and permutation
estimators, the exact pointwise baseline, and saved attributions), exact
`explain`, `evaluate` and exact pointwise `evaluate` on the third pair, and
`synthetic` from inside OUT, with relative paths, so that the config
sidecars do not name OUT. Running it against two source trees into two
directories of the same name and comparing them with `diff -r` checks that
a change leaves every output byte-identical. It exits 1 naming the first
command that does not exit 0. pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from rankshap.cli import main

N_FEATURES = 10


def write_inputs() -> None:
    rng = np.random.default_rng(18)
    lines = []
    for qid, docs in (("a", 6), ("b", 5), ("c", 4), ("single", 1)):
        for _ in range(docs):
            x = rng.normal(size=N_FEATURES)
            features = " ".join(f"{k + 1}:{v:.6f}" for k, v in enumerate(x))
            lines.append(f"{rng.integers(3)} qid:{qid} {features}\n")
    Path("data.txt").write_text("".join(lines))
    dense = rng.normal(size=N_FEATURES)
    sparse = dense.copy()
    sparse[1::2] = 0.0
    for name, weights in (("dense", dense), ("sparse", sparse)):
        Path(f"{name}.json").write_text(json.dumps({"kind": "linear",
                                                    "weights": weights.tolist()}))
    # SVMLight-sparse: keys out of order, zeros omitted, a last line that
    # stops short of the widest key, a comment and a blank line. Every other
    # line holds key 10, so the file is as wide as the scorers.
    lines = ["# sparse LETOR file\n"]
    for qid, docs in (("s1", 5), ("s2", 4)):
        for _ in range(docs):
            x = rng.normal(size=N_FEATURES)
            x[rng.random(N_FEATURES) < 0.3] = 0.0
            x[N_FEATURES - 1] = 1.0 + x[N_FEATURES - 1] ** 2
            keys = [k for k in rng.permutation(N_FEATURES) if x[k] != 0.0]
            features = " ".join(f"{k + 1}:{x[k]:.6f}" for k in keys)
            lines.append(f"{rng.integers(3)} qid:{qid} {features}\n")
        lines.append("\n")
    lines.append(f"1 qid:s2 3:0.5 1:-1.25 6:2.0 # shorter than {N_FEATURES} features\n")
    Path("sparse.txt").write_text("".join(lines))
    # Weights 0.0 and -0.0 on a column of both signs and on one of nonnegative
    # values; every other column is nonnegative too.
    signed = dense.copy()
    signed[[2, 5, 8]] = [-0.0, 0.0, 0.0]
    Path("signed.json").write_text(json.dumps({"kind": "linear", "weights": signed.tolist()}))
    lines = []
    for qid, docs in (("p", 6), ("q", 5)):
        for _ in range(docs):
            x = np.abs(rng.normal(size=N_FEATURES))
            x[5] *= rng.choice([-1.0, 1.0])
            features = " ".join(f"{k + 1}:{v:.6f}" for k, v in enumerate(x))
            lines.append(f"{rng.integers(3)} qid:{qid} {features}\n")
    Path("signed.txt").write_text("".join(lines))


def commands() -> list[list[str]]:
    runs = []
    for scorer in ("dense", "sparse"):
        inputs = ["--data", "data.txt", "--scorer", f"{scorer}.json", "--seed", "3"]
        out = f"{scorer}/"
        runs += [
            ["explain", *inputs, "--out", out + "explain-default"],
            ["explain", *inputs, "--estimator", "kernel", "--nsamples", "64",
             "--background", "8", "--objective", "topk:3", "--out", out + "explain-kernel"],
            ["explain", *inputs, "--estimator", "exact", "--background", "8",
             "--out", out + "explain-exact"],
            ["explain", *inputs, "--estimator", "permutation", "--nsamples", "16",
             "--background", "8", "--out", out + "explain-permutation"],
            ["explain", "--data", "sparse.txt", "--scorer", f"{scorer}.json", "--seed", "3",
             "--background", "8", "--out", out + "explain-sparse-file"],
            ["ground-truth", *inputs, "--nsamples", "64", "--runs", "2", "--background", "8",
             "--stability", "8,16", "--out", out + "ground-truth"],
            # Several permutation chunks, on a background drawn with replacement.
            ["ground-truth", *inputs, "--nsamples", "1500", "--runs", "2", "--background", "24",
             "--out", out + "ground-truth-chunks"],
            ["evaluate", *inputs, "--out", out + "evaluate-exact-gt.csv"],
            ["evaluate", *inputs, "--estimator", "exact", "--methods", "rankingshap,greedy3",
             "--out", out + "evaluate-exact.csv"],
            ["evaluate", *inputs, "--estimator", "exact", "--methods", "pointwise,random",
             "--out", out + "evaluate-exact-pointwise.csv"],
            ["evaluate", *inputs, "--estimator", "permutation", "--nsamples", "16",
             "--out", out + "evaluate-permutation.csv"],
            ["evaluate", *inputs, "--gt", "estimated", "--nsamples", "64",
             "--out", out + "evaluate-estimated-gt.csv"],
            ["evaluate", "--gt-file", out + "explain-exact/query_a.csv",
             "--pred", out + "explain-kernel/query_a.csv", out + "ground-truth/gt_a.csv",
             "--out", out + "evaluate-files.csv"],
        ]
    signed = ["--data", "signed.txt", "--scorer", "signed.json", "--seed", "3"]
    runs += [
        ["explain", *signed, "--estimator", "exact", "--background", "8",
         "--out", "signed/explain-exact"],
        ["evaluate", *signed, "--out", "signed/evaluate.csv"],
        ["evaluate", *signed, "--estimator", "exact", "--methods", "pointwise,random",
         "--out", "signed/evaluate-exact-pointwise.csv"],
    ]
    runs += [["synthetic", "--variant", variant, "--seed", "3", "--out", f"synthetic-{variant}.csv"]
             for variant in ("biased", "unbiased")]
    return runs


def run(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    os.chdir(out)
    write_inputs()
    for argv in commands():
        if main(argv) != 0:
            print(f"rankshap {' '.join(argv)} did not exit 0", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(run(Path(sys.argv[1])))
