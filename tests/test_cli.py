import csv
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rankshap
from rankshap import Attribution, attribution, cli, evaluation, synthetic
from rankshap.cli import main
from rankshap.objectives import ListwiseGame


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for q in range(3):
        for _ in range(4):
            feats = " ".join(f"{k + 1}:{rng.normal():.6f}" for k in range(5))
            lines.append(f"{rng.integers(0, 3)} qid:q{q} {feats}")
    data = tmp_path / "data.txt"
    data.write_text("\n".join(lines))
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps({"kind": "linear", "weights": [1.0, -0.5, 0.25, 2.0, 0.1]}))
    return tmp_path, data, scorer


def test_explain_writes_per_query_files(workspace):
    tmp, data, scorer = workspace
    out = tmp / "attrs"
    code = main([
        "explain", "--data", str(data), "--scorer", str(scorer),
        "--objective", "kendall", "--estimator", "kernel", "--nsamples", "64",
        "--background", "5", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    csvs = sorted(out.glob("query_*.csv"))
    assert len(csvs) == 3
    assert (out / "query_q0.json").exists()
    meta = json.loads((out / "query_q0.json").read_text())
    assert meta["seed"] == 1
    assert meta["config"]["seed"] == 1


def test_explain_objective_validation_exit_2(workspace, capsys):
    tmp, data, scorer = workspace
    code = main([
        "explain", "--data", str(data), "--scorer", str(scorer),
        "--objective", "topk:0", "--out", str(tmp / "x"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_explain_missing_file_exit_2(workspace):
    tmp, _, scorer = workspace
    code = main([
        "explain", "--data", str(tmp / "nope.txt"), "--scorer", str(scorer),
        "--out", str(tmp / "x"),
    ])
    assert code == 2


def test_objective_topk_parses(workspace):
    tmp, data, scorer = workspace
    code = main([
        "explain", "--data", str(data), "--scorer", str(scorer),
        "--objective", "topk:3", "--estimator", "exact",
        "--background", "4", "--out", str(tmp / "topk"),
    ])
    assert code == 0


def test_ground_truth_default_and_stability(workspace):
    tmp, data, scorer = workspace
    out = tmp / "gt"
    code = main([
        "ground-truth", "--data", str(data), "--scorer", str(scorer),
        "--nsamples", "128", "--runs", "3", "--background", "5",
        "--query", "q1", "--stability", "32,64", "--out", str(out),
    ])
    assert code == 0
    assert (out / "gt_q1.csv").exists()
    assert (out / "gt_q1_run2.csv").exists()
    summary = json.loads((out / "gt_q1_stability.json").read_text())
    assert summary["runs"] == 3
    assert [row["n_samples"] for row in summary["stability"]] == [32, 64]


def test_ground_truth_single_run_exit_2(workspace):
    tmp, data, scorer = workspace
    code = main([
        "ground-truth", "--data", str(data), "--scorer", str(scorer),
        "--runs", "1", "--out", str(tmp / "gt"),
    ])
    assert code == 2


@pytest.mark.parametrize("sizes", ["0", "-4", "32,0", "abc", "32,,64"])
def test_ground_truth_bad_stability_exit_2_before_any_output(workspace, capsys, sizes):
    tmp, data, scorer = workspace
    out = tmp / "gt"
    code = main([
        "ground-truth", "--data", str(data), "--scorer", str(scorer),
        "--nsamples", "16", "--runs", "2", "--background", "3",
        "--stability", sizes, "--out", str(out),
    ])
    assert code == 2
    assert "--stability" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_without_a_multi_document_query_exit_2(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1 qid:a 1:0.5 2:0.1\n2 qid:b 1:0.3 2:0.4\n")
    out = tmp_path / "report.csv"
    code = main([
        "evaluate", "--data", str(data), "--scorer", '{"kind": "linear", "weights": [1, -1]}',
        "--out", str(out),
    ])
    assert code == 2
    assert f"no query in {data} has 2 or more documents" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".jsonl").exists()


def test_evaluate_methods_report(workspace):
    tmp, data, scorer = workspace
    out = tmp / "report.csv"
    code = main([
        "evaluate", "--data", str(data), "--scorer", str(scorer),
        "--methods", "rankingshap,pointwise,greedy2,random",
        "--estimator", "exact", "--background", "4", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    # greedy2 expands to two variants: 5 rows + header.
    assert len(lines) == 6
    assert out.with_suffix(".jsonl").exists()


def test_evaluate_self_gt_zero_row(workspace):
    tmp, data, scorer = workspace
    out = tmp / "self.csv"
    code = main([
        "evaluate", "--data", str(data), "--scorer", str(scorer),
        "--methods", "gt", "--estimator", "exact", "--background", "4",
        "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert all(float(v) == 0.0 for v in row[1:])


def test_evaluate_missing_gt_file_exit_2(workspace):
    tmp, _, _ = workspace
    code = main([
        "evaluate", "--gt-file", str(tmp / "missing.csv"), "--out", str(tmp / "r.csv"),
    ])
    assert code == 2


def test_evaluate_gt_file_dimension_mismatch_exit_2(workspace, tmp_path):
    from rankshap import Attribution

    gt = tmp_path / "gt.csv"
    pred = tmp_path / "pred.csv"
    Attribution(values=np.zeros(3), base_value=0.0).save(gt)
    Attribution(values=np.zeros(4), base_value=0.0).save(pred)
    code = main([
        "evaluate", "--gt-file", str(gt), "--pred", str(pred),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2



def test_evaluate_gt_file_checks_every_pred_before_writing(tmp_path, capsys):
    gt, ok, bad = (tmp_path / f"{name}.csv" for name in ("gt", "ok", "bad"))
    Attribution(values=np.zeros(3), base_value=0.0).save(gt)
    Attribution(values=np.ones(3), base_value=0.0).save(ok)
    Attribution(values=np.zeros(4), base_value=0.0).save(bad)
    out = tmp_path / "r.csv"
    code = main(["evaluate", "--gt-file", str(gt), "--pred", str(ok), str(bad), "--out", str(out)])
    assert code == 2
    assert "bad.csv has 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("estimator, nsamples, message", [
    ("kernel", 1, "kernel estimator needs n_samples >= 2, got 1"),
    ("permutation", 0, "n_samples must be positive, got 0"),
])
def test_evaluate_small_budget_exit_2_before_ground_truth(tmp_path, capsys, estimator, nsamples,
                                                          message):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.txt"
    data.write_text("".join(
        f"0 qid:q{q} " + " ".join(f"{k + 1}:{x:.6f}" for k, x in enumerate(rng.normal(size=46)))
        + "\n"
        for q in range(2) for _ in range(20)
    ))
    scorer = json.dumps({"kind": "linear", "weights": [1.0] * 46})
    out = tmp_path / "r.csv"
    with mock.patch.object(evaluation, "estimate_ground_truth") as gt:
        code = main([
            "evaluate", "--data", str(data), "--scorer", scorer, "--gt", "estimated",
            "--estimator", estimator, "--nsamples", str(nsamples), "--methods", "rankingshap",
            "--out", str(out),
        ])
    assert code == 2
    assert message in capsys.readouterr().err
    gt.assert_not_called()
    assert not out.exists() and not out.with_suffix(".jsonl").exists()


def test_evaluate_exact_estimator_above_exact_max_n_exit_2_before_ground_truth(tmp_path, capsys):
    n = rankshap.masking.EXACT_MAX_N + 2
    rng = np.random.default_rng(0)
    data = tmp_path / "data.txt"
    data.write_text("".join(
        f"0 qid:q{q} " + " ".join(f"{k + 1}:{x:.6f}" for k, x in enumerate(rng.normal(size=n)))
        + "\n"
        for q in range(2) for _ in range(4)
    ))
    scorer = json.dumps({"kind": "linear", "weights": [1.0] * n})
    out = tmp_path / "r.csv"
    with mock.patch.object(evaluation, "estimate_ground_truth") as gt:
        code = main([
            "evaluate", "--data", str(data), "--scorer", scorer, "--gt", "estimated",
            "--estimator", "exact", "--out", str(out),
        ])
    assert code == 2
    assert f"exact enumeration needs n <= {rankshap.masking.EXACT_MAX_N}, got n={n}" in (
        capsys.readouterr().err
    )
    gt.assert_not_called()
    assert not out.exists() and not out.with_suffix(".jsonl").exists()


@pytest.mark.parametrize("methods, name", [
    ("foo", "foo"), ("greedy", "greedy"), ("greedyx", "greedyx"), ("greedy0", "greedy0"),
    ("greedy13", "greedy13"), ("greedy2_foo", "greedy2_foo"),
    ("greedy2,greedy2_iter", "greedy2_iter"), ("rankingshap,,random", ""),
])
def test_evaluate_bad_method_exit_2_before_ground_truth(tmp_path, capsys, methods, name):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.txt"
    data.write_text("".join(
        f"0 qid:q{q} " + " ".join(f"{k + 1}:{x:.6f}" for k, x in enumerate(rng.normal(size=12)))
        + "\n"
        for q in range(2) for _ in range(3)
    ))
    scorer = json.dumps({"kind": "linear", "weights": [1.0] * 12})
    out = tmp_path / "r.csv"
    with mock.patch.object(evaluation, "exact_shapley") as exact:
        code = main([
            "evaluate", "--data", str(data), "--scorer", scorer, "--methods", methods,
            "--out", str(out),
        ])
    assert code == 2
    assert f"method {name!r}" in capsys.readouterr().err
    exact.assert_not_called()
    assert not out.exists()
    assert not out.with_suffix(".jsonl").exists()

@pytest.mark.parametrize("indices", [(0, 0, 1), (0, 1, 3)])
def test_evaluate_gt_file_bad_feature_index_exit_2(tmp_path, capsys, indices):
    gt = tmp_path / "gt.csv"
    gt.write_text("feature_index,phi\n" + "".join(f"{i},0.5\n" for i in indices))
    code = main(["evaluate", "--gt-file", str(gt), "--pred", str(gt),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "gt.csv: feature_index" in capsys.readouterr().err


GOOD_CSV = "feature_index,phi\n0,0.5\n1,0.25\n"


@pytest.mark.parametrize("bad", ["gt", "pred"])
@pytest.mark.parametrize("csv_text, sidecar, message", [
    ("index,value\n0,0.5\n1,0.25\n", None, "header must name feature_index and phi"),
    ("feature_index,phi\n0,0.5\n1\n", None, "phi None on line 3 is not a finite number"),
    ("feature_index,phi\n", None, "no attribution rows"),
    ("feature_index,phi\n0,0.5\n1.0,0.25\n", None, "feature_index '1.0' on line 3 is not"),
    ("feature_index,phi\n0,abc\n1,0.25\n", None, "phi 'abc' on line 2 is not a finite"),
    ("feature_index,phi\n0,0.5\n1,inf\n", None, "phi 'inf' on line 3 is not a finite"),
    ("feature_index,phi\n0,0.5,7\n1,0.25\n", None, "line 2 has more fields than the header"),
    (GOOD_CSV, "[1]", ".json: expected a JSON object"),
    (GOOD_CSV, "{", ".json: invalid JSON"),
    (GOOD_CSV, '{"base_value": "x"}', ".json: base_value 'x' is not a finite number"),
], ids=["header", "no-phi", "no-rows", "float-index", "text-phi", "inf-phi", "extra-field",
        "list-sidecar", "bad-sidecar", "text-base-value"])
def test_evaluate_malformed_attribution_file_exit_2(tmp_path, capsys, bad, csv_text, sidecar,
                                                    message):
    files = {name: tmp_path / f"{name}.csv" for name in ("gt", "pred")}
    for name, path in files.items():
        path.write_text(csv_text if name == bad else GOOD_CSV)
    if sidecar is not None:
        files[bad].with_suffix(".json").write_text(sidecar)
    out = tmp_path / "r.csv"
    code = main(["evaluate", "--gt-file", str(files["gt"]), "--pred", str(files["pred"]),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / bad) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "must hold a JSON object"), ('"x"', "must hold a JSON object"),
    ("3", "must hold a JSON object"), ('{"kind": "linear"', "is not valid JSON"),
])
def test_scorer_file_not_a_json_object_exit_2(workspace, capsys, content, message):
    tmp, data, _ = workspace
    scorer = tmp / "list.json"
    scorer.write_text(content)
    out = tmp / "o"
    code = main(["explain", "--data", str(data), "--scorer", str(scorer), "--out", str(out)])
    assert code == 2
    assert f"scorer file {scorer} {message}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_scorer_file_exit_2(workspace, capsys):
    tmp, data, _ = workspace
    code = main([
        "explain", "--data", str(data), "--scorer", str(tmp / "scorr.json"),
        "--out", str(tmp / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "scorr.json" in err and "Expecting value" not in err


def test_inline_json_scorer(workspace):
    tmp, data, _ = workspace
    code = main([
        "explain", "--data", str(data), "--estimator", "exact", "--background", "2",
        "--scorer", '{"kind": "linear", "weights": [1, 0, 0, 0, 0]}', "--out", str(tmp / "o"),
    ])
    assert code == 0


@pytest.mark.parametrize("missing", ["--data", "--scorer"])
def test_evaluate_without_inputs_exit_2(workspace, capsys, missing):
    tmp, data, scorer = workspace
    inputs = {"--data": str(data), "--scorer": str(scorer)}
    del inputs[missing]
    args = [arg for pair in inputs.items() for arg in pair]
    code = main(["evaluate", *args, "--out", str(tmp / "r.csv")])
    assert code == 2
    assert f"evaluate needs {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [
    None, [float("nan"), 1, 1, 1, 1], [[1, 2, 3, 4, 5]], [], "abc", {"a": 1}, [[1], [2, 3]],
    ["1", "2", "3", "4", "5"], [1, 2, 3, 4, True],
])
def test_bad_linear_scorer_config_exit_2(workspace, capsys, weights):
    tmp, data, _ = workspace
    cfg = {"kind": "linear"} if weights is None else {"kind": "linear", "weights": weights}
    code = main([
        "explain", "--data", str(data), "--scorer", json.dumps(cfg), "--out", str(tmp / "o"),
    ])
    assert code == 2
    assert "linear scorer" in capsys.readouterr().err


@pytest.mark.parametrize("line, token", [
    ("1 qid:q0 1:0_5 5:1", "1:0_5"), ("1 qid:q0 1:١ 5:1", "1:١"),
])
def test_underscored_or_non_ascii_number_exit_2(workspace, capsys, line, token):
    tmp, data, scorer = workspace
    lines = data.read_text().splitlines()
    lines[2] = line
    data.write_text("\n".join(lines))
    code = main(["explain", "--data", str(data), "--scorer", str(scorer),
                 "--out", str(tmp / "o")])
    assert code == 2
    assert f"line 3: numeric token {token!r}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_infinite_scores_exit_2(workspace, capsys):
    # Finite features whose weighted sum overflows: the scores are +-inf, and
    # inf scores would tie and rank by document index.
    tmp, data, scorer = workspace
    data.write_text("1 qid:a 1:1e308 4:1e308\n0 qid:a 1:1 4:1e308\n2 qid:a 4:-1e308 5:1\n")
    code = main(["explain", "--data", str(data), "--scorer", str(scorer),
                 "--out", str(tmp / "o")])
    assert code == 2
    assert "non-finite score" in capsys.readouterr().err
    assert not (tmp / "o").exists()


@pytest.mark.parametrize("warn", ["error", "default"])
@pytest.mark.parametrize("estimator", ["exact", "kernel", "permutation"])
def test_pointwise_overflow_exit_2_naming_the_query(tmp_path, capsys, estimator, warn):
    # Finite scores whose mean over two documents overflows in the pointwise game.
    data = tmp_path / "data.txt"
    data.write_text("0 qid:q1 1:1e308\n0 qid:q1 1:0.924\n")
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        code = main(["evaluate", "--data", str(data), "--scorer",
                     '{"kind": "linear", "weights": [-1.0]}', "--methods", "pointwise",
                     "--estimator", estimator, "--nsamples", "4",
                     "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: query 'q1': pointwise attribution: overflow encountered")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("cfg", [
    {"kind": "linear", "weights": [1, 0, 0, 0, 0], "bias": 3},
    {"kind": "talent", "varient": "unbiased"},
])
def test_unknown_scorer_config_key_exit_2(workspace, capsys, cfg):
    tmp, data, _ = workspace
    code = main([
        "explain", "--data", str(data), "--scorer", json.dumps(cfg), "--out", str(tmp / "o"),
    ])
    assert code == 2
    assert f"{cfg['kind']} scorer config has unknown keys" in capsys.readouterr().err
    assert not (tmp / "o").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-3"])
@pytest.mark.parametrize("command", ["explain", "ground-truth"])
def test_bad_thread_count_exit_2(workspace, capsys, monkeypatch, command, threads):
    tmp, data, scorer = workspace
    monkeypatch.setenv("RANKSHAP_THREADS", threads)
    out = tmp / "o"
    code = main([
        command, "--data", str(data), "--scorer", str(scorer), "--nsamples", "8",
        "--background", "2", "--out", str(out),
    ])
    assert code == 2
    assert f"RANKSHAP_THREADS must be a positive integer, got {threads!r}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_evaluate_gt_file_self_evaluation(tmp_path):
    from rankshap import Attribution

    gt = tmp_path / "gt.csv"
    Attribution(values=np.array([0.5, 0.2, 0.1]), base_value=0.0).save(gt)
    out = tmp_path / "r.csv"
    code = main(["evaluate", "--gt-file", str(gt), "--pred", str(gt), "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) == 0.0 and float(row[2]) == 0.0


def test_evaluate_gt_file_report_quotes_method_names(tmp_path):
    gt, pred = tmp_path / "gt.csv", tmp_path / "a,b.csv"
    Attribution(values=np.array([0.5, 0.2, 0.1]), base_value=0.0).save(gt)
    Attribution(values=np.array([0.1, 0.2, 0.5]), base_value=0.0).save(pred)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--gt-file", str(gt), "--pred", str(pred), "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {"method": "a,b", "order_all": repr(4.0),
                   "valdis_all": repr(evaluation.valdis_metric([0.5, 0.2, 0.1], [0.1, 0.2, 0.5]))}


def test_evaluate_gt_file_without_pred_exit_2(tmp_path, capsys):
    gt, out = tmp_path / "gt.csv", tmp_path / "r.csv"
    Attribution(values=np.zeros(3), base_value=0.0).save(gt)
    for pred in ([], ["--pred"]):
        assert main(["evaluate", "--gt-file", str(gt), *pred, "--out", str(out)]) == 2
        assert "--gt-file needs at least one --pred file" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_gt_file_repeated_pred_stem_exit_2(tmp_path, capsys):
    gt, out = tmp_path / "gt.csv", tmp_path / "r.csv"
    first, second = tmp_path / "x" / "m.csv", tmp_path / "y" / "m.csv"
    for path in (gt, first, second):
        path.parent.mkdir(exist_ok=True)
        Attribution(values=np.zeros(3), base_value=0.0).save(path)
    code = main(["evaluate", "--gt-file", str(gt), "--pred", str(first), str(second),
                 "--out", str(out)])
    assert code == 2
    assert f"--pred files {first}, {second} share a method name" in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = main([
            "synthetic", "--variant", "biased",
            "--methods", "rankingshap,greedy2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    assert len(rows) == 1 + 5 * 2 * 5


def test_synthetic_unbiased_shape(tmp_path):
    out = tmp_path / "u.csv"
    code = main([
        "synthetic", "--variant", "unbiased", "--methods", "rankingshap",
        "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 5 * 1 * 5


def test_synthetic_unknown_variant_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synthetic", "--variant", "diagonal", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2



def test_synthetic_bad_method_exit_2_before_any_scenario(tmp_path, capsys):
    out = tmp_path / "s.csv"
    with mock.patch.object(synthetic, "ListwiseGame", wraps=ListwiseGame) as game:
        code = main(["synthetic", "--methods", "greedy2,foo", "--out", str(out)])
    assert code == 2
    assert "method 'foo'" in capsys.readouterr().err
    game.assert_not_called()
    assert not out.exists()


def test_threaded_ground_truth_stability_matches_serial(workspace, monkeypatch):
    tmp, data, scorer = workspace
    threads_used = []

    def stability_curve(*args, **kwargs):
        threads_used.append(threading.current_thread())
        return evaluation.stability_curve(*args, **kwargs)

    monkeypatch.setattr(cli, "stability_curve", stability_curve)
    outputs = {}
    for threads in ("1", "2"):
        # The same relative --out, so that the config sidecars match too.
        (tmp / threads).mkdir()
        monkeypatch.chdir(tmp / threads)
        monkeypatch.setenv("RANKSHAP_THREADS", threads)
        assert main([
            "ground-truth", "--data", str(data), "--scorer", str(scorer), "--nsamples", "32",
            "--runs", "2", "--background", "3", "--stability", "32,64", "--out", "gt",
        ]) == 0
        outputs[threads] = {f.name: f.read_bytes() for f in sorted(Path("gt").iterdir())}
    assert len(outputs["1"]) == 3 * (2 + 2 * 2 + 1)
    assert outputs["1"] == outputs["2"]
    # The serial run sweeps on the main thread, the pooled one in its workers.
    assert threads_used[:3] == [threading.main_thread()] * 3
    assert threading.main_thread() not in threads_used[3:]


def test_threaded_explain_matches_serial(workspace, monkeypatch):
    tmp, data, scorer = workspace
    serial, threaded = tmp / "s", tmp / "t"
    args = [
        "explain", "--data", str(data), "--scorer", str(scorer),
        "--estimator", "exact", "--background", "4", "--seed", "2",
    ]
    main(args + ["--out", str(serial)])
    monkeypatch.setenv("RANKSHAP_THREADS", "4")
    main(args + ["--out", str(threaded)])
    for f in sorted(serial.glob("query_*.csv")):
        assert f.read_bytes() == (threaded / f.name).read_bytes()


@pytest.mark.parametrize("command", ["explain", "ground-truth", "evaluate"])
def test_scorer_width_mismatch_exit_2(workspace, capsys, command):
    tmp, data, _ = workspace
    wide = tmp / "wide.txt"
    feats = " ".join(f"{k + 1}:0.5" for k in range(46))
    wide.write_text("\n".join(f"0 qid:q0 {feats}" for _ in range(3)))
    short = tmp / "short.json"
    short.write_text(json.dumps({"kind": "linear", "weights": [1.0, 2.0, 3.0]}))
    talent = tmp / "talent.json"
    talent.write_text(json.dumps({"kind": "talent"}))
    out = tmp / "out"
    for data_file, scorer, width, n in ((data, short, 3, 5), (wide, talent, 5, 46)):
        code = main([command, "--data", str(data_file), "--scorer", str(scorer),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"scorer {scorer} reads {width} features" in err
        assert f"{data_file} has {n}" in err
        assert not out.exists()


def test_talent_university_code_out_of_range_exit_2(tmp_path, capsys):
    # The code's range is checked before its cast to int, which would warn on 1e200.
    data = tmp_path / "data.txt"
    data.write_text("1 qid:a 1:0.5 2:0.5 3:3.0 4:1e200 5:1\n0 qid:a 1:0.2 2:0.9 3:3.5 4:0 5:1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["explain", "--data", str(data), "--scorer", '{"kind": "talent"}',
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown university code np.float64(1e+200)" in capsys.readouterr().err


def test_single_document_query_gets_zero_attribution(tmp_path):
    # qid:b holds one document: every objective is constant there.
    data = tmp_path / "data.txt"
    data.write_text("1 qid:a 1:0.5 2:0.1\n0 qid:a 1:0.2 2:0.9\n2 qid:b 1:0.3 2:0.4\n")
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps({"kind": "linear", "weights": [1.0, -0.5]}))
    common = ["--data", str(data), "--scorer", str(scorer), "--background", "3"]
    attrs, gt = tmp_path / "attrs", tmp_path / "gt"
    assert main(["explain", *common, "--estimator", "exact", "--out", str(attrs)]) == 0
    assert main(["ground-truth", *common, "--nsamples", "16", "--stability", "8,16",
                 "--out", str(gt)]) == 0
    for path in (attrs / "query_b.csv", gt / "gt_b.csv"):
        attr = Attribution.load(path)
        assert attr.values.tolist() == [0.0, 0.0]
        assert attr.base_value == 1.0
        assert attr.meta["objective"] == "constant:m=1"
    assert Attribution.load(attrs / "query_a.csv").meta["objective"] == "kendall"
    for qid in ("a", "b"):
        assert json.loads((attrs / f"query_{qid}.json").read_text())["query_id"] == qid
    assert not list(gt.glob("gt_b_run*.csv"))
    assert len(list(gt.glob("gt_a_run*.csv"))) == 3
    summary = json.loads((gt / "gt_b_stability.json").read_text())
    assert summary["runs"] == 0
    assert summary["std_per_feature"] == [0.0, 0.0]
    assert summary["mean_std"] == 0.0
    assert [row["mean_std_all"] for row in summary["stability"]] == [0.0, 0.0]


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # Each run gets its own working directory and the same relative --out, so
    # the sidecars, which record the config, must match byte for byte too.
    rng = np.random.default_rng(3)
    n = 46
    lines = [
        f"{rng.integers(0, 3)} qid:q{q} "
        + " ".join(f"{k + 1}:{rng.random():.6f}" for k in range(n))
        for q in range(2) for _ in range(6)
    ]
    data = tmp_path / "data.txt"
    data.write_text("\n".join(lines) + "\n")
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps({"kind": "linear", "weights": rng.normal(size=n).tolist()}))
    common = ["--data", str(data), "--scorer", str(scorer), "--background", "10"]
    commands = [
        ["explain", *common, "--out", "attrs"],
        ["ground-truth", *common, "--nsamples", "32", "--runs", "2", "--out", "gt"],
    ]
    src = str(Path(rankshap.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"blas{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("RANKSHAP_THREADS", None)
        for argv in commands:
            subprocess.run([sys.executable, "-m", "rankshap.cli", *argv], cwd=cwd, env=env,
                           check=True, capture_output=True)
        outputs[threads] = {
            str(f.relative_to(cwd)): f.read_bytes() for f in sorted(cwd.rglob("*")) if f.is_file()
        }
    assert len(outputs["1"]) == 2 * 2 + 2 * (2 + 2 * 2 + 1)
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("seed", ["-1", "abc"])
@pytest.mark.parametrize("command", ["explain", "ground-truth", "evaluate", "synthetic"])
def test_bad_seed_usage_error_names_the_flag(workspace, capsys, command, seed):
    tmp, data, scorer = workspace
    inputs = [] if command == "synthetic" else ["--data", str(data), "--scorer", str(scorer)]
    out = tmp / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --seed: expected non-negative integer, got {seed!r}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def twelve_feature_inputs(tmp_path):
    """Arguments for a 2-query x 5-document file of 12 features and a linear scorer."""
    rng = np.random.default_rng(1)
    data = tmp_path / "data.txt"
    data.write_text("".join(
        f"0 qid:q{q} " + " ".join(f"{k + 1}:{x:.6f}" for k, x in enumerate(rng.normal(size=12)))
        + "\n"
        for q in range(2) for _ in range(5)
    ))
    scorer = json.dumps({"kind": "linear", "weights": [1.0] * 12})
    return ["--data", str(data), "--scorer", scorer, "--background", "2"]


@pytest.mark.parametrize("command, nsamples", [("explain", 12), ("explain", 22), ("evaluate", 5)])
def test_kernel_budget_below_2n_minus_1_exit_2_before_any_scoring(tmp_path, capsys, command,
                                                                 nsamples):
    out = tmp_path / "out"
    with mock.patch.object(ListwiseGame, "_values") as values, mock.patch.object(
        evaluation, "exact_shapley"
    ) as exact:
        code = main([command, *twelve_feature_inputs(tmp_path), "--nsamples", str(nsamples),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "n_samples >= 2n - 1 = 23" in err and f"got {nsamples}" in err
    values.assert_not_called()
    exact.assert_not_called()
    assert not out.exists() and not out.with_suffix(".jsonl").exists()


def test_kernel_budget_of_2_to_the_n_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["explain", *twelve_feature_inputs(tmp_path), "--nsamples", str(2**12),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "query_q0.json").read_text())
    assert meta["coalitions_evaluated"] == 2**12


def test_evaluate_data_mode_rejects_pred_exit_2(workspace, capsys):
    tmp, data, scorer = workspace
    out = tmp / "r.csv"
    code = main(["evaluate", "--data", str(data), "--scorer", str(scorer),
                 "--pred", str(tmp / "no" / "such.csv"), "--out", str(out)])
    assert code == 2
    assert "--pred" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".jsonl").exists()


def test_evaluate_gt_file_mode_rejects_data_and_scorer_exit_2(tmp_path, capsys):
    gt, out = tmp_path / "gt.csv", tmp_path / "r.csv"
    Attribution(values=np.array([0.5, 0.2, 0.1]), base_value=0.0).save(gt)
    for flags in (["--data", "/no/such"], ["--scorer", "/no/such"],
                  ["--data", "/no/such", "--scorer", "/no/such"]):
        code = main(["evaluate", "--gt-file", str(gt), "--pred", str(gt), *flags,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()


def write_queries(path, sizes, qids, n=4, seed=0):
    """A LETOR file of one query per (size, qid), in order."""
    rng = np.random.default_rng(seed)
    path.write_text("".join(
        f"0 qid:{qid} " + " ".join(f"{k + 1}:{x:.6f}" for k, x in enumerate(rng.normal(size=n)))
        + "\n"
        for size, qid in zip(sizes, qids) for _ in range(size)
    ))
    return path


@pytest.mark.parametrize("command", ["explain", "ground-truth"])
@pytest.mark.parametrize("qid", ["a/b", "a\\b"])
def test_qid_with_path_separator_exit_2_before_any_query(tmp_path, capsys, command, qid):
    data = write_queries(tmp_path / "data.txt", [3, 3], ["ok", qid])
    scorer = json.dumps({"kind": "linear", "weights": [1.0, -0.5, 0.25, 2.0]})
    out = tmp_path / "out"
    with mock.patch.object(cli, "rankingshap_explain") as explain, \
            mock.patch.object(cli, "estimate_ground_truth") as gt:
        code = main([command, "--data", str(data), "--scorer", scorer, "--nsamples", "16",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(data) in err and repr(qid) in err and "path separator" in err
    explain.assert_not_called()
    gt.assert_not_called()
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "ground-truth", "evaluate"])
def test_objective_that_misfits_a_later_query_exit_2_before_any_query(tmp_path, capsys, command):
    # docrank:4 fits the 6-document query but not the 3-document one after it;
    # the single-document query has no objective.
    data = write_queries(tmp_path / "data.txt", [6, 1, 3], ["big", "one", "small"])
    scorer = json.dumps({"kind": "linear", "weights": [1.0, -0.5, 0.25, 2.0]})
    out = tmp_path / "out.csv"
    with mock.patch.object(evaluation, "exact_shapley") as exact, \
            mock.patch.object(attribution, "kernel_shap") as kernel, \
            mock.patch.object(evaluation, "permutation_shapley") as perm:
        code = main([command, "--data", str(data), "--scorer", scorer,
                     "--objective", "docrank:4", "--nsamples", "16", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'docrank:4'" in err and "'small'" in err and "'big'" not in err
    exact.assert_not_called()
    kernel.assert_not_called()
    perm.assert_not_called()
    assert not out.exists() and not out.with_suffix(".jsonl").exists()
