"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rankshap import cli  # noqa: E402
from rankshap.data import group_by_query, parse_letor  # noqa: E402
from rankshap.objectives import ListwiseGame  # noqa: E402


class TinyExplain(workloads.ExplainDefault):
    m, n, pool = 5, 4, 3
    flags = ("--nsamples", "16", "--background", "4")


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_is_deterministic_per_seed(name, tmp_path, monkeypatch):
    written = {}
    for run, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        workloads.WORKLOADS[name]().setup(seed)
        written[run] = _files(tmp_path / run)
    assert written["a"] == written["b"]
    assert written["a"] != written["c"]


def test_letor_text_round_trips_through_the_parser():
    rng = np.random.default_rng(3)
    text = workloads.letor_text(rng, ["1", "2"], m=3, n=5)
    groups = group_by_query(parse_letor(text))
    assert [len(g) for g in groups] == [3, 3] and groups[0].n == 5
    again = workloads.letor_text(np.random.default_rng(3), ["1", "2"], m=3, n=5)
    assert text == again


def test_half_zero_weights():
    w = workloads.linear_weights(np.random.default_rng(0), 12, half_zero=True)
    assert (w == 0.0).sum() == 6


def test_tree_scorer_matches_a_per_row_walk():
    rng = np.random.default_rng(5)
    scorer = workloads.TreeEnsembleScorer.random(rng, n=6, trees=4)
    X = rng.random((7, 6))
    expected = []
    for x in X:
        total = 0.0
        for f, t, leaves in zip(scorer.split_feature, scorer.split_threshold, scorer.leaves):
            right = x[f[0]] > t[0]
            child = 2 if right else 1
            total += leaves[2 * right + (x[f[child]] > t[child])]
        expected.append(total)
    np.testing.assert_allclose(scorer.score_batch(X), expected, rtol=0, atol=1e-12)


def _spans(rows, hidden=None):
    """rows: (name, start, end, parent)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows]),
        "query": np.zeros(len(rows), dtype=int),
        "work": np.zeros(len(rows)),
        "distinct": np.zeros(len(rows)),
        "hidden": np.array(hidden if hidden is not None else [0.0] * len(rows)),
    }


def test_self_and_net_times_on_a_hand_built_tree():
    # kernel [0,10] -> value [1,4] -> score [2,3]; kernel -> value [5,9] -> reduce [6,7]
    rows = [
        ("attribution.kernel", 0, 10, -1),
        ("game.mean_value", 1, 4, 0),
        ("rankers.score", 2, 3, 1),
        ("game.mean_value", 5, 9, 0),
        ("objectives.reduce", 6, 7, 3),
    ]
    hidden = [0.0, 0.0, 0.0, 0.5, 0.0]  # tracer bookkeeping inside the second value call
    s = _spans(rows, hidden)
    own = tracing.self_times(s["start"], s["end"], s["parent"], s["hidden"])
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 2.5, 1.0])
    net = tracing.net_durations(s["start"], s["end"], s["parent"], s["hidden"])
    np.testing.assert_allclose(net, [9.5, 3.0, 1.0, 3.5, 1.0])
    m = tracing.layer_metrics(s, queries=[0])
    assert m["masking.mask_s"] == pytest.approx(4.5)
    assert m["rankers.score_s"] == pytest.approx(1.0)
    assert m["objectives.reduce_s"] == pytest.approx(1.0)
    assert m["attribution.self_s"] == pytest.approx(3.0)
    assert m["attribution.kernel_s"] == pytest.approx(9.5)
    assert m["objectives.value_s"] == pytest.approx(6.5)
    assert m["objectives.value_calls"] == 2


def test_failing_cli_query_is_counted_not_timed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = TinyExplain()
    wl.setup(1)
    Path(wl.data_file(1)).write_text("1 qid:1 1:0.5 2:oops\n")
    res = harness.closed_loop(wl, seconds=0.0, probe=harness.SpeedProbe(), digest_queries=3)
    assert (res.attempted, res.failed) == (3, 1)
    assert res.timed_queries == [2] and len(res.query_s) == len(res.probe_s) == 1
    assert "exited 2" in res.errors[0]


def test_failed_output_check_is_counted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    class BrokenOutput(TinyExplain):
        def run(self, q):
            super().run(q)
            for path in self.out_dir(q).glob("*.json"):
                path.unlink()

    wl = BrokenOutput()
    wl.setup(1)
    res = harness.closed_loop(wl, seconds=0.0, probe=harness.SpeedProbe(), digest_queries=2)
    assert (res.attempted, res.failed) == (2, 2) and res.query_s == []


def test_tracing_leaves_outputs_unchanged_and_uninstalls(tmp_path, monkeypatch):
    originals = (cli.main, ListwiseGame.value, ListwiseGame.mean_value)
    digests = []
    for trace in (False, True):
        (tmp_path / str(trace)).mkdir()
        monkeypatch.chdir(tmp_path / str(trace))
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            wl = TinyExplain()
            wl.setup(2)
            res = harness.closed_loop(wl, seconds=0.0, probe=harness.SpeedProbe(), tracer=tracer)
        finally:
            if tracer:
                tracer.uninstall()
        assert res.failed == 0
        digests.append(res.digest)
    assert digests[0] == digests[1]
    assert (cli.main, ListwiseGame.value, ListwiseGame.mean_value) == originals
    assert tracer.unpatched == []
    m = tracing.layer_metrics(tracer.arrays(), [1], tracer.query_counts())
    assert m["objectives.value_calls"] > 0 and m["rankers.score_rows"] > 0
    assert 0 < m["objectives.distinct_ranking_ratio"] <= 1


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_scaled_median_divides_out_the_probe():
    ref = harness.REFERENCE_PROBE_S
    assert harness.scaled_median([1.0, 2.0, 9.0], [ref, 2 * ref, ref]) == pytest.approx(1.0)


def test_scaled_rate_sums_the_scaled_times():
    ref = harness.REFERENCE_PROBE_S
    # Scaled times 1, 1 and 4.5 s: three queries in 6.5 s, the slow one included.
    assert harness.scaled_rate([1.0, 2.0, 9.0], [ref, 2 * ref, 2 * ref]) == pytest.approx(3 / 6.5)


def test_in_child_returns_the_result_and_keeps_memory_out():
    before = run.maxrss_mb()
    assert harness.in_child(lambda: float(np.ones(2**24).sum())) == 2.0**24
    assert run.maxrss_mb() - before < 64  # the child's 128 MB array is not counted here
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        harness.in_child(lambda: 1 / 0)
