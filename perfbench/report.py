"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Each run is a fresh process of `perfbench/run.py`. The report prints every
end-to-end metric of the untraced run by name, unit and sample count, the
per-layer metrics of the traced run with each self-time layer's share of the
query time, the tracing overhead, and whether both runs wrote byte-identical
outputs (equal digests). It exits nonzero if a run failed, a query failed or
the digests differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
SELF_LAYERS = (
    "data.parse_s", "masking.template_s", "masking.mask_s", "rankers.score_s",
    "rankers.rank_s", "objectives.reduce_s", "attribution.self_s", "attribution.save_s",
    "evaluation.self_s", "cli.self_s",
)
# The layer split each workload was chosen for.
EXPECTED_SPLIT = {
    "explain-default": [
        ("masking.mask_s + rankers.score_s > half the query time",
         lambda m, q: m["masking.mask_s"] + m["rankers.score_s"] > q / 2),
        ("objectives.distinct_ranking_ratio <= 0.02",
         lambda m, q: m["objectives.distinct_ranking_ratio"] <= 0.02),
    ],
    "longlist-mslr": [
        ("objectives.reduce_s is the largest self-time layer",
         lambda m, q: max(SELF_LAYERS[1:], key=m.get) == "objectives.reduce_s"),
        ("objectives.distinct_ranking_ratio >= 0.5",
         lambda m, q: m["objectives.distinct_ranking_ratio"] >= 0.5),
    ],
}
QUALITY_UNITS = {"gt_std_mean": "phi", "order_vs_exact": "ranks", "valdis_vs_exact": "phi"}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def report(workload: str, seed: int, seconds: float) -> bool:
    detail, result = run_once(workload, seed, seconds, 0)
    tdetail, tresult = run_once(workload, seed, seconds, 1)
    env = detail["env"]
    print(f"== {workload} (seed {seed}, {seconds:g} s timed, closed loop, 1 client)")
    print(f"   {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}")
    n_query, n_setup = len(detail["query_s"]), len(detail["setup_s"])
    rows = [(name, m["value"], m["unit"], n_setup if name == "setup_s" else
             n_query if name == "queries_per_s" else 1)
            for name, m in result["metrics"].items()]
    rows.append(("fail_ratio", detail["fail_ratio"], "ratio", detail["attempted"]))
    rows += [(k, v, QUALITY_UNITS[k], detail["attempted"] - detail["failed"])
             for k, v in detail["quality"].items()]
    print("   end to end (untraced)")
    for name, value, unit, n in rows:
        print(f"     {name:36s} {value:14.6g} {unit:8s} n={n}")
    if detail["query_s"]:
        q = detail["query_s"]
        print(f"     {'raw query_s median':36s} {statistics.median(q):14.6g} {'s':8s} n={len(q)}")
        print(f"     {'raw query_s max':36s} {max(q):14.6g} {'s':8s} n={len(q)}")
    rss = detail["rss_mb"]
    print(f"   peak resident size: {rss['after_setup']:.1f} MB in the main process after set-up; "
          f"query process {rss['query_process_start']:.1f} MB at its start, "
          f"{rss['query_process_peak']:.1f} MB at its peak (peak_rss_mb)")

    layers = {name: m["value"] for name, m in tresult["metrics"].items()}
    units = {name: m["unit"] for name, m in tresult["metrics"].items()}
    traced_q = statistics.fmean(tdetail["query_s"]) if tdetail["query_s"] else float("nan")
    # Shares are of the traced query time less the tracer's own bookkeeping.
    net_q = traced_q - layers["trace.bookkeeping_s"]
    print(f"   per layer (traced, {len(tdetail['query_s'])} queries, {tdetail['spans']} spans)")
    for name, value in layers.items():
        share = f"{value / net_q:6.1%}" if name in SELF_LAYERS and name != "data.parse_s" else ""
        print(f"     {name:36s} {value:14.6g} {units[name]:10s} {share}")
    if tdetail.get("unpatched"):
        print(f"     not traced (missing in the program): {', '.join(tdetail['unpatched'])}")
    for claim, holds in EXPECTED_SPLIT.get(workload, []):
        print(f"   expected split: {claim}: {'holds' if holds(layers, net_q) else 'DOES NOT HOLD'}")
    plain_q = statistics.fmean(detail["query_s"]) if detail["query_s"] else float("nan")
    print(f"   tracing overhead: {traced_q - plain_q:+.4g} s per query "
          f"({(traced_q - plain_q) / plain_q:+.1%}), traced minus untraced mean query time; "
          f"probe {statistics.median(tdetail['query_probe_s']):.4g} s traced, "
          f"{statistics.median(detail['query_probe_s']):.4g} s untraced")
    same = detail["digest"] == tdetail["digest"]
    print(f"   output digest {detail['digest'][:16]} untraced, {tdetail['digest'][:16]} traced: "
          f"{'equal' if same else 'DIFFERENT'}")
    for errors in (detail["errors"], tdetail["errors"]):
        for line in errors:
            print(f"   FAILED {line}")
    print()
    return same and result["correct"] and tresult["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    ok = [report(w, args.seed, args.seconds) for w in WORKLOADS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
