"""Benchmark of the rankshap listwise attribution pipeline, one workload per run.

    python3 perfbench/run.py --workload explain-default --seed 1 --seconds 25 --trace 0

Run from the repository root; rankshap is imported from `src/`. The run sets
its inputs up from the seed, processes one untimed warm-up query, then
processes queries one after another (a closed loop with one client) for
`--seconds`, checking what each query wrote. The queries run in a child
process forked after set-up, so that `peak_rss_mb` is their peak. The run
sets the inputs up again after each query, in a child process and directory
of its own, and reports the median of the set-up times. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`. The line before it,
`detail {...}`, holds the environment stamp, per-query times, the output
digest and the quality numbers. `perfbench/report.py` runs every workload.
"""

from __future__ import annotations

import os
import sys

# glibc malloc moves its mmap threshold at run time, so one process took its
# large temporaries from the heap and another from fresh mmaps that fault on
# first touch: longlist-mslr queries took 3.7 s under one seed and 6.4 s under
# another for that reason alone. Fixed thresholds keep them on the heap.
# glibc reads these only at start-up, so the process re-executes itself once.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "134217728"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

# Pinned before numpy is first imported: with OpenBLAS free to start threads,
# one explain run took 4.5 s and another 7.7 s on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RANKSHAP_THREADS", None)  # serial query processing, the default

import argparse
import json
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_SETUPS, MAX_SETUPS = 5, 25
END_TO_END_UNITS = {"queries_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def maxrss_mb() -> float:
    """Peak resident size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import rankshap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rankshap from {SRC}: {exc}")
    if not Path(rankshap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: rankshap imported from {rankshap.__file__}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import harness
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    home = os.getcwd()
    probe = harness.SpeedProbe()
    setup_s, setup_probe_s = [], []

    def set_up(directory):
        directory.mkdir(parents=True)
        os.chdir(directory)
        workload = WORKLOADS[args.workload](tracer.wrap_scorer if tracer else None)
        before = probe()
        t0 = perf_counter()
        workload.setup(args.seed)
        elapsed = perf_counter() - t0
        return workload, elapsed, (before + probe()) / 2

    def set_up_aside(_q=None):
        # Repeat set-ups go between queries, so that their median spans the
        # run rather than one moment of a machine whose speed drifts. Each
        # runs in a child process, so that its memory stays out of peak_rss_mb.
        if len(setup_s) < MAX_SETUPS:
            directory = work / f"setup{len(setup_s)}"
            elapsed, probe_s = harness.in_child(lambda: set_up(directory)[1:])
            setup_s.append(elapsed)
            setup_probe_s.append(probe_s)
            shutil.rmtree(directory)

    def query_phase():
        # Runs in a child process forked after the main set-up: its peak
        # resident size starts from the inputs as set up and is then set by
        # the queries, not by generating and parsing the inputs.
        start_mb = maxrss_mb()
        t0 = perf_counter()
        loop = harness.closed_loop(workload, args.seconds, probe=probe, tracer=tracer,
                                   between=set_up_aside)
        wall_s = perf_counter() - t0
        peak_mb = maxrss_mb()
        while len(setup_s) < MIN_SETUPS:
            set_up_aside()
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": harness.env_stamp(),
            "digest": loop.digest,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "fail_ratio": loop.failed / loop.attempted,
            "setup_s": setup_s,
            "setup_probe_s": setup_probe_s,
            "query_s": loop.query_s,
            "query_probe_s": loop.probe_s,
            "loop_wall_s": wall_s,
            "rss_mb": {"after_setup": setup_mb, "query_process_start": start_mb,
                       "query_process_peak": peak_mb},
            "quality": {k: statistics.fmean(v) for k, v in loop.quality.items()},
            "errors": loop.errors[:5],
        }
        if tracer is None:
            values = {
                # Queries over the summed query times, each scaled to the
                # reference machine speed (see SpeedProbe).
                "queries_per_s": (harness.scaled_rate(loop.query_s, loop.probe_s)
                                  if loop.query_s else 0.0),
                "peak_rss_mb": peak_mb,
                "setup_s": harness.scaled_median(setup_s, setup_probe_s),
            }
        else:
            spans = tracer.arrays()
            values = tracing.layer_metrics(spans, loop.timed_queries, tracer.query_counts())
            detail["spans"] = len(spans["start"])
            detail["unpatched"] = tracer.unpatched
            (HERE / "out").mkdir(exist_ok=True)
            tracer.save(HERE / "out" / f"{args.workload}.spans.npz")
        return detail, values, loop.failed, loop.attempted

    try:
        if tracer is not None:
            tracer.install()
        workload, elapsed, probe_s = set_up(work / "main")
        setup_s.append(elapsed)
        setup_probe_s.append(probe_s)
        setup_mb = maxrss_mb()
        detail, values, failed, attempted = harness.in_child(query_phase)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    units = tracing.PER_LAYER_UNITS if tracer is not None else END_TO_END_UNITS
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
