"""The closed query loop, the machine-speed probe, the output digest and the
environment stamp."""

from __future__ import annotations

import hashlib
import os
import pickle
import platform
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import NO_QUERY

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RANKSHAP_THREADS")
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
WARMUP = 1  # untimed queries before the timed phase; their outputs are still checked
DIGEST_QUERIES = 2  # queries whose outputs the digest covers; every run processes them
PROBE_SHARE = 0.025  # probe time on each side of a query, as a share of the last query
# SpeedProbe's typical time on the machine the benchmark was defined on (a
# 2-vCPU Xeon VM at 2.1 GHz); scaled times are given at this speed.
REFERENCE_PROBE_S = 0.0147


class SpeedProbe:
    """A fixed piece of numpy and Python work, not rankshap code, timed next
    to every query and set-up.

    On a shared machine the same process ran up to twice as fast in one
    minute as in another, with no steal time, a constant clock, and CPU time
    tracking wall time. Over seven minutes of groundtruth-perm queries, the
    median query time of each 25 s window spread 20% (quartile distance over
    median) and the median of query time over probe time 4%.

    A pass spends about half its time on small listwise steps, where Python
    call overhead dominates, and half on a memory-bound pass over a
    longlist-sized array. Short-list queries tracked the first part best and
    longlist-mslr queries the second; with an even split, the sum of scaled
    query times over 7-query windows varied 4.2% (longlist-mslr) and 4.4%
    (groundtruth-perm, 15-query windows), against 6.2% and 3.3% with a pass
    that was nine tenths small steps.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.random((20, 46))
        self.B = rng.random((10, 46))
        self.w = rng.normal(size=46)
        self.big = rng.random((10, 200, 136))
        # Preallocated, so that the probe never sets the peak resident size.
        self.big_mask = np.empty(self.big.shape, dtype=bool)
        self.big_out = np.empty_like(self.big)
        self.iu, self.ju = np.triu_indices(20, 1)
        self.ref = np.sign(self.iu - self.ju).astype(float)

    def __call__(self, budget_s: float = 0.0) -> float:
        """Median time of one pass, repeating passes for about `budget_s`."""
        times = []
        start = perf_counter()
        while not times or perf_counter() - start < budget_s:
            times.append(self._once())
        return float(np.median(times))

    def _once(self) -> float:
        t0 = perf_counter()
        for i in range(75):
            t = np.ones(46, dtype=np.uint8)
            t[: i % 46] = 0
            masked = np.where(t == 0, self.X[None, :, :], self.B[:, None, :])
            scores = (masked.reshape(200, 46) * self.w).sum(axis=1).reshape(10, 20)
            perms = np.argsort(-scores, axis=1, kind="stable")
            ranks = np.argsort(perms, axis=1)
            np.sign(ranks[:, self.iu] - ranks[:, self.ju]) @ self.ref
            tuple(int(k) for k in perms[0])
        for _ in range(10):
            np.greater(self.big, 0.5, out=self.big_mask)
            np.multiply(self.big, self.big_mask, out=self.big_out).sum()
        return perf_counter() - t0


def scaled_median(times, probe_times) -> float:
    """Median of time / probe time, in seconds at the reference probe time."""
    return float(np.median(np.asarray(times) / np.asarray(probe_times))) * REFERENCE_PROBE_S


def scaled_rate(times, probe_times) -> float:
    """Items per second over all `times`, each scaled to the reference probe time."""
    scaled = np.asarray(times) / np.asarray(probe_times) * REFERENCE_PROBE_S
    return len(scaled) / float(scaled.sum())


def in_child(fn):
    """Return `fn()` as computed in a forked child process.

    What the child allocates stays out of this process's memory and out of
    its peak resident size. The result travels back pickled through a pipe;
    an exception in the child is raised here as a RuntimeError.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload, code = (True, fn()), 0
            except BaseException as exc:
                payload = (False, "".join(traceback.format_exception(exc)))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    ok, value = pickle.loads(data) if data else (False, f"child exited with status {status}")
    if not ok:
        raise RuntimeError(f"child process failed:\n{value}")
    return value


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    query_s: list[float] = field(default_factory=list)  # timed queries that passed
    probe_s: list[float] = field(default_factory=list)  # probe time beside each of them
    timed_queries: list[int] = field(default_factory=list)
    quality: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    digest: str = ""


def closed_loop(workload, seconds: float, *, probe, tracer=None,
                digest_queries: int = DIGEST_QUERIES, between=None) -> LoopResult:
    """Process queries 0, 1, 2, ... one after another until `seconds` of
    timed phase have passed and the digest queries are done.

    A query that raises, exits nonzero or fails its output check counts as
    failed and its time is left out; the loop goes on with the next query.
    `between(q)` runs after query q is checked, outside its timing.
    `probe(budget_s)` is timed just before and just after each query.
    """
    res = LoopResult()
    digest = hashlib.sha256()
    timed_from = None
    budget = 0.0
    q = 0
    while True:
        if q == WARMUP:
            timed_from = perf_counter()
        if (timed_from is not None and q >= digest_queries
                and perf_counter() - timed_from >= seconds):
            break
        res.attempted += 1
        if tracer is not None:
            tracer.query_id = q
        try:
            before = probe(budget)
            t0 = perf_counter()
            workload.run(q)
            dt = perf_counter() - t0
            after = probe(budget)
            budget = PROBE_SHARE * dt
            if tracer is not None:
                tracer.query_id = NO_QUERY
            quality = workload.check(q)
        except Exception as exc:  # the loop must go on and count the failure
            res.failed += 1
            res.errors.append(f"query {q}: {type(exc).__name__}: {exc}")
        else:
            if q >= WARMUP:
                res.query_s.append(dt)
                res.probe_s.append((before + after) / 2)
                res.timed_queries.append(q)
            for key, value in quality.items():
                res.quality.setdefault(key, []).append(value)
        finally:
            if tracer is not None:
                tracer.query_id = NO_QUERY
        if q < digest_queries:
            update_digest(digest, workload.out_dir(q))
        if between is not None:
            between(q)
        q += 1
    res.digest = digest.hexdigest()
    return res


def update_digest(digest, directory: Path) -> None:
    """Feed every file under `directory`, by relative path and content."""
    if not directory.exists():
        return
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory.parent)).encode() + b"\0")
        digest.update(path.read_bytes())


def env_stamp() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": {var: os.environ.get(var) for var in MALLOC_VARS},
    }
