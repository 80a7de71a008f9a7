"""Span tracing of rankshap from outside the program.

`Tracer.install` replaces the public functions of each rankshap layer, where
their callers look them up, with wrappers that record one span per call:
name, start, end, parent span and query id, plus one work count. The scorer
is wrapped by delegation. Spans stay in memory, in flat arrays, and are
written out once at the end; `layer_metrics` derives self times from them.

Bookkeeping that is not a plain timestamp (hashing coalitions, counting
distinct rankings) is timed and charged to the enclosing span as `hidden`
time, which self times exclude.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

from rankshap.rankers import Scorer

NO_QUERY = -1  # spans outside any query: set-up and output checks

GAME_SPANS = ("game.value", "game.mean_value")
MASK_SPANS = GAME_SPANS + ("pointwise.value",)
ESTIMATOR_SPANS = {
    "attribution.kernel": "attribution.kernel_s",
    "attribution.permutation": "attribution.permutation_s",
    "attribution.exact": "attribution.exact_s",
    "attribution.pointwise": "attribution.pointwise_s",
}
EVALUATION_SPANS = ("evaluation.benchmark", "evaluation.groundtruth", "evaluation.metrics")


def _coalitions(attr) -> float:
    """Coalitions an estimator evaluated, from the metadata it returns."""
    meta = getattr(attr, "meta", {})
    kind = meta.get("estimator")
    if kind == "kernel":
        return float(meta.get("coalitions_evaluated", 0))
    if kind == "exact":
        return float(meta.get("n_samples", 0))
    if kind == "permutation":
        return float(meta.get("n_samples", 0) * (len(attr.values) + 1))
    return 0.0


class TracedScorer(Scorer):
    """Delegates to a scorer and records a `rankers.score` span per batch."""

    def __init__(self, inner: Scorer, tracer: "Tracer"):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer

    def score(self, features):
        return self.inner.score(features)

    def score_batch(self, X):
        span = self._tracer.open("rankers.score", len(X))
        try:
            return self.inner.score_batch(X)
        finally:
            self._tracer.close(span)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # rows, bytes, lines or calls, by span kind
        self.distinct = array("d")  # distinct rankings, for objectives.reduce
        self.hidden = array("d")  # tracer bookkeeping inside the span
        self._stack: list[int] = []
        self.query_id = NO_QUERY
        self.coalition_keys: dict[int, set[int]] = {}
        self.reduce_pairs: dict[int, float] = {}
        self.unpatched: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, work: float = 0.0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.work.append(work)
        self.distinct.append(0.0)
        self.hidden.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _charge(self, since: float) -> None:
        if self._stack:
            self.hidden[self._stack[-1]] += perf_counter() - since

    def wrap_scorer(self, scorer: Scorer) -> TracedScorer:
        return TracedScorer(scorer, self)

    def _wrap(self, fn, name, work=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, work(*args, **kwargs) if work else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner_path: str, attr: str, make) -> None:
        module, _, cls = owner_path.partition(":")
        try:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.unpatched.append(f"{owner_path}.{attr}")
            return
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Patch every traced entry point; `uninstall` undoes it."""
        p, w = self._patch, self._wrap

        def count_lines(text, *a, **k):
            return float(text.count("\n") + 1) if isinstance(text, str) else 0.0

        for mod in ("rankshap.data", "rankshap.cli"):
            p(mod, "parse_letor", lambda f: w(f, "data.parse", count_lines))
        p("rankshap.cli", "load_scorer",
          lambda f: functools.wraps(f)(lambda *a, **k: self.wrap_scorer(f(*a, **k))))
        p("rankshap.cli", "main", lambda f: w(f, "cli.main"))

        for mod in ("rankshap.objectives", "rankshap.attribution"):
            p(mod, "coalition_to_template", lambda f: w(f, "masking.template"))
        p("rankshap.objectives", "rank_many", lambda f: w(f, "rankers.rank", lambda s: len(s)))

        def value_work(game, visible, b):
            t = perf_counter()
            key = hash((frozenset(visible), np.asarray(b).tobytes()))
            self.coalition_keys.setdefault(self.query_id, set()).add(key)
            self._charge(t)
            return float(game.m * game.n * 8)

        def mean_value_work(game, visible):
            t = perf_counter()
            self.coalition_keys.setdefault(self.query_id, set()).add(hash(frozenset(visible)))
            self._charge(t)
            return float(len(game.background) * game.m * game.n * 8)

        p("rankshap.objectives:ListwiseGame", "value",
          lambda f: w(f, "game.value", value_work))
        p("rankshap.objectives:ListwiseGame", "mean_value",
          lambda f: w(f, "game.mean_value", mean_value_work))
        p("rankshap.attribution:_PointwiseGame", "value",
          lambda f: w(f, "pointwise.value", lambda g, v, b: float(g.n * 8)))
        p("rankshap.attribution:_PointwiseGame", "mean_value",
          lambda f: w(f, "pointwise.value", lambda g, v: float(len(g.B) * g.n * 8)))

        def count_distinct(span, result, objective, perms):
            t = perf_counter()
            perms = np.asarray(perms)
            self.distinct[span] = len(set(map(bytes, np.ascontiguousarray(perms))))
            k, m = perms.shape
            # Rankings x document pairs: the size of the pairwise sign matrix.
            pairs = self.reduce_pairs.get(self.query_id, 0.0) + k * m * (m - 1) / 2
            self.reduce_pairs[self.query_id] = pairs
            self._charge(t)

        for cls in ("KendallTauObjective", "TopKTauObjective", "DocRankObjective"):
            p(f"rankshap.objectives:{cls}", "evaluate_many",
              lambda f: w(f, "objectives.reduce", lambda o, perms: len(perms), count_distinct))

        def coalitions(span, result, *a, **k):
            self.work[span] = _coalitions(result)

        for mod in ("rankshap.attribution", "rankshap.evaluation"):
            p(mod, "exact_shapley", lambda f: w(f, "attribution.exact", after=coalitions))
            p(mod, "permutation_shapley",
              lambda f: w(f, "attribution.permutation", after=coalitions))
        p("rankshap.attribution", "kernel_shap",
          lambda f: w(f, "attribution.kernel", after=coalitions))
        p("rankshap.evaluation", "pointwise_shap_explain",
          lambda f: w(f, "attribution.pointwise"))
        p("rankshap.attribution:Attribution", "save", lambda f: w(f, "attribution.save"))

        def greedy_evals(span, result, *a, **k):
            self.work[span] = float(result.evaluations)

        p("rankshap.evaluation", "greedy_attribution",
          lambda f: w(f, "baselines.greedy", after=greedy_evals))
        p("rankshap.cli", "estimate_ground_truth", lambda f: w(f, "evaluation.groundtruth"))
        p("rankshap.cli", "run_benchmark", lambda f: w(f, "evaluation.benchmark"))
        for fn in ("order_metric", "valdis_metric"):
            p("rankshap.evaluation", fn, lambda f: w(f, "evaluation.metrics"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "query": np.frombuffer(self.query, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "work": np.frombuffer(self.work),
            "distinct": np.frombuffer(self.distinct),
            "hidden": np.frombuffer(self.hidden),
        }

    def query_counts(self) -> dict[str, dict[int, float]]:
        """Per-query counts that are not span durations."""
        return {
            "unique_coalitions": {q: float(len(k)) for q, k in self.coalition_keys.items()},
            "reduce_pairs": dict(self.reduce_pairs),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(start, end, parent, hidden) -> np.ndarray:
    """Each span's duration minus its children's durations and its hidden time."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child - np.asarray(hidden)


def net_durations(start, end, parent, hidden) -> np.ndarray:
    """Each span's duration minus the hidden time of it and all its descendants."""
    parent = np.asarray(parent)
    subtree = np.array(hidden, dtype=float)
    depth = np.zeros(len(parent), dtype=int)
    up = parent.copy()
    while (up >= 0).any():
        depth += up >= 0
        up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)
    # Children sit one level below their parent, so summing the deepest
    # level first carries every hidden time up to all its ancestors.
    for level in range(depth.max(initial=0), 0, -1):
        at = depth == level
        np.add.at(subtree, parent[at], subtree[at])
    return np.asarray(end) - np.asarray(start) - subtree


PER_LAYER_UNITS = {
    "data.parse_s": "s/call",
    "data.lines": "lines/call",
    "masking.template_calls": "1/query",
    "masking.template_s": "s/query",
    "masking.mask_s": "s/query",
    "masking.mask_bytes": "B/query",
    "masking.mask_bytes_peak": "B",
    "rankers.score_calls": "1/query",
    "rankers.score_rows": "1/query",
    "rankers.score_s": "s/query",
    "rankers.rank_calls": "1/query",
    "rankers.rank_s": "s/query",
    "objectives.value_calls": "1/query",
    "objectives.value_s": "s/query",
    "objectives.value_us": "us/call",
    "objectives.unique_coalition_ratio": "ratio",
    "objectives.reduce_calls": "1/query",
    "objectives.reduce_perms": "1/query",
    "objectives.reduce_s": "s/query",
    "objectives.reduce_pairs": "1/query",
    "objectives.distinct_ranking_ratio": "ratio",
    "attribution.kernel_s": "s/query",
    "attribution.permutation_s": "s/query",
    "attribution.exact_s": "s/query",
    "attribution.pointwise_s": "s/query",
    "attribution.coalitions": "1/query",
    "attribution.self_s": "s/query",
    "attribution.save_s": "s/query",
    "attribution.files": "1/query",
    "baselines.greedy_s": "s/query",
    "baselines.greedy_evals": "1/query",
    "evaluation.groundtruth_s": "s/query",
    "evaluation.metrics_s": "s/query",
    "evaluation.self_s": "s/query",
    "cli.self_s": "s/query",
    "trace.bookkeeping_s": "s/query",
}

def layer_metrics(spans: dict[str, np.ndarray], queries, counts=None) -> dict[str, float]:
    """Per-layer metrics over the spans of `queries`, per query where the unit says so.

    `data.*` are per `parse_letor` call over the whole run, set-up included,
    because set-up is where the largest files are parsed.
    """
    names = [str(s) for s in spans["names"]]
    name_id, query = spans["name_id"], spans["query"]
    dur = net_durations(spans["start"], spans["end"], spans["parent"], spans["hidden"])
    own = self_times(spans["start"], spans["end"], spans["parent"], spans["hidden"])
    queries = sorted(set(queries))
    nq = max(len(queries), 1)
    in_q = np.isin(query, queries)

    def sel(*span_names, everywhere=False):
        ids = [names.index(n) for n in span_names if n in names]
        mask = np.isin(name_id, ids)
        return mask if everywhere else mask & in_q

    def per_q(x) -> float:
        return float(np.sum(x)) / nq

    parse = sel("data.parse", everywhere=True)
    game, mask, reduce_ = sel(*GAME_SPANS), sel(*MASK_SPANS), sel("objectives.reduce")
    score, rank_, tmpl = sel("rankers.score"), sel("rankers.rank"), sel("masking.template")
    m = {}
    m["data.parse_s"] = float(dur[parse].mean()) if parse.any() else 0.0
    m["data.lines"] = float(spans["work"][parse].mean()) if parse.any() else 0.0
    m["masking.template_calls"] = per_q(tmpl)
    m["masking.template_s"] = per_q(own[tmpl])
    m["masking.mask_s"] = per_q(own[mask])
    m["masking.mask_bytes"] = per_q(spans["work"][mask])
    m["masking.mask_bytes_peak"] = float(spans["work"][mask].max()) if mask.any() else 0.0
    m["rankers.score_calls"] = per_q(score)
    m["rankers.score_rows"] = per_q(spans["work"][score])
    m["rankers.score_s"] = per_q(own[score])
    m["rankers.rank_calls"] = per_q(rank_)
    m["rankers.rank_s"] = per_q(own[rank_])
    calls = int(game.sum())
    m["objectives.value_calls"] = calls / nq
    m["objectives.value_s"] = per_q(dur[game])
    m["objectives.value_us"] = float(dur[game].sum()) / calls * 1e6 if calls else 0.0
    counts = counts or {}

    def count(key) -> float:
        return sum(counts.get(key, {}).get(q, 0.0) for q in queries)

    unique = count("unique_coalitions")
    m["objectives.unique_coalition_ratio"] = unique / calls if calls else 0.0
    perms = spans["work"][reduce_]
    m["objectives.reduce_calls"] = per_q(reduce_)
    m["objectives.reduce_perms"] = per_q(perms)
    m["objectives.reduce_s"] = per_q(own[reduce_])
    m["objectives.reduce_pairs"] = count("reduce_pairs") / nq
    total = float(perms.sum())
    m["objectives.distinct_ranking_ratio"] = (
        float(spans["distinct"][reduce_].sum()) / total if total else 0.0
    )
    est = sel(*ESTIMATOR_SPANS)
    for span_name, metric in ESTIMATOR_SPANS.items():
        m[metric] = per_q(dur[sel(span_name)])
    m["attribution.coalitions"] = per_q(spans["work"][est])
    m["attribution.self_s"] = per_q(own[est])
    save = sel("attribution.save")
    m["attribution.save_s"] = per_q(dur[save])
    m["attribution.files"] = 2 * per_q(save)  # the CSV and its JSON sidecar
    greedy = sel("baselines.greedy")
    m["baselines.greedy_s"] = per_q(dur[greedy])
    m["baselines.greedy_evals"] = per_q(spans["work"][greedy])
    m["evaluation.groundtruth_s"] = per_q(dur[sel("evaluation.groundtruth")])
    m["evaluation.metrics_s"] = per_q(dur[sel("evaluation.metrics")])
    m["evaluation.self_s"] = per_q(own[sel(*EVALUATION_SPANS)])
    m["cli.self_s"] = per_q(own[sel("cli.main")])
    m["trace.bookkeeping_s"] = per_q(spans["hidden"][in_q])
    return m

