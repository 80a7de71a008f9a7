"""Scalar reference implementations of LETOR parsing, listwise masking, the
objectives, the kernel SHAP coalition draw, greedy selection, the
talent-search model and the pointwise baseline.

The package computes the listwise game only in batches (`ListwiseGame.values`
and the objective classes' `evaluate_many`), background means over the
distinct background rows only, the kernel design as boolean rows merged by
`masking.first_rows` (`attribution._kernel_design`), permutation sampling a
chunk of prefixes per `values` call and one accumulation per chunk
(`attribution.permutation_shapley`), greedy selection one batch of
candidates per step (`baselines.greedy_select`), the talent model only in
`TalentScorer.score_batch`, and the pointwise baseline as one game on the
mean score of the top documents (`attribution.pointwise_shap_explain`).
These one-list, one-permutation, one-mask, one-row, one-coalition, one-draw,
one-prefix, one-candidate, one-document forms are kept here as independent
oracles for the tests. `stability_curve` builds its games once, before its
size loop; the form here builds one game per run and size. `parse_letor`
turns each line into a float vector as soon as it is parsed; the form here
keeps every line's `{key: value}` dict until the last line is read.
"""

from __future__ import annotations

import io
from typing import Iterable

import numpy as np

from rankshap import (
    FULL,
    DimensionError,
    Document,
    GreedyResult,
    QueryGroup,
    TalentCandidate,
    University,
    UniversityScheme,
    rank,
)
from rankshap.attribution import (
    Attribution,
    _run_estimator,
    estimator_meta,
    kernel_weight,
    permutation_shapley,
)
from rankshap.data import _parse_line, background_array
from rankshap.evaluation import StabilityRow, _spawn_seeds
from rankshap.objectives import CoalitionGame, ListwiseGame, reference_ranking
from rankshap.talent import SCHEMES, UNIVERSITY_CODES


def parse_letor_dicts(text: str | Iterable[str]) -> list[Document]:
    """`parse_letor` through one `{key: value}` dict per line, all held until
    the last line is read, then densified at the widest key. A `str` is read
    as a text-mode file reads it."""
    lines = list(io.StringIO(text, newline=None)) if isinstance(text, str) else list(text)
    rows = []
    for line_no, line in enumerate(lines, start=1):
        if not line.split("#", 1)[0].strip():
            continue
        rows.append(_parse_line(line, line_no))
    n = max((max(feats, default=0) for _, _, feats in rows), default=0)
    docs: list[Document] = []
    counters: dict[str, int] = {}
    for relevance, qid, feats in rows:
        vec = np.zeros(n)
        for key, val in feats.items():
            vec[key - 1] = val
        idx = counters.get(qid, 0)
        counters[qid] = idx + 1
        docs.append(Document(query_id=qid, doc_index=idx, features=vec, relevance=relevance))
    return docs


def apply_mask(x: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Keep x where t is 0, take b where t is 1."""
    x, t, b = np.asarray(x, dtype=float), np.asarray(t), np.asarray(b, dtype=float)
    if not (x.shape == t.shape == b.shape):
        raise DimensionError(
            f"shape mismatch: x{x.shape}, t{t.shape}, b{b.shape}"
        )
    return np.where(t == 0, x, b)


def masked_matrix(X: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`apply_mask` applied row-wise to a (m, n) feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(t) or X.shape[1] != len(b):
        raise DimensionError(f"shape mismatch: X{X.shape}, t({len(t)},), b({len(b)},)")
    return np.where(np.asarray(t) == 0, X, np.asarray(b, dtype=float))


def masked_group(group: QueryGroup, t: np.ndarray, b: np.ndarray) -> QueryGroup:
    """Apply the same (t, b) mask to every document of the group."""
    docs = tuple(
        Document(
            query_id=d.query_id,
            doc_index=d.doc_index,
            features=apply_mask(d.features, t, b),
            relevance=d.relevance,
        )
        for d in group.documents
    )
    return QueryGroup(query_id=group.query_id, documents=docs, n=group.n)


def _check_perm_pair(pi_ref, pi) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(pi_ref, dtype=int), np.asarray(pi, dtype=int)
    if a.shape != b.shape:
        raise DimensionError(f"permutation lengths differ: {a.shape} vs {b.shape}")
    return a, b


def _ranks_of(perm: np.ndarray) -> np.ndarray:
    """Position of each doc in the permutation (inverse permutation)."""
    return np.argsort(perm)


def kendall_tau(pi_ref, pi) -> float:
    """Kendall's tau-a over all document pairs (permutations are tie-free)."""
    a, b = _check_perm_pair(pi_ref, pi)
    m = len(a)
    if m < 2:
        raise ValueError("kendall_tau needs at least 2 documents")
    ra, rb = _ranks_of(a), _ranks_of(b)
    iu, ju = np.triu_indices(m, k=1)
    s = np.sign(ra[iu] - ra[ju]) * np.sign(rb[iu] - rb[ju])
    return float(s.sum() / len(s))


def subset_tau(pi_ref, pi, docs: Iterable[int]) -> float:
    """Tau restricted to pairs with at least one member in `docs`."""
    a, b = _check_perm_pair(pi_ref, pi)
    m = len(a)
    if m < 2:
        raise ValueError("subset_tau needs at least 2 documents")
    members = np.zeros(m, dtype=bool)
    idx = np.fromiter(docs, dtype=int)
    if idx.size == 0:
        raise ValueError("document subset must be non-empty")
    if idx.min() < 0 or idx.max() >= m:
        raise ValueError(f"document index out of range for m={m}")
    members[idx] = True
    ra, rb = _ranks_of(a), _ranks_of(b)
    iu, ju = np.triu_indices(m, k=1)
    keep = members[iu] | members[ju]
    s = np.sign(ra[iu[keep]] - ra[ju[keep]]) * np.sign(rb[iu[keep]] - rb[ju[keep]])
    return float(s.sum() / len(s))


def topk_tau(pi_ref, pi, k: int) -> float:
    """Tau over pairs touching the top-k documents of the reference ranking."""
    a, _ = _check_perm_pair(pi_ref, pi)
    if not 1 <= k <= len(a):
        raise ValueError(f"k must be in [1, {len(a)}], got {k}")
    return subset_tau(pi_ref, pi, a[:k])


def doc_rank_distance(pi_ref, pi, j: int) -> float:
    """1 - |rank shift of doc j| / (m-1); 1 means position preserved."""
    a, b = _check_perm_pair(pi_ref, pi)
    m = len(a)
    if m < 2:
        raise ValueError("doc_rank_distance needs at least 2 documents")
    if not 0 <= j < m:
        raise ValueError(f"doc index {j} out of range for m={m}")
    return 1.0 - abs(int(_ranks_of(b)[j]) - int(_ranks_of(a)[j])) / (m - 1)


def value_function(group, scorer, objective, t: np.ndarray, b: np.ndarray) -> float:
    """Similarity of the masked group's ranking to the reference ranking."""
    perturbed = masked_matrix(group.feature_matrix(), t, b)
    return objective.evaluate(rank(scorer.score_batch(perturbed)))


def _template(visible, n: int) -> np.ndarray:
    t = np.ones(n, dtype=np.uint8)
    t[list(visible)] = 0
    return t


def listwise_mean(group, scorer, objective, visible, B: np.ndarray) -> float:
    """Background mean of one coalition's listwise value: each row of B, in
    order and repeats included, masks the group on its own, then `.mean()`."""
    t = _template(visible, group.n)
    return float(np.array([value_function(group, scorer, objective, t, b) for b in B]).mean())


def pointwise_mean(scorer, X: np.ndarray, visible, B: np.ndarray) -> float:
    """Background mean of the mean masked score of documents, the (t, n) rows
    X or one row x: each row of B in order masks each document, scored as a
    one-row batch, and the t scores are added one at a time from -0.0, then
    divided by t."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = _template(visible, X.shape[1])

    def mean_score(b):
        total = -0.0
        for x in X:
            total += scorer.score_batch(apply_mask(x, t, b)[None, :])[0]
        return total / len(X)

    return float(np.array([mean_score(b) for b in B]).mean())


class DocumentGame(CoalitionGame):
    """Coalition game on one document's model score."""

    def __init__(self, x: np.ndarray, scorer, B: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        super().__init__(len(self.x), B, scorer, self.x[None, :])

    def _reduce(self, scores: np.ndarray) -> np.ndarray:
        return scores[:, 0]


def pointwise_per_document(group, scorer, background, cfg, top_docs: int = 5) -> Attribution:
    """`pointwise_shap_explain` with one `DocumentGame` per top document: each
    one's attribution by `_run_estimator`, summed from 0.0 in rank order and
    divided by the count of documents."""
    if top_docs < 1:
        raise ValueError(f"top_docs must be at least 1, got {top_docs}")
    B = background_array(background)
    order = reference_ranking(group, scorer)
    take = min(top_docs, len(group))
    values = np.zeros(group.n)
    base = 0.0
    for doc in order[:take]:
        game = DocumentGame(group.documents[int(doc)].features, scorer, B)
        attr = _run_estimator(game, background, cfg)
        values += attr.values
        base += attr.base_value
    # Every document runs the same design, so the last one's counts hold for all.
    meta = estimator_meta(
        f"pointwise-{cfg.kind}", attr.meta["n_samples"], len(B), cfg.seed,
        top_docs=take, query_id=group.query_id,
    )
    if "coalitions_evaluated" in attr.meta:
        meta["coalitions_evaluated"] = attr.meta["coalitions_evaluated"]
    return Attribution(values=values / take, base_value=base / take, meta=meta)


def permutation_walk(value_fn, n: int, B: np.ndarray, n_samples: int,
                     seed: int) -> tuple[np.ndarray, float]:
    """Permutation sampling one sample and one prefix at a time: draw sigma,
    then the background row, walk the n+1 prefixes through `value_fn` and add
    each difference into contrib[sigma]. The mean contributions and the mean
    value of the empty prefix."""
    rng = np.random.default_rng(seed)
    contrib = np.zeros(n)
    base_sum = 0.0
    for _ in range(n_samples):
        sigma = rng.permutation(n)
        b = B[rng.integers(len(B))]
        v = [value_fn(tuple(sigma[:j].tolist()), b) for j in range(n + 1)]
        base_sum += v[0]
        contrib[sigma] += np.diff(v)
    return contrib / n_samples, base_sum / n_samples


def kernel_design(n: int, n_samples: int, seed: int) -> tuple[list[int], list[float], int]:
    """Kernel SHAP coalitions as Python-int masks (bit i is feature i), n >= 2:
    the masks in first-seen order, their weights, and the coalitions evaluated
    including the empty and full ones."""
    counts: dict[int, float] = {}
    if n_samples >= (1 << n):
        for mask in range(1, (1 << n) - 1):
            counts[mask] = kernel_weight(n, mask.bit_count())
        return list(counts), list(counts.values()), 1 << n
    rng = np.random.default_rng(seed)
    sizes = np.arange(1, n)
    p = (n - 1) / (sizes * (n - sizes))
    p /= p.sum()
    budget = n_samples - 2
    drawn = 0
    full_mask = (1 << n) - 1
    while drawn < budget:
        s = int(rng.choice(sizes, p=p))
        members = rng.choice(n, size=s, replace=False)
        mask = 0
        for i in members:
            mask |= 1 << int(i)
        counts[mask] = counts.get(mask, 0.0) + 1.0
        drawn += 1
        if drawn < budget:
            comp = full_mask ^ mask
            counts[comp] = counts.get(comp, 0.0) + 1.0
            drawn += 1
    return list(counts), list(counts.values()), 2 + len(counts)


def sampled_kernel_design(n: int, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Sampled kernel SHAP coalitions, n >= 2 and n_samples < 2^n, merged one
    draw at a time in a dict keyed by the row's bytes: the `(c, n)` boolean
    rows in first-seen order, their float weights, and the coalitions
    evaluated including the empty and full ones."""
    rng = np.random.default_rng(seed)
    sizes = np.arange(1, n)
    p = (n - 1) / (sizes * (n - sizes))
    p /= p.sum()
    budget = n_samples - 2
    counts: dict[bytes, float] = {}
    drawn = 0
    while drawn < budget:
        s = int(rng.choice(sizes, p=p))
        row = np.zeros(n, dtype=bool)
        row[rng.choice(n, size=s, replace=False)] = True
        key = row.tobytes()
        counts[key] = counts.get(key, 0.0) + 1.0
        drawn += 1
        if drawn < budget:
            comp = (~row).tobytes()
            counts[comp] = counts.get(comp, 0.0) + 1.0
            drawn += 1
    rows = np.frombuffer(b"".join(counts), dtype=bool).reshape(len(counts), n)
    return rows, np.array(list(counts.values())), 2 + len(counts)


def greedy_select(
    vtilde,
    n: int,
    k,
    *,
    stop_on_negative: bool = False,
) -> GreedyResult:
    """Greedy selection one coalition at a time: `vtilde` takes a sorted tuple
    of visible features, each distinct coalition is evaluated once, and
    `evaluations` counts the distinct coalitions."""
    if k == FULL:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] or FULL, got {k}")
    cache: dict[tuple[int, ...], float] = {}
    calls = 0

    def v(sel: tuple[int, ...]) -> float:
        nonlocal calls
        if sel not in cache:
            cache[sel] = vtilde(sel)
            calls += 1
        return cache[sel]

    selected: list[int] = []
    iter_attr = np.zeros(n)
    current = v(())
    while len(selected) < k:
        best_gain, best_feat = None, None
        for i in range(n):
            if i in selected:
                continue
            gain = v(tuple(sorted(selected + [i]))) - current
            if best_gain is None or gain > best_gain:
                best_gain, best_feat = gain, i
        if stop_on_negative and best_gain < 0:
            break
        selected.append(best_feat)
        iter_attr[best_feat] = best_gain
        current = v(tuple(sorted(selected)))

    marg_attr = np.zeros(n)
    final = tuple(sorted(selected))
    v_final = v(final)
    for i in selected:
        marg_attr[i] = v_final - v(tuple(j for j in final if j != i))
    return GreedyResult(
        selection_order=selected,
        attributions_iter=iter_attr,
        attributions_marg=marg_attr,
        evaluations=calls,
    )


def norm_grade(grade: float, scheme: UniversityScheme) -> float:
    """Map worst passing grade to 0 and best grade to 1, linearly."""
    if not scheme.contains(grade):
        raise ValueError(f"grade {grade} outside scheme interval")
    return (grade - scheme.worst_passing_grade) / (scheme.best_grade - scheme.worst_passing_grade)


def talent_score(candidate: TalentCandidate, variant: str = "biased") -> float:
    """Score a candidate with the biased or unbiased talent-search model."""
    score = (
        norm_grade(candidate.grade, SCHEMES[candidate.university])
        + candidate.skills
        + candidate.experience
    )
    if variant == "biased":
        if candidate.university is University.NEG_BIAS:
            score *= 0.7
        if not (candidate.meets_requirements or candidate.university is University.NEPOTISM):
            score *= 0.1
    elif variant == "unbiased":
        if not candidate.meets_requirements:
            score *= 0.1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return score


def decode_candidate(features: np.ndarray) -> TalentCandidate:
    """Inverse of `talent_features`; raises on unknown university codes."""
    features = np.asarray(features, dtype=float)
    code = int(round(features[3]))
    universities = {c: u for u, c in UNIVERSITY_CODES.items()}
    if code not in universities:
        raise ValueError(f"unknown university code {features[3]!r}")
    return TalentCandidate(
        experience=float(features[0]),
        skills=float(features[1]),
        grade=float(features[2]),
        university=universities[code],
        meets_requirements=features[4] >= 0.5,
    )


def stability_curve(group, scorer, objective, pool: np.ndarray, sample_sizes, runs: int,
                    mode: str, size: int, seed: int) -> list[StabilityRow]:
    """`evaluation.stability_curve` past its argument checks, for a query of
    two or more documents and a (p, n) `pool`: one fresh game per run and size,
    with the independent backgrounds redrawn at every size."""
    rows = []
    for n_samples in sample_sizes:
        run_values = []
        bg_seeds = _spawn_seeds(seed ^ 0x5AB1E, runs)
        for run_idx, run_seed in enumerate(_spawn_seeds(seed + n_samples, runs)):
            if mode == "independent_background":
                rng = np.random.default_rng(bg_seeds[run_idx])
                idx = rng.choice(len(pool), size=size, replace=size > len(pool))
                background = pool[idx]
            else:
                background = pool[:size]
            game = ListwiseGame(group, scorer, objective, background)
            attr = permutation_shapley(game.value, game.n, background, n_samples, run_seed)
            run_values.append(attr.values)
        stacked = np.stack(run_values)
        std = stacked.std(axis=0, ddof=1)
        top5 = np.argsort(-np.abs(stacked.mean(axis=0)), kind="stable")[:5]
        rows.append(
            StabilityRow(
                n_samples=n_samples,
                mean_std_all=float(std.mean()),
                mean_std_top5=float(std[top5].mean()),
            )
        )
    return rows
