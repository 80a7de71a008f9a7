"""The batched game path gives bitwise the same results as the scalar path.

Every estimator plays the `CoalitionGame` that `attribution._as_game` makes
of its arguments: the game itself when `value_fn` is its bound `value` on its
own background, else a game that masks through the bound game's `_values`
or lifts any other value function one coalition at a time, and whose means
body calls a given `mean_value_fn` once per coalition. `values` evaluates
many coalitions per scorer call through the one masking body that the
listwise and the pointwise game share, cut into chunks of whole background
batches within MASK_BUDGET_BYTES. The exact and permutation estimators fed by `game.value`
must match, bit for bit, the same estimators fed by a wrapper of
`game.value` or by `game.mean_value`, for every chunking; so must the kernel
estimator fed by `game.value`, and the pointwise kernel, which evaluates its
coalitions through `_PointwiseGame.values`. Greedy selection, which
evaluates each step's candidates in one `ListwiseGame.means` call, must walk
as the one-coalition oracle does. Background means evaluate each distinct
background row once; with repeated rows they must match a mean that
evaluates every row, for the listwise and the pointwise game, whether
`means`, `mean_value` or `table()` asked for them. A game's
coalition table, once filled, serves every later exact estimate on that game.
`run_benchmark` shares one game per query, whose coalition table the exact
ground truth fills and the kernel and greedy read: its records must match a
run that gives each method a fresh game, and the exact estimator reads a
table only for the game's own background.
"""

import functools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import InteractionScorer, make_group
from rankshap import (
    FULL,
    BackgroundSet,
    EstimatorConfig,
    KendallTauObjective,
    LinearScorer,
    TalentScorer,
    build_scenarios,
    greedy_attribution,
    pointwise_shap_explain,
    rankingshap_explain,
    reference_ranking,
    sample_background,
    sample_talent_background,
)
from rankshap import attribution, evaluation, masking
from rankshap.attribution import _PointwiseGame, exact_shapley, kernel_shap, permutation_shapley
from rankshap.errors import CapacityError, EstimationError
from rankshap.objectives import ListwiseGame


def make_scorer(rng, n, interaction):
    if interaction:
        return InteractionScorer(rng.normal(size=n), rng.normal(size=(n, n)) * 0.4)
    w = rng.normal(size=n)
    w[rng.random(n) < 0.3] = 0.0
    return LinearScorer(w)


def make_instance(n, m, bsize, seed, interaction):
    rng = np.random.default_rng(seed)
    group = make_group(rng.normal(size=(m, n)))
    scorer = make_scorer(rng, n, interaction)
    background = BackgroundSet(rng.normal(size=(bsize, n)), seed=seed)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    return group, scorer, objective, background


def make_game(n, m, bsize, seed, interaction):
    group, scorer, objective, background = make_instance(n, m, bsize, seed, interaction)
    return ListwiseGame(group, scorer, objective, background), background


def assert_same(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert a.base_value == b.base_value


shapes = dict(
    n=st.integers(1, 7),
    m=st.integers(2, 6),
    bsize=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    interaction=st.booleans(),
    budget=st.sampled_from([1, 200, 3000, masking.MASK_BUDGET_BYTES]),
)


@settings(max_examples=60, deadline=None)
@given(n_samples=st.integers(1, 40), **shapes)
# A budget below one permutation's n+1 prefixes, with a sample count that is
# not a multiple of the sample chunk (3 samples of 7 prefixes of 6 bytes at n=6).
@example(n_samples=7, n=6, m=4, bsize=3, seed=5, interaction=True, budget=150)
@example(n_samples=7, n=6, m=4, bsize=3, seed=5, interaction=False, budget=1)
def test_permutation_batched_matches_scalar(n_samples, n, m, bsize, seed, interaction, budget):
    game, background = make_game(n, m, bsize, seed, interaction)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        batched = permutation_shapley(game.value, n, background, n_samples, seed)
        scalar = permutation_shapley(lambda S, b: game.value(S, b), n, background, n_samples, seed)
    values, base = oracles.permutation_walk(game.value, n, background.vectors, n_samples, seed)
    for attr in (batched, scalar):
        assert attr.values.tobytes() == values.tobytes()
        assert attr.base_value == base


@pytest.mark.parametrize("budget", [1, None, 64 << 20], ids=["one-sample", "default", "64MiB"])
def test_permutation_bytes_do_not_depend_on_the_chunk(budget):
    # groundtruth-perm's shape: 46 features, 23 of them read, 20 documents and
    # 10 background rows. By default a chunk holds the 24 prefixes of 78
    # samples and their bookkeeping, so 500 samples are six full chunks and
    # part of one; its steps are added in the order drawn whatever the chunk,
    # one sample or all of them.
    rng = np.random.default_rng(4)
    n, m, n_samples = 46, 20, 500
    w = rng.normal(size=n)
    w[rng.permutation(n)[:n // 2]] = 0.0
    group, scorer, B = make_group(rng.random((m, n))), LinearScorer(w), rng.random((10, n))
    game = ListwiseGame(group, scorer, KendallTauObjective(reference_ranking(group, scorer)), B)
    expected = permutation_shapley(game.value, n, B, n_samples, 3)
    budget = masking.MASK_BUDGET_BYTES if budget is None else budget
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        ListwiseGame, "values", autospec=True, side_effect=ListwiseGame.values
    ) as values:
        attr = permutation_shapley(game.value, n, B, n_samples, 3)
    assert_same(attr, expected)
    chunk = {1: 1, 64 << 20: n_samples}.get(budget, 78)
    assert values.call_count == math.ceil(n_samples / chunk)
    assert len(values.call_args_list[0].args[1]) == chunk * 24  # prefixes


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_exact_batched_matches_scalar(n, m, bsize, seed, interaction, budget):
    game, background = make_game(n, m, bsize, seed, interaction)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        batched = exact_shapley(game.value, n, background)
    scalar = exact_shapley(game.value, n, background, mean_value_fn=game.mean_value)
    assert_same(batched, scalar)
    assert_same(exact_shapley(lambda S, b: game.value(S, b), n, background), scalar)


@settings(max_examples=40, deadline=None)
@given(n_samples=st.integers(2, 150), **shapes)
def test_kernel_value_fn_matches_mean_value_fn(n_samples, n, m, bsize, seed, interaction, budget):
    game, background = make_game(n, m, bsize, seed, interaction)
    try:
        expected = kernel_shap(
            game.value, n, background, n_samples, seed, mean_value_fn=game.mean_value
        )
    except EstimationError:
        expected = None
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        if expected is None:
            with pytest.raises(EstimationError):
                kernel_shap(game.value, n, background, n_samples, seed)
        else:
            assert_same(kernel_shap(game.value, n, background, n_samples, seed), expected)


def test_kernel_value_fn_is_tiled_in_budget_chunks():
    # Without mean_value_fn the kernel tiles its coalitions over the
    # background; each tiled batch stays within the mask budget. The scorer
    # reads every feature, so that no two coalitions share a pattern.
    game, background = make_game(6, 3, 4, 2, interaction=True)
    budget = 3 * len(background.vectors) * game.n * 8  # three coalitions
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        ListwiseGame, "_values", autospec=True, side_effect=ListwiseGame._values
    ) as values:
        attr = kernel_shap(game.value, game.n, background, 40, 0)
    rows_per_call = [len(call.args[2]) for call in values.call_args_list]
    assert max(rows_per_call) == 3 * len(background.vectors)
    assert sum(rows_per_call) == attr.meta["coalitions_evaluated"] * len(background.vectors)


class RoutedGame:
    """A game with `values`, which only its bound `value` may be routed to."""

    def value(self, visible, b):
        return float(len(visible))

    def values(self, visible, rows):
        raise AssertionError("a method other than value was routed to values")

    def doubled(self, visible, b):
        return 2.0 * len(visible)


@pytest.mark.parametrize("kind", ["exact", "permutation", "kernel"])
def test_estimators_take_the_batched_route_of_the_game_value_is_bound_to(kind):
    game, background = make_game(5, 4, 3, 0, interaction=False)
    estimate = {
        "exact": lambda fn, **kw: exact_shapley(fn, 5, background, **kw),
        "permutation": lambda fn: permutation_shapley(fn, 5, background, 40, 0),
        "kernel": lambda fn, **kw: kernel_shap(fn, 5, background, 20, 0, **kw),
    }[kind]

    def scorer_calls(*args, on=game, **kwargs):
        with mock.patch.object(on.scorer, "score_batch", wraps=on.scorer.score_batch) as s:
            attr = estimate(*args, **kwargs)
        return attr, s.call_count

    bound, bound_calls = scorer_calls(game.value)
    lifted, lifted_calls = scorer_calls(lambda S, b: game.value(S, b))
    assert_same(bound, lifted)
    # Lifted, each (coalition, background row) pair is one scorer call: the
    # exact and kernel coalitions over the 3 rows, the 6 prefixes per sample.
    coalitions = 32 if kind == "exact" else lifted.meta.get("coalitions_evaluated")
    assert lifted_calls == (40 * 6 if kind == "permutation" else coalitions * 3)
    # Bound, all fit one chunk; the kernel evaluates the empty and full
    # coalitions before its design.
    assert bound_calls == (2 if kind == "kernel" else 1)

    if kind == "exact":
        # The game now holds its coalition table, and a rerun reads it.
        again, again_calls = scorer_calls(game.value)
        assert again_calls == 0
        assert_same(again, bound)

    # A class-level wrapper of `value`, as a tracer installs, keeps the route.
    original = ListwiseGame.value

    @functools.wraps(original)
    def traced(self, visible, b):
        return original(self, visible, b)

    fresh, _ = make_game(5, 4, 3, 0, interaction=False)
    with mock.patch.object(ListwiseGame, "value", traced):
        assert scorer_calls(fresh.value, on=fresh)[1] == bound_calls

    # Any other bound method of a game that has `values` is lifted.
    additive = estimate(RoutedGame().doubled)
    np.testing.assert_allclose(additive.values, 2.0)

    if kind != "permutation":
        # A given mean_value_fn takes one call per coalition, bound value or not.
        calls = []

        def mean_value(visible):
            calls.append(visible)
            return game.mean_value(visible)

        assert_same(estimate(game.value, mean_value_fn=mean_value), bound)
        assert len(calls) == coalitions


def test_pointwise_exact_rerun_reads_the_games_table():
    group, scorer, background = make_pointwise_instance(6, 4, 5, 0, talent=False)
    game = _PointwiseGame(group.feature_matrix()[:3], scorer, background.vectors)
    first = exact_shapley(game.value, game.n, background)
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        again = exact_shapley(game.value, game.n, background)
        mean = game.mean_value((0, 3))
    assert score.call_count == 0
    assert_same(again, first)
    assert mean == oracles.pointwise_mean(scorer, game.X, (0, 3), background.vectors)


def test_mean_value_is_one_scorer_call_over_budget():
    # One background batch is never split, even when it exceeds the budget.
    game, _ = make_game(5, 4, 6, 0, interaction=False)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", 1), mock.patch.object(
        game.scorer, "score_batch", wraps=game.scorer.score_batch
    ) as score:
        game.mean_value((0, 2))
    assert score.call_count == 1
    assert score.call_args.args[0].shape == (6 * 4, 5)


@settings(max_examples=40, deadline=None)
@given(positive=st.booleans(), repeats=st.booleans(), **shapes)
@example(positive=True, repeats=True, n=5, m=3, bsize=4, seed=0, interaction=False, budget=200)
def test_means_mean_value_and_table_match_the_oracles(positive, repeats, n, m, bsize, seed,
                                                        interaction, budget):
    # `means`, `mean_value` and `table()` share one body; each must give the
    # oracles' bytes for every coalition, before and after the table is
    # filled. The linear scorer reads some features, so its games are keyed;
    # nonnegative rows key the pointwise game too. The interaction scorer
    # reads every feature.
    rng = np.random.default_rng(seed)
    X, B = rng.normal(size=(m, n)), rng.normal(size=(bsize, n))
    if positive:
        X, B = np.abs(X), np.abs(B)
    if repeats:
        B = B[rng.integers(bsize, size=bsize + 3)]
    group, scorer = make_group(X), make_scorer(rng, n, interaction)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    coalitions = [tuple(np.flatnonzero(mask >> np.arange(n) & 1).tolist())
                  for mask in range(1 << n)]
    visible = np.array([[i in c for i in range(n)] for c in coalitions], dtype=bool)
    games = [
        (ListwiseGame(group, scorer, objective, B),
         lambda c: oracles.listwise_mean(group, scorer, objective, c, B)),
        (_PointwiseGame(X[0], scorer, B), lambda c: oracles.pointwise_mean(scorer, X[0], c, B)),
    ]
    for game, oracle in games:
        expected = np.array([oracle(c) for c in coalitions]).tobytes()
        with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
            for _ in ("before the table", "after it"):
                assert game.means(visible).tobytes() == expected
                assert np.array([game.mean_value(c) for c in coalitions]).tobytes() == expected
                assert game.table().tobytes() == expected


@pytest.mark.parametrize("pointwise", [False, True], ids=["listwise", "pointwise"])
def test_values_chunks_whole_background_batches(pointwise):
    # A scorer that reads every feature, so that no pair shares its key.
    game, background = make_game(4, 3, 2, 1, interaction=True)
    m = game.m
    if pointwise:
        game, m = _PointwiseGame(game.X[0], game.scorer, background.vectors), 1
    k = 7 * len(background.vectors)
    rng = np.random.default_rng(0)
    visible = rng.random((k, 4)) < 0.5
    index = np.tile(np.arange(len(background.vectors)), 7)
    whole = game.values(visible, index)
    # Room for exactly 2 background batches (4 coalitions) per chunk.
    budget = 4 * m * game.n * 8
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        game.scorer, "score_batch", wraps=game.scorer.score_batch
    ) as score:
        chunked = game.values(visible, index)
    assert [c.args[0].shape[0] for c in score.call_args_list] == [4 * m, 4 * m, 4 * m, 2 * m]
    assert chunked.tobytes() == whole.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), stop_on_negative=st.booleans(), **shapes)
@example(data=None, stop_on_negative=False, n=6, m=5, bsize=4, seed=3, interaction=False,
         budget=masking.MASK_BUDGET_BYTES)
def test_greedy_batched_matches_scalar_walk(
    data, stop_on_negative, n, m, bsize, seed, interaction, budget
):
    group, scorer, objective, background = make_instance(n, m, bsize, seed, interaction)
    k = FULL if data is None else data.draw(st.sampled_from([FULL, *range(1, n + 1)]))
    game = ListwiseGame(group, scorer, objective, background)
    expected = oracles.greedy_select(game.mean_value, n, k, stop_on_negative=stop_on_negative)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        ListwiseGame, "_values", autospec=True, side_effect=ListwiseGame._values
    ) as values:
        result = greedy_attribution(
            ListwiseGame(group, scorer, objective, background), k,
            stop_on_negative=stop_on_negative,
        )
    selected = result.selection_order
    assert selected == expected.selection_order
    assert result.attributions_iter.tobytes() == expected.attributions_iter.tobytes()
    assert result.attributions_marg.tobytes() == expected.attributions_marg.tobytes()
    # A step that stops on a negative gain still evaluated its candidates.
    steps = len(selected) + (len(selected) < (n if k == FULL else k))
    assert result.evaluations == 1 + sum(n - t for t in range(steps)) + len(selected)
    # The oracle evaluates each coalition once; up to two leave-one-out
    # coalitions of the marginal batch were already candidates of a step.
    assert result.evaluations == expected.evaluations + min(len(selected), 2)
    if budget == masking.MASK_BUDGET_BYTES:
        # The empty coalition, one call per step, and the marginal batch.
        assert values.call_count == 1 + steps + (len(selected) > 0)


def make_pointwise_instance(n, m, bsize, seed, talent):
    """A query, a row-independent scorer and a background for the pointwise game;
    a talent instance is a synthetic scenario, whatever n and m."""
    if talent:
        scenarios = build_scenarios()
        group = scenarios[seed % len(scenarios)].group()
        scorer = TalentScorer(("biased", "unbiased")[seed % 2])
        return group, scorer, sample_talent_background(bsize, seed)
    rng = np.random.default_rng(seed)
    group = make_group(rng.normal(size=(m, n)))
    w = rng.normal(size=n)
    w[rng.random(n) < 0.3] = 0.0
    return group, LinearScorer(w), BackgroundSet(rng.normal(size=(bsize, n)), seed=seed)


def pointwise_by_mean_value(group, scorer, background, cfg, top_docs):
    """`pointwise_shap_explain`'s values with one `mean_value` call per
    coalition of the top documents' mean-score game."""
    top = reference_ranking(group, scorer)[:top_docs]
    game = _PointwiseGame(group.feature_matrix()[top], scorer, background.vectors)
    return kernel_shap(
        game.value, game.n, background, cfg.n_samples, cfg.seed,
        mean_value_fn=game.mean_value,
    ).values + 0.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 7),
    bsize=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    talent=st.booleans(),
    # Talent width n = 5 enumerates all 32 coalitions from 32 samples on.
    n_samples=st.sampled_from([2, 9, 24, 31, 32, 150, 300]),
    budget=st.sampled_from([1, 200, 3000, masking.MASK_BUDGET_BYTES]),
)
@example(n=5, m=4, bsize=6, seed=1, talent=True, n_samples=32, budget=1)
@example(n=8, m=5, bsize=6, seed=3, talent=False, n_samples=150, budget=1)
def test_pointwise_kernel_values_fn_matches_mean_value_fn(
    n, m, bsize, seed, talent, n_samples, budget
):
    group, scorer, background = make_pointwise_instance(n, m, bsize, seed, talent)
    cfg = EstimatorConfig(kind="kernel", n_samples=n_samples, seed=seed)
    top = int(reference_ranking(group, scorer)[0])
    game = _PointwiseGame(group.documents[top].features, scorer, background.vectors)
    try:
        expected = kernel_shap(
            game.value, game.n, background, n_samples, seed, mean_value_fn=game.mean_value
        )
        explained = pointwise_by_mean_value(group, scorer, background, cfg, top_docs=5)
    except EstimationError:
        expected = None
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        if expected is None:
            with pytest.raises(EstimationError):
                pointwise_shap_explain(group, scorer, background, cfg)
            return
        batched = kernel_shap(game.value, game.n, background, n_samples, seed)
        attr = pointwise_shap_explain(group, scorer, background, cfg)
    assert_same(batched, expected)
    assert attr.values.tobytes() == explained.tobytes()


@pytest.mark.parametrize("coalitions_per_chunk", [3, 64, None])
def test_pointwise_kernel_scores_in_budget_chunks(coalitions_per_chunk):
    n, k, top_docs = 9, 6, 4
    group, scorer, background = make_pointwise_instance(n, 7, k, 4, talent=False)
    cfg = EstimatorConfig(kind="kernel", n_samples=300, seed=4)
    # A coalition masks the top documents' rows once per background row.
    coalition_bytes = top_docs * k * n * 8
    budget = masking.MASK_BUDGET_BYTES
    if coalitions_per_chunk is not None:
        budget = coalitions_per_chunk * coalition_bytes
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        scorer, "score_batch", wraps=scorer.score_batch
    ) as score:
        attr = pointwise_shap_explain(group, scorer, background, cfg, top_docs=top_docs)
    # The empty and full coalitions take one call, the sampled ones the rest.
    c = attr.meta["coalitions_evaluated"] - 2
    limit = math.ceil(c * coalition_bytes / budget) + 1
    # One extra call ranks the query for its top documents, which play one game.
    assert score.call_count - 1 <= limit
    assert max(call.args[0].nbytes for call in score.call_args_list) <= budget


def repeated_background(rng, n, seed):
    """`sample_background` over 6 documents at size 25, so rows repeat, plus
    two rows that differ only in the sign of one zero and two one ulp apart."""
    docs = list(make_group(rng.normal(size=(6, n)), qid="bg").documents)
    sampled = sample_background(docs, 25, seed).vectors
    signed, ulp = np.repeat(rng.normal(size=(2, 1, n)), 2, axis=1)
    signed[:, 0] = [0.0, -0.0]
    ulp[1, -1] = np.nextafter(ulp[0, -1], np.inf)
    rows = np.vstack([sampled, signed, ulp])
    return BackgroundSet(rows[rng.permutation(len(rows))], seed=seed)


@pytest.mark.parametrize("interaction", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repeated_background_rows_match_full_evaluation(seed, interaction):
    n, m, n_samples = 7, 5, 40
    rng = np.random.default_rng(seed)
    group = make_group(rng.normal(size=(m, n)))
    scorer = make_scorer(rng, n, interaction)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    background = repeated_background(rng, n, seed)
    B = background.vectors

    first, inverse = masking.first_rows(B)
    assert len(first) == len({row.tobytes() for row in B}) < len(B)
    assert B[first][inverse].tobytes() == B.tobytes()
    signed = B[B[:, 0] == 0.0]
    assert len(signed) == 2 and len(masking.first_rows(signed)[0]) == 2

    def listwise(visible):
        return oracles.listwise_mean(group, scorer, objective, visible, B)

    for kind in ("exact", "kernel"):
        cfg = EstimatorConfig(kind=kind, n_samples=n_samples, seed=seed)
        expected = (
            exact_shapley(None, n, background, mean_value_fn=listwise)
            if kind == "exact"
            else kernel_shap(None, n, background, n_samples, seed, mean_value_fn=listwise)
        )
        assert_same(rankingshap_explain(group, scorer, objective, background, cfg), expected)

    top = group.feature_matrix()[reference_ranking(group, scorer)[:5]]

    def pointwise(visible):
        return oracles.pointwise_mean(scorer, top, visible, B)

    for kind in ("exact", "kernel"):
        cfg = EstimatorConfig(kind=kind, n_samples=n_samples, seed=seed)
        expected = (
            exact_shapley(None, n, background, mean_value_fn=pointwise)
            if kind == "exact"
            else kernel_shap(None, n, background, n_samples, seed, mean_value_fn=pointwise)
        )
        attr = pointwise_shap_explain(group, scorer, background, cfg)
        assert attr.values.tobytes() == (expected.values + 0.0).tobytes()

    greedy = greedy_attribution(ListwiseGame(group, scorer, objective, background), 3)
    expected = oracles.greedy_select(listwise, n, 3)
    assert greedy.selection_order == expected.selection_order
    assert greedy.attributions_iter.tobytes() == expected.attributions_iter.tobytes()
    assert greedy.attributions_marg.tobytes() == expected.attributions_marg.tobytes()


def benchmark_dataset(n, interaction, seed=0):
    """Three queries, one of which repeats documents, so its background repeats rows."""
    rng = np.random.default_rng(seed)
    groups = [make_group(rng.normal(size=(5, n)), qid=f"q{i}") for i in range(2)]
    groups.append(make_group(rng.normal(size=(3, n))[[0, 1, 0, 2, 1]], qid="dup"))
    return groups, make_scorer(rng, n, interaction)


def run_on_fresh_games(run_method):
    """`_run_method` with a fresh game of its own for each method."""

    def run(method, group, game, background, *args, **kwargs):
        own = ListwiseGame(group, game.scorer, game.objective, background)
        return run_method(method, group, own, background, *args, **kwargs)

    return run


@pytest.mark.parametrize("interaction", [False, True])
@pytest.mark.parametrize("objective", ["kendall", "topk:2", "docrank:1"])
@pytest.mark.parametrize("kind, n_samples", [("kernel", 40), ("exact", 0), ("permutation", 8)])
def test_run_benchmark_matches_fresh_games_per_method(kind, n_samples, objective, interaction):
    groups, scorer = benchmark_dataset(7, interaction)
    cfg = EstimatorConfig(kind=kind, n_samples=n_samples)
    methods = ["gt", "rankingshap", "pointwise", "greedy3", "greedy7", "random"]
    kwargs = dict(background_size=4, ks=(3,), seed=5)
    report = evaluation.run_benchmark(groups, scorer, objective, methods, cfg, **kwargs)
    with mock.patch.object(evaluation, "_run_method",
                           run_on_fresh_games(evaluation._run_method)):
        expected = evaluation.run_benchmark(groups, scorer, objective, methods, cfg, **kwargs)
    assert json.dumps(report.per_query) == json.dumps(expected.per_query)
    assert len(report.per_query) == 3 * 8
    for name, row in expected.rows.items():
        assert {c: v.hex() for c, v in report.rows[name].items()} == {
            c: v.hex() for c, v in row.items()
        }


def test_kernel_and_greedy_read_the_exact_ground_truths_table():
    groups, scorer = benchmark_dataset(8, interaction=False)
    calls = {}
    run_method = evaluation._run_method

    def counted(method, *args, **kwargs):
        before = score.call_count
        values = run_method(method, *args, **kwargs)
        calls[method.kind] = calls.get(method.kind, 0) + score.call_count - before
        return values

    cfg = EstimatorConfig(kind="kernel", n_samples=64)  # sampled: 64 < 2^8 coalitions
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score, \
            mock.patch.object(evaluation, "_run_method", counted):
        evaluation.run_benchmark(groups, scorer, "kendall",
                                 ["rankingshap", "pointwise", "greedy5", "random"], cfg,
                                 background_size=4)
    # The pointwise baseline plays its own mean-score game.
    assert calls == {"rankingshap": 0, "pointwise": calls["pointwise"], "greedy": 0, "random": 0}
    assert calls["pointwise"] > 0


def game_with_table(n):
    """A game whose background holds a 0.0 and whose coalition table is filled,
    with its query group."""
    group, scorer, objective, background = make_instance(n, 4, 3, 3, interaction=True)
    B = background.vectors.copy()
    B[1, 2] = 0.0
    game = ListwiseGame(group, scorer, objective, B)
    game.table()
    return game, group


@pytest.mark.parametrize("change", ["reordered", "signed zero", "one row changed", None])
def test_exact_reads_the_table_only_for_the_games_own_background(change):
    n = 5
    game, group = game_with_table(n)
    B = game.background
    if change is None:
        # The game's own background, but through a mean_value_fn.
        other, calls = B, []

        def mean_value(visible):
            calls.append(visible)
            return oracles.listwise_mean(group, game.scorer, game.objective, visible, B)
    else:
        other = {
            "reordered": B[[2, 0, 1]],
            "signed zero": np.where(B == 0.0, -0.0, B),
            "one row changed": np.vstack([B[:2], B[2] + 1.0]),
        }[change]
        assert other.tobytes() != B.tobytes()
        mean_value = None
    expected = exact_shapley(
        None, n, other,
        mean_value_fn=lambda v: oracles.listwise_mean(group, game.scorer, game.objective, v, other),
    )
    with mock.patch.object(game, "table", side_effect=AssertionError("read the table")), \
            mock.patch.object(game.scorer, "score_batch", wraps=game.scorer.score_batch) as score:
        attr = exact_shapley(game.value, n, other, mean_value_fn=mean_value)
    assert_same(attr, expected)
    if change is None:
        assert len(calls) == 1 << n
    else:
        assert score.call_count > 0


def test_table_above_exact_max_n_raises_before_allocating():
    game, _ = make_game(masking.EXACT_MAX_N + 1, 3, 2, 0, interaction=False)
    with mock.patch.object(game.scorer, "score_batch", side_effect=AssertionError("scored")):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"n <= {masking.EXACT_MAX_N}"):
                game.table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # The table alone would take 2^21 float64, 16 MiB.
    assert peak < 1 << 16
