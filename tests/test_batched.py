"""The batched game path gives bitwise the same results as the scalar path.

`ListwiseGame.values` evaluates many coalitions per scorer call, cut into
chunks of MASK_BUDGET_BYTES. The exact and permutation estimators fed by it
must match, bit for bit, the same estimators fed by `game.value` and
`game.mean_value` one coalition at a time, for every chunking; so must the
kernel estimator fed by `game.value` alone, and the pointwise kernel, which
evaluates its coalitions through `_PointwiseGame.values`.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import InteractionScorer, make_group
from rankshap import (
    BackgroundSet,
    EstimatorConfig,
    KendallTauObjective,
    LinearScorer,
    TalentScorer,
    build_scenarios,
    pointwise_shap_explain,
    reference_ranking,
    sample_talent_background,
)
from rankshap import attribution, masking
from rankshap.attribution import _PointwiseGame, exact_shapley, kernel_shap, permutation_shapley
from rankshap.errors import EstimationError
from rankshap.objectives import ListwiseGame


class RowwiseInteractionScorer(InteractionScorer):
    """InteractionScorer with its linear term summed row by row.

    The base class scores with a BLAS matrix-vector product, whose result for
    a row depends on the row's place in the batch: equal rows of a fully
    masked list get unequal scores, so its ties break differently for every
    batch composition, scalar or batched.
    """

    def score_batch(self, X):
        X = np.asarray(X, dtype=float)
        return (X * self.weights).sum(axis=1) + np.einsum(
            "ki,ij,kj->k", X, self.pair_weights, X
        )


def make_game(n, m, bsize, seed, interaction):
    rng = np.random.default_rng(seed)
    group = make_group(rng.normal(size=(m, n)))
    if interaction:
        scorer = RowwiseInteractionScorer(rng.normal(size=n), rng.normal(size=(n, n)) * 0.4)
    else:
        w = rng.normal(size=n)
        w[rng.random(n) < 0.3] = 0.0
        scorer = LinearScorer(w)
    background = BackgroundSet(rng.normal(size=(bsize, n)), seed=seed)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    return ListwiseGame(group, scorer, objective, background), background


def walk_permutations(value_fn, n, B, n_samples, seed):
    """One prefix per value call: the sampler's RNG stream and summation order."""
    rng = np.random.default_rng(seed)
    contrib = np.zeros(n)
    base_sum = 0.0
    for _ in range(n_samples):
        sigma = rng.permutation(n)
        b = B[rng.integers(len(B))]
        visible = []
        prev = value_fn(tuple(visible), b)
        base_sum += prev
        for i in sigma:
            visible.append(int(i))
            cur = value_fn(tuple(visible), b)
            contrib[i] += cur - prev
            prev = cur
    return contrib / n_samples, base_sum / n_samples


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
# not a multiple of the sample chunk (3 samples at n=6).
@example(n_samples=7, n=6, m=4, bsize=3, seed=5, interaction=True, budget=1100)
@example(n_samples=7, n=6, m=4, bsize=3, seed=5, interaction=False, budget=1)
def test_permutation_batched_matches_scalar(n_samples, n, m, bsize, seed, interaction, budget):
    game, background = make_game(n, m, bsize, seed, interaction)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        batched = permutation_shapley(
            game.value, n, background, n_samples, seed, values_fn=game.values
        )
        scalar = permutation_shapley(game.value, n, background, n_samples, seed)
    values, base = walk_permutations(game.value, n, background.vectors, n_samples, seed)
    for attr in (batched, scalar):
        assert attr.values.tobytes() == values.tobytes()
        assert attr.base_value == base


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_exact_batched_matches_scalar(n, m, bsize, seed, interaction, budget):
    game, background = make_game(n, m, bsize, seed, interaction)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        batched = exact_shapley(game.value, n, background, values_fn=game.values)
    scalar = exact_shapley(game.value, n, background, mean_value_fn=game.mean_value)
    assert_same(batched, scalar)
    assert_same(exact_shapley(game.value, n, background), scalar)


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
    # background; each tiled batch stays within the mask budget.
    game, background = make_game(6, 3, 4, 2, interaction=False)
    lifted = attribution._batched
    rows_per_call = []

    def recording(value_fn, values_fn):
        values = lifted(value_fn, values_fn)

        def record(visible, rows):
            rows_per_call.append(len(rows))
            return values(visible, rows)

        return record

    budget = 3 * len(background.vectors) * game.n * 8  # three coalitions
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        attribution, "_batched", recording
    ):
        attr = kernel_shap(game.value, game.n, background, 40, 0)
    assert max(rows_per_call) == 3 * len(background.vectors)
    assert sum(rows_per_call) == attr.meta["coalitions_evaluated"] * len(background.vectors)


def test_mean_value_is_one_scorer_call_over_budget():
    # One background batch is never split, even when it exceeds the budget.
    game, _ = make_game(5, 4, 6, 0, interaction=False)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", 1), mock.patch.object(
        game.scorer, "score_batch", wraps=game.scorer.score_batch
    ) as score:
        game.mean_value((0, 2))
    assert score.call_count == 1
    assert score.call_args.args[0].shape == (6 * 4, 5)


def test_values_chunks_whole_background_batches():
    game, background = make_game(4, 3, 2, 1, interaction=False)
    k = 7 * len(background.vectors)
    rng = np.random.default_rng(0)
    visible = rng.random((k, 4)) < 0.5
    rows = np.tile(background.vectors, (7, 1))
    whole = game.values(visible, rows)
    # Room for exactly 2 background batches (4 rows) per chunk.
    budget = 4 * game.m * game.n * 8
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget), mock.patch.object(
        game.scorer, "score_batch", wraps=game.scorer.score_batch
    ) as score:
        chunked = game.values(visible, rows)
    assert [c.args[0].shape[0] for c in score.call_args_list] == [12, 12, 12, 6]
    assert chunked.tobytes() == whole.tobytes()


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
    """`pointwise_shap_explain`'s values with one `mean_value` call per coalition."""
    B = background.vectors
    take = min(top_docs, len(group))
    values = np.zeros(group.n)
    for doc in reference_ranking(group, scorer)[:take]:
        game = _PointwiseGame(group.documents[int(doc)].features, scorer, B)
        values += kernel_shap(
            game.value, game.n, background, cfg.n_samples, cfg.seed,
            mean_value_fn=game.mean_value,
        ).values
    return values / take


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
        batched = kernel_shap(
            game.value, game.n, background, n_samples, seed, values_fn=game.values
        )
        attr = pointwise_shap_explain(group, scorer, background, cfg)
    assert_same(batched, expected)
    assert attr.values.tobytes() == explained.tobytes()


@pytest.mark.parametrize("coalitions_per_chunk", [3, 64, None])
def test_pointwise_kernel_scores_in_budget_chunks(coalitions_per_chunk):
    n, k, top_docs = 9, 6, 4
    group, scorer, background = make_pointwise_instance(n, 7, k, 4, talent=False)
    cfg = EstimatorConfig(kind="kernel", n_samples=300, seed=4)
    coalition_bytes = k * n * 8
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
    # One extra call ranks the query for its top documents.
    assert score.call_count - 1 <= top_docs * limit
    assert max(len(call.args[0]) for call in score.call_args_list) * n * 8 <= budget
