import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import SignedLinear, brute_force_shapley, make_group, make_linear_instance
from oracles import kernel_design, sampled_kernel_design
from rankshap import (
    Attribution,
    BackgroundSet,
    CapacityError,
    DimensionError,
    EstimationError,
    EstimatorConfig,
    KendallTauObjective,
    LinearScorer,
    TalentScorer,
    TopKTauObjective,
    build_scenarios,
    exact_shapley,
    kernel_shap,
    permutation_shapley,
    pointwise_shap_explain,
    rankingshap_explain,
    reference_ranking,
    sample_talent_background,
    shapley_weight,
)
from rankshap import masking
from rankshap.attribution import _PointwiseGame, _kernel_design, check_kernel_budget
from rankshap.objectives import ListwiseGame
from rankshap.rankers import Scorer


def additive_game(c):
    c = np.asarray(c, dtype=float)

    def value_fn(visible, b):
        return float(sum(c[i] for i in visible))

    return value_fn


ONE_BG = BackgroundSet(np.zeros((1, 1)))


def bg(n, rows=1):
    return BackgroundSet(np.zeros((rows, n)))


class TestShapleyWeight:
    def test_small_values(self):
        assert shapley_weight(3, 0) == pytest.approx(1 / 3)
        assert shapley_weight(3, 1) == pytest.approx(1 / 6)
        assert shapley_weight(3, 2) == pytest.approx(1 / 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shapley_weight(3, 3)
        with pytest.raises(ValueError):
            shapley_weight(3, -1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_weights_sum_to_one_over_coalitions(self, n):
        total = sum(math.comb(n - 1, s) * shapley_weight(n, s) for s in range(n))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_wide_weight_is_correctly_rounded(self):
        assert shapley_weight(171, 0) == 1 / 171


class TestExactShapley:
    def test_constant_game(self):
        attr = exact_shapley(lambda S, b: 3.5, 4, bg(4))
        np.testing.assert_array_equal(attr.values, np.zeros(4))
        assert attr.base_value == 3.5

    def test_additive_game_recovers_coefficients(self, rng):
        c = rng.normal(size=6)
        attr = exact_shapley(additive_game(c), 6, bg(6))
        np.testing.assert_allclose(attr.values, c, atol=1e-12)

    def test_matches_permutation_enumeration_oracle(self, rng):
        # Arbitrary bounded game on n=5, checked against the all-orderings oracle.
        table = rng.normal(size=1 << 5)

        def value_fn(visible, b):
            mask = sum(1 << i for i in visible)
            return float(table[mask])

        attr = exact_shapley(value_fn, 5, bg(5))
        expected = brute_force_shapley(lambda S: value_fn(S, None), 5)
        np.testing.assert_allclose(attr.values, expected, atol=1e-10)

    def test_dummy_feature_is_exactly_zero(self, rng):
        group, _, objective, background = make_linear_instance(5, 4, seed=3)
        w = rng.normal(size=5)
        w[2] = 0.0
        scorer = LinearScorer(w)
        objective = KendallTauObjective(reference_ranking(group, scorer))
        game = ListwiseGame(group, scorer, objective, background)
        attr = exact_shapley(game.value, 5, background, mean_value_fn=game.mean_value)
        assert attr.values[2] == 0.0

    def test_efficiency(self):
        group, scorer, objective, background = make_linear_instance(5, 4, seed=4)
        game = ListwiseGame(group, scorer, objective, background)
        attr = exact_shapley(game.value, 5, background, mean_value_fn=game.mean_value)
        assert attr.base_value + attr.values.sum() == pytest.approx(
            game.mean_value(tuple(range(5))), abs=1e-9
        )

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            exact_shapley(lambda S, b: 0.0, 25, bg(25))

    def test_width_guard_raises_before_any_evaluation(self):
        def never(*args):
            raise AssertionError("evaluated a coalition past the width guard")

        class NeverScorer(Scorer):
            score_batch = never

        with pytest.raises(CapacityError, match="n <= 20"):
            exact_shapley(never, 21, bg(21), mean_value_fn=never)
        cfg = EstimatorConfig(kind="exact")
        group, _, objective, background = make_linear_instance(21, 3, seed=0)
        with pytest.raises(CapacityError, match="n <= 20"):
            rankingshap_explain(group, NeverScorer(), objective, background, cfg)

    def test_uses_full_background_mean(self, rng):
        # phi for an identity game on feature 0 equals x0 - mean(b0) exactly.
        x0 = 2.0
        B = BackgroundSet(rng.normal(size=(7, 1)))

        def value_fn(visible, b):
            return x0 if 0 in visible else float(b[0])

        attr = exact_shapley(value_fn, 1, B)
        assert attr.values[0] == pytest.approx(x0 - B.vectors[:, 0].mean(), abs=1e-12)


@pytest.mark.parametrize("estimate", [
    lambda f, B: exact_shapley(f, 3, B),
    lambda f, B: kernel_shap(f, 3, B, 8, 0),
    lambda f, B: permutation_shapley(f, 3, B, 4, 0),
], ids=["exact", "kernel", "permutation"])
def test_estimators_reject_a_background_without_rows_of_n_features(estimate):
    # Empty, 1-D and too wide backgrounds: the game raises before it plays.
    for B in (np.zeros((0, 3)), np.zeros(3), np.zeros((2, 4))):
        message = re.escape(f"background shape {B.shape} is not (>= 1, 3)")
        with pytest.raises(DimensionError, match=message):
            estimate(lambda S, b: float(len(S)), B)


class TestPermutationShapley:
    def test_single_feature_is_exact(self, rng):
        B = BackgroundSet(rng.normal(size=(4, 1)))

        def value_fn(visible, b):
            return 1.0 if 0 in visible else float(b[0])

        attr = permutation_shapley(value_fn, 1, B, n_samples=50, seed=0)
        exact = exact_shapley(value_fn, 1, B)
        # Only the background draw is random; 50 samples of a 4-point set leave
        # a small deviation, but the estimator form is identical.
        assert attr.values[0] == pytest.approx(exact.values[0], abs=0.5)

    def test_telescoping_sum(self):
        group, scorer, objective, background = make_linear_instance(6, 5, seed=5)
        game = ListwiseGame(group, scorer, objective, background)
        attr = permutation_shapley(game.value, 6, background, n_samples=64, seed=1)
        # v(full) = 1.0 for every background vector, so the telescoped total is
        # 1 - base_value.
        assert attr.values.sum() == pytest.approx(1.0 - attr.base_value, abs=1e-12)

    def test_deterministic(self):
        group, scorer, objective, background = make_linear_instance(5, 4, seed=6)
        game = ListwiseGame(group, scorer, objective, background)
        a = permutation_shapley(game.value, 5, background, n_samples=32, seed=9)
        b = permutation_shapley(game.value, 5, background, n_samples=32, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_converges_to_exact(self):
        group, scorer, objective, background = make_linear_instance(6, 5, seed=7, bsize=3)
        game = ListwiseGame(group, scorer, objective, background)
        exact = exact_shapley(game.value, 6, background, mean_value_fn=game.mean_value)
        approx = permutation_shapley(game.value, 6, background, n_samples=4096, seed=2)
        assert np.max(np.abs(approx.values - exact.values)) < 0.05

    def test_unbiased_across_seeds(self):
        # Mean of independent estimates stays within 3 standard errors of exact.
        group, scorer, objective, background = make_linear_instance(8, 5, seed=8, bsize=3)
        game = ListwiseGame(group, scorer, objective, background)
        exact = exact_shapley(game.value, 8, background, mean_value_fn=game.mean_value)
        runs = np.stack(
            [
                permutation_shapley(game.value, 8, background, n_samples=4096, seed=s).values
                for s in range(20)
            ]
        )
        mean = runs.mean(axis=0)
        sem = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(np.abs(mean - exact.values) < 3 * sem + 1e-6)


class TestKernelShap:
    def test_full_enumeration_matches_exact(self, rng):
        for n in (3, 5, 8):
            table = rng.normal(size=1 << n)

            def value_fn(visible, b, table=table):
                return float(table[sum(1 << i for i in visible)])

            exact = exact_shapley(value_fn, n, bg(n))
            kernel = kernel_shap(value_fn, n, bg(n), n_samples=1 << n, seed=0)
            np.testing.assert_allclose(kernel.values, exact.values, atol=1e-6)
            assert kernel.base_value == pytest.approx(exact.base_value)

    def test_additive_game_recovered_at_small_budget(self, rng):
        c = rng.normal(size=6)
        attr = kernel_shap(additive_game(c), 6, bg(6), n_samples=40, seed=3)
        np.testing.assert_allclose(attr.values, c, atol=1e-6)

    def test_efficiency_constraint_is_exact(self, rng):
        table = rng.normal(size=1 << 6)

        def value_fn(visible, b):
            return float(table[sum(1 << i for i in visible)])

        attr = kernel_shap(value_fn, 6, bg(6), n_samples=40, seed=4)
        assert attr.values.sum() == pytest.approx(table[-1] - table[0], abs=1e-9)

    def test_deterministic(self, rng):
        table = rng.normal(size=1 << 6)

        def value_fn(visible, b):
            return float(table[sum(1 << i for i in visible)])

        a = kernel_shap(value_fn, 6, bg(6), n_samples=64, seed=11)
        b = kernel_shap(value_fn, 6, bg(6), n_samples=64, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_singular_budget_raises(self):
        with pytest.raises(EstimationError, match="n_samples"):
            kernel_shap(lambda S, b: float(len(S)), 6, bg(6), n_samples=3, seed=0)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            kernel_shap(lambda S, b: 0.0, 4, bg(4), n_samples=1, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 6, 12, 46])
    def test_rejects_exactly_the_budgets_that_are_never_full_rank(self, n):
        # A draw and its complement give negated rows of the constrained fit,
        # so 2n - 2 samples hold at most n - 2 independent rows.
        for seed in range(5):
            rows, _, _ = _kernel_design(n, 2 * n - 2, seed)
            assert np.linalg.matrix_rank(rows[:, :-1] * 1.0 - rows[:, -1:]) < n - 1
        calls = []

        def value_fn(S, b):
            calls.append(S)
            return float(len(S))

        with pytest.raises(EstimationError, match=f"n_samples >= 2n - 1 = {2 * n - 1}"):
            kernel_shap(value_fn, n, bg(n), n_samples=2 * n - 2, seed=0)
        assert calls == []
        check_kernel_budget(n, 2 * n - 1)


def mask_rows(masks, n):
    """(c, n) boolean rows of Python-int masks; bit i of a mask is feature i."""
    return np.array(
        [[mask >> i & 1 for i in range(n)] for mask in masks], dtype=bool
    ).reshape(len(masks), n)


class TestKernelDesign:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 70), n_samples=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    @example(n=70, n_samples=400, seed=0)
    @example(n=2, n_samples=3, seed=1)
    @example(n=2, n_samples=4, seed=1)
    @example(n=3, n_samples=8, seed=2)
    @example(n=10, n_samples=1 << 10, seed=3)
    def test_matches_int_mask_oracle(self, n, n_samples, seed):
        rows, weights, evaluations = _kernel_design(n, n_samples, seed)
        masks, counts, expected = kernel_design(n, n_samples, seed)
        assert rows.dtype == bool
        assert rows.tobytes() == mask_rows(masks, n).tobytes()
        assert weights.tobytes() == np.array(counts, dtype=float).tobytes()
        assert evaluations == expected

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 136), n_samples=st.integers(2, 600), seed=st.integers(0, 2**32 - 1))
    @example(n=2, n_samples=2, seed=0)
    @example(n=2, n_samples=3, seed=1)
    @example(n=3, n_samples=7, seed=2)
    @example(n=46, n_samples=2, seed=3)
    @example(n=46, n_samples=3, seed=4)
    @example(n=46, n_samples=2 * 46 + 2048, seed=0)
    @example(n=136, n_samples=2 * 136 + 2048, seed=0)
    @example(n=136, n_samples=501, seed=5)
    def test_sampled_draw_matches_bytes_keyed_merge(self, n, n_samples, seed):
        # An odd budget n_samples - 2 ends on a draw without its complement.
        n_samples = min(n_samples, (1 << n) - 1)
        rows, weights, evaluations = _kernel_design.__wrapped__(n, n_samples, seed)
        expected_rows, expected_weights, expected = sampled_kernel_design(n, n_samples, seed)
        assert rows.dtype == expected_rows.dtype and rows.shape == expected_rows.shape
        assert rows.tobytes() == expected_rows.tobytes()
        assert weights.dtype == expected_weights.dtype
        assert weights.tobytes() == expected_weights.tobytes()
        assert evaluations == expected

    def test_arrays_are_read_only(self):
        rows, weights, _ = _kernel_design(6, 30, 4)
        for a in (rows, weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[1]

    def test_kernel_shap_unchanged_by_calls_in_between(self):
        group, scorer, objective, background = make_linear_instance(7, 6, seed=21)
        game = ListwiseGame(group, scorer, objective, background)

        def run():
            return kernel_shap(game.value, 7, background, 60, 5, mean_value_fn=game.mean_value)

        first = run()
        for n, n_samples, seed in ((7, 60, 6), (9, 60, 5), (4, 16, 5), (7, 80, 5)):
            kernel_shap(additive_game(np.arange(n)), n, bg(n), n_samples, seed)
            again = run()
            assert again.values.tobytes() == first.values.tobytes()
            assert again.base_value == first.base_value
            assert again.meta == first.meta
        _kernel_design.cache_clear()
        assert run().values.tobytes() == first.values.tobytes()

    def test_unseeded_draw_is_not_kept(self):
        _kernel_design.cache_clear()
        kernel_shap(additive_game(np.arange(6)), 6, bg(6), n_samples=62, seed=None)
        assert _kernel_design.cache_info().currsize == 0

    def test_pointwise_documents_share_one_draw(self):
        group, scorer, _, background = make_linear_instance(6, 8, seed=22)
        cfg = EstimatorConfig(kind="kernel", n_samples=40, seed=9)
        _kernel_design.cache_clear()
        pointwise_shap_explain(group, scorer, background, cfg, top_docs=5)
        info = _kernel_design.cache_info()
        # The top documents play one mean-score game: one draw per call.
        assert (info.misses, info.hits) == (1, 0)


class TestRankingShapExplain:
    def test_single_document_short_circuits(self):
        group = make_group([[1.0, 2.0]])
        scorer = LinearScorer([1.0, 1.0])
        attr = rankingshap_explain(
            group, scorer, None, bg(2), EstimatorConfig(kind="exact")
        )
        np.testing.assert_array_equal(attr.values, [0.0, 0.0])

    def test_score_scaling_invariance(self):
        group, scorer, objective, background = make_linear_instance(5, 4, seed=10)
        cfg = EstimatorConfig(kind="exact")
        a = rankingshap_explain(group, scorer, objective, background, cfg)
        scaled = LinearScorer(scorer.weights * 100.0)
        objective2 = KendallTauObjective(reference_ranking(group, scaled))
        b = rankingshap_explain(group, scaled, objective2, background, cfg)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_additivity_over_objectives(self):
        group, scorer, objective, background = make_linear_instance(5, 5, seed=11)
        top = TopKTauObjective(objective.reference, k=2)
        game_a = ListwiseGame(group, scorer, objective, background)
        game_b = ListwiseGame(group, scorer, top, background)

        def summed(visible, b):
            return game_a.value(visible, b) + game_b.value(visible, b)

        attr_sum = exact_shapley(summed, 5, background)
        attr_a = exact_shapley(game_a.value, 5, background, mean_value_fn=game_a.mean_value)
        attr_b = exact_shapley(game_b.value, 5, background, mean_value_fn=game_b.mean_value)
        np.testing.assert_allclose(attr_sum.values, attr_a.values + attr_b.values, atol=1e-9)

    def test_symmetry_with_duplicated_feature(self, rng):
        X = rng.normal(size=(4, 4))
        X[:, 3] = X[:, 2]
        B = rng.normal(size=(3, 4))
        B[:, 3] = B[:, 2]
        w = np.array([1.0, -0.5, 0.8, 0.8])
        scorer = LinearScorer(w)
        group = make_group(X)
        background = BackgroundSet(B)
        objective = KendallTauObjective(reference_ranking(group, scorer))
        game = ListwiseGame(group, scorer, objective, background)
        attr = exact_shapley(game.value, 4, background, mean_value_fn=game.mean_value)
        assert attr.values[2] == pytest.approx(attr.values[3], abs=1e-9)

    def test_metadata_recorded(self):
        group, scorer, objective, background = make_linear_instance(4, 3, seed=12)
        cfg = EstimatorConfig(kind="kernel", n_samples=64, seed=5)
        attr = rankingshap_explain(group, scorer, objective, background, cfg)
        assert attr.meta["estimator"] == "kernel"
        assert attr.meta["objective"] == "kendall"
        assert attr.meta["seed"] == 5
        assert attr.meta["background_size"] == 5


class TestPointwiseShap:
    def test_linear_closed_form(self):
        group, scorer, objective, background = make_linear_instance(5, 4, seed=13)
        cfg = EstimatorConfig(kind="exact")
        attr = pointwise_shap_explain(group, scorer, background, cfg, top_docs=1)
        top = reference_ranking(group, scorer)[0]
        x = group.documents[int(top)].features
        expected = scorer.weights * (x - background.vectors.mean(axis=0))
        np.testing.assert_allclose(attr.values, expected, atol=1e-10)

    def test_single_doc_group_equals_its_pointwise_attribution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        group = make_group(x[None, :])
        scorer = LinearScorer(rng.normal(size=4))
        background = BackgroundSet(rng.normal(size=(6, 4)))
        cfg = EstimatorConfig(kind="exact")
        attr = pointwise_shap_explain(group, scorer, background, cfg, top_docs=5)
        expected = scorer.weights * (x - background.vectors.mean(axis=0))
        np.testing.assert_allclose(attr.values, expected, atol=1e-10)


    @pytest.mark.parametrize("top_docs", [-1, 0])
    def test_top_docs_below_1_raises_naming_it(self, top_docs):
        group, scorer, _, background = make_linear_instance(4, 6, seed=2)
        with pytest.raises(ValueError, match=f"top_docs must be at least 1, got {top_docs}"):
            pointwise_shap_explain(group, scorer, background, EstimatorConfig(), top_docs=top_docs)

    @pytest.mark.parametrize("top_docs", [2.0, True, False, "2", None])
    def test_top_docs_not_an_integer_raises_naming_it(self, top_docs):
        group, scorer, _, background = make_linear_instance(4, 6, seed=2)
        with pytest.raises(ValueError, match=re.escape(
                f"top_docs must be an integer, got {top_docs!r}")):
            pointwise_shap_explain(group, scorer, background, EstimatorConfig(), top_docs=top_docs)

    def test_meta_records_top_docs_as_a_plain_int(self):
        group, scorer, _, background = make_linear_instance(4, 6, seed=2)
        cfg = EstimatorConfig(kind="exact")
        attr = pointwise_shap_explain(group, scorer, background, cfg, top_docs=np.int64(3))
        assert type(attr.meta["top_docs"]) is int and attr.meta["top_docs"] == 3
        again = pointwise_shap_explain(group, scorer, background, cfg, top_docs=3)
        assert attr.values.tobytes() == again.values.tobytes()

    @pytest.mark.parametrize("kind, n_samples", [
        ("exact", 0), ("kernel", 5), ("kernel", 8), ("permutation", 7)])
    def test_one_document_keeps_its_bytes_at_a_negative_zero_top_score(self, kind, n_samples):
        # Each term of the top document's score is -0.0; the other documents
        # score below it. Its game keeps the sign of that zero score.
        X = np.array([[0.5, 0.0, -0.0], [0.5, 1.0, 0.0], [2.0, 0.5, -1.0]])
        scorer = SignedLinear([-0.0, -1.0, 2.0])
        scores = scorer.score_batch(X)
        assert scores[0] == 0.0 and np.signbit(scores[0]) and (scores[1:] < 0).all()
        group = make_group(X)
        B = np.random.default_rng(7).normal(size=(3, 3))
        game = _PointwiseGame(X[:1], scorer, B)
        assert np.signbit(game.value([0, 1, 2], B[1]))
        cfg = EstimatorConfig(kind=kind, n_samples=max(n_samples, 1), seed=3)
        attr = pointwise_shap_explain(group, scorer, B, cfg, top_docs=1)
        expected = oracles.pointwise_per_document(group, scorer, B, cfg, top_docs=1)
        assert fingerprint(attr) == fingerprint(expected)

    @pytest.mark.parametrize("kind, n_samples, recorded", [
        ("exact", 2048, 32),  # all 2^5 coalitions, whatever the budget
        ("kernel", 2048, 2048),  # full enumeration
        ("kernel", 20, 20),
        ("permutation", 16, 16),
    ])
    def test_meta_records_the_inner_estimator_counts(self, kind, n_samples, recorded):
        group, scorer, _, background = make_linear_instance(5, 4, seed=3)
        cfg = EstimatorConfig(kind=kind, n_samples=n_samples, seed=1)
        meta = pointwise_shap_explain(group, scorer, background, cfg).meta
        assert meta["estimator"] == f"pointwise-{kind}"
        assert meta["n_samples"] == recorded
        if kind == "kernel":
            assert meta["coalitions_evaluated"] == _kernel_design(5, n_samples, 1)[2]
        else:
            assert "coalitions_evaluated" not in meta


def fingerprint(attr) -> tuple:
    return attr.values.tobytes(), np.float64(attr.base_value).tobytes(), attr.meta


def pointwise_instance(n, m, bsize, seed, scorer_kind, positive):
    """A query, a row-independent scorer and a background array for the
    pointwise baseline. A linear scorer's weights hold 0.0 and -0.0 and its
    rows zeros in those columns; a talent instance is a synthetic scenario,
    whatever n and m."""
    rng = np.random.default_rng(seed)
    if scorer_kind == "talent":
        scenarios = build_scenarios()
        group = scenarios[seed % len(scenarios)].group()
        scorer = TalentScorer(("biased", "unbiased")[seed % 2])
        return group, scorer, sample_talent_background(bsize, seed).vectors
    w = rng.normal(size=n)
    zero = rng.random(n) < 0.4
    w[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    X, B = rng.normal(size=(m, n)), rng.normal(size=(bsize, n))
    if positive:
        X, B = np.abs(X), np.abs(B)
    X[rng.random((m, n)) < 0.2] = 0.0
    scorer = (SignedLinear if scorer_kind == "signed" else LinearScorer)(w)
    return make_group(X), scorer, B


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["exact", "kernel", "permutation"]),
    n=st.integers(1, 6),
    m=st.integers(1, 7),
    top_docs=st.integers(1, 7),
    bsize=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    scorer_kind=st.sampled_from(["linear", "signed", "talent"]),
    positive=st.booleans(),
    n_samples=st.sampled_from([1, 2, 9, 24, 32, 150]),
    budget=st.sampled_from([1, 200, 3000, masking.MASK_BUDGET_BYTES]),
)
@example(kind="kernel", n=4, m=6, top_docs=5, bsize=4, seed=1, scorer_kind="linear",
         positive=False, n_samples=24, budget=200)
@example(kind="permutation", n=5, m=7, top_docs=7, bsize=3, seed=2, scorer_kind="talent",
         positive=False, n_samples=9, budget=1)
@example(kind="exact", n=3, m=2, top_docs=1, bsize=2, seed=5, scorer_kind="signed",
         positive=True, n_samples=1, budget=masking.MASK_BUDGET_BYTES)
# The kernel fit gives a -0.0 value here, which the per-document sum read as 0.0.
@example(kind="kernel", n=2, m=1, top_docs=1, bsize=1, seed=0, scorer_kind="linear",
         positive=False, n_samples=9, budget=masking.MASK_BUDGET_BYTES)
def test_pointwise_matches_the_per_document_oracle(kind, n, m, top_docs, bsize, seed,
                                                   scorer_kind, positive, n_samples, budget):
    # Shapley values are linear in the game, and so is each estimator: the
    # mean-score game's attribution is the mean of the documents' own, up to
    # rounding, with the same meta; one document gives the same bytes.
    group, scorer, B = pointwise_instance(n, m, bsize, seed, scorer_kind, positive)
    if kind == "kernel":
        n_samples = max(n_samples, 2)
    cfg = EstimatorConfig(kind=kind, n_samples=n_samples, seed=seed)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        try:
            expected = oracles.pointwise_per_document(group, scorer, B, cfg, top_docs)
        except EstimationError:
            with pytest.raises(EstimationError):
                pointwise_shap_explain(group, scorer, B, cfg, top_docs)
            return
        attr = pointwise_shap_explain(group, scorer, B, cfg, top_docs)
    assert attr.meta == expected.meta
    if min(top_docs, len(group)) == 1:
        assert fingerprint(attr) == fingerprint(expected)
    scale = max(np.abs(expected.values).max(), abs(expected.base_value))
    np.testing.assert_allclose(attr.values, expected.values, rtol=0, atol=1e-12 * scale)
    assert abs(attr.base_value - expected.base_value) <= 1e-12 * scale


def test_kernel_writes_zero_where_exact_does():
    # lstsq gives -0.0 for a feature of value 0: the one-document pointwise
    # game at n = 2 gave [-0.0, 0.0], and this listwise game, whose first
    # weight is zero, [-0.0, 1.0]; exact enumeration gives 0.0 for both.
    group, scorer, B = pointwise_instance(2, 1, 1, 0, "linear", False)
    games = [_PointwiseGame(group.feature_matrix(), scorer, B)]
    rng = np.random.default_rng(0)
    w = rng.normal(size=2)
    w[0] = 0.0
    group, scorer = make_group(rng.normal(size=(4, 2))), LinearScorer(w)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    games.append(ListwiseGame(group, scorer, objective, rng.normal(size=(3, 2))))
    for game in games:
        for n_samples in (4, 9, 64):
            kernel = kernel_shap(game.value, 2, game.background, n_samples, 0)
            exact = exact_shapley(game.value, 2, game.background)
            assert kernel.values[0] == 0.0 and not np.signbit(kernel.values[0])
            np.testing.assert_allclose(kernel.values, exact.values, rtol=0, atol=1e-12)
            assert np.signbit(kernel.values).tolist() == np.signbit(exact.values).tolist()


class TestAttributionSerialization:
    def test_save_load_round_trip(self, tmp_path, rng):
        attr = Attribution(values=rng.normal(size=5), base_value=0.25, meta={"seed": 7})
        path = tmp_path / "attr.csv"
        attr.save(path)
        back = Attribution.load(path)
        np.testing.assert_array_equal(back.values, attr.values)
        assert back.base_value == attr.base_value
        assert back.meta["seed"] == 7

    @pytest.mark.parametrize(
        "indices,bad", [((0, 0), "0"), ((0, 2), "2"), ((1, 0, 3), "3"), ((0, -1), "-1")]
    )
    def test_load_rejects_bad_feature_indices(self, tmp_path, indices, bad):
        path = tmp_path / "attr.csv"
        rows = "".join(f"{i},{0.5 * j}\n" for j, i in enumerate(indices))
        path.write_text("feature_index,phi\n" + rows)
        with pytest.raises(ValueError, match=f"attr.csv: feature_index {bad} "):
            Attribution.load(path)

    def test_load_rejects_a_bool_base_value(self, tmp_path):
        path = tmp_path / "attr.csv"
        path.write_text("feature_index,phi\n0,1.0\n")
        path.with_suffix(".json").write_text('{"base_value": true}')
        with pytest.raises(ValueError, match="attr.json: base_value True is not a finite"):
            Attribution.load(path)

    def test_load_reads_an_int_base_value_as_float(self, tmp_path):
        path = tmp_path / "attr.csv"
        path.write_text("feature_index,phi\n0,1.0\n")
        path.with_suffix(".json").write_text('{"base_value": 2}')
        base_value = Attribution.load(path).base_value
        assert type(base_value) is float and base_value == 2.0

    def test_load_accepts_any_row_order(self, tmp_path):
        path = tmp_path / "attr.csv"
        path.write_text("feature_index,phi\n1,2.0\n0,1.0\n")
        np.testing.assert_array_equal(Attribution.load(path).values, [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Attribution(values=np.array([1.0, np.inf]), base_value=0.0)

    @pytest.mark.parametrize("base", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_base_value(self, base):
        # `save` would write a sidecar that `load` refuses ("base_value": Infinity).
        with pytest.raises(ValueError, match="base_value must be finite"):
            Attribution(values=[0.0, 1.0], base_value=base)
