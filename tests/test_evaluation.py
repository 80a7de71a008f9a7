from unittest import mock

import numpy as np
import pytest

import oracles
from conftest import InteractionScorer, make_group, make_linear_instance
from rankshap import (
    BackgroundSet,
    DimensionError,
    EstimatorConfig,
    KendallTauObjective,
    LinearScorer,
    estimate_ground_truth,
    exact_shapley,
    order_metric,
    reference_ranking,
    run_benchmark,
    stability_curve,
    valdis_metric,
)
from rankshap import evaluation
from rankshap.evaluation import Method, parse_methods
from rankshap.objectives import ListwiseGame


class TestOrderMetric:
    def test_identity_is_zero(self, rng):
        v = rng.normal(size=6)
        for k in (None, 1, 3, 6):
            assert order_metric(v, v, k) == 0.0

    def test_hand_counted_example(self):
        gt = np.array([3.0, 2.0, 1.0])  # order A,B,C
        pred = np.array([3.0, 1.0, 2.0])  # order A,C,B
        assert order_metric(gt, pred) == 2.0
        assert order_metric(gt, pred, k=1) == 0.0

    def test_k_equals_n_matches_unrestricted(self, rng):
        gt, pred = rng.normal(size=8), rng.normal(size=8)
        assert order_metric(gt, pred, k=8) == order_metric(gt, pred)

    def test_monotone_transform_invariance(self, rng):
        gt, pred = rng.normal(size=7), rng.normal(size=7)
        assert order_metric(np.exp(gt), pred**3, None) == order_metric(
            np.exp(gt) * 2 + 5, np.sign(pred) * np.abs(pred) ** 0.5, None
        )

    def test_tie_break_by_lower_index(self):
        gt = np.array([1.0, 1.0, 0.0])
        pred = np.array([1.0, 1.0, 0.0])
        assert order_metric(gt, pred) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            order_metric(np.zeros(3), np.zeros(4))


class TestValdisMetric:
    def test_identity_and_swap(self):
        assert valdis_metric(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
        assert valdis_metric(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert valdis_metric(np.array([1.0, 0.0]), np.array([0.0, 1.0]), k=1) == 1.0

    def test_symmetry_and_triangle(self, rng):
        a, b, c = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
        assert valdis_metric(a, b) == pytest.approx(valdis_metric(b, a))
        assert valdis_metric(a, c) <= valdis_metric(a, b) + valdis_metric(b, c) + 1e-12

    def test_topk_divides_by_k(self):
        gt = np.array([3.0, 2.0, 1.0, 0.0])
        pred = np.zeros(4)
        assert valdis_metric(gt, pred, k=2) == pytest.approx((3 + 2) / 2)


class TestGroundTruth:
    def test_matches_exact_within_noise(self):
        group, scorer, objective, background = make_linear_instance(8, 5, seed=30, bsize=3)
        game = ListwiseGame(group, scorer, objective, background)
        exact = exact_shapley(game.value, 8, background, mean_value_fn=game.mean_value)
        gt = estimate_ground_truth(
            group, scorer, objective, background, n_samples=4096, runs=3, seed=1
        )
        err = np.abs(gt.mean_attribution.values - exact.values)
        tol = 3 * gt.std_per_feature / np.sqrt(gt.runs) + 0.01
        assert np.all(err < tol + 0.02)

    def test_constant_objective_zero_std(self):
        group = make_group(np.ones((3, 4)))
        scorer = LinearScorer(np.zeros(4))
        objective = KendallTauObjective(reference_ranking(group, scorer))
        background = BackgroundSet(np.ones((2, 4)))
        gt = estimate_ground_truth(
            group, scorer, objective, background, n_samples=64, runs=3, seed=0
        )
        np.testing.assert_array_equal(gt.mean_attribution.values, np.zeros(4))
        np.testing.assert_array_equal(gt.std_per_feature, np.zeros(4))

    def test_rejects_single_run(self):
        group, scorer, objective, background = make_linear_instance(4, 3, seed=31)
        with pytest.raises(ValueError):
            estimate_ground_truth(group, scorer, objective, background, 16, runs=1)

    def test_runs_share_one_game(self):
        group, scorer, objective, background = make_linear_instance(4, 3, seed=31)
        with mock.patch.object(evaluation, "_permutation_runs",
                               wraps=evaluation._permutation_runs) as runs:
            estimate_ground_truth(group, scorer, objective, background, 16, runs=3, seed=2)
        (call,) = runs.call_args_list
        games, n_samples, seed = call.args
        assert len(games) == 3 and all(game is games[0] for game in games)
        assert (n_samples, seed) == (16, 2)


class TestStabilityCurve:
    @staticmethod
    def _instance(seed=40):
        rng = np.random.default_rng(seed)
        n, m = 6, 6
        group = make_group(rng.normal(size=(m, n)))
        pair = rng.normal(size=(n, n)) * 0.3
        scorer = InteractionScorer(rng.normal(size=n), pair)
        objective = KendallTauObjective(reference_ranking(group, scorer))
        pool = BackgroundSet(rng.normal(size=(50, n)))
        return group, scorer, objective, pool

    def test_std_shrinks_with_budget(self):
        group, scorer, objective, pool = self._instance()
        rows = stability_curve(
            group, scorer, objective, pool, [64, 1024], runs=3, seed=2
        )
        assert rows[1].mean_std_all < rows[0].mean_std_all

    def test_deterministic(self):
        group, scorer, objective, pool = self._instance()
        kwargs = dict(sample_sizes=[64], runs=3, seed=5)
        a = stability_curve(group, scorer, objective, pool, **kwargs)
        b = stability_curve(group, scorer, objective, pool, **kwargs)
        assert a[0].mean_std_all == b[0].mean_std_all

    def test_constant_game_zero_std(self):
        group = make_group(np.ones((3, 4)))
        scorer = LinearScorer(np.zeros(4))
        objective = KendallTauObjective(reference_ranking(group, scorer))
        pool = BackgroundSet(np.ones((10, 4)))
        rows = stability_curve(group, scorer, objective, pool, [32], runs=3, seed=0)
        assert rows[0].mean_std_all == 0.0

    def test_independent_background_mode_runs(self):
        group, scorer, objective, pool = self._instance()
        rows = stability_curve(
            group, scorer, objective, pool, [64], runs=3,
            mode="independent_background", background_size=10, seed=3,
        )
        assert rows[0].mean_std_all >= 0.0

    def test_bad_mode_rejected(self):
        group, scorer, objective, pool = self._instance()
        with pytest.raises(ValueError):
            stability_curve(group, scorer, objective, pool, [16], mode="nope")

    def test_rejects_single_run(self):
        group, scorer, objective, pool = self._instance()
        with pytest.raises(ValueError, match="at least 2 runs"):
            stability_curve(group, scorer, objective, pool, [16], runs=1)

    @pytest.mark.parametrize("mode, size", [
        ("same_background", 7), ("same_background", 50), ("same_background", 0),
        ("same_background", -2), ("independent_background", 0),
        ("independent_background", -2),
    ])
    def test_rejects_bad_background_size(self, mode, size):
        group, scorer, objective, pool = self._instance()
        pool = BackgroundSet(pool.vectors[:6])
        with pytest.raises(ValueError, match="background_size"):
            stability_curve(group, scorer, objective, pool, [16], mode=mode,
                            background_size=size)

    def test_independent_background_draws_past_the_pool_with_replacement(self):
        group, scorer, objective, pool = self._instance()
        pool = BackgroundSet(pool.vectors[:6])
        with mock.patch.object(evaluation, "ListwiseGame", wraps=ListwiseGame) as game:
            stability_curve(group, scorer, objective, pool, [16], runs=2,
                            mode="independent_background", background_size=9)
        backgrounds = [c.args[3] for c in game.call_args_list]
        assert [len(b) for b in backgrounds] == [9, 9]
        assert all(len({row.tobytes() for row in b}) <= 6 for b in backgrounds)


    @pytest.mark.parametrize("sizes", [[64], [16, 64, 256]])
    @pytest.mark.parametrize("mode, games", [("same_background", 1),
                                             ("independent_background", 3)])
    def test_builds_each_game_once(self, mode, games, sizes):
        group, scorer, objective, pool = self._instance()
        with mock.patch.object(evaluation, "ListwiseGame", wraps=ListwiseGame) as game, \
                mock.patch.object(evaluation, "_permutation_runs",
                                  wraps=evaluation._permutation_runs) as runs:
            stability_curve(group, scorer, objective, pool, sizes, runs=3, mode=mode,
                            background_size=10)
        assert game.call_count == games
        assert runs.call_count == len(sizes)

    @pytest.mark.parametrize("mode, background_size", [
        ("same_background", None), ("same_background", 10),
        ("independent_background", None), ("independent_background", 10),
        ("independent_background", 60),
    ])
    def test_matches_the_per_size_oracle_bit_for_bit(self, mode, background_size):
        group, scorer, objective, pool = self._instance()
        sizes = [16, 64, 256]
        rows = stability_curve(group, scorer, objective, pool, sizes, runs=3, mode=mode,
                               background_size=background_size, seed=7)
        size = len(pool) if background_size is None else background_size
        expected = oracles.stability_curve(group, scorer, objective, pool.vectors, sizes, 3,
                                           mode, size, 7)
        assert [(r.n_samples, r.mean_std_all.hex(), r.mean_std_top5.hex()) for r in rows] == [
            (r.n_samples, r.mean_std_all.hex(), r.mean_std_top5.hex()) for r in expected
        ]


class TestRunBenchmark:
    @staticmethod
    def _dataset(queries=4, n=6, m=5, seed=50):
        rng = np.random.default_rng(seed)
        groups = [make_group(rng.normal(size=(m, n)), qid=f"q{i}") for i in range(queries)]
        scorer = LinearScorer(rng.normal(size=n))
        return groups, scorer

    def test_gt_self_evaluation_is_zero(self):
        groups, scorer = self._dataset()
        cfg = EstimatorConfig(kind="exact")
        report = run_benchmark(
            groups, scorer, "kendall", ["gt"], cfg, background_size=3, ks=(3,)
        )
        assert report.rows["gt"]["order_all"] == 0.0
        assert report.rows["gt"]["valdis_all"] == 0.0

    def test_deterministic(self):
        groups, scorer = self._dataset()
        cfg = EstimatorConfig(kind="kernel", n_samples=64)
        kwargs = dict(background_size=3, ks=(3,), seed=7)
        a = run_benchmark(groups, scorer, "kendall", ["rankingshap", "random"], cfg, **kwargs)
        b = run_benchmark(groups, scorer, "kendall", ["rankingshap", "random"], cfg, **kwargs)
        assert a.rows == b.rows

    def test_skips_single_document_queries(self):
        groups, scorer = self._dataset(queries=2)
        rng = np.random.default_rng(0)
        single = make_group(rng.normal(size=(1, 6)), qid="solo")
        cfg = EstimatorConfig(kind="exact")
        report = run_benchmark(
            groups + [single], scorer, "kendall", ["gt"], cfg, background_size=3, ks=(3,)
        )
        assert report.skipped_queries == 1

    def test_rows_are_the_means_of_the_per_query_records(self):
        groups, scorer = self._dataset(queries=5)
        cfg = EstimatorConfig(kind="kernel", n_samples=64)
        report = run_benchmark(groups, scorer, "kendall", ["rankingshap", "greedy2", "random"],
                               cfg, background_size=3, ks=(3,), seed=2)
        assert list(report.rows) == ["rankingshap", "greedy2_iter", "greedy2_marg", "random"]
        for name, row in report.rows.items():
            records = [r for r in report.per_query if r["method"] == name]
            assert len(records) == 5
            for c in report.columns():
                total = 0.0
                for record in records:
                    total += record[c]
                assert row[c].hex() == (total / 5).hex()

    def test_rows_are_nan_when_every_query_is_skipped(self):
        rng = np.random.default_rng(1)
        singles = [make_group(rng.normal(size=(1, 6)), qid=f"s{i}") for i in range(2)]
        report = run_benchmark(singles, LinearScorer(rng.normal(size=6)), "kendall",
                               ["gt", "random"], EstimatorConfig(kind="exact"), ks=(3,))
        assert report.skipped_queries == 2 and report.per_query == []
        assert list(report.rows) == ["gt", "random"]
        for row in report.rows.values():
            assert list(row) == report.columns()
            assert all(np.isnan(v) for v in row.values())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_query_error_names_the_query(self):
        big = make_group([[1e308, 0.5], [0.5, 0.2]], qid="big")
        scorer = LinearScorer(np.array([1e308, 1.0]))
        with pytest.raises(ValueError, match=r"^query 'big': non-finite score"):
            run_benchmark([make_group([[0.1, 0.2], [0.3, 0.1]], qid="ok"), big], scorer,
                          "kendall", ["gt"], EstimatorConfig(kind="exact"),
                          background_size=2, ks=(1,))

    def test_greedy_expansion_and_csv(self, tmp_path):
        groups, scorer = self._dataset(queries=2)
        cfg = EstimatorConfig(kind="exact")
        with mock.patch.object(
            evaluation, "greedy_attribution", wraps=evaluation.greedy_attribution
        ) as greedy:
            report = run_benchmark(
                groups, scorer, "kendall", ["greedy2"], cfg, background_size=3, ks=(3,)
            )
        assert set(report.rows) == {"greedy2_iter", "greedy2_marg"}
        assert greedy.call_count == 2  # one greedy run per query serves both readings
        out = tmp_path / "report.csv"
        report.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "method,order_all,order@3,valdis_all,valdis@3"

    def test_methods_are_looked_up_at_call_time(self):
        groups, scorer = self._dataset(queries=2)
        cfg = EstimatorConfig(kind="exact")
        with mock.patch.object(
            evaluation, "pointwise_shap_explain", wraps=evaluation.pointwise_shap_explain
        ) as pointwise:
            report = run_benchmark(
                groups, scorer, "kendall", ["pointwise"], cfg, background_size=3, ks=(3,)
            )
        assert set(report.rows) == {"pointwise"}
        assert pointwise.call_count == 2


class TestParseMethods:
    def test_evaluate_expands_bare_greedy(self):
        methods = parse_methods(["gt", "greedy3", "greedy2_marg", "random"], 5)
        assert methods == [
            Method("gt", "gt"),
            Method("greedy3_iter", "greedy", 3, "iter"),
            Method("greedy3_marg", "greedy", 3, "marg"),
            Method("greedy2_marg", "greedy", 2, "marg"),
            Method("random", "random"),
        ]

    def test_synthetic_keeps_bare_greedy_iterative_and_refuses_gt(self):
        assert parse_methods(["greedy2"], 5, evaluate=False) == [
            Method("greedy2", "greedy", 2, "iter")
        ]
        with pytest.raises(ValueError, match="invalid method 'gt'"):
            parse_methods(["gt"], 5, evaluate=False)

    @pytest.mark.parametrize("names, bad", [
        (["greedy6"], "invalid method 'greedy6'"),
        (["greedy02"], "invalid method 'greedy02'"),
        (["greedy2_marg", "greedy2"], "repeated method 'greedy2_marg'"),
        (["random", "random"], "repeated method 'random'"),
    ])
    def test_rejects_first_bad_or_repeated_name(self, names, bad):
        with pytest.raises(ValueError, match=bad):
            parse_methods(names, 5)
