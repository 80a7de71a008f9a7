import numpy as np
import pytest

from conftest import make_linear_instance
from rankshap import FULL, greedy_attribution, random_attribution
from rankshap.baselines import greedy_select
from rankshap.objectives import ListwiseGame


def counting(vtilde):
    calls = {"n": 0}

    def wrapped(sel):
        calls["n"] += 1
        return vtilde(sel)

    return wrapped, calls


def lift(vtilde):
    """`greedy_select`'s batched form of a scalar ṽ over sorted index tuples."""
    return lambda visible: np.array([vtilde(tuple(np.flatnonzero(v).tolist())) for v in visible])


def additive(c):
    c = np.asarray(c, dtype=float)
    return lambda sel: float(sum(c[i] for i in sel))


class TestGreedySelect:
    def test_additive_game_selects_largest(self):
        c = [0.1, 0.9, 0.4, 0.7]
        result = greedy_select(lift(additive(c)), 4, k=2)
        assert result.selection_order == [1, 3]
        np.testing.assert_allclose(result.attributions_iter, [0, 0.9, 0, 0.7])
        np.testing.assert_allclose(result.attributions_marg, [0, 0.9, 0, 0.7])

    def test_constant_game_negative_stop_selects_nothing(self):
        result = greedy_select(lift(lambda sel: 1.0), 4, k=2, stop_on_negative=False)
        assert len(result.selection_order) == 2  # zero marginals still count
        result = greedy_select(
            lift(lambda sel: -float(len(sel))), 4, k=2, stop_on_negative=True
        )
        assert result.selection_order == []
        np.testing.assert_array_equal(result.attributions_iter, np.zeros(4))
        np.testing.assert_array_equal(result.attributions_marg, np.zeros(4))

    def test_full_variant_selects_all(self):
        result = greedy_select(lift(additive([-1.0, 2.0, -3.0])), 3, k=FULL)
        assert sorted(result.selection_order) == [0, 1, 2]

    def test_tie_break_lowest_index(self):
        result = greedy_select(lift(additive([0.5, 0.5, 0.1])), 3, k=1)
        assert result.selection_order == [0]

    def test_iter_attributions_telescope(self, rng):
        table = rng.normal(size=1 << 5)

        def vtilde(sel):
            return float(table[sum(1 << i for i in sel)])

        result = greedy_select(lift(vtilde), 5, k=3)
        final = tuple(sorted(result.selection_order))
        assert result.attributions_iter.sum() == pytest.approx(
            vtilde(final) - vtilde(()), abs=1e-12
        )

    def test_budget_bound(self, rng):
        n, k = 7, 4
        table = rng.normal(size=1 << n)
        vtilde, calls = counting(lambda sel: float(table[sum(1 << i for i in sel)]))
        greedy_select(lift(vtilde), n, k=k)
        bound = 1 + sum(n - j for j in range(k)) + k
        assert calls["n"] <= bound

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            greedy_select(lift(lambda sel: 0.0), 3, k=0)


def test_greedy_attribution_on_listwise_game():
    group, scorer, objective, background = make_linear_instance(5, 4, seed=20)
    game = ListwiseGame(group, scorer, objective, background)
    result = greedy_attribution(game, k=2)
    assert len(result.selection_order) == 2
    assert len(set(result.selection_order)) == 2
    full = greedy_attribution(game, k=FULL)
    assert sorted(full.selection_order) == list(range(5))


class TestRandomAttribution:
    def test_normalized(self):
        attr = random_attribution(8, seed=1)
        assert attr.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(attr.values >= 0) and np.all(attr.values <= 1)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_attribution(6, seed=3).values, random_attribution(6, seed=3).values
        )

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_attribution(0, seed=0)
