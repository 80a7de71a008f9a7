import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_group, make_linear_instance
from oracles import doc_rank_distance, kendall_tau, subset_tau, topk_tau, value_function
from rankshap import (
    DocRankObjective,
    KendallTauObjective,
    LinearScorer,
    TopKTauObjective,
    coalition_to_template,
    make_objective,
    rank,
    reference_ranking,
)
from rankshap.objectives import ListwiseGame


def test_kendall_identity_and_reversal():
    assert kendall_tau([0, 1, 2], [0, 1, 2]) == 1.0
    assert kendall_tau([0, 1, 2], [2, 1, 0]) == -1.0


def test_kendall_adjacent_swap_m3():
    assert kendall_tau([0, 1, 2], [0, 2, 1]) == pytest.approx(1 / 3)


def test_kendall_symmetric(rng):
    for _ in range(20):
        a, b = rng.permutation(6), rng.permutation(6)
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))


def test_kendall_matches_scipy(rng):
    # Independent oracle: scipy's tau-b equals tau-a on tie-free rankings.
    for _ in range(20):
        a, b = rng.permutation(7), rng.permutation(7)
        expected = scipy.stats.kendalltau(np.argsort(a), np.argsort(b)).statistic
        assert kendall_tau(a, b) == pytest.approx(expected)


def test_kendall_rejects_single_doc():
    with pytest.raises(ValueError):
        kendall_tau([0], [0])


def test_topk_equals_kendall_at_k_m_exhaustive():
    for m in range(2, 6):
        for a in itertools.permutations(range(m)):
            for b in itertools.permutations(range(m)):
                assert topk_tau(a, b, m) == pytest.approx(kendall_tau(a, b))


def test_topk_example_top1_concordant():
    assert topk_tau([0, 1, 2, 3], [0, 1, 3, 2], 1) == pytest.approx(1.0)


def test_topk_identity_any_k():
    for k in range(1, 5):
        assert topk_tau([3, 1, 0, 2], [3, 1, 0, 2], k) == 1.0


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        topk_tau([0, 1], [0, 1], 0)
    with pytest.raises(ValueError):
        topk_tau([0, 1], [0, 1], 3)


def test_subset_tau_counts_only_touching_pairs():
    # Pairs touching doc 2 out of m=3: (0,2),(1,2). Swapping 0 and 1 leaves both concordant.
    assert subset_tau([0, 1, 2], [1, 0, 2], [2]) == pytest.approx(1.0)
    # Moving doc 2 to the front makes both discordant.
    assert subset_tau([0, 1, 2], [2, 0, 1], [2]) == pytest.approx(-1.0)


def test_doc_rank_distance_values():
    assert doc_rank_distance([0, 1, 2], [0, 1, 2], 1) == 1.0
    assert doc_rank_distance([0, 1, 2, 3, 4], [1, 2, 3, 4, 0], 0) == 0.0
    assert doc_rank_distance([0, 1, 2, 3], [1, 0, 2, 3], 0) == pytest.approx(1 - 1 / 3)


def test_doc_rank_distance_out_of_range():
    with pytest.raises(ValueError):
        doc_rank_distance([0, 1], [0, 1], 2)


def test_all_objectives_max_at_reference(rng):
    ref = rng.permutation(6)
    for obj in (
        KendallTauObjective(ref),
        TopKTauObjective(ref, k=2),
        DocRankObjective(ref, 3),
    ):
        assert obj.evaluate(ref) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 12), data=st.data())
def test_evaluate_many_matches_scalar(m, data):
    # Each batched objective class against its scalar oracle, bit for bit.
    perm = st.permutations(range(m))
    ref = np.array(data.draw(perm))
    perms = np.array([ref] + data.draw(st.lists(perm, min_size=1, max_size=8)))
    k = data.draw(st.integers(1, m))
    docs = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    j = data.draw(st.integers(0, m - 1))
    cases = [
        (make_objective("kendall", ref), lambda p: kendall_tau(ref, p)),
        (make_objective(f"topk:{k}", ref), lambda p: topk_tau(ref, p, k)),
        (make_objective("group:" + ",".join(map(str, docs)), ref),
         lambda p: subset_tau(ref, p, docs)),
        (make_objective(f"docrank:{j}", ref), lambda p: doc_rank_distance(ref, p, j)),
    ]
    for obj, oracle in cases:
        np.testing.assert_array_equal(obj.evaluate_many(perms), [oracle(p) for p in perms])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(["kendall", "topk:1", "group:0,1", "docrank:1"]),
    data=st.data(),
)
def test_game_value_matches_oracle_value_function(n, m, seed, spec, data):
    group, scorer, _, background = make_linear_instance(n, m, seed)
    objective = make_objective(spec, reference_ranking(group, scorer))
    game = ListwiseGame(group, scorer, objective, background)
    S = data.draw(st.sets(st.integers(0, n - 1)))
    t = coalition_to_template(S, n)
    for b in background.vectors:
        assert game.value(S, b) == value_function(group, scorer, objective, t, b)


def test_make_objective_parsing():
    ref = [2, 0, 1]
    assert isinstance(make_objective("kendall", ref), KendallTauObjective)
    assert make_objective("topk:2", ref).describe() == "topk:2"
    assert make_objective("docrank:1", ref).describe() == "docrank:1"
    assert make_objective("group:0,2", ref).describe() == "group:0,2"
    for bad in ("topk:0", "topk:x", "docrank:9", "nope", "group:"):
        with pytest.raises(ValueError):
            make_objective(bad, ref)


def test_value_function_identity_mask_gives_one(rng):
    group, scorer, objective, background = make_linear_instance(4, 5, seed=1)
    t = np.zeros(4, dtype=int)
    b = background.vectors[0]
    assert value_function(group, scorer, objective, t, b) == pytest.approx(1.0)
    top = TopKTauObjective(objective.reference, k=2)
    doc = DocRankObjective(objective.reference, 1)
    assert value_function(group, scorer, top, t, b) == pytest.approx(1.0)
    assert value_function(group, scorer, doc, t, b) == pytest.approx(1.0)


def test_value_function_full_mask_is_tie_break_permutation(rng):
    group, scorer, objective, background = make_linear_instance(4, 5, seed=2)
    t = np.ones(4, dtype=int)
    b = background.vectors[0]
    # Every document collapses to b, so the ranking is the tie-break identity.
    expected = objective.evaluate(np.arange(5))
    assert value_function(group, scorer, objective, t, b) == pytest.approx(expected)


def test_value_function_single_feature_inversion():
    group = make_group([[0.0], [1.0]])
    scorer = LinearScorer([1.0])
    ref = reference_ranking(group, scorer)  # doc 1 first
    objective = KendallTauObjective(ref)
    # Masking the only feature with a shared background makes scores equal;
    # instead mask nothing vs. everything on an inverting background.
    t = coalition_to_template([], 1)
    v = value_function(group, scorer, objective, t, np.array([5.0]))
    # Both docs get 5.0: tie-break puts doc 0 first, the reverse of ref.
    assert v == pytest.approx(-1.0)


def test_two_feature_inversion_reaches_minus_one():
    # Weight concentrated on feature 0; masking it leaves feature 1 which
    # inverts the order.
    group = make_group([[1.0, 0.0], [0.0, 1.0]])
    scorer = LinearScorer([1.0, 0.1])
    ref = reference_ranking(group, scorer)
    objective = KendallTauObjective(ref)
    t = coalition_to_template([1], 2)  # mask feature 0
    v = value_function(group, scorer, objective, t, np.array([0.0, 0.0]))
    assert v == pytest.approx(-1.0)
