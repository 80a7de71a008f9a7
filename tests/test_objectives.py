import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_group, make_linear_instance
from oracles import doc_rank_distance, kendall_tau, subset_tau, topk_tau, value_function
from rankshap import (
    DimensionError,
    DocRankObjective,
    KendallTauObjective,
    LinearScorer,
    TopKTauObjective,
    coalition_to_template,
    make_objective,
    masking,
    rank,
    reference_ranking,
)
from rankshap.objectives import ListwiseGame
from rankshap.rankers import rank_many


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


@pytest.mark.parametrize("spec", ["kendall", "topk:1", "group:0", "docrank:0"])
def test_objective_checks_list_and_permutation_length(spec):
    with pytest.raises(ValueError, match="at least 2 documents"):
        make_objective(spec, [0])
    objective = make_objective(spec, [2, 0, 1])
    with pytest.raises(DimensionError, match="permutation length 4 != 3"):
        objective.evaluate_many(np.array([[0, 1, 2, 3]]))
    with pytest.raises(DimensionError):
        objective.evaluate([0, 1])


@pytest.mark.parametrize("objective", [KendallTauObjective, lambda ref: TopKTauObjective(ref, k=1),
                                       lambda ref: DocRankObjective(ref, 0)])
@pytest.mark.parametrize("reference", [[2, 1], [0, 0, 1], [0, 1, 5], [-1, 0], [[0, 1], [1, 0]]])
def test_objective_rejects_a_reference_that_is_not_a_permutation(objective, reference):
    # [2, 1] would score the identity list [0, 1] as -1.0.
    with pytest.raises(ValueError, match=re.escape(f"reference {reference} is not a permutation")):
        objective(reference)


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


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(st.integers(2, 300), st.sampled_from([255, 256, 257])),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_objectives_match_oracles_on_tied_scores(m, levels, seed, data):
    # Rankings as the game makes them: rank_many of score matrices with ties,
    # at widths across the small-int rank dtype boundary (256 and 257).
    rng = np.random.default_rng(seed)
    ref = rng.permutation(m)
    scores = rng.integers(0, levels, size=(data.draw(st.integers(1, 6)), m)).astype(float)
    perms = np.vstack([rank_many(scores), ref, ref[::-1]])
    k = data.draw(st.integers(1, m))
    docs = sorted(set(rng.choice(m, size=data.draw(st.integers(1, m))).tolist()))
    j = data.draw(st.integers(0, m - 1))
    cases = [
        ("kendall", lambda p: kendall_tau(ref, p)),
        (f"topk:{k}", lambda p: topk_tau(ref, p, k)),
        ("group:" + ",".join(map(str, docs)), lambda p: subset_tau(ref, p, docs)),
        (f"docrank:{j}", lambda p: doc_rank_distance(ref, p, j)),
    ]
    for spec, oracle in cases:
        values = make_objective(spec, ref).evaluate_many(perms)
        assert_bitwise_equal(values, [oracle(p) for p in perms])
        if not spec.startswith("docrank"):
            # The reversed reference is discordant on every pair.
            assert_bitwise_equal(values[-2:], [1.0, -1.0])
    assert_bitwise_equal(
        make_objective(f"topk:{m}", ref).evaluate_many(perms),
        make_objective("kendall", ref).evaluate_many(perms),
    )


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 30),
    shape=st.sampled_from(["fewer", "equal", "more"]),
    levels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pair_tau_layouts_match_oracles_for_fewer_equal_and_more_lists(m, shape, levels, seed,
                                                                       data):
    # k < m lists are counted per document and k >= m along the lists, in blocks
    # of rank pairs that a 1-byte budget splits into one pair each; from 24
    # documents on a list has more than 255 pairs, which split at any budget.
    rng = np.random.default_rng(seed)
    k = {"fewer": data.draw(st.integers(1, max(1, m - 1))), "equal": m,
         "more": data.draw(st.integers(m + 1, 2 * m + 3))}[shape]
    ref = rng.permutation(m)
    scores = rng.integers(0, levels, size=(k, m)).astype(float)
    scores[0] = 1.0  # a whole-row tie ranks in document order
    perms = rank_many(scores)
    n_top = data.draw(st.integers(1, m))
    docs = sorted(set(rng.choice(m, size=data.draw(st.integers(1, m))).tolist()))
    cases = [
        ("kendall", lambda p: kendall_tau(ref, p)),
        (f"topk:{n_top}", lambda p: topk_tau(ref, p, n_top)),
        ("group:" + ",".join(map(str, docs)), lambda p: subset_tau(ref, p, docs)),
    ]
    for spec, oracle in cases:
        expected = [oracle(p) for p in perms]
        assert_bitwise_equal(make_objective(spec, ref).evaluate_many(perms), expected)
        with mock.patch.object(masking, "MASK_BUDGET_BYTES", 1):
            assert_bitwise_equal(make_objective(spec, ref).evaluate_many(perms), expected)


@pytest.mark.parametrize("spec", ["kendall", "topk:10", "group:0,500"])
def test_pair_tau_memory_stays_within_a_few_mib(spec):
    # The pairwise count works in chunks of the mask budget (one 1 MB list at
    # m = 1000), where a (k, P) pair matrix would take 80 MB per temporary.
    rng = np.random.default_rng(0)
    m = 1000
    objective = make_objective(spec, rng.permutation(m))
    perms = np.array([rng.permutation(m) for _ in range(20)])
    tracemalloc.start()
    try:
        objective.evaluate_many(perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
