"""The pair layer: `CoalitionGame.values(visible, index)` and its masking body.

`values` takes one coalition per pair (or one for all pairs) and one index
into the game's own background per pair. It collapses runs of equal keys
and keys the pairs on their packed played bits and distinct background row,
and none of that may move a byte: each pair's value must equal the game
evaluated on `background[index]` alone, by the scalar oracles. `_values`
masks a chunk by copying `X` once per pair and scattering each pair's hidden
background entries in; both steps are copies, so the masked rows must be
the bytes of `np.where`, signed zeros, infinities and subnormals included.
Permutation sampling passes indices, so it holds no copy of its sampled rows.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import SignedLinear, make_group
from rankshap import (
    KendallTauObjective,
    LinearScorer,
    TalentScorer,
    build_scenarios,
    reference_ranking,
    sample_talent_background,
)
from rankshap import masking
from rankshap.attribution import _PointwiseGame, permutation_shapley
from rankshap.objectives import ListwiseGame
from rankshap.rankers import Scorer


def pair_instance(kind, n, m, bsize, seed, twins):
    """Rows, a scorer and a background with repeated rows. Linear weights hold
    0.0 and -0.0 (none for "dense"); columns are of one sign or mixed, one
    unread column holds -0.0 in a background row and 0.0 in the others, and
    twins copy background rows with other values in the unread columns only.
    A talent instance is a synthetic scenario, whatever n and m."""
    rng = np.random.default_rng(seed)
    if kind == "talent":
        scenarios = build_scenarios()
        X = scenarios[seed % len(scenarios)].group().feature_matrix()
        B = sample_talent_background(bsize, seed).vectors[rng.integers(bsize, size=bsize + 2)]
        return X, TalentScorer(("biased", "unbiased")[seed % 2]), B
    w = rng.normal(size=n)
    unread = np.zeros(n, bool) if kind == "dense" else rng.random(n) < 0.5
    w[unread] = rng.choice([0.0, -0.0], size=int(unread.sum()))
    signs = rng.choice([1.0, -1.0, 0.0], size=n)

    def rows(k):
        values = np.abs(rng.normal(size=(k, n)))
        return values * np.where(signs == 0, rng.choice([-1.0, 1.0], size=values.shape), signs)

    X, B = rows(m), rows(bsize)
    if twins and unread.any():
        twin = B.copy()
        twin[:, unread] = rows(bsize)[:, unread]
        B = np.vstack([B, twin])
    B = B[rng.integers(len(B), size=len(B) + 2)]  # repeated rows
    if unread.any():
        c = rng.choice(np.flatnonzero(unread))
        X[:, c], B[:, c] = 0.0, 0.0
        B[rng.integers(len(B)), c] = -0.0
    return X, (SignedLinear if kind == "signed" else LinearScorer)(w), B


def prefix_pairs(rng, n, walks, index_count):
    """The n+1 prefixes of `walks` permutations, each with one background index,
    as permutation sampling passes them, then random coalitions and indices."""
    visible, index = [], []
    for _ in range(walks):
        pos = np.argsort(rng.permutation(n))
        visible.append(np.arange(n + 1)[:, None] > pos)
        index.append(np.full(n + 1, rng.integers(index_count)))
    visible.append(rng.random((3, n)) < 0.5)
    index.append(rng.integers(index_count, size=3))
    return np.vstack(visible), np.concatenate(index)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["dense", "sparse", "signed", "talent"]),
    listwise=st.booleans(),
    n=st.integers(1, 7),
    m=st.integers(2, 5),
    bsize=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    twins=st.booleans(),
    walks=st.integers(0, 3),
    shared=st.booleans(),
    budget=st.sampled_from([1, 200, 3000, masking.MASK_BUDGET_BYTES]),
)
@example(kind="sparse", listwise=True, n=6, m=4, bsize=2, seed=3, twins=True, walks=3,
         shared=False, budget=masking.MASK_BUDGET_BYTES)
@example(kind="signed", listwise=False, n=5, m=3, bsize=3, seed=8, twins=True, walks=2,
         shared=False, budget=200)
def test_values_are_each_pair_on_its_background_row(kind, listwise, n, m, bsize, seed, twins,
                                                     walks, shared, budget):
    X, scorer, B = pair_instance(kind, n, m, bsize, seed, twins)
    n = X.shape[1]
    group = make_group(X)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    game = (ListwiseGame(group, scorer, objective, B) if listwise
            else _PointwiseGame(X[:1 + seed % len(X)], scorer, B))
    rng = np.random.default_rng(seed)
    visible, index = prefix_pairs(rng, n, walks, len(B))
    if shared:  # one coalition for every pair
        visible = visible[:1]
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        got = game.values(visible, index)
    visible = np.broadcast_to(visible, (len(index), n))
    if listwise:
        expected = [oracles.value_function(group, scorer, objective, ~v, B[i])
                    for v, i in zip(visible, index)]
    else:
        expected = [oracles.pointwise_value(scorer, game.X, np.flatnonzero(v), B[i])
                    for v, i in zip(visible, index)]
    assert got.tobytes() == np.array(expected).tobytes()


class Recorder(Scorer):
    """Keeps a copy of every batch it scores, and scores each row 0.0."""

    name = "recorder"

    def __init__(self):
        self.batches = []

    def score_batch(self, X):
        self.batches.append(np.array(X))
        return np.zeros(len(X))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.5, -3.0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 4), k=st.integers(1, 12),
       budget=st.sampled_from([1, 200, masking.MASK_BUDGET_BYTES]))
def test_copy_and_scatter_masks_the_bytes_of_np_where(data, n, m, k, budget):
    def specials(shape):
        flat = data.draw(st.lists(st.sampled_from(SPECIAL), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    X, rows = specials((m, n)), specials((k, n))
    visible = np.array(data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)),
                       dtype=bool).reshape(k, n)
    scorer = Recorder()
    game = _PointwiseGame(X, scorer, rows)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        game._values(visible, rows)
    expected = np.where(visible[:, None, :], X, rows[:, None, :]).reshape(k * m, n)
    assert np.vstack(scorer.batches).tobytes() == expected.tobytes()


def test_permutation_sampling_holds_no_copy_of_its_rows():
    # groundtruth-perm's shape: 46 features, half of them unread, 20 documents
    # and 10 background rows; 60 samples are two chunks of 30 permutations.
    rng = np.random.default_rng(0)
    n, m = 46, 20
    w = rng.normal(size=n)
    w[rng.permutation(n)[:n // 2]] = 0.0
    group, scorer, B = make_group(rng.random((m, n))), LinearScorer(w), rng.random((10, n))
    game = ListwiseGame(group, scorer, KendallTauObjective(reference_ranking(group, scorer)), B)
    tracemalloc.start()
    try:
        permutation_shapley(game.value, n, B, 60, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One chunk of masked rows (up to MASK_BUDGET_BYTES), its inputs and the
    # reduce fit in twice the budget; a (30 * 47, 46) float copy of the
    # sampled rows, 519 KB per chunk, on top of them does not.
    assert peak < 2 * masking.MASK_BUDGET_BYTES
