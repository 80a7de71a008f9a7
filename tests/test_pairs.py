"""The masking bodies of the game: `CoalitionGame._grid(visible, rows)`, which
masks a grid of coalitions times background rows, and the walks of
permutation sampling, `CoalitionGame.walk_values`.

Each cell of `_grid` must equal the game evaluated on its coalition and
background row alone, by the scalar oracles. `_grid` masks by copying `X`
once per cell and scattering each coalition's hidden background entries in,
one background row at a time; both steps are copies, so the masked rows must
be the bytes of `np.where`, signed zeros, infinities and subnormals included,
also as `_grid_means` chunks the coalitions. `walk_values` masks one buffer
per chunk of walks, one column of `X` per walk and depth, and scores each
distinct list once only at the depths where lists must repeat; none of that
may move a byte of the walk one prefix at a time. Permutation sampling and
background means read the distinct background rows in place, so they hold no
copy of their rows.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
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


def grid_instance(kind, n, m, bsize, seed, twins):
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


def prefix_coalitions(rng, n, walks):
    """The n+1 prefixes of `walks` permutations, as permutation sampling visits
    them, then random coalitions."""
    visible = [np.arange(n + 1)[:, None] > np.argsort(rng.permutation(n))
               for _ in range(walks)]
    return np.vstack([*visible, rng.random((3, n)) < 0.5])


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
def test_grid_cells_are_each_coalition_on_each_background_row(kind, listwise, n, m, bsize,
                                                                seed, twins, walks, shared,
                                                                budget):
    X, scorer, B = grid_instance(kind, n, m, bsize, seed, twins)
    n = X.shape[1]
    group = make_group(X)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    game = (ListwiseGame(group, scorer, objective, B) if listwise
            else _PointwiseGame(X[:1 + seed % len(X)], scorer, B))
    rng = np.random.default_rng(seed)
    visible = prefix_coalitions(rng, n, walks)
    if shared:  # one coalition on every row
        visible = visible[:1]
    # Every background row, repeats and twins included, read in place; `_grid`
    # masks the whole grid at once, whatever the budget.
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        got = game._grid(visible[:, game._cols], B[:, game._cols])
    if listwise:
        expected = [[oracles.value_function(group, scorer, objective, ~v, b) for b in B]
                    for v in visible]
    else:
        expected = [[oracles.pointwise_value(scorer, game.X, np.flatnonzero(v), b) for b in B]
                    for v in visible]
    assert got.shape == (len(visible), len(B))
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
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 4), c=st.integers(1, 6),
       k=st.integers(1, 6), budget=st.sampled_from([1, 200, masking.MASK_BUDGET_BYTES]))
def test_copy_and_scatter_masks_the_bytes_of_np_where(data, n, m, c, k, budget):
    def specials(shape):
        flat = data.draw(st.lists(st.sampled_from(SPECIAL), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    X, rows = specials((m, n)), specials((k, n))
    visible = np.array(data.draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c)),
                       dtype=bool).reshape(c, n)
    scorer = Recorder()
    game = _PointwiseGame(X, scorer, rows)

    def where(rows):
        return np.where(visible[:, None, None, :], X, rows[None, :, None, :]).reshape(-1, n)

    game._grid(visible, rows)
    assert np.vstack(scorer.batches).tobytes() == where(rows).tobytes()
    # The means mask each chunk of coalitions on the distinct rows, by their bytes.
    scorer.batches.clear()
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        game._grid_means(visible)
    assert np.vstack(scorer.batches).tobytes() == where(game._distinct).tobytes()


def test_permutation_sampling_holds_no_copy_of_its_rows():
    # groundtruth-perm's shape: 46 features, half of them unread, 20 documents
    # and 10 background rows; 60 samples are one chunk of 24 prefixes each.
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
    # reduce fit in twice the budget; a (60 * 24, 46) float copy of the
    # sampled rows, 530 KB, on top of them does not.
    assert peak < 2 * masking.MASK_BUDGET_BYTES


@pytest.mark.parametrize("read", [0, 23, 46], ids=["none-read", "half-read", "all-read"])
def test_permutation_sampling_peak_stays_within_twice_the_budget(read):
    # groundtruth-perm's shape with none, half or all of its 46 features read,
    # at 3,000 samples, many chunks of permutations. A chunk's masked walks,
    # one depth's scores and its rows of n fit in the budget; nothing grows
    # with the samples.
    rng = np.random.default_rng(0)
    n, m = 46, 20
    w = rng.normal(size=n)
    w[rng.permutation(n)[:n - read]] = 0.0
    group, scorer, B = make_group(rng.random((m, n))), LinearScorer(w), rng.random((10, n))
    game = ListwiseGame(group, scorer, KendallTauObjective(reference_ranking(group, scorer)), B)
    tracemalloc.start()
    try:
        permutation_shapley(game.value, n, B, 3000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * masking.MASK_BUDGET_BYTES


@pytest.mark.parametrize("docs", [1, 2])
def test_means_peak_stays_within_twice_the_budget(docs):
    # One or two documents of 136 features, every one read: a grid cell's
    # masked rows are no wider than the indices and entries of its hidden
    # columns, which the budget counts too, and the means read the distinct
    # background rows in place, not copies of them.
    rng = np.random.default_rng(0)
    n = 136
    scorer = LinearScorer(rng.normal(size=n))
    game = _PointwiseGame(rng.random((docs, n)), scorer, rng.random((30, n)))
    visible = rng.random((300, n)) < 0.5
    tracemalloc.start()
    try:
        game.means(visible)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * masking.MASK_BUDGET_BYTES


def walk_instance(n, r, m, bsize, seed, pointwise):
    """A group of m documents, a scorer that reads r of n features and sums from
    -0.0, with 0.0 and -0.0 weights on the others, a background with repeated
    rows and, when r > 0, a read column that holds 0.0 in every background row
    but -0.0 in one, and the listwise game of them or the pointwise game of up
    to 12 documents, whose scores the game adds in the order the oracle does."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    w[rng.permutation(n)[r:]] = rng.choice([0.0, -0.0], size=n - r)
    X = rng.normal(size=(m, n))
    B = rng.normal(size=(bsize, n))[rng.integers(bsize, size=bsize + 3)]
    if r:
        c = rng.choice(np.flatnonzero(w))
        B[:, c] = 0.0
        B[rng.integers(len(B)), c] = -0.0
    group, scorer = make_group(X), SignedLinear(w)
    if pointwise:
        return group, scorer, B, _PointwiseGame(X[:1 + seed % min(m, 12)], scorer, B)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    return group, scorer, B, ListwiseGame(group, scorer, objective, B)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    reads=st.sampled_from(["none", "one", "two", "half", "all"]),
    m=st.sampled_from([2, 5, 20]),
    bsize=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    pointwise=st.booleans(),
    walks=st.integers(1, 30),
    n_samples=st.integers(1, 30),
    budget=st.sampled_from([1, 3000, masking.MASK_BUDGET_BYTES]),
)
# Two read features over at most 4 distinct rows: 30 walks repeat lists at
# depths 0 and 1, and a 1-byte budget makes one-sample chunks.
@example(n=6, reads="two", m=5, bsize=4, seed=3, pointwise=False, walks=30, n_samples=30,
         budget=1)
@example(n=6, reads="two", m=2, bsize=2, seed=4, pointwise=True, walks=30, n_samples=30,
         budget=masking.MASK_BUDGET_BYTES)
# A pointwise game of 12 documents, whose scores a pairwise sum adds in another order.
@example(n=6, reads="all", m=20, bsize=3, seed=11, pointwise=True, walks=10, n_samples=10,
         budget=masking.MASK_BUDGET_BYTES)
def test_walks_give_the_bytes_of_the_walk_one_prefix_at_a_time(n, reads, m, bsize, seed,
                                                               pointwise, walks, n_samples,
                                                               budget):
    r = min(n, {"none": 0, "one": 1, "two": 2, "half": n // 2, "all": n}[reads])
    group, scorer, B, game = walk_instance(n, r, m, bsize, seed, pointwise)
    rng = np.random.default_rng(seed + 1)
    walk = np.array([rng.permutation(game._played) for _ in range(walks)]).reshape(walks, r)
    index = rng.integers(len(B), size=walks)
    got = game.walk_values(walk, index)

    def value(visible, b):
        if pointwise:
            return oracles.pointwise_value(scorer, game.X, visible, b)
        hidden = np.ones(n, dtype=bool)
        hidden[visible] = False
        return oracles.value_function(group, scorer, game.objective, hidden, b)

    expected = [[value(w[:j], B[i]) for j in range(r + 1)] for w, i in zip(walk, index)]
    assert got.tobytes() == np.array(expected).reshape(walks, r + 1).tobytes()
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        attr = permutation_shapley(game.value, n, B, n_samples, seed)
    values, base = oracles.permutation_walk(game.value, n, B, n_samples, seed)
    assert attr.values.tobytes() == values.tobytes()
    assert np.float64(attr.base_value).tobytes() == np.float64(base).tobytes()


@pytest.mark.parametrize("walks", [5, 20])
def test_walks_score_each_distinct_list_once_where_lists_must_repeat(walks):
    # 2 of 6 features read and 4 background rows, 3 of them distinct. Depth j
    # of the walks is deduplicated where its comb(2, j) prefixes times the 3
    # distinct rows are fewer than the walks: depth 0 of 5 or 20 walks and
    # depth 1 of 20. There the scorer sees each distinct list once; elsewhere
    # it sees one list per walk, and at depth 2 one list, X.
    rng = np.random.default_rng(2)
    n, m = 6, 4
    w = np.zeros(n)
    w[[1, 4]] = [1.0, -2.0]
    scorer, group = LinearScorer(w), make_group(rng.random((m, n)))
    B = rng.random((3, n))
    B = np.vstack([B, B[:1]])
    game = ListwiseGame(group, scorer, KendallTauObjective(reference_ranking(group, scorer)), B)
    walk = np.array([rng.permutation([1, 4]) for _ in range(walks)])
    index = rng.integers(len(B), size=walks)
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        got = game.walk_values(walk, index)
    lists = [np.array(c.args[0]).reshape(-1, m, 2) for c in score.call_args_list]
    rows = game._inverse[index].tolist()
    distinct = [len(set(rows)), len(set(zip(walk[:, 0].tolist(), rows)))]
    deduplicated = [j for j in range(2) if math.comb(2, j) * 3 < walks]
    assert deduplicated == ([0, 1] if walks == 20 else [0])
    assert [len(b) for b in lists] == [distinct[j] if j in deduplicated else walks
                                       for j in range(2)] + [1]
    for j in deduplicated:
        assert len({b.tobytes() for b in lists[j]}) == len(lists[j])
    expected = [[game.value(w[:j], B[i]) for j in range(3)] for w, i in zip(walk, index)]
    assert got.tobytes() == np.array(expected).tobytes()
