"""A scorer names the features it reads (`Scorer.reads`), and a game keys its
background rows, its coalitions and its (coalition, row) pairs on those
features and gives the scorer those columns alone, so that a feature no score
reads costs no evaluation.

Every output must keep the bytes of the full game, which a scorer that hides
its `reads` plays, as a tracing wrapper that delegates only `score_batch`
does: exact, kernel (sampled and fully enumerated) and permutation
estimates, listwise and pointwise, greedy selection, and a kernel that reads
the table an exact estimate filled, also over a background whose unread
columns are unlike the game's own and at small mask budgets. No score may
depend on an unread column, not even for the sign of a zero (x * 0.0 is -0.0
for negative x), so the inputs hold columns of one sign and of mixed signs,
signed zeros in read and unread columns, background rows that differ only in
unread columns, all-zero and -0.0 weights, a linear scorer whose sums start
from -0.0 and a scorer that is not linear; a scorer may name its reads as a
Python list, `[]` for none.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import InteractionScorer, SignedLinear, make_group
from rankshap import (
    FULL,
    EstimatorConfig,
    KendallTauObjective,
    LinearScorer,
    greedy_attribution,
    pointwise_shap_explain,
    rankingshap_explain,
    reference_ranking,
)
from rankshap.attribution import _PointwiseGame, _run_estimator, permutation_shapley
from rankshap import masking, objectives
from rankshap.cli import main
from rankshap.errors import EstimationError
from rankshap.objectives import ListwiseGame
from rankshap.rankers import Scorer


class HiddenReads(Scorer):
    """Delegates `score_batch` only, so its games play every feature."""

    def __init__(self, inner: Scorer):
        self.inner = inner
        self.name = inner.name

    def score_batch(self, X):
        return self.inner.score_batch(X)


class ListReads(Scorer):
    """Delegates to a scorer and names its reads as a Python list: `[]`, which
    `np.asarray` makes a float array, when it reads nothing."""

    def __init__(self, inner: Scorer):
        self.inner = inner
        self.name = inner.name

    def score_batch(self, X):
        return self.inner.score_batch(X)

    def reads(self, n):
        return self.inner.reads(n).tolist()


class SquaredLinear(Scorer):
    """The square of a weighted sum over the columns of the non-zero weights,
    which are its reads. It scores full rows and rows of those columns alone."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.name = f"squared[{len(self.weights)}]"
        self._reads = np.flatnonzero(self.weights)

    def score_batch(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[1] > len(self._reads):
            X = X[:, self._reads]
        s = np.einsum("ij,j->i", np.ascontiguousarray(X), self.weights[self._reads])
        return s * s

    def reads(self, n):
        return self._reads.copy()


def signed_rows(rng, k, signs):
    """k rows of |normal| values times each column's sign, or of random signs
    where that sign is 0."""
    rows = np.abs(rng.normal(size=(k, len(signs))))
    return rows * np.where(signs == 0, rng.choice([-1.0, 1.0], size=rows.shape), signs)


def instance(n, m, bsize, seed, zeros, twins, signed_zeros, kind):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    unread = {"none": np.zeros(n, bool), "some": rng.random(n) < 0.5,
              "all": np.ones(n, bool)}[zeros]
    w[unread] = rng.choice([0.0, -0.0], size=int(unread.sum()))
    signs = rng.choice([1.0, -1.0, 0.0], size=n)
    X = signed_rows(rng, m, signs)
    B = signed_rows(rng, bsize, signs)
    if twins and unread.any():
        # Copies of the background rows that differ in the unread columns only.
        twin = B.copy()
        twin[:, unread] = signed_rows(rng, bsize, signs)[:, unread]
        B = np.vstack([B, twin])
    if signed_zeros:
        # One read and one unread column hold 0.0 in a document and in one
        # background row, and -0.0 in another row.
        for group in (np.flatnonzero(~unread), np.flatnonzero(unread)):
            if group.size:
                c = rng.choice(group)
                X[0, c], B[0, c] = 0.0, 0.0
                B = np.vstack([B, B[:1]])
                B[-1, c] = -0.0
    return make_group(X), kind(w), B


def fingerprint(attr) -> tuple:
    return attr.values.tobytes(), np.float64(attr.base_value).tobytes(), sorted(attr.meta.items())


def unlike(B, w, how, seed):
    """B with the unread columns of a row made infinite or of the other sign."""
    other, unread = B.copy(), np.flatnonzero(w == 0)
    if how is not None and unread.size:
        row = np.random.default_rng(seed).integers(len(B))
        other[row, unread] = np.inf if how == "inf" else -other[row, unread]
    return other


def outputs(group, scorer, B, seed, other=None):
    """The bytes of every estimate that the game's keys may shorten, and of
    the exact, permutation and sampled kernel estimates of the game over the
    background `other`."""
    n = group.n
    objective = KendallTauObjective(reference_ranking(group, scorer))
    configs = [
        EstimatorConfig("exact"),
        EstimatorConfig("permutation", n_samples=9, seed=seed),
        EstimatorConfig("kernel", n_samples=max(2, 2 * n - 1), seed=seed),  # sampled
        EstimatorConfig("kernel", n_samples=1 << n, seed=seed),  # full enumeration
    ]
    x = group.documents[int(objective.reference[0])].features
    out = []
    for cfg in configs:
        for explain in (
            lambda: rankingshap_explain(group, scorer, objective, B, cfg),
            lambda: pointwise_shap_explain(group, scorer, B, cfg),
            # One document's game: its sums keep the sign of a zero score.
            lambda: _run_estimator(_PointwiseGame(x, scorer, B), B, cfg),
        ):
            try:
                out.append(fingerprint(explain()))
            except EstimationError as exc:
                out.append(str(exc))
    greedy = greedy_attribution(ListwiseGame(group, scorer, objective, B), FULL)
    out.append((greedy.selection_order, greedy.attributions_iter.tobytes(),
                greedy.attributions_marg.tobytes(), greedy.evaluations))
    # The kernel reads the table that the exact estimate filled, in one batch.
    game = ListwiseGame(group, scorer, objective, B)
    out.append(fingerprint(_run_estimator(game, B, configs[0])))
    try:
        out.append(fingerprint(_run_estimator(game, B, configs[2])))
    except EstimationError as exc:
        out.append(str(exc))
    if other is not None:
        for game in (ListwiseGame(group, scorer, objective, B), _PointwiseGame(x, scorer, B)):
            for cfg in configs[:3]:
                try:
                    out.append(fingerprint(_run_estimator(game, other, cfg)))
                except EstimationError as exc:
                    out.append(str(exc))
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(2, 5),
    bsize=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    zeros=st.sampled_from(["none", "some", "all"]),
    twins=st.booleans(),
    signed_zeros=st.booleans(),
    kind=st.sampled_from([LinearScorer, SignedLinear, SquaredLinear]),
    listed=st.booleans(),
    how=st.sampled_from([None, "inf", "sign"]),
    budget=st.sampled_from([1, 200, masking.MASK_BUDGET_BYTES]),
)
@example(n=1, m=3, bsize=2, seed=0, zeros="all", twins=True, signed_zeros=True,
         kind=SignedLinear, listed=False, how=None, budget=masking.MASK_BUDGET_BYTES)
@example(n=5, m=4, bsize=3, seed=1, zeros="some", twins=True, signed_zeros=True,
         kind=LinearScorer, listed=False, how="sign", budget=200)
@example(n=4, m=3, bsize=3, seed=0, zeros="all", twins=True, signed_zeros=True,
         kind=LinearScorer, listed=True, how="inf", budget=1)
@example(n=6, m=4, bsize=4, seed=2, zeros="some", twins=False, signed_zeros=True,
         kind=LinearScorer, listed=False, how="inf", budget=1)
@example(n=5, m=3, bsize=2, seed=4, zeros="some", twins=True, signed_zeros=True,
         kind=SquaredLinear, listed=True, how="inf", budget=200)
def test_outputs_match_a_scorer_that_hides_its_reads(n, m, bsize, seed, zeros, twins,
                                                      signed_zeros, kind, listed, how,
                                                      budget):
    group, scorer, B = instance(n, m, bsize, seed, zeros, twins, signed_zeros, kind)
    played = ListReads(scorer) if listed else scorer
    other = unlike(B, scorer.weights, how, seed)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
            got = outputs(group, played, B, seed, other)
        assert got == outputs(group, HiddenReads(scorer), B, seed, other)
    # Every game gives the scorer rows of its read columns alone; only the
    # reference rankings score the documents' full rows.
    full = group.feature_matrix()
    for call in score.call_args_list:
        X = call.args[0]
        assert X.shape[1] == len(scorer.reads(n)) or (
            X.shape == full.shape and X.tobytes() == full.tobytes())


@pytest.mark.parametrize("kind", ["linear", "signed", "hidden"])
@pytest.mark.parametrize("pointwise", [False, True])
def test_games_score_the_read_columns_only_for_a_scorer_that_opts_in(kind, pointwise):
    # Every scorer that names its reads is given those columns alone; one that
    # hides them, every column.
    rng = np.random.default_rng(5)
    n, m = 6, 4
    w = [1.0, 0.0, -2.0, -0.0, 0.5, 0.0]
    scorer = {"linear": LinearScorer, "signed": SignedLinear,
              "hidden": lambda w: HiddenReads(LinearScorer(w))}[kind](w)
    group, B = make_group(rng.random((m, n))), rng.random((5, n))
    if pointwise:
        game = _PointwiseGame(group.documents[0].features, scorer, B)
    else:
        game = ListwiseGame(group, scorer, KendallTauObjective(reference_ranking(group, scorer)), B)
    assert game._played.tolist() == ([0, 2, 4] if kind != "hidden" else list(range(n)))
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        game.means(rng.random((7, n)) < 0.5)
        game.value([0, 3], B[1])
        permutation_shapley(game.value, n, B, 5, 1)
        permutation_shapley(game.value, n, B[::-1], 5, 1)  # through another game
        game.table()
    widths = {call.args[0].shape[1] for call in score.call_args_list}
    assert widths == ({n} if kind == "hidden" else {3})


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    m=st.integers(2, 6),
    bsize=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    zeros=st.sampled_from(["none", "some", "all"]),
    twins=st.booleans(),
    signed_zeros=st.booleans(),
    interaction=st.booleans(),
    pointwise=st.booleans(),
    n_samples=st.integers(1, 30),
    budget=st.sampled_from([1, 200, 3000, masking.MASK_BUDGET_BYTES]),
)
# No feature is read, so each sample walks its empty prefix alone, one sample
# per chunk.
@example(n=3, m=3, bsize=2, seed=0, zeros="all", twins=True, signed_zeros=True,
         interaction=False, pointwise=False, n_samples=5, budget=1)
@example(n=5, m=4, bsize=3, seed=1, zeros="some", twins=True, signed_zeros=True,
         interaction=False, pointwise=True, n_samples=12, budget=200)
# The widest games: every feature read, and some of ten unread.
@example(n=10, m=6, bsize=4, seed=0, zeros="none", twins=False, signed_zeros=True,
         interaction=False, pointwise=False, n_samples=7, budget=masking.MASK_BUDGET_BYTES)
@example(n=10, m=6, bsize=4, seed=1, zeros="some", twins=False, signed_zeros=True,
         interaction=False, pointwise=True, n_samples=30, budget=masking.MASK_BUDGET_BYTES)
def test_permutation_matches_the_walk_one_prefix_at_a_time(n, m, bsize, seed, zeros, twins,
                                                            signed_zeros, interaction, pointwise,
                                                            n_samples, budget):
    group, scorer, B = instance(n, m, bsize, seed, zeros, twins, signed_zeros, LinearScorer)
    B = np.vstack([B, B[::-1]])  # every row twice, one repeat right after its row
    if interaction:
        rng = np.random.default_rng(seed)
        scorer = InteractionScorer(rng.normal(size=n), rng.normal(size=(n, n)) * 0.4)
    if pointwise:
        game = _PointwiseGame(group.documents[0].features, scorer, B)
    else:
        objective = KendallTauObjective(reference_ranking(group, scorer))
        game = ListwiseGame(group, scorer, objective, B)
    with mock.patch.object(masking, "MASK_BUDGET_BYTES", budget):
        attr = permutation_shapley(game.value, n, B, n_samples, seed)
    values, base = oracles.permutation_walk(game.value, n, B, n_samples, seed)
    assert attr.values.tobytes() == values.tobytes()
    assert np.float64(attr.base_value).tobytes() == np.float64(base).tobytes()
    # The walk skips the unread features, and each gets +0.0, never -0.0.
    unread = np.setdiff1d(np.arange(n), scorer.reads(n))
    assert (attr.values[unread] == 0.0).all() and not np.signbit(attr.values[unread]).any()


@pytest.mark.parametrize("pointwise", [False, True])
def test_means_and_table_key_a_request_at_most_once(pointwise):
    # Nonnegative features and 3 of 6 weights read, so the game is keyed; the
    # coalitions repeat on the read features.
    rng = np.random.default_rng(3)
    n, m = 6, 4
    group = make_group(rng.random((m, n)))
    scorer = LinearScorer([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
    B = rng.random((5, n))
    if pointwise:
        game = _PointwiseGame(group.documents[0].features, scorer, B)
    else:
        objective = KendallTauObjective(reference_ranking(group, scorer))
        game = ListwiseGame(group, scorer, objective, B)
    assert game._played.tolist() == [0, 2, 4]
    visible = rng.random((40, n)) < 0.5
    with mock.patch.object(objectives, "first_rows", wraps=objectives.first_rows) as keyed:
        means = game.means(visible)
    assert keyed.call_count <= 1
    with mock.patch.object(objectives, "first_rows", wraps=objectives.first_rows) as keyed:
        table = game.table()
    assert keyed.call_count <= 1
    assert means.tobytes() == table[visible @ (1 << np.arange(n))].tobytes()


def test_null_features_cost_no_evaluation():
    # Nonnegative features and 2 of 8 weights read: the table evaluates the
    # 4 patterns of the read features, on the 3 distinct read background rows.
    rng = np.random.default_rng(0)
    n, m = 8, 4
    group = make_group(rng.random((m, n)))
    w = np.zeros(n)
    w[[2, 5]] = [1.0, -2.0]
    scorer = LinearScorer(w)
    B = rng.random((3, n))
    B = np.vstack([B, B[:1]])
    B[-1, 0] += 1.0  # differs from row 0 in an unread column only
    objective = KendallTauObjective(reference_ranking(group, scorer))
    game = ListwiseGame(group, scorer, objective, B)
    assert len(game._distinct) == 3
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        game.table()
    assert sum(len(c.args[0]) for c in score.call_args_list) == 4 * 3 * m
    # A permutation plays one list per prefix that changes the read features.
    visible = np.tri(n + 1, n, -1, dtype=bool)  # prefixes 0..n of the identity order
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        game.values(visible, np.zeros(n + 1, dtype=int))
    assert sum(len(c.args[0]) for c in score.call_args_list) == 3 * m
    # One call over permutations that share a read row evaluates one list per
    # distinct (pattern, read row) key, not one per run: rows 0 and 3 differ
    # only in an unread column, so the first three permutations meet 4 keys
    # in 9 runs.
    sigmas = np.array([[2, 0, 5, 1, 3, 4, 6, 7], [5, 1, 0, 2, 3, 4, 6, 7],
                       [7, 6, 5, 4, 3, 2, 1, 0], [0, 2, 1, 3, 4, 5, 6, 7]])
    pos = np.argsort(sigmas, axis=1)
    visible = (np.arange(n + 1)[:, None] > pos[:, None, :]).reshape(-1, n)
    index = np.repeat([0, 0, 3, 1], n + 1)
    rows = B[index]
    keys = {(tuple(v[[2, 5]]), tuple(r[[2, 5]])) for v, r in zip(visible, rows)}
    assert len(keys) == 4 + 3  # 4 patterns of row 0, 3 prefixes of row 1
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        got = game.values(visible, index)
    assert sum(len(c.args[0]) for c in score.call_args_list) == len(keys) * m
    expected = [game.value(np.flatnonzero(v), r) for v, r in zip(visible, rows)]
    assert got.tobytes() == np.array(expected).tobytes()
    # The estimator plays that game itself: each key of a chunk once.
    with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
        permutation_shapley(game.value, n, B, 4, 7)
    rng = np.random.default_rng(7)
    keys = set()
    for _ in range(4):
        sigma = rng.permutation(n)
        b = B[rng.integers(len(B))]
        keys |= {(frozenset(sigma[:j].tolist()) & {2, 5}, tuple(b[[2, 5]]))
                 for j in range(n + 1)}
    assert sum(len(c.args[0]) for c in score.call_args_list) == len(keys) * m
    # A game plays the read columns alone, whatever the signs of the unread ones.
    x = group.documents[0].features
    mixed = np.vstack([B, -B[:1]])
    assert _PointwiseGame(x, SignedLinear(w), B)._played.tolist() == [2, 5]
    assert _PointwiseGame(x, SignedLinear(w), mixed)._played.tolist() == [2, 5]
    assert _PointwiseGame(x, scorer, mixed)._played.tolist() == [2, 5]


def test_permutation_over_another_background_keys_the_pairs():
    # A bound game played over a background unlike its own keys its pairs on the
    # columns that game would play over that background: it scores the rows of
    # the same game built over it, and keeps the bytes of one prefix at a time.
    rng = np.random.default_rng(5)
    n, m, n_samples = 8, 5, 30
    group = make_group(rng.random((m, n)))
    w = rng.normal(size=n)
    w[::2] = 0.0
    scorer = LinearScorer(w)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    game = ListwiseGame(group, scorer, objective, rng.random((4, n)))
    other = rng.random((6, n))
    values, base = oracles.permutation_walk(game.value, n, other, n_samples, 3)
    rows = []
    for played in (game, ListwiseGame(group, scorer, objective, other)):
        with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
            attr = permutation_shapley(played.value, n, other, n_samples, 3)
        rows.append(sum(len(c.args[0]) for c in score.call_args_list))
        assert attr.values.tobytes() == values.tobytes()
        assert np.float64(attr.base_value).tobytes() == np.float64(base).tobytes()
    assert rows[0] == rows[1] < n_samples * (n + 1) * m


def test_values_evaluates_rows_unlike_its_own_in_full():
    # Background rows that differ only in an unread column, also in its sign or
    # by an infinite value there, are keyed alike: one pair is scored, and it
    # gives each row's own score, since no score reads that column.
    for kind in (SignedLinear, LinearScorer):
        rng = np.random.default_rng(1)
        n = 4
        scorer = kind([1.0, 0.0, 0.0, 2.0])
        x = rng.random(n)
        rows = np.repeat(rng.random((1, n)), 3, axis=0)
        rows[:, 1] = [0.25, 0.5, 0.75]  # one key: the rows differ in an unread column only
        visible = np.zeros((1, n), dtype=bool)
        for bad in (None, -0.0, np.inf):
            if bad is not None:
                rows[1, 1] = bad
            game = _PointwiseGame(x, scorer, rows)
            with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score:
                got = game.values(visible, np.arange(3))
                expected = [scorer.score(np.where(visible[0], x, r)) for r in rows]
            assert len(score.call_args_list[0].args[0]) == 1
            assert got.tobytes() == np.array(expected).tobytes()


class BadReads(LinearScorer):
    def __init__(self, weights, reads):
        super().__init__(weights)
        self._reads = reads

    def reads(self, n):
        return self._reads


@pytest.mark.parametrize("reads", [[1, 0], [0, 0], [-1], [3], [0.0], [[0]], [True]])
def test_bad_reads_raise_naming_the_scorer(reads):
    rng = np.random.default_rng(2)
    group = make_group(rng.random((3, 3)))
    scorer = BadReads([1.0, 0.0, 2.0], reads)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    with pytest.raises(ValueError, match=r"scorer linear\[3\]: reads\(3\)"):
        ListwiseGame(group, scorer, objective, rng.random((2, 3)))
    with pytest.raises(ValueError, match=r"scorer linear\[3\]: reads\(3\)"):
        _PointwiseGame(group.documents[0].features, scorer, rng.random((2, 3)))


def test_cli_bad_reads_exit_2(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0 qid:1 1:0.1 2:0.2\n1 qid:1 1:0.3 2:0.4\n")
    with mock.patch.object(LinearScorer, "reads", return_value=np.array([1, 1])):
        code = main(["explain", "--data", str(data), "--scorer",
                     '{"kind": "linear", "weights": [1.0, 0.0]}', "--estimator", "exact",
                     "--background", "2", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "reads(2) must be strictly increasing" in capsys.readouterr().err
