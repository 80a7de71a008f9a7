"""A scorer names the features it reads (`Scorer.reads`), and a game keys its
background rows, its coalitions and its (coalition, row) pairs on those
features, so that a feature no score reads costs no evaluation.

Every output must keep the bytes of the full game, which a scorer that hides
its `reads` plays, as a tracing wrapper that delegates only `score_batch`
does: exact, kernel (sampled and fully enumerated) and permutation
estimates, listwise and pointwise, greedy selection, and a kernel that reads
the table an exact estimate filled. An unread column still moves the sign of
a zero linear score (x * 0.0 is -0.0 for negative x), so the inputs hold
columns of one sign and of mixed signs, signed zeros in read and unread
columns, background rows that differ only in unread columns, and all-zero
weights; a scorer may name its reads as a Python list, `[]` for none.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_group
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
from rankshap.attribution import _PointwiseGame, _run_estimator
from rankshap import objectives
from rankshap.cli import main
from rankshap.errors import EstimationError
from rankshap.objectives import ListwiseGame
from rankshap.rankers import Scorer


class SignedLinear(LinearScorer):
    """A linear scorer whose sums start from -0.0, so that a zero score keeps
    the sign of its terms: all -0.0 terms sum to -0.0."""

    def score_batch(self, X):
        return (np.asarray(X) * self.weights).sum(axis=1, initial=-0.0)


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


def signed_rows(rng, k, signs):
    """k rows of |normal| values times each column's sign, or of random signs
    where that sign is 0."""
    rows = np.abs(rng.normal(size=(k, len(signs))))
    return rows * np.where(signs == 0, rng.choice([-1.0, 1.0], size=rows.shape), signs)


def instance(n, m, bsize, seed, zeros, twins, signed_zeros, signed_sum):
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
    return make_group(X), (SignedLinear if signed_sum else LinearScorer)(w), B


def fingerprint(attr) -> tuple:
    return attr.values.tobytes(), np.float64(attr.base_value).tobytes(), sorted(attr.meta.items())


def outputs(group, scorer, B, seed):
    """The bytes of every estimate that the game's keys may shorten."""
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
    signed_sum=st.booleans(),
    listed=st.booleans(),
)
@example(n=1, m=3, bsize=2, seed=0, zeros="all", twins=True, signed_zeros=True,
         signed_sum=True, listed=False)
@example(n=5, m=4, bsize=3, seed=1, zeros="some", twins=True, signed_zeros=True,
         signed_sum=False, listed=False)
@example(n=4, m=3, bsize=3, seed=0, zeros="all", twins=True, signed_zeros=True,
         signed_sum=False, listed=True)
def test_outputs_match_a_scorer_that_hides_its_reads(n, m, bsize, seed, zeros, twins,
                                                      signed_zeros, signed_sum, listed):
    group, scorer, B = instance(n, m, bsize, seed, zeros, twins, signed_zeros, signed_sum)
    played = ListReads(scorer) if listed else scorer
    assert outputs(group, played, B, seed) == outputs(group, HiddenReads(scorer), B, seed)


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
        game.values(visible, np.repeat(B[:1], n + 1, axis=0))
    assert sum(len(c.args[0]) for c in score.call_args_list) == 3 * m
    # The pointwise game keys only unread columns of one sign.
    x = group.documents[0].features
    assert _PointwiseGame(x, scorer, B)._played.tolist() == [2, 5]
    assert _PointwiseGame(x, scorer, np.vstack([B, -B[:1]]))._played.tolist() == list(range(n))


def test_values_evaluates_rows_unlike_its_own_in_full():
    # Rows whose unread columns are not finite, or in the pointwise game not
    # of the game's sign, are not keyed: each pair is scored.
    rng = np.random.default_rng(1)
    n = 4
    scorer = LinearScorer([1.0, 0.0, 0.0, 2.0])
    game = _PointwiseGame(rng.random(n), scorer, rng.random((2, n)))
    rows = np.repeat(rng.random((1, n)), 3, axis=0)
    rows[:, 1] = [0.25, 0.5, 0.75]  # one key: the rows differ in an unread column only
    visible = np.zeros((1, n), dtype=bool)
    for bad, scored in ((None, 1), (-0.0, 3), (np.inf, 3)):
        if bad is not None:
            rows[1, 2] = bad
        with mock.patch.object(scorer, "score_batch", wraps=scorer.score_batch) as score, \
                np.errstate(invalid="ignore"):  # inf * 0.0
            got = game.values(visible, rows)
            expected = [scorer.score(np.where(visible[0], game.x, r)) for r in rows]
        assert len(score.call_args_list[0].args[0]) == scored
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
