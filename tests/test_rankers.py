import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import InteractionScorer
from rankshap import (
    LinearScorer,
    Scorer,
    TalentScorer,
    load_scorer,
    rank,
    sample_talent_background,
)
from rankshap.errors import DimensionError
from rankshap.rankers import rank_many


def test_rank_basic():
    np.testing.assert_array_equal(rank([0.1, 0.9, 0.5]), [1, 2, 0])


def test_rank_tie_break_by_index():
    np.testing.assert_array_equal(rank([0.5, 0.5]), [0, 1])
    np.testing.assert_array_equal(rank([1.0, 2.0, 2.0, 1.0]), [1, 2, 0, 3])


def test_rank_matches_sort_oracle(rng):
    scores = rng.normal(size=10)
    order = rank(scores)
    assert list(scores[order]) == sorted(scores, reverse=True)


def test_rank_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        rank([0.1, float("nan")])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_rank_many_rejects_infinite_scores(bad):
    # Infinite scores tie, so they would rank by document index alone.
    with pytest.raises(ValueError, match="non-finite score"):
        rank_many(np.array([[0.1, 0.2], [0.3, bad]]))


def test_rank_rejects_empty():
    with pytest.raises(ValueError):
        rank([])


def test_rank_scale_invariant(rng):
    scores = rng.normal(size=8)
    np.testing.assert_array_equal(rank(scores), rank(scores * 17.5))


def test_linear_scorer_batch_matches_scalar(rng):
    scorer = LinearScorer(rng.normal(size=4))
    X = rng.normal(size=(6, 4))
    expected = [np.dot(scorer.weights, row) for row in X]
    np.testing.assert_allclose(scorer.score_batch(X), expected)
    np.testing.assert_allclose([scorer.score(row) for row in X], expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 150),
    k=st.integers(1, 40),
    position=st.integers(0, 40),
    offset=st.integers(0, 3),
    kind=st.sampled_from(["linear", "sparse", "talent", "interaction"]),
)
@example(seed=0, n=40, k=12, position=3, offset=0, kind="sparse")
# An einsum pair term sums the 2 x 2 products in an order that depends on the batch.
@example(seed=0, n=2, k=35, position=0, offset=0, kind="interaction")
# Linear batches above numpy's 8,192-element iterator buffer, at LETOR-like widths.
@example(seed=1, n=1, k=9000, position=8191, offset=1, kind="linear")
@example(seed=2, n=12, k=700, position=683, offset=2, kind="sparse")
@example(seed=3, n=23, k=400, position=357, offset=3, kind="linear")
@example(seed=4, n=46, k=200, position=179, offset=1, kind="sparse")
@example(seed=5, n=46, k=200, position=178, offset=2, kind="linear")
@example(seed=6, n=136, k=100, position=61, offset=3, kind="linear")
@example(seed=7, n=136, k=100, position=99, offset=1, kind="sparse")
def test_row_score_does_not_depend_on_its_batch(seed, n, k, position, offset, kind):
    # The Scorer.score_batch contract, which background means rely on when
    # they score each distinct background row once; the tests' interaction
    # fixture keeps it too. Each row is also scored alone from a buffer at
    # `offset` floats, and a sparse linear scorer at its read width too.
    rng = np.random.default_rng(seed)
    if kind == "talent":
        scorer = TalentScorer(("biased", "unbiased")[seed % 2])
        X = sample_talent_background(k + 1, seed).vectors
    else:
        weights = rng.normal(size=n)
        if kind == "sparse":
            weights[rng.random(n) < 0.5] = 0.0
        scorer = (InteractionScorer(weights, rng.normal(size=(n, n))) if kind == "interaction"
                  else LinearScorer(weights))
        X = rng.normal(size=(k + 1, n))
        # A row whose every product is a zero of either sign.
        X[-1] = np.where(rng.random(n) < 0.5, -0.0, 0.0)

    def one_by_one(rows):
        buffer = np.empty(rows.shape[1] + 3)
        row = buffer[offset:offset + rows.shape[1]]
        out = []
        for x in rows:
            row[:] = x
            out.append(scorer.score_batch(row[None, :]))
        return np.concatenate(out)

    alone = one_by_one(X)
    assert scorer.score_batch(X).tobytes() == alone.tobytes()
    if kind == "sparse":
        narrow = np.ascontiguousarray(X[:, scorer.reads(n)])
        assert scorer.score_batch(narrow).tobytes() == alone.tobytes()
        assert one_by_one(narrow).tobytes() == alone.tobytes()
    if kind in ("linear", "sparse"):
        assert alone[-1].tobytes() == np.zeros(1).tobytes()  # +0.0
    at = min(position, k)
    batch = np.insert(X[1:], at, X[0], axis=0)
    assert scorer.score_batch(batch)[at].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("width", [1, 2, 5])
def test_linear_scorer_rejects_rows_of_another_width(width):
    # Rows of n = 4 or of the 3 read features are scored; a 1-column row used
    # to broadcast against every weight.
    scorer = LinearScorer([1, 2, 0, 4])
    with pytest.raises(DimensionError, match=r"scorer linear\[4\]"):
        scorer.score_batch(np.ones((3, width)))
    with pytest.raises(DimensionError, match=r"scorer linear\[4\]"):
        scorer.score(np.full(width, 0.5))
    with pytest.raises(DimensionError, match=r"scorer linear\[2\]"):
        LinearScorer([1.0, 2.0]).score_batch(np.ones((3, 1)))


def test_linear_scorer_sums_its_non_zero_terms_only(rng):
    w = np.array([0.5, 0.0, -2.0, -0.0, 1.5])
    scorer = LinearScorer(w)
    assert scorer.reads(5).tolist() == [0, 2, 4]
    X = rng.normal(size=(6, 5))
    expected = (X[:, [0, 2, 4]] * w[[0, 2, 4]]).sum(axis=1)
    assert scorer.score_batch(X).tobytes() == expected.tobytes()
    assert scorer.score_batch(X[:, [0, 2, 4]]).tobytes() == expected.tobytes()
    # No unread column moves a score, not the sign of a zero nor inf * 0.
    Y = X.copy()
    Y[:, [0, 2, 4]] = 0.0
    Y[:, 1], Y[:, 3] = -np.inf, -1.0
    assert scorer.score_batch(Y).tobytes() == np.zeros(6).tobytes()
    assert LinearScorer([0.0, -0.0]).score_batch(Y[:, :2]).tobytes() == np.zeros(6).tobytes()
    assert LinearScorer([0.0, -0.0]).score_batch(np.ones((2, 0))).tolist() == [0.0, 0.0]
    # With 23 of 46 weights read, or all 46, a batch scores the bytes of its
    # rows alone as float64, at full width, read columns alone, any memory
    # order, stride or number type. With every weight non-zero, an F-ordered
    # batch used to sum in another order.
    w = rng.normal(size=46)
    w[rng.choice(46, 23, replace=False)] = 0.0
    X = rng.normal(size=(50, 46))
    ints, floats = rng.integers(-50, 50, size=(20, 46)), X.astype(np.float32)
    for scorer in (LinearScorer(w), LinearScorer(w + 3.0)):
        narrow = X[:, scorer.reads(46)]  # F-ordered
        for rows in (X, np.asfortranarray(X), X[::2], narrow, np.ascontiguousarray(narrow),
                     ints, floats, np.asfortranarray(floats)):
            alone = [scorer.score(np.asarray(x, dtype=float)) for x in rows]
            assert scorer.score_batch(rows).tobytes() == np.array(alone).tobytes()
    # Without a zero weight the scorer sums every term, in einsum's row order.
    dense = LinearScorer(w + 3.0)
    assert dense.score_batch(X).tobytes() == np.einsum("ij,j->i", X, w + 3.0).tobytes()


def test_score_derives_from_score_batch():
    class SquareSum(Scorer):
        def score_batch(self, X):
            return (np.asarray(X) ** 2).sum(axis=1)

    scorer = SquareSum()
    assert scorer.score([1.0, 2.0]) == 5.0
    assert isinstance(scorer.score(np.array([3.0])), float)


def test_load_scorer_linear_from_dict_and_file(tmp_path):
    cfg = {"kind": "linear", "weights": [1.0, -2.0]}
    scorer = load_scorer(cfg)
    assert scorer.score(np.array([3.0, 1.0])) == 1.0
    path = tmp_path / "scorer.json"
    path.write_text(json.dumps(cfg))
    assert load_scorer(path).score(np.array([3.0, 1.0])) == 1.0


def test_load_scorer_talent():
    scorer = load_scorer({"kind": "talent", "variant": "unbiased"})
    assert isinstance(scorer, TalentScorer)
    assert scorer.variant == "unbiased"


def test_load_scorer_unknown_kind():
    with pytest.raises(ValueError, match="unknown scorer kind"):
        load_scorer({"kind": "mystery"})


@pytest.mark.parametrize("cfg, stray", [
    ({"kind": "linear", "weights": [1.0, 2.0], "bias": 3}, "['bias']"),
    ({"kind": "talent", "varient": "unbiased"}, "['varient']"),
])
def test_load_scorer_rejects_unknown_keys(cfg, stray):
    # A misspelt or unsupported key would otherwise build a different model
    # without a word: the talent config above would score with the biased one.
    message = f"{cfg['kind']} scorer config has unknown keys {stray}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_scorer(cfg)


@pytest.mark.parametrize("weights, bad", [
    (["1", "2", "3"], "weight 0 must be a number, got '1'"),
    ([1.0, 2.0, True], "weight 2 must be a number, got True"),
    ([1, False, 0.5], "weight 1 must be a number, got False"),
])
def test_load_scorer_rejects_string_and_bool_weights(weights, bad):
    # float() would read "1" as 1.0 and true as 1.0.
    with pytest.raises(ValueError, match=re.escape(f"linear scorer {bad}")):
        load_scorer({"kind": "linear", "weights": weights})
