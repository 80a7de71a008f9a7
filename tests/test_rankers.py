import json

import numpy as np
import pytest

from rankshap import LinearScorer, Scorer, TalentScorer, load_scorer, rank


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
