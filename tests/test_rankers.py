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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 150),
    k=st.integers(1, 40),
    position=st.integers(0, 40),
    kind=st.sampled_from(["linear", "talent", "interaction"]),
)
# An einsum pair term sums the 2 x 2 products in an order that depends on the batch.
@example(seed=0, n=2, k=35, position=0, kind="interaction")
def test_row_score_does_not_depend_on_its_batch(seed, n, k, position, kind):
    # The Scorer.score_batch contract, which background means rely on when
    # they score each distinct background row once; the tests' interaction
    # fixture keeps it too.
    rng = np.random.default_rng(seed)
    if kind == "talent":
        scorer = TalentScorer(("biased", "unbiased")[seed % 2])
        X = sample_talent_background(k + 1, seed).vectors
    else:
        weights = rng.normal(size=n)
        scorer = (LinearScorer(weights) if kind == "linear"
                  else InteractionScorer(weights, rng.normal(size=(n, n))))
        X = rng.normal(size=(k + 1, n))
    alone = np.concatenate([scorer.score_batch(row[None, :]) for row in X])
    assert scorer.score_batch(X).tobytes() == alone.tobytes()
    at = min(position, k)
    batch = np.insert(X[1:], at, X[0], axis=0)
    assert scorer.score_batch(batch)[at].tobytes() == alone[0].tobytes()


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
