import itertools

import numpy as np
import pytest

from rankshap import (
    BackgroundSet,
    Document,
    KendallTauObjective,
    LinearScorer,
    QueryGroup,
    reference_ranking,
)
from rankshap.rankers import Scorer


def make_group(X, qid="q") -> QueryGroup:
    X = np.asarray(X, dtype=float)
    docs = tuple(
        Document(query_id=qid, doc_index=i, features=row, relevance=0)
        for i, row in enumerate(X)
    )
    return QueryGroup(query_id=qid, documents=docs, n=X.shape[1])


def make_linear_instance(n, m, seed, bsize=5):
    """Random query group + linear scorer + kendall objective + background."""
    rng = np.random.default_rng(seed)
    group = make_group(rng.normal(size=(m, n)))
    scorer = LinearScorer(rng.normal(size=n))
    background = BackgroundSet(rng.normal(size=(bsize, n)), seed=seed)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    return group, scorer, objective, background


class InteractionScorer(Scorer):
    """Linear score plus pairwise interaction terms; background-sensitive
    under listwise masking, unlike a purely linear scorer.

    Both terms are summed row by row, as in `LinearScorer`: a BLAS
    matrix-vector product, or an einsum over the pair products, would make a
    row's score depend on its place in the batch, against the `Scorer`
    contract.
    """

    def __init__(self, weights, pair_weights):
        self.weights = np.asarray(weights, dtype=float)
        self.pair_weights = np.asarray(pair_weights, dtype=float)
        self.name = "interaction"

    def score_batch(self, X):
        X = np.asarray(X, dtype=float)
        pairs = X[:, :, None] * self.pair_weights * X[:, None, :]
        return (X * self.weights).sum(axis=1) + pairs.reshape(len(X), -1).sum(axis=1)


class SignedLinear(LinearScorer):
    """A linear scorer whose sums of its non-zero terms start from -0.0, so that
    a zero score keeps the sign of its terms: all -0.0 terms sum to -0.0. It
    scores full rows and rows of its read columns alone."""

    def score_batch(self, X):
        X = np.asarray(X)
        if X.shape[1] > len(self._nonzero):
            X = X[:, self._nonzero]
        return (X * self._w).sum(axis=1, initial=-0.0)


def brute_force_shapley(vtilde, n):
    """Average marginal contribution over all n! feature orderings.

    Independent oracle for the coalition-enumeration estimator; only viable
    for small n.
    """
    phi = np.zeros(n)
    count = 0
    for sigma in itertools.permutations(range(n)):
        count += 1
        visible = []
        prev = vtilde(tuple(visible))
        for i in sigma:
            visible.append(i)
            cur = vtilde(tuple(sorted(visible)))
            phi[i] += cur - prev
            prev = cur
    return phi / count


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
