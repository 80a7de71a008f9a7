"""Scoring-function abstraction and rank construction."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class Scorer:
    """Deterministic document scorer: feature vector -> real score."""

    name: str = "scorer"

    def score(self, features: np.ndarray) -> float:
        raise NotImplementedError

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        """Score a (k, n) matrix of feature vectors; default loops over rows.

        A row's score must not depend on the other rows of the batch: games
        score coalitions in chunks, and a fully masked list ranks by exact
        ties. A BLAS matrix-vector product breaks this, because it sums the
        rows of a trailing block in a different order.
        """
        return np.array([self.score(row) for row in X])


class LinearScorer(Scorer):
    """Dot product of a fixed weight vector with the features."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.weights.setflags(write=False)
        self.name = f"linear[{len(self.weights)}]"

    def score(self, features: np.ndarray) -> float:
        return float(np.dot(self.weights, features))

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        # Row-wise reduction instead of gemv: BLAS may sum remainder rows in a
        # different order, giving bit-different scores for identical inputs and
        # breaking the deterministic tie-break on fully masked groups.
        return (np.asarray(X) * self.weights).sum(axis=1)


def rank(scores) -> np.ndarray:
    """Rank documents descending by score, ties broken by lower index.

    Returns the permutation as doc indices from rank 1 to rank m.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot rank an empty score list")
    if np.isnan(scores).any():
        raise ValueError("NaN score")
    return np.argsort(-scores, kind="stable")


def rank_many(score_matrix: np.ndarray) -> np.ndarray:
    """Row-wise `rank` for a (k, m) matrix of scores."""
    scores = np.asarray(score_matrix, dtype=float)
    if np.isnan(scores).any():
        raise ValueError("NaN score")
    return np.argsort(-scores, axis=1, kind="stable")


def load_scorer(source) -> Scorer:
    """Build a scorer from a config dict, JSON string, or JSON file path.

    A string that does not start with `{` is a path, and a missing file
    raises FileNotFoundError naming it.

    Supported configs: {"kind": "linear", "weights": [...]} and
    {"kind": "talent", "variant": "biased"|"unbiased"}.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        cfg = json.loads(source)
    elif isinstance(source, (str, Path)):
        if not Path(source).is_file():
            raise FileNotFoundError(f"scorer file not found: {source}")
        cfg = json.loads(Path(source).read_text())
    else:
        cfg = dict(source)
    kind = cfg.get("kind")
    if kind == "linear":
        return LinearScorer(cfg["weights"])
    if kind == "talent":
        from .talent import TalentScorer

        return TalentScorer(cfg.get("variant", "biased"))
    raise ValueError(f"unknown scorer kind {kind!r}")
