"""Scoring-function abstraction and rank construction."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError


class Scorer:
    """Deterministic document scorer: feature vector -> real score. A scorer that
    reads fewer than n features also scores rows of its `reads(n)` columns alone,
    with the full rows' bytes: games pass it those."""

    name: str = "scorer"
    # Feature width the scorer reads, or None if it takes any width.
    n_features: int | None = None

    def score(self, features: np.ndarray) -> float:
        """Score of one feature vector: a one-row `score_batch`."""
        return float(self.score_batch(np.asarray(features, dtype=float)[None, :])[0])

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        """Score a (k, n) matrix of feature vectors; subclasses implement it.

        A row's score must not depend on the other rows of the batch: games
        score coalitions in chunks, and a fully masked list ranks by exact
        ties. A BLAS matrix-vector product breaks this, because it sums the
        rows of a trailing block in a different order, and so does a row sum
        over an F-ordered batch; `LinearScorer` sums each C-ordered float64
        row with einsum, in an order fixed for a given numpy build.
        """
        raise NotImplementedError

    def reads(self, n: int) -> np.ndarray:
        """The sorted indices of the features among n that a score can depend
        on; a score must not depend on any other column, not even for the sign
        of a zero. All n by default."""
        return np.arange(n)


class LinearScorer(Scorer):
    """Dot product of a fixed weight vector with the features, over its non-zero terms."""

    def __init__(self, weights):
        try:
            self.weights = np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"linear scorer weights must be numbers, got {weights!r}") from None
        if self.weights.ndim != 1 or self.weights.size == 0:
            shape = self.weights.shape
            raise ValueError(f"linear scorer needs a non-empty 1-D weight list, got shape {shape}")
        if not np.isfinite(self.weights).all():
            bad = int(np.flatnonzero(~np.isfinite(self.weights))[0])
            raise ValueError(f"linear scorer weight {bad} is not finite: {self.weights[bad]}")
        self.weights.setflags(write=False)
        self.n_features = len(self.weights)
        self.name = f"linear[{self.n_features}]"
        self._nonzero = np.flatnonzero(self.weights)
        self._w = self.weights[self._nonzero]

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        X, r = np.asarray(X), len(self._nonzero)
        if X.ndim != 2 or X.shape[1] not in (self.n_features, r):
            raise DimensionError(f"scorer {self.name} scores rows of {self.n_features} features"
                                 f" or of its {r} read ones, got shape {X.shape}")
        if X.shape[1] > r:
            X = X.take(self._nonzero, axis=1)
        # einsum sums each C-ordered row in one fixed order from +0.0 and never calls BLAS;
        # gemv, or an F-ordered X, may sum a row in another order by its place in the batch.
        return np.einsum("ij,j->i", np.ascontiguousarray(X, dtype=float), self._w)

    def reads(self, n: int) -> np.ndarray:
        return self._nonzero.copy()


def rank(scores) -> np.ndarray:
    """Rank documents descending by score, ties broken by lower index.

    Returns the permutation as doc indices from rank 1 to rank m.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot rank an empty score list")
    return rank_many(scores[None, :])[0]


def rank_many(score_matrix: np.ndarray) -> np.ndarray:
    """Row-wise `rank` for a (k, m) matrix of scores."""
    scores = np.asarray(score_matrix, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite score: a scorer returned NaN or +-inf")
    return np.argsort(-scores, axis=1, kind="stable")


def load_scorer(source) -> Scorer:
    """Build a scorer from a config dict, JSON string, or JSON file path.

    A string that does not start with `{` is a path, and a missing file
    raises FileNotFoundError naming it.

    Supported configs: {"kind": "linear", "weights": [...]} and
    {"kind": "talent", "variant": "biased"|"unbiased"}; another key raises.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        cfg = json.loads(source)
    elif isinstance(source, (str, Path)):
        if not Path(source).is_file():
            raise FileNotFoundError(f"scorer file not found: {source}")
        try:
            cfg = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"scorer file {source} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"scorer file {source} must hold a JSON object")
    else:
        cfg = dict(source)
    kind = cfg.get("kind")
    stray = sorted(cfg.keys() - {"kind", {"linear": "weights", "talent": "variant"}.get(kind)})
    if kind in ("linear", "talent") and stray:
        raise ValueError(f"{kind} scorer config has unknown keys {stray}")
    if kind == "linear":
        if "weights" not in cfg:
            raise ValueError("linear scorer config needs a 'weights' list")
        # float() takes "1" and True; a JSON weight must be a number.
        for i, w in enumerate(cfg["weights"] if isinstance(cfg["weights"], list) else ()):
            if isinstance(w, (str, bool)):
                raise ValueError(f"linear scorer weight {i} must be a number, got {w!r}")
        return LinearScorer(cfg["weights"])
    if kind == "talent":
        from .talent import TalentScorer

        return TalentScorer(cfg.get("variant", "biased"))
    raise ValueError(f"unknown scorer kind {kind!r}")
