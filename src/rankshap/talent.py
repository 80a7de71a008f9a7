"""Synthetic talent-search ranking models (biased and unbiased variants)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rankers import Scorer

FEATURE_NAMES = ("experience", "skills", "grade", "university", "requirements")


class University(Enum):
    US = "us"
    NEPOTISM = "nepotism"
    NEG_BIAS = "neg_bias"
    GER = "ger"
    NET = "net"


@dataclass(frozen=True)
class UniversityScheme:
    """Grading scheme of one university; `ger` runs in reverse (1 best, 4 worst)."""

    best_grade: float
    worst_passing_grade: float
    bias: str  # none | positive (no requirements penalty) | negative (score x 0.7)

    def contains(self, grade: float) -> bool:
        lo, hi = sorted((self.best_grade, self.worst_passing_grade))
        return lo <= grade <= hi


SCHEMES: dict[University, UniversityScheme] = {
    University.US: UniversityScheme(4, 1, "none"),
    University.NEPOTISM: UniversityScheme(4, 1, "positive"),
    University.NEG_BIAS: UniversityScheme(4, 1, "negative"),
    University.GER: UniversityScheme(1, 4, "none"),
    University.NET: UniversityScheme(10, 6, "none"),
}

# Stable numeric codes for the categorical feature slot: the enum order.
UNIVERSITY_CODES: dict[University, int] = {u: i for i, u in enumerate(University)}
_BEST = np.array([SCHEMES[u].best_grade for u in University])
_WORST = np.array([SCHEMES[u].worst_passing_grade for u in University])
_NEGATIVE = np.array([SCHEMES[u].bias == "negative" for u in University])
_POSITIVE = np.array([SCHEMES[u].bias == "positive" for u in University])


@dataclass(frozen=True)
class TalentCandidate:
    experience: float
    skills: float
    grade: float
    university: University
    meets_requirements: bool

    def __post_init__(self):
        if not 0.0 <= self.experience <= 1.0:
            raise ValueError(f"experience out of [0,1]: {self.experience}")
        if not 0.0 <= self.skills <= 1.0:
            raise ValueError(f"skills out of [0,1]: {self.skills}")
        if not SCHEMES[self.university].contains(self.grade):
            raise ValueError(
                f"grade {self.grade} outside the {self.university.value} grading interval"
            )


def talent_features(candidate: TalentCandidate) -> np.ndarray:
    """Encode a candidate as [experience, skills, grade, university code, requirements]."""
    return np.array(
        [
            candidate.experience,
            candidate.skills,
            candidate.grade,
            float(UNIVERSITY_CODES[candidate.university]),
            1.0 if candidate.meets_requirements else 0.0,
        ]
    )


class TalentScorer(Scorer):
    """Talent-search model over encoded feature vectors.

    Masking can combine a grade from one university with another university's
    scheme; the normalized grade is clipped to [0,1] so such mixtures stay
    scorable.
    """

    n_features = len(FEATURE_NAMES)

    def __init__(self, variant: str = "biased"):
        if variant not in ("biased", "unbiased"):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.name = f"talent[{variant}]"

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        codes = np.rint(X[:, 3])  # checked before the cast, which NaN or 1e200 would break
        bad = ~((codes >= 0) & (codes < len(University)))
        if bad.any():
            raise ValueError(f"unknown university code {X[bad, 3][0]!r}")
        codes = codes.astype(int)
        norm = np.clip((X[:, 2] - _WORST[codes]) / (_BEST[codes] - _WORST[codes]), 0.0, 1.0)
        with np.errstate(over="ignore"):  # to an infinite score, which ranking rejects
            base = norm + X[:, 1] + X[:, 0]
        meets = X[:, 4] >= 0.5
        if self.variant == "biased":
            score = np.where(_NEGATIVE[codes], 0.7 * base, base)
            penalized = ~meets & ~_POSITIVE[codes]
            return np.where(penalized, 0.1 * score, score)
        return np.where(meets, base, 0.1 * base)


# Candidate roster used by the synthetic benchmark scenarios.
CANDIDATES: dict[str, TalentCandidate] = {
    "non-qualified": TalentCandidate(0.7, 0.7, 3.2, University.US, False),
    "qualified-1": TalentCandidate(0.8, 0.55, 3.5, University.US, True),
    "qualified-2": TalentCandidate(0.7, 0.3, 3.0, University.US, True),
    "non-qualified-privileged": TalentCandidate(0.8, 0.6, 3.6, University.NEPOTISM, False),
    "qualified-3": TalentCandidate(0.9, 0.8, 3.0, University.US, True),
    "qualified-net": TalentCandidate(0.7, 0.9, 8.0, University.NET, True),
    "qualified-ger": TalentCandidate(0.8, 0.8, 1.0, University.GER, True),
    "qualified-biased": TalentCandidate(0.8, 0.6, 3.6, University.NEG_BIAS, True),
}
