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
    bias: str  # none | positive | negative

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

# Stable numeric codes for the categorical feature slot.
UNIVERSITY_CODES: dict[University, int] = {
    University.US: 0,
    University.NEPOTISM: 1,
    University.NEG_BIAS: 2,
    University.GER: 3,
    University.NET: 4,
}
_CODE_TO_UNIVERSITY = {c: u for u, c in UNIVERSITY_CODES.items()}
_BEST = np.array([SCHEMES[_CODE_TO_UNIVERSITY[c]].best_grade for c in range(5)])
_WORST = np.array([SCHEMES[_CODE_TO_UNIVERSITY[c]].worst_passing_grade for c in range(5)])
_NEG_BIAS_CODE = UNIVERSITY_CODES[University.NEG_BIAS]
_NEPOTISM_CODE = UNIVERSITY_CODES[University.NEPOTISM]


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


def norm_grade(grade: float, scheme: UniversityScheme) -> float:
    """Map worst passing grade to 0 and best grade to 1, linearly."""
    if not scheme.contains(grade):
        raise ValueError(f"grade {grade} outside scheme interval")
    return (grade - scheme.worst_passing_grade) / (scheme.best_grade - scheme.worst_passing_grade)


def talent_score(candidate: TalentCandidate, variant: str = "biased") -> float:
    """Score a candidate with the biased or unbiased talent-search model."""
    score = (
        norm_grade(candidate.grade, SCHEMES[candidate.university])
        + candidate.skills
        + candidate.experience
    )
    if variant == "biased":
        if candidate.university is University.NEG_BIAS:
            score *= 0.7
        if not (candidate.meets_requirements or candidate.university is University.NEPOTISM):
            score *= 0.1
    elif variant == "unbiased":
        if not candidate.meets_requirements:
            score *= 0.1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return score


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


def decode_candidate(features: np.ndarray) -> TalentCandidate:
    """Inverse of `talent_features`; raises on unknown university codes."""
    features = np.asarray(features, dtype=float)
    code = int(round(features[3]))
    if code not in _CODE_TO_UNIVERSITY:
        raise ValueError(f"unknown university code {features[3]!r}")
    return TalentCandidate(
        experience=float(features[0]),
        skills=float(features[1]),
        grade=float(features[2]),
        university=_CODE_TO_UNIVERSITY[code],
        meets_requirements=features[4] >= 0.5,
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

    def score(self, features: np.ndarray) -> float:
        return float(self.score_batch(np.asarray(features, dtype=float)[None, :])[0])

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        codes = np.rint(X[:, 3]).astype(int)
        if ((codes < 0) | (codes >= 5)).any():
            bad = X[(codes < 0) | (codes >= 5), 3]
            raise ValueError(f"unknown university code {bad[0]!r}")
        norm = np.clip((X[:, 2] - _WORST[codes]) / (_BEST[codes] - _WORST[codes]), 0.0, 1.0)
        base = norm + X[:, 1] + X[:, 0]
        meets = X[:, 4] >= 0.5
        if self.variant == "biased":
            score = np.where(codes == _NEG_BIAS_CODE, 0.7 * base, base)
            penalized = ~meets & (codes != _NEPOTISM_CODE)
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
