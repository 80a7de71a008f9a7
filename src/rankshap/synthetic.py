"""Talent-search benchmark: fixed query scenarios over the synthetic models."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attribution import EstimatorConfig
from .baselines import greedy_attribution
from .data import BackgroundSet, Document, QueryGroup
from .evaluation import _run_method
from .objectives import KendallTauObjective, reference_ranking
from .talent import (
    CANDIDATES,
    FEATURE_NAMES,
    SCHEMES,
    UNIVERSITY_CODES,
    TalentScorer,
    University,
    talent_features,
)

# Candidate membership per scenario.
SCENARIO_MEMBERS: dict[str, tuple[str, ...]] = {
    "average": ("non-qualified", "qualified-1", "qualified-2"),
    "nepotism": ("non-qualified", "qualified-1", "qualified-2", "non-qualified-privileged"),
    "qualified": ("qualified-1", "qualified-2", "qualified-3"),
    "international": ("non-qualified", "qualified-3", "qualified-net", "qualified-ger"),
    "neg_biased": ("non-qualified", "qualified-1", "qualified-2", "qualified-biased"),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    candidate_names: tuple[str, ...]

    def group(self) -> QueryGroup:
        docs = tuple(
            Document(
                query_id=self.name,
                doc_index=i,
                features=talent_features(CANDIDATES[c]),
                relevance=0,
            )
            for i, c in enumerate(self.candidate_names)
        )
        return QueryGroup(query_id=self.name, documents=docs, n=5)


def build_scenarios() -> list[Scenario]:
    return [Scenario(name, members) for name, members in SCENARIO_MEMBERS.items()]


def sample_talent_background(size: int = 100, seed: int = 0) -> BackgroundSet:
    """Random candidates: uniform feature values, grade drawn within the
    sampled university's own grading interval."""
    rng = np.random.default_rng(seed)
    experience = rng.uniform(size=size)
    skills = rng.uniform(size=size)
    codes = rng.integers(0, len(UNIVERSITY_CODES), size=size)
    code_to_uni = {c: u for u, c in UNIVERSITY_CODES.items()}
    grades = np.empty(size)
    for i, code in enumerate(codes):
        scheme = SCHEMES[code_to_uni[int(code)]]
        lo, hi = sorted((scheme.best_grade, scheme.worst_passing_grade))
        grades[i] = rng.uniform(lo, hi)
    meets = rng.integers(0, 2, size=size).astype(float)
    vectors = np.column_stack([experience, skills, grades, codes.astype(float), meets])
    return BackgroundSet(vectors=vectors, seed=seed)


SYNTHETIC_METHODS = ("rankingshap", "pointwise", "greedy2")


def explain_scenario(
    scenario: Scenario,
    variant: str,
    method: str,
    background: BackgroundSet,
    seed: int = 0,
) -> np.ndarray:
    """Attribution values of one method on one scenario (exact estimators).

    `greedy<k>` (k defaults to 2) reports iterative attributions and, at
    k = 2, stops once every remaining feature lowers the objective; the other
    methods run as in `evaluation.run_benchmark`.
    """
    group = scenario.group()
    scorer = TalentScorer(variant)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    if method.startswith("greedy"):
        k = int(method[len("greedy"):] or 2)
        result = greedy_attribution(
            group, scorer, objective, background, k, stop_on_negative=(k == 2)
        )
        return result.attributions_iter
    cfg = EstimatorConfig(kind="exact")
    return _run_method(method, group, scorer, objective, background, cfg, seed)


def run_synthetic(
    variant: str = "biased",
    methods=SYNTHETIC_METHODS,
    background_size: int = 100,
    seed: int = 0,
) -> list[dict]:
    """All scenarios x methods; rows of feature,scenario,method,phi."""
    if variant not in ("biased", "unbiased"):
        raise ValueError(f"unknown variant {variant!r}")
    background = sample_talent_background(background_size, seed)
    rows = []
    for scenario in build_scenarios():
        for method in methods:
            values = explain_scenario(scenario, variant, method, background, seed)
            for i, name in enumerate(FEATURE_NAMES):
                rows.append(
                    {
                        "feature": name,
                        "scenario": scenario.name,
                        "method": method,
                        "phi": float(values[i]),
                    }
                )
    return rows


def write_synthetic_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["feature", "scenario", "method", "phi"])
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row, phi=repr(row["phi"])))
