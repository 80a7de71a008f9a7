"""Talent-search benchmark: fixed query scenarios over the synthetic models."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attribution import EstimatorConfig
from .data import BackgroundSet, Document, QueryGroup
from .evaluation import Method, _run_method, parse_methods
from .objectives import KendallTauObjective, ListwiseGame, reference_ranking
from .talent import (
    _BEST,
    _WORST,
    CANDIDATES,
    FEATURE_NAMES,
    UNIVERSITY_CODES,
    TalentScorer,
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
    grades = rng.uniform(np.minimum(_BEST, _WORST)[codes], np.maximum(_BEST, _WORST)[codes])
    meets = rng.integers(0, 2, size=size).astype(float)
    vectors = np.column_stack([experience, skills, grades, codes.astype(float), meets])
    return BackgroundSet(vectors=vectors, seed=seed)


SYNTHETIC_METHODS = ("rankingshap", "pointwise", "greedy2")


def explain_scenario(
    scenario: Scenario,
    variant: str,
    method: str | Method,
    background: BackgroundSet,
    seed: int = 0,
) -> np.ndarray:
    """Attribution values of one method on one scenario (exact estimators).

    A bare `greedy<k>` reports the iterative attributions and, at k = 2,
    stops once every remaining feature lowers the objective; the other
    methods run as in `evaluation.run_benchmark`.
    """
    if isinstance(method, str):
        (method,) = parse_methods([method], len(FEATURE_NAMES), evaluate=False)
    group = scenario.group()
    scorer = TalentScorer(variant)
    objective = KendallTauObjective(reference_ranking(group, scorer))
    game = ListwiseGame(group, scorer, objective, background)
    cfg = EstimatorConfig(kind="exact")
    return _run_method(
        method, group, game, background, cfg, seed, stop_on_negative=method.k == 2
    )


def run_synthetic(
    variant: str = "biased",
    methods=SYNTHETIC_METHODS,
    background_size: int = 100,
    seed: int = 0,
) -> list[dict]:
    """All scenarios x methods; rows of feature,scenario,method,phi.

    Every method name is checked before any scenario runs.
    """
    parsed = parse_methods(methods, len(FEATURE_NAMES), evaluate=False)
    background = sample_talent_background(background_size, seed)
    rows = []
    for scenario in build_scenarios():
        for method in parsed:
            values = explain_scenario(scenario, variant, method, background, seed)
            for i, name in enumerate(FEATURE_NAMES):
                rows.append(
                    {
                        "feature": name,
                        "scenario": scenario.name,
                        "method": method.name,
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
