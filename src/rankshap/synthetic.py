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
        docs = tuple(Document(self.name, i, talent_features(CANDIDATES[c]), relevance=0)
                     for i, c in enumerate(self.candidate_names))
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


def _scenario_values(scenario: Scenario, scorer: TalentScorer, methods: list[Method],
                     background: BackgroundSet, seed: int) -> list[np.ndarray]:
    """Attribution values of each parsed method on one scenario, all on one
    game with exact estimators (greedy reads exact `rankingshap`'s table).

    A bare `greedy<k>` reports the iterative attributions and, at k = 2,
    stops once every remaining feature lowers the objective; the other
    methods run as in `evaluation.run_benchmark`.
    """
    group = scenario.group()
    objective = KendallTauObjective(reference_ranking(group, scorer))
    game = ListwiseGame(group, scorer, objective, background)
    cfg = EstimatorConfig(kind="exact")
    greedy_results = {}
    return [_run_method(m, group, game, background, cfg, seed, greedy_results,
                        stop_on_negative=m.k == 2) for m in methods]


def explain_scenario(scenario: Scenario, variant: str, method: str, background: BackgroundSet,
                     seed: int = 0) -> np.ndarray:
    """Attribution values of the method named `method` on one scenario."""
    parsed = parse_methods([method], len(FEATURE_NAMES), evaluate=False)
    return _scenario_values(scenario, TalentScorer(variant), parsed, background, seed)[0]


def run_synthetic(variant: str = "biased", methods=SYNTHETIC_METHODS, background_size: int = 100,
                  seed: int = 0) -> list[dict]:
    """All scenarios x methods; rows of feature,scenario,method,phi.

    Every method name is checked before any scenario runs.
    """
    parsed = parse_methods(methods, len(FEATURE_NAMES), evaluate=False)
    scorer = TalentScorer(variant)
    background = sample_talent_background(background_size, seed)
    rows = []
    for scenario in build_scenarios():
        values = _scenario_values(scenario, scorer, parsed, background, seed)
        for method, phi in zip(parsed, values):
            rows += [{"feature": name, "scenario": scenario.name, "method": method.name,
                      "phi": float(phi[i])} for i, name in enumerate(FEATURE_NAMES)]
    return rows


def write_synthetic_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["feature", "scenario", "method", "phi"])
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row, phi=repr(row["phi"])))
