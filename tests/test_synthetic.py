import numpy as np
import pytest

from rankshap import (
    CANDIDATES,
    KendallTauObjective,
    TalentScorer,
    University,
    build_scenarios,
    greedy_attribution,
    reference_ranking,
    run_synthetic,
    sample_talent_background,
)
from rankshap.synthetic import SCENARIO_MEMBERS, explain_scenario
from rankshap.talent import SCHEMES, UNIVERSITY_CODES


def scenario(name):
    return next(s for s in build_scenarios() if s.name == name)


def test_five_scenarios():
    assert set(SCENARIO_MEMBERS) == {
        "average", "nepotism", "qualified", "international", "neg_biased"
    }


def test_nepotism_scenario_members():
    s = scenario("nepotism")
    assert len(s.candidate_names) == 4
    assert "non-qualified-privileged" in s.candidate_names


def test_qualified_scenario_only_requirement_meeting_candidates():
    s = scenario("qualified")
    assert all(CANDIDATES[c].meets_requirements for c in s.candidate_names)


def test_international_scenario_spans_universities():
    s = scenario("international")
    unis = {CANDIDATES[c].university for c in s.candidate_names}
    assert {University.US, University.NET, University.GER} <= unis


def test_scenario_groups_have_five_features():
    for s in build_scenarios():
        g = s.group()
        assert g.n == 5
        assert len(g) == len(s.candidate_names)


def test_background_reproducible_and_valid():
    a = sample_talent_background(100, seed=4)
    b = sample_talent_background(100, seed=4)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    code_to_uni = {c: u for u, c in UNIVERSITY_CODES.items()}
    for row in a.vectors:
        assert 0.0 <= row[0] <= 1.0 and 0.0 <= row[1] <= 1.0
        scheme = SCHEMES[code_to_uni[int(row[3])]]
        assert scheme.contains(row[2])
        assert row[4] in (0.0, 1.0)


def test_run_synthetic_shape_and_reproducibility():
    rows = run_synthetic("biased", ("rankingshap", "greedy2"), seed=1)
    assert len(rows) == 5 * 2 * 5  # scenarios x methods x features
    again = run_synthetic("biased", ("rankingshap", "greedy2"), seed=1)
    assert rows == again


def test_run_synthetic_rejects_unknown_variant():
    with pytest.raises(ValueError):
        run_synthetic("sideways")


def test_unbiased_model_shows_smaller_university_bias_gap():
    # The neg_biased and average scenarios differ by one candidate; the
    # university attribution gap between them should be larger under the
    # biased model than under the unbiased one.
    bg = sample_talent_background(100, seed=0)
    gaps = {}
    for variant in ("biased", "unbiased"):
        phi = {
            s: explain_scenario(scenario(s), variant, "rankingshap", bg)
            for s in ("neg_biased", "average")
        }
        gaps[variant] = phi["neg_biased"][3] - phi["average"][3]
    assert gaps["unbiased"] < gaps["biased"]


def test_explain_scenario_unknown_method():
    bg = sample_talent_background(10, seed=0)
    with pytest.raises(ValueError):
        explain_scenario(scenario("average"), "biased", "mystery", bg)


def test_explain_scenario_greedy_readings():
    # A bare greedy<k> is the iterative reading; at k = 2 selection stops on a negative gain.
    bg = sample_talent_background(10, seed=0)
    scen = scenario("neg_biased")
    group = scen.group()
    scorer = TalentScorer("biased")
    objective = KendallTauObjective(reference_ranking(group, scorer))
    result = greedy_attribution(group, scorer, objective, bg, 2, stop_on_negative=True)
    for method, expected in [
        ("greedy2", result.attributions_iter),
        ("greedy2_iter", result.attributions_iter),
        ("greedy2_marg", result.attributions_marg),
    ]:
        np.testing.assert_array_equal(explain_scenario(scen, "biased", method, bg), expected)
