import numpy as np
import pytest

from oracles import decode_candidate, norm_grade, talent_score
from rankshap import (
    CANDIDATES,
    TalentCandidate,
    TalentScorer,
    University,
    talent_features,
)
from rankshap.talent import SCHEMES, UNIVERSITY_CODES


def test_norm_grade_us():
    assert norm_grade(3.5, SCHEMES[University.US]) == pytest.approx((3.5 - 1) / 3)


def test_norm_grade_net_midpoint():
    assert norm_grade(8, SCHEMES[University.NET]) == pytest.approx(0.5)


def test_norm_grade_ger_reversed_endpoint():
    assert norm_grade(1, SCHEMES[University.GER]) == pytest.approx(1.0)
    assert norm_grade(4, SCHEMES[University.GER]) == pytest.approx(0.0)


def test_norm_grade_outside_interval():
    with pytest.raises(ValueError):
        norm_grade(5.0, SCHEMES[University.US])
    with pytest.raises(ValueError):
        norm_grade(5.0, SCHEMES[University.GER])


def test_talent_score_qualified_1_biased():
    # 0.8 + 0.55 + (3.5-1)/3
    assert talent_score(CANDIDATES["qualified-1"], "biased") == pytest.approx(2.18333, abs=1e-4)


def test_talent_score_non_qualified_penalized():
    assert talent_score(CANDIDATES["non-qualified"], "biased") == pytest.approx(0.21333, abs=1e-4)


def test_talent_score_nepotism_exemption():
    # No 0.1 penalty despite not meeting requirements.
    c = CANDIDATES["non-qualified-privileged"]
    assert talent_score(c, "biased") == pytest.approx(2.26667, abs=1e-4)
    assert talent_score(c, "unbiased") == pytest.approx(0.226667, abs=1e-5)


def test_talent_score_neg_bias_factor():
    c = CANDIDATES["qualified-biased"]
    base = 0.8 + 0.6 + (3.6 - 1) / 3
    assert talent_score(c, "biased") == pytest.approx(0.7 * base)
    assert talent_score(c, "unbiased") == pytest.approx(base)


def test_unbiased_depends_on_university_only_via_norm_grade():
    a = TalentCandidate(0.5, 0.5, 2.5, University.US, True)  # norm 0.5
    b = TalentCandidate(0.5, 0.5, 8.0, University.NET, True)  # norm 0.5
    assert talent_score(a, "unbiased") == pytest.approx(talent_score(b, "unbiased"))


def test_talent_features_qualified_2():
    np.testing.assert_allclose(
        talent_features(CANDIDATES["qualified-2"]), [0.7, 0.3, 3.0, 0.0, 1.0]
    )


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_encode_decode_round_trip(name):
    assert decode_candidate(talent_features(CANDIDATES[name])) == CANDIDATES[name]


def test_decode_unknown_university_code():
    with pytest.raises(ValueError, match="university code"):
        decode_candidate(np.array([0.5, 0.5, 3.0, 9.0, 1.0]))


def test_scorer_matches_candidate_scoring():
    for variant in ("biased", "unbiased"):
        scorer = TalentScorer(variant)
        for c in CANDIDATES.values():
            assert scorer.score(talent_features(c)) == pytest.approx(
                talent_score(c, variant)
            )


def test_masking_university_slot_changes_scheme_and_bias():
    scorer = TalentScorer("biased")
    x = talent_features(CANDIDATES["qualified-1"])  # us, grade 3.5
    before = scorer.score(x)
    swapped = x.copy()
    swapped[3] = 3.0  # ger scheme: 3.5 is near-failing instead of near-best
    after = scorer.score(swapped)
    assert after < before
    # Swapping to the negatively biased university triggers the 0.7 factor.
    swapped[3] = 2.0
    assert scorer.score(swapped) == pytest.approx(0.7 * before)


def test_candidate_invariants():
    with pytest.raises(ValueError):
        TalentCandidate(1.5, 0.5, 3.0, University.US, True)
    with pytest.raises(ValueError):
        TalentCandidate(0.5, 0.5, 0.5, University.US, True)  # below worst passing


def test_scorer_clips_mixed_grade_scheme_combinations():
    scorer = TalentScorer("biased")
    # net grade under the us scheme: normalized grade saturates at 1.
    x = np.array([0.0, 0.0, 8.0, 0.0, 1.0])
    assert scorer.score(x) == pytest.approx(1.0)
    # us grade under the net scheme: saturates at 0.
    y = np.array([0.0, 0.0, 3.5, 4.0, 1.0])
    assert scorer.score(y) == pytest.approx(0.0)


def test_university_codes_follow_the_enum_order():
    assert list(UNIVERSITY_CODES.items()) == [(u, i) for i, u in enumerate(University)]


@pytest.mark.parametrize("university", list(University))
def test_biased_scorer_reads_each_bias_from_schemes(university):
    scheme = SCHEMES[university]
    scorer = TalentScorer("biased")
    for meets in (True, False):
        # The best grade normalizes to 1, so the unbiased base score is 2.
        x = talent_features(TalentCandidate(0.5, 0.5, scheme.best_grade, university, meets))
        factor = 0.7 if scheme.bias == "negative" else 1.0
        if not meets and scheme.bias != "positive":
            factor *= 0.1
        assert scorer.score(x) == pytest.approx(2.0 * factor)
