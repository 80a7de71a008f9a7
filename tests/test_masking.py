import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_group
from oracles import apply_mask, masked_group
from rankshap import DimensionError, LinearScorer, coalition_to_template
from rankshap.masking import first_rows


def test_coalition_to_template_empty_masks_everything():
    np.testing.assert_array_equal(coalition_to_template([], 3), [1, 1, 1])


def test_coalition_to_template_visible_bits():
    np.testing.assert_array_equal(coalition_to_template([0, 2], 3), [0, 1, 0])


def test_coalition_to_template_full_set_is_identity_mask():
    t = coalition_to_template(range(4), 4)
    np.testing.assert_array_equal(t, [0, 0, 0, 0])
    x, b = np.array([1.0, 2, 3, 4]), np.array([9.0, 9, 9, 9])
    np.testing.assert_array_equal(apply_mask(x, t, b), x)


def test_coalition_to_template_index_out_of_range():
    with pytest.raises(ValueError):
        coalition_to_template([3], 3)


def test_apply_mask_case_split():
    out = apply_mask([1.0, 2.0], [0, 1], [9.0, 9.0])
    np.testing.assert_array_equal(out, [1.0, 9.0])


def test_apply_mask_all_zero_and_all_one():
    x, b = np.array([1.0, 2.0]), np.array([7.0, 8.0])
    np.testing.assert_array_equal(apply_mask(x, [0, 0], b), x)
    np.testing.assert_array_equal(apply_mask(x, [1, 1], b), b)


def test_apply_mask_length_mismatch():
    with pytest.raises(DimensionError):
        apply_mask([1.0, 2.0], [0, 1, 0], [9.0, 9.0])


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    bits=st.data(),
)
def test_apply_mask_self_background_identity(x, bits):
    t = bits.draw(st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x)))
    x = np.array(x)
    np.testing.assert_array_equal(apply_mask(x, t, x), x)


def test_apply_mask_idempotent(rng):
    x, b = rng.normal(size=5), rng.normal(size=5)
    t = rng.integers(0, 2, size=5)
    once = apply_mask(x, t, b)
    np.testing.assert_array_equal(apply_mask(once, t, b), once)


def test_masked_group_identity_and_full_replacement(rng):
    X = rng.normal(size=(3, 4))
    group = make_group(X)
    b = rng.normal(size=4)
    same = masked_group(group, np.zeros(4, dtype=int), b)
    np.testing.assert_array_equal(same.feature_matrix(), X)
    swapped = masked_group(group, np.ones(4, dtype=int), b)
    assert all(np.array_equal(d.features, b) for d in swapped.documents)


def test_masked_group_preserves_structure(rng):
    X = rng.normal(size=(4, 3))
    group = make_group(X, qid="q9")
    out = masked_group(group, [1, 0, 1], rng.normal(size=3))
    assert out.query_id == "q9"
    assert len(out) == len(group)
    assert [d.doc_index for d in out.documents] == [0, 1, 2, 3]


def test_masking_one_feature_shifts_linear_scores_in_closed_form(rng):
    X = rng.normal(size=(5, 4))
    w = rng.normal(size=4)
    b = rng.normal(size=4)
    scorer = LinearScorer(w)
    group = make_group(X)
    j = 2
    t = np.zeros(4, dtype=int)
    t[j] = 1
    masked = masked_group(group, t, b)
    shift = w[j] * (b[j] - X[:, j])
    np.testing.assert_allclose(
        scorer.score_batch(masked.feature_matrix()),
        scorer.score_batch(X) + shift,
    )


@settings(max_examples=100, deadline=None)
@given(
    dtype=st.sampled_from([np.bool_, np.uint8, np.uint16, np.intp, np.float64]),
    width=st.integers(0, 3),
    rows=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_first_rows_keys_rows_by_their_bytes(dtype, width, rows, seed):
    # Keys of up to 8 bytes sort as integers and wider ones as np.void; either
    # way rows are equal exactly when their bytes are, so -0.0 and 0.0 differ.
    rng = np.random.default_rng(seed)
    if dtype is np.float64:
        keys = rng.choice([0.0, -0.0, 1.5, -1.5], size=(rows, width))
    else:
        keys = rng.integers(0, 3, size=(rows, width)).astype(dtype)
    firsts = {}  # each distinct row's bytes and its first index, in first-seen order
    for i, row in enumerate(keys):
        firsts.setdefault(row.tobytes(), i)
    first, inverse = first_rows(keys)
    assert first.tolist() == list(firsts.values())
    assert inverse.tolist() == [list(firsts).index(row.tobytes()) for row in keys]
    assert keys[first][inverse].tobytes() == keys.tobytes()


def test_first_rows_of_no_rows():
    for keys in (np.zeros((0, 3), dtype=np.uint8), np.zeros((0, 2)), np.zeros((0, 0))):
        first, inverse = first_rows(keys)
        assert first.tolist() == [] and inverse.tolist() == []
