import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankshap import (
    DimensionError,
    ParseError,
    group_by_query,
    parse_letor,
    sample_background,
    serialize_letor,
)


def test_parse_single_line():
    docs = parse_letor("2 qid:10 1:0.5 2:0.25")
    assert len(docs) == 1
    d = docs[0]
    assert d.query_id == "10"
    assert d.relevance == 2
    assert d.doc_index == 0
    np.testing.assert_array_equal(d.features, [0.5, 0.25])


def test_parse_sparse_defaults_to_zero():
    docs = parse_letor("1 qid:7 2:1.0\n0 qid:7 3:2.0")
    np.testing.assert_array_equal(docs[0].features, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(docs[1].features, [0.0, 0.0, 2.0])


def test_parse_comments_and_blank_lines():
    text = "# header\n\n1 qid:1 1:0.5 # trailing comment\n"
    docs = parse_letor(text)
    assert len(docs) == 1
    assert docs[0].features[0] == 0.5


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x qid:1 1:0.1", "label"),
        ("1 1:0.1", "qid"),
        ("1 qid:1 1:abc", "malformed"),
        ("1 qid:1 1:0.1 1:0.2", "duplicate"),
    ],
)
def test_parse_errors_carry_line_number(line, fragment):
    with pytest.raises(ParseError, match="line 1"):
        parse_letor(line)


@settings(max_examples=30, deadline=None)
@given(
    bad=st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]),
    line_no=st.integers(1, 4),
)
def test_parse_rejects_non_finite_values(bad, line_no):
    lines = [f"1 qid:1 1:0.5 2:{i}.25" for i in range(4)]
    lines[line_no - 1] = f"1 qid:1 1:0.5 2:{bad}"
    with pytest.raises(ParseError, match=f"line {line_no}: non-finite") as exc:
        parse_letor("\n".join(lines))
    assert exc.value.line_no == line_no


def test_parse_accepts_finite_values_whose_sum_overflows():
    (doc,) = parse_letor("1 qid:1 1:1.7e308 2:1.7e308 3:-1e308")
    np.testing.assert_array_equal(doc.features, [1.7e308, 1.7e308, -1e308])


def test_parse_error_on_later_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_letor("1 qid:1 1:0.1\n1 qid:1 1:0.2\nbad line here")


def test_doc_index_assigned_per_query():
    docs = parse_letor("0 qid:a 1:1\n0 qid:b 1:2\n0 qid:a 1:3")
    assert [d.doc_index for d in docs] == [0, 0, 1]


def test_group_by_query_sizes_and_order():
    docs = parse_letor("0 qid:a 1:1\n0 qid:a 1:2\n0 qid:b 1:3")
    groups = group_by_query(docs)
    assert [(g.query_id, len(g)) for g in groups] == [("a", 2), ("b", 1)]


def test_group_by_query_empty():
    assert group_by_query([]) == []


def test_group_by_query_first_appearance_order():
    docs = parse_letor("0 qid:b 1:1\n0 qid:a 1:2\n1 qid:b 1:3")
    groups = group_by_query(docs)
    assert [g.query_id for g in groups] == ["b", "a"]
    assert [d.features[0] for d in groups[0].documents] == [1.0, 3.0]


def test_group_by_query_preserves_multiset():
    docs = parse_letor("\n".join(f"0 qid:{i % 3} 1:{i}" for i in range(12)))
    groups = group_by_query(docs)
    regrouped = sorted(d.features[0] for g in groups for d in g.documents)
    assert regrouped == [float(i) for i in range(12)]


def test_group_by_query_dimension_error():
    from rankshap import Document

    docs = [
        Document("a", 0, np.zeros(2), 0),
        Document("a", 1, np.zeros(3), 0),
    ]
    with pytest.raises(DimensionError):
        group_by_query(docs)


def test_sample_background_deterministic():
    docs = parse_letor("\n".join(f"0 qid:q 1:{i}" for i in range(1000)))
    a = sample_background(docs, 100, seed=7)
    b = sample_background(docs, 100, seed=7)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    c = sample_background(docs, 100, seed=8)
    assert not np.array_equal(a.vectors, c.vectors)


def test_sample_background_exhaustive_is_permutation():
    docs = parse_letor("\n".join(f"0 qid:q 1:{i}" for i in range(5)))
    bg = sample_background(docs, 5, seed=0)
    assert sorted(bg.vectors[:, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_sample_background_with_replacement_when_oversized():
    docs = parse_letor("0 qid:q 1:1\n0 qid:q 1:2")
    bg = sample_background(docs, 10, seed=0)
    assert len(bg) == 10


def test_sample_background_rejects_zero_size():
    docs = parse_letor("0 qid:q 1:1")
    with pytest.raises(ValueError):
        sample_background(docs, 0, seed=0)


def test_sample_background_mq2008_dimension():
    lines = [
        " ".join(["1", f"qid:{q}"] + [f"{k}:{0.01 * k * q}" for k in range(1, 47)])
        for q in range(1, 12)
        for _ in range(10)
    ]
    docs = parse_letor("\n".join(lines))
    bg = sample_background(docs, 100, seed=3)
    assert bg.vectors.shape == (100, 46)


@settings(max_examples=50, deadline=None)
@given(
    relevance=st.integers(0, 4),
    qid=st.text(alphabet="abc123", min_size=1, max_size=5),
    features=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=1, max_size=10
    ),
)
def test_serialize_parse_round_trip(relevance, qid, features):
    from rankshap import Document

    doc = Document(query_id=qid, doc_index=0, features=np.array(features), relevance=relevance)
    (back,) = parse_letor(serialize_letor(doc))
    assert back.query_id == doc.query_id
    assert back.relevance == doc.relevance
    np.testing.assert_allclose(back.features, doc.features, rtol=0, atol=1e-12)
