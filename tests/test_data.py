import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

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


@pytest.mark.parametrize("bad, token", [
    ("1_0 qid:1 1:0.5", "1_0"),
    ("1 qid:1 1:0_5", "1:0_5"),
    ("1 qid:1 1_0:0.5", "1_0:0.5"),
    ("1 qid:1 1:١", "1:١"),
    ("1 qid:1 1:１.5", "1:１.5"),
    ("٢ qid:1 1:0.5", "٢"),
])
def test_parse_rejects_underscored_and_non_ascii_numbers(bad, token):
    # int() and float() read "1_0" as 10 and the Arabic-Indic "١" as 1.
    with pytest.raises(ParseError, match="line 2: numeric token") as exc:
        parse_letor(f"1 qid:1 1:0.5\n{bad}\n1 qid:1 1:0.5")
    assert repr(token) in str(exc.value)


def test_parse_keeps_query_ids_with_underscores_and_non_ascii():
    docs = parse_letor("1 qid:q_1 1:0.5\n0 qid:é 1:0.25 # café")
    assert [d.query_id for d in docs] == ["q_1", "é"]


def test_parse_reads_an_iterable_once_and_lazily():
    text = "# head\n1 qid:a 2:0.5\n\n0 qid:a 1:-0.0 3:2\n"
    docs = parse_letor(io.StringIO(text))
    assert [d.features.tolist() for d in docs] == [[0.0, 0.5, 0.0], [-0.0, 0.0, 2.0]]
    assert np.signbit(docs[1].features[0])

    def lines():
        yield "1 qid:a 1:0.5"
        yield "1 qid:a 1:x"
        raise AssertionError("line 3 read after line 2 failed")

    with pytest.raises(ParseError, match="line 2"):
        parse_letor(lines())


_SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]
_BAD_LINES = ["x qid:1 1:0.5", "1 1:0.5", "1 qid:1 1:abc", "1 qid:1 1:0.1 1:0.2",
              "1 qid:1 0:0.5", "1 qid:1 1:inf", "1_0 qid:1 1:0.5", "1 qid:1 1:١"]


@st.composite
def _letor_lines(draw):
    kind = draw(st.sampled_from(["doc"] * 6 + ["blank", "comment", "bad"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return "# a comment: 1 qid:9 1:5"
    if kind == "bad":
        return draw(st.sampled_from(_BAD_LINES))
    keys = draw(st.lists(st.integers(1, 12), unique=True, max_size=12))
    values = [draw(st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([0.0, -0.0, 1e308])) for _ in keys]
    feats = " ".join(f"{k}:{v!r}" for k, v in zip(keys, values))
    label, qid = draw(st.integers(0, 4)), draw(st.sampled_from(["1", "2", "q_3"]))
    tail = draw(st.sampled_from(["", " # doc", "  "]))
    return f"{label} qid:{qid} {feats}{tail}"


def _parse_outcome(parse, text):
    try:
        docs = parse(text)
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))
    return [(d.relevance, d.query_id, d.doc_index, d.features.shape, d.features.tobytes())
            for d in docs]


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(_letor_lines(), max_size=12),
    seps=st.lists(st.sampled_from(_SEPARATORS), min_size=12, max_size=12),
    final=st.sampled_from(["", "\n", "\r\n"]),
    as_iterable=st.booleans(),
)
def test_parse_matches_the_dict_oracle(lines, seps, final, as_iterable):
    text = "".join(line + sep for line, sep in zip(lines, seps)) + final
    if as_iterable:
        ours = _parse_outcome(parse_letor, iter(text.splitlines(keepends=True)))
        expected = _parse_outcome(oracles.parse_letor_dicts,
                                  iter(text.splitlines(keepends=True)))
    else:
        ours = _parse_outcome(parse_letor, text)
        expected = _parse_outcome(oracles.parse_letor_dicts, text)
    assert ours == expected


def test_parse_memory_follows_the_dense_output():
    # 1,600 lines x 136 features, the longlist-mslr shape. A dict of boxed
    # floats per line held to the end peaked at about 10x the output.
    rng = np.random.default_rng(5)
    X = np.round(rng.random((1600, 136)), 6)
    text = "".join(
        f"{i % 3} qid:{i // 200} " + " ".join(f"{k}:{v!r}" for k, v in enumerate(x.tolist(), 1))
        + "\n"
        for i, x in enumerate(X)
    )
    del X
    tracemalloc.start()
    try:
        docs = parse_letor(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = len(docs) * docs[0].features.nbytes
    assert dense == 1600 * 136 * 8
    assert peak <= 4 * dense, f"parse peak {peak / dense:.1f}x the dense output"
