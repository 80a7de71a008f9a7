import pytest

from rankshap.errors import (
    CapacityError,
    DimensionError,
    EstimationError,
    ParseError,
    naming_query,
)


@pytest.mark.parametrize("make", [
    lambda: ValueError("bad value"),
    lambda: DimensionError("bad value"),
    lambda: CapacityError("bad value"),
    lambda: EstimationError("bad value"),
], ids=["ValueError", "DimensionError", "CapacityError", "EstimationError"])
def test_naming_query_prefixes_the_query_and_keeps_the_error(make):
    raised = make()
    with pytest.raises(type(raised)) as info:
        with naming_query("q7"):
            raise raised
    assert info.value is raised
    assert str(info.value) == "query 'q7': bad value"


def test_naming_query_keeps_the_attributes_of_a_parse_error():
    with pytest.raises(ParseError) as info:
        with naming_query("q7"):
            raise ParseError(3, "no qid")
    assert str(info.value) == "query 'q7': line 3: no qid"
    assert info.value.line_no == 3


@pytest.mark.parametrize("raised", [
    RuntimeError("boom"), KeyError("boom"), FloatingPointError("boom"),
], ids=["RuntimeError", "KeyError", "FloatingPointError"])
def test_naming_query_leaves_other_errors_unchanged(raised):
    message = str(raised)
    with pytest.raises(type(raised)) as info:
        with naming_query("q7"):
            raise raised
    assert info.value is raised
    assert str(info.value) == message


def test_naming_query_passes_a_clean_body_through():
    with naming_query("q7"):
        result = 1 + 1
    assert result == 2
