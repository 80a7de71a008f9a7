"""Exception types shared across the package."""

from contextlib import contextmanager


class RankShapError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RankShapError, ValueError):
    """Malformed input data; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DimensionError(RankShapError, ValueError):
    """Feature-vector or permutation dimensions do not agree."""


class CapacityError(RankShapError, ValueError):
    """Requested exact enumeration exceeds the configured limit."""


class EstimationError(RankShapError, RuntimeError):
    """An estimator could not produce a result (e.g. singular regression)."""


@contextmanager
def naming_query(query_id: str):
    """Prefix `query '<id>': ` to the message of a ValueError or RankShapError
    raised inside, keeping its type: the error of one query in a file of many."""
    try:
        yield
    except (ValueError, RankShapError) as exc:
        exc.args = (f"query {query_id!r}: {exc}",)
        raise
