"""LETOR/SVMLight ranking data: parsing, query grouping, background sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, ParseError


@dataclass(frozen=True)
class Document:
    """One candidate item of a query, with its feature vector and label."""

    query_id: str
    doc_index: int
    features: np.ndarray
    relevance: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        self.features.setflags(write=False)
        if self.relevance < 0:
            raise ValueError(f"relevance must be non-negative, got {self.relevance}")


@dataclass(frozen=True)
class QueryGroup:
    """All documents of one query, in file order."""

    query_id: str
    documents: tuple[Document, ...]
    n: int

    def __post_init__(self):
        if not self.documents:
            raise ValueError("query group must be non-empty")
        for d in self.documents:
            if d.query_id != self.query_id:
                raise ValueError(f"document qid {d.query_id!r} != group qid {self.query_id!r}")
            if len(d.features) != self.n:
                raise DimensionError(
                    f"document has {len(d.features)} features, group expects {self.n}"
                )

    def __len__(self) -> int:
        return len(self.documents)

    def feature_matrix(self) -> np.ndarray:
        """(m, n) matrix with one row per document."""
        return np.stack([d.features for d in self.documents])


@dataclass(frozen=True)
class BackgroundSet:
    """Feature vectors used to impute masked features, plus the seed that drew them."""

    vectors: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        if self.vectors.ndim != 2 or self.vectors.shape[0] == 0:
            raise ValueError("background set must be a non-empty 2-d array")
        self.vectors.setflags(write=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


def background_array(background: BackgroundSet | np.ndarray) -> np.ndarray:
    """The float rows of a BackgroundSet or of a plain 2-d array."""
    return np.asarray(getattr(background, "vectors", background), dtype=float)


def _parse_line(line: str, line_no: int) -> tuple[int, str, dict[int, float]]:
    body = line.split("#", 1)[0].strip()
    tokens = body.split()
    if len(tokens) < 2:
        raise ParseError(line_no, "expected '<label> qid:<id> <k>:<v> ...'")
    try:
        relevance = int(tokens[0])
    except ValueError:
        raise ParseError(line_no, f"non-numeric relevance label {tokens[0]!r}") from None
    if relevance < 0:
        raise ParseError(line_no, f"negative relevance label {relevance}")
    if not tokens[1].startswith("qid:") or len(tokens[1]) == 4:
        raise ParseError(line_no, f"missing qid, got {tokens[1]!r}")
    qid = tokens[1][4:]
    feats: dict[int, float] = {}
    for tok in tokens[2:]:
        key_s, _, val_s = tok.partition(":")
        try:
            key = int(key_s)
            val = float(val_s)
        except ValueError:
            raise ParseError(line_no, f"malformed feature token {tok!r}") from None
        if key < 1:
            raise ParseError(line_no, f"feature keys are 1-based, got {key}")
        if key in feats:
            raise ParseError(line_no, f"duplicate feature key {key}")
        feats[key] = val
    # One sum per line keeps the check cheap; a sum that overflowed from
    # finite values passes the per-value check.
    if not math.isfinite(sum(feats.values())):
        for key, val in feats.items():
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value {key}:{val!r}")
    if "_" in body or not body.isascii():
        # int() and float() take digit-group underscores and non-ASCII
        # digits, which no LETOR number holds; a query id may hold either.
        for tok in tokens[:1] + tokens[2:]:
            if "_" in tok or not tok.isascii():
                raise ParseError(
                    line_no, f"numeric token {tok!r} holds '_' or a non-ASCII character"
                )
    return relevance, qid, feats


def parse_letor(text: str | Iterable[str]) -> list[Document]:
    """Parse LETOR/SVMLight lines into documents.

    The feature dimension is the maximum 1-based feature key seen anywhere in
    the input; keys missing on a line default to 0.0. A `str` is split with
    `str.splitlines`; any other iterable of lines (an open file, say) is read
    once, as given. Each line becomes a float vector as soon as it is parsed,
    so memory is about one float per feature plus the text.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    rows = []
    for line_no, line in enumerate(lines, start=1):
        if not line.split("#", 1)[0].strip():
            continue
        relevance, qid, feats = _parse_line(line, line_no)
        vec = np.zeros(max(feats, default=0))
        for key, val in feats.items():
            vec[key - 1] = val
        rows.append((relevance, qid, vec))
    n = max((len(vec) for _, _, vec in rows), default=0)
    docs: list[Document] = []
    counters: dict[str, int] = {}
    for relevance, qid, vec in rows:
        if len(vec) < n:
            vec = np.concatenate([vec, np.zeros(n - len(vec))])
        idx = counters.get(qid, 0)
        counters[qid] = idx + 1
        docs.append(Document(query_id=qid, doc_index=idx, features=vec, relevance=relevance))
    return docs


def serialize_letor(doc: Document) -> str:
    """Render a document back to one LETOR line (dense, 1-based keys)."""
    feats = " ".join(f"{k + 1}:{float(v)!r}" for k, v in enumerate(doc.features))
    return f"{doc.relevance} qid:{doc.query_id} {feats}"


def group_by_query(docs: list[Document]) -> list[QueryGroup]:
    """Group documents by query id, preserving first-appearance order."""
    if not docs:
        return []
    n = len(docs[0].features)
    by_qid: dict[str, list[Document]] = {}
    for d in docs:
        if len(d.features) != n:
            raise DimensionError(
                f"inconsistent feature dimensions: {len(d.features)} vs {n}"
            )
        by_qid.setdefault(d.query_id, []).append(d)
    return [QueryGroup(qid, tuple(ds), n) for qid, ds in by_qid.items()]


def sample_background(docs: list[Document], size: int, seed: int) -> BackgroundSet:
    """Sample feature vectors uniformly from `docs` as background data.

    Sampling is without replacement when size <= len(docs), with replacement
    otherwise; deterministic for a fixed seed.
    """
    if not docs:
        raise ValueError("cannot sample background from an empty document list")
    if size <= 0:
        raise ValueError(f"background size must be positive, got {size}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(docs), size=size, replace=size > len(docs))
    vectors = np.stack([docs[i].features for i in idx])
    return BackgroundSet(vectors=vectors, seed=seed)
