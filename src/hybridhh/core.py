"""Domain types shared by every stage of the pipeline.

A record is a (query, url) pair. The head list is an ordered map from
queries to url lists; the reserved wildcard entry aggregates everything
that fell outside the list. Strings are compared by exact byte equality
after stripping surrounding whitespace; no case folding or url
normalization is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

# Reserved sentinel for the wildcard query/url. Serialized as "*" in all
# external file formats.
STAR = "⋆"


class Record(NamedTuple):
    query: str
    url: str


WILDCARD = Record(STAR, STAR)


class Stage(Enum):
    """Lifecycle stage of a head list."""

    INITIAL = "initial"          # thresholded candidate list, wildcard included
    FINAL = "final"              # trimmed to the top-M queries
    CLIENT_AUGMENTED = "client"  # star query and per-query star url appended


class HeadListError(ValueError):
    pass


@dataclass(frozen=True)
class HeadList:
    """Ordered map query -> url tuple, with a lifecycle stage tag.

    Iteration order is deterministic: insertion order as constructed
    (the opt-in module inserts in descending estimated probability for
    the Final stage).
    """

    entries: Mapping[str, tuple[str, ...]]
    stage: Stage

    def __post_init__(self):
        frozen = {q: tuple(urls) for q, urls in self.entries.items()}
        object.__setattr__(self, "entries", frozen)
        for q, urls in frozen.items():
            if not urls:
                raise HeadListError(f"query {q!r} has an empty url list")
            if len(set(urls)) != len(urls):
                raise HeadListError(f"duplicate urls under query {q!r}")
        if self.stage in (Stage.INITIAL, Stage.FINAL):
            # The star query stands for all mass outside the list, and
            # a regular query lists only urls of its own.
            if frozen.get(STAR) != (STAR,):
                raise HeadListError("the star query must hold exactly the wildcard record")
            for q, urls in frozen.items():
                if q != STAR and STAR in urls:
                    raise HeadListError(f"query {q!r} lists the star url")
        if self.stage is Stage.CLIENT_AUGMENTED:
            if STAR not in frozen:
                raise HeadListError("client-augmented head list lacks the star query")
            for q, urls in frozen.items():
                if STAR not in urls:
                    raise HeadListError(f"query {q!r} lacks the star url")

    # -- shape accessors -------------------------------------------------
    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(self.entries.keys())

    @property
    def k(self) -> int:
        return len(self.entries)

    def urls(self, query: str) -> tuple[str, ...]:
        return self.entries[query]

    def k_q(self, query: str) -> int:
        return len(self.entries[query])

    def __contains__(self, record: Record) -> bool:
        urls = self.entries.get(record.query)
        return urls is not None and record.url in urls

    def records(self) -> Iterator[Record]:
        for q, urls in self.entries.items():
            for u in urls:
                yield Record(q, u)

    def num_records(self) -> int:
        return sum(len(urls) for urls in self.entries.values())

    # -- stage transitions ----------------------------------------------
    def augment_for_clients(self) -> "HeadList":
        """Append the star query and a star url to every query's list."""
        if self.stage is Stage.CLIENT_AUGMENTED:
            return self
        entries: dict[str, tuple[str, ...]] = {}
        for q, urls in self.entries.items():
            if q == STAR:
                continue
            entries[q] = urls + (STAR,)
        entries[STAR] = (STAR,)
        return HeadList(entries, Stage.CLIENT_AUGMENTED)

    # -- serialization ---------------------------------------------------
    def to_tsv(self) -> str:
        lines = []
        for q, urls in self.entries.items():
            for u in urls:
                lines.append(f"{encode_star(q)}\t{encode_star(u)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str, stage: Stage) -> "HeadList":
        entries: dict[str, list[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise HeadListError(f"line {lineno}: expected 2 fields, got {len(parts)}")
            q, u = decode_star(parts[0].strip()), decode_star(parts[1].strip())
            entries.setdefault(q, []).append(u)
        return cls({q: tuple(urls) for q, urls in entries.items()}, stage)


def encode_star(s: str) -> str:
    return "*" if s == STAR else s


def decode_star(s: str) -> str:
    return STAR if s == "*" else s


def canonicalize(record: Record, hl: HeadList) -> Record:
    """Map a record onto the head list.

    Initial/Final stage: a record outside the list collapses to the
    wildcard. Client-augmented stage: the query collapses to star if
    absent, then the url collapses to star if absent from the query's
    list. The result is always a member of the head list.
    """
    if hl.stage is Stage.CLIENT_AUGMENTED:
        q = record.query if record.query in hl.entries else STAR
        u = record.url if record.url in hl.entries[q] else STAR
        return Record(q, u)
    return record if record in hl else WILDCARD


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budgets and pipeline knobs.

    The per-record budgets follow from the per-user (epsilon, delta)
    divided by the number of collected records, then split between the
    query and url reporting stages by f_C.
    """

    epsilon: float = 4.0
    delta: float = 1e-5
    m_O: int = 1
    m_C: int = 1
    f_O: float = 0.95
    f_C: float = 0.85
    M: int = 50
    optin_fraction: float = 0.05

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParamError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ParamError("delta must lie in (0, 1)")
        if self.m_O != 1 or self.m_C != 1:
            # The variance and privacy statements are only established
            # for one record per user.
            raise ParamError("only m_O = m_C = 1 is supported")
        for name in ("f_O", "f_C", "optin_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ParamError(f"{name} must lie in (0, 1)")
        if self.M < 1:
            raise ParamError("M must be >= 1")

    # Per-record budgets.
    @property
    def eps_prime(self) -> float:
        return self.epsilon / self.m_C

    @property
    def delta_prime(self) -> float:
        return self.delta / self.m_C

    # Query/url stage split of the per-record budget.
    @property
    def eps_q(self) -> float:
        return self.f_C * self.eps_prime

    @property
    def eps_u(self) -> float:
        return self.eps_prime - self.eps_q

    @property
    def delta_q(self) -> float:
        return self.f_C * self.delta_prime

    @property
    def delta_u(self) -> float:
        return self.delta_prime - self.delta_q


@dataclass(frozen=True)
class EstimateVector:
    """Probability and variance estimates keyed by head-list records.

    Query-level estimates are carried alongside the record-level ones;
    both refer to the same head list.
    """

    record_probs: Mapping[Record, float]
    record_vars: Mapping[Record, float]
    query_probs: Mapping[str, float]
    query_vars: Mapping[str, float]
    sample_size: int

    def __post_init__(self):
        object.__setattr__(self, "record_probs", dict(self.record_probs))
        object.__setattr__(self, "record_vars", dict(self.record_vars))
        object.__setattr__(self, "query_probs", dict(self.query_probs))
        object.__setattr__(self, "query_vars", dict(self.query_vars))
        if self.sample_size < 1:
            raise ParamError("sample_size must be positive")
        if set(self.record_probs) != set(self.record_vars):
            raise ParamError("record prob/var keys differ")
        for v in self.record_vars.values():
            if not (math.isfinite(v) and v >= 0):
                raise ParamError("variances must be finite and non-negative")
        for v in self.query_vars.values():
            if not (math.isfinite(v) and v >= 0):
                raise ParamError("variances must be finite and non-negative")
