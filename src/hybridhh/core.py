"""Domain types shared by every stage of the pipeline.

A record is a (query, url) pair. A record table holds a dataset's
distinct records in sorted order as columns, and record counts are
arrays over its ids. The head list is an ordered map from queries to url
lists; the reserved wildcard entry aggregates everything that fell
outside the list, whose records are numbered once, as slots. Where a
record lands on a list is decided here alone: `canonicalize` for one
record, `record_slots` for a whole table. Estimates are arrays over a
list's slots and queries. Strings are compared by
exact byte equality after stripping surrounding whitespace; no case
folding or url normalization is performed.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from itertools import chain, combinations, repeat
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

# Reserved sentinel for the wildcard query/url. Serialized as "*" in all
# external file formats.
STAR = "⋆"


class Record(NamedTuple):
    query: str
    url: str


WILDCARD = Record(STAR, STAR)


@dataclass(frozen=True, eq=False)
class RecordTable(Sequence[Record]):
    """Distinct records in sorted order, held as columns: the sorted
    distinct query and url strings, and each record's int32 ids into
    them. Strings and ids both sort in code-point order, so record ids
    follow record order and each query's records hold one contiguous id
    range. Indexing builds the record."""

    queries: tuple[str, ...]
    urls: tuple[str, ...]
    query_ids: np.ndarray = field(repr=False)
    url_ids: np.ndarray = field(repr=False)

    def __post_init__(self):
        # Consumers read ids in record order and each query's records as one id run.
        if not (
            all(map(operator.lt, self.queries, self.queries[1:]))
            and all(map(operator.lt, self.urls, self.urls[1:]))
            and np.all(np.diff(_keys(self.query_ids, self.url_ids)) > 0)
        ):
            raise ParamError("record table is not strictly increasing")

    @classmethod
    def of(cls, queries: Sequence[str], urls: Sequence[str]) -> tuple[RecordTable, np.ndarray]:
        """The table of the records (queries[i], urls[i]), and the int32
        array that maps each i to its record's id."""
        query_names, query_ids = _names(queries)
        url_names, url_ids = _names(urls)
        keys, rank = np.unique(_keys(query_ids, url_ids), return_inverse=True)
        columns = (keys >> 32).astype(np.int32), (keys & 0xFFFFFFFF).astype(np.int32)
        return cls(query_names, url_names, *columns), rank.astype(np.int32)

    def __len__(self) -> int:
        return len(self.query_ids)

    def __getitem__(self, i: int) -> Record:
        return Record(self.queries[self.query_ids[i]], self.urls[self.url_ids[i]])

    def __iter__(self) -> Iterator[Record]:
        return map(
            Record,
            map(self.queries.__getitem__, self.query_ids.tolist()),
            map(self.urls.__getitem__, self.url_ids.tolist()),
        )

    @cached_property
    def star(self) -> tuple[int, int]:
        """The star's position among the query names and among the url names, or -1."""
        return _position(self.queries, STAR), _position(self.urls, STAR)


def _names(strings: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct strings, and each string's int32 position there."""
    names = sorted(set(strings))
    index = dict(zip(names, range(len(names))))
    return tuple(names), np.fromiter(map(index.__getitem__, strings), np.int32, len(strings))


def _keys(query_ids: np.ndarray, url_ids: np.ndarray) -> np.ndarray:
    """Each record's (query id, url id) as one int64 key, which sorts as the pair does."""
    return query_ids.astype(np.int64) << 32 | url_ids


def _position(items: Sequence, item) -> int:
    """The item's position in the sorted sequence `items`, or -1 if absent."""
    i = bisect_left(items, item)
    return i if i < len(items) and items[i] == item else -1


class RecordCounts:
    """A count array over a record table's ids. It iterates the records
    of nonzero count, in table order."""

    def __init__(self, table: RecordTable, counts: np.ndarray):
        self.table = table
        self.counts = counts

    nonzero = cached_property(lambda self: np.flatnonzero(self.counts))

    @classmethod
    def of(cls, records: Iterable[Record] | Mapping[Record, int]) -> RecordCounts:
        """Records, or counts keyed by record, as counts over a table of
        the records; a `RecordCounts` is returned as it is."""
        if isinstance(records, RecordCounts):
            return records
        counts = Counter(records)  # a mapping is taken as it is: its counts, in its order
        keys = list(counts)
        table, rank = RecordTable.of([r.query for r in keys], [r.url for r in keys])
        held = np.zeros(len(table), dtype=np.int64)
        held[rank] = list(counts.values())
        return cls(table, held)

    def __iter__(self) -> Iterator[Record]:
        return map(self.table.__getitem__, self.nonzero.tolist())


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
    the Final stage). `of_query`, each slot's position in `queries`, and
    `starts`, each query's first slot, are built at construction; the
    records and `slot`, each record's position in them, once, on first
    read. A list that comes from an admission carries the admission's
    record table and each record's id there, -1 on star records, which
    `record_slots` reads.
    """

    entries: Mapping[str, tuple[str, ...]]
    stage: Stage
    carried: tuple[RecordTable, np.ndarray] | None = field(default=None, compare=False, repr=False)
    of_query: np.ndarray = field(init=False, compare=False, repr=False)
    starts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        frozen = {q: tuple(urls) for q, urls in self.entries.items()}
        object.__setattr__(self, "entries", frozen)
        for q, urls in frozen.items():
            if not urls:
                raise HeadListError(f"query {q!r} has an empty url list")
            if len(urls) > 1 and len(set(urls)) != len(urls):
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
        widths = list(map(len, frozen.values()))
        object.__setattr__(self, "of_query", np.repeat(np.arange(len(frozen)), widths))
        object.__setattr__(self, "starts", np.cumsum(widths) - widths)

    @cached_property
    def _records(self) -> tuple[Record, ...]:
        # Each record is built in C: the queries repeated by width beside the urls.
        queries = chain.from_iterable(map(repeat, self.entries, map(len, self.entries.values())))
        pairs = zip(queries, chain.from_iterable(self.entries.values()))
        return tuple(map(tuple.__new__, repeat(Record), pairs))

    slot = cached_property(lambda self: dict(zip(self._records, range(len(self._records)))))

    # -- shape accessors -------------------------------------------------
    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(self.entries.keys())

    @property
    def k(self) -> int:
        return len(self.entries)

    def urls(self, query: str) -> tuple[str, ...]:
        return self.entries[query]

    def __contains__(self, record: Record) -> bool:
        return record in self.slot

    def slots(self, records: Collection[Record]) -> np.ndarray:
        """Each record's slot, or -1 for a record the list does not hold."""
        return np.fromiter(map(self.slot.get, records, repeat(-1)), np.int64, len(records))

    def records(self) -> tuple[Record, ...]:
        return self._records

    def num_records(self) -> int:
        return len(self.of_query)

    @property
    def wildcard(self) -> int:
        """The wildcard record's slot."""
        return int(self.starts[list(self.entries).index(STAR)]) + self.entries[STAR].index(STAR)

    # -- stage transitions ----------------------------------------------
    def augment_for_clients(self) -> "HeadList":
        """Append the star query and a star url to every query's list."""
        entries = {q: urls + (STAR,) for q, urls in self.entries.items() if q != STAR}
        carried = None
        if self.carried is not None:
            # The regular records keep their ids; each query's star record
            # follows them and the wildcard comes last, both -1, as
            # `record_slots` needs no star record's id.
            table, ids = self.carried
            ends = np.cumsum([len(urls) - 1 for urls in entries.values()], dtype=np.int64)
            carried = table, np.append(np.insert(ids[ids >= 0], ends, -1), -1)
        return HeadList({**entries, STAR: (STAR,)}, Stage.CLIENT_AUGMENTED, carried)

    # -- serialization ---------------------------------------------------
    def to_tsv(self) -> str:
        return "".join(f"{encode_star(q)}\t{encode_star(u)}\n" for q, u in self.records())

    @classmethod
    def from_tsv(cls, text: str, stage: Stage) -> "HeadList":
        entries: dict[str, list[str]] = {}
        # Only "\n" ends a line: a name may hold any other line break.
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
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


def record_slots(table: RecordTable, hl: HeadList) -> np.ndarray:
    """Each table record's slot in `hl.records()` order, once
    canonicalized as in `canonicalize`. A table other than the one `hl`
    carries ids for is canonicalized record by record.

    On the carried table each of the table's queries has one slot its
    unlisted records fold to: the wildcard's, or on a client-augmented
    list a listed regular query's star slot, its last, whose carried id
    is -1. Each record reads its query's, and each listed record then
    takes its own.
    """
    if hl.carried is None or hl.carried[0] is not table:
        return hl.slots([canonicalize(record, hl) for record in table])
    ids = hl.carried[1]
    folds_to = np.full(len(table.queries), hl.wildcard, dtype=np.int64)
    last = np.append(hl.starts[1:], len(ids)) - 1
    starred = np.flatnonzero((ids[hl.starts] >= 0) & (ids[last] < 0))
    folds_to[table.query_ids[ids[hl.starts[starred]]]] = last[starred]
    slots = folds_to[table.query_ids]
    listed = np.flatnonzero(ids >= 0)
    slots[ids[listed]] = listed
    return slots


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budgets and pipeline knobs.

    Each user reports one record, so the per-record budget is the
    per-user (epsilon, delta), split between the query and url
    reporting stages by f_C in `client.build_report_model`.
    """

    epsilon: float = 4.0
    delta: float = 1e-5
    m_O: int = 1
    f_O: float = 0.95
    f_C: float = 0.85
    M: int = 50
    optin_fraction: float = 0.05

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ParamError("epsilon must be positive and finite")
        if not 0 < self.delta < 1:
            raise ParamError("delta must lie in (0, 1)")
        if self.m_O != 1:
            # The variance and privacy statements are only established
            # for one record per user.
            raise ParamError("only m_O = 1 is supported")
        for name in ("f_O", "f_C", "optin_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ParamError(f"{name} must lie in (0, 1)")
        # Past this budget the larger stage's e^epsilon overflows a float.
        limit = math.log(sys.float_info.max) / max(self.f_C, 1 - self.f_C)
        if not self.epsilon < limit:
            raise ParamError(f"epsilon must be below {limit} at f_C = {self.f_C}")
        if self.M < 1:
            raise ParamError("M must be >= 1")

    # Per-record budgets, named as acceptance criterion 1 reads them.
    @property
    def eps_prime(self) -> float:
        return self.epsilon

    @property
    def delta_prime(self) -> float:
        return self.delta


def left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """`start` plus the values, added left to right. Python's `sum`
    compensates float sums from 3.12, so its last bits vary by version."""
    return reduce(operator.add, values, start)


def keyed(keys: Iterable, values: np.ndarray) -> Mapping:
    """A read-only mapping from each key to its value in `values`."""
    return MappingProxyType(dict(zip(keys, values.tolist())))


@dataclass(frozen=True, eq=False)
class EstimateVector:
    """Probability and variance estimates over a head list, as float64 arrays
    in `head_list.records()` order and, for queries, `head_list.queries` order."""

    head_list: HeadList
    p: np.ndarray
    var: np.ndarray
    query_p: np.ndarray
    query_var: np.ndarray

    def __post_init__(self):
        shapes = {self.p.shape, self.var.shape}, {self.query_p.shape, self.query_var.shape}
        if shapes != ({(self.head_list.num_records(),)}, {(self.head_list.k,)}):
            raise ParamError("estimate arrays do not match the head list's records and queries")
        variances = np.concatenate([self.var, self.query_var])
        if not np.all(np.isfinite(variances) & (variances >= 0)):
            raise ParamError("variances must be finite and non-negative")

    # Read-only readings by record and by query, each built on its first read.
    record_probs = cached_property(lambda self: keyed(self.head_list.records(), self.p))
    record_vars = cached_property(lambda self: keyed(self.head_list.records(), self.var))
    query_probs = cached_property(lambda self: keyed(self.head_list.queries, self.query_p))
    query_vars = cached_property(lambda self: keyed(self.head_list.queries, self.query_var))


def estimate_variance(steps: Sequence, shares: Sequence, n: int, cells=0, b: float = 0.0):
    """Bessel-corrected variance of a constant, plus the mean of n reports, plus `cells`
    Laplace cells of scale b, elementwise. Report level i has share P_i = shares[i], and
    c_i = steps[i] is the step to level i + 1 (differences of values would round): it is
    sum over i < j of (c_i + ... + c_{j-1})^2 P_i P_j / (n-1), plus cells 2b^2 / (n(n-1))."""
    if n < 2 or np.any(np.asarray(cells) > 0) and not b > 0:
        raise ParamError("variance estimate needs n >= 2 and, with noise cells, a positive scale")
    pairs = combinations(range(len(shares)), 2)  # (0, 1), (0, 2), ...: no term is negative
    terms = (left_sum(steps[i:j]) ** 2 * shares[i] * shares[j] for i, j in pairs)
    return left_sum(terms) / (n - 1) + cells * 2.0 * b**2 / (n * (n - 1))
