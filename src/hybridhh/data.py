"""Dataset ingestion, per-user sampling, partitioning, and synthesis.

Input logs are TSV lines of `user_id<TAB>query<TAB>url`. The synthetic
generator draws one record per user from a power-law joint distribution
with a known ground truth, which the metrics stage can score against.

A dataset is a columnar index of its users' records, built by the parser
or the generator that makes it. Its table of distinct records is sorted,
so record ids follow record order and each query's records hold one
contiguous id range. Partitioning and per-user sampling work on its
integer arrays and return record counts by id. `Dataset.users` rebuilds
the users one at a time from the index, for writing a log back out.
"""

from __future__ import annotations

import io
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .core import ParamError, Record, decode_star, encode_star


class ParseError(ValueError):
    pass


@contextmanager
def open_input(path: str) -> Iterator[IO[str]]:
    """Open an input file as UTF-8 text, line endings untranslated. A file
    that cannot be opened, read or decoded is a ParseError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


class UserLog(NamedTuple):
    user_id: str
    records: tuple[Record, ...]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Users in first-seen order and distinct records in sorted order, so
    that record ids follow record order and each query's records hold one
    contiguous id range; each user's records as int32 ids into the table,
    user-major, at `offsets` for `lengths`."""

    user_ids: tuple[str, ...]
    record_table: tuple[Record, ...]
    record_ids: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    true_distribution: Optional[Mapping[Record, float]] = None
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.true_distribution is not None:
            total = sum(self.true_distribution.values())
            if abs(total - 1.0) > 1e-9:
                raise ParamError(f"true distribution sums to {total}, not 1")
        # Consumers find a query's records by bisection on the table.
        if not all(map(operator.lt, self.record_table, self.record_table[1:])):
            raise ParamError("record table is not strictly increasing")
        object.__setattr__(self, "offsets", np.cumsum(self.lengths) - self.lengths)

    def __len__(self) -> int:
        return len(self.user_ids)

    @property
    def users(self) -> Iterator[UserLog]:
        """Each user's records, rebuilt from the index one user at a time."""
        table, end = self.record_table, 0
        for user_id, n in zip(self.user_ids, self.lengths.tolist()):
            start, end = end, end + n
            yield UserLog(user_id, tuple(table[i] for i in self.record_ids[start:end].tolist()))


def parse_log(stream: IO[str] | str) -> Dataset:
    """Parse a TSV log into a dataset.

    Lines whose first non-blank character is '#' are comments. Malformed
    or empty-field rows abort with the offending line number. Users are
    numbered in first-seen order and records in sorted order, and each
    user keeps its rows in log order.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    user_index: dict[str, int] = {}
    by_fields: dict[tuple[str, str], int] = {}
    record_index: dict[Record, int] = {}
    owners: list[int] = []
    ids: list[int] = []
    for lineno, line in enumerate(stream, start=1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        user, q, u = parts
        user, q, u = user.strip(), q.strip(), u.strip()
        if not user or not q or not u:
            raise ParseError(f"line {lineno}: empty field")
        rid = by_fields.get((q, u))
        if rid is None:
            # "*" and a literal star decode to the same record.
            rec = Record(decode_star(q), decode_star(u))
            rid = by_fields[q, u] = record_index.setdefault(rec, len(record_index))
        owners.append(user_index.setdefault(user, len(user_index)))
        ids.append(rid)
    owner = np.array(owners, dtype=np.int64)
    table, rank = _sorted_table(record_index)
    return Dataset(
        tuple(user_index),
        table,
        rank[np.array(ids, dtype=np.int32)[np.argsort(owner, kind="stable")]],
        np.bincount(owner, minlength=len(user_index)),
    )


def _sorted_table(index: Mapping[Record, int]) -> tuple[tuple[Record, ...], np.ndarray]:
    """The distinct records of `index` in sorted order, and the int32 rank
    array that maps each of its ids to that record's position there."""
    table = tuple(sorted(index))
    rank = np.empty(len(table), dtype=np.int32)
    rank[np.fromiter(map(index.__getitem__, table), np.int64, len(table))] = np.arange(len(table))
    return table, rank


def serialize_log(dataset: Dataset, stream: IO[str]) -> None:
    for user in dataset.users:
        for rec in user.records:
            stream.write(f"{user.user_id}\t{encode_star(rec.query)}\t{encode_star(rec.url)}\n")


def sample_per_user(
    dataset: Dataset, users: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Counts of one uniformly chosen record per user, by record id.

    `users` holds positions in `dataset.user_ids`. Only the users with
    several records draw: one `rng.integers` call over their record
    counts, in the order given. A user with one record takes it, as a
    draw over a range of one would, which consumes no randomness, so the
    stream is that of one draw over every user. The result has one entry
    per record of `dataset.record_table`.
    """
    lengths = dataset.lengths[users]
    at = dataset.offsets[users]
    several = np.flatnonzero(lengths > 1)
    at[several] += rng.integers(lengths[several])
    return np.bincount(dataset.record_ids[at], minlength=len(dataset.record_table))


def record_counts(dataset: Dataset, counts: np.ndarray) -> dict[Record, int]:
    """The nonzero entries of a count array by record id, keyed by record
    in table order, which is sorted order."""
    ids = np.flatnonzero(counts)
    return dict(zip(map(dataset.record_table.__getitem__, ids.tolist()), counts[ids].tolist()))


def partition_users(
    dataset: Dataset,
    optin_fraction: float,
    f_O: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random split into (S, T, C): head-list, estimation, and client groups.

    Each group is an array of positions in `dataset.user_ids`, cut from one
    permutation. |O| = round(optin_fraction * N) and
    |S| = round(f_O * |O|), with banker's rounding; the split is uniform
    over users.
    """
    if not 0 < optin_fraction < 1 or not 0 < f_O < 1:
        raise ParamError("fractions must lie in (0, 1)")
    n = len(dataset)
    n_optin = round(optin_fraction * n)
    n_s = round(f_O * n_optin)
    n_t = n_optin - n_s
    n_c = n - n_optin
    if n_s < 1 or n_t < 1 or n_c < 1:
        raise ParamError(
            f"degenerate partition sizes (|S|={n_s}, |T|={n_t}, |C|={n_c}) for N={n}"
        )
    perm = rng.permutation(n)
    return perm[:n_s], perm[n_s:n_optin], perm[n_optin:]


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-exponent)
    return w / w.sum()


def synth_zipf(
    num_users: int,
    num_queries: int,
    urls_per_query: int,
    exponent: float,
    rng: np.random.Generator,
) -> Dataset:
    """Power-law synthetic log: one record per user, known ground truth.

    Query marginals and per-query url conditionals are both Zipf with the
    given exponent. Urls live in per-query namespaces ("q{i}/u{j}") so
    lists never collide across queries. The draws and the truth follow
    the (i, j) order; the table holds the records sorted.
    """
    if min(num_users, num_queries, urls_per_query) < 1:
        raise ParamError("all counts must be >= 1")
    if not exponent >= 0:
        raise ParamError("exponent must be non-negative")
    q_probs = zipf_weights(num_queries, exponent)
    u_probs = zipf_weights(urls_per_query, exponent)
    joint = np.outer(q_probs, u_probs).ravel()
    records = [
        Record(f"q{i}", f"q{i}/u{j}")
        for i in range(num_queries)
        for j in range(urls_per_query)
    ]
    draws = rng.choice(len(records), size=num_users, p=joint)
    truth = {rec: float(p) for rec, p in zip(records, joint)}
    table, rank = _sorted_table({rec: i for i, rec in enumerate(records)})
    return Dataset(
        tuple(f"user{n:07d}" for n in range(num_users)),
        table,
        rank[draws],
        np.ones(num_users, dtype=np.int64),
        true_distribution=truth,
    )


def empirical_distribution(
    records: Iterable[Record] | Mapping[Record, int],
) -> dict[Record, float]:
    """Relative frequencies of a record list or of record counts; counts
    are read in place."""
    counts = records if isinstance(records, Mapping) else Counter(records)
    total = sum(counts.values())
    if total == 0:
        raise ParamError("no records to build a distribution from")
    return {r: c / total for r, c in counts.items()}
