"""Dataset ingestion, per-user sampling, partitioning, and synthesis.

Input logs are TSV lines of `user_id<TAB>query<TAB>url`. The synthetic
generator draws one record per user from a power-law joint distribution
with a known ground truth, which the metrics stage can score against.

A dataset is a columnar index of its users' records, built by the parser
or the generator that makes it: its record table holds the distinct
records in sorted order as query and url id columns (`RecordTable`), so
record ids follow record order and each query's records hold one
contiguous id range. The parser reads the log's bytes with numpy and
hands Python only each distinct user, each distinct query-and-url tail
and each line that may be blank or a comment. Partitioning and per-user
sampling work on the integer arrays and return record counts by id.
The records of the users who hold one record are counted once, with
the index: those are their picks before any draw, so the clients'
counts can be the population's less the opt-in users'.
`Dataset.users` rebuilds the users one at a time from the index, for
writing a log back out.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ParamError, Record, RecordTable, decode_star, encode_star


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
    """Users in first-seen order and the table of distinct records; each
    user's records as int32 ids into the table, user-major, at `offsets`
    for `lengths`; a synthetic log's truth, as probabilities by record
    id. Parsed user ids are a tuple, synthetic ones `SynthUserIds`.

    Derived once from the index: which users hold `several` records, and
    the records the other users hold, counted by id (`single_counts`, of
    `singles` users), which are those users' picks before any draw."""

    user_ids: Sequence[str]
    record_table: RecordTable
    record_ids: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    true_distribution: Optional[np.ndarray] = None
    offsets: np.ndarray = field(init=False, repr=False)
    several: np.ndarray = field(init=False, repr=False)
    single_counts: np.ndarray = field(init=False, repr=False)
    singles: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.true_distribution is not None:
            total, n = float(self.true_distribution.sum()), len(self.true_distribution)
            if n != len(self.record_table) or abs(total - 1.0) > 1e-9:
                raise ParamError(f"truth has {n} ids, sum {total}; want one per record, sum 1")
        offsets = np.cumsum(self.lengths) - self.lengths
        several = self.lengths > 1
        held = self.record_ids[offsets[~several]]
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "several", several)
        object.__setattr__(
            self, "single_counts", np.bincount(held, minlength=len(self.record_table))
        )
        object.__setattr__(self, "singles", len(held))

    def __len__(self) -> int:
        return len(self.user_ids)

    @property
    def users(self) -> Iterator[UserLog]:
        """Each user's records, rebuilt from the index one user at a time;
        equal records are one object."""
        table, end = tuple(self.record_table), 0
        for user_id, n in zip(self.user_ids, self.lengths.tolist()):
            start, end = end, end + n
            yield UserLog(user_id, tuple(table[i] for i in self.record_ids[start:end].tolist()))


class SynthUserIds(Sequence[str]):
    """The ids of `n` synthetic users: id i is `user{i:07d}`, formatted
    only when it is read."""

    def __init__(self, n: int):
        self._range = range(n)

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, i: int) -> str:
        return f"user{self._range[operator.index(i)]:07d}"

    def __iter__(self) -> Iterator[str]:
        return map("user{:07d}".format, self._range)


# First bytes of '#' and of the UTF-8 form of every character that
# `str.isspace` accepts: only a line that starts with one of them can be
# blank or a comment.
_MAYBE_SKIPPED = np.zeros(256, dtype=bool)
_MAYBE_SKIPPED[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f #\xc2\xe1\xe2\xe3")] = True
# Bytes of whole lines parsed at a time, which bounds the parser's arrays.
_BLOCK = 1 << 20


def parse_log(stream: IO[str]) -> Dataset:
    """Parse a TSV log into a dataset.

    Lines whose first non-blank character is '#' are comments. Malformed
    or empty-field rows abort with the offending line number. Users are
    numbered in first-seen order and records in sorted order, and each
    user keeps its rows in log order.

    The log, a text file as `open_input` opens it, is read through its
    binary buffer as UTF-8, and '\\n', '\\r\\n' and a lone '\\r' each
    end a line, as in Python's universal newlines. The bytes are parsed
    a block of whole lines at a time: numpy finds each line's breaks and
    tabs, counts its fields, and numbers equal user fields and equal
    query-and-url tails exactly, first in the block and then across
    blocks. Python decodes and strips each distinct user and tail once,
    and reads whole only the lines that start with '#' or with the first
    byte of a whitespace character, to tell whether each is blank or a
    comment.
    """
    (user_of_row, user_line, user_text), (tail_of_row, tail_line, tail_text), wrong = (
        _scan(stream)
    )
    raw_users = user_text.split("\t")[:-1]
    users = [s.strip() for s in raw_users]
    parts = tail_text.split("\t")
    # "*" and a literal star decode alike; RecordTable.of merges equal records.
    queries = [decode_star(s.strip()) for s in parts[1::2]]
    urls = [decode_star(s.strip()) for s in parts[2::2]]
    empty_lines = np.concatenate((
        user_line[[not s for s in users]],
        tail_line[[not (q and u) for q, u in zip(queries, urls)]],
    ))
    if empty_lines.size and (wrong is None or empty_lines.min() < wrong[0]):
        raise ParseError(f"line {empty_lines.min() + 1}: empty field")
    if wrong is not None:
        raise ParseError(f"line {wrong[0] + 1}: expected 3 tab-separated fields, got {wrong[1]}")
    # Fields that strip to the same user take its number; when stripping
    # changed no field, the fields are the users.
    merge = any(map(operator.ne, map(len, raw_users), map(len, users)))
    user_ids, owner = _first_seen(users, user_line, user_of_row, merge)
    table, rank = RecordTable.of(queries, urls)
    return Dataset(
        user_ids,
        table,
        rank[tail_of_row[np.argsort(owner, kind="stable")]],
        np.bincount(owner, minlength=len(user_ids)),
    )


def _scan(stream: IO[str]) -> tuple[tuple[np.ndarray, np.ndarray, str], ...]:
    """Read the log a block at a time. Returns its rows' user fields and
    their query-and-url tails, each as `_merge` numbers them, and the
    line number and field count of its first line of a wrong field
    count, or None."""
    user_parts, tail_parts = [], []
    line, wrong = 0, None
    for block in _blocks(stream.buffer.read):
        if not block.isascii():
            block.decode("utf-8")  # bytes that are not UTF-8 fail as a text reader fails
        b = np.frombuffer(block, dtype=np.uint8)
        starts, stops, fields, first_tab = _layout(b)
        kept = np.ones(len(starts), dtype=bool)
        maybe = np.flatnonzero(_MAYBE_SKIPPED[b[starts]])
        for i, start, stop in zip(maybe.tolist(), starts[maybe].tolist(), stops[maybe].tolist()):
            head = block[start:stop].decode("utf-8").lstrip()
            kept[i] = bool(head) and head[0] != "#"
        rows = np.flatnonzero(kept & (fields == 3))
        # A user field is numbered with the tab that ends it, and a tail
        # with the tab that starts it, so that no slice is empty.
        for parts, lo, hi in (
            (user_parts, starts[rows], first_tab[rows] + 1),
            (tail_parts, first_tab[rows], stops[rows]),
        ):
            number, first, data, widths = _distinct(b, lo, hi)
            parts.append((number, rows[first] + line, data, widths))
        bad = np.flatnonzero(kept & (fields != 3))
        if bad.size:
            # No later line can hold the first error.
            wrong = (line + int(bad[0]), int(fields[bad[0]]))
            break
        line += len(starts)
    users = _merge(user_parts)
    del user_parts
    return users, _merge(tail_parts), wrong


def _first_seen(
    users: list[str], first_line: np.ndarray, of_row: np.ndarray, merge: bool
) -> tuple[tuple[str, ...], np.ndarray]:
    """The users in first-seen order, and each row's user number, given
    each raw user field's user, first line and number by row. With
    `merge`, fields whose users are equal take one number."""
    seen = np.argsort(first_line, kind="stable")
    ordered = np.array(users, dtype=object)[seen]
    number = np.empty(len(users), dtype=np.int32)
    if not merge:
        number[seen] = np.arange(len(users))
        return tuple(ordered), number[of_row]
    user_ids = tuple(dict.fromkeys(ordered))
    index = dict(zip(user_ids, range(len(user_ids))))
    number[seen] = np.fromiter(map(index.__getitem__, ordered), np.int32, len(users))
    return user_ids, number[of_row]


def _blocks(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """The log in blocks of whole lines: each is read as about `_BLOCK`
    bytes and cut after its last '\\n'. The last block, which may be
    empty, holds the rest."""
    pending: list[bytes] = []
    while chunk := read(_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, chunk[:cut]])
            pending = []
        pending.append(chunk[cut:])
    yield b"".join(pending)


def _layout(b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each line's start and stop offset in `b` (line break excluded),
    field count, and first tab (its stop if it has none)."""
    # Tabs and line breaks are among the bytes up to 13.
    at = np.flatnonzero(b <= 13)
    kind = b[at]
    # A '\\r' right before a '\\n' is trailing blank of its line.
    is_break = (kind == 10) | ((kind == 13) & (b[np.minimum(at + 1, len(b) - 1)] != 10))
    keep = is_break | (kind == 9)
    at, is_break = at[keep], is_break[keep]
    if len(b) and not (len(at) and is_break[-1] and at[-1] == len(b) - 1):
        # A break past the end ends a last line that lacks one.
        at, is_break = np.append(at, len(b)), np.append(is_break, True)
    ends = np.flatnonzero(is_break)
    stops = at[ends]
    # A line starts, and its first tab or break follows, after the
    # previous line's break.
    starts, after = np.roll(stops + 1, 1), np.roll(ends + 1, 1)
    starts[:1] = after[:1] = 0
    return starts, stops, np.diff(ends, prepend=-1), at[after]


def _distinct(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Number the distinct byte strings b[lo[i]:hi[i]], none of them empty.

    Returns each slice's number, each number's first slice, and the
    numbered strings' bytes, concatenated, and widths, in number order.
    Equal strings have equal widths, so the slices of one width are
    compared as fixed-width `S{w}` rows, with one `np.unique` per width.
    The strings are read back as the rows' bytes: numpy's `S` values
    drop trailing NULs.
    """
    width = hi - lo
    by_width = np.argsort(width, kind="stable")
    widths, cuts = np.unique(width[by_width], return_index=True)
    number = np.empty(len(lo), dtype=np.int32)
    firsts, data, counts = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.uint8)], []
    for w, at in zip(widths.tolist(), np.split(by_width, cuts[1:])):
        values = sliding_window_view(b, w)[lo[at]].view(f"S{w}").ravel()
        distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        number[at] = inverse + sum(counts)
        counts.append(len(distinct))
        firsts.append(at[first].astype(np.int32))
        data.append(distinct.view(np.uint8))
    widths = np.repeat(widths.astype(np.int32), counts)
    return number, np.concatenate(firsts), np.concatenate(data), widths


def _merge(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, np.ndarray, str]:
    """Number the distinct strings of all blocks, given each block's
    `_distinct` numbers, first lines, bytes and widths: each row's number,
    each number's first line, and the numbered strings, concatenated and
    decoded once."""
    numbers, first_lines, data, widths = zip(*parts)
    width = np.concatenate(widths)
    hi = np.cumsum(width)
    number, first, distinct, _ = _distinct(np.concatenate(data), hi - width, hi)
    # Each block's strings follow those of the blocks before it.
    of_row = np.empty(sum(map(len, numbers)), dtype=np.int32)
    row = base = 0
    for n, w in zip(numbers, widths):
        of_row[row:row + len(n)] = number[base:][n]
        row, base = row + len(n), base + len(w)
    text = distinct.tobytes().decode("utf-8")
    return of_row, np.concatenate(first_lines)[first], text


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
    stream is that of one draw over every user, and leaving one-record
    users out of `users` changes no draw (`sample_clients` does). The
    result has one entry per record of `dataset.record_table`.
    """
    lengths = dataset.lengths[users]
    at = dataset.offsets[users]
    several = np.flatnonzero(lengths > 1)
    at[several] += rng.integers(lengths[several])
    return np.bincount(dataset.record_ids[at], minlength=len(dataset.record_table))


def sample_clients(
    dataset: Dataset, clients: np.ndarray, optin: Sequence[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """`sample_per_user(dataset, clients, rng)`, where `clients` are all
    the users outside the `optin` groups: the same counts and draws.

    When the opt-in users are fewer than the one-record users outside
    them (at least `dataset.singles` less the opt-in users), the clients'
    one-record counts are the population's less the opt-in groups', and
    only the clients with several records are sampled, in the order
    given. A one-record user draws nothing, so the stream is that of the
    call over every client. Otherwise every client is sampled.
    """
    n_optin = sum(map(len, optin))
    if n_optin >= dataset.singles - n_optin:
        return sample_per_user(dataset, clients, rng)
    optin = np.concatenate(optin)
    single = optin[~dataset.several[optin]]
    counts = dataset.single_counts - np.bincount(
        dataset.record_ids[dataset.offsets[single]], minlength=len(dataset.record_table)
    )
    return counts + sample_per_user(dataset, clients[dataset.several[clients]], rng)


def partition_users(
    dataset: Dataset,
    optin_fraction: float,
    f_O: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random split into (S, T, C): head-list, estimation, and client groups.

    Each group is an array of positions in `dataset.user_ids`.
    |O| = round(optin_fraction * N) and |S| = round(f_O * |O|), with
    banker's rounding. The |O| opt-in users are one draw without
    replacement: its first |S| entries are S, the rest T. C is every
    other user, in index order.

    A draw without replacement is a uniformly random ordered sample of
    distinct users, so S, T and C are split as uniformly as by one
    permutation of all N users, and S keeps a random order. C's order is
    fixed before any pick is drawn, and each user's pick is uniform over
    its own records whatever its place in the draw order, so the per-user
    picks keep their law. The draw takes about |O| random numbers, where
    a permutation takes N.
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
    optin = rng.choice(n, n_optin, replace=False)
    clients = np.ones(n, dtype=bool)
    clients[optin] = False
    return optin[:n_s], optin[n_s:], np.flatnonzero(clients)


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
    lists never collide across queries. The draws follow the (i, j) grid
    order; the table holds the grid's records sorted, as columns, and the
    truth holds each cell's joint probability at its record's id.
    User n is named `user{n:07d}` when its id is read (`SynthUserIds`).
    """
    if min(num_users, num_queries, urls_per_query) < 1:
        raise ParamError("all counts must be >= 1")
    if not exponent >= 0:
        raise ParamError("exponent must be non-negative")
    q_probs = zipf_weights(num_queries, exponent)
    u_probs = zipf_weights(urls_per_query, exponent)
    joint = np.outer(q_probs, u_probs).ravel()
    names = [f"q{i}" for i in range(num_queries)]
    queries = [q for q in names for _ in range(urls_per_query)]
    urls = [f"{q}/u{j}" for q in names for j in range(urls_per_query)]
    draws = rng.choice(len(urls), size=num_users, p=joint)
    table, rank = RecordTable.of(queries, urls)
    truth = np.empty_like(joint)  # the grid's records are distinct: `rank` is a permutation
    truth[rank] = joint
    return Dataset(
        SynthUserIds(num_users),
        table,
        rank[draws],
        np.ones(num_users, dtype=np.int64),
        true_distribution=truth,
    )


def empirical_distribution(counts: np.ndarray) -> np.ndarray:
    """Relative frequencies of record counts by id; below 2**53 each is correctly rounded."""
    total = counts.sum()
    if total == 0:
        raise ParamError("no records to build a distribution from")
    return counts / total
