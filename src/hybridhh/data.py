"""Dataset ingestion, per-user sampling, partitioning, and synthesis.

Input logs are TSV lines of `user_id<TAB>query<TAB>url`. The synthetic
generator draws one record per user from a power-law joint distribution
with a known ground truth, which the metrics stage can score against.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Optional

import numpy as np

from .core import ParamError, Record, decode_star, encode_star


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class UserLog:
    user_id: str
    records: tuple[Record, ...]

    def __post_init__(self):
        if not self.records:
            raise ParseError(f"user {self.user_id!r} has no records")


@dataclass(frozen=True)
class Dataset:
    users: tuple[UserLog, ...]
    true_distribution: Optional[Mapping[Record, float]] = None

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if self.true_distribution is not None:
            dist = dict(self.true_distribution)
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise ParamError(f"true distribution sums to {total}, not 1")
            object.__setattr__(self, "true_distribution", dist)

    def __len__(self) -> int:
        return len(self.users)


def parse_log(stream: IO[str] | str) -> Dataset:
    """Parse a TSV log into per-user record collections.

    Lines starting with '#' are comments. Malformed or empty-field rows
    abort with the offending line number. Rows are grouped by user id in
    first-seen order.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    by_user: dict[str, list[Record]] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        user, q, u = (p.strip() for p in parts)
        if not user or not q or not u:
            raise ParseError(f"line {lineno}: empty field")
        by_user.setdefault(user, []).append(Record(decode_star(q), decode_star(u)))
    users = tuple(UserLog(uid, tuple(recs)) for uid, recs in by_user.items())
    return Dataset(users)


def serialize_log(dataset: Dataset, stream: IO[str]) -> None:
    for user in dataset.users:
        for rec in user.records:
            stream.write(f"{user.user_id}\t{encode_star(rec.query)}\t{encode_star(rec.url)}\n")


# Users per `rng.integers` call in `sample_per_user`. The draws are the
# same as one call over every user; batching bounds the temporary arrays.
_PICK_BATCH = 1 << 14


def sample_per_user(users: Iterable[UserLog], rng: np.random.Generator) -> list[Record]:
    """One uniformly chosen record per user, in user order.

    Picks are `rng.integers` draws over the users' record counts; a user
    with one record consumes no randomness.
    """
    # Each user's records are replaced by the pick in place, so no second
    # list the size of the population is built.
    picks = [user.records for user in users]
    for start in range(0, len(picks), _PICK_BATCH):
        batch = picks[start:start + _PICK_BATCH]
        draws = rng.integers(np.fromiter(map(len, batch), dtype=np.int64, count=len(batch)))
        for j, (records, i) in enumerate(zip(batch, draws), start):
            picks[j] = records[i]
    return picks


def partition_users(
    dataset: Dataset,
    optin_fraction: float,
    f_O: float,
    rng: np.random.Generator,
) -> tuple[tuple[UserLog, ...], tuple[UserLog, ...], tuple[UserLog, ...]]:
    """Random split into (S, T, C): head-list, estimation, and client groups.

    |O| = round(optin_fraction * N) and |S| = round(f_O * |O|), with
    banker's rounding; the split is uniform over users.
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
    s = tuple(dataset.users[i] for i in perm[:n_s])
    t = tuple(dataset.users[i] for i in perm[n_s:n_optin])
    c = tuple(dataset.users[i] for i in perm[n_optin:])
    return s, t, c


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
    lists never collide across queries.
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
    users = tuple(
        UserLog(f"user{n:07d}", (records[int(d)],)) for n, d in enumerate(draws)
    )
    truth = {rec: float(p) for rec, p in zip(records, joint)}
    return Dataset(users, true_distribution=truth)


def empirical_distribution(records: Iterable[Record]) -> dict[Record, float]:
    counts = Counter(records)
    total = sum(counts.values())
    if total == 0:
        raise ParamError("no records to build a distribution from")
    return {r: c / total for r, c in counts.items()}
