"""End-to-end orchestration: partition, estimate, privatize, blend, score.

A run consumes a dataset and a seeded config, executes the trusted-
curator stage on the opt-in partitions, simulates the clients'
randomized reports in aggregate, denoises them, applies the
variance-weighted blend, and writes the head list, the estimate tables,
and a metrics row. Sweeps repeat runs over a Cartesian product of
parameter axes with derived seeds.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import blend, client, data, metrics, optin
from .core import (
    EstimateVector,
    HeadList,
    ParamError,
    PrivacyParams,
    RecordCounts,
    encode_star,
    record_slots,
)
# client_stream_id has no caller here; perfbench/tracing.py wraps it by name on this module.
from .sampling import client_stream_id, substream  # noqa: F401


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SynthSpec:
    users: int = 100_000
    queries: int = 500
    urls: int = 4
    exponent: float = 1.0


@dataclass(frozen=True)
class SweepAxes:
    epsilon: tuple[float, ...] = ()
    optin_fraction: tuple[float, ...] = ()
    M: tuple[int, ...] = ()
    seeds: int = 1

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError(f"[sweep] seeds must be >= 1, got {self.seeds}")


# The grid's axes, outermost first; an empty axis holds the PrivacyParams value.
AXES = ("epsilon", "optin_fraction", "M")


@dataclass(frozen=True)
class ExperimentConfig:
    params: PrivacyParams = field(default_factory=PrivacyParams)
    seed: int = 0
    dataset_path: Optional[str] = None   # None means synthetic
    synth: SynthSpec = field(default_factory=SynthSpec)
    out_dir: str = "results"
    sweep: SweepAxes = field(default_factory=SweepAxes)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.out_dir:
            raise ConfigError("out must name a directory, not be empty")
        # A bad axis value fails here, before a sweep runs its first cell.
        for axis in AXES:
            for value in getattr(self.sweep, axis):
                try:
                    replace(self.params, **{axis: value})
                except ParamError as exc:
                    raise ConfigError(f"[sweep] {axis} = {value!r}: {exc}") from exc


@dataclass(frozen=True)
class MetricsRow:
    epsilon: float
    delta: float
    optin_fraction: float
    M: int
    seed: int
    l1: float = math.nan   # a failed run measures nothing
    ndcg: float = math.nan
    headlist_short: bool = False
    status: str = "ok"

    FIELDS = ("epsilon", "delta", "optin_pct", "M", "seed", "L1", "NDCG", "flags")

    @classmethod
    def for_params(cls, params: PrivacyParams, seed: int, **measured) -> MetricsRow:
        """A row whose parameter columns are those of the run's `params`."""
        return cls(params.epsilon, params.delta, params.optin_fraction, params.M, seed, **measured)

    def as_csv_row(self) -> list[str]:
        flags = []
        if self.headlist_short:
            flags.append("headlist_short")
        if self.status != "ok":
            flags.append(self.status)
        return [
            repr(self.epsilon),
            repr(self.delta),
            repr(self.optin_fraction),
            str(self.M),
            str(self.seed),
            repr(self.l1) if math.isfinite(self.l1) else "",
            repr(self.ndcg) if math.isfinite(self.ndcg) else "",
            ";".join(flags),
        ]


@dataclass(frozen=True)
class RunResult:
    head_list: HeadList
    optin_est: EstimateVector
    client_est: EstimateVector
    blended: blend.BlendedOutput
    row: MetricsRow


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed for a sweep cell or repetition."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])


def load_dataset(config: ExperimentConfig) -> data.Dataset:
    if config.dataset_path is not None:
        with data.open_input(config.dataset_path) as fh:
            return data.parse_log(fh)
    spec = config.synth
    rng = substream(config.seed, 0xDA7A)
    return data.synth_zipf(spec.users, spec.queries, spec.urls, spec.exponent, rng)


def run_blender(
    config: ExperimentConfig,
    dataset: data.Dataset,
    seed: Optional[int] = None,
    out_dir: Optional[Path] = None,
) -> RunResult:
    """One full pipeline execution. Deterministic given (config, seed)."""
    params = config.params
    run_seed = config.seed if seed is None else seed
    # Fail on bad privacy parameters before any data is touched.
    optin.compute_threshold(params)

    s_users, t_users, c_users = data.partition_users(
        dataset, params.optin_fraction, params.f_O, substream(run_seed, 0)
    )
    s_picks = data.sample_per_user(dataset, s_users, substream(run_seed, 1))
    t_picks = data.sample_per_user(dataset, t_users, substream(run_seed, 2))
    table = dataset.record_table

    hl_initial = optin.create_head_list(
        params, RecordCounts(table, s_picks), substream(run_seed, 3)
    )
    if hl_initial.k <= 1:
        raise ParamError("head-list creation admitted no records (thresholding starved)")
    hl_final, optin_est = optin.estimate_optin_probabilities(
        params, RecordCounts(table, t_picks), hl_initial, substream(run_seed, 4)
    )

    hl_aug = hl_final.augment_for_clients()
    model = client.build_report_model(params, hl_aug)

    # Only the report counts reach the server, so the clients' picks are
    # counted per head-list slot and pushed through the channel in aggregate.
    crng = substream(run_seed, 5)
    picks = data.sample_clients(dataset, c_users, (s_users, t_users), crng)
    slots = record_slots(table, hl_aug)
    # Float sums of integer counts are exact below 2**53.
    held = np.bincount(slots, weights=picks, minlength=hl_aug.num_records()).astype(np.int64)
    counts = client.simulate_reports(held, model, hl_aug, crng)
    client_est = client.client_estimates_from_counts(counts, len(c_users), model, hl_aug)

    blended = blend.blend_probabilities(optin_est, client_est, hl_final)

    truth = dataset.true_distribution
    if truth is None:
        truth = data.empirical_distribution(s_picks + t_picks)
    # The score restricts the truth to the blend's star-free records, the
    # final list's carried ids >= 0, so it is read there alone.
    ids = hl_final.carried[1]
    listed = ids >= 0
    on_list = dict(zip(itertools.compress(hl_final.records(), listed), truth[ids[listed]].tolist()))
    l1, ndcg = metrics.score(blended.probs, on_list)

    row = MetricsRow.for_params(
        params, run_seed, l1=l1, ndcg=ndcg, headlist_short=hl_final.k - 1 < params.M
    )
    result = RunResult(hl_final, optin_est, client_est, blended, row)
    if out_dir is not None:
        write_artifacts(result, Path(out_dir))
    return result


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A CSV table in one write, as `csv.writer` writes it: each row's
    cells joined by `,`, and each row ended by `\\r\\n`. A cell that may
    need quoting must come quoted (see `name_cell`); a float's `repr`
    never does."""
    lines = [",".join(header), *map(",".join, rows), ""]
    path.write_text("\r\n".join(lines), encoding="utf-8", newline="")


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def name_cell(name: str) -> str:
    """A star-encoded query or url as `csv.writer` writes it: quoted, its
    quotes doubled, when it holds `,`, `"`, `\\r` or `\\n`."""
    name = encode_star(name)
    return '"' + name.replace('"', '""') + '"' if _NEEDS_QUOTES(name) else name


def cells(values: Iterable[float]) -> list[str]:
    """`repr` of each value, in order."""
    return list(map(repr, values))


def name_columns(*columns: tuple[Sequence[str], np.ndarray]) -> list[list[str]]:
    """Each column, given as names and the ids that read them, as name
    cells: each name goes through `name_cell` once."""
    named = [(list(map(name_cell, names)), ids) for names, ids in columns]
    return [list(map(by_id.__getitem__, ids.tolist())) for by_id, ids in named]


def write_record_table(path: Path, names: list[list[str]], **columns: list[str]) -> None:
    """One row per record: its `name_columns` cells, then its cell of each column."""
    write_csv(path, ["query", "url", *columns], zip(*names, *columns.values()))


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    hl, optin_est, client_est = result.head_list, result.optin_est, result.client_est
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "headlist.tsv").write_text(hl.to_tsv(), encoding="utf-8")
    # Both tables carry the names and the opt-in estimates; each is formatted once.
    urls = [url for _, url in hl.records()]
    names = name_columns((hl.queries, hl.of_query), (urls, np.arange(len(urls))))
    p_optin, var_optin = cells(optin_est.p.tolist()), cells(optin_est.var.tolist())
    write_record_table(out_dir / "optin_estimates.csv", names, p_hat=p_optin, var_hat=var_optin)
    at = result.blended.client_slots
    write_record_table(
        out_dir / "blended.csv", names,
        p_blend=cells(result.blended.p.tolist()), w=cells(result.blended.w.tolist()),
        p_optin=p_optin, var_optin=var_optin,
        p_client=cells(client_est.p[at].tolist()), var_client=cells(client_est.var[at].tolist()),
    )
    write_csv(out_dir / "metrics.csv", MetricsRow.FIELDS, [result.row.as_csv_row()])


def sweep(
    config: ExperimentConfig,
    dataset: Optional[data.Dataset] = None,
    out_path: Optional[Path] = None,
) -> list[MetricsRow]:
    """Cartesian product over the configured axes, one run per cell/seed.

    Per-cell failures are recorded as error rows; the sweep continues.
    """
    if dataset is None:
        # No axis changes the data, so it is loaded once for every cell.
        dataset = load_dataset(config)
    grid = [getattr(config.sweep, axis) or (getattr(config.params, axis),) for axis in AXES]
    rows: list[MetricsRow] = []
    for cell, values in enumerate(itertools.product(*grid)):
        params = replace(config.params, **dict(zip(AXES, values)))
        for rep in range(config.sweep.seeds):
            run_seed = derive_seed(config.seed, cell, rep)
            try:
                rows.append(run_blender(replace(config, params=params), dataset, seed=run_seed).row)
            except ParamError as exc:
                status = f"failed:{type(exc).__name__}"
                rows.append(MetricsRow.for_params(params, run_seed, status=status))
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out_path, MetricsRow.FIELDS, (row.as_csv_row() for row in rows))
    return rows


# -- config file parsing -------------------------------------------------

def parse_config(text: str) -> ExperimentConfig:
    """Flat `key = value` config with an optional [sweep] section: the fields
    of PrivacyParams, SynthSpec (as `synth_<field>`) and, under [sweep],
    SweepAxes, plus `seed`, `out` and `dataset`, each at most once. A `#`
    at a line's start or after whitespace starts a comment."""
    flat: dict[str, str] = {}
    sweep_kv: dict[str, str] = {}
    first_line: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section != "sweep":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        name = f"[sweep] {key}" if section == "sweep" else key
        if name in first_line:
            raise ConfigError(f"line {lineno}: {name} is already given on line {first_line[name]}")
        first_line[name] = lineno
        (sweep_kv if section == "sweep" else flat)[key] = value

    def take(d, hints, prefix=""):
        """Cast the keys of `hints` present in d; a tuple is a comma-separated axis."""
        kwargs = {}
        for name, hint in hints.items():
            key = prefix + name
            if key in d:
                raw = d.pop(key)
                try:
                    if get_origin(hint) is tuple:
                        parts = (part.strip() for part in raw.split(","))
                        kwargs[name] = tuple(get_args(hint)[0](part) for part in parts if part)
                    else:
                        kwargs[name] = hint(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
                if kwargs[name] == ():
                    raise ConfigError(f"[sweep] {key} is empty; leave it out for no axis")
        return kwargs

    try:
        params = PrivacyParams(**take(flat, get_type_hints(PrivacyParams)))
    except ParamError as exc:
        raise ConfigError(str(exc)) from exc
    synth = SynthSpec(**take(flat, get_type_hints(SynthSpec), prefix="synth_"))
    axes = SweepAxes(**take(sweep_kv, get_type_hints(SweepAxes)))
    top = take(flat, {"seed": int})
    if "out" in flat:
        top["out_dir"] = flat.pop("out")
    dataset_path = flat.pop("dataset", None)
    if dataset_path not in (None, "synth", ""):
        top["dataset_path"] = dataset_path
    for leftover in (flat, sweep_kv):
        if leftover:
            raise ConfigError(f"unknown config keys: {sorted(leftover)}")
    return ExperimentConfig(params=params, synth=synth, sweep=axes, **top)
