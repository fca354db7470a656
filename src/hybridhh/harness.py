"""End-to-end orchestration: partition, estimate, privatize, blend, score.

A run consumes a dataset and a seeded config, executes the trusted-
curator stage on the opt-in partitions, simulates the clients'
randomized reports in aggregate, denoises them, applies the
variance-weighted blend, and writes the head list, the estimate tables,
and a metrics row. Sweeps repeat runs over a Cartesian product of
parameter axes with derived seeds.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import blend, client, data, metrics, optin
from .core import (
    STAR,
    EstimateVector,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    encode_star,
)
# client_stream_id has no caller here; perfbench/tracing.py wraps it by name on this module.
from .sampling import client_stream_id, substream  # noqa: F401


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


@dataclass(frozen=True)
class MetricsRow:
    epsilon: float
    delta: float
    optin_fraction: float
    M: int
    seed: int
    l1: float
    ndcg: float
    headlist_short: bool
    status: str = "ok"

    FIELDS = ("epsilon", "delta", "optin_pct", "M", "seed", "L1", "NDCG", "flags")

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
    optin_out: optin.OptinOutput
    client_est: EstimateVector
    blended: blend.BlendedOutput
    row: MetricsRow


class ConfigError(ValueError):
    pass


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed for a sweep cell or repetition."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])


def load_dataset(config: ExperimentConfig) -> data.Dataset:
    if config.dataset_path is not None:
        with open(config.dataset_path, "r", encoding="utf-8") as fh:
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
    s_records = data.sample_per_user(s_users, substream(run_seed, 1))
    t_records = data.sample_per_user(t_users, substream(run_seed, 2))

    hl_initial = optin.create_head_list(params, s_records, substream(run_seed, 3))
    if hl_initial.k <= 1:
        raise ParamError("head-list creation admitted no records (thresholding starved)")
    optin_out = optin.estimate_optin_probabilities(
        params, t_records, hl_initial, substream(run_seed, 4)
    )
    hl_final = optin_out.head_list

    hl_aug = hl_final.augment_for_clients()
    model = client.build_report_model(params, hl_aug)

    # Only the report counts reach the server, so the clients' picks are
    # counted and pushed through the channel in aggregate.
    crng = substream(run_seed, 5)
    picks = Counter(data.sample_per_user(c_users, crng))
    counts = client.simulate_reports(picks, model, hl_aug, crng)
    client_est = client.client_estimates_from_counts(counts, len(c_users), model, hl_aug)

    blended = blend.blend_probabilities(optin_out.estimates, client_est, hl_final)

    truth = dataset.true_distribution
    if truth is None:
        truth = data.empirical_distribution(s_records + t_records)
    l1, ndcg = metrics.score(blended.probs, truth)

    n_regular_queries = sum(1 for q in hl_final.queries if q != STAR)
    row = MetricsRow(
        epsilon=params.epsilon,
        delta=params.delta,
        optin_fraction=params.optin_fraction,
        M=params.M,
        seed=run_seed,
        l1=l1,
        ndcg=ndcg,
        headlist_short=n_regular_queries < params.M,
    )
    result = RunResult(hl_final, optin_out, client_est, blended, row)
    if out_dir is not None:
        write_artifacts(result, Path(out_dir))
    return result


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_record_table(
    path: Path, records: Iterable[Record], **columns: Mapping[Record, float]
) -> None:
    """One row per record: the star-encoded query and url, then `repr` of each column."""
    write_csv(
        path,
        ["query", "url", *columns],
        (
            [encode_star(rec.query), encode_star(rec.url)]
            + [repr(col[rec]) for col in columns.values()]
            for rec in records
        ),
    )


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "headlist.tsv").write_text(result.head_list.to_tsv(), encoding="utf-8")
    opt_est = result.optin_out.estimates
    write_record_table(
        out_dir / "optin_estimates.csv", result.head_list.records(),
        p_hat=opt_est.record_probs, var_hat=opt_est.record_vars,
    )
    write_record_table(
        out_dir / "blended.csv", result.head_list.records(),
        p_blend=result.blended.probs, w=result.blended.weights,
        p_optin=opt_est.record_probs, var_optin=opt_est.record_vars,
        p_client=result.client_est.record_probs, var_client=result.client_est.record_vars,
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
    axes = config.sweep
    eps_axis = axes.epsilon or (config.params.epsilon,)
    optin_axis = axes.optin_fraction or (config.params.optin_fraction,)
    m_axis = axes.M or (config.params.M,)
    if dataset is None:
        # No axis changes the data, so it is loaded once for every cell.
        dataset = load_dataset(config)
    rows: list[MetricsRow] = []
    cell = 0
    for eps in eps_axis:
        for frac in optin_axis:
            for m in m_axis:
                params = replace(
                    config.params, epsilon=eps, optin_fraction=frac, M=m
                )
                cell_config = replace(config, params=params)
                for rep in range(axes.seeds):
                    run_seed = derive_seed(config.seed, cell, rep)
                    try:
                        result = run_blender(cell_config, dataset, seed=run_seed)
                        rows.append(result.row)
                    except (ParamError, client.DegenerateChannelError) as exc:
                        rows.append(
                            MetricsRow(
                                epsilon=eps,
                                delta=config.params.delta,
                                optin_fraction=frac,
                                M=m,
                                seed=run_seed,
                                l1=float("nan"),
                                ndcg=float("nan"),
                                headlist_short=False,
                                status=f"failed:{type(exc).__name__}",
                            )
                        )
                cell += 1
    if out_path is not None:
        write_csv(out_path, MetricsRow.FIELDS, (row.as_csv_row() for row in rows))
    return rows


# -- config file parsing -------------------------------------------------

def parse_config(text: str) -> ExperimentConfig:
    """Flat `key = value` config with an optional [sweep] section."""
    flat: dict[str, str] = {}
    sweep_kv: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
        (sweep_kv if section == "sweep" else flat)[key] = value

    def take(d, casts, prefix=""):
        """Cast the keys of `casts` present in d; absent keys keep their defaults."""
        kwargs = {}
        for name, cast in casts.items():
            key = prefix + name
            if key in d:
                raw = d.pop(key)
                try:
                    kwargs[name] = cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        return kwargs

    def num_list(cast):
        return lambda raw: tuple(cast(part.strip()) for part in raw.split(",") if part.strip())

    try:
        params = PrivacyParams(**take(flat, {
            "epsilon": float, "delta": float, "m_O": int, "m_C": int,
            "f_O": float, "f_C": float, "M": int, "optin_fraction": float,
        }))
    except ParamError as exc:
        raise ConfigError(str(exc)) from exc
    synth = SynthSpec(**take(
        flat, {"users": int, "queries": int, "urls": int, "exponent": float}, prefix="synth_"
    ))
    axes = SweepAxes(**take(sweep_kv, {
        "epsilon": num_list(float), "optin_fraction": num_list(float),
        "M": num_list(int), "seeds": int,
    }))
    if axes.seeds < 1:
        raise ConfigError(f"[sweep] seeds must be >= 1, got {axes.seeds}")
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
