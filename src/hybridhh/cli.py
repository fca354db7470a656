"""Command-line entry point.

Subcommands: run (one pipeline execution), sweep (parameter grid),
synth (write a synthetic log), verify-dp (exact privacy check for a
head-list shape, in closed form by class of input pair), metrics
(score a blended output against a truth file). Exit codes: 0 success,
1 config error, 2 runtime failure, 3 a verify-dp certificate that FAILs.

Only verify-dp imports `oracle`, and with it mpmath: importing this
module, or running any other subcommand, leaves mpmath unloaded.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from . import client, data, harness, metrics
from .core import (
    STAR,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    Stage,
    decode_star,
    encode_star,
)
from .data import ParseError
from .harness import ConfigError


def _load_config(args) -> harness.ExperimentConfig:
    if args.config:
        with data.open_input(args.config) as fh:
            config = harness.parse_config(fh.read())
    else:
        config = harness.ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _check_output(path: Path, directory: bool) -> None:
    """Reject, before any work, an output path that exists as the other
    kind (a file where a directory is wanted, or the reverse) or that
    lies under a file."""
    blocker = next(p for p in (path, *path.parents) if p.exists())
    if blocker.is_dir() != (directory or blocker != path):
        kind = "directory" if blocker.is_dir() else "file"
        raise ConfigError(f"cannot write output {str(path)!r}: {str(blocker)!r} is a {kind}")


def _cmd_run(args) -> int:
    config = _load_config(args)
    _check_output(Path(config.out_dir), directory=True)
    dataset = harness.load_dataset(config)
    result = harness.run_blender(config, dataset, out_dir=Path(config.out_dir))
    print(f"head list: {result.head_list.k - 1} queries (+wildcard), "
          f"{result.head_list.num_records()} records")
    print(f"L1 = {result.row.l1:.4f}  NDCG = {result.row.ndcg:.4f}")
    print(f"artifacts written to {config.out_dir}/")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    out_path = Path(config.out_dir) / "sweep.csv"
    _check_output(Path(config.out_dir), directory=True)
    _check_output(out_path, directory=False)
    rows = harness.sweep(config, out_path=out_path)
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"{len(rows)} runs ({ok} ok); results in {out_path}")
    return 0


def _cmd_synth(args) -> int:
    if not args.out:
        raise ConfigError("--out must name a file, not be empty")
    out = Path(args.out)
    truth_path = out.with_suffix(out.suffix + ".truth.csv")
    _check_output(out, directory=False)
    _check_output(truth_path, directory=False)
    spec = harness.SynthSpec(args.users, args.queries, args.urls, args.exponent)
    dataset = harness.load_dataset(harness.ExperimentConfig(seed=args.seed, synth=spec))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        data.serialize_log(dataset, fh)
    p = harness.cells(dataset.true_distribution.tolist())
    harness.write_record_table(truth_path, harness.name_columns(dataset.record_table), p=p)
    print(f"wrote {len(dataset)} users to {out} (truth: {truth_path})")
    return 0


def _cmd_verify_dp(args) -> int:
    from . import oracle  # the one subcommand that needs mpmath

    params = PrivacyParams(epsilon=args.epsilon, delta=args.delta, f_C=args.f_c)
    if args.kq < 1:
        raise ParamError("--kq must be at least 1 (the star url)")
    entries = {
        f"q{i}": tuple(f"q{i}/u{j}" for j in range(args.kq - 1)) + (STAR,)
        for i in range(args.k - 1)
    }
    entries[STAR] = (STAR,)
    hl = HeadList(entries, Stage.CLIENT_AUGMENTED)
    model = client.build_report_model(params, hl)
    violation = oracle.verify_dp_closed_form(model, params.epsilon, params.delta)
    print(f"max violation: {violation:.3e} ({'PASS' if violation <= 0 else 'FAIL'})")
    return 0 if violation <= 0 else 3


def _read_prob_csv(path: str) -> dict[Record, float]:
    probs: dict[Record, float] = {}
    first_line: dict[Record, int] = {}
    with data.open_input(path) as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        key = "p_blend" if "p_blend" in header else "p"
        missing = [c for c in ("query", "url", key) if c not in header]
        if missing:
            raise ParseError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            if None in (row["query"], row["url"]):  # DictReader's fill for a short row
                raise ParseError(f"{path}, line {reader.line_num}: missing query or url cell")
            try:
                p = float(row[key])
                if not 0.0 <= p <= 1.0:  # also rejects nan
                    raise ValueError
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}, line {reader.line_num}: {key} is {row[key]!r}, not a number in [0, 1]"
                ) from None
            record = Record(decode_star(row["query"]), decode_star(row["url"]))
            if record in first_line:
                raise ParseError(
                    f"{path}, line {reader.line_num}: record ({encode_star(record.query)!r}, "
                    f"{encode_star(record.url)!r}) repeats line {first_line[record]}"
                )
            first_line[record] = reader.line_num
            probs[record] = p
    return probs


def _cmd_metrics(args) -> int:
    blended, truth = _read_prob_csv(args.blended), _read_prob_csv(args.truth)
    try:
        l1, ndcg = metrics.score(blended, truth)
    except ParamError as exc:
        raise ParamError(f"{args.blended} scored against {args.truth}: {exc}") from None
    print(f"L1 = {l1:.6f}")
    print(f"NDCG = {ndcg:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridhh",
        description="Hybrid-model differentially private heavy-hitter estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="execute one full pipeline run")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter grid")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic power-law log")
    p_synth.add_argument("--users", type=int, required=True)
    p_synth.add_argument("--queries", type=int, required=True)
    p_synth.add_argument("--urls", type=int, required=True)
    p_synth.add_argument("--exponent", type=float, default=harness.SynthSpec.exponent)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_vdp = sub.add_parser("verify-dp", help="exact DP check for a head-list shape")
    p_vdp.add_argument("--k", type=int, required=True, help="number of queries incl. star")
    p_vdp.add_argument("--kq", type=int, required=True, help="urls per query incl. star")
    p_vdp.add_argument("--epsilon", type=float, required=True)
    p_vdp.add_argument("--delta", type=float, required=True)
    p_vdp.add_argument("--f-c", type=float, default=PrivacyParams.f_C, dest="f_c")
    p_vdp.set_defaults(func=_cmd_verify_dp)

    p_met = sub.add_parser("metrics", help="score a blended output against truth")
    p_met.add_argument("--blended", required=True, help="blended.csv from a run")
    p_met.add_argument("--truth", required=True, help="truth CSV (query,url,p)")
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParamError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
