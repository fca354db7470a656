"""Workload inputs, operations and output checks.

Importing this module imports the program (`hybridhh.cli` pulls in every
layer), so the set-up probe times exactly this import plus `setup()`.
Every input is derived from the workload seed; the program only sees the
generated dataset, log file or command line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hybridhh import cli, harness
from hybridhh.core import HeadList, Stage

ARTIFACTS = ("headlist.tsv", "optin_estimates.csv", "blended.csv", "metrics.csv")
NAMES = ("zipf-100k", "tsv-wide", "certify")
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class Sizes:
    users: int        # zipf-100k and tsv-wide
    wide_queries: int  # tsv-wide query vocabulary
    wide_urls: int     # tsv-wide urls per query
    verify_k: int      # certify: queries incl. the wildcard
    verify_kq: int     # certify: urls per query incl. the wildcard


FULL = Sizes(users=100_000, wide_queries=3000, wide_urls=8, verify_k=14, verify_kq=4)
# Scaled-down shapes for the benchmark's own smoke test.
TINY = Sizes(users=4000, wide_queries=300, wide_urls=8, verify_k=4, verify_kq=3)


def make(name: str, seed: int, sizes: Sizes, work_dir: Path):
    if name == "zipf-100k":
        return ZipfWorkload(seed, sizes, work_dir)
    if name == "tsv-wide":
        return WideTsvWorkload(seed, sizes, work_dir)
    if name == "certify":
        return CertifyWorkload(seed, sizes, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


class PipelineWorkload:
    """One op is one `harness.run_blender` call writing its artifacts."""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.dataset = None
        self.repr_cells = 0   # numpy-repr estimate cells in the last checked op

    def config(self) -> harness.ExperimentConfig:
        raise NotImplementedError

    def write_inputs(self) -> None:
        """Inputs the benchmark itself writes; not part of set-up time."""

    def setup(self) -> None:
        self.dataset = harness.load_dataset(self.config())

    def op(self, i: int, out_dir: Path):
        run_seed = harness.derive_seed(self.seed, i)
        return harness.run_blender(self.config(), self.dataset, seed=run_seed, out_dir=out_dir)

    def quality(self, result) -> tuple[float, float]:
        return result.row.l1, result.row.ndcg

    def check(self, result, out_dir: Path) -> None:
        for name in ARTIFACTS:
            if not (out_dir / name).is_file():
                raise CheckFailed(f"{name} was not written")
        hl = HeadList.from_tsv((out_dir / "headlist.tsv").read_text(encoding="utf-8"), Stage.FINAL)
        if list(hl.records()) != list(result.head_list.records()):
            raise CheckFailed("headlist.tsv does not match the run's head list")
        optin_rows = _read_csv(out_dir / "optin_estimates.csv")
        blended_rows = _read_csv(out_dir / "blended.csv")
        if len(optin_rows) != hl.num_records() or len(blended_rows) != hl.num_records():
            raise CheckFailed("estimate tables do not cover the head list")
        self.repr_cells = 0
        for row in optin_rows:
            self._number(row, "p_hat", "var_hat")
        for row in blended_rows:
            self._number(row, "w", "p_optin", "var_optin", "p_client", "var_client")
        p_blend = [float(row["p_blend"]) for row in blended_rows]
        if min(p_blend) < 0.0:
            raise CheckFailed(f"negative blended probability {min(p_blend)!r}")
        if abs(math.fsum(p_blend) - 1.0) > 1e-9:
            raise CheckFailed(f"blended probabilities sum to {math.fsum(p_blend)!r}")
        (metrics_row,) = _read_csv(out_dir / "metrics.csv")
        l1, ndcg = float(metrics_row["L1"]), float(metrics_row["NDCG"])
        if (l1, ndcg) != self.quality(result):
            raise CheckFailed("metrics.csv disagrees with the returned metrics")
        if not math.isfinite(l1):
            raise CheckFailed(f"L1 is {l1!r}")
        if not 0.0 <= ndcg <= 1.0:
            raise CheckFailed(f"NDCG {ndcg!r} is outside [0, 1]")
        if any(flag.startswith("failed") for flag in metrics_row["flags"].split(";")):
            raise CheckFailed(f"metrics.csv carries a failure flag: {metrics_row['flags']!r}")

    def _number(self, row: dict[str, str], *columns: str) -> None:
        """Every estimate cell must hold a number. Cells written as a numpy
        scalar repr, `np.float64(x)` (what `repr` gives under numpy 2), are
        counted in `repr_cells` and reported, not failed: a known defect of
        the artifact format that the check must not hide."""
        for column in columns:
            cell = row[column]
            match = _NUMPY_REPR.fullmatch(cell)
            if match:
                self.repr_cells += 1
                cell = match.group(1)
            try:
                float(cell)
            except ValueError:
                raise CheckFailed(f"{column} holds {row[column]!r}, not a number") from None

    def sizes_of(self, result) -> dict:
        params = self.config().params
        n = len(self.dataset)
        final = result.head_list
        augmented = final.augment_for_clients()
        return {
            "users": n,
            "log_lines": sum(len(user.records) for user in self.dataset.users),
            "clients": n - round(params.optin_fraction * n),
            "headlist_queries": final.k - 1,
            "headlist_records": final.num_records(),
            "augmented_queries": augmented.k - 1,
            "augmented_records": augmented.num_records(),
        }


class ZipfWorkload(PipelineWorkload):
    """The default config on the default synthetic Zipf log."""

    def config(self) -> harness.ExperimentConfig:
        base = harness.ExperimentConfig()
        return replace(base, seed=self.seed, synth=replace(base.synth, users=self.sizes.users))


class WideTsvWorkload(PipelineWorkload):
    """A multi-record TSV log with a wide vocabulary, M = 250, opt-in 0.4."""

    @property
    def log_path(self) -> Path:
        return self.work_dir / "wide.tsv"

    def config(self) -> harness.ExperimentConfig:
        base = harness.ExperimentConfig()
        params = replace(base.params, optin_fraction=0.4, M=250)
        return replace(base, params=params, seed=self.seed, dataset_path=str(self.log_path))

    def write_inputs(self) -> None:
        write_wide_log(self.log_path, self.seed, self.sizes)


class CertifyWorkload:
    """One op is the exact `verify-dp` check through the command line."""

    repr_cells = 0

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        # verify-dp takes no random input; the seed only names the run.
        self.argv = [
            "verify-dp", "--k", str(sizes.verify_k), "--kq", str(sizes.verify_kq),
            "--epsilon", "4", "--delta", "1e-5",
        ]
        self.records = (sizes.verify_k - 1) * sizes.verify_kq + 1

    def write_inputs(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def op(self, i: int, out_dir: Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def quality(self, result) -> tuple[float, float]:
        # certify ranks nothing, so L1 and NDCG do not apply. It reports a
        # constant 1.0 for both so that every workload has every metric.
        return 1.0, 1.0

    def check(self, result, out_dir: Path) -> None:
        code, output = result
        if code != 0 or "PASS" not in output:
            raise CheckFailed(f"verify-dp exited {code}: {output.strip()!r}")

    def sizes_of(self, result) -> dict:
        return {
            "argv": " ".join(self.argv),
            "records": self.records,
            "input_pairs": self.records * (self.records - 1),
        }


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _zipf(n: int, exponent: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=float) ** -exponent
    return w / w.sum()


def write_wide_log(path: Path, seed: int, sizes: Sizes) -> None:
    """TSV log: a geometric number of records per user (mean 4), with
    queries and per-query urls both Zipf(0.8)."""
    rng = np.random.default_rng([seed, 0x7E5])
    per_user = rng.geometric(0.25, size=sizes.users)
    n = int(per_user.sum())
    owners = np.repeat(np.arange(sizes.users), per_user).tolist()
    queries = rng.choice(sizes.wide_queries, size=n, p=_zipf(sizes.wide_queries, 0.8)).tolist()
    urls = rng.choice(sizes.wide_urls, size=n, p=_zipf(sizes.wide_urls, 0.8)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"user{o:06d}\tq{q}\tq{q}/u{u}\n" for o, q, u in zip(owners, queries, urls)
        )


def same_artifacts(dir_a: Path, dir_b: Path) -> bool:
    return all((dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in ARTIFACTS)

