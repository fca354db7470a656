"""Benchmark entry point: one workload in one single-threaded process.

    python3 perfbench/run.py --workload zipf-100k --seed 1 --seconds 25 --trace 0

Runs ops of the workload for `--seconds` (and at least QUALITY_OPS ops),
checks every op's output, counts failed ops against attempted ones, and
prints one metric per line followed, as the last line, by a JSON object
with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
the end-to-end metrics; `--trace 1` wraps the program's layers (see
tracing.py) and reports the per-layer metrics instead. Details of the
run (environment, input sizes, per-op times and, when traced, every
span) are written under `.perfbench_out/` in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

# setup_s is the median of 3 to 5 set-ups: 5 when they are cheap, and at
# least 3 when they are not (tsv-wide parses a 10 MB log in each).
SETUP_REPS = (3, 5)
SETUP_PROBE_BUDGET_S = 5.0
QUALITY_OPS = 4    # l1_mean and ndcg_mean average the first ops, whose seeds are fixed

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "l1_mean": "1",
    "ndcg_mean": "1",
}


def import_program() -> None:
    """Put the checkout's `src` first on the path and import the program
    from there, or exit non-zero when the checkout holds no program."""
    if not (SRC / "hybridhh" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'hybridhh'}")
    sys.path.insert(0, str(SRC))
    import hybridhh

    if Path(hybridhh.__file__).resolve().parent != (SRC / "hybridhh").resolve():
        sys.exit(f"error: imported hybridhh from {hybridhh.__file__}, not from {SRC}")


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """The checked-out commit, read from `.git` without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(name: str, seed: int, sizes, work_dir: Path) -> float:
    cmd = [
        sys.executable, str(HERE / "probe_setup.py"), name, str(seed),
        json.dumps(dataclasses.asdict(sizes)), str(work_dir),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: Path, sizes) -> dict:
    """Run one workload and return the result object that run.py prints last."""
    import workloads  # here, not at the top: import_program() puts src/ on the path first

    out_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=out_root))
    try:
        workload = workloads.make(name, seed, sizes, work_dir)
        return _measure(workload, name, seed, seconds, trace, out_root, sizes, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(workload, name, seed, seconds, trace, out_root, sizes, work_dir) -> dict:
    import tracing
    import workloads

    env = environment()
    print("env " + json.dumps(env), flush=True)
    workload.write_inputs()
    setup_samples = []
    while not trace and (
        len(setup_samples) < SETUP_REPS[0]
        or len(setup_samples) < SETUP_REPS[1] and sum(setup_samples) < SETUP_PROBE_BUDGET_S
    ):
        setup_samples.append(probe_setup(name, seed, sizes, work_dir))
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer:
            tracer.uninstall()

    op_times: list[tuple[bool, float]] = []   # (traced, seconds) of each passing op
    repr_cells = []   # per passing op; see PipelineWorkload._number
    layer_rows = []

    def attempt(i: int, out_dir: Path, traced: bool):
        """One checked op with run seed `i`; its result, or None if it failed."""
        try:
            if traced:
                tracer.begin_op(out_dir.name)
                tracer.install()
            try:
                t0 = perf_counter()
                result = workload.op(i, out_dir)
                elapsed = perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            workload.check(result, out_dir)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            print(f"{out_dir.name} failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        op_times.append((traced, elapsed))
        repr_cells.append(workload.repr_cells)
        if traced:
            layer_rows.append(tracer.layer_metrics(out_dir.name))
        return result

    attempted = failed = 0
    quality = []
    input_sizes = None
    start = perf_counter()
    i = 0
    # The traced run alternates untraced and traced ops, so that its
    # untraced ops give the overhead's base under the same conditions.
    while i < QUALITY_OPS or perf_counter() - start < seconds:
        attempted += 1
        result = attempt(i, work_dir / f"op{i}", traced=tracer is not None and i % 2 == 1)
        if result is None:
            failed += 1
        else:
            if i < QUALITY_OPS:
                quality.append(workload.quality(result))
            if input_sizes is None:
                input_sizes = workload.sizes_of(result)
        if i > 0:
            shutil.rmtree(work_dir / f"op{i}", ignore_errors=True)
        i += 1

    # Determinism: op 0 again, as one more timed op, and its artifacts
    # compared byte for byte with the first run's.
    deterministic = None
    if isinstance(workload, workloads.PipelineWorkload) and (work_dir / "op0").is_dir():
        attempted += 1
        deterministic = (
            attempt(0, work_dir / "op0-rerun", traced=False) is not None
            and workloads.same_artifacts(work_dir / "op0", work_dir / "op0-rerun")
        )
        if not deterministic:
            failed += 1
            print("determinism check failed on the rerun of op 0", file=sys.stderr)

    untraced = [t for traced, t in op_times if not traced]
    if trace:
        traced_times = [t for traced, t in op_times if traced]
        metrics = {m: _median([row[m] for row in layer_rows]) for m in layer_rows[0]} if layer_rows else {}
        metrics["data.load_s"] = tracer.setup_load_s()
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(untraced) - 1.0
            if traced_times and untraced else None
        )
        units = tracing.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": _median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "l1_mean": statistics.fmean(q[0] for q in quality) if quality else None,
            "ndcg_mean": statistics.fmean(q[1] for q in quality) if quality else None,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics.get(m), "unit": unit} for m, unit in units.items()},
    }

    print("sizes " + json.dumps(input_sizes), flush=True)
    print(f"ops: {attempted} attempted, {failed} failed; "
          f"op_s samples: {len(untraced)} untraced, {len(op_times) - len(untraced)} traced; "
          f"determinism: {deterministic}")
    if any(repr_cells):
        print(f"artifact defect: up to {max(repr_cells)} estimate cells per op are written "
              "as numpy scalar reprs (np.float64(...)) instead of numbers")
    for m, entry in result["metrics"].items():
        print(f"{m} = {entry['value']} {entry['unit']}")
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes_preset": dataclasses.asdict(sizes), "env": env, "input_sizes": input_sizes,
        "setup_samples": setup_samples, "op_times": op_times, "quality": quality,
        "deterministic": deterministic, "repr_cells": repr_cells, "layer_rows": layer_rows, "result": result,
    }
    path = out_root / f"{name}-seed{seed}-trace{int(trace)}.json"
    if tracer:
        tracer.dump(path, report)
    else:
        path.write_text(json.dumps(report), encoding="utf-8")
    return result


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a kill into an exit, so the work directory and any set-up probe
    # are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One process, one thread: numpy must not start a BLAS thread pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_ROOT, workloads.FULL
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
