"""Smoke test of the benchmark itself, with every workload scaled down.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload reports every metric of BENCHMARK.json with its
unit, traced and untraced, and that a failing op is counted without
ending the run.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from hybridhh import client  # noqa: E402
from hybridhh.core import ParamError  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result = run.run_workload(name, 7, 0.0, trace, tmp_path, workloads.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.QUALITY_OPS
    reported = {m: entry["unit"] for m, entry in result["metrics"].items()}
    assert reported == _units("per_layer" if trace else "end_to_end")
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert (tmp_path / f"{name}-seed7-trace{int(trace)}.json").is_file()


def test_traced_children_and_self_time_cover_the_op(tmp_path):
    result = run.run_workload("zipf-100k", 7, 0.0, True, tmp_path, workloads.TINY)
    values = {m: entry["value"] for m, entry in result["metrics"].items()}
    assert values["sampling.substream_calls"] > 0
    assert values["client.local_privatize_calls"] == values["data.sample_per_user_calls"] - 2
    assert values["harness.self_s"] > 0
    assert 0 < values["optin.keep_ratio"] <= 1
    assert 0 < values["client.star_report_share"] < 1


def test_a_failing_op_is_counted_and_the_run_goes_on(monkeypatch, tmp_path):
    real = client.client_estimates_from_counts
    calls = []

    def fail_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ParamError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(client, "client_estimates_from_counts", fail_second_call)
    result = run.run_workload("zipf-100k", 7, 0.0, False, tmp_path, workloads.TINY)
    # QUALITY_OPS timed ops plus the determinism rerun, one of them failed.
    assert result["attempted"] == run.QUALITY_OPS + 1
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["op_s_p50"]["value"] > 0
