"""The benchmark's workloads read the dataset surface (`len`, `users`) to
report input sizes; this test fails when the program changes what they
read. `perfbench/workloads.py` is loaded by path, unmodified."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the defining module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tsv_wide_sizes_count_the_log(tmp_path):
    workloads = load_workloads()
    workload = workloads.make("tsv-wide", 1, workloads.TINY, tmp_path)
    workload.write_inputs()
    workload.setup()
    out_dir = tmp_path / "op0"
    result = workload.op(0, out_dir)
    workload.check(result, out_dir)

    lines = workload.log_path.read_text(encoding="utf-8").splitlines()
    sizes = workload.sizes_of(result)
    assert sizes["log_lines"] == len(lines)
    assert sizes["users"] == len({line.split("\t")[0] for line in lines})
