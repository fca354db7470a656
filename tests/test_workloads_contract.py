"""The benchmark's workloads read the dataset surface (`len`, `users`) to
report input sizes, and run and check the pipeline's ops; these tests
fail when the program changes what they read or what an op gives.
`perfbench/workloads.py` is loaded by path, unmodified."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hybridhh import data

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the defining module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def set_up(name, tmp_path):
    workloads = load_workloads()
    workload = workloads.make(name, 1, workloads.TINY, tmp_path)
    workload.write_inputs()
    workload.setup()
    return workloads, workload


def test_tsv_wide_sizes_count_the_log(tmp_path):
    _, workload = set_up("tsv-wide", tmp_path)
    out_dir = tmp_path / "op0"
    result = workload.op(0, out_dir)
    workload.check(result, out_dir)

    lines = workload.log_path.read_text(encoding="utf-8").splitlines()
    sizes = workload.sizes_of(result)
    assert sizes["log_lines"] == len(lines)
    assert sizes["users"] == len({line.split("\t")[0] for line in lines})


def test_zipf_op_checks_and_repeats(tmp_path):
    workloads, workload = set_up("zipf-100k", tmp_path)
    for out_dir in (tmp_path / "op0", tmp_path / "op0-again"):
        workload.check(workload.op(0, out_dir), out_dir)
    assert workloads.same_artifacts(tmp_path / "op0", tmp_path / "op0-again")


@pytest.mark.parametrize("name, complement", [("zipf-100k", True), ("tsv-wide", False)])
def test_workload_keeps_its_side_of_the_clients_choice(tmp_path, monkeypatch, name, complement):
    # From sizes alone: the clients' one-record counts are taken by
    # complement when the opt-in users are fewer than the one-record
    # users outside them, of whom there are at least `singles` less the
    # opt-in users.
    _, workload = set_up(name, tmp_path)
    dataset = workload.dataset
    n_optin = round(workload.config().params.optin_fraction * len(dataset))
    assert (n_optin < dataset.singles - n_optin) is complement

    sampled, real = [], data.sample_per_user

    def sample_per_user(ds, users, rng):
        sampled.append(len(users))
        return real(ds, users, rng)

    monkeypatch.setattr(data, "sample_per_user", sample_per_user)
    workload.op(0, tmp_path / "op0")
    # Every synthetic user holds one record, so the complement samples no client.
    assert sampled[2] == (0 if complement else len(dataset) - n_optin)
