"""The benchmark's tracer wraps program attributes by name and reads
arguments by name; these tests fail when the program drops or renames
one of them. `perfbench/tracing.py` is loaded by path, unmodified."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from hybridhh import client, harness, optin, oracle
from hybridhh.core import PrivacyParams
from hybridhh.harness import ExperimentConfig, SynthSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the defining module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_exist_and_are_callable():
    for module_name, attr, _, _ in load_tracing().WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_bound_argument_names_exist():
    bound = {
        client.client_estimates_from_counts: ("counts", "n"),
        client.build_report_model: ("hl",),
        oracle.verify_dp: ("hl",),
        harness.write_artifacts: ("out_dir",),
        optin.create_head_list: ("s_records",),
    }
    for fn, names in bound.items():
        params = inspect.signature(fn).parameters
        for name in names:
            assert name in params, f"{fn.__qualname__} lacks {name!r}"


def test_traced_run_reaches_client_layer_and_metrics(tmp_path):
    tracer = load_tracing().Tracer()
    tracer.begin_op("op")
    tracer.install()
    try:
        config = ExperimentConfig(
            params=PrivacyParams(M=10),
            synth=SynthSpec(users=2000, queries=20, urls=2),
            seed=7,
        )
        harness.run_blender(config, harness.load_dataset(config), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics("op")
    # The population is simulated in aggregate: no per-client randomizer
    # call, one per-user pick for each of S, T and the clients.
    assert layers["client.local_privatize_calls"] == 0
    assert layers["data.sample_per_user_calls"] == 3
    assert layers["client.denoise_s"] > 0
    assert layers["client.star_report_share"] > 0
    for name in ("metrics.l1_s", "metrics.ndcg_s", "metrics.strip_s"):
        assert layers[name] > 0, name
