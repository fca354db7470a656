"""Layer tracing installed from outside the package.

Each wrapper replaces a module attribute that the program looks up at
call time (`harness` calls `data.partition_users`, `oracle.verify_dp`
calls its own global `enumerate_report_distribution`, and so on), so the
program's source is not touched. `harness` imports `substream` and
`client_stream_id` by name, so those are wrapped on `harness`.

Coarse calls become spans (name, start, end, parent, op). The four
per-client calls, about 100k per op, are kept as a count plus summed
seconds instead. Every frame adds its duration to its parent's child
time, which gives each span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from hybridhh.core import STAR

# (module, attribute, trace name, kept as count + seconds instead of spans)
WRAPPED = (
    ("hybridhh.cli", "main", "cli.main", False),
    ("hybridhh.harness", "run_blender", "harness.run_blender", False),
    ("hybridhh.harness", "write_artifacts", "harness.write_artifacts", False),
    ("hybridhh.harness", "substream", "sampling.substream", True),
    ("hybridhh.harness", "client_stream_id", "sampling.client_stream_id", True),
    ("hybridhh.data", "parse_log", "data.load", False),
    ("hybridhh.data", "synth_zipf", "data.load", False),
    ("hybridhh.data", "partition_users", "data.partition_users", False),
    ("hybridhh.data", "sample_per_user", "data.sample_per_user", True),
    ("hybridhh.data", "empirical_distribution", "data.empirical_distribution", False),
    ("hybridhh.optin", "create_head_list", "optin.create_head_list", False),
    ("hybridhh.optin", "estimate_optin_probabilities", "optin.estimate", False),
    ("hybridhh.client", "build_report_model", "client.build_report_model", False),
    ("hybridhh.client", "local_privatize", "client.local_privatize", True),
    ("hybridhh.client", "client_estimates_from_counts", "client.denoise", False),
    ("hybridhh.blend", "blend_probabilities", "blend.blend", False),
    ("hybridhh.metrics", "strip_stars_and_rescale", "metrics.strip", False),
    ("hybridhh.metrics", "generalized_ndcg", "metrics.ndcg", False),
    ("hybridhh.metrics", "l1_distance", "metrics.l1", False),
    ("hybridhh.oracle", "verify_dp", "oracle.verify_dp", False),
    ("hybridhh.oracle", "enumerate_report_distribution", "oracle.enumerate", False),
)

# Spans whose arguments and result feed a count; kept for the current op only.
CAPTURED = frozenset({
    "optin.create_head_list", "optin.estimate", "client.build_report_model",
    "client.denoise", "harness.write_artifacts", "oracle.verify_dp",
})

# Per-layer metric -> unit. Times are seconds per op, summed over calls.
UNITS = {
    "sampling.substream_s": "s",
    "sampling.substream_calls": "count",
    "sampling.client_stream_id_s": "s",
    "data.load_s": "s",
    "data.sample_per_user_s": "s",
    "data.sample_per_user_calls": "count",
    "data.partition_users_s": "s",
    "data.empirical_distribution_s": "s",
    "optin.create_head_list_s": "s",
    "optin.s_distinct_records": "count",
    "optin.admitted_records": "count",
    "optin.estimate_s": "s",
    "optin.final_records": "count",
    "optin.keep_ratio": "1",
    "client.local_privatize_s": "s",
    "client.local_privatize_calls": "count",
    "client.build_report_model_s": "s",
    "client.denoise_s": "s",
    "client.augmented_records": "count",
    "client.star_report_share": "1",
    "blend.blend_s": "s",
    "metrics.strip_s": "s",
    "metrics.ndcg_s": "s",
    "metrics.l1_s": "s",
    "harness.self_s": "s",
    "harness.write_artifacts_s": "s",
    "harness.artifact_bytes": "bytes",
    "oracle.verify_dp_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.enumerate_calls": "count",
    "oracle.input_pairs": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "1",
}

# Per-layer metric -> the span or per-call name whose summed seconds it is.
SECONDS = {
    "sampling.substream_s": "sampling.substream",
    "sampling.client_stream_id_s": "sampling.client_stream_id",
    "data.sample_per_user_s": "data.sample_per_user",
    "data.partition_users_s": "data.partition_users",
    "data.empirical_distribution_s": "data.empirical_distribution",
    "optin.create_head_list_s": "optin.create_head_list",
    "optin.estimate_s": "optin.estimate",
    "client.local_privatize_s": "client.local_privatize",
    "client.build_report_model_s": "client.build_report_model",
    "client.denoise_s": "client.denoise",
    "blend.blend_s": "blend.blend",
    "metrics.strip_s": "metrics.strip",
    "metrics.ndcg_s": "metrics.ndcg",
    "metrics.l1_s": "metrics.l1",
    "harness.write_artifacts_s": "harness.write_artifacts",
    "oracle.verify_dp_s": "oracle.verify_dp",
    "oracle.enumerate_s": "oracle.enumerate",
}
CALLS = {
    "sampling.substream_calls": "sampling.substream",
    "data.sample_per_user_calls": "data.sample_per_user",
    "client.local_privatize_calls": "client.local_privatize",
    "oracle.enumerate_calls": "oracle.enumerate",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span
    op: str
    child_s: float       # seconds covered by wrapped calls inside this one


class Tracer:
    """Spans and per-call totals in memory; `install` and `uninstall`
    swap the wrappers in and out of the program's modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[tuple[str, str], list] = {}   # (op, name) -> [count, seconds]
        self.captured: dict[str, tuple] = {}
        self.op = "setup"
        self._stack: list[list] = []                   # open frames: [child seconds, span index]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, per_call in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._per_call(name, fn) if per_call else self._span(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def begin_op(self, op: str) -> None:
        self.op = op
        self.captured.clear()

    def _per_call(self, name, fn):
        # Called ~100k times per op, so the wrapper does as little as it
        # can: the op's counter and the frame are bound once, at install
        # time (wrappers are installed per op), and the frame is reused,
        # since none of these functions recurses.
        stack = self._stack
        acc = self.calls.setdefault((self.op, name), [0, 0.0])
        frame = [0.0, None]

        def wrapper(*args, **kwargs):
            frame[1] = stack[-1][1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                acc[0] += 1
                acc[1] += dur

        return wrapper

    def _span(self, name, fn):
        stack = self._stack
        spans = self.spans
        signature = inspect.signature(fn) if name in CAPTURED else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1][1] if stack else None, self.op, 0.0)
            spans.append(span)
            frame = [0.0, index]
            stack.append(frame)
            span.start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += span.end - span.start
                span.child_s = frame[0]
                if signature is not None:
                    self.captured[name] = (signature.bind(*args, **kwargs).arguments, result)

        return wrapper

    def layer_metrics(self, op: str) -> dict[str, float]:
        """Every per-layer metric except the set-up and overhead ones, for one op."""
        indexed = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        spans = [s for _, s in indexed]
        out = {}
        for metric, name in SECONDS.items():
            acc = self.calls.get((op, name))
            if acc is not None:
                out[metric] = acc[1]
            else:
                out[metric] = sum(s.end - s.start for s in spans if s.name == name)
        for metric, name in CALLS.items():
            acc = self.calls.get((op, name))
            out[metric] = acc[0] if acc is not None else sum(1 for s in spans if s.name == name)
        out["harness.self_s"] = sum(
            s.end - s.start - s.child_s for s in spans if s.name == "harness.run_blender"
        )
        # cli.self_s keeps argument parsing and the model build, so only
        # the oracle children are taken off.
        out["cli.self_s"] = sum(
            s.end - s.start - sum(
                c.end - c.start for c in spans
                if c.parent == index and c.name.startswith("oracle.")
            )
            for index, s in indexed if s.name == "cli.main"
        )
        out.update(self._counts())
        return out

    def _counts(self) -> dict[str, float]:
        """Counts read off the arguments and results of the current op."""
        out = {
            "optin.s_distinct_records": 0, "optin.admitted_records": 0,
            "optin.final_records": 0, "optin.keep_ratio": 0.0,
            "client.augmented_records": 0, "client.star_report_share": 0.0,
            "harness.artifact_bytes": 0, "oracle.input_pairs": 0,
        }
        got = self.captured
        if "optin.create_head_list" in got:
            args, hl = got["optin.create_head_list"]
            out["optin.s_distinct_records"] = len(set(args["s_records"]))
            out["optin.admitted_records"] = hl.num_records()
        if "optin.estimate" in got:
            out["optin.final_records"] = got["optin.estimate"][1].head_list.num_records()
            if out["optin.admitted_records"]:
                out["optin.keep_ratio"] = out["optin.final_records"] / out["optin.admitted_records"]
        if "client.build_report_model" in got:
            out["client.augmented_records"] = got["client.build_report_model"][0]["hl"].num_records()
        if "client.denoise" in got:
            args = got["client.denoise"][0]
            on_star = sum(c for r, c in args["counts"].items() if STAR in r)
            out["client.star_report_share"] = on_star / args["n"]
        if "harness.write_artifacts" in got:
            out_dir = Path(got["harness.write_artifacts"][0]["out_dir"])
            out["harness.artifact_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        if "oracle.verify_dp" in got:
            records = got["oracle.verify_dp"][0]["hl"].num_records()
            out["oracle.input_pairs"] = records * (records - 1)
        return out

    def setup_load_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.op == "setup" and s.name == "data.load")

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span and per-call total, plus `extra`, as JSON."""
        doc = dict(extra)
        doc["spans"] = [asdict(s) for s in self.spans]
        doc["per_call"] = [
            {"op": op, "name": name, "calls": n, "seconds": sec}
            for (op, name), (n, sec) in self.calls.items()
        ]
        path.write_text(json.dumps(doc), encoding="utf-8")
