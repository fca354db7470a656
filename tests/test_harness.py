import csv
import hashlib
import io
import math
import operator
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridhh import cli, client, core, data, harness, oracle
from hybridhh.core import STAR, PrivacyParams, encode_star
from hybridhh.harness import (
    ConfigError,
    ExperimentConfig,
    MetricsRow,
    SweepAxes,
    SynthSpec,
    derive_seed,
    load_dataset,
    parse_config,
    run_blender,
    sweep,
)

# PrivacyParams accepts epsilon below this at the default f_C = 0.85; from
# there on e^(0.85 epsilon) overflows a float.
EPS_LIMIT = math.log(sys.float_info.max) / 0.85

SMALL_SYNTH = SynthSpec(users=2000, queries=20, urls=2, exponent=1.0)


def small_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        params=PrivacyParams(M=10), synth=SMALL_SYNTH, seed=7
    )
    return replace(base, **overrides)


CONFIG_TEXT = """\
# experiment setup
epsilon = 4.0
delta = 1e-5
M = 10
optin_fraction = 0.05
synth_users = 2000
synth_queries = 20
synth_urls = 2
seed = 7
out = results_test

[sweep]
epsilon = 2.0, 4.0
seeds = 2
"""


class TestParseConfig:
    def test_full_round_trip(self):
        config = parse_config(CONFIG_TEXT)
        assert config.params.epsilon == 4.0
        assert config.params.M == 10
        assert config.synth.users == 2000
        assert config.seed == 7
        assert config.out_dir == "results_test"
        assert config.sweep == SweepAxes(epsilon=(2.0, 4.0), seeds=2)

    def test_empty_config_is_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config("nonsense = 1\n")

    def test_projection_key_rejected(self):
        # The blend always projects onto the simplex; there is no knob.
        with pytest.raises(ConfigError, match="unknown config keys: \\['projection'\\]"):
            parse_config("projection = true\n")

    def test_m_C_key_rejected(self):
        # Each user reports one record, so there is no per-client record count.
        with pytest.raises(ConfigError, match="unknown config keys: \\['m_C'\\]"):
            parse_config("m_C = 1\n")

    def test_empty_out_rejected(self):
        with pytest.raises(ConfigError, match="out must name a directory"):
            parse_config("out =\n")
        with pytest.raises(ConfigError, match="out must name a directory"):
            replace(ExperimentConfig(), out_dir="")

    def test_sweep_seeds_below_one_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config("[sweep]\nseeds = 0\n")
        # The API path too, where a sweep would otherwise run no cell.
        with pytest.raises(ConfigError, match="seeds must be >= 1"):
            SweepAxes(seeds=0)

    def test_bad_sweep_axis_value_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] M = 0: M must be >= 1"):
            parse_config("M = 5\n[sweep]\nM = 5, 0\n")
        with pytest.raises(ConfigError, match=r"\[sweep\] epsilon = -1.0"):
            parse_config("[sweep]\nepsilon = 4, -1\n")
        with pytest.raises(ConfigError, match="optin_fraction = 1.5"):
            parse_config("[sweep]\noptin_fraction = 1.5\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = -1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[grid]\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config("epsilon = high\n")

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("epsilon = -2\n")

    @pytest.mark.parametrize("text, key, first, second", [
        ("epsilon = 2\nepsilon = 5\n", "epsilon", 1, 2),
        ("M = 5\n[sweep]\nM = 5, 10\n# note\nM = 20\n", r"\[sweep\] M", 3, 5),
        ("[sweep]\nM = 5\n[sweep]\nM = 10\n", r"\[sweep\] M", 2, 4),
    ])
    def test_repeated_key_rejected(self, text, key, first, second):
        message = rf"^line {second}: {key} is already given on line {first}$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_same_key_at_top_level_and_in_sweep_is_not_repeated(self):
        config = parse_config("epsilon = 3\n[sweep]\nepsilon = 2, 4\n")
        assert config.params.epsilon == 3.0 and config.sweep.epsilon == (2.0, 4.0)

    @pytest.mark.parametrize("axis", ["epsilon =", "epsilon = ,", "M = , ,", "optin_fraction ="])
    def test_empty_sweep_axis_rejected(self, axis):
        with pytest.raises(ConfigError, match=rf"\[sweep\] {axis.split()[0]} is empty"):
            parse_config(f"[sweep]\n{axis}\n")

    def test_hash_inside_a_value_is_kept(self):
        config = parse_config(
            "# header\ndataset = logs/a#b.tsv   # the log\nout = r#1\n\t# indented comment\n"
        )
        assert config.dataset_path == "logs/a#b.tsv"
        assert config.out_dir == "r#1"
        assert parse_config("seed = 4 # c\n").seed == 4

    @pytest.mark.parametrize("text, attr, expected", [
        ("epsilon = 2.5", "params.epsilon", 2.5),
        ("delta = 1e-6", "params.delta", 1e-6),
        ("m_O = 1", "params.m_O", 1),
        ("f_O = 0.9", "params.f_O", 0.9),
        ("f_C = 0.8", "params.f_C", 0.8),
        ("M = 10", "params.M", 10),
        ("optin_fraction = 0.1", "params.optin_fraction", 0.1),
        ("synth_users = 3000", "synth.users", 3000),
        ("synth_queries = 30", "synth.queries", 30),
        ("synth_urls = 3", "synth.urls", 3),
        ("synth_exponent = 1.2", "synth.exponent", 1.2),
        ("synth_exponent = 2", "synth.exponent", 2.0),
        ("seed = 9", "seed", 9),
        ("out = elsewhere", "out_dir", "elsewhere"),
        ("dataset = logs/a.tsv", "dataset_path", "logs/a.tsv"),
        ("dataset = synth", "dataset_path", None),
        ("dataset =", "dataset_path", None),
        ("[sweep]\nepsilon = 2, 4.5", "sweep.epsilon", (2.0, 4.5)),
        ("[sweep]\nepsilon = 2, , 4.5,", "sweep.epsilon", (2.0, 4.5)),
        ("[sweep]\noptin_fraction = 0.05, 0.1", "sweep.optin_fraction", (0.05, 0.1)),
        ("[sweep]\nM = 5, 10", "sweep.M", (5, 10)),
        ("[sweep]\nseeds = 3", "sweep.seeds", 3),
    ])
    def test_every_key_round_trips_with_its_type(self, text, attr, expected):
        config = parse_config(text + "\n")
        value = operator.attrgetter(attr)(config)
        assert value == expected
        assert type(value) is type(expected)
        if isinstance(value, tuple):
            assert [type(v) for v in value] == [type(e) for e in expected]
        # Every other setting keeps its default.
        *path, name = attr.split(".")
        reset = {name: operator.attrgetter(attr)(ExperimentConfig())}
        for part in reversed(path):
            reset = {part: replace(getattr(config, part), **reset)}
        assert replace(config, **reset) == ExperimentConfig()


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seen = {derive_seed(1, cell, rep) for cell in range(10) for rep in range(10)}
        assert len(seen) == 100


class TestRunBlender:
    def test_produces_sane_result(self):
        config = small_config()
        dataset = load_dataset(config)
        result = run_blender(config, dataset)
        assert result.head_list.stage.name == "FINAL"
        n_regular = sum(1 for q in result.head_list.queries if q != STAR)
        assert 1 <= n_regular <= config.params.M
        vals = list(result.blended.probs.values())
        assert all(v >= 0 for v in vals)
        assert sum(vals) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= result.row.ndcg <= 1.0
        assert result.row.l1 >= 0.0

    def test_deterministic_given_seed(self):
        config = small_config()
        dataset = load_dataset(config)
        a = run_blender(config, dataset)
        b = run_blender(config, dataset)
        assert a.blended.probs == b.blended.probs
        assert a.row == b.row

    @pytest.mark.parametrize("source", ["synthetic", "tsv"])
    def test_empirical_truth_only_without_a_known_one(self, source, tmp_path, monkeypatch):
        """A TSV run builds its truth by one `empirical_distribution` call
        on the S and T picks, by record id; a synthetic run, which knows
        its truth, makes none."""
        config = small_config()
        if source == "tsv":
            write_multi_record_log(tmp_path / "log.tsv")
            config = replace(config, dataset_path=str(tmp_path / "log.tsv"))
        dataset = load_dataset(config)
        calls, picks = [], []
        real_empirical, real_sample = data.empirical_distribution, data.sample_per_user
        monkeypatch.setattr(
            data, "empirical_distribution",
            lambda counts: calls.append(counts.copy()) or real_empirical(counts),
        )
        monkeypatch.setattr(
            data, "sample_per_user", lambda *args: picks.append(real_sample(*args)) or picks[-1]
        )
        run_blender(config, dataset)
        if source == "tsv":
            (counts,) = calls
            assert counts.tolist() == (picks[0] + picks[1]).tolist()
            assert len(counts) == len(dataset.record_table)
        else:
            assert calls == []

    def test_seed_changes_output(self):
        config = small_config()
        dataset = load_dataset(config)
        a = run_blender(config, dataset, seed=1)
        b = run_blender(config, dataset, seed=2)
        assert a.blended.probs != b.blended.probs

    def test_artifacts_written(self, tmp_path):
        config = small_config()
        dataset = load_dataset(config)
        run_blender(config, dataset, out_dir=tmp_path)
        for name in ("headlist.tsv", "optin_estimates.csv", "blended.csv", "metrics.csv"):
            assert (tmp_path / name).stat().st_size > 0
        with open(tmp_path / "blended.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {
            "query", "url", "p_blend", "w", "p_optin", "var_optin", "p_client", "var_client",
        }
        assert any(r["query"] == "*" and r["url"] == "*" for r in rows)

    def test_artifacts_reuse_the_blends_client_slots(self, tmp_path, monkeypatch):
        # The denoiser looks the reports up once, and the blend the final
        # list once; the writer reads the client estimates at the slots
        # the blend kept, with no lookup of its own.
        calls = []
        real = core.HeadList.slots

        def recording(self, records):
            calls.append(list(records))
            return real(self, records)

        monkeypatch.setattr(core.HeadList, "slots", recording)
        config = small_config()
        dataset = load_dataset(config)
        seen = []
        for out_dir in (None, tmp_path):
            calls.clear()
            result = run_blender(config, dataset, out_dir=out_dir)
            final = list(result.head_list.records())
            assert [c == final for c in calls].count(True) == 1
            seen.append(list(calls))
        assert seen[0] == seen[1]

    def test_estimate_cells_are_plain_floats(self, tmp_path):
        # Every estimate, variance and weight cell of a synthetic and a TSV
        # run is a Python float's repr: it parses with float() and never
        # reads "np.float64(...)".
        write_multi_record_log(tmp_path / "log.tsv")
        for config in (small_config(), small_config(dataset_path=str(tmp_path / "log.tsv"))):
            out = tmp_path / ("tsv" if config.dataset_path else "synthetic")
            run_blender(config, load_dataset(config), out_dir=out)
            for name in ("optin_estimates.csv", "blended.csv"):
                with open(out / name, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                columns = [c for c in rows[0] if c.startswith(("p_", "var_")) or c == "w"]
                assert len(columns) == len(rows[0]) - 2
                for row in rows:
                    for column in columns:
                        assert "np." not in row[column] and math.isfinite(float(row[column]))

    def test_clients_are_mapped_to_the_list_without_canonicalize(self, monkeypatch):
        # The clients' records reach their head-list slots through
        # `core.record_slots`, which reads the list's carried ids; none is
        # canonicalized one at a time.
        def refuse(record, hl):
            raise AssertionError(f"canonicalize({record}) in a run")

        monkeypatch.setattr(client, "canonicalize", refuse)
        monkeypatch.setattr(core, "canonicalize", refuse)
        config = small_config()
        result = run_blender(config, load_dataset(config))
        assert result.client_est.head_list == result.head_list.augment_for_clients()


class TestMetricsRow:
    def test_flags_column(self):
        row = MetricsRow(4.0, 1e-5, 0.05, 50, 1, 0.2, 0.95, headlist_short=True)
        assert row.as_csv_row()[-1] == "headlist_short"
        row = MetricsRow(4.0, 1e-5, 0.05, 50, 1, float("nan"), float("nan"),
                         headlist_short=False, status="failed:ParamError")
        out = row.as_csv_row()
        assert out[-1] == "failed:ParamError"
        assert out[5] == "" and out[6] == ""


class TestSweep:
    def test_grid_runs_and_records_failures(self, tmp_path):
        # epsilon = 0.5 violates the head-list precondition (eps <= ln 2)
        # and must yield error rows, not abort the sweep.
        config = small_config(sweep=SweepAxes(epsilon=(0.5, 4.0), seeds=2))
        dataset = load_dataset(config)
        out = tmp_path / "sweep.csv"
        rows = sweep(config, dataset, out_path=out)
        assert len(rows) == 4
        failed = [r for r in rows if r.status != "ok"]
        ok = [r for r in rows if r.status == "ok"]
        assert all(r.epsilon == 0.5 for r in failed) and len(failed) == 2
        assert all(r.epsilon == 4.0 for r in ok) and len(ok) == 2
        with open(out, newline="") as fh:
            read = list(csv.reader(fh))
        assert read[0] == list(MetricsRow.FIELDS)
        assert len(read) == 5

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a domain failure")

        monkeypatch.setattr(harness, "run_blender", broken)
        config = small_config(sweep=SweepAxes(seeds=1))
        with pytest.raises(ValueError, match="not a domain failure"):
            sweep(config, load_dataset(config))

    def test_dataset_is_loaded_once(self, monkeypatch):
        loads = []
        real = harness.load_dataset

        def counting(config):
            loads.append(config)
            return real(config)

        monkeypatch.setattr(harness, "load_dataset", counting)
        config = small_config(sweep=SweepAxes(epsilon=(2.0, 4.0), seeds=2))
        rows = sweep(config)
        assert len(rows) == 4 and len(loads) == 1

    def test_pinned_sweep_csv(self, tmp_path):
        # Three axes, two seeds, 9 of the 24 cells failing: every ε = 0.5
        # cell, and one ε = 2 cell whose head list admits no records. The
        # digest pins the cell order, the derived seeds and every byte of
        # the rows.
        config = parse_config(
            "epsilon = 4.0\nM = 10\nseed = 3\n"
            "synth_users = 3000\nsynth_queries = 30\nsynth_urls = 3\n"
            "[sweep]\nepsilon = 0.5, 2, 4\noptin_fraction = 0.05, 0.1\nM = 5, 10\nseeds = 2\n"
        )
        out = tmp_path / "sweep.csv"
        rows = sweep(config, out_path=out)
        assert len(rows) == 24
        assert sum(r.status == "failed:ParamError" for r in rows) == 9
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "17f8ae56968b118e2b2048a2d72b9b5cb007929d71804df6888b6807285e3ad6"
        )

    def test_distinct_seeds_per_repetition(self):
        config = small_config(sweep=SweepAxes(seeds=3))
        dataset = load_dataset(config)
        rows = sweep(config, dataset)
        assert len({r.seed for r in rows}) == 3


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "config.txt"
        path.write_text(CONFIG_TEXT.split("[sweep]")[0] + extra, encoding="utf-8")
        return path

    def test_run_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "blended.csv").exists()
        assert "NDCG" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "[sweep]\nepsilon = 4.0\nseeds = 2\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_synth_and_metrics_commands(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        rc = cli.main(
            ["synth", "--users", "3000", "--queries", "10", "--urls", "2",
             "--seed", "3", "--out", str(log)]
        )
        assert rc == 0
        assert log.exists()
        truth = Path(str(log) + ".truth.csv")
        assert truth.exists()

        config = tmp_path / "config.txt"
        config.write_text(f"dataset = {log}\nM = 10\nseed = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0

        capsys.readouterr()
        rc = cli.main(
            ["metrics", "--blended", str(out / "blended.csv"), "--truth", str(truth)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "L1 =" in text and "NDCG =" in text

    def synthetic_run(self, tmp_path):
        """`synth` a log, then `run` the same spec and seed on synthetic data."""
        log = tmp_path / "log.tsv"
        argv = ["synth", "--users", "20000", "--queries", "100", "--urls", "3", "--seed", "3"]
        assert cli.main(argv + ["--out", str(log)]) == 0
        config = tmp_path / "config.txt"
        config.write_text(
            "M = 20\nseed = 3\nsynth_users = 20000\nsynth_queries = 100\nsynth_urls = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        return out, Path(str(log) + ".truth.csv")

    def test_metrics_reproduces_the_runs_metrics_csv(self, tmp_path, capsys):
        out, truth = self.synthetic_run(tmp_path)
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        capsys.readouterr()
        argv = ["metrics", "--blended", str(out / "blended.csv"), "--truth", str(truth)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"L1 = {float(row['L1']):.6f}",
            f"NDCG = {float(row['NDCG']):.6f}",
        ]

    def test_metrics_truth_lacking_a_listed_query(self, tmp_path, capsys):
        # q1 is listed with three urls, so it reaches the url-level NDCG
        # with no true mass.
        out, truth = self.synthetic_run(tmp_path)
        listed = (out / "headlist.tsv").read_text(encoding="utf-8").splitlines()
        assert sum(line.startswith("q1\t") for line in listed) == 3
        partial = tmp_path / "partial.csv"
        partial.write_text(
            "".join(
                line for line in truth.read_text(encoding="utf-8").splitlines(keepends=True)
                if not line.startswith("q1,")
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        argv = ["metrics", "--blended", str(out / "blended.csv"), "--truth", str(partial)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == "NDCG = 0.949256"

    def metrics_input_error(self, capsys, blended, truth):
        capsys.readouterr()
        assert cli.main(["metrics", "--blended", str(blended), "--truth", str(truth)]) == 1
        captured = capsys.readouterr()
        assert "L1 =" not in captured.out
        return captured.err

    def test_metrics_wrong_table_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write_config(tmp_path)), "--out", str(out)]) == 0
        wrong = out / "optin_estimates.csv"
        err = self.metrics_input_error(capsys, wrong, out / "blended.csv")
        assert str(wrong) in err and "line 1" in err

    def test_metrics_non_numeric_cell_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write_config(tmp_path)), "--out", str(out)]) == 0
        truth = tmp_path / "truth.csv"
        truth.write_text("query,url,p\nq0,u0,0.5\nq1,u1,abc\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, out / "blended.csv", truth)
        assert str(truth) in err and "line 3" in err and "'abc'" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_metrics_non_finite_blended_cell_exits_1(self, tmp_path, capsys, cell):
        blended = tmp_path / "blended.csv"
        blended.write_text(f"query,url,p_blend\nq,a,0.5\nq,b,{cell}\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("query,url,p\nq,a,0.5\nq,b,0.5\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, blended, truth)
        assert str(blended) in err and "line 3" in err and f"'{cell}'" in err

    def test_metrics_negative_truth_under_a_single_url_query_exits_1(self, tmp_path, capsys):
        blended = tmp_path / "blended.csv"
        blended.write_text("query,url,p_blend\nq,a,0.5\nr,b,0.5\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("query,url,p\nq,a,-0.2\nr,b,0.6\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, blended, truth)
        assert str(truth) in err and "line 2" in err and "'-0.2'" in err and "[0, 1]" in err

    @pytest.mark.parametrize("side", ["blended", "truth"])
    @pytest.mark.parametrize("short", ["0.5,a", "0.5"])
    def test_metrics_row_lacking_a_name_cell_exits_1(self, tmp_path, capsys, side, short):
        # The cells a short row lacks are not compared as names.
        good = {"blended": "p_blend,query,url\n0.5,q,a\n", "truth": "p,query,url\n0.5,q,a\n"}
        paths = {name: tmp_path / f"{name}.csv" for name in good}
        for name, path in paths.items():
            path.write_text(good[name] + (short + "\n" if name == side else ""), encoding="utf-8")
        err = self.metrics_input_error(capsys, paths["blended"], paths["truth"])
        assert str(paths[side]) in err and "line 3" in err and "missing query or url" in err

    def test_metrics_truth_without_mass_on_the_blend_exits_1(self, tmp_path, capsys):
        # The truth has mass outside the wildcard, only none on the blend's records.
        blended = tmp_path / "blended.csv"
        blended.write_text("query,url,p_blend\nqa,ua,0.6\nqb,ub,0.4\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("query,url,p\nqc,uc,1.0\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, blended, truth)
        assert f"{blended} scored against {truth}" in err
        assert "the truth puts no mass on the estimate's star-free records" in err

    def test_metrics_blend_without_star_free_mass_exits_1(self, tmp_path, capsys):
        blended = tmp_path / "blended.csv"
        blended.write_text("query,url,p_blend\nq,a,0.0\n*,*,1.0\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("query,url,p\nq,a,1.0\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, blended, truth)
        assert f"{blended} scored against {truth}" in err
        assert "the estimate has no mass on its star-free records" in err

    def test_metrics_repeated_record_exits_1(self, tmp_path, capsys):
        once = tmp_path / "once.csv"
        once.write_text("query,url,p\nq,u,0.7\n", encoding="utf-8")
        twice = tmp_path / "twice.csv"
        twice.write_text("query,url,p_blend\nq,u,0.6\nq,u,0.1\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, twice, once)
        assert str(twice) in err and "line 3" in err and "repeats line 2" in err
        # "*" and "⋆" name the same record once star-decoded.
        stars = tmp_path / "stars.csv"
        stars.write_text(f"query,url,p\nq,u,0.5\nq,*,0.2\nq,{STAR},0.3\n", encoding="utf-8")
        err = self.metrics_input_error(capsys, once, stars)
        assert str(stars) in err and "line 4" in err and "repeats line 3" in err

    def test_synth_log_matches_load_dataset(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        rc = cli.main(
            ["synth", "--users", "500", "--queries", "12", "--urls", "3",
             "--exponent", "1.2", "--seed", "9", "--out", str(log)]
        )
        assert rc == 0
        with open(log, encoding="utf-8") as fh:
            written = data.parse_log(fh)
        config = ExperimentConfig(
            seed=9, synth=SynthSpec(users=500, queries=12, urls=3, exponent=1.2)
        )
        expected = load_dataset(config)
        assert {u.user_id: u.records for u in written.users} == {
            u.user_id: u.records for u in expected.users
        }

    def test_verify_dp_command(self, capsys):
        rc = cli.main(
            ["verify-dp", "--k", "3", "--kq", "3", "--epsilon", "4", "--delta", "1e-5"]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_infinite_epsilon_exits_1(self, tmp_path, capsys):
        argv = ["verify-dp", "--k", "3", "--kq", "2", "--epsilon", "inf", "--delta", "1e-5"]
        assert cli.main(argv) == 1
        config = self.write_config(tmp_path)
        config.write_text(config.read_text().replace("epsilon = 4.0", "epsilon = inf"))
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.count("epsilon must be positive and finite") == 2

    def test_epsilon_past_the_float_limit_exits_1(self, tmp_path, capsys):
        argv = ["verify-dp", "--k", "3", "--kq", "2", "--epsilon", "900", "--delta", "1e-5"]
        assert cli.main(argv) == 1
        config = self.write_config(tmp_path)
        config.write_text(config.read_text().replace("epsilon = 4.0", "epsilon = 900"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"epsilon must be below {EPS_LIMIT} at f_C = 0.85") == 2

    @pytest.mark.parametrize("epsilon", [4.0, 140.0, 700.0, EPS_LIMIT - 1])
    def test_run_exits_0_up_to_the_epsilon_limit(self, tmp_path, capsys, epsilon):
        config = self.write_config(tmp_path)
        config.write_text(config.read_text().replace("epsilon = 4.0", f"epsilon = {epsilon!r}"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["epsilon"]) == epsilon
        assert math.isfinite(float(row["L1"])) and math.isfinite(float(row["NDCG"]))

    def test_failing_certificate_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "verify_dp_closed_form", lambda model, eps, delta: 0.25)
        argv = ["verify-dp", "--k", "3", "--kq", "2", "--epsilon", "4", "--delta", "1e-5"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().out == "max violation: 2.500e-01 (FAIL)\n"

    @staticmethod
    def fresh_python(*args):
        """Run a fresh interpreter on the package under test, so that no
        earlier test's imports count."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )

    def test_import_leaves_mpmath_unloaded(self):
        done = self.fresh_python(
            "-c", "import sys, hybridhh.cli, hybridhh.harness; print('mpmath' in sys.modules)"
        )
        assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr

    def test_verify_dp_loads_the_oracle_when_run(self):
        done = self.fresh_python(
            "-m", "hybridhh.cli", "verify-dp", "--k", "4", "--kq", "3",
            "--epsilon", "4", "--delta", "1e-5",
        )
        assert done.returncode == 0, done.stderr
        assert "PASS" in done.stdout

    def test_config_errors_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense = 1\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(bad)]) == 1
        assert cli.main(["run", "--config", str(tmp_path / "missing.txt")]) == 1
        no_seeds = self.write_config(tmp_path, "[sweep]\nseeds = 0\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(no_seeds), "--out", str(out)]) == 1
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("axis", ["M = 5, 0", "epsilon = 4, -1", "epsilon = 4, 900"])
    def test_bad_sweep_axis_exits_before_any_run(self, tmp_path, capsys, monkeypatch, axis):
        calls = []
        real = harness.run_blender

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_blender", counting)
        config = self.write_config(tmp_path, f"[sweep]\n{axis}\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert calls == []
        assert not (out / "sweep.csv").exists()
        assert "[sweep]" in capsys.readouterr().err

    def test_uninformative_channel_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(
            "f_C = 1e-13\nM = 5\nsynth_users = 3000\nsynth_queries = 20\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "error: query randomizer is uninformative" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--seed", "-1", "--out", str(out)]) == 1
        log = tmp_path / "log.tsv"
        argv = ["synth", "--users", "100", "--queries", "5", "--urls", "2", "--seed", "-1"]
        assert cli.main(argv + ["--out", str(log)]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists() and not log.exists()

    def test_degenerate_dataset_is_reported_as_error(self, tmp_path, capsys):
        # A dataset too small to partition fails cleanly with a nonzero code.
        log = tmp_path / "tiny.tsv"
        log.write_text("u1\tq\tu\nu2\tq\tu\n", encoding="utf-8")
        config = tmp_path / "config.txt"
        config.write_text(f"dataset = {log}\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_empty_out_exits_1(self, tmp_path, capsys, monkeypatch, command, route):
        monkeypatch.chdir(tmp_path)
        text = CONFIG_TEXT.split("[sweep]")[0]
        if route == "config":
            text = text.replace("out = results_test", "out =")
        config = tmp_path / "config.txt"
        config.write_text(text, encoding="utf-8")
        argv = [command, "--config", str(config)] + (["--out", ""] if route == "flag" else [])
        assert cli.main(argv) == 1
        assert "out must name a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command, where", [
        ("run", "file"), ("run", "under a file"),
        ("sweep", "file"), ("sweep", "under a file"), ("sweep", "sweep.csv a directory"),
    ])
    def test_unusable_out_exits_1_before_loading(self, tmp_path, capsys, monkeypatch, command, where):
        loads = []
        monkeypatch.setattr(harness, "load_dataset", lambda config: loads.append(config))
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = {"file": blocker, "under a file": blocker / "out"}.get(where, tmp_path / "out")
        if where == "sweep.csv a directory":
            (out / "sweep.csv").mkdir(parents=True)
        config = self.write_config(tmp_path)
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
        assert loads == []
        assert "error: cannot write output" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("where", ["empty", "directory", "under a file", "truth a directory"])
    def test_unusable_synth_out_exits_1_before_synthesis(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(data, "synth_zipf", lambda *args: pytest.fail("synthesized"))
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = {"empty": "", "directory": str(tmp_path), "under a file": str(blocker / "log.tsv")}.get(
            where, str(tmp_path / "log.tsv")
        )
        if where == "truth a directory":
            (tmp_path / "log.tsv.truth.csv").mkdir()
        argv = ["synth", "--users", "100", "--queries", "5", "--urls", "2", "--out", out]
        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "keep\n"
        assert not (tmp_path / "log.tsv").exists()

    def test_unreadable_config_exits_1_naming_it(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.txt"
        not_utf8.write_bytes(b"# caf\xe9\nseed = 1\n")
        for path in (tmp_path, not_utf8):
            out = tmp_path / "out"
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
            assert f"cannot read {path}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_undecodable_dataset_exits_1_naming_it(self, tmp_path, capsys, command):
        log = tmp_path / "log.tsv"
        log.write_bytes(b"u1\tq\xff\tu\n")
        config = tmp_path / "config.txt"
        config.write_text(f"dataset = {log}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
        assert f"cannot read {log}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("broken", ["blended", "truth"])
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_metrics_input_exits_1_naming_it(self, tmp_path, capsys, broken, kind):
        good = tmp_path / "good.csv"
        good.write_text("query,url,p\nq0,u0,1.0\n", encoding="utf-8")
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"query,url,p\nq0,u\xff,1.0\n")
        paths = {"blended": good, "truth": good, broken: bad}
        err = self.metrics_input_error(capsys, paths["blended"], paths["truth"])
        assert f"cannot read {bad}" in err


def write_multi_record_log(path: Path, interleave: bool = False) -> None:
    """A TSV log of 3000 users holding 1-6 records each, drawn from 40
    Zipf queries with 3 urls apiece, plus a comment, a blank line, a
    CRLF line and a star row. With `interleave`, the lines after the
    comment are shuffled, so that users' lines are spread over the log."""
    rng = np.random.default_rng(20)
    q_probs = np.arange(1, 41, dtype=float) ** -1.0
    q_probs /= q_probs.sum()
    lines = ["# user\tquery\turl", ""]
    for user in range(3000):
        for _ in range(int(rng.integers(1, 7))):
            q = int(rng.choice(40, p=q_probs))
            lines.append(f"user{user}\tq{q}\tq{q}/u{int(rng.integers(3))}")
    lines[10] += "\r"
    lines.append("user7\t*\tstray.example")
    if interleave:
        body = lines[1:]
        random.Random(21).shuffle(body)
        lines[1:] = body
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Names that `csv.writer` must quote: commas, quotes, and both.
QUOTED_QUERIES = ("a,b", 'say "hi"', '"x",y', "plain", 'q,"r"')


class TestQuotedNames:
    """A run on a log whose queries and urls hold `,` and `"` writes its
    estimate tables as `csv.writer` writes the same rows."""

    @staticmethod
    def expected(header, records, *columns) -> bytes:
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(
            [encode_star(r.query), encode_star(r.url), *map(repr, cells)]
            for r, *cells in zip(records, *(c.tolist() for c in columns))
        )
        return out.getvalue().encode("utf-8")

    def test_tables_match_csv_writer_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        picks = rng.zipf(1.6, size=(6000, 2)) - 1
        log = tmp_path / "log.tsv"
        log.write_text("".join(
            f"u{i}\t{QUOTED_QUERIES[q % 5]}\t{QUOTED_QUERIES[q % 5]}/{u % 3},\"{u % 3}\"\n"
            for i, (q, u) in enumerate(picks.tolist())
        ), encoding="utf-8")
        config = small_config(params=PrivacyParams(M=10, optin_fraction=0.2), dataset_path=str(log))
        result = run_blender(config, load_dataset(config), out_dir=tmp_path / "out")
        records = result.head_list.records()
        assert {'"x",y', "a,b"} <= set(result.head_list.queries)
        optin_est, client_est = result.optin_est, result.client_est
        at = client_est.head_list.slots(records)
        want = {
            "optin_estimates.csv": self.expected(
                ["query", "url", "p_hat", "var_hat"], records, optin_est.p, optin_est.var
            ),
            "blended.csv": self.expected(
                ["query", "url", "p_blend", "w", "p_optin", "var_optin", "p_client", "var_client"],
                records, result.blended.p, result.blended.w, optin_est.p, optin_est.var,
                client_est.p[at], client_est.var[at],
            ),
        }
        for name, content in want.items():
            written = (tmp_path / "out" / name).read_bytes()
            assert written == content, name
            with open(tmp_path / "out" / name, newline="", encoding="utf-8") as fh:
                names = [tuple(row[:2]) for row in list(csv.reader(fh))[1:]]
            assert names == [(encode_star(r.query), encode_star(r.url)) for r in records]


class TestNameCells:
    @given(st.lists(
        st.lists(st.text(alphabet=',"\r\n*⋆a ', max_size=5), min_size=1, max_size=3),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=300, deadline=None)
    def test_written_as_csv_writer_writes_them(self, rows):
        # Each row's names, star-encoded, next to an empty cell.
        want = io.StringIO(newline="")
        csv.writer(want).writerows([*map(encode_star, row), ""] for row in rows)
        cells = [[*map(harness.name_cell, row), ""] for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            harness.write_csv(path, cells[0], cells[1:])
            assert path.read_bytes() == want.getvalue().encode("utf-8")
            with open(path, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == [[*map(encode_star, row), ""] for row in rows]


class TestGoldenArtifacts:
    """The four artifacts of three small runs, pinned by sha256. A change
    meant to keep every output byte-identical must keep these."""

    @staticmethod
    def digests(out_dir: Path) -> dict[str, str]:
        return {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("headlist.tsv", "optin_estimates.csv", "blended.csv", "metrics.csv")
        }

    def test_synthetic_run(self, tmp_path):
        config = small_config()
        run_blender(config, load_dataset(config), out_dir=tmp_path)
        assert self.digests(tmp_path) == SYNTH_DIGESTS

    def test_tsv_run(self, tmp_path):
        log = tmp_path / "log.tsv"
        write_multi_record_log(log)
        config = small_config(
            params=PrivacyParams(M=10, optin_fraction=0.4), dataset_path=str(log)
        )
        run_blender(config, load_dataset(config), out_dir=tmp_path / "out")
        assert self.digests(tmp_path / "out") == TSV_DIGESTS

    def test_interleaved_tsv_run(self, tmp_path):
        log = tmp_path / "log.tsv"
        write_multi_record_log(log, interleave=True)
        config = small_config(
            params=PrivacyParams(M=10, optin_fraction=0.4), dataset_path=str(log)
        )
        run_blender(config, load_dataset(config), out_dir=tmp_path / "out")
        assert self.digests(tmp_path / "out") == INTERLEAVED_TSV_DIGESTS

    def test_synth_command(self, tmp_path, capsys):
        # More than ten queries, so that "q10" sorts between "q1" and "q2".
        log = tmp_path / "log.tsv"
        argv = ["synth", "--users", "500", "--queries", "12", "--urls", "3",
                "--exponent", "1.2", "--seed", "9", "--out", str(log)]
        assert cli.main(argv) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (log, Path(f"{log}.truth.csv"))
        }
        assert digests == SYNTH_COMMAND_DIGESTS

    def test_synth_command_writes_from_the_columns(self, tmp_path, monkeypatch, capsys):
        # The log and the truth file are read off the dataset's index: no
        # user is rebuilt, no record is built, and each distinct name of
        # the truth file goes through `name_cell` once.
        def refuse(*args):
            raise AssertionError("a user or record was built to write a file")

        named, name_cell = [], harness.name_cell
        monkeypatch.setattr(data.Dataset, "users", property(refuse))
        monkeypatch.setattr(core.RecordTable, "__getitem__", refuse)
        monkeypatch.setattr(harness, "name_cell", lambda name: named.append(name) or name_cell(name))
        log = tmp_path / "log.tsv"
        argv = ["synth", "--users", "500", "--queries", "12", "--urls", "3",
                "--exponent", "1.2", "--seed", "9", "--out", str(log)]
        assert cli.main(argv) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (log, Path(f"{log}.truth.csv"))
        }
        assert digests == SYNTH_COMMAND_DIGESTS
        assert len(named) == 12 + 36


SYNTH_DIGESTS = {
    "headlist.tsv": "f409894283e32cb41a1d3aa1243f1cbabfc154f770c0d63487641cef11191b86",
    "optin_estimates.csv": "e090b2a07b85bba10aa322c44e0dc20e5647cb4e98fb2b3560af68b01b8ab3b2",
    "blended.csv": "b95997da56d36ab1a16ac98d15354de7c3470a5d6621592378f3cbfbe770f0bc",
    "metrics.csv": "5b7806e1288e7ef4392967f11082a1f12bb18021254a96108b1a85e79c74a2d4",
}
TSV_DIGESTS = {
    "headlist.tsv": "acef998abcdccc18c63cd645dedec5ac8faca83455fe5e7a99bbaa57aa3e64a6",
    "optin_estimates.csv": "9e8dae1c8f8653ba23f3c4426d54b60ec770e5db43959a85772ca8dd328e42d3",
    "blended.csv": "a6274e32a6d6612e21909700305458e2cc237373c9b4d7bfb6150fed740c17f4",
    "metrics.csv": "aed7827e3752c6a1b1bcf5475247fd3b2b258da05af2642a7a98c180394f9ae2",
}
INTERLEAVED_TSV_DIGESTS = {
    "headlist.tsv": "ee7d4b60a357c456edc2a32f8edf185b8959b438cb43f2ef32408dfe205d7761",
    "optin_estimates.csv": "e5851d6591afab3543b6d8c3caff30a9486ccf30ddc9607a60e2e1a93951eeca",
    "blended.csv": "0644209ea6435b2bf16cfed76dabbe9fa25af7ac815181628c2f9dbd62aa6ffa",
    "metrics.csv": "dbc44cd3dd478d387ca68fd4bcebffc7342e0e533b1601c30575ed36a74771f9",
}
SYNTH_COMMAND_DIGESTS = {
    "log.tsv": "684bd5f659ee8b119496d81f4d747d2241310d77c3f2020377ef321105411e86",
    "log.tsv.truth.csv": "ab2bbb77b21826acbf8274e068f86ffbea7fcab4e0dcbed03cf95a8fda988b6c",
}
