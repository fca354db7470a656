import csv
import math
from dataclasses import replace
from pathlib import Path

import pytest

from hybridhh import cli, data, harness
from hybridhh.core import STAR, PrivacyParams
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

    def test_sweep_seeds_below_one_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config("[sweep]\nseeds = 0\n")

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

    def test_estimate_cells_are_plain_floats(self, tmp_path):
        config = small_config()
        run_blender(config, load_dataset(config), out_dir=tmp_path)
        for name in ("optin_estimates.csv", "blended.csv"):
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                for column, cell in row.items():
                    if column not in ("query", "url"):
                        float(cell)


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
        assert capsys.readouterr().out.splitlines()[1] == "NDCG = 0.952979"

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

    def test_config_errors_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense = 1\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(bad)]) == 1
        assert cli.main(["run", "--config", str(tmp_path / "missing.txt")]) == 1
        no_seeds = self.write_config(tmp_path, "[sweep]\nseeds = 0\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(no_seeds), "--out", str(out)]) == 1
        assert not (out / "sweep.csv").exists()

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
