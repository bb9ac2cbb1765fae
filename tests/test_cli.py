import hashlib
import hmac
import importlib
import importlib.util
import json
import math
import os
import signal
from pathlib import Path

import pytest

from symkl import cli, montecarlo
from symkl.io import config_to_dict, parse_config_dict, write_json

from conftest import run_child, run_python


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counts_file(tmp_path, text="3,1\n1,3\n"):
    path = tmp_path / "counts.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def config_file(tmp_path, **overrides):
    data = {
        "model": {
            "label_prob": 0.5,
            "cond_p": [0.5, 0.5],
            "cond_q": [0.25, 0.75],
        },
        "n_values": [200],
        "replications": 10,
        "master_seed": 11,
        "ci_level": 0.95,
        "checks": [],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    write_json(config_to_dict(parse_config_dict(data)), path)
    return str(path)


def parse_report(out):
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


class TestEstimate:
    def test_golden_counts(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", counts_file(tmp_path))
        assert code == 0
        assert err == ""
        fields = parse_report(out)
        assert fields["n"] == "8"
        assert float(fields["estimate"]) == pytest.approx(math.log(3.0), rel=1e-15)
        assert float(fields["sigma2_hat"]) > 0.0
        assert fields["ci_level"] == "0.95"
        assert float(fields["ci_lo"]) < math.log(3.0) < float(fields["ci_hi"])

    def test_level_flag_changes_interval(self, tmp_path, capsys):
        path = counts_file(tmp_path)
        _, out95, _ = run(capsys, "estimate", path)
        _, out99, _ = run(capsys, "estimate", path, "--level", "0.99")
        narrow = parse_report(out95)
        wide = parse_report(out99)
        width95 = float(narrow["ci_hi"]) - float(narrow["ci_lo"])
        width99 = float(wide["ci_hi"]) - float(wide["ci_lo"])
        assert width99 > width95

    def test_tiny_frequency_exit_0(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", counts_file(tmp_path, "10000000000000,1\n5,5\n"))
        assert (code, err) == (0, "")
        assert "estimate: 14.966803104458304\n" in out

    def test_degenerate_counts_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", counts_file(tmp_path, "3,0\n1,3\n"))
        assert code == 2
        assert out == ""
        assert "degenerate sample" in err
        assert "zero cell" in err

    def test_label_frequency_rounding_to_one_exit_2(self, tmp_path, capsys):
        # 523 label-0 draws in 6.3e18: the label-1 frequency is 1.0 in float64
        text = "3146744646535908222,3146744646535908223\n261,262\n"
        code, out, err = run(capsys, "estimate", counts_file(tmp_path, text))
        assert (code, out) == (2, "")
        assert "empty label class: label-1 frequency rounds to 1" in err

    def test_identical_conditionals_warn_but_succeed(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", counts_file(tmp_path, "2,2\n3,3\n"))
        assert code == 0
        fields = parse_report(out)
        assert fields["estimate"] == "0.0"
        assert fields["ci_lo"] == fields["ci_hi"] == "0.0"
        assert "variance is zero" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", str(tmp_path / "absent.csv"))
        assert code == 1
        assert "no such file" in err

    def test_malformed_counts_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", counts_file(tmp_path, "3,x\n1,3\n"))
        assert code == 1
        assert "line 1" in err

    def test_non_utf8_counts_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xff3,1\n1,3\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, message",
        [
            (f"3,{1 << 63}\n1,3\n",
             "line 1: count must lie in [0, 2**63 - 1], got 9223372036854775808"),
            (f"{1 << 62},{1 << 62}\n1,3\n", "total 9223372036854775812 exceeds 2**63 - 1"),
        ],
    )
    def test_counts_beyond_int64_exit_1(self, tmp_path, capsys, text, message):
        code, out, err = run(capsys, "estimate", counts_file(tmp_path, text))
        assert code == 1
        assert out == ""
        assert message in err

    def test_bad_level_exit_1(self, tmp_path, capsys):
        # a usage error whether or not the table has an estimate; at the
        # largest double below 1, (1 + level) / 2 rounds to 1
        for level, message in (
            ("1.5", "error: level must lie strictly in (0, 1), got 1.5\n"),
            ("0.9999999999999999", "error: level 0.9999999999999999 is too close to 1: "
                                   "(1 + level) / 2 rounds to 1\n"),
        ):
            for text in ("3,1\n1,3\n", "0,3\n1,3\n"):
                code, out, err = run(capsys, "estimate", counts_file(tmp_path, text),
                                     "--level", level)
                assert (code, out, err) == (1, "", message)

    def test_missing_argument_exit_1(self, capsys):
        code, _, err = run(capsys, "estimate")
        assert code == 1

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1


class TestSimulate:
    def test_requires_config(self, capsys):
        code, _, err = run(capsys, "simulate")
        assert code == 1
        assert "requires --config" in err

    def test_requires_out_dir(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--config", config_file(tmp_path))
        assert code == 1
        assert "--out-dir" in err

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys, "simulate", "--config", config_file(tmp_path),
            "--out-dir", str(out_dir), "--dry-run",
        )
        assert code == 0
        assert "config ok" in out
        assert "n_values: [200]" in out
        assert not out_dir.exists()

    def test_success_writes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys, "simulate", "--config", config_file(tmp_path, checks=["lln"], n_values=[100, 1000]),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "manifest.json").exists()
        assert not (out_dir / "bounds.csv").exists()
        assert "check lln: pass" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["master_seed"] == 11
        assert manifest["checks"] == {"lln": True}
        assert manifest["outputs"] == ["records.csv", "summary.json", "manifest.json"]
        assert manifest["started_utc"] <= manifest["finished_utc"]
        assert manifest["started_utc"].endswith("+00:00")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["grid_points"] == 0

    def test_bounds_check_inside_simulate_writes_bounds_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys, "simulate",
            "--config", config_file(tmp_path, checks=["bounds"], n_values=[100], replications=400),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "bounds.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "bounds.csv" in manifest["outputs"]

    def test_failing_check_exit_3_with_reports(self, tmp_path, capsys):
        # 30 replications at n=50 with this seed produce a visibly
        # non-normal scaled error, so the normality check must fail
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys, "simulate",
            "--config", config_file(
                tmp_path, checks=["clt"], n_values=[50], replications=30, master_seed=7,
            ),
            "--out-dir", str(out_dir),
        )
        assert code == 3
        assert "check clt: FAIL" in out
        assert (out_dir / "records.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["all_checks_passed"] is False

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        config = config_file(tmp_path)
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        for out_dir, workers in zip(dirs, ("1", "1", "3")):
            code, _, _ = run(
                capsys, "simulate", "--config", config,
                "--out-dir", str(out_dir), "--workers", workers,
            )
            assert code == 0
        baseline = (dirs[0] / "records.csv").read_bytes()
        assert (dirs[1] / "records.csv").read_bytes() == baseline
        assert (dirs[2] / "records.csv").read_bytes() == baseline

    def test_zero_workers_exit_1_before_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, _, err = run(
            capsys, "simulate", "--config", config_file(tmp_path),
            "--out-dir", str(out_dir), "--workers", "0",
        )
        assert code == 1
        assert "--workers" in err
        assert not out_dir.exists()
        code, out, err = run(
            capsys, "simulate", "--config", config_file(tmp_path), "--dry-run",
            "--workers", "0",
        )
        assert code == 1
        assert "config ok" not in out
        assert "--workers" in err

    @pytest.mark.parametrize("argv, message", [
        (("clt-check", "--dry-run", "--seed", "-1"),
         "master_seed must lie in [0, 2**64 - 1], got -1"),
        (("simulate", "--dry-run", "--workers", "0"), "--workers must lie in [1, inf), got 0"),
    ], ids=["seed", "workers"])
    def test_integer_out_of_range_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_duplicate_config_key_exit_1(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"n_values": [10], "n_values": [20, 30], "replications": 2, '
                        '"master_seed": 1, "model": {"label_prob": 0.5, '
                        '"cond_p": [0.5, 0.5], "cond_q": [0.25, 0.75]}}')
        code, out, err = run(capsys, "simulate", "--config", str(path), "--dry-run")
        assert (code, out) == (1, "")
        assert err == "error: config: invalid JSON (duplicate key 'n_values')\n"

    def test_multi_block_records_independent_of_workers(self, tmp_path, capsys):
        # r=1000 puts 65 replications in a kernel block, so 150 replications
        # make blocks of 65, 65 and 20 at each n, for the estimator and the
        # bound Monte Carlo alike
        weights = [1.0 + (j % 7) / 10 for j in range(1000)]
        config = config_file(
            tmp_path,
            model={
                "label_prob": 0.4,
                "cond_p": [w / sum(weights) for w in weights],
                "cond_q": [w / sum(weights[::-1]) for w in weights[::-1]],
            },
            n_values=[20000, 200000], replications=150, checks=["bounds"],
        )
        dirs = [tmp_path / name for name in ("w1", "w2", "w3")]
        for out_dir, workers in zip(dirs, ("1", "2", "3")):
            code, _, _ = run(
                capsys, "simulate", "--config", config,
                "--out-dir", str(out_dir), "--workers", workers,
            )
            assert code == 0
        baseline = (dirs[0] / "records.csv").read_bytes()
        assert baseline.count(b"\n") == 1 + 2 * 150
        # both outcomes occur, so every column is exercised across blocks
        assert b",1\n" in baseline and b",0\n" in baseline
        bounds = (dirs[0] / "bounds.csv").read_bytes()
        for out_dir in dirs[1:]:
            assert (out_dir / "records.csv").read_bytes() == baseline
            assert (out_dir / "bounds.csv").read_bytes() == bounds
        for workers in ("1", "2", "3"):
            out_dir = tmp_path / f"bounds-check-w{workers}"
            code, _, _ = run(
                capsys, "bounds-check", "--config", config,
                "--out-dir", str(out_dir), "--workers", workers,
            )
            assert code == 0
            assert (out_dir / "bounds.csv").read_bytes() == bounds

    @staticmethod
    def recording_pool(monkeypatch, started, cpus=2):
        def recording_forked(tasks, workers):
            # runs the tasks in-process and records the pool size it was asked for
            started.append(workers)
            yield from map(montecarlo._block_pass, tasks)

        monkeypatch.setattr(montecarlo, "_forked", recording_forked)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        # the machine's CPUs, more than this process may run on
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)

    def test_pool_capped_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        started = []
        self.recording_pool(monkeypatch, started)
        config = config_file(tmp_path, n_values=[100, 400])  # two blocks: one for each n
        dirs = [tmp_path / "one", tmp_path / "many"]
        for out_dir, workers in zip(dirs, ("1", "64")):
            code, _, _ = run(
                capsys, "simulate", "--config", config,
                "--out-dir", str(out_dir), "--workers", workers,
            )
            assert code == 0
        assert started == [2]
        assert (dirs[0] / "records.csv").read_bytes() == (dirs[1] / "records.csv").read_bytes()
        manifest = json.loads((dirs[1] / "manifest.json").read_text())
        assert manifest["workers"] == 2  # the pool size used, not the 64 asked for

    def test_manifest_records_the_processes_the_pass_ran(self, tmp_path, capsys, monkeypatch):
        started = []
        self.recording_pool(monkeypatch, started)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "simulate", "--config", config_file(tmp_path),  # one n, one block
            "--out-dir", str(out_dir), "--workers", "2",
        )
        assert code == 0
        assert started == []  # one block runs in-process
        assert json.loads((out_dir / "manifest.json").read_text())["workers"] == 1

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_bounds_check_runs_in_the_pool(self, tmp_path, capsys, monkeypatch, cpus):
        started = []
        self.recording_pool(monkeypatch, started, cpus)
        config = config_file(tmp_path, n_values=[100, 400], replications=300)
        code, out, _ = run(
            capsys, "bounds-check", "--config", config,
            "--out-dir", str(tmp_path / "out"), "--workers", "2",
        )
        assert code == 0
        assert "check bounds: pass" in out
        # one worker runs in-process, without a pool
        assert started == ([2] if cpus > 1 else [])

    def test_killed_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        parent, block_pass = os.getpid(), montecarlo._block_pass

        def killed_in_a_worker(task):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return block_pass(task)

        monkeypatch.setattr(montecarlo, "_block_pass", killed_in_a_worker)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        code, _, err = run(
            capsys, "simulate", "--config",
            config_file(tmp_path, n_values=[100, 400], replications=300),
            "--out-dir", str(tmp_path / "out"), "--workers", "2",
        )
        assert code == 1
        assert err == "error: table pass worker died (exit status -9)\n"
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_unallocatable_records_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(cls, rows, n, truth, z):
            raise MemoryError("Unable to allocate 7.0 PiB")

        monkeypatch.setattr(montecarlo.ReplicationColumns, "empty", classmethod(fail))
        code, _, err = run(capsys, "simulate", "--config", config_file(tmp_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == ("error: cannot allocate 10 records (10 replications x 1 sample sizes): "
                       "Unable to allocate 7.0 PiB\n")

    def test_dry_run_rejects_replications_beyond_stream_key(self, tmp_path, capsys):
        path = Path(config_file(tmp_path))
        data = json.loads(path.read_text())
        data["replications"] = (1 << 32) + 1
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "simulate", "--config", str(path), "--dry-run")
        assert code == 1
        assert "config ok" not in out
        assert "replications" in err

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_sample_size_beyond_int64_exit_1(self, tmp_path, capsys, dry_run):
        path = Path(config_file(tmp_path))
        data = json.loads(path.read_text())
        data["n_values"] = [1 << 63]
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        mode = ["--dry-run"] if dry_run else ["--out-dir", str(out_dir)]
        code, out, err = run(capsys, "simulate", "--config", str(path), *mode)
        assert code == 1
        assert "config ok" not in out
        assert "2**63 - 1" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("dry_run", [True, False])
    @pytest.mark.parametrize("field", ["label_prob", "ci_level", "cond_p"])
    def test_real_beyond_float_range_exit_1(self, tmp_path, capsys, field, dry_run):
        path = Path(config_file(tmp_path))
        data = json.loads(path.read_text())
        huge = 10 ** 400
        if field == "ci_level":
            data["ci_level"] = huge
            where = "config.ci_level"
        elif field == "label_prob":
            data["model"]["label_prob"] = huge
            where = "config.model.label_prob"
        else:
            data["model"]["cond_p"] = [0.5, huge]
            where = "config.model.cond_p[1]"
        path.write_text(json.dumps(data))
        mode = ["--dry-run"] if dry_run else ["--out-dir", str(tmp_path / "out")]
        code, out, err = run(capsys, "simulate", "--config", str(path), *mode)
        assert code == 1
        assert err == f"error: {where}: integer too large for a float\n"

    def test_law_summing_beyond_float_range_exit_1(self, tmp_path):
        path = Path(config_file(tmp_path))
        data = json.loads(path.read_text())
        data["model"]["cond_p"] = [1e308, 1e308]
        path.write_text(json.dumps(data))
        child = run_python("-m", "symkl.cli", "simulate", "--config", str(path), "--dry-run")
        assert child.returncode == 1
        assert child.stdout == ""
        assert child.stderr == "error: cond_p sums to inf; expected 1 within 1e-12\n"

    def test_deeply_nested_config_exit_1(self, tmp_path):
        # json.load recurses once per nesting level
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        child = run_python("-W", "error", "-m", "symkl.cli", "simulate", "--config", str(path),
                           "--dry-run")
        assert child.returncode == 1
        assert child.stdout == ""
        assert child.stderr.startswith("error: config: invalid JSON (maximum recursion depth")
        assert "Traceback" not in child.stderr

    @pytest.mark.parametrize("command", ["simulate", "clt-check", "lln-check", "bounds-check"])
    def test_level_override(self, tmp_path, capsys, command):
        config = config_file(tmp_path, n_values=[100, 200], replications=20)
        code, out, _ = run(capsys, command, "--config", config, "--dry-run", "--level", "0.8")
        assert code == 0
        assert "  ci_level: 0.8\n" in out
        out_dir = tmp_path / "results"
        run(capsys, command, "--config", config, "--out-dir", str(out_dir), "--level", "0.8")
        assert json.loads((out_dir / "summary.json").read_text())["ci_level"] == 0.8

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_level_just_below_one_exit_1(self, tmp_path, capsys, dry_run):
        # the check runs with the config's, before the output directory is made
        out_dir = tmp_path / "results"
        where = ["--dry-run"] if dry_run else ["--out-dir", str(out_dir)]
        code, out, err = run(capsys, "clt-check", "--level", "0.9999999999999999", *where)
        assert (code, out) == (1, "")
        assert err == ("error: ci_level 0.9999999999999999 is too close to 1: "
                       "(1 + ci_level) / 2 rounds to 1\n")
        assert not out_dir.exists()

    def test_one_non_degenerate_row_has_no_variance(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, _, _ = run(capsys, "simulate", "--config", config_file(tmp_path, replications=1),
                         "--out-dir", str(out_dir))
        assert code == 0
        (stats,) = json.loads((out_dir / "summary.json").read_text())["per_n"]
        assert (stats["replications"], stats["degenerate_count"]) == (1, 0)
        assert stats["eta_variance"] is None
        assert stats["scaled_eta_variance"] is None
        assert stats["eta_mean"] is not None

    def test_seed_override_changes_records(self, tmp_path, capsys):
        config = config_file(tmp_path)
        dirs = [tmp_path / name for name in ("a", "b")]
        run(capsys, "simulate", "--config", config, "--out-dir", str(dirs[0]))
        run(capsys, "simulate", "--config", config, "--out-dir", str(dirs[1]),
            "--seed", "999")
        assert (dirs[0] / "records.csv").read_bytes() != (dirs[1] / "records.csv").read_bytes()
        manifest = json.loads((dirs[1] / "manifest.json").read_text())
        assert manifest["master_seed"] == 999
        assert manifest["config"]["master_seed"] == 999


class TestCheckPresets:
    def test_clt_check_dry_run_default_config(self, capsys):
        code, out, _ = run(capsys, "clt-check", "--dry-run")
        assert code == 0
        assert "n_values: [10000]" in out
        assert "replications: 2000" in out
        assert "checks: ['clt']" in out
        assert f"master_seed: {cli.DEFAULT_MASTER_SEED}" in out

    def test_lln_check_dry_run_default_config(self, capsys):
        code, out, _ = run(capsys, "lln-check", "--dry-run")
        assert code == 0
        assert "n_values: [1000, 10000, 100000]" in out
        assert "checks: ['lln']" in out

    def test_bounds_check_dry_run_default_config(self, capsys):
        # the config's JSON form without its model, after the alphabet size
        code, out, err = run(capsys, "bounds-check", "--dry-run")
        assert (code, err) == (0, "")
        assert out == (
            "config ok\n"
            "  alphabet size: 2\n"
            "  n_values: [100, 1000, 10000]\n"
            "  replications: 100000\n"
            f"  master_seed: {cli.DEFAULT_MASTER_SEED}\n"
            "  ci_level: 0.95\n"
            "  checks: ['bounds']\n"
        )

    def test_preset_forces_its_check(self, tmp_path, capsys):
        # a config asking for coverage still runs the clt check under clt-check
        code, out, _ = run(
            capsys, "clt-check", "--dry-run",
            "--config", config_file(tmp_path, checks=["coverage"], n_values=[500],
                                    replications=50),
        )
        assert code == 0
        assert "checks: ['clt']" in out

    def test_clt_check_default_run_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run(capsys, "clt-check", "--out-dir", str(out_dir))
        assert code == 0
        assert "check clt: pass" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "clt-check"
        assert manifest["master_seed"] == cli.DEFAULT_MASTER_SEED

    def test_bounds_check_writes_grid_without_records(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys, "bounds-check",
            "--config", config_file(tmp_path, checks=["bounds"], n_values=[100],
                                    replications=500),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "bounds.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "manifest.json").exists()
        assert not (out_dir / "records.csv").exists()
        assert "check bounds: pass" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["grid_points"] == 6 * 1 * 4
        assert summary["per_n"] == []
        assert summary["all_checks_passed"] is True


class TestOnePipeline:
    SUMMARY_KEYS = {
        "true_divergence", "sigma2_exact", "ci_level", "per_n", "checks",
        "all_checks_passed", "grid_points",
    }

    def test_bounds_check_matches_simulate_bounds_csv(self, tmp_path, capsys):
        config = config_file(tmp_path, checks=["bounds"], n_values=[100, 400], replications=300)
        dirs = {command: tmp_path / command for command in ("simulate", "bounds-check")}
        for command, out_dir in dirs.items():
            code, _, _ = run(capsys, command, "--config", config, "--out-dir", str(out_dir))
            assert code == 0
        assert (dirs["simulate"] / "bounds.csv").read_bytes() == (
            dirs["bounds-check"] / "bounds.csv"
        ).read_bytes()

    def test_bounds_check_reaches_the_table_pass_through_bound_table(
            self, tmp_path, capsys, monkeypatch):
        # the one door that perfbench's tracer times as the bounds layer
        started, calls = [], []
        TestSimulate.recording_pool(monkeypatch, started)

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, kwargs.get("workers")))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("bound_table", "run_experiment"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "bounds-check", "--config",
            config_file(tmp_path, checks=["bounds"], n_values=[100, 400], replications=300),
            "--out-dir", str(out_dir), "--workers", "2",
        )
        assert code == 0
        assert calls == [("bound_table", 2)]
        assert started == [2]
        assert json.loads((out_dir / "manifest.json").read_text())["workers"] == 2

    def test_every_runner_writes_one_summary_schema(self, tmp_path, capsys):
        config = config_file(tmp_path, n_values=[100, 400], replications=30)
        for command in ("simulate", "clt-check", "lln-check", "bounds-check"):
            out_dir = tmp_path / command
            code, _, _ = run(capsys, command, "--config", config, "--out-dir", str(out_dir))
            assert code in (0, 3)
            summary = json.loads((out_dir / "summary.json").read_text())
            assert set(summary) == self.SUMMARY_KEYS, command

    def test_tracer_wrapped_names_resolve(self):
        # perfbench/tracer.py wraps these names where symkl looks them up
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module_name, attr, _span in tracer.WRAPPED:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


class TestEntry:
    def test_entry_raises_system_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.argv", ["symkl", "estimate", counts_file(tmp_path)]
        )
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 0

    def test_python_m_runs_the_cli(self, tmp_path):
        child = run_python("-W", "error", "-m", "symkl.cli", "estimate", counts_file(tmp_path))
        assert child.returncode == 0, child.stderr
        assert "estimate: " in child.stdout
        child = run_python("-m", "symkl.cli", "estimate", str(tmp_path / "missing.csv"))
        assert child.returncode == 1
        assert "no such file" in child.stderr


# No thread count set by the caller: the CLI's default applies.
NO_THREAD_COUNT = {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None}

# Whether a process has blocked _hashlib, and so OpenSSL, rather than never asked for it.
OPENSSL_BLOCKED = '"_hashlib" in sys.modules and sys.modules["_hashlib"] is None'

# Runs the console script's entry() on two CPUs; every process that runs a
# block of the table pass, the parent or a forked worker, checks after the
# block that it has OpenSSL blocked and unmapped.  Then the parent prints the
# same, and digests from hashlib and hmac.
ENTRY_WITHOUT_OPENSSL = f"""\
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
from symkl import montecarlo
from symkl.cli import entry

def libcrypto_mapped():
    if not os.path.exists("/proc/self/maps"):
        return False
    with open("/proc/self/maps") as maps:
        return "libcrypto" in maps.read()

block_pass = montecarlo._block_pass

def checked_block_pass(task):
    result = block_pass(task)
    if not ({OPENSSL_BLOCKED}) or libcrypto_mapped():
        raise ValueError(f"OpenSSL loaded in process {{os.getpid()}}")
    return result

montecarlo._block_pass = checked_block_pass
try:
    entry()
finally:
    import hashlib, hmac
    print({OPENSSL_BLOCKED}, libcrypto_mapped())
    print(hashlib.sha256(b"").hexdigest(), hmac.new(b"k", b"m", "sha256").hexdigest())
"""


class TestColdStart:
    def test_import_symkl_loads_no_numpy(self):
        child = run_child("import sys, symkl\nprint('numpy' in sys.modules)")
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_starts_no_blas_thread(self):
        child = run_child("import os, symkl.cli\nprint(len(os.listdir('/proc/self/task')))",
                          env=NO_THREAD_COUNT)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "1"

    @pytest.mark.parametrize("variable", sorted(NO_THREAD_COUNT))
    def test_caller_thread_count_is_kept(self, variable):
        child = run_child("import os, sys, symkl.cli\nprint(os.environ[sys.argv[1]])", variable,
                          env={**NO_THREAD_COUNT, variable: "2"})
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "2"

    def test_dry_run_loads_neither_random_nor_the_pool(self, tmp_path):
        child = run_child(
            "import sys\n"
            "from symkl.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "heavy = ('numpy.random', 'concurrent.futures', 'multiprocessing')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "sys.exit(code)",
            "simulate", "--config", config_file(tmp_path), "--dry-run",
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_cli_loads_no_statistics(self, tmp_path, dry_run):
        # the normal quantile comes from _statistics, without decimal and fractions
        run = ["--dry-run"] if dry_run else ["--out-dir", str(tmp_path / "out")]
        child = run_child(
            "import sys\n"
            "import symkl.cli\n"
            "code = symkl.cli.main(sys.argv[1:])\n"
            "print([m for m in ('statistics', 'decimal', 'fractions') if m in sys.modules])\n"
            "sys.exit(code)",
            "simulate", "--config", config_file(tmp_path), *run,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "[]"

    def test_import_leaves_out_scipy_and_the_pool(self):
        child = run_child(
            "import sys, symkl.cli\n"
            "heavy = ('scipy', 'concurrent.futures', 'multiprocessing')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in heavy))"
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"

    def test_forked_pass_leaves_no_pool_thread_or_child(self, tmp_path):
        config = config_file(tmp_path, n_values=[100, 400], replications=300)
        child = run_python(
            "-W", "error", "-c",
            "import os, sys, threading\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any machine\n"
            "from symkl.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "heavy = ('concurrent.futures', 'multiprocessing', 'numpy.random')\n"
            "print([m for m in heavy if m in sys.modules], threading.active_count())\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child')\n"
            "sys.exit(code)",
            "simulate", "--config", config, "--out-dir", str(tmp_path / "out"), "--workers", "2",
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-2:] == ["[] 1", "no child"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["workers"] == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--workers", "1"], ["simulate", "--workers", "2"], ["bounds-check"],
    ], ids=["simulate-w1", "simulate-w2", "bounds-check"])
    def test_entry_runs_without_openssl(self, tmp_path, argv):
        config = config_file(tmp_path, n_values=[100, 400], replications=300)
        child = run_python("-W", "error", "-c", ENTRY_WITHOUT_OPENSSL, *argv,
                           "--config", config, "--out-dir", str(tmp_path / "out"))
        assert (child.returncode, child.stderr) == (0, "")
        # the builtin digests give this process's (OpenSSL's, where it has it)
        digests = f"{hashlib.sha256(b'').hexdigest()} {hmac.new(b'k', b'm', 'sha256').hexdigest()}"
        assert child.stdout.splitlines()[-2:] == ["True False", digests]

    def test_import_leaves_openssl_alone(self):
        child = run_child("import sys, symkl.cli\nprint('_hashlib' in sys.modules)")
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"

    def test_openssl_kept_without_builtin_digests(self, tmp_path):
        # a Python built without the builtin md5, as some distributions ship it
        child = run_python(
            "-W", "error", "-c",
            "import importlib.util, sys\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name: None if name == '_md5' else find_spec(name)\n"
            "from symkl.cli import entry\n"
            "try:\n"
            "    entry()\n"
            "finally:\n"
            f"    print({OPENSSL_BLOCKED})",
            "simulate", "--config", config_file(tmp_path), "--out-dir", str(tmp_path / "out"),
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "False"

    def test_simulate_runs_without_scipy(self, tmp_path):
        # the interval quantile and the KS distance per n run with or without checks
        config = config_file(tmp_path, n_values=[100, 400], replications=50)
        out_dir = tmp_path / "results"
        child = run_child(
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now fails\n"
            "from symkl.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)  # the medians must not pull it in\n"
            "sys.exit(code)",
            "simulate", "--config", config, "--out-dir", str(out_dir),
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "False"
        for name in ("records.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).stat().st_size > 0, name
        per_n = json.loads((out_dir / "summary.json").read_text())["per_n"]
        assert all(entry["ks_normalized"] is not None for entry in per_n)
