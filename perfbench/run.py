"""The symkl benchmark: timed CLI runs, verified outputs, a traced run.

    python3 perfbench/run.py --workload mc-r2 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the CLI, built from ``src/`` of this checkout, as a
child process on the workload's generated config, closed loop (one run at
a time) for ``--seconds`` seconds, verifies every run's outputs and
reports the end-to-end metrics.  ``--trace 1`` instead runs the CLI's
``main`` in a fresh interpreter with the outside-in tracer of
``tracer.py`` (and once untraced, for the tracing overhead) and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

from tracer import aggregate, read_spans
from verify import verify_run
from workloads import make_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
TRACER = os.path.join(HERE, "tracer.py")
CLI = [sys.executable, "-c", "from symkl.cli import entry; entry()"]

MIN_SETUPS = 5  # --dry-run invocations whose median is setup_s, at least
MIN_RUNS = 3  # timed runs per invocation, even past --seconds
CHILD_TIMEOUT_S = 150.0

# Per-stage microseconds of one r = 2, n = 1e4 replication, measured with
# time.perf_counter on the seed code (ROADMAP baseline).
ROADMAP_STAGE_US = {
    "streams.replication_stream": 15.0,
    "model.sample_batch": 26.0,
    "estimator.plug_in_estimate": 51.0,
    "asymptotics.plugin_sigma2": 94.0,
    "asymptotics.confidence_interval": 2.5,
}

# Spans that write summary.json, bounds.csv and manifest.json.
REPORT_WRITERS = ("io.write_summary_json", "io.write_bounds_csv", "io.write_manifest",
                  "io.write_json")


def environment() -> dict:
    """Machine and library versions recorded with every result."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    except OSError:
        names = []
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": names[0] if names else platform.machine(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }


class Run:
    """One child process, started through ``launch.py``: exit code, wall time,
    and the rusage of the child together with the workers it reaped."""

    def __init__(self, argv, workdir: str, env: dict):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        report = os.path.join(workdir, "launch.json")
        subprocess.run(
            [sys.executable, LAUNCH, report, os.path.join(workdir, "stdout"),
             os.path.join(workdir, "stderr"), str(CHILD_TIMEOUT_S), "--", *argv],
            env=env, cwd=ROOT, check=True,
        )
        with open(report, encoding="utf-8") as fh:
            usage = json.load(fh)
        self.exit_code = usage["exit_code"]
        self.wall_s = usage["wall_s"]
        self.cpu_s = usage["cpu_s"]
        self.peak_rss_mb = usage["peak_rss_mb"]

    def stdout(self) -> str:
        with open(os.path.join(self.workdir, "stdout"), encoding="utf-8") as fh:
            return fh.read()

    def stderr_tail(self) -> str:
        with open(os.path.join(self.workdir, "stderr"), encoding="utf-8", errors="replace") as fh:
            return fh.read()[-400:]


class Bench:
    """One benchmark invocation: a workload, its config file, a scratch dir."""

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(workload.config, fh)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self._count = 0

    def _cli_args(self, out_dir: str | None, workers: int) -> list[str]:
        args = [self.workload.command, "--config", self.config_path, "--workers", str(workers)]
        return args + (["--out-dir", out_dir] if out_dir else ["--dry-run"])

    def _fresh_dir(self, label: str) -> str:
        self._count += 1
        return os.path.join(self.workdir, f"{self._count:03d}-{label}")

    def _record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def setup(self) -> Run:
        """Fresh interpreter until the config is loaded and validated."""
        run = Run(CLI + self._cli_args(None, 1), self._fresh_dir("setup"), self.env)
        self._record("setup", [] if run.exit_code == 0 else
                     [f"--dry-run exit code {run.exit_code}: {run.stderr_tail()}"])
        return run

    def _verify(self, label: str, out_dir: str, exit_code: int, err: str) -> bool:
        problems, digest = verify_run(out_dir, self.workload.command, self.workload.config,
                                      exit_code)
        if exit_code not in (0, 3):
            problems = [f"{p}: {err}" for p in problems]
        if digest:
            self.digests.add(digest)
        shutil.rmtree(out_dir, ignore_errors=True)
        return self._record(label, problems)

    def cli_run(self, workers: int) -> tuple[Run, bool]:
        """One CLI run on the workload; its outputs verified, then removed."""
        workdir = self._fresh_dir(f"w{workers}")
        out_dir = os.path.join(workdir, "out")
        run = Run(CLI + self._cli_args(out_dir, workers), workdir, self.env)
        return run, self._verify("run", out_dir, run.exit_code, run.stderr_tail())

    def in_process_run(self, traced: bool) -> tuple[dict, list | None]:
        """The CLI's main in one fresh interpreter, under the tracer or not."""
        workdir = self._fresh_dir("traced" if traced else "untraced")
        out_dir = os.path.join(workdir, "out")
        spans_path = os.path.join(workdir, "spans.jsonl")
        argv = [sys.executable, TRACER, "--trace", str(int(traced)), "--spans", spans_path,
                "--"] + self._cli_args(out_dir, 1)
        run = Run(argv, workdir, self.env)
        report = json.loads(run.stdout().splitlines()[-1]) if run.exit_code == 0 else {}
        exit_code = report.get("exit_code", run.exit_code)
        records = os.path.join(out_dir, "records.csv")
        records_bytes = os.path.getsize(records) if os.path.isfile(records) else 0
        degenerate_frac = _degenerate_frac(records) if records_bytes else 0.0
        ok = self._verify("traced" if traced else "untraced", out_dir, exit_code,
                          run.stderr_tail())
        spans = read_spans(spans_path) if traced and ok else None
        report.update(records_bytes=records_bytes, degenerate_frac=degenerate_frac)
        return report, spans


def _degenerate_frac(records_path: str) -> float:
    with open(records_path, encoding="utf-8") as fh:
        next(fh)
        flags = [line.rstrip("\n").rsplit(",", 1)[1] for line in fh]
    return flags.count("1") / len(flags) if flags else 0.0


def medians(samples: list[dict]) -> dict:
    """Median of each metric over the samples; prints every sample value."""
    out = {}
    for name, (_value, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        print(f"{name}: {len(values)} samples: " + " ".join(f"{v:.6g}" for v in values))
        out[name] = (statistics.median(values), unit)
    return out


def timed(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    Each timed run follows a ``--dry-run``, so the set-up samples span the
    same stretch of time as the runs they are subtracted from.
    """
    reps = bench.workload.replications_per_run
    setups, runs = [], []
    start = time.perf_counter()
    while True:
        setups.append(bench.setup().wall_s)
        runs.append(bench.cli_run(bench.workload.workers)[0])
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(bench.setup().wall_s)
    if bench.workload.workers > 1:
        # untimed reference: the result files may not depend on --workers
        bench.cli_run(1)
    setup_s = medians([{"setup_s": (v, "s")} for v in setups])["setup_s"][0]
    return {"setup_s": (setup_s, "s"), **medians([{
        "wall_s": (run.wall_s, "s"),
        "reps_per_s": (reps / (run.wall_s - setup_s), "1/s"),
        "cpu_s": (run.cpu_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    } for run in runs])}


def layer_metrics(spans: list, report: dict, replications: int, untraced_s: float) -> dict:
    """Per-layer metrics of one traced run."""
    agg = aggregate(spans)

    def get(name: str, key: str) -> int:
        return agg.get(name, {}).get(key, 0)

    def per_call_us(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "total_ns") / calls / 1e3 if calls else 0.0

    def per_rep(value: float) -> float:
        return value / replications if replications else 0.0

    return {
        "cli.import_s": (report["import_s"], "s"),
        "io.load_config.s": (get("io.load_config", "total_ns") / 1e9, "s"),
        "streams.replication_stream.calls": (get("streams.replication_stream", "calls"), "count"),
        "streams.replication_stream.us": (per_call_us("streams.replication_stream"), "us"),
        "model.validate.calls_per_rep": (per_rep(get("model.validate", "calls")), "count/rep"),
        "model.validate.us_per_rep": (per_rep(get("model.validate", "self_ns") / 1e3), "us/rep"),
        "model.sample_batch.calls": (get("model.sample_batch", "calls"), "count"),
        "model.sample_batch.us": (per_call_us("model.sample_batch"), "us"),
        "estimator.plug_in_estimate.us": (per_call_us("estimator.plug_in_estimate"), "us"),
        "estimator.degenerate_frac": (report["degenerate_frac"], "frac"),
        "asymptotics.plugin_sigma2.calls": (get("asymptotics.plugin_sigma2", "calls"), "count"),
        "asymptotics.plugin_sigma2.us": (per_call_us("asymptotics.plugin_sigma2"), "us"),
        "asymptotics.confidence_interval.us": (per_call_us("asymptotics.confidence_interval"),
                                               "us"),
        "montecarlo.run_experiment.self_s": (get("montecarlo.run_experiment", "self_ns") / 1e9,
                                             "s"),
        "io.write_records_csv.s": (get("io.write_records_csv", "total_ns") / 1e9, "s"),
        "io.records_bytes": (report["records_bytes"], "B"),
        "bounds.bound_table.s": (get("bounds.bound_table", "total_ns") / 1e9, "s"),
        "bounds.bound_table.rss_delta_mb": (report["rss_delta_mb"].get("bounds.bound_table", 0.0),
                                            "MB"),
        "io.write_reports.s": (sum(get(n, "total_ns") for n in REPORT_WRITERS) / 1e9, "s"),
        "trace.overhead_frac": (report["main_s"] / untraced_s - 1.0, "frac"),
    }


def traced(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics: medians over pairs of untraced and traced runs."""
    reps = bench.workload.replications_per_run if bench.workload.command == "simulate" else 0
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        plain, _ = bench.in_process_run(traced=False)
        report, spans = bench.in_process_run(traced=True)
        if spans is not None and "main_s" in plain:
            samples.append(layer_metrics(spans, report, reps, plain["main_s"]))
        elapsed = time.perf_counter() - start
        if not samples or elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    if not samples:
        return {}
    metrics = medians(samples)
    if bench.workload.name == "mc-r2":
        print("traced us per call on mc-r2 (n in {1e2, 1e3, 1e4}) against the ROADMAP "
              "baseline (one r=2, n=1e4 replication, untraced):")
        for stage, baseline in ROADMAP_STAGE_US.items():
            print(f"  {stage:34s} {metrics[stage + '.us'][0]:9.2f}   baseline {baseline:6.1f}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="symkl benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symkl", "cli.py")):
        print(f"error: no symkl sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workloads = make_workloads(args.seed)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    env = environment()
    print(json.dumps({"environment": env, "workload": workload.name, "seed": args.seed,
                      "trace": args.trace}))
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        bench = Bench(workload, workdir)
        measure = traced if args.trace else timed
        metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = bench.failed
    if len(bench.digests) > 1:
        # the determinism contract: same config, same result bytes, any --workers
        bench.problems.append(f"result files differ between runs: {len(bench.digests)} digests")
        failed = min(failed + 1, bench.attempted)
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / max(bench.attempted, 1):.6g} frac "
          f"({failed} of {bench.attempted} runs failed)")
    correct = not bench.problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
