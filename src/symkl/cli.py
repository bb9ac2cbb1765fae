"""Command line interface.

Subcommands
-----------
estimate
    Point estimate, plug-in variance, and confidence interval from a
    counts CSV file.
simulate
    Run a replicated experiment from a config JSON file and write
    ``records.csv``, ``summary.json``, and ``manifest.json`` (plus
    ``bounds.csv`` when the bounds check is requested).
clt-check, lln-check, bounds-check
    ``simulate`` pinned to a single check, with a built-in default config
    so they run out of the box.  ``bounds-check`` runs the bound table
    alone, without the estimator kernel, so it writes no ``records.csv``
    and its ``summary.json`` has an empty ``per_n``.

Exit codes
----------
0 success; 1 usage error or malformed input; 2 degenerate data
(estimate or plug-in variance undefined); 3 a requested check failed
(reports are still written).
"""

from __future__ import annotations

import os

# symkl's parallelism is its process pool, and its one BLAS call (a small
# float32 product in the bounds pass) is as fast on one thread; OpenBLAS's
# thread pool would only spin a second CPU in every process and pool worker.
# Set before numpy loads; a caller's OMP_NUM_THREADS or OPENBLAS_NUM_THREADS
# (which OpenBLAS reads first) still wins.
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import __version__
from .asymptotics import confidence_interval, interval_z, plugin_sigma2
from .estimator import DegenerateSampleError, plug_in_estimate
from .io import (
    CountsFormatError,
    config_to_dict,
    load_config,
    read_counts_csv,
    write_bounds_csv,
    write_manifest,
    write_records_csv,
    write_summary_json,
    write_json,  # noqa: F401  (perfbench's tracer wraps it here)
)
from .model import PopulationModel
from .montecarlo import (
    ExperimentConfig,
    bound_table,
    evaluate,
    pass_workers,
    pool_size,
    run_experiment,
)

# after the modules that load numpy: loaded first, these leave a higher peak RSS
import argparse
import dataclasses
import importlib.util
import sys
from datetime import datetime, timezone

DEFAULT_MODEL_PARAMS = {
    "label_prob": 0.5,
    "cond_p": [0.5, 0.5],
    "cond_q": [0.25, 0.75],
}

DEFAULT_MASTER_SEED = 20260815

_DEFAULT_CONFIGS = {
    "clt-check": dict(n_values=(10000,), replications=2000, checks=("clt",)),
    "lln-check": dict(n_values=(1000, 10000, 100000), replications=200, checks=("lln",)),
    "bounds-check": dict(n_values=(100, 1000, 10000), replications=100000, checks=("bounds",)),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float) -> str:
    # shortest value-preserving decimal, kinder to read than fixed %.17g
    return repr(float(value))


def cmd_estimate(args) -> int:
    interval_z(args.level, "level")  # a usage error, whatever the counts
    try:
        counts = read_counts_csv(args.counts)
    except FileNotFoundError:
        print(f"error: no such file: {args.counts}", file=sys.stderr)
        return 1
    except CountsFormatError as exc:
        print(f"error: {args.counts}: {exc}", file=sys.stderr)
        return 1
    estimate = plug_in_estimate(counts)  # a degenerate table raises its reason
    sigma2 = plugin_sigma2(counts)
    lower, upper = confidence_interval(estimate, sigma2, counts.n, args.level)
    print(f"n: {counts.n}")
    print(f"estimate: {_fmt(estimate)}")
    print(f"sigma2_hat: {_fmt(sigma2)}")
    print(f"ci_level: {_fmt(args.level)}")
    print(f"ci_lo: {_fmt(lower)}")
    print(f"ci_hi: {_fmt(upper)}")
    if sigma2 == 0.0:
        print(
            "warning: plug-in variance is zero; interval collapsed to a point",
            file=sys.stderr,
        )
    return 0


def _load_or_default_config(args) -> ExperimentConfig:
    preset = _DEFAULT_CONFIGS.get(args.command)
    if args.config is not None:
        config = load_config(args.config)
    elif preset is None:
        raise _UsageError("simulate requires --config")
    else:
        config = ExperimentConfig(
            model=PopulationModel(**DEFAULT_MODEL_PARAMS),
            master_seed=DEFAULT_MASTER_SEED,
            **preset,
        )
    overrides = {}
    if preset is not None:
        overrides["checks"] = preset["checks"]
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.level is not None:
        overrides["ci_level"] = args.level
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _manifest(args, config: ExperimentConfig, checks, outputs, started_utc) -> dict:
    """Provenance for one run: package version, inputs, processes, check outcomes, outputs."""
    return dict(
        package_version=__version__,
        started_utc=started_utc,
        finished_utc=_utc_now(),
        subcommand=args.command,
        master_seed=config.master_seed,
        workers=pass_workers(config.model, config.n_values, config.replications, args.workers),
        config=config_to_dict(config),
        checks={c.name: c.passed for c in checks},
        outputs=list(outputs),
    )


def _report_checks(checks) -> None:
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(f"check {check.name}: {status} ({check.detail})")


def _dry_run_report(config: ExperimentConfig) -> int:
    print("config ok")
    print(f"  alphabet size: {config.model.r}")
    for key, value in config_to_dict(config).items():
        if key != "model":
            print(f"  {key}: {value}")
    return 0


def cmd_run(args) -> int:
    """``simulate`` and the check presets; ``bounds-check`` runs the bound table alone."""
    pool_size(args.workers, "--workers")  # a usage error even on a dry run
    config = _load_or_default_config(args)
    if args.dry_run:
        return _dry_run_report(config)
    if args.out_dir is None:
        raise _UsageError(f"{args.command} requires --out-dir (or --dry-run)")
    os.makedirs(args.out_dir, exist_ok=True)

    started = _utc_now()
    outputs = ["summary.json", "manifest.json"]
    if args.command == "bounds-check":
        rows = bound_table(config.model, config.n_values, replications=config.replications,
                           master_seed=config.master_seed, workers=args.workers)
        summary = evaluate(config, (), tuple(rows))
    else:
        result = run_experiment(config, workers=args.workers)
        summary = result.summary
        write_records_csv(result.records, os.path.join(args.out_dir, "records.csv"))
        outputs.insert(0, "records.csv")
    if summary.bound_rows:
        write_bounds_csv(summary.bound_rows, os.path.join(args.out_dir, "bounds.csv"))
        outputs.insert(-2, "bounds.csv")
    write_summary_json(summary, os.path.join(args.out_dir, "summary.json"))
    manifest = _manifest(args, config, summary.checks, outputs, started)
    write_manifest(manifest, os.path.join(args.out_dir, "manifest.json"))

    for name in outputs:
        print(f"wrote {os.path.join(args.out_dir, name)}")
    _report_checks(summary.checks)
    return 0 if summary.all_checks_passed else 3


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="symkl",
        description="Symmetric KL divergence estimation and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    est = sub.add_parser("estimate", help="estimate from a counts CSV file")
    est.add_argument("counts", help="counts CSV: label-1 row then label-0 row")
    est.add_argument("--level", type=float, default=0.95, help="confidence level")
    est.set_defaults(func=cmd_estimate)

    runners = (
        ("simulate", "run a replicated experiment from a config file"),
        ("clt-check", "normality check of the scaled error"),
        ("lln-check", "shrinking-error check across sample sizes"),
        ("bounds-check", "tail bounds against observed frequencies"),
    )
    for name, help_text in runners:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out-dir", help="directory for result files")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--level", type=float, help="override the confidence level")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--dry-run", action="store_true",
                       help="validate the config and exit without running")
        p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateSampleError as exc:
        print(f"degenerate sample: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _keep_openssl_out() -> None:
    """Block ``_hashlib``, so that numpy.random's ``secrets`` maps no OpenSSL (about 3.5 MB).

    symkl hashes nothing and seeds every stream; ``hashlib`` and ``hmac`` then
    use CPython's builtin digests.  A Python built without them keeps OpenSSL,
    since hashlib would log a traceback for each digest it lacks.
    """
    found = importlib.util.find_spec
    if (all(found(name) for name in ("_md5", "_sha1", "_sha3", "_blake2"))
            and (found("_sha2") or (found("_sha256") and found("_sha512")))):
        sys.modules.setdefault("_hashlib", None)


def entry() -> None:
    # the console script's process is the CLI's own; main() leaves a caller's
    # process as it is.  Forked table-pass workers inherit the block.
    _keep_openssl_out()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
