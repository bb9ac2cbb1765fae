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
    so they run out of the box.  ``bounds-check`` runs the same table
    pass without the estimator kernel, so it writes no ``records.csv``
    and its ``summary.json`` has an empty ``per_n``.

Exit codes
----------
0 success; 1 usage error or malformed input; 2 degenerate data
(estimate undefined); 3 a requested check failed (reports are still
written).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .asymptotics import confidence_interval, plugin_sigma2
from .estimator import DegenerateSampleError, plug_in_estimate
from .io import (
    CountsFormatError,
    RunManifest,
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
from .montecarlo import ExperimentConfig, run_experiment
from .montecarlo import bound_table  # noqa: F401  (perfbench's tracer wraps it here)

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
    try:
        counts = read_counts_csv(args.counts)
    except FileNotFoundError:
        print(f"error: no such file: {args.counts}", file=sys.stderr)
        return 1
    except CountsFormatError as exc:
        print(f"error: {args.counts}: {exc}", file=sys.stderr)
        return 1
    est = plug_in_estimate(counts)
    if est.degenerate:
        print(f"degenerate sample: {est.reason}", file=sys.stderr)
        return 2
    variance = plugin_sigma2(counts)
    ci = confidence_interval(est, variance, args.level)
    print(f"n: {est.n}")
    print(f"estimate: {_fmt(est.value)}")
    print(f"sigma2_hat: {_fmt(variance.sigma2)}")
    print(f"ci_level: {_fmt(ci.level)}")
    print(f"ci_lo: {_fmt(ci.lower)}")
    print(f"ci_hi: {_fmt(ci.upper)}")
    if ci.degenerate_variance:
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


def _manifest(args, config: ExperimentConfig, checks, outputs, started_utc) -> RunManifest:
    return RunManifest(
        package_version=__version__,
        started_utc=started_utc,
        finished_utc=_utc_now(),
        subcommand=args.command,
        master_seed=config.master_seed,
        workers=args.workers,
        config=config_to_dict(config),
        checks={c.name: c.passed for c in checks},
        outputs=tuple(outputs),
    )


def _report_checks(checks) -> None:
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(f"check {check.name}: {status} ({check.detail})")


def _dry_run_report(config: ExperimentConfig) -> int:
    print("config ok")
    print(f"  alphabet size: {config.model.r}")
    print(f"  n_values: {list(config.n_values)}")
    print(f"  replications: {config.replications}")
    print(f"  master_seed: {config.master_seed}")
    print(f"  ci_level: {config.ci_level}")
    print(f"  checks: {list(config.checks)}")
    return 0


def cmd_run(args) -> int:
    """``simulate`` and the check presets; ``bounds-check`` keeps no records."""
    config = _load_or_default_config(args)
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.dry_run:
        return _dry_run_report(config)
    if args.out_dir is None:
        raise _UsageError(f"{args.command} requires --out-dir (or --dry-run)")
    os.makedirs(args.out_dir, exist_ok=True)

    started = _utc_now()
    outputs = ["summary.json", "manifest.json"]
    keep_records = args.command != "bounds-check"
    result = run_experiment(config, workers=args.workers, records=keep_records)
    summary = result.summary
    if keep_records:
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


def entry() -> None:
    raise SystemExit(main())
