"""File formats: counts CSV, experiment config JSON, result files.

Counts CSV
    Two data rows over one alphabet: row 1 holds the per-symbol counts for
    label 1, row 2 for label 0.  An optional header row is allowed, blank
    lines are skipped, and ``#`` starts a comment line.  UTF-8.  Parse
    errors carry the offending line number.

Config JSON
    One object with keys ``model`` (``label_prob``, ``cond_p``, ``cond_q``),
    ``n_values``, ``replications``, ``master_seed``, and optional
    ``ci_level`` (default 0.95) and ``checks`` (default empty).  Unknown
    keys are rejected so typos cannot silently change an experiment.

Records CSV
    One row per replication with the columns
    ``rep_index,n,estimate,eta,scaled_eta,sigma2_hat,ci_lo,ci_hi,covered,degenerate``.
    Reals carry 17 significant digits (value-preserving for float64),
    missing values are empty fields, booleans are 1/0.  Writing is
    deterministic: same records, same bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .model import MAX_COUNT, CountTable, PopulationModel
from .montecarlo import ExperimentConfig, ExperimentSummary, ReplicationRecord

RECORDS_HEADER = (
    "rep_index,n,estimate,eta,scaled_eta,sigma2_hat,ci_lo,ci_hi,covered,degenerate"
)

BOUNDS_HEADER = "name,n,g,bound,informative,empirical,stderr,valid"


class CountsFormatError(ValueError):
    """Malformed counts file; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _parse_count(token: str, line_number: int) -> int:
    text = token.strip()
    if not text:
        raise CountsFormatError("empty field", line_number)
    try:
        value = int(text)
    except ValueError:
        raise CountsFormatError(
            f"expected an integer count, got {text!r}", line_number
        ) from None
    if value < 0:
        raise CountsFormatError(f"negative count {value}", line_number)
    if value > MAX_COUNT:
        raise CountsFormatError(f"count {value} exceeds 2**63 - 1", line_number)
    return value


def read_counts_csv(path) -> CountTable:
    """Parse a counts CSV file into a CountTable.

    Raises
    ------
    CountsFormatError
        On any structural problem, with the offending line number.
    """
    data_rows: list[tuple[int, list[str]]] = []
    header: tuple[int, list[str]] | None = None
    with open(path, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split(",")
            numeric = [_is_int_token(t) for t in tokens]
            if not all(numeric):
                # a header is the first content row with no numeric fields
                if header is None and not data_rows and not any(numeric):
                    header = (line_number, tokens)
                    continue
                bad = tokens[numeric.index(False)]
                raise CountsFormatError(
                    f"expected an integer count, got {bad.strip()!r}", line_number
                )
            data_rows.append((line_number, tokens))

    if len(data_rows) != 2:
        where = data_rows[2][0] if len(data_rows) > 2 else None
        raise CountsFormatError(
            f"expected exactly 2 data rows (label 1 then label 0), found {len(data_rows)}",
            where,
        )
    (ln1, row1), (ln0, row0) = data_rows
    if len(row1) < 2:
        raise CountsFormatError(
            f"need at least 2 symbols per row, got {len(row1)}", ln1
        )
    if len(row0) != len(row1):
        raise CountsFormatError(
            f"row has {len(row0)} columns but the label-1 row has {len(row1)}", ln0
        )
    if header is not None and len(header[1]) != len(row1):
        raise CountsFormatError(
            f"header has {len(header[1])} columns but data rows have {len(row1)}",
            header[0],
        )
    n1 = [_parse_count(t, ln1) for t in row1]
    n0 = [_parse_count(t, ln0) for t in row0]
    try:
        return CountTable(n1=np.array(n1, dtype=np.int64), n0=np.array(n0, dtype=np.int64))
    except ValueError as exc:
        raise CountsFormatError(str(exc)) from exc


def _is_int_token(token: str) -> bool:
    text = token.strip()
    if not text:
        return False
    if text[0] in "+-":
        text = text[1:]
    return text.isdigit()


_TOP_KEYS = {"model", "n_values", "replications", "master_seed", "ci_level", "checks"}
_MODEL_KEYS = {"label_prob", "cond_p", "cond_q"}


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValueError(f"{where}: missing required key {key!r}")
    return data[key]


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_real_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list, got {value!r}")
    return [_as_real(v, f"{where}[{i}]") for i, v in enumerate(value)]


def parse_config_dict(data) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"config: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ValueError(f"config: unknown keys {unknown}")
    model_data = _require(data, "model", "config")
    if not isinstance(model_data, dict):
        raise ValueError("config.model: expected an object")
    unknown = sorted(set(model_data) - _MODEL_KEYS)
    if unknown:
        raise ValueError(f"config.model: unknown keys {unknown}")
    model = PopulationModel(
        label_prob=_as_real(_require(model_data, "label_prob", "config.model"),
                            "config.model.label_prob"),
        cond_p=_as_real_list(_require(model_data, "cond_p", "config.model"),
                             "config.model.cond_p"),
        cond_q=_as_real_list(_require(model_data, "cond_q", "config.model"),
                             "config.model.cond_q"),
    )
    n_values = _require(data, "n_values", "config")
    if not isinstance(n_values, list):
        raise ValueError("config.n_values: expected a list")
    n_values = tuple(_as_int(v, f"config.n_values[{i}]") for i, v in enumerate(n_values))
    checks = data.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ValueError("config.checks: expected a list of strings")
    return ExperimentConfig(
        model=model,
        n_values=n_values,
        replications=_as_int(_require(data, "replications", "config"),
                             "config.replications"),
        master_seed=_as_int(_require(data, "master_seed", "config"),
                            "config.master_seed"),
        ci_level=_as_real(data.get("ci_level", 0.95), "config.ci_level"),
        checks=tuple(checks),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config: invalid JSON ({exc})") from exc
    return parse_config_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize a config to the JSON object shape accepted by load_config."""
    return {
        "model": {
            "label_prob": config.model.label_prob,
            "cond_p": [float(v) for v in config.model.cond_p],
            "cond_q": [float(v) for v in config.model.cond_q],
        },
        "n_values": [int(n) for n in config.n_values],
        "replications": config.replications,
        "master_seed": config.master_seed,
        "ci_level": config.ci_level,
        "checks": list(config.checks),
    }


def save_config(config: ExperimentConfig, path) -> None:
    write_json(config_to_dict(config), path)


def _fmt_real(value: float | None) -> str:
    if value is None:
        return ""
    return f"{float(value):.17g}"


def _fmt_flag(value: bool | None) -> str:
    if value is None:
        return ""
    return "1" if value else "0"


def write_records_csv(records, path) -> None:
    """Write replication records deterministically (17 significant digits)."""
    lines = [RECORDS_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                (
                    str(rec.rep_index),
                    str(rec.n),
                    _fmt_real(rec.estimate),
                    _fmt_real(rec.eta),
                    _fmt_real(rec.scaled_eta),
                    _fmt_real(rec.sigma2_hat),
                    _fmt_real(rec.ci_lower),
                    _fmt_real(rec.ci_upper),
                    _fmt_flag(rec.covered),
                    _fmt_flag(rec.degenerate),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records_csv(path) -> list[ReplicationRecord]:
    """Read back a records CSV written by write_records_csv."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORDS_HEADER:
        raise ValueError(f"{path}: not a records CSV (bad header)")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 10:
            raise ValueError(f"{path}: expected 10 fields, got {len(f)}")
        records.append(
            ReplicationRecord(
                rep_index=int(f[0]),
                n=int(f[1]),
                estimate=float(f[2]) if f[2] else None,
                eta=float(f[3]) if f[3] else None,
                scaled_eta=float(f[4]) if f[4] else None,
                sigma2_hat=float(f[5]) if f[5] else None,
                ci_lower=float(f[6]) if f[6] else None,
                ci_upper=float(f[7]) if f[7] else None,
                covered=bool(int(f[8])) if f[8] else None,
                degenerate=bool(int(f[9])),
            )
        )
    return records


def write_bounds_csv(rows, path) -> None:
    """Write a bound table (one grid point per row), deterministically."""
    lines = [BOUNDS_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    row.name,
                    str(row.n),
                    _fmt_real(row.g),
                    _fmt_real(row.bound),
                    _fmt_flag(row.informative),
                    _fmt_real(row.empirical),
                    _fmt_real(row.stderr),
                    _fmt_flag(row.empirically_valid()),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_to_dict(summary: ExperimentSummary) -> dict:
    """Serialize an experiment summary to plain JSON types.

    The bound table itself goes to ``bounds.csv``; here ``grid_points``
    counts its rows (0 when the bounds check did not run).
    """
    data = asdict(summary)
    data["grid_points"] = len(data.pop("bound_rows"))
    data["all_checks_passed"] = summary.all_checks_passed
    return data


def write_summary_json(summary: ExperimentSummary, path) -> None:
    write_json(summary_to_dict(summary), path)


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one CLI run: inputs, environment, check outcomes."""

    package_version: str
    started_utc: str
    finished_utc: str
    subcommand: str
    master_seed: int
    workers: int
    config: dict
    checks: dict
    outputs: tuple[str, ...]


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(asdict(manifest), path)


def write_json(obj, path) -> None:
    """Write any plain object as pretty, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
