"""File formats: counts CSV, experiment config JSON, result files.

Counts CSV
    Two data rows over one alphabet: row 1 holds the per-symbol counts for
    label 1, row 2 for label 0.  An optional header row is allowed, blank
    lines are skipped, and ``#`` starts a comment line.  UTF-8.  Parse
    errors carry the offending line number.

Config JSON
    One object whose keys are the fields of :class:`ExperimentConfig`,
    with ``model`` an object of the fields of :class:`PopulationModel`.  A
    field with a default is optional and keeps the dataclass's default.
    ``_JSON_TYPES`` gives each field's JSON type: booleans are no numbers,
    and integers must be JSON integers.  Unknown keys, and a key given twice
    in one object, are rejected so typos cannot silently change an
    experiment, and each error names its path,
    such as ``config.checks[0]``.  :func:`config_to_dict` writes the same
    shape back.

Records CSV
    One row per replication with the columns
    ``rep_index,n,estimate,eta,scaled_eta,sigma2_hat,ci_lo,ci_hi,covered,degenerate``,
    one sample size after another, each in ``rep_index`` order.
    Reals carry 17 significant digits (value-preserving for float64),
    booleans are 1/0, and a degenerate row leaves its seven value fields
    empty.  Writing is deterministic: same records, same bytes.

Bounds CSV
    One row per grid point with the columns
    ``name,n,g,bound,informative,empirical,stderr,valid``, in the same
    formats; without Monte Carlo ``empirical`` and ``stderr`` are empty.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np

from .model import CountTable, PopulationModel, as_real
from .montecarlo import ExperimentConfig, ExperimentSummary, ReplicationColumns
from .streams import MAX_COUNT, as_integral, out_of_range

RECORDS_HEADER = (
    "rep_index,n,estimate,eta,scaled_eta,sigma2_hat,ci_lo,ci_hi,covered,degenerate"
)

BOUNDS_HEADER = "name,n,g,bound,informative,empirical,stderr,valid"

# One records.csv line per replication; a degenerate row has no values.
_RECORD_LINE = "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,0\n"
_DEGENERATE_LINE = "%d,%d,,,,,,,,1\n"
# One bounds.csv line per grid point; without Monte Carlo, empirical and stderr are empty.
_BOUNDS_LINE = "%s,%d,%.17g,%.17g,%d,%s,%d\n"
_COLUMNS = ("estimate", "eta", "scaled_eta", "sigma2_hat", "ci_lower", "ci_upper", "covered")
# Rows formatted per write: under 200 kB of lines and floats, whatever the run size.
_WRITE_ROWS = 1 << 8


class CountsFormatError(ValueError):
    """Malformed counts file; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _parse_count(token: str, line_number: int) -> int:
    text = token.strip()
    negative, digits = text.startswith("-"), text.lstrip("+-").lstrip("0")
    try:
        if digits.isascii() and len(digits) > len(str(MAX_COUNT)):
            # int() stops at 4300 digits; an ASCII count this long is out of range by its length
            raise out_of_range("count", 0, MAX_COUNT, (
                f"{'a negative' if negative else 'an'} integer of {len(digits)} digits"))
        value = int(digits or "0")
        return as_integral(-value if negative else value, "count", 0, MAX_COUNT)
    except ValueError as exc:
        raise CountsFormatError(str(exc), line_number) from None


def read_counts_csv(path) -> CountTable:
    """Parse a counts CSV file into a CountTable.

    Raises
    ------
    CountsFormatError
        On any structural problem, with the offending line number, or
        on bytes that are not UTF-8.
    """
    data_rows: list[tuple[int, list[str]]] = []
    header: tuple[int, list[str]] | None = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
    except UnicodeDecodeError as exc:
        raise CountsFormatError(f"not UTF-8 text ({exc.reason})") from None

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
    return text.isdecimal()  # not isdigit(): int() refuses digits such as "²"


# Each config field's JSON type: a dataclass, read as an object of its
# fields, a scalar of _SCALARS, or [scalar] for a list of them.
_JSON_TYPES = {
    "model": PopulationModel,
    "label_prob": "a number",
    "cond_p": ["a number"],
    "cond_q": ["a number"],
    "n_values": ["an integer"],
    "replications": "an integer",
    "master_seed": "an integer",
    "ci_level": "a number",
    "checks": ["a string"],
}
# The Python types that hold each JSON scalar; a bool is neither a number nor an integer.
_SCALARS = {"a number": (int, float), "an integer": int, "a string": str}


def _from_json(kind, value, where: str):
    """``value``, the JSON at path ``where``, read as ``kind`` of ``_JSON_TYPES``.

    A dataclass reads an object whose keys are its fields: a field without
    a default is a required key, and an absent key keeps the default.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        return [_from_json(kind[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, str):
        if isinstance(value, bool) or not isinstance(value, _SCALARS[kind]):
            raise ValueError(f"{where}: expected {kind}, got {value!r}")
        return as_real(value, where) if kind == "a number" else value
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {type(value).__name__}")
    fields = dataclasses.fields(kind)
    unknown = sorted(set(value) - {f.name for f in fields}, key=str)
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    for f in fields:
        if f.name not in value and f.default is dataclasses.MISSING:
            raise ValueError(f"{where}: missing required key {f.name!r}")
    return kind(**{f.name: _from_json(_JSON_TYPES[f.name], value[f.name], f"{where}.{f.name}")
                   for f in fields if f.name in value})


def parse_config_dict(data) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON object."""
    return _from_json(ExperimentConfig, data, "config")


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook``: a key given twice in one JSON object raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config JSON file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        # also a duplicate key, an integer literal beyond int()'s digit limit,
        # or arrays nested too deep
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"config: invalid JSON ({exc})") from exc
    return parse_config_dict(data)


def _json_items(items) -> dict:
    """``asdict``'s ``dict_factory``: numpy arrays and tuples become JSON lists."""
    return {key: value.tolist() if isinstance(value, np.ndarray)
            else list(value) if isinstance(value, tuple) else value
            for key, value in items}


def config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize a config to the JSON object shape accepted by load_config."""
    return dataclasses.asdict(config, dict_factory=_json_items)


def write_records_csv(records: tuple[ReplicationColumns, ...], path) -> None:
    """Write the :class:`ReplicationColumns` of ``records``, one sample size
    after another, deterministically (17 significant digits); row ``i`` of
    each is ``rep_index`` ``i``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for at_n in records:
            for start in range(0, len(at_n), _WRITE_ROWS):
                block = at_n[start:start + _WRITE_ROWS]
                values = (getattr(block, name).tolist() for name in _COLUMNS)
                rows = zip(itertools.count(start), itertools.repeat(at_n.n), *values)
                lines = list(map(_RECORD_LINE.__mod__, rows))
                for i in np.flatnonzero(block.degenerate).tolist():
                    lines[i] = _DEGENERATE_LINE % (start + i, at_n.n)
                fh.write("".join(lines))


def write_bounds_csv(rows, path) -> None:
    """Write a bound table (one grid point per row), deterministically."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(BOUNDS_HEADER + "\n")
        fh.write("".join(_BOUNDS_LINE % (
            row.name, row.n, row.g, row.bound, row.informative,
            "," if row.empirical is None else "%.17g,%.17g" % (row.empirical, row.stderr),
            row.empirically_valid()) for row in rows))


def write_summary_json(summary: ExperimentSummary, path) -> None:
    """Write an experiment summary as JSON.

    The bound table itself goes to ``bounds.csv``; here ``grid_points``
    counts its rows (0 when the bounds check did not run).
    """
    data = dataclasses.asdict(summary)
    data["grid_points"] = len(data.pop("bound_rows"))
    data["all_checks_passed"] = summary.all_checks_passed
    write_json(data, path)


def write_json(obj, path) -> None:
    """Write any plain object as pretty, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


write_manifest = write_json  # the run manifest is a plain dict
