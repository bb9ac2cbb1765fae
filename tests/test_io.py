import json
import math

import numpy as np
import pytest

from symkl import (
    CountsFormatError,
    ExperimentConfig,
    PopulationModel,
    ReplicationColumns,
    config_to_dict,
    load_config,
    parse_config_dict,
    read_counts_csv,
    run_experiment,
    write_bounds_csv,
    write_records_csv,
    write_summary_json,
    bound_table,
)
from symkl import io as symkl_io
from symkl.io import BOUNDS_HEADER, RECORDS_HEADER
from symkl.montecarlo import REASON_EMPTY_CELL, REASON_NONE

from conftest import assert_columns_equal, make_columns, traced_peak


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def config_dict(**overrides):
    data = {
        "model": {
            "label_prob": 0.5,
            "cond_p": [0.5, 0.5],
            "cond_q": [0.25, 0.75],
        },
        "n_values": [100, 200],
        "replications": 10,
        "master_seed": 7,
        "ci_level": 0.95,
        "checks": ["lln"],
    }
    data.update(overrides)
    return data


class TestCountsCsv:
    def test_plain_rows(self, tmp_path):
        path = write(tmp_path / "c.csv", "3,1\n1,3\n")
        table = read_counts_csv(path)
        np.testing.assert_array_equal(table.n1, [3, 1])
        np.testing.assert_array_equal(table.n0, [1, 3])
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        path.write_text("3,1\n1,3\n", encoding="utf-8-sig")
        assert read_counts_csv(path) == table

    def test_header_comments_and_blanks(self, tmp_path):
        text = "# raw counts\n\nsym_a,sym_b\n# label one first\n10,20\n30,40\n\n"
        table = read_counts_csv(write(tmp_path / "c.csv", text))
        np.testing.assert_array_equal(table.n1, [10, 20])
        np.testing.assert_array_equal(table.n0, [30, 40])

    def test_whitespace_tolerated(self, tmp_path):
        table = read_counts_csv(write(tmp_path / "c.csv", " 3 , 1 \n 1 , 3 \n"))
        assert table.n == 8

    def test_error_reports_line_number(self, tmp_path):
        path = write(tmp_path / "c.csv", "# note\n3,1\n1,x\n")
        with pytest.raises(CountsFormatError, match="line 3") as info:
            read_counts_csv(path)
        assert info.value.line_number == 3
        path.write_text("# note\n3,1\n1,x\n", encoding="utf-8-sig")  # with a byte-order mark
        with pytest.raises(CountsFormatError, match="line 3: expected an integer count, got 'x'"):
            read_counts_csv(path)

    def test_mixed_row_is_not_a_header(self, tmp_path):
        path = write(tmp_path / "c.csv", "1,x\n2,3\n")
        with pytest.raises(CountsFormatError, match="line 1.*got 'x'"):
            read_counts_csv(path)

    def test_negative_count(self, tmp_path):
        path = write(tmp_path / "c.csv", "3,-1\n1,3\n")
        with pytest.raises(CountsFormatError, match="negative"):
            read_counts_csv(path)

    def test_fractional_count(self, tmp_path):
        path = write(tmp_path / "c.csv", "3,1.5\n1,3\n")
        with pytest.raises(CountsFormatError, match="line 1"):
            read_counts_csv(path)

    def test_row_count_must_be_two(self, tmp_path):
        with pytest.raises(CountsFormatError, match="exactly 2 data rows"):
            read_counts_csv(write(tmp_path / "one.csv", "3,1\n"))
        with pytest.raises(CountsFormatError, match="exactly 2 data rows"):
            read_counts_csv(write(tmp_path / "three.csv", "3,1\n1,3\n2,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CountsFormatError, match="exactly 2 data rows"):
            read_counts_csv(write(tmp_path / "empty.csv", "# nothing\n"))

    def test_width_mismatch(self, tmp_path):
        path = write(tmp_path / "c.csv", "3,1,2\n1,3\n")
        with pytest.raises(CountsFormatError, match="line 2.*2 columns.*label-1 row has 3"):
            read_counts_csv(path)

    def test_header_width_mismatch(self, tmp_path):
        path = write(tmp_path / "c.csv", "a,b,c\n3,1\n1,3\n")
        with pytest.raises(CountsFormatError, match="line 1.*header"):
            read_counts_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", "3\n1\n")
        with pytest.raises(CountsFormatError, match="at least 2 symbols"):
            read_counts_csv(path)

    def test_all_zero_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", "0,0\n0,0\n")
        with pytest.raises(CountsFormatError, match="empty"):
            read_counts_csv(path)


class TestConfigJson:
    def test_parse_round_trip(self):
        config = parse_config_dict(config_dict())
        assert config == parse_config_dict(config_to_dict(config))

    def test_parse_fields(self):
        config = parse_config_dict(config_dict())
        assert config.model == PopulationModel(
            label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75)
        )
        assert config.n_values == (100, 200)
        assert config.checks == ("lln",)

    def test_defaults(self):
        data = config_dict()
        del data["ci_level"], data["checks"]
        config = parse_config_dict(data)
        assert config.ci_level == 0.95
        assert config.checks == ()

    def test_unknown_top_key(self):
        with pytest.raises(ValueError, match="unknown keys.*'repetitions'"):
            parse_config_dict(config_dict(repetitions=5))

    def test_unknown_model_key(self):
        data = config_dict()
        data["model"]["labels"] = 2
        with pytest.raises(ValueError, match="config.model: unknown keys"):
            parse_config_dict(data)

    def test_missing_required(self):
        data = config_dict()
        del data["replications"]
        with pytest.raises(ValueError, match="missing required key 'replications'"):
            parse_config_dict(data)

    def test_type_checks(self):
        with pytest.raises(ValueError, match="config.replications"):
            parse_config_dict(config_dict(replications=True))
        with pytest.raises(ValueError, match="config.replications"):
            parse_config_dict(config_dict(replications="10"))
        with pytest.raises(ValueError, match=r"config.n_values\[1\]"):
            parse_config_dict(config_dict(n_values=[100, "200"]))
        with pytest.raises(ValueError, match="config.checks"):
            parse_config_dict(config_dict(checks="lln"))
        data = config_dict()
        data["model"]["cond_p"] = "half and half"
        with pytest.raises(ValueError, match="config.model.cond_p"):
            parse_config_dict(data)

    def test_semantic_validation_propagates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_config_dict(config_dict(n_values=[200, 100]))

    def test_file_round_trip(self, tmp_path):
        config = parse_config_dict(config_dict())
        path = tmp_path / "config.json"
        symkl_io.write_json(config_to_dict(config), path)
        assert load_config(path) == config
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # a UTF-8 byte-order mark
        assert load_config(path) == config

    def test_invalid_json_message(self, tmp_path):
        path = write(tmp_path / "bad.json", "{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_config(path)

    def test_integer_literal_beyond_digit_limit(self, tmp_path):
        path = write(tmp_path / "big.json", '{"replications": 1' + "0" * 5000 + "}")
        with pytest.raises(ValueError, match="config: invalid JSON"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = write(tmp_path / "list.json", "[1, 2]")
        with pytest.raises(ValueError, match="expected an object"):
            load_config(path)


def assert_lines_give_back(path, written):
    """Parsed with ``int()`` and ``float()``, the lines of the records.csv at
    ``path`` give back every bit of ``written``, signed zeros included;
    degenerate rows leave their values empty.  Returns the parsed rows, with
    the reasons of ``written``, which the file does not carry."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == RECORDS_HEADER
    fields = [line.split(",") for line in lines[1:]]
    assert len(fields) == len(written)
    rows = []
    for f, reason in zip(fields, written.reason.tolist()):
        assert len(f) == 10
        degenerate = f[9] == "1"
        assert degenerate == (reason != REASON_NONE)
        assert not any(f[2:9]) if degenerate else f[9] == "0"
        reals = [math.nan] * 6 if degenerate else [float(v) for v in f[2:8]]
        rows.append((int(f[1]), int(f[0]), reason, *reals, f[8] == "1"))
    read = make_columns(rows)
    assert_columns_equal(read, written)
    return read


class TestRecordsCsv:
    def records(self):
        return make_columns([
            (100, 0, REASON_NONE, math.pi / 11, -0.013, -0.13, 4.41, 0.2, 0.35, True),
            (100, 1, REASON_EMPTY_CELL, *[math.nan] * 6, False),
        ])

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(self.records(), path)
        assert_lines_give_back(path, self.records())

    def test_layout(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(self.records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == RECORDS_HEADER
        assert lines[1].startswith("0,100,0.28559933214452665,")
        assert lines[2] == "1,100,,,,,,,,1"

    def test_empty_file_reads_as_no_rows(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(ReplicationColumns.empty(), path)
        assert path.read_text() == RECORDS_HEADER + "\n"
        assert_lines_give_back(path, ReplicationColumns.empty())

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(self.records(), a)
        write_records_csv(self.records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digits_preserve_floats(self, tmp_path, test_model):
        config = ExperimentConfig(
            model=test_model, n_values=(500,), replications=20, master_seed=99
        )
        result = run_experiment(config)
        path = tmp_path / "records.csv"
        write_records_csv(result.records, path)
        assert_lines_give_back(path, result.records)


def _fmt_real(value):
    return "" if value is None else f"{float(value):.17g}"


def _fmt_flag(value):
    return "" if value is None else ("1" if value else "0")


def reference_records_csv(records) -> bytes:
    """records.csv composed field by field, the way per-row records were written."""
    lines = [RECORDS_HEADER]
    for i in range(len(records)):
        degenerate = bool(records.degenerate[i])
        reals = [None if degenerate else getattr(records, name)[i].item() for name in
                 ("estimate", "eta", "scaled_eta", "sigma2_hat", "ci_lower", "ci_upper")]
        covered = None if degenerate else bool(records.covered[i])
        lines.append(",".join((
            str(int(records.rep_index[i])), str(int(records.n[i])), *map(_fmt_real, reals),
            _fmt_flag(covered), _fmt_flag(degenerate),
        )))
    return ("\n".join(lines) + "\n").encode("utf-8")


def r1000_records():
    """An r=1000 run in three blocks per n whose smallest n leaves some
    replications with an empty cell."""
    p = np.ones(1000)
    p[0] = 0.1  # an expected count near 1 in this cell at n=20000
    q = np.linspace(1.0, 2.0, 1000)
    model = PopulationModel(label_prob=0.5, cond_p=p / p.sum(), cond_q=q / q.sum())
    config = ExperimentConfig(
        model=model, n_values=(20000, 200000), replications=150, master_seed=2024
    )
    records = run_experiment(config).records
    assert 0 < records.degenerate.sum() < 150
    return records


def edge_records():
    big, tiny = 1.2345678901234567e300, 9.876543210987654e-301
    return make_columns([
        # equal empirical laws: zero variance, a point interval
        (6, 0, REASON_NONE, 0.0, -0.25, -0.6123724356957945, 0.0, 0.0, 0.0, False),
        (6, 1, REASON_NONE, -0.0, -0.0, -0.0, 0.0, -0.0, 0.0, True),
        (6, 2, REASON_NONE, tiny, -tiny, 5e-324, tiny, -big, big, True),
        (6, 3, REASON_NONE, big, big, 1.7976931348623157e308, big, 1e-300, 1e300, False),
        (6, 4, REASON_EMPTY_CELL, *[math.nan] * 6, False),
        ((1 << 63) - 1, (1 << 32) - 1, REASON_NONE, 1 / 3, 2 / 3, 0.1, 0.2, 0.3, 1e-5, True),
    ])


class TestRecordsCsvEquivalence:
    @pytest.mark.parametrize("make", [r1000_records, edge_records])
    def test_same_bytes_as_per_field_writer(self, tmp_path, make):
        records = make()
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert path.read_bytes() == reference_records_csv(records)

    def test_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        records = r1000_records()
        monkeypatch.setattr(symkl_io, "_WRITE_ROWS", 7)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert path.read_bytes() == reference_records_csv(records)

    @pytest.mark.parametrize("make", [r1000_records, edge_records])
    def test_write_read_write_round_trips(self, tmp_path, make):
        records = make()
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_records_csv(records, first)
        write_records_csv(assert_lines_give_back(first, records), second)
        assert second.read_bytes() == first.read_bytes()


class TestRecordsCsvMemory:
    def test_writer_peak_stays_under_a_megabyte(self, tmp_path):
        rows = 48_000
        rng = np.random.default_rng(48)
        degenerate = np.arange(rows) % 7 == 3
        reals = rng.standard_normal((6, rows))
        reals[:, degenerate] = math.nan
        records = ReplicationColumns(
            np.full(rows, 10**6, dtype=np.int64), np.arange(rows, dtype=np.int64),
            np.where(degenerate, REASON_EMPTY_CELL, REASON_NONE).astype(np.int8), *reals,
            (rng.random(rows) < 0.95) & ~degenerate,
        )
        path = tmp_path / "records.csv"
        assert traced_peak(write_records_csv, records, path) < 1 << 20
        lines = path.read_text().splitlines()
        assert len(lines) == rows + 1
        assert lines[4] == "3,1000000,,,,,,,,1"


class TestBoundsCsvAndSummary:
    def test_bounds_csv_layout(self, tmp_path, test_model):
        rows = bound_table(test_model, [100], [0.1, 0.2], replications=500, master_seed=5)
        path = tmp_path / "bounds.csv"
        write_bounds_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == BOUNDS_HEADER
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "conditional_cell_p"
        assert first[4] in ("0", "1")

    def test_summary_json_shape(self, tmp_path, test_model):
        config = ExperimentConfig(
            model=test_model, n_values=(300, 600), replications=15,
            master_seed=3, checks=("lln",),
        )
        result = run_experiment(config)
        path = tmp_path / "summary.json"
        write_summary_json(result.summary, path)
        data = json.loads(path.read_text())
        assert data["true_divergence"] == pytest.approx(math.log(3.0) / 4.0)
        assert data["sigma2_exact"] == pytest.approx(4.420014023426001)
        assert [s["n"] for s in data["per_n"]] == [300, 600]
        assert data["checks"][0]["name"] == "lln"
        assert isinstance(data["all_checks_passed"], bool)
        stats = data["per_n"][0]
        assert set(stats) == {
            "n", "replications", "degenerate_count", "degenerate_empty_label",
            "degenerate_empty_cell", "eta_mean", "eta_median",
            "eta_variance", "scaled_eta_mean", "scaled_eta_median",
            "scaled_eta_variance", "median_abs_eta", "ks_normalized", "coverage",
        }
