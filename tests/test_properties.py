"""Property tests at the input boundary: any input gives a result or the
documented error type, never another exception.

Examples are derandomized and bounded so that the suite is reproducible
and stays within a few seconds.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkl import (
    CHECK_NAMES,
    CountsFormatError,
    CountTable,
    ExperimentConfig,
    parse_config_dict,
    read_counts_csv,
)
from symkl.model import sample_counts

BOUNDED = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# numbers at and beyond the limits the parsers must reject cleanly
EDGE_INTS = st.sampled_from([0, -1, 1, 2, (1 << 32) + 1, 1 << 63, (1 << 63) - 1, 1 << 64,
                             10 ** 400])

COUNT_TOKENS = st.one_of(
    st.integers(min_value=-5, max_value=10 ** 6).map(str),
    EDGE_INTS.map(str),
    st.sampled_from(["", " ", "x", "+3", "-0", "1.5", "1e3", "٣", "²", "sym"]),
)


@st.composite
def counts_like_text(draw):
    """Text shaped like a counts CSV: optional comments, header and blank
    lines around rows of count-like tokens."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank", "header"]))
        if kind == "comment":
            lines.append("# " + draw(st.text(max_size=8)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "header":
            lines.append(",".join(draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=4))))
        else:
            lines.append(",".join(draw(st.lists(COUNT_TOKENS, max_size=5))))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


ANY_TEXT = st.one_of(
    counts_like_text(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=60),
)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "input"


def write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class TestCountsCsvProperties:
    @BOUNDED
    @given(text=ANY_TEXT)
    def test_any_text_gives_a_table_or_a_format_error(self, scratch_file, text):
        write_raw(scratch_file, text)
        try:
            table = read_counts_csv(scratch_file)
        except CountsFormatError:
            return
        assert isinstance(table, CountTable)

    @BOUNDED
    @given(
        rows=st.integers(2, 8).flatmap(lambda r: st.tuples(
            st.lists(st.integers(0, 1 << 40), min_size=r, max_size=r),
            st.lists(st.integers(0, 1 << 40), min_size=r, max_size=r),
        )),
        header=st.booleans(),
    )
    def test_written_table_reads_back_equal(self, scratch_file, rows, header):
        n1, n0 = rows
        if sum(n1) + sum(n0) == 0:
            n1[0] = 1
        table = CountTable(n1=np.array(n1), n0=np.array(n0))
        lines = [",".join(map(str, table.n1.tolist())), ",".join(map(str, table.n0.tolist()))]
        if header:
            lines.insert(0, ",".join(f"s{j}" for j in range(table.r)))
        write_raw(scratch_file, "\n".join(lines) + "\n")
        assert read_counts_csv(scratch_file) == table


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), EDGE_INTS, st.floats(), st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def maybe(plausible):
    """Mostly a plausible value, else an edge number or any JSON value."""
    return st.integers(0, 9).flatmap(
        lambda k: plausible if k < 7 else EDGE_INTS if k == 7 else JSON_VALUES
    )


# plausible laws, or finite entries up to the float range, whose sum may overflow;
# nonnegative, since a negative entry is rejected before the sum
LAWS = st.one_of(
    st.sampled_from([[0.5, 0.5], [0.25, 0.75], [0.2, 0.3, 0.5], [0.4, 0.4]]),
    st.lists(st.floats(min_value=0.0, max_value=1.7e308), min_size=2, max_size=4),
)
MODELS = st.fixed_dictionaries({
    "label_prob": maybe(st.floats(min_value=0.05, max_value=0.95)),
    "cond_p": maybe(LAWS),
    "cond_q": maybe(LAWS),
})
SIZES = st.one_of(st.integers(min_value=1, max_value=1 << 64), EDGE_INTS)
CONFIGS = st.fixed_dictionaries(
    {
        "model": maybe(MODELS),
        "n_values": maybe(st.lists(SIZES, min_size=1, max_size=3, unique=True).map(sorted)),
        "replications": maybe(st.integers(min_value=1, max_value=100)),
        "master_seed": maybe(st.integers(min_value=0, max_value=1 << 64)),
    },
    optional={
        "ci_level": maybe(st.floats(min_value=0.5, max_value=0.99)),
        "checks": maybe(st.lists(st.sampled_from(CHECK_NAMES + ("null",)), max_size=4)),
    },
)


class TestConfigProperties:
    @BOUNDED
    @given(data=maybe(CONFIGS))
    def test_any_json_gives_a_runnable_config_or_a_value_error(self, data):
        # the value must survive a JSON round trip, as load_config sees it
        data = json.loads(json.dumps(data))
        try:
            config = parse_config_dict(data)
        except ValueError:
            return
        assert isinstance(config, ExperimentConfig)
        # an accepted config can draw a table at each of its sample sizes
        for n in config.n_values:
            sample_counts(config.model, n, 1, np.random.default_rng(0))
