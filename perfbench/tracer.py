"""Outside-in span tracer for the symkl CLI.

The tracer replaces module-level names of ``symkl`` with wrappers that
record one span per call: a name, start and end (``perf_counter_ns``),
the id of the enclosing span and the run id.  Spans stay in memory and
are written out once the run ends.  Nothing under ``src/`` is edited:
the wrappers go into the namespaces that the calling modules
(``symkl.cli``, ``symkl.montecarlo``, ``symkl.model``) look names up in.

Run as a script, this file is one fresh interpreter that imports
``symkl.cli`` and runs its ``main`` in-process, traced or not::

    python3 perfbench/tracer.py --trace 1 --spans SPANS.jsonl -- \
        simulate --config CONFIG.json --out-dir OUT --workers 1

It prints one JSON line with the exit code and timings; ``src`` must be
on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import uuid

ROOT = -1  # parent id of a span with no enclosing span

# (namespace module, attribute, span name).  Wrapping the name where the
# caller looks it up catches exactly the calls that module makes.
WRAPPED = (
    ("symkl.cli", "load_config", "io.load_config"),
    ("symkl.cli", "run_experiment", "montecarlo.run_experiment"),
    ("symkl.cli", "bound_table", "bounds.bound_table"),
    ("symkl.cli", "write_records_csv", "io.write_records_csv"),
    ("symkl.cli", "write_bounds_csv", "io.write_bounds_csv"),
    ("symkl.cli", "write_summary_json", "io.write_summary_json"),
    ("symkl.cli", "write_manifest", "io.write_manifest"),
    ("symkl.cli", "write_json", "io.write_json"),
    ("symkl.montecarlo", "replication_stream", "streams.replication_stream"),
    ("symkl.montecarlo", "sample_batch", "model.sample_batch"),
    ("symkl.montecarlo", "plug_in_estimate", "estimator.plug_in_estimate"),
    ("symkl.montecarlo", "plugin_sigma2", "asymptotics.plugin_sigma2"),
    ("symkl.montecarlo", "confidence_interval", "asymptotics.confidence_interval"),
    ("symkl.montecarlo", "exact_sigma2", "asymptotics.exact_sigma2"),
    ("symkl.montecarlo", "bound_table", "bounds.bound_table"),
    # every simplex check of the package goes through as_prob_vector
    ("symkl.model", "as_prob_vector", "model.validate"),
)

# Spans whose ru_maxrss growth is recorded as well.
RSS_TRACKED = {"bounds.bound_table"}


def max_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans ``[id, parent, name, start_ns, end_ns]`` in memory."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.rss_delta_mb: dict[str, float] = {}
        self._stack = [ROOT]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, clock(), 0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    def track_rss(self, name: str, fn):
        """Return ``fn`` wrapped to add its ru_maxrss growth to ``rss_delta_mb``."""

        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            before = max_rss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                grown = max_rss_mb() - before
                self.rss_delta_mb[name] = self.rss_delta_mb.get(name, 0.0) + grown

        return tracked

    def patch(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by its traced version until ``restore``."""
        original = getattr(module, attr)
        fn = self.track_rss(name, original) if name in RSS_TRACKED else original
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON array per line: run_id, id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([self.run_id, *span]) + "\n")


def read_spans(path) -> list[list]:
    """Spans written by :meth:`Tracer.write`, without the run id."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)[1:] for line in fh]


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times_ns(spans) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered_ns(start, end, children.get(sid, []))
        for sid, _parent, _name, start, end in spans
    ]


def aggregate(spans) -> dict[str, dict[str, int]]:
    """Per span name: ``calls``, inclusive ``total_ns`` and ``self_ns``."""
    out: dict[str, dict[str, int]] = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        _sid, _parent, name, start, end = span
        agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += self_ns
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for symkl, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import symkl.cli  # the import is what is timed
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        tracer = Tracer()
        for module_name, attr, name in WRAPPED:
            tracer.patch(sys.modules[module_name], attr, name)
    start = time.perf_counter()
    try:
        code = symkl.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "rss_delta_mb": tracer.rss_delta_mb if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
