"""Spans around the package's public functions, recorded from outside.

``Tracer.installed`` rebinds the module attributes that callers look up
(``search.class_key`` is what ``enumerate_classes`` calls, ``db.distance``
what ``record_from_group`` calls, and so on) to wrappers that record one
span per call: name, start, end, parent span, op id and a work count taken
from the call's result.  Spans stay in memory until the run ends.
"""

import json
from contextlib import contextmanager
from time import perf_counter

from stabdb import db, properties, search, verify


def _bytes_written(paths) -> int:
    return sum(path.stat().st_size for path in paths)


# (owner, attribute the callers look up, span name, work count of the result)
TARGETS = (
    (search, "enumerate_classes", "search.enumerate_classes", lambda out: sum(map(len, out.values()))),
    (search, "extend_class", "search.extend_class", len),
    (search, "class_key", "canon.class_key", None),
    (db, "record_from_group", "db.record_from_group", None),
    (db, "canonical_form", "canon.canonical_form", lambda out: len(out[1].generators)),
    (db, "distance", "properties.distance", None),
    (properties, "distance", "properties.distance", None),  # is_degenerate's call
    (db, "weight_enumerator", "properties.weight_enumerator", None),
    (db, "css_rank_test", "properties.css_rank_test", None),
    (db, "css_representative", "properties.css_representative", None),
    (db, "gf4_representative", "properties.gf4_representative", None),
    (db, "decompose", "properties.decompose", None),
    (db, "is_even", "properties.is_even", None),
    (db, "is_degenerate", "properties.is_degenerate", None),
    (db, "read_db", "db.read_db", len),
    (db.Database, "records", "db.Database.records", len),
    (db, "query", "db.query", len),
    (db, "emit_distributions", "db.emit_distributions", None),
    (db, "write_db", "db.write_db", _bytes_written),
    (verify, "mass_check", "verify.mass_check", None),
)

OP_SPAN = "perfbench.op"

# span fields
NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    """Records spans; ``op`` tags every span with the op being run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if work is not None:
                span[WORK] = work(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, work in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), work))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> dict:
        """{name: {"calls", "s", "self_s", "work"}} over all spans.

        Self time is a span's duration minus that of its direct children;
        calls are nested, never overlapping, so the children's durations
        add up to the time they cover.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out = {}
        for i, span in enumerate(spans):
            t = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            duration = span[END] - span[START]
            t["calls"] += 1
            t["s"] += duration
            t["self_s"] += duration - child_s[i]
            t["work"] += span[WORK]
        return out

    def counts_by_pass(self) -> dict:
        """{pass: {name: (calls, work)}}, ops being tagged (pass, index)."""
        out = {}
        for name, _, _, _, op, work in self.spans:
            counts = out.setdefault(op[0], {})
            calls, total = counts.get(name, (0, 0))
            counts[name] = (calls + 1, total + work)
        return out

    def work_under(self, name, parent_name) -> int:
        """Summed work of ``name`` spans whose parent is a ``parent_name`` span."""
        spans = self.spans
        return sum(
            span[WORK]
            for span in spans
            if span[NAME] == name and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == parent_name
        )

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "work": work},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, as {name: (value, unit)}."""
    t = tracer.totals()

    def get(name, field):
        return t.get(name, {}).get(field, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    key_calls = get("canon.class_key", "calls")
    found = get("search.enumerate_classes", "work")
    hits = get("db.query", "work")
    examined = tracer.work_under("db.Database.records", "db.query") / passes
    m = {
        "canon.class_key.calls": (key_calls, "count"),
        "canon.class_key.s": (get("canon.class_key", "s"), "s"),
        "canon.class_key.ms_per_call": (1000 * ratio(get("canon.class_key", "s"), key_calls), "ms"),
        "search.new_class_ratio": (ratio(found, key_calls), "ratio"),
        "search.extend_class.calls": (get("search.extend_class", "calls"), "count"),
        "search.extend_class.candidates": (get("search.extend_class", "work"), "count"),
        "search.extend_class.s": (get("search.extend_class", "s"), "s"),
        "search.classes_found": (found, "count"),
        "search.enumerate_classes.self_s": (get("search.enumerate_classes", "self_s"), "s"),
        "canon.canonical_form.calls": (get("canon.canonical_form", "calls"), "count"),
        "canon.canonical_form.s": (get("canon.canonical_form", "s"), "s"),
        "canon.aut_generators": (get("canon.canonical_form", "work"), "count"),
    }
    for metric, spans in (
        ("distance", ["distance"]),
        ("weight_enumerator", ["weight_enumerator"]),
        ("css", ["css_rank_test", "css_representative"]),
        ("gf4", ["gf4_representative"]),
        ("decompose", ["decompose"]),
        ("is_even", ["is_even"]),
        ("is_degenerate", ["is_degenerate"]),
    ):
        m[f"properties.{metric}.s"] = (sum(get(f"properties.{s}", "s") for s in spans), "s")
    m.update({
        "properties.css_sweep.calls": (get("properties.css_representative", "calls"), "count"),
        "db.record_from_group.self_s": (get("db.record_from_group", "self_s"), "s"),
        "db.read_db.calls": (get("db.read_db", "calls"), "count"),
        "db.read_db.s": (get("db.read_db", "s"), "s"),
        "db.read_db.records": (get("db.read_db", "work"), "count"),
        "db.query.calls": (get("db.query", "calls"), "count"),
        "db.query.s": (get("db.query", "s"), "s"),
        "db.query.examined_per_hit": (ratio(examined, hits), "ratio"),
        "db.emit_distributions.s": (get("db.emit_distributions", "s"), "s"),
        "db.write_db.s": (get("db.write_db", "s"), "s"),
        "db.write_db.bytes": (get("db.write_db", "work"), "bytes"),
        "verify.mass_check.calls": (get("verify.mass_check", "calls"), "count"),
        "verify.mass_check.s": (get("verify.mass_check", "s"), "s"),
    })
    return m
