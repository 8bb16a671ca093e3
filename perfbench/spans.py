"""Span recorder that wraps chromsym's public functions from outside.

The program is not edited: install() replaces names in the chromsym
module namespaces with timing wrappers, so every call that crosses a
module boundary is recorded.  A span has a name, a parent span, a start,
an end, the seconds it was busy, the seconds its child spans covered,
and a call count.  Self time is busy minus child.

Three wrapper kinds keep the record small enough for 2**19 calls per
request:

- span: one record per call, for coarse calls (formula, oracle, p_to_e).
- leaf: calls made under the same parent span fold into one record, for
  per-composition functions called millions of times.
- gen: one record per generator; each next() re-enters it, so time
  spent by the consumer between items is not counted as the generator's.

Spans are kept in memory and written out once, by dump().
"""

from __future__ import annotations

import functools
import json
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "child", "calls")

    def __init__(self, sid: int, name: str, parent: int | None, start: float):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.calls = 0

    def row(self) -> list:
        return [self.id, self.name, self.parent, self.start, self.end,
                self.busy, self.child, self.calls]


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.records: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, int] = {}
        self.seen_partitions: set = set()

    def _new(self, name: str, start: float) -> Span:
        parent = self.stack[-1].id if self.stack else None
        rec = Span(len(self.records), name, parent, start)
        self.records.append(rec)
        return rec

    def _finish(self, rec: Span, start: float, end: float) -> None:
        dt = end - start
        rec.end = end
        rec.busy += dt
        if self.stack:
            self.stack[-1].child += dt

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, after=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = _clock()
            rec = self._new(name, start)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                rec.calls += 1
                self._finish(rec, start, end)
            if after is not None:
                after(self, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def leaf(self, name: str, fn):
        stack = self.stack
        merged: dict[int | None, Span] = {}

        def wrapper(*args):
            start = _clock()
            result = fn(*args)
            end = _clock()
            key = stack[-1].id if stack else None
            rec = merged.get(key)
            if rec is None:
                rec = merged[key] = self._new(name, start)
            rec.calls += 1
            self._finish(rec, start, end)
            return result

        return functools.wraps(fn)(wrapper)

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return functools.wraps(fn)(wrapper)

    def gen(self, name: str, fn):
        def wrapper(*args, **kwargs):
            rec = self._new(name, _clock())
            return self._drive(rec, fn(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    def _drive(self, rec: Span, it):
        stack = self.stack
        clock = _clock
        step = it.__next__
        try:
            while True:
                stack.append(rec)
                start = clock()
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    self._finish(rec, start, end)
                rec.calls += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [r.row() for r in self.records],
                       "counts": self.counts}, fh)


def _count_subsets(tracer: Tracer, args, result) -> None:
    tracer.add("engine.oracle_subsets", 1 << args[0].m)


def _count_conversion(tracer: Tracer, args, result) -> None:
    terms = args[0].terms
    repeats = sum(1 for lam in terms if lam in tracer.seen_partitions)
    tracer.seen_partitions.update(terms)
    tracer.add("symfunc.p_to_e_terms_in", len(terms))
    tracer.add("symfunc.p_to_e_terms_out", len(result.terms))
    tracer.add("symfunc.p_to_e_repeats", repeats)


# (kind, span name, names it replaces as "module.attr", hook run after
# each call).  Module "chromsym" is the package itself.
WRAPPED = (
    ("gen", "compositions.compositions", ("engine.compositions",), None),
    ("leaf", "compositions.composition_weight", ("engine.composition_weight",), None),
    ("leaf", "compositions.chord_weight", ("engine.chord_weight",), None),
    ("leaf", "compositions.surplus", ("engine.surplus",), None),
    ("counter", "compositions.partition_of", ("engine.partition_of",), None),
    ("span", "engine.closed_formula", ("engine.closed_formula", "cli.closed_formula"), None),
    ("span", "engine.csf_path", ("engine.csf_path",), None),
    ("span", "engine.csf_cycle", ("engine.csf_cycle",), None),
    ("span", "engine.csf_tadpole", ("engine.csf_tadpole",), None),
    ("span", "engine.csf_cycle_chord", ("engine.csf_cycle_chord",), None),
    ("span", "engine.csf_oracle", ("engine.csf_oracle", "cli.csf_oracle"), _count_subsets),
    ("span", "engine.verify", ("cli.verify",), None),
    ("gen", "engine.scan_theta", ("cli.scan_theta",), None),
    ("span", "symfunc.p_to_e", ("engine.p_to_e", "chromsym.p_to_e"), _count_conversion),
    ("span", "symfunc.is_e_positive", ("engine.is_e_positive",), None),
    ("span", "symfunc.render_text", ("cli.render_text",), None),
    ("span", "symfunc.render_latex", ("cli.render_latex",), None),
    ("span", "symfunc.to_json_dict", ("cli.to_json_dict",), None),
    ("span", "graphs.count_proper_colorings", ("engine.count_proper_colorings",), None),
    ("span", "graphs.build_graph", ("engine.build_graph", "cli.build_graph"), None),
    ("span", "graphs.theta_graph", ("engine.theta_graph",), None),
    ("span", "cli.main", ("cli.main",), None),
)


def install(tracer: Tracer) -> None:
    """Replace every name in WRAPPED with a wrapper recording into tracer.

    Each original function gets one wrapper, shared by all the
    namespaces that imported it.
    """
    import chromsym
    import chromsym.cli
    import chromsym.engine

    modules = {"chromsym": chromsym, "cli": chromsym.cli, "engine": chromsym.engine}
    for kind, name, targets, after in WRAPPED:
        first_mod, first_attr = targets[0].split(".")
        fn = getattr(modules[first_mod], first_attr)
        if kind == "span":
            wrapper = tracer.span(name, fn, after)
        else:
            wrapper = getattr(tracer, kind)(name, fn)
        for target in targets:
            mod, attr = target.split(".")
            if getattr(modules[mod], attr) is not fn:
                raise RuntimeError(f"{target} is not the function {targets[0]} names")
            setattr(modules[mod], attr, wrapper)
