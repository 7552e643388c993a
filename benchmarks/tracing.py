"""Spans around the library's public entry points, recorded from outside it.

Library modules bind each other's functions by name (``from .x import f``),
so a function is wrapped at every attribute of every ``stringology`` module
that holds it: the op functions in the ``stringology.cli`` namespace,
``stringology.wildcard.suffix_tree``, ``stringology.subcount.suffix_tree``,
``stringology.subseq.lcs`` and so on.  The untraced run installs nothing.

A span is ``[name, start, end, parent, op, count]``.  ``op`` is the
benchmark operation the span belongs to; ``count`` is an exact work count
read from the result (suffix-tree nodes, index nodes, LCS cells).  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
durations of its children; spans of one thread nest, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from stringology import cli

PARSERS = ("parse_word", "parse_runs", "parse_poly")

COUNTERS = {
    "suffixtree.suffix_tree": lambda res, args: len(res.parent),
    "wildcard.wildcard_index": lambda res, args: res.node_count(),
    "subseq.lcs": lambda res, args: len(args[0]) * len(args[1]),
}


def traced_functions() -> dict[str, object]:
    """Span name -> function, for every op a CLI command names plus the CLI
    parsers.  The span name is ``<defining module>.<function>``."""
    names = sorted({op for cmd in cli.REGISTRY for op in cmd.ops}) + list(PARSERS)
    out = {}
    for name in names:
        fn = getattr(cli, name, None)
        if inspect.isfunction(fn):  # "selftest" names a module, not a function
            out[f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"] = fn
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs=None, counter=None):
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter()
            stack.pop()
        if counter is not None:
            span[5] = counter(result, args)
        return result

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, functions: dict[str, object]):
        """Rebind every ``stringology`` module attribute that holds one of the
        functions to its wrapper; restore them on exit."""
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for name, fn in functions.items()}
        undo = []
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "stringology":
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)


# ------------------------------------------------------------ layer metrics

PER_LAYER = {
    # name: unit
    "cli.parse_s": "s", "cli.compute_s": "s", "cli.overhead_s": "s",
    "cli.lines": "count", "cli.failed": "count",
    "suffixtree.build_s": "s", "suffixtree.calls": "count", "suffixtree.nodes": "count",
    "wildcard.build_self_s": "s", "wildcard.nodes": "count", "wildcard.structured_gap": "ratio",
    "wildcard.search_s": "s", "wildcard.searches": "count",
    "subcount.self_s": "s",
    "regularities.is_attractor_s": "s", "regularities.calls": "count",
    "subseq.lcs_s": "s", "subseq.lps_self_s": "s", "subseq.lcs_cells": "count",
    "trace.overhead": "ratio",
}


def _contributions(name, dur, self_time, count, parent_name):
    """(metric, value) pairs one span adds to the layer metrics.
    ``wildcard.build_s`` is internal: it feeds ``structured_gaps``."""
    out = []
    if name == "cli.line":
        out += [("cli.lines", 1), ("cli.overhead_s", self_time)]
    elif parent_name == "cli.line":
        out.append(("cli.parse_s" if name.startswith("cli.parse_") else "cli.compute_s", dur))
    if name == "suffixtree.suffix_tree":
        out += [("suffixtree.build_s", dur), ("suffixtree.calls", 1), ("suffixtree.nodes", count)]
    elif name == "wildcard.wildcard_index":
        out += [("wildcard.build_self_s", self_time), ("wildcard.nodes", count),
                ("wildcard.build_s", dur)]
    elif name == "wildcard.wildcard_search":
        out += [("wildcard.search_s", dur), ("wildcard.searches", 1)]
    elif name == "subcount.sub_table":
        out.append(("subcount.self_s", self_time))
    elif name == "regularities.is_attractor":
        out += [("regularities.is_attractor_s", dur), ("regularities.calls", 1)]
    elif name == "subseq.lcs":
        out += [("subseq.lcs_s", dur), ("subseq.lcs_cells", count)]
    elif name == "subseq.longest_palindromic_subsequence":
        out.append(("subseq.lps_self_s", self_time))
    return out


def per_pass_totals(spans, op_index) -> dict:
    """{pass: {(metric, family, size): value}} from the spans.

    ``op_index`` maps a span's op number to (pass, family, size)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, count in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op, count) in enumerate(spans):
        dur = end - start
        pass_no, family, size = op_index[op]
        parent_name = spans[parent][0] if parent >= 0 else None
        for metric, value in _contributions(name, dur, dur - child[i], count, parent_name):
            totals[pass_no][(metric, family, size)] += value
    return totals


def structured_gaps(totals, structured, baseline) -> dict[int, float]:
    """Per size: the largest median build-time ratio of a structured family to
    the random baseline family, both built by ``wildcard_index``."""
    per: dict = defaultdict(list)
    for cells in totals.values():
        for (metric, family, size), value in cells.items():
            if metric == "wildcard.build_s":
                per[(family, size)].append(value)
    gaps = {}
    for (family, size), values in per.items():
        if family in structured and (baseline, size) in per:
            ratio = statistics.median(values) / statistics.median(per[(baseline, size)])
            gaps[size] = max(gaps.get(size, 0.0), ratio)
    return gaps
