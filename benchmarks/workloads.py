"""The three workloads as fixed lists of operations built from a seed.

A workload is a list of ``Op``.  One pass runs every op once, in order, in
one process (a closed loop with a single caller).  Each op is timed on its
own; its check runs between ops, outside every timed interval.  The library
is reached through module attributes at call time (``wildcard.wildcard_index``
and so on), so a traced run sees the wrappers installed on those modules.

Expected answers are computed while the list is built, before any timing and
before tracing is switched on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from stringology import cli, oracles, regularities, subcount, subseq, suffixtree, wildcard
from stringology.words import HOLE, fibonacci_word, thue_morse

import clilines


@dataclass
class Op:
    kind: str                       # build | query | line | kernel
    name: str                       # library entry point, or "cli"
    family: str                     # fixture family
    size: int | None                # fixture length, None for command lines
    call: Callable[[dict], object]  # gets the pass-local state dict
    check: Callable[[object], bool]
    root: str | None = None         # span the tracer opens around the call


@dataclass(frozen=True)
class Scale:
    """Fixture sizes.  ``FULL`` is the benchmark; ``TOY`` serves the self-check."""
    index_sizes: tuple[int, ...]
    queries_per_index: int
    cli_lines: int
    lcs_sizes: tuple[int, ...]
    lps_sizes: tuple[int, ...]
    tm_orders: tuple[int, ...]
    fib_orders: tuple[int, ...]


FULL = Scale(index_sizes=(512, 1024), queries_per_index=48, cli_lines=1000,
             lcs_sizes=(500, 1000), lps_sizes=(1000,), tm_orders=(9, 10), fib_orders=(13, 14))
TOY = Scale(index_sizes=(64, 128), queries_per_index=12, cli_lines=len(clilines.WELL_FORMED) + 40,
            lcs_sizes=(40, 80), lps_sizes=(60,), tm_orders=(5, 6), fib_orders=(6, 7))

FAMILIES = ("thue-morse", "fibonacci", "random-binary", "random-4", "unary")
STRUCTURED = ("thue-morse", "fibonacci")


def family_word(family: str, n: int, rng: random.Random) -> list[int]:
    if family == "thue-morse":
        return thue_morse(max(n - 1, 1).bit_length())[:n]
    if family == "fibonacci":
        k = 1
        while len(fibonacci_word(k)) < n:
            k += 1
        return fibonacci_word(k)[:n]
    if family == "random-binary":
        return [rng.randrange(2) for _ in range(n)]
    if family == "random-4":
        return [rng.randrange(4) for _ in range(n)]
    if family == "unary":
        return [0] * n
    raise ValueError(family)


# ------------------------------------------------------------ independent checks


def lcs_length(u, v) -> int:
    """LCS length by the bit-vector recurrence of Hyyro (2004).

    Bit j of ``s`` is 0 where the row's DP value steps up at column j."""
    masks: dict[int, int] = {}
    for j, c in enumerate(v):
        masks[c] = masks.get(c, 0) | (1 << j)
    full = (1 << len(v)) - 1
    s = full
    for c in u:
        m = masks.get(c, 0)
        s = ((s + (s & m)) | (s & ~m)) & full
    return len(v) - bin(s).count("1")


def lcs_ok(u, v, want: int) -> Callable[[object], bool]:
    def check(res) -> bool:
        a, b = res
        return (len(a) == len(b) == want
                and all(p < q for p, q in zip(a, a[1:])) and all(p < q for p, q in zip(b, b[1:]))
                and all(u[i] == v[j] for i, j in zip(a, b)))
    return check


def lps_ok(x, want: int) -> Callable[[object], bool]:
    return lambda p: len(p) == want and list(p) == list(p)[::-1] and clilines.is_subseq(p, x)


def suffix_tree_ok(text) -> Callable[[object], bool]:
    """Structural check: one leaf per suffix at the right depth, and every
    internal node branches."""
    n = len(text) + 1

    def check(t) -> bool:
        labels = []
        for v in range(1, len(t.parent)):
            if t.is_leaf(v):
                if t.depth[v] != n - t.suffix_label[v]:
                    return False
                labels.append(t.suffix_label[v])
            elif len(t.children[v]) < 2:
                return False
        return t.n == n and sorted(labels) == list(range(n))
    return check


def index_size_ok(n: int) -> Callable[[object], bool]:
    # the selftest's index-size gate
    return lambda idx: idx.node_count() <= 4 * n * math.log2(max(n, 2))


def equals(want) -> Callable[[object], bool]:
    return lambda got: got == want


# ------------------------------------------------------------ workloads


def _queries(text, alphabet: int, count: int, rng: random.Random) -> list[list[int]]:
    """Half one-hole, half exact; mostly text factors, some random words."""
    out = []
    for i in range(count):
        m = rng.randint(4, 12)
        if rng.random() < 0.7:
            start = rng.randrange(len(text) - m + 1)
            p = list(text[start:start + m])
        else:
            p = [rng.randrange(alphabet) for _ in range(m)]
        if i % 2 == 0:
            p[rng.randrange(m)] = HOLE
        out.append(p)
    return out


def _build(module, fn_name: str, text, keep: bool = False):
    def call(state):
        result = getattr(module, fn_name)(text)
        if keep:
            state["index"] = result
        return result
    return call


def index_families(seed: int, scale: Scale) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in scale.index_sizes:
        for family in FAMILIES:
            text = family_word(family, n, rng)
            dif = subcount.dif_table_minleaf(suffixtree.suffix_tree(text))
            sub = list(itertools.accumulate(dif))
            ops += [
                Op("build", "suffix_tree", family, n,
                   _build(suffixtree, "suffix_tree", text), suffix_tree_ok(text)),
                Op("build", "wildcard_index", family, n,
                   _build(wildcard, "wildcard_index", text, keep=True), index_size_ok(n)),
                Op("build", "sub_table", family, n,
                   _build(subcount, "sub_table", text), equals((sub, dif))),
            ]
            for p in _queries(text, max(text) + 1, scale.queries_per_index, rng):
                def query(state, p=p):
                    return wildcard.wildcard_search(state["index"], p)
                ops.append(Op("query", "wildcard_search", family, n, query,
                              equals(oracles.approx_occurs(p, text))))
    return ops


def cli_batch(seed: int, scale: Scale) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for argv, check, well_formed in clilines.make_lines(rng, scale.cli_lines):
        def call(state, argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue()
        ops.append(Op("line", "cli", " ".join(argv[:2]), None, call,
                      _line_check(check, well_formed), root="cli.line"))
    return ops


def _line_check(check, well_formed: bool) -> Callable[[object], bool]:
    def run(res) -> bool:
        rc, text = res
        lines = text.splitlines()
        if len(lines) != 1:
            return False
        try:
            rec = json.loads(lines[0])
        except ValueError:
            return False
        if not isinstance(rec, dict) or set(rec) != {"ok", "value", "meta"}:
            return False
        if not well_formed:
            return rec["ok"] is False and rc == 2
        return rec["ok"] is (rc == 0) and check(rc, rec["value"])
    return run


def kernels(seed: int, scale: Scale) -> list[Op]:
    rng = random.Random(seed)
    ops = []

    def kernel(module, name, family, size, args, check):
        ops.append(Op("kernel", name, family, size,
                      lambda state: getattr(module, name)(*args), check))

    for n in scale.lcs_sizes:
        u = family_word("random-4", n, rng)
        v = family_word("random-4", n, rng)
        kernel(subseq, "lcs", "random-4", n, (u, v), lcs_ok(u, v, lcs_length(u, v)))
    n = scale.lcs_sizes[-1]
    u, v = family_word("thue-morse", n, rng), family_word("fibonacci", n, rng)
    kernel(subseq, "lcs", "thue-morse/fibonacci", n, (u, v), lcs_ok(u, v, lcs_length(u, v)))
    for n in scale.lps_sizes:
        for family in ("random-4", "fibonacci"):
            x = family_word(family, n, rng)
            kernel(subseq, "longest_palindromic_subsequence", family, n, (x,),
                   lps_ok(x, lcs_length(x, x[::-1])))
    cases = [("thue_morse", "thue-morse", k, thue_morse(k)) for k in scale.tm_orders]
    cases += [("fibonacci", "fibonacci", k, fibonacci_word(k)) for k in scale.fib_orders]
    for construct, family, k, w in cases:
        positions = sorted(regularities.attractor_construct(construct, k))
        kernel(regularities, "is_attractor", family, len(w), (w, positions), equals(True))
        # a smallest attractor minus one position is not an attractor: Thue-Morse
        # prefixes need 4 positions and a binary word needs 2.  The dropped
        # position is fixed, since the time to a "no" depends on it.
        near = list(positions)
        near.pop(len(near) // 2)
        kernel(regularities, "is_attractor", f"{family} near-miss", len(w), (w, near), equals(False))
    return ops


WORKLOADS = {"index-families": index_families, "cli-batch": cli_batch, "kernels": kernels}

# the op kind whose latency is the workload's per-operation latency
UNIT_KIND = {"index-families": "query", "cli-batch": "line", "kernels": "kernel"}
