"""Line-oriented command front end.

Usage: stringology <area> <verb> [args] [options] [--plain]

A command takes only the options its REGISTRY row declares (--help lists
them); `--plain` is the one global flag and `--` ends the options.

Words are accepted as letter strings (a-z), digit strings, or comma-separated
integers.  Every argument is ASCII only.  "?" stands for the don't-care
symbol; only the word of `period local` and the pattern of `wildcard search`
accept it.  A negative symbol is an error, there too, except in the integer
sequences of the `cartesian` verbs.  Output is one JSON object per line ({ok, value, meta})
unless --plain is given.  Exit status: 0 ok, 1 for domain-level "no"
answers, 2 for errors.  Every error, a usage error included, is still exactly
one {ok: false} line, and batch mode goes on with the next line.  So is an
answer too large to print: Python converts an int of at most 4300 digits to a
string (sys.get_int_max_str_digits), the CLI leaves that limit alone, and the
error line states it.
"""

from __future__ import annotations

import sys
from importlib import import_module

from .words import HOLE

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import Sequence

    from .gf2 import Gf2Poly

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class UsageError(ValueError):
    pass


# Byte of an ASCII digit or letter literal -> its symbol; "?" -> _HOLE_BYTE,
# which no digit or letter reaches.
_HOLE_BYTE = 0xFF
_SYMBOLS = bytes.maketrans(b"0123456789" + LETTERS.encode() + b"?",
                           bytes(range(10)) + bytes(range(26)) + bytes([_HOLE_BYTE]))


def parse_word(text: str) -> tuple[list[int], str]:
    """The word and the form it was written in: "csv", "digits" or "letters".
    A literal is ASCII only."""
    if not text:
        raise UsageError("empty word literal")
    if not text.isascii():
        raise UsageError(f"cannot parse word {text!r}")
    if "," in text:
        out = []
        for part in text.split(","):
            part = part.strip()
            if part == "?":
                out.append(HOLE)
            else:
                try:
                    out.append(int(part))
                except ValueError:
                    raise UsageError(f"bad integer {part!r}") from None
        return out, "csv"
    plain = text.replace("?", "")
    if not plain or plain.isdigit():  # on ASCII, isdigit is 0-9 and isalpha a-z, A-Z
        form = "digits"
    elif plain.isalpha() and plain.islower():
        form = "letters"
    else:
        raise UsageError(f"cannot parse word {text!r}")
    word = list(text.encode().translate(_SYMBOLS))
    if len(plain) < len(text):  # "?" is the hole
        word = [HOLE if s == _HOLE_BYTE else s for s in word]
    return word, form


def _symbol_chars(chars: bytes, hole: bytes) -> bytes:
    """Symbol byte -> its character in a form, ``hole`` at 0xFF and "," for
    every other symbol the form cannot show."""
    return (chars + b"," * 256)[:255] + hole


# form -> the characters of bytes(w) and of w as signed bytes, in which HOLE
# (-1) is 0xFF
_FORM_CHARS = {form: (_symbol_chars(chars, b","), _symbol_chars(chars, b"?"))
               for form, chars in (("letters", LETTERS.encode()), ("digits", b"0123456789"))}


def format_word(w: Sequence[int], form: str) -> str:
    """w in the given form, or csv when a symbol does not fit it."""
    chars = _FORM_CHARS.get(form)
    if chars is not None:
        try:
            text = bytes(w).translate(chars[0])
        except ValueError:  # HOLE or a symbol past 255; as a signed byte HOLE is 0xFF
            from array import array  # here, off the cold start: its import takes ~0.4 ms

            try:
                text = array("b", w).tobytes().translate(chars[1])
            except OverflowError:  # a symbol past 127: no letter or digit
                text = b","
        if b"," not in text:
            return text.decode()
    return ",".join("?" if s == HOLE else str(s) for s in w)


def parse_runs(text: str) -> list[tuple[int, int]]:
    """Run form '1:3,0:4,1:2' or a plain binary word."""
    import stringology.rle as rle

    if ":" in text:
        runs = []
        for part in text.split(","):
            bit, exp = part.split(":")
            runs.append((int(bit), int(exp)))
        return runs
    word, _ = parse_word(text)
    return rle.rle_encode(word)


def parse_poly(text: str) -> Gf2Poly:
    """Exponent list '5,2,0' or 'x5+x2+1'."""
    import stringology.gf2 as gf2

    t = text.replace(" ", "").lower()
    if t.startswith("x") or "+" in t:
        exps = []
        for term in t.split("+"):
            if term == "1":
                exps.append(0)
            elif term == "x":
                exps.append(1)
            else:
                exps.append(int(term.lstrip("x").lstrip("^")))
    else:
        exps = [int(p) for p in t.split(",")]
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {text!r}")
    return gf2.Gf2Poly.from_exponents(exps)


def _bits(word: Sequence[int]) -> str:
    return "".join(str(b) for b in word)


class Command:
    """One row of the command table, built in one pass over ``spec`` and one
    over ``ops``.

    ``ops`` and ``spec`` are space-separated.  An op is ``module:function``,
    the library function the command calls; ``selftest`` alone names the
    module it runs.  In ``spec`` an argument is ``name`` or ``name:kind``
    (the kind defaults to ``word``), a valued option is ``--name:kind`` and a
    flag is ``--name``."""

    __slots__ = ("area", "verb", "ops", "modules", "nargs", "kinds", "options", "shape", "meta")

    def __init__(self, area: str, verb: str, ops: str, spec: str, shape, meta: str = ""):
        nargs, kinds, options = [], [], {}
        for item in spec.split():
            name, _, kind = item.partition(":")
            if name.startswith("--"):
                options[name] = kind or None
            else:
                nargs.append(name)
                kinds.append(kind or "word")
        modules, fns = [], []
        for op in ops.split():
            module, _, fn = op.rpartition(":")
            modules.append(module)
            fns.append(fn)
        self.area, self.verb = area, verb
        self.ops = tuple(fns)          # function names, as tracing reads them
        self.modules = tuple(modules)  # the module of each op, "" for none
        self.nargs = tuple(nargs)      # positional argument names
        self.kinds = tuple(kinds)      # how each argument is parsed: a key of KINDS
        self.options = options         # "--name" -> a key of KINDS, None for a flag
        # a SHAPES key, field names for a tuple result, or a handler
        # (args, form, **options) -> (ok, value, meta)
        self.shape = shape
        self.meta = meta  # meta key that reports len(result), if any


def _no_hole(text: str) -> str:
    if "?" in text:
        raise UsageError(f"'?' is not allowed in {text!r}")
    return text


def _no_negative(symbols, text: str) -> None:
    """Reject negative symbols: csv ``-1`` would otherwise read as HOLE."""
    if any(s < 0 for s in symbols):
        raise UsageError(f"negative symbol in {text!r}")


def _word(text: str) -> tuple[list[int], str]:
    word, form = parse_word(_no_hole(text))
    if form == "csv":  # only a csv literal can spell a negative number
        _no_negative(word, text)
    return word, form


def _hole_word(text: str) -> tuple[list[int], str]:
    """A word in which "?" is the hole; a negative literal, -1 included, is
    an error."""
    word, form = parse_word(text)
    if form == "csv":  # only a csv literal can spell a negative number
        _no_negative([s for s, part in zip(word, text.split(",")) if part.strip() != "?"], text)
    return word, form


def _runs(text: str) -> list[tuple[int, int]]:
    runs = parse_runs(_no_hole(text))
    _no_negative([bit for bit, _ in runs], text)
    return runs


def _taps(text: str):
    import stringology.gf2 as gf2

    return gf2.LfsrSpec(tuple(_word(text)[0]))


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise UsageError(f"must be >= 0, got {value}")
    return value


# Argument and option kind -> parser.  The parsers are looked up by name when
# a command runs, never captured here, so rebinding ``parse_word`` and
# friends in this module (as the benchmark tracer does) reaches every command.
# Only the two "hole-word" arguments accept "?", and only "int-word" (the
# integer sequences of the cartesian verbs) accepts negative symbols.  The
# kinds in WORD_KINDS return (word, form).
KINDS = {
    "word": _word,
    "hole-word": _hole_word,
    "int-word": lambda t: parse_word(_no_hole(t)),
    "runs": _runs,
    "lists": lambda t: [_word(p)[0] for p in t.split(",")],
    "taps": _taps,
    "poly": lambda t: parse_poly(t),
    "int": int,
    "count": _nonneg_int,
    "int-list": lambda t: [int(p) for p in t.split(",")],
    "float-list": lambda t: [float(p) for p in t.split(",")],
    "text": str,
}
WORD_KINDS = ("word", "hole-word", "int-word")
# the kinds read by int() or float(), whose ValueError is a malformed number
NUMBER_KINDS = ("int", "count", "int-list", "float-list", "runs", "poly")


def _parse(kind: str, text: str):
    """An argument or option text parsed by its kind.  Every kind is ASCII
    only: str.isdigit, int() and float() also read other scripts' digits,
    so an Arabic-Indic "٣" would be 3.  A number kind that fails to parse
    is the same error as a non-ASCII text, not Python's own message."""
    if not text.isascii():
        raise UsageError(f"cannot parse {'word' if kind in WORD_KINDS else kind} {text!r}")
    try:
        return KINDS[kind](text)
    except UsageError:
        raise
    except ValueError:
        if kind not in NUMBER_KINDS:
            raise
        raise UsageError(f"cannot parse {kind} {text!r}") from None


def _code(c, form):
    import stringology.codec as codec

    return True, {"rows": ["".join(map(str, row)) for row in codec.hamming_matrix(c)],
                  "n": c.n, "k": c.k}


# Result shape -> (result, form) -> (ok, value); ``form`` is the form of
# the command's first word argument.  A "yes" result passes through as ok.
SHAPES = {
    "yes": lambda r, form: (r, "yes" if r else "no"),
    "found": lambda r, form: (bool(r), r),
    "value": lambda r, form: (True, r),
    "list": lambda r, form: (True, list(r)),
    "sorted": lambda r, form: (True, sorted(r)),
    "word": lambda r, form: (True, format_word(r, form)),
    "letters": lambda r, form: (True, format_word(r, "letters")),
    "bits": lambda r, form: (True, _bits(r)),
    "csv": lambda r, form: (True, ",".join(map(str, r))),
    "runs": lambda r, form: (True, ",".join(f"{b}:{e}" for b, e in r)),
    # the shape of one library result type each
    "letter-pair": lambda r, form: (True, [format_word(w, "letters") for w in r]),
    "bit-pair": lambda r, form: (True, {"w": _bits(r[0]), "u": _bits(r[1])}),
    "tables": lambda t, form: (False, "no-border-embedding") if t is None else (True, {
        "L": list(t.first), "R": list(t.last), "LEFT": list(t.left),
        "RIGHT": list(t.right), "P": list(t.p)}),
    "code": _code,
    "partition": lambda p, form: (True, {
        "left": format_word(sorted(p.left), form), "right": format_word(sorted(p.right), form)}),
    "psi": lambda q, form: (True, {
        "prefix": format_word(q.prefix, form), "first_new": format_word([q.first_new], form),
        "last_new": format_word([q.last_new], form), "suffix": format_word(q.suffix, form)}),
    "suffix-tree": lambda t, form: (True, {
        "nodes": len(t.parent), "leaves": sum(k >= 0 for k in t.suffix_label),
        "internal_depths": sorted(
            d for d, k in zip(t.depth[1:], t.suffix_label[1:]) if k < 0)}),
    "index": lambda idx, form: (True, {"nodes": idx.node_count()}),
    "cartesian-tree": lambda t, form: (True, {"root": t.root, "left": t.left, "right": t.right}),
}


# ------------------------------------------------------------ handlers
# Commands that need a second library call, their own argument syntax (sat
# clauses), the parsed inputs besides the result, or an option the library
# function does not take.  The options a row declares arrive as keyword
# arguments, and only when given.  Handlers import the modules they call when
# they run, so a command loads only its own modules, and read each function
# off its module, so rebinding a module attribute reaches them.  On Python
# 3.11 ``import stringology.x as x`` takes about 0.3 us a call, and
# ``from .x import f`` about 2 us.

def _listing(key, count, build, form, list_max):
    """The count, and the sorted words when --list-max allows that many;
    ``build()`` makes them only then."""
    value = {"count": count}
    if list_max is not None and count <= list_max:
        value[key] = sorted(format_word(w, form) for w in build())
    return True, value, {}


def h_factors(args, form, list_max=None):
    """Counted on the suffix tree, so no factor is built unless it is listed."""
    import stringology.suffixtree as suffixtree
    import stringology.words as words

    x = args[0]
    words.check_factor_cap(x)
    count = suffixtree.suffix_tree(x).factor_count()
    return _listing("factors", count, lambda: words.all_factors(x), form, list_max)


def h_subsequences(args, form, list_max=None):
    import stringology.words as words

    subs = words.all_subsequences(*args)
    return _listing("subsequences", len(subs), lambda: subs, form, list_max)


def h_sat(args, form):
    import stringology.twosat as twosat

    clauses = []
    maxvar = 0
    for part in args[0].split():
        lits = part.split(",")
        if len(lits) != 2:
            raise UsageError("each clause needs two literals")
        pair = []
        for lit in lits:
            try:
                v = int(lit)
            except ValueError:
                raise UsageError(f"cannot parse clause {part!r}") from None
            if v == 0:
                raise UsageError("literals are nonzero signed integers")
            pair.append((abs(v) - 1, v > 0))
            maxvar = max(maxvar, abs(v))
        clauses.append((pair[0], pair[1]))
    vals = twosat.two_sat_solve(twosat.TwoSatFormula(maxvar, tuple(clauses)))
    if vals is None:
        return False, "UNSAT", {}
    return True, "".join("1" if v else "0" for v in vals), {}


def h_anticover(args, form):
    import stringology.regularities as regularities

    x, = args
    cover = regularities.two_anticover(x)
    if cover is None:
        return False, "none", {}
    return True, [list(p) for p in cover], {
        "factors": [format_word(x[i:j + 1], form) for i, j in cover]}


def h_lcs(args, form):
    import stringology.subseq as subseq

    u, v = args
    a, b = subseq.lcs(u, v)
    return True, {
        "length": len(a), "positions_u": a, "positions_v": b,
        "word": format_word([u[i] for i in a], form),
    }, {}


def h_ham_encode(args, form, r=3):
    import stringology.codec as codec

    return True, _bits(codec.hamming_encode(codec.hamming_build(r), *args)), {}


def h_ham_correct(args, form, r=3):
    import stringology.codec as codec

    fixed, pos = codec.hamming_correct(codec.hamming_build(r), *args)
    return True, _bits(fixed), {"error_position": pos}


def h_compress(args, form):
    import stringology.codec as codec

    x, left, right = args
    out = codec.compress_pairs(x, codec.PairPartition(frozenset(left), frozenset(right)))
    return True, format_word(out, form), {"length": len(out)}


def h_listsq_run(args, form):
    import stringology.avoidance as avoidance

    lists, control = args
    try:
        steps = [int(c) for c in control]
    except ValueError:
        raise UsageError(f"cannot parse control {control!r}") from None
    trace = avoidance.list_squarefree(lists, steps)
    ok = len(trace.word) == len(lists)
    return ok, format_word(list(trace.word), "letters"), {
        "pushes": trace.ops.count("push"), "pops": trace.ops.count("pop")}


def h_listsq_random(args, form, seed=None):
    import stringology.avoidance as avoidance

    if seed is None:
        raise UsageError("listsq random requires --seed")
    word, tries = avoidance.list_squarefree_random(*args, seed)
    return True, format_word(word, "letters"), {"tries": tries}


def h_gen_seq(args, form, strict=False, expand=False):
    import stringology.permgen as permgen
    import stringology.slp as slp

    g = permgen.gen_sequence(*args)
    value = {"size": slp.slp_size(g), "length": slp.slp_length(g)}
    if strict:
        value["strict_size"] = slp.slp_size(slp.strict_binary(g))
    if expand:
        value["word"] = ",".join(map(str, slp.slp_expand(g)))
    return True, value, {}


def h_gen_run(args, form, start=None):
    import stringology.permgen as permgen

    perms = permgen.run_generator(*args, start=start)
    # entries are integers, not symbols (-1 is no HOLE); every arrangement
    # reorders the first, so one check picks digits or csv for all
    sep = "" if all(0 <= s <= 9 for s in perms[0]) else ","
    return True, [sep.join(map(str, p)) for p in perms], {"count": len(perms)}


def h_lfsr_gen(args, form, limit=None):
    import stringology.gf2 as gf2

    return True, [_bits(w) for w in gf2.lfsr_gen(*args)[:limit]], {}


def h_wc_search(args, form):
    import stringology.wildcard as wildcard

    text, pattern = args
    ok = wildcard.wildcard_search(wildcard.wildcard_index(text), pattern)
    return ok, "yes" if ok else "no", {}


def h_pd_window(args, form):
    import stringology.cartesian as cartesian

    x, i, j = args
    return True, cartesian.pd_window(cartesian.parent_distance(x), i, j), {}


def h_selftest(args, form, level="fast"):
    import stringology.selftest as selftest

    checks = []
    for r in selftest.results(level):
        selftest.report(r, sys.stderr)  # progress stays off the one JSON line
        checks.append(r._asdict())
    failed = [r["name"] for r in checks if r["error"] is not None]
    ok = not failed
    return ok, "ok" if ok else "FAILED", {"failures": len(failed), "failed": failed,
                                          "checks": checks}


# ------------------------------------------------------------ command table

REGISTRY = [
    Command("word", "thue-morse", "words:thue_morse", "k:int", "letters", meta="length"),
    Command("word", "fibonacci", "words:fibonacci_word", "k:int", "letters", meta="length"),
    Command("word", "prefix-table", "words:prefix_table", "word", "value"),
    Command("word", "factors", "words:all_factors", "word --list-max:count", h_factors),
    Command("word", "subsequences", "words:all_subsequences", "word --list-max:count",
            h_subsequences),
    Command("rle", "encode", "rle:rle_encode", "word", "runs", meta="runs"),
    Command("rle", "decode", "rle:rle_decode", "runs:runs", "bits", meta="length"),
    Command("rle", "shortest-cover", "regularities:rle_shortest_cover", "runs:runs", "value"),
    Command("rle", "find", "regularities:rle_find", "pattern_runs:runs text_runs:runs", "yes"),
    Command("scover", "check", "subseq:s_cover_check", "x y", "yes"),
    Command("scover", "tables", "subseq:s_cover_tables", "x y", "tables"),
    Command("scover", "shortest", "subseq:shortest_s_cover_naive", "y", "word"),
    Command("attractor", "check", "regularities:is_attractor", "word positions:int-list", "yes"),
    Command("attractor", "build", "regularities:attractor_construct", "family:text k:int",
            "sorted"),
    Command("period", "local", "regularities:local_period_holds", "word:hole-word p:int", "yes"),
    Command("sat", "solve", "twosat:two_sat_solve", "clauses:text", h_sat),
    Command("anticover", "find", "regularities:two_anticover", "word", h_anticover),
    Command("distinguish", "pair", "subseq:distinguishing_subsequence", "x y", "word"),
    Command("distinguish", "hard-pair", "subseq:hard_pair", "n:int", "letter-pair"),
    Command("minsub", "run", "subseq:min_sub", "word k:int", "word"),
    Command("lcs", "run", "subseq:lcs", "u v", h_lcs),
    Command("lps", "run", "subseq:longest_palindromic_subsequence", "word", "word"),
    Command("subs", "count", "subseq:count_subsequences", "word", "value"),
    Command("subs", "max", "subseq:max_subs", "n:int", "value"),
    Command("hamming", "build", "codec:hamming_build", "r:int", "code"),
    Command("hamming", "encode", "codec:hamming_encode", "word --r:int", h_ham_encode),
    Command("hamming", "correct", "codec:hamming_correct", "word --r:int", h_ham_correct),
    Command("huffman", "cost", "codec:huffman_cost", "weights:float-list", ("cost", "depths")),
    Command("huffman", "entropy", "codec:entropy", "weights:float-list", "value"),
    Command("recompress", "shrink", "codec:shrink_runs", "word", "word"),
    Command("recompress", "partition", "codec:pairing_partition", "word", "partition"),
    Command("recompress", "compress", "codec:compress_pairs", "word left right", h_compress),
    Command("morphic", "tm-test", "avoidance:tm_factor_test", "word", "yes"),
    Command("morphic", "fib-test", "avoidance:fib_factor_test", "word", "yes"),
    Command("grasshopper", "square-free", "avoidance:grasshopper_squarefree_word", "n:int", "csv"),
    Command("grasshopper", "cube-free", "avoidance:grasshopper_cubefree_word", "n:int", "letters"),
    Command("grasshopper", "recover", "avoidance:recover_square", "x z:int-list", "letters"),
    Command("unbordered", "counts", "avoidance:unbordered_counts", "n:int", ("u", "v", "t")),
    Command("unbordered", "weighted", "avoidance:unbordered_weighted", "n:int k:int", "value"),
    Command("unbordered", "palprefix3", "avoidance:ternary_no_palprefix", "n:int", "value"),
    Command("listsq", "run", "avoidance:list_squarefree", "lists:lists control:text",
            h_listsq_run),
    Command("listsq", "random", "avoidance:list_squarefree_random", "lists:lists --seed:int",
            h_listsq_random),
    Command("freeband", "psi", "freeband:psi", "word", "psi"),
    Command("freeband", "equiv", "freeband:idempotent_equivalent", "x y", "yes"),
    Command("gen", "seq",
            "permgen:gen_sequence slp:slp_size slp:slp_length slp:slp_expand slp:strict_binary",
            "kind:text n:int --strict --expand", h_gen_seq),
    Command("gen", "run", "permgen:run_generator", "kind:text n:int --start:int-list", h_gen_run),
    Command("gen", "rho", "permgen:rho_stream", "limit:int", "list"),
    Command("superpattern", "word", "patterns:superpattern_word", "n:int", "csv", meta="length"),
    Command("superpattern", "embed", "patterns:embed_permutation", "pi:int-list", "value"),
    Command("shape", "of", "patterns:shape", "word:int-list", "list"),
    Command("shape", "universal", "patterns:universal_shape_word", "n:int", "csv", meta="length"),
    Command("ring", "word", "rings:ring_word", "n:int k:int", "bits"),
    Command("ring", "check", "rings:is_ring_word", "word k:int", "yes"),
    Command("lfsr", "stream", "gf2:lfsr", "taps:taps", "bits"),
    Command("lfsr", "gen", "gf2:lfsr_gen", "taps:taps --limit:count", h_lfsr_gen),
    Command("lfsr", "nth", "gf2:nth_gen_word", "taps:taps m:int --method:text", "bits"),
    Command("lfsr", "primitive", "gf2:is_primitive", "poly:poly", "yes"),
    Command("lfsr", "two-cycles", "gf2:debruijn_two_cycles", "poly:poly", "bit-pair"),
    Command("suffix", "tree", "suffixtree:suffix_tree", "word", "suffix-tree"),
    Command("suffix", "subtable", "subcount:sub_table", "word", ("sub", "dif")),
    Command("wildcard", "build", "wildcard:wildcard_index", "word", "index"),
    Command("wildcard", "search", "wildcard:wildcard_search", "word pattern:hole-word",
            h_wc_search),
    Command("cartesian", "tree", "cartesian:cartesian_tree", "word:int-word", "cartesian-tree"),
    Command("cartesian", "pd", "cartesian:parent_distance", "word:int-word", "value"),
    Command("cartesian", "pd-window", "cartesian:pd_window", "word:int-word i:int j:int",
            h_pd_window),
    Command("cartesian", "border", "cartesian:ct_border", "word:int-word", "value"),
    Command("cartesian", "match", "cartesian:ct_match", "pattern:int-word text:int-word", "found"),
    Command("selftest", "run", "selftest", "--level:text", h_selftest),
]

COMMANDS = {(c.area, c.verb): c for c in REGISTRY}
# op name -> the library module that defines it
OP_MODULES = {op: module for c in REGISTRY for op, module in zip(c.ops, c.modules) if module}


def _op(module: str, name: str):
    """Library function ``name`` of ``module``, which is imported on first
    use.  It is read from the module on every call, so rebinding the module
    attribute (as the benchmark tracer does) reaches every command."""
    path = f"{__package__}.{module}"
    return getattr(sys.modules.get(path) or import_module(path), name)


def __getattr__(name: str):
    """``cli.<op>`` is the function an op names, e.g. ``cli.lcs``."""
    if name in OP_MODULES:
        return _op(OP_MODULES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def covered_operations() -> list[str]:
    return [op for cmd in REGISTRY for op in cmd.ops]


# The encoder that json.JSONEncoder(default=str).encode builds on every call,
# built once: the C encoder with JSONEncoder's defaults but no circular check
# (markers None; no handler returns circular data), taken from _json itself,
# so the json package and its decoder are never imported.  Without the C
# accelerator it is JSONEncoder itself.  Either takes (obj, 0) and returns the
# chunks of obj's JSON text.
try:
    import _json
except ImportError:
    import json

    _ENCODE = json.JSONEncoder(default=str).iterencode
else:
    _ENCODE = _json.make_encoder(None, str, _json.encode_basestring_ascii, None, ": ", ", ",
                                 False, False, True)


def _render(ok: bool, value, meta, plain: bool) -> str:
    """The whole output of one command: its JSON line or, under --plain, one
    line per list item or dict entry (none for an empty list).  An int past
    the interpreter's int-to-string limit is a UsageError."""
    try:
        if not plain:
            return "".join(_ENCODE({"ok": ok, "value": value, "meta": meta}, 0)) + "\n"
        if isinstance(value, dict):
            value = [f"{k}: {v}" for k, v in value.items()]
        elif not isinstance(value, (list, tuple)):
            value = [value]
        return "".join(f"{item}\n" for item in value)
    except ValueError:  # str() of an int past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise UsageError(f"answer too large to print: over {limit} digits") from None


def _split(cmd: Command, tokens: list[str]) -> tuple[list[str], dict]:
    """Split the tokens after area and verb into positional arguments and the
    row's options, parsed by kind and keyed by keyword name."""
    args, options = [], {}
    rest = iter(tokens)
    for tok in rest:
        if tok == "--":
            args.extend(rest)  # everything after it is positional
        elif tok == "--plain":
            continue
        elif tok.startswith("--"):
            if tok not in cmd.options:
                raise UsageError(f"{cmd.area} {cmd.verb} takes no option {tok}")
            kind, key = cmd.options[tok], tok[2:].replace("-", "_")
            if kind is None:
                options[key] = True
            elif (text := next(rest, None)) is None:
                raise UsageError(f"{cmd.area} {cmd.verb} {tok} needs a value")
            else:
                try:
                    options[key] = _parse(kind, text)
                except Exception as exc:
                    raise UsageError(f"{cmd.area} {cmd.verb} {tok}: {exc}") from None
        else:
            args.append(tok)
    return args, options


def _run(tokens: list[str]) -> tuple:
    """Look the command up from the first two tokens, parse its arguments
    and options by kind, call it and shape the result into (ok, value, meta)."""
    cmd = COMMANDS.get(tuple(tokens[:2]))
    if cmd is None:
        raise UsageError(f"unknown command {' '.join(tokens[:2])}")
    texts, options = _split(cmd, tokens[2:])
    if len(texts) != len(cmd.nargs):
        raise UsageError(f"expected arguments: {' '.join(cmd.nargs)}")
    args, form = [], None
    for kind, text in zip(cmd.kinds, texts):
        value = _parse(kind, text)
        if kind in WORD_KINDS:
            value, word_form = value
            form = form or word_form
        args.append(value)
    if callable(cmd.shape):
        return cmd.shape(args, form, **options)
    result = _op(cmd.modules[0], cmd.ops[0])(*args, **options)
    if isinstance(cmd.shape, tuple):
        ok, value = True, dict(zip(cmd.shape, result))
    else:
        ok, value = SHAPES[cmd.shape](result, form)
    return ok, value, {cmd.meta: len(result)} if cmd.meta else {}


def _respond(line: str | list[str], plain: bool) -> tuple[int, str]:
    """Split a batch line (argv comes split), run it and render its output:
    exit status and exactly one result, whatever fails on the way."""
    try:
        if isinstance(line, str):
            import shlex  # here, off the cold start: only a batch text line is split

            try:
                line = shlex.split(line)
            except ValueError as exc:  # unbalanced quotes
                raise UsageError(str(exc)) from None
        plain = plain or "--plain" in line
        ok, value, meta = _run(line)
        return 0 if ok else 1, _render(ok, value, meta, plain)
    except Exception as exc:  # every failure is one {ok: false} line, never a crash
        text = str(exc) if isinstance(exc, UsageError) else f"{type(exc).__name__}: {exc}"
        return 2, _render(False, text, {}, plain)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["batch"]:
        plain = "--plain" in argv
        worst = 0
        for line in sys.stdin:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rc, text = _respond(line, plain)
            sys.stdout.write(text)
            worst = max(worst, rc)
        return worst
    if not argv or argv in (["-h"], ["--help"]):
        areas = {}
        for c in REGISTRY:  # each verb with the options its row declares
            opts = [f"[{name} {kind}]" if kind else f"[{name}]" for name, kind in c.options.items()]
            areas.setdefault(c.area, []).append(" ".join([c.verb, *opts]))
        print(__doc__)
        for area in sorted(areas):
            print(f"  {area}: {', '.join(sorted(areas[area]))}")
        print("  batch: read one command per line from stdin")
        return 0
    rc, text = _respond(argv, False)
    sys.stdout.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
