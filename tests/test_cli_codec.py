"""The CLI's word and JSON codec against the loops it replaced.

``reference_parse_word`` and ``reference_format_word`` are the per-character
definitions the table-driven codec in ``stringology.cli`` must reproduce, kept
here as they were; the one change of meaning is that a literal must be ASCII.
"""

import itertools
import json
import sys

import pytest

from stringology.cli import UsageError, _render, format_word, parse_word
from stringology.gf2 import Gf2Poly
from stringology.words import HOLE

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def reference_parse_word(text: str) -> tuple[list[int], str]:
    if not text:
        raise UsageError("empty word literal")
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
    if all(c.isdigit() or c == "?" for c in text):
        return [HOLE if c == "?" else int(c) for c in text], "digits"
    if all(c in LETTERS or c == "?" for c in text):
        return [HOLE if c == "?" else LETTERS.index(c) for c in text], "letters"
    raise UsageError(f"cannot parse word {text!r}")


def reference_format_word(w, form: str) -> str:
    if form == "letters" and all(s == HOLE or 0 <= s < 26 for s in w):
        return "".join("?" if s == HOLE else LETTERS[s] for s in w)
    if form == "digits" and all(s == HOLE or 0 <= s <= 9 for s in w):
        return "".join("?" if s == HOLE else str(s) for s in w)
    return ",".join("?" if s == HOLE else str(s) for s in w)


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


PARSE_CHARS = ["0", "9", "a", "z", "?", ",", "-", "A", "٣", "²", " "]


def test_parse_word_matches_its_reference_on_every_short_literal():
    for n in range(4):
        for chars in itertools.product(PARSE_CHARS, repeat=n):
            text = "".join(chars)
            got = outcome(parse_word, text)
            if text.isascii():
                assert got == outcome(reference_parse_word, text), text
            else:  # the reference reads Arabic-Indic digits; a literal is ASCII only
                assert got == (UsageError, f"cannot parse word {text!r}"), text


FORMAT_SYMBOLS = [HOLE, 0, 9, 10, 25, 26, 255, 256]


@pytest.mark.parametrize("form", ["letters", "digits", "csv"])
def test_format_word_matches_its_reference(form):
    for n in range(4):
        for w in itertools.product(FORMAT_SYMBOLS, repeat=n):
            assert format_word(list(w), form) == reference_format_word(w, form), w
            assert format_word(w, form) == reference_format_word(w, form), w


RENDER_CORPUS = [
    (True, "abcab", {}),
    (False, "no", {"length": 0}),
    (True, {"L": [0, 1], "R": (2, 3), "nested": ((1, (2, 3)), [])}, {"failed": []}),
    (True, [float("nan"), float("inf"), -float("inf"), 0.1, 1e300], {}),
    (True, "café ٣ \U0001f600 \"quoted\" \\ \n\t", {"kéy": "v"}),
    (True, Gf2Poly.from_exponents([5, 2, 0]), {"poly": Gf2Poly.from_exponents([1, 0])}),
    (True, {"big": 10 ** 4000, "neg": -(10 ** 100), "none": None, "bool": False}, {}),
    (False, "SizeLimitError: thue_morse bounded at k <= 25", {}),
]


def reference_render(ok, value, meta):
    return json.JSONEncoder(default=str).encode({"ok": ok, "value": value, "meta": meta}) + "\n"


def test_render_matches_a_fresh_encoder():
    for ok, value, meta in RENDER_CORPUS:
        assert _render(ok, value, meta, False) == reference_render(ok, value, meta)


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs Python's default int-to-string digit limit")
def test_render_of_an_int_past_the_print_limit_is_the_same_error_line():
    value = {"value": [[1, 2], {"n": 10 ** 4400}]}
    with pytest.raises(ValueError):
        reference_render(True, value, {})
    with pytest.raises(UsageError, match="^answer too large to print: over 4300 digits$"):
        _render(True, value, {}, False)
