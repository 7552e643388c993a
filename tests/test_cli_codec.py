"""The CLI's word and JSON codec against the loops it replaced.

``reference_parse_word`` and ``reference_format_word`` are the per-character
definitions the table-driven codec in ``stringology.cli`` must reproduce, kept
here as they were; the one change of meaning is that a literal must be ASCII.
"""

import ast
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import stringology
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


# imports the CLI, with the C accelerator ``_json`` blocked when argv[2] is
# "block" and as it is when it is "c", and prints the encoder it chose, then
# _respond's result per line
ENCODER_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "block":
    sys.modules["_json"] = None  # import _json now raises ImportError
import stringology.gf2 as gf2
import stringology.subseq as subseq
from stringology import cli

# results no row returns today, reached by rebinding the ops, as a tracer does
subseq.count_subsequences = lambda w: ((w[0], (w[1], tuple(w))), ())
subseq.max_subs = lambda n: gf2.Gf2Poly.from_exponents([n, 2, 0])
encoder = getattr(cli._ENCODE, "__self__", cli._ENCODE)
print(repr((type(encoder).__module__, type(encoder).__name__, encoder.default is str)))
for line in sys.argv[3:]:
    print(repr(cli._respond(line, False)))
"""

ENCODER_LINES = ["subs count 0,1,2", "subs max 5", "lps run ٣٤٣",
                 "unbordered palprefix3 10000", "word thue-morse 3"]


def respond_in_child(mode):
    src = Path(stringology.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-I", "-c", ENCODER_CHILD, str(src), mode,
                          *ENCODER_LINES], capture_output=True, text=True, check=True,
                         timeout=60)
    encoder, *results = map(ast.literal_eval, out.stdout.splitlines())
    return encoder, results


def test_the_pure_python_encoder_gives_the_same_bytes():
    """Without _json the CLI encodes through json.JSONEncoder(default=str),
    and every line reads as it does through the C encoder."""
    encoder, fallback = respond_in_child("block")
    assert encoder == ("json.encoder", "JSONEncoder", True)
    encoder, c_path = respond_in_child("c")
    assert encoder == ("_json", "Encoder", True)
    assert fallback == c_path
    nested, poly, non_ascii, too_large, plain = c_path
    assert nested == (0, '{"ok": true, "value": [[0, [1, [0, 1, 2]]], []], "meta": {}}\n')
    assert poly == (0, '{"ok": true, "value": "Gf2Poly(bits=37)", "meta": {}}\n')
    rc, text = non_ascii
    assert rc == 2 and text.isascii() and "\\u0663\\u0664\\u0663" in text
    assert json.loads(text)["value"] == "cannot parse word '٣٤٣'"
    assert too_large == (2, '{"ok": false, "value": "answer too large to print: '
                            'over 4300 digits", "meta": {}}\n')
    assert plain == (0, '{"ok": true, "value": "abbabaab", "meta": {"length": 8}}\n')
