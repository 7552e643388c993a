import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stringology import selftest
from stringology.cli import (
    KINDS,
    REGISTRY,
    WORD_KINDS,
    covered_operations,
    format_word,
    main,
    parse_poly,
    parse_runs,
    parse_word,
)
from stringology.words import HOLE

# every public library operation, each reachable from exactly one subcommand
PUBLIC_OPERATIONS = [
    "thue_morse", "fibonacci_word", "prefix_table", "rle_encode", "rle_decode",
    "slp_expand", "slp_size", "slp_length", "strict_binary",
    "all_factors", "all_subsequences",
    "is_attractor", "attractor_construct", "local_period_holds",
    "two_sat_solve", "two_anticover", "rle_shortest_cover", "rle_find",
    "s_cover_check", "s_cover_tables", "shortest_s_cover_naive",
    "distinguishing_subsequence", "hard_pair", "min_sub", "lcs",
    "longest_palindromic_subsequence", "count_subsequences", "max_subs",
    "hamming_build", "hamming_encode", "hamming_correct",
    "huffman_cost", "entropy", "shrink_runs", "pairing_partition",
    "compress_pairs",
    "tm_factor_test", "fib_factor_test", "grasshopper_squarefree_word",
    "grasshopper_cubefree_word", "recover_square", "unbordered_counts",
    "unbordered_weighted", "ternary_no_palprefix", "list_squarefree",
    "list_squarefree_random", "psi", "idempotent_equivalent",
    "gen_sequence", "run_generator", "rho_stream",
    "superpattern_word", "embed_permutation", "shape", "universal_shape_word",
    "ring_word", "is_ring_word", "lfsr", "lfsr_gen", "nth_gen_word",
    "is_primitive", "debruijn_two_cycles",
    "suffix_tree", "sub_table", "wildcard_index", "wildcard_search",
    "cartesian_tree", "parent_distance", "pd_window", "ct_border", "ct_match",
    "selftest",
]


def run_cli(args, stdin=None):
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout = io.StringIO()
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        rc = main(args)
        return rc, sys.stdout.getvalue()
    finally:
        sys.stdout = old_out
        sys.stdin = old_in


def test_every_operation_covered_exactly_once():
    ops = covered_operations()
    assert sorted(ops) == sorted(set(ops))  # no duplicates
    assert sorted(ops) == sorted(PUBLIC_OPERATIONS)


def test_registry_names_unique():
    names = [(c.area, c.verb) for c in REGISTRY]
    assert len(names) == len(set(names))


def test_scover_check_command():
    rc, out = run_cli(["scover", "check", "010", "0110110", "--plain"])
    assert rc == 0 and out.strip() == "yes"
    rc, out = run_cli(["scover", "check", "0101", "0110110", "--plain"])
    assert rc == 1 and out.strip() == "no"


def test_hamming_encode_command():
    rc, out = run_cli(["hamming", "encode", "1010", "--r", "3", "--plain"])
    assert rc == 0 and out.strip() == "1010010"


def test_gen_run_command():
    rc, out = run_cli(["gen", "run", "zaks", "3", "--plain"])
    lines = out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 6
    assert lines[0] == "123" and lines[-1] == "321"


def test_gen_run_start_prints_arrangements_that_read_back():
    # one-digit entries 0..9 are joined, anything else falls back to csv
    rc, out = run_cli(["gen", "run", "heap", "2", "--start", "-2,3"])
    assert rc == 0 and json.loads(out)["value"] == ["-2,3", "3,-2"]
    rc, out = run_cli(["gen", "run", "heap", "2", "--start", "0,10"])
    assert rc == 0 and json.loads(out)["value"] == ["0,10", "10,0"]
    rc, out = run_cli(["gen", "run", "heap", "2", "--start", "-1,2"])
    assert rc == 0 and json.loads(out)["value"] == ["-1,2", "2,-1"]


def test_json_output_shape():
    rc, out = run_cli(["subs", "count", "abab"])
    rec = json.loads(out)
    assert rc == 0 and rec["ok"] is True and rec["value"] == 12


def test_usage_errors_exit_2():
    rc, _ = run_cli(["nosuch", "verb"])
    assert rc == 2
    rc, _ = run_cli(["scover", "check", "010"])  # missing argument
    assert rc == 2
    rc, _ = run_cli(["word", "thue-morse", "99"])  # size limit
    assert rc == 2
    rc, _ = run_cli(["morphic", "tm-test", "012"])  # not a binary word
    assert rc == 2
    rc, _ = run_cli(["recompress", "compress", "abab", "ab", "ab"])  # sides overlap
    assert rc == 2
    rc, _ = run_cli(["ring", "check", "0", "0"])  # k < 1
    assert rc == 2
    rc, _ = run_cli(["ring", "check", "0101", "-1"])
    assert rc == 2
    for line in (["lps", "run", "٣٤٣"], ["word", "prefix-table", "١٢١"], ["lps", "run", "²"]):
        rc, out = run_cli(line)  # str.isdigit and int() accept these; a literal is ASCII
        assert rc == 2 and json.loads(out)["value"] == f"cannot parse word {line[-1]!r}"
    # every other argument kind is ASCII only too, options included
    for line, want in ((["word", "thue-morse", "٣"], "cannot parse int '٣'"),
                       (["gen", "rho", "²"], "cannot parse int '²'"),
                       (["rle", "decode", "1:٣"], "cannot parse runs '1:٣'"),
                       (["lfsr", "primitive", "x٣+x+1"], "cannot parse poly 'x٣+x+1'"),
                       (["huffman", "entropy", "٠.٥,٠.٥"], "cannot parse float-list '٠.٥,٠.٥'"),
                       (["sat", "solve", "١,2"], "cannot parse text '١,2'"),
                       (["word", "factors", "0110", "--list-max", "٣"],
                        "word factors --list-max: cannot parse count '٣'")):
        rc, out = run_cli(line)
        assert rc == 2 and json.loads(out)["value"] == want, line


def test_randomized_commands_require_seed():
    rc, _ = run_cli(["listsq", "random", "abcde,abcde,abcde"])
    assert rc == 2


def test_determinism_with_seed():
    args = ["listsq", "random", "abcde,bcdea,cdeab,deabc", "--seed", "9"]
    rc1, out1 = run_cli(args)
    rc2, out2 = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_batch_mode():
    rc, out = run_cli(["batch"], stdin="subs count abab\nsubs max 4\n")
    lines = out.strip().splitlines()
    assert rc == 0
    assert json.loads(lines[0])["value"] == 12
    assert json.loads(lines[1])["value"] == 12


def test_word_parsing_forms():
    assert parse_word("abc")[0] == [0, 1, 2]
    assert parse_word("010")[0] == [0, 1, 0]
    assert parse_word("3,1,4")[0] == [3, 1, 4]
    assert parse_word("ab?a")[0] == [0, 1, HOLE, 0]
    assert parse_word("0?1")[0] == [0, HOLE, 1]
    with pytest.raises(Exception):
        parse_word("a-b")


def test_word_formatting_roundtrip():
    w, form = parse_word("abba")
    assert format_word(w, form) == "abba"
    w, form = parse_word("0110")
    assert format_word(w, form) == "0110"
    assert format_word([27], "letters") == "27"


def test_runs_and_poly_parsers():
    assert parse_runs("1:3,0:4,1:2") == [(1, 3), (0, 4), (1, 2)]
    assert parse_runs("111000011") == [(1, 3), (0, 4), (1, 2)]
    assert parse_poly("x5+x2+1").exponents() == [0, 2, 5]
    assert parse_poly("5,2,0").exponents() == [0, 2, 5]


def test_period_command_with_hole():
    rc, out = run_cli(["period", "local", "ababaababa?", "5", "--plain"])
    assert rc == 0 and out.strip() == "yes"
    rc, out = run_cli(["period", "local", "ababaababa?", "1", "--plain"])
    assert rc == 1 and out.strip() == "no"


def test_universal_and_ring_commands():
    rc, out = run_cli(["shape", "universal", "3", "--plain"])
    assert rc == 0 and out.strip() == "7,8,6,1,3,2,4,5"
    rc, out = run_cli(["ring", "check", "000101101", "4", "--plain"])
    assert rc == 0 and out.strip() == "yes"


def test_lfsr_commands():
    rc, out = run_cli(["lfsr", "stream", "110", "--plain"])
    assert rc == 0 and out.strip() == "001011100"
    rc, out = run_cli(["lfsr", "nth", "10100", "6", "--method", "poly", "--plain"])
    assert rc == 0 and out.strip() == "00101"
    rc, out = run_cli(["lfsr", "primitive", "x4+x2+1", "--plain"])
    assert rc == 1 and out.strip() == "no"


def test_help_lists_areas():
    rc, out = run_cli([])
    assert rc == 0
    assert "scover" in out and "batch" in out


def test_gen_seq_flags():
    rc, out = run_cli(["gen", "seq", "zaks", "3", "--expand", "--strict"])
    rec = json.loads(out)
    assert rc == 0
    assert rec["value"]["word"] == "1,2,1,2,1"
    assert rec["value"]["length"] == 5
    assert rec["value"]["strict_size"] >= rec["value"]["size"] - 1


def test_word_factors_with_limit():
    rc, out = run_cli(["word", "factors", "abc", "--list-max", "10"])
    rec = json.loads(out)
    assert rc == 0
    assert rec["value"]["count"] == 6
    assert "a" in rec["value"]["factors"]


def test_rle_find_exit_codes():
    rc, out = run_cli(["rle", "find", "1:3", "1:2,0:1,1:2", "--plain"])
    assert rc == 1 and out.strip() == "no"
    rc, out = run_cli(["rle", "find", "1:2", "1:2,0:1,1:2", "--plain"])
    assert rc == 0 and out.strip() == "yes"


def test_anticover_command_lists_factors():
    rc, out = run_cli(["anticover", "find", "abaacbacca"])
    rec = json.loads(out)
    assert rc == 0
    assert rec["meta"]["factors"][0] == "ab"
    rc, _ = run_cli(["anticover", "find", "abaababbaab"])
    assert rc == 1


def test_batch_errors_are_one_line_each_and_never_stop_the_batch():
    lines = [
        "distinguish pair 02 10",  # not binary: the library raises
        "listsq random abcde --seed x",  # the option's kind rejects the value
        "subs count ab --bogus",   # the row declares no such option
        "lcs run ab ab --limit 3",  # an option of another row
        'subs count "ab',          # shlex finds no closing quotation
        "subs count abab",
    ]
    rc, out = run_cli(["batch"], stdin="\n".join(lines) + "\n")
    recs = [json.loads(line) for line in out.splitlines()]
    assert rc == 2
    assert [rec["ok"] for rec in recs] == [False, False, False, False, False, True]
    assert recs[-1]["value"] == 12


@pytest.mark.parametrize("args", [
    ["subs", "count", "?"],
    ["lps", "run", "a?a"],
    ["word", "prefix-table", "a?b"],
    ["rle", "decode", "1?0"],
    ["wildcard", "search", "a?ab", "ab"],
    ["lps", "run", "1,-1,1"],  # csv -1 is HOLE's value
    ["subs", "count", "1,-1"],
])
def test_hole_rejected_where_holes_mean_nothing(args):
    rc, out = run_cli(args)
    assert rc == 2 and json.loads(out)["ok"] is False


def test_cartesian_words_keep_negative_values():
    rc, out = run_cli(["cartesian", "tree", "3,-1,2"])
    assert rc == 0 and json.loads(out)["value"]["root"] == 1


def test_hamming_r_zero_is_rejected_not_defaulted():
    rc, out = run_cli(["hamming", "encode", "1010", "--r", "0", "--plain"])
    assert rc == 2 and "3 <= r <= 16" in out


def test_lfsr_gen_limit_zero_lists_nothing():
    rc, out = run_cli(["lfsr", "gen", "110", "--limit", "0"])
    assert rc == 0 and json.loads(out)["value"] == []
    rc, out = run_cli(["lfsr", "gen", "101", "--limit", "0", "--plain"])
    assert rc == 0 and out == ""  # an empty list is no lines, not an empty one


# answers past Python's 4300-digit limit on int-to-string conversion
@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs Python's default int-to-string digit limit")
@pytest.mark.parametrize("line", ["unbordered palprefix3 10000"])
def test_an_answer_too_large_to_print_is_one_error_line(line, capsys):
    for plain in ([], ["--plain"]):
        rc, out = run_cli(line.split() + plain)
        [text] = out.splitlines()
        assert rc == 2 and (plain or json.loads(text)["ok"] is False)
        assert "answer too large to print: over 4300 digits" in text
        assert "set_int_max_str_digits" not in text
    rc, out = run_cli(["batch"], stdin=line + "\nword thue-morse 3\n")
    first, second = out.splitlines()
    assert rc == 2 and json.loads(first)["ok"] is False and "abbabaab" in second
    assert capsys.readouterr().err == ""


def test_subs_max_prints_up_to_its_cap():
    rc, out = run_cli(["subs", "max", "20000"])
    assert rc == 0 and len(str(json.loads(out)["value"])) == 4181
    rc, out = run_cli(["subs", "max", "20001"])
    record = json.loads(out)
    assert rc == 2 and record["value"] == "SizeLimitError: max_subs bounded at n <= 20000"


def test_attractor_check_past_its_cap_is_a_size_limit_error():
    rc, out = run_cli(["attractor", "check", "0" * 5001, "0"])
    record = json.loads(out)
    assert rc == 2 and record["value"] == "SizeLimitError: is_attractor bounded at |x| <= 5000"


def test_unbordered_counts_past_its_cap_is_one_error_line():
    """The cap is the largest n whose every count has at most 4300 digits,
    so the CLI prints every answer it computes and refuses the rest at once."""
    from stringology.avoidance import unbordered_counts

    u, v, t = unbordered_counts(14286)
    assert all(c < 10 ** 4300 for counts in (u, v, t) for c in counts)
    assert 2 * u[14286] >= 10 ** 4300  # u[14287], odd: the first count past the limit
    for n in (14287, 20001):
        start = time.perf_counter()
        rc, out = run_cli(["unbordered", "counts", str(n)])
        assert time.perf_counter() - start < 1
        [line] = out.splitlines()
        record = json.loads(line)
        assert rc == 2 and record["ok"] is False
        assert record["value"] == "SizeLimitError: unbordered_counts bounded at n <= 14286"


# a valid value of each argument kind, and of each text argument by name
FILL = {"word": "0110", "hole-word": "0110", "int-word": "3,1,2", "runs": "1:2,0:1",
        "lists": "ab,ab", "taps": "110", "poly": "x3+x+1", "int": "2", "count": "2",
        "int-list": "1,2", "float-list": "0.5,0.5"}
FILL_TEXT = {"family": "thue_morse", "kind": "zaks", "clauses": "1,2", "control": "11"}

# runs each argv of the JSON list on stdin under a 1 GiB address-space limit
# and prints [argv, exit status, output, seconds] for each
HUGE_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from stringology import cli
for argv in json.load(sys.stdin):
    t0 = time.perf_counter()
    rc, text = cli._respond(argv, False)
    print(json.dumps([argv, rc, text, time.perf_counter() - t0]), flush=True)
"""


def test_every_int_argument_is_checked_before_any_work():
    """10^9 in any one int argument is one {ok: false} line at once: a size
    or range check runs before the work, not a MemoryError after it."""
    pytest.importorskip("resource")
    lines = []
    for cmd in REGISTRY:
        for i, kind in enumerate(cmd.kinds):
            if kind == "int":
                args = [FILL_TEXT[name] if k == "text" else FILL[k]
                        for name, k in zip(cmd.nargs, cmd.kinds)]
                args[i] = str(10 ** 9)
                lines.append([cmd.area, cmd.verb, *args])
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", HUGE_CHILD], input=json.dumps(lines),
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [argv for argv, *_ in records] == lines
    for argv, rc, text, seconds in records:
        [line] = text.splitlines()
        record = json.loads(line)
        assert rc == 2 and record["ok"] is False, argv
        assert "MemoryError" not in record["value"], argv
        assert seconds < 1.0, (argv, seconds)


@pytest.mark.parametrize("argv", [["lfsr", "gen", "110", "--limit"],
                                  ["word", "factors", "0110", "--list-max"]])
def test_negative_limit_is_rejected(argv):
    rc, out = run_cli(argv + ["-1"])
    rec = json.loads(out)
    assert rc == 2 and rec["ok"] is False and argv[-1] in rec["value"]


def test_gen_rho_negative_length_is_rejected():
    rc, out = run_cli(["gen", "rho", "-1"])
    [line] = out.splitlines()
    assert rc == 2 and json.loads(line)["ok"] is False and ">= 0" in line


def test_word_factors_limit_zero_lists_nothing():
    rc, out = run_cli(["word", "factors", "0110", "--list-max", "0"])
    assert rc == 0 and json.loads(out)["value"] == {"count": 8}


@pytest.mark.parametrize("argv", [
    ["lcs", "run", "ab", "ab", "--limit", "3"],
    ["word", "factors", "0110", "--limit", "3"],  # its threshold is --list-max
    ["subs", "count", "ab", "--seed", "4", "--strict", "--method", "poly"],
])
def test_undeclared_option_is_rejected(argv):
    rc, out = run_cli(argv)
    [line] = out.splitlines()
    rec = json.loads(line)
    option = next(tok for tok in argv if tok.startswith("--"))
    assert rc == 2 and rec["ok"] is False
    assert option in rec["value"] and f"{argv[0]} {argv[1]}" in rec["value"]


def test_double_dash_ends_the_options():
    rc, out = run_cli(["sat", "solve", "--", "-1,2 1,2"])
    assert rc == 0 and json.loads(out)["value"] in ("01", "11")
    rc, out = run_cli(["lcs", "run", "--", "ab", "--limit"])
    assert rc == 2 and "cannot parse word" in json.loads(out)["value"]
    rc, out = run_cli(["batch", "--plain"], stdin="sat solve -- -1,2\n")
    assert rc == 0 and out.strip() in ("00", "01", "11")


def test_options_reach_the_library_default_when_absent():
    rc, out = run_cli(["lfsr", "nth", "10100", "6", "--plain"])
    assert rc == 0 and out.strip() == "00101"  # nth_gen_word's default method
    rc, out = run_cli(["lfsr", "nth", "10100", "6", "--method", "bogus"])
    assert rc == 2 and "method must be" in json.loads(out)["value"]


def test_selftest_unknown_level_is_one_error_line():
    rc, out = run_cli(["selftest", "run", "--level", "bogus"])
    [line] = out.splitlines()
    rec = json.loads(line)
    assert rc == 2 and rec["ok"] is False and "bogus" in rec["value"]


def test_option_kinds_agree_across_rows():
    kinds = {}
    for cmd in REGISTRY:
        assert "--plain" not in cmd.options, f"{cmd.area} {cmd.verb}"
        for name, kind in cmd.options.items():
            assert kind is None or (kind in KINDS and kind not in WORD_KINDS), name
            assert kinds.setdefault(name, kind) == kind, f"{name} has two kinds"


def test_help_lists_each_verbs_options():
    rc, out = run_cli(["--help"])
    assert rc == 0
    for cmd in REGISTRY:
        for name in cmd.options:
            assert name in out, f"{cmd.area} {cmd.verb} {name}"
    assert "gen [--limit count]" in out and "seq [--strict] [--expand]" in out


def test_hole_accepted_in_wildcard_pattern():
    rc, out = run_cli(["wildcard", "search", "abaab", "a?a", "--plain"])
    assert rc == 0 and out.strip() == "yes"


@pytest.mark.parametrize("args", [
    ["period", "local", "0,-2,0", "1"],
    ["period", "local", "0,-1,0", "1"],  # csv -1 is HOLE's value; the hole is "?"
    ["wildcard", "search", "0,1", "0,-2"],
    ["wildcard", "search", "0,1", "-1,1"],
])
def test_hole_word_rejects_negative_literals(args):
    rc, out = run_cli(args)
    assert rc == 2 and len(out.splitlines()) == 1
    rec = json.loads(out)
    assert rec["ok"] is False and "negative" in rec["value"]


def test_hole_word_spells_the_hole_as_a_question_mark_in_csv():
    rc, out = run_cli(["period", "local", "0,?,0", "2", "--plain"])
    assert rc == 0 and out.strip() == "yes"
    rc, out = run_cli(["wildcard", "search", "0,1,0", "0,?", "--plain"])
    assert rc == 0 and out.strip() == "yes"


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "stringology", "word", "factors", "abaab"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == {"count": 11}


# a few tokens of every argument kind, malformed ones included
FUZZ_TOKENS = [
    "", "?", "0", "1", "2", "3", "5", "01", "10", "0110", "a", "ab", "abba",
    "a?b", "1,0,2", "3,1,4", "-1", "-2,1", "0.5,0.5", "1:3,0:2", "x3+x+1",
    "3,1,0", "zaks", "fibonacci",
]


# every option name any row declares, and two that none does
FUZZ_OPTIONS = sorted({name for c in REGISTRY for name in c.options}) + ["--bogus", "--s"]


@pytest.mark.parametrize("cmd", [c for c in REGISTRY if c.area != "selftest"],
                         ids=lambda c: f"{c.area}-{c.verb}")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_every_command_writes_one_json_line(cmd, data):
    count = max(0, len(cmd.nargs) + data.draw(st.sampled_from([-1, 0, 0, 1])))
    args = data.draw(st.lists(st.sampled_from(FUZZ_TOKENS), min_size=count, max_size=count))
    names = data.draw(st.lists(st.sampled_from(FUZZ_OPTIONS), max_size=2))
    for name in names:
        # a value follows valued options and, now and then, a flag as well
        if cmd.options.get(name) or data.draw(st.booleans()):
            args += [name, data.draw(st.sampled_from(FUZZ_TOKENS))]
        else:
            args.append(name)
    rc, out = run_cli([cmd.area, cmd.verb, *args])
    lines = out.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"ok", "value", "meta"}
    assert rc in (0, 1, 2)
    if any(name not in cmd.options for name in names):
        assert rc == 2


def test_selftest_unknown_level_raises_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setattr(selftest, "CHECKS", [("probe", "fast", lambda: ran.append(1))])
    with pytest.raises(ValueError, match="bogus"):
        selftest.results("bogus")
    assert ran == []
    assert [r.name for r in selftest.results("full")] == ["probe"] and ran == [1]


def test_selftest_reports_every_failing_check(monkeypatch, capsys):
    def broken():
        raise ValueError("boom")

    monkeypatch.setattr(selftest, "CHECKS", [("broken", "fast", broken),
                                             ("fine", "fast", lambda: None)])
    assert main(["selftest", "run", "--level", "fast"]) == 1
    out, err = capsys.readouterr()
    # progress goes to stderr, one line per check in CHECKS order; a failing
    # check does not stop the ones after it
    lines = err.splitlines()
    assert lines[0] == "FAIL broken: ValueError: boom"
    assert lines[1].startswith("pass fine (")
    assert len(lines) == 2
    assert json.loads(out)["value"] == "FAILED"


def test_selftest_run_writes_one_json_line_per_command(monkeypatch, capsys):
    def broken():
        raise ValueError("boom")

    monkeypatch.setattr(selftest, "CHECKS", [("fine", "fast", lambda: None),
                                             ("broken", "fast", broken),
                                             ("slow", "full", lambda: None)])
    # meta names each check that ran, in run order, with its seconds and error
    checks = [{"name": "fine", "level": "fast", "error": None},
              {"name": "broken", "level": "fast", "error": "ValueError: boom"}]
    want = {"ok": False, "value": "FAILED",
            "meta": {"failures": 1, "failed": ["broken"], "checks": checks}}

    def untimed(out):
        records = [json.loads(line) for line in out.splitlines()]
        for record in records:
            for check in record["meta"]["checks"]:
                assert check.pop("seconds") >= 0
        return records

    assert main(["selftest", "run"]) == 1
    out, err = capsys.readouterr()
    assert untimed(out) == [want]
    assert "FAIL broken: ValueError: boom" in err  # progress goes to stderr
    monkeypatch.setattr(sys, "stdin", io.StringIO("selftest run\nselftest run --level full\n"))
    assert main(["batch"]) == 1
    out, _ = capsys.readouterr()
    full = {**want, "meta": {**want["meta"],
                             "checks": checks + [{"name": "slow", "level": "full", "error": None}]}}
    assert untimed(out) == [want, full]
