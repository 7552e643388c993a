"""Cold start: ``import stringology.cli`` loads no library module, no part of
the json package, no shlex and no typing, and a command loads only the
modules it calls.  Each check runs in a fresh ``-I`` interpreter, so nothing
a test imported earlier hides an import."""

import subprocess
import sys
from pathlib import Path

import pytest

import stringology

SRC = Path(stringology.__file__).resolve().parent.parent

# imports nothing before the measured import but what the interpreter itself
# preloaded, and prints one line of module names for each of the two sets
CHILD = (
    "import io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = set(sys.modules)\n"
    "import stringology.cli\n"
    "imported = set(sys.modules)\n"
    "out, sys.stdout = sys.stdout, io.StringIO()\n"
    "stringology.cli.main(sys.argv[2:])\n"
    "sys.stdout = out\n"
    "print(' '.join(sorted(imported - start)))\n"
    "print(' '.join(sorted(set(sys.modules) - imported)))\n"
)

HEAVY = {"dataclasses", "fractions", "inspect"}
# what the CLI needs of these is the C encoder in _json and, for a batch text
# line, shlex; the json package (its decoder above all) costs about half the
# cold import
LAZY = {"json", "json.decoder", "json.scanner", "json.encoder", "shlex"}

# the names the package exported when it imported every module eagerly
PUBLIC_NAMES = """
    HOLE SizeLimitError all_factors all_subsequences bar fibonacci_number fibonacci_word
    is_subsequence prefix_table thue_morse rle_decode rle_encode Slp SlpBuilder slp_expand
    slp_length slp_size strict_binary TwoSatFormula two_sat_solve attractor_construct
    is_attractor local_period_holds rle_find rle_shortest_cover two_anticover
    count_subsequences distinguishing_subsequence hard_pair lcs longest_palindromic_subsequence
    max_subs min_sub s_cover_check s_cover_tables shortest_s_cover_naive HammingCode
    PairPartition compress_pairs entropy hamming_build hamming_correct hamming_encode
    huffman_cost pairing_partition shrink_runs fib_factor_test grasshopper_cubefree_word
    grasshopper_squarefree_word list_squarefree list_squarefree_random recover_square
    ternary_no_palprefix tm_factor_test unbordered_counts unbordered_weighted
    idempotent_equivalent psi gen_sequence rho_stream run_generator embed_permutation shape
    superpattern_word universal_shape_word is_ring_word ring_word Gf2Poly LfsrSpec
    debruijn_two_cycles is_primitive lfsr lfsr_gen nth_gen_word SuffixTree suffix_tree
    sub_table WildcardIndex wildcard_index wildcard_search CartesianTree cartesian_tree
    ct_border ct_match parent_distance pd_window
""".split()


def loads(*argv, stdin="", flags=("-I",)):
    """(modules ``import stringology.cli`` loads, modules ``main(argv)`` adds)."""
    out = subprocess.run([sys.executable, *flags, "-c", CHILD, str(SRC), *argv], input=stdin,
                         capture_output=True, text=True, check=True, timeout=60)
    imported, added = out.stdout.split("\n")[:2]
    return set(imported.split()), set(added.split())


def package(modules):
    return {m for m in modules if m.partition(".")[0] == "stringology"}


def test_cli_import_loads_only_words():
    imported, _ = loads("--help")
    assert package(imported) == {"stringology", "stringology.cli", "stringology.words"}
    assert not imported & HEAVY
    assert not imported & LAZY


def test_cli_import_loads_no_typing_without_site():
    # -S skips site, whose .pth files may import typing on some hosts; a stock
    # interpreter preloads none of typing, re, enum, functools or collections
    imported, _ = loads("--help", flags=("-I", "-S"))
    assert package(imported) == {"stringology", "stringology.cli", "stringology.words"}
    assert "typing" not in imported


def test_only_a_batch_text_line_loads_shlex():
    _, added = loads("wildcard", "search", "abaab", "a?a")
    assert "shlex" not in added
    _, added = loads("batch", stdin="wildcard search abaab 'a?a'\n")
    assert "shlex" in added and not added & (LAZY - {"shlex"})


def test_help_and_a_words_command_load_nothing_more():
    for argv in (["--help"], ["word", "thue-morse", "3"]):
        _, added = loads(*argv)
        assert added == set(), argv


def test_a_command_loads_only_its_modules():
    _, added = loads("subs", "count", "abab")
    assert package(added) == {"stringology.subseq"}


def test_every_op_resolves_in_the_module_its_row_names():
    from stringology import cli

    for cmd in cli.REGISTRY:
        for op, module in zip(cmd.ops, cmd.modules):
            if module:
                assert getattr(cli, op).__module__ == f"stringology.{module}", op
    with pytest.raises(AttributeError):
        cli.selftest  # the selftest row's op is a module, not a function


def test_every_public_name_resolves():
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES)
    assert sorted(PUBLIC_NAMES) == stringology.__all__
    listed = dir(stringology)
    for name in PUBLIC_NAMES:
        assert getattr(stringology, name) is not None, name
        assert name in listed, name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        stringology.no_such_name
    with pytest.raises(AttributeError):
        stringology.__getattr__("oracles")  # a submodule, not a public name
    from stringology import oracles

    assert oracles.__name__ == "stringology.oracles"
