"""Combinatorics-on-words toolkit: text algorithms with brute-force cross-checks.

The public names below are imported on first use (PEP 562), so that
``import stringology`` loads no library module until a name is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "words": ("HOLE", "SizeLimitError", "all_factors", "all_subsequences", "bar",
              "fibonacci_number", "fibonacci_word", "is_subsequence", "prefix_table",
              "thue_morse"),
    "rle": ("rle_decode", "rle_encode"),
    "slp": ("Slp", "SlpBuilder", "slp_expand", "slp_length", "slp_size", "strict_binary"),
    "twosat": ("TwoSatFormula", "two_sat_solve"),
    "regularities": ("attractor_construct", "is_attractor", "local_period_holds", "rle_find",
                     "rle_shortest_cover", "two_anticover"),
    "subseq": ("count_subsequences", "distinguishing_subsequence", "hard_pair", "lcs",
               "longest_palindromic_subsequence", "max_subs", "min_sub", "s_cover_check",
               "s_cover_tables", "shortest_s_cover_naive"),
    "codec": ("HammingCode", "PairPartition", "compress_pairs", "entropy", "hamming_build",
              "hamming_correct", "hamming_encode", "huffman_cost", "pairing_partition",
              "shrink_runs"),
    "avoidance": ("fib_factor_test", "grasshopper_cubefree_word", "grasshopper_squarefree_word",
                  "list_squarefree", "list_squarefree_random", "recover_square",
                  "ternary_no_palprefix", "tm_factor_test", "unbordered_counts",
                  "unbordered_weighted"),
    "freeband": ("idempotent_equivalent", "psi"),
    "permgen": ("gen_sequence", "rho_stream", "run_generator"),
    "patterns": ("embed_permutation", "shape", "superpattern_word", "universal_shape_word"),
    "rings": ("is_ring_word", "ring_word"),
    "gf2": ("Gf2Poly", "LfsrSpec", "debruijn_two_cycles", "is_primitive", "lfsr", "lfsr_gen",
            "nth_gen_word"),
    "suffixtree": ("SuffixTree", "suffix_tree"),
    "subcount": ("sub_table",),
    "wildcard": ("WildcardIndex", "wildcard_index", "wildcard_search"),
    "cartesian": ("CartesianTree", "cartesian_tree", "ct_border", "ct_match", "parent_distance",
                  "pd_window"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines a public name and keep the name here.
    Any other name is an AttributeError, so ``from stringology import
    oracles`` still imports the submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
