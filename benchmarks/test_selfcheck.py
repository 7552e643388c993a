"""Toy-size self-check of the benchmark harness.

    python3 -m pytest -q benchmarks

Runs every workload at toy size, untraced and traced, and checks that the
summary carries exactly the metrics BENCHMARK.json names, with their units,
and that every check rejects a plausibly corrupted answer of its kind.
"""

from __future__ import annotations

import json
import random
import sys
from types import SimpleNamespace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_library()

import clilines  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RECORD_KEYS = {"workload", "seed", "trace", "layer", "metric", "unit", "family", "size",
               "samples", "median", "percentile", "value"}


def toy(name, trace, tamper=None):
    return run.run_workload(name, seed=3, seconds=0.2, trace=trace, scale=workloads.TOY,
                            tamper=tamper)


def test_every_metric_is_emitted_with_its_unit():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            records, summary = toy(name, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {k: v["unit"] for k, v in summary["metrics"].items()} == want, (name, trace)
            assert all(isinstance(v["value"], (int, float)) for v in summary["metrics"].values())
            assert summary["correct"] and summary["attempted"] >= 1
            assert all(set(r) == RECORD_KEYS and r["seed"] == 3 for r in records)


def perturb(value):
    """The JSON value with one field changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "a"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: perturb(value[key])}
    return 0


def corrupt(op, result):
    """A wrong answer of the same shape as ``result``."""
    if op.name in ("wildcard_search", "is_attractor"):
        return not result
    if op.name == "lcs":  # one aligned pair dropped
        a, b = result
        return a[1:], b[1:]
    if op.name == "longest_palindromic_subsequence":  # first symbol changed
        return [result[0] ^ 1] + list(result[1:])
    if op.name == "suffix_tree":  # one leaf at the wrong depth
        leaf = next(v for v in range(1, len(result.parent)) if result.is_leaf(v))
        result.depth[leaf] += 1
        return result
    if op.name == "wildcard_index":  # an index past the size gate
        return SimpleNamespace(node_count=lambda: 100 * result.node_count())
    if op.name == "sub_table":
        sub, dif = result
        return sub[:-1] + [sub[-1] + 1], dif
    if op.name == "cli":  # same exit status, one field changed
        rc, text = result
        rec = json.loads(text)
        if rc == 2:
            rec["ok"] = True
        else:
            rec["value"] = perturb(rec["value"])
        return rc, json.dumps(rec) + "\n"
    raise AssertionError(f"no corruption for {op.name}")


def test_every_check_rejects_a_corrupted_answer():
    for name in workloads.WORKLOADS:
        state: dict = {}
        for op in workloads.WORKLOADS[name](3, workloads.TOY):
            result = op.call(state)
            assert op.check(result), (name, op.name, op.family)
            # a wrong answer, not a raised exception
            assert op.check(corrupt(op, result)) is False, (name, op.name, op.family, result)


def test_corrupted_answers_make_the_run_incorrect():
    for name in workloads.WORKLOADS:
        _, summary = toy(name, 0, tamper=corrupt)
        assert summary["failed"] == summary["attempted"], name
        assert summary["correct"] is False


def test_bit_vector_lcs_length_matches_plain_dp():
    rng = random.Random(0)
    for _ in range(300):
        u = [rng.randrange(3) for _ in range(rng.randint(0, 40))]
        v = [rng.randrange(3) for _ in range(rng.randint(0, 40))]
        assert workloads.lcs_length(u, v) == clilines.lcs_len(u, v)


def test_tracer_wraps_every_import_site_and_restores_them():
    from stringology import cli, subcount, subseq, suffixtree, wildcard

    original = suffixtree.suffix_tree
    tracer = tracing.Tracer()
    with tracer.installed(tracing.traced_functions()):
        for module in (cli, subcount, suffixtree, wildcard):
            assert module.suffix_tree is not original
        subseq.longest_palindromic_subsequence([0, 1, 1, 0, 1])
    assert all(m.suffix_tree is original for m in (cli, subcount, suffixtree, wildcard))
    (outer, *_, parent0, _, _), (inner, *_, parent1, _, cells) = tracer.spans
    assert (outer, inner) == ("subseq.longest_palindromic_subsequence", "subseq.lcs")
    assert (parent0, parent1, cells) == (-1, 0, 25)
