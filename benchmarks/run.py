"""Benchmark of the stringology library and its command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py [--seed N] [--seconds S]

The first form runs one workload in this process and prints one JSON record
per line; the last line is the summary ``{correct, attempted, failed,
metrics}``.  With ``--trace 0`` the summary holds the end-to-end metrics,
measured with no wrappers installed.  With ``--trace 1`` untraced and traced
passes alternate, and the summary holds the per-layer metrics of the traced
passes plus ``trace.overhead``, the ratio of the two median pass times.

The second form runs every workload, each in its own process, untraced and
then traced, and prints the end-to-end table and the per-layer table.

Workloads, metrics and the layer-to-metric mapping are described in
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_IMPORTS = 21
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import stringology.cli; print(time.perf_counter() - t)")

END_TO_END = {"setup_s": "s", "run_s": "s", "op_us": "us", "peak_rss_mb": "MB"}


def import_library():
    """Import the library from this checkout's ``src``, or exit with status 1."""
    if not (SRC / "stringology" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library at {SRC / 'stringology'}")
    sys.path.insert(0, str(SRC))
    import stringology
    if Path(stringology.__file__).resolve().parent != SRC / "stringology":
        sys.exit(f"benchmark: imported stringology from {stringology.__file__}")


def import_seconds() -> float:
    """Time of a cold ``import stringology.cli`` in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", IMPORT_CHILD, str(SRC)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


# ------------------------------------------------------------ measuring


def run_pass(ops, pass_no, tracer=None, tamper=None):
    """Run every op once.  Returns (seconds per op, ok per op).

    An op is ok when it returns and its check accepts the answer; an op that
    raises, or whose check raises, has failed.  ``tamper(op, result)``, used
    by the self-check, replaces an answer before it is checked."""
    gc.collect()  # every pass starts from the same collector state
    state: dict = {}
    lat, ok = [0.0] * len(ops), [False] * len(ops)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = pass_no * len(ops) + i
        t0 = perf_counter()
        try:
            if tracer is not None and op.root:
                result = tracer.call(op.root, op.call, (state,))
            else:
                result = op.call(state)
        except Exception:  # a failed operation
            lat[i] = perf_counter() - t0
            continue
        lat[i] = perf_counter() - t0
        if tamper is not None:
            result = tamper(op, result)
        try:
            ok[i] = bool(op.check(result))
        except Exception:  # a check that raises rejects the answer
            pass
    return lat, ok


def counts(passes):
    """(attempted, failed): an op fails when it raises or its answer is wrong."""
    return sum(len(ok) for _, ok in passes), sum(ok.count(False) for _, ok in passes)


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def tail_q(n):
    """p99, or failing that the highest listed percentile, with at least ten
    samples beyond it."""
    for q in (99, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            return q
    return None


class Report:
    """Self-describing records: workload, seed, layer, fixture, unit, samples."""

    def __init__(self, workload, seed, trace):
        self.head = {"workload": workload, "seed": seed, "trace": trace}
        self.records = []

    def add(self, layer, metric, unit, values, family=None, size=None, q=None, value=None):
        rec = dict(self.head, layer=layer, metric=metric, unit=unit, family=family, size=size,
                   samples=len(values), median=statistics.median(values),
                   percentile=q, value=value)
        self.records.append(rec)
        return rec


def end_to_end(report, name, ops, passes, setup, rss, unit_kind):
    """Gated values use each op's fastest repeat: the host's speed swings by
    up to 2x within seconds, and an op's fastest run is the one least slowed
    by other load (the reasoning of ``timeit``).  Each record's ``median``
    still gives the raw samples' median.

    ``op_us`` is the median over queries or lines of each one's fastest
    repeat.  The kernel calls span 0.1 ms to 0.15 s, so a median of them would
    track whichever call lies in the middle; on kernels ``op_us`` is their
    geometric mean instead, which every call moves alike."""
    best = [min(lat[i] for lat, _ in passes) for i in range(len(ops))]
    m = {"run_s": report.add("end_to_end", "run_s", "s", [sum(lat) for lat, _ in passes],
                             value=sum(best))["value"]}
    unit = [lat[i] * 1e6 for lat, _ in passes for i, op in enumerate(ops) if op.kind == unit_kind]
    best_unit = [best[i] * 1e6 for i, op in enumerate(ops) if op.kind == unit_kind]
    if unit_kind == "kernel":
        m["op_us"] = report.add("end_to_end", "kernel_geomean_us", "us", unit,
                                value=statistics.geometric_mean(best_unit))["value"]
    else:
        m["op_us"] = report.add("end_to_end", f"{unit_kind}_p50_us", "us", unit, q=50,
                                value=statistics.median(best_unit))["value"]
    q = tail_q(len(unit))
    if q is not None:
        report.add("end_to_end", f"{unit_kind}_p{q}_us", "us", unit, q=q,
                   value=percentile(unit, q))
    if name == "index-families":
        builds = [i for i, op in enumerate(ops) if op.kind == "build"]
        report.add("end_to_end", "build_s", "s", [sum(lat[i] for i in builds) for lat, _ in passes],
                   value=sum(best[i] for i in builds))
    m["setup_s"] = report.add("end_to_end", "setup_s", "s", setup)["median"]
    attempted, failed = counts(passes)
    report.add("end_to_end", "error_rate", "ratio", [failed / attempted])
    m["peak_rss_mb"] = report.add("end_to_end", "peak_rss_mb", "MB", [rss])["median"]

    per_fixture = {}
    for lat, _ in passes:
        for i, op in enumerate(ops):
            if op.kind in ("build", "kernel"):
                per_fixture.setdefault((op.name, op.family, op.size), []).append(lat[i])
    for (fn, family, size), values in per_fixture.items():
        report.add(fn, f"{fn}_s", "s", values, family=family, size=size, value=min(values))
    return {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(report, ops, plain, traced, tracer):
    import tracing
    from workloads import STRUCTURED

    op_index = {p * len(ops) + i: (p, op.family, op.size)
                for p in range(len(traced)) for i, op in enumerate(ops)}
    totals = tracing.per_pass_totals(tracer.spans, op_index)
    for p, (_, ok) in enumerate(traced):
        for i, op in enumerate(ops):
            if op.kind == "line" and not ok[i]:
                totals[p][("cli.failed", op.family, op.size)] += 1
    passes = [totals[p] for p in range(len(traced))]

    per_metric = defaultdict(lambda: [0.0] * len(passes))
    per_fixture = defaultdict(lambda: defaultdict(lambda: [0.0] * len(passes)))
    for p, cells in enumerate(passes):
        for (metric, family, size), value in cells.items():
            per_metric[metric][p] += value
            per_fixture[metric][(family, size)][p] += value

    metrics = {}
    derived = {"wildcard.structured_gap", "trace.overhead"}
    for metric in sorted(set(tracing.PER_LAYER) - derived):
        unit = tracing.PER_LAYER[metric]
        layer = metric.split(".", 1)[0]
        rec = report.add(layer, metric, unit, per_metric[metric])
        metrics[metric] = {"value": rec["median"], "unit": unit}
        fixtures = per_fixture[metric]
        for (family, size), values in sorted(fixtures.items(), key=str) if len(fixtures) > 1 else ():
            report.add(layer, metric, unit, values, family=family, size=size)

    gaps = tracing.structured_gaps(totals, STRUCTURED, "random-binary")
    for size, gap in sorted(gaps.items()):
        report.add("wildcard", "wildcard.structured_gap", "ratio", [gap], size=size)
    metrics["wildcard.structured_gap"] = {"value": max(gaps.values(), default=0.0), "unit": "ratio"}
    overhead = (statistics.median(sum(lat) for lat, _ in traced)
                / statistics.median(sum(lat) for lat, _ in plain))
    report.add("trace", "trace.overhead", "ratio", [overhead])
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return dict(sorted(metrics.items()))


def run_workload(name, seed, seconds, trace, scale=None, tamper=None):
    """Build the workload, measure it for ``seconds``, and return
    (records, summary).  At least one pass runs (one of each kind when traced)."""
    import tracing
    import workloads

    report = Report(name, seed, trace)
    ops = workloads.WORKLOADS[name](seed, scale or workloads.FULL)
    gc.collect()
    gc.freeze()  # keep fixtures and expected answers out of the program's collections
    if not trace:
        import_seconds()  # discarded: writes the bytecode cache
        setup = []
        start = perf_counter()
        passes = [run_pass(ops, 0, tamper=tamper)]
        # the program's peak, before the harness has kept many passes' records
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while perf_counter() < start + seconds:
            passes.append(run_pass(ops, 0, tamper=tamper))
            # imports spread over the run, so that their median spans the
            # host's slow and fast spells rather than falling in one of them
            while len(setup) < min(SETUP_IMPORTS, SETUP_IMPORTS * (perf_counter() - start) / seconds):
                setup.append(import_seconds())
        while len(setup) < SETUP_IMPORTS:
            setup.append(import_seconds())
        metrics = end_to_end(report, name, ops, passes, setup, rss, workloads.UNIT_KIND[name])
    else:
        # alternate, so that drift in machine speed affects both sides alike
        tracer, functions = tracing.Tracer(), tracing.traced_functions()
        plain, traced = [], []
        deadline = perf_counter() + seconds
        while not traced or perf_counter() < deadline:
            plain.append(run_pass(ops, 0, tamper=tamper))
            with tracer.installed(functions):
                traced.append(run_pass(ops, len(traced), tracer, tamper))
        metrics = per_layer(report, ops, plain, traced, tracer)
        passes = plain + traced
    attempted, failed = counts(passes)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report.records, summary


# ------------------------------------------------------------ all workloads

# a tail percentile record (p99, or lower with fewer samples) sorts as <kind>_tail_us
TABLE_ORDER = ("setup_s", "run_s", "build_s", "query_p50_us", "query_tail_us", "line_p50_us",
               "line_tail_us", "kernel_geomean_us", "kernel_tail_us", "error_rate", "peak_rss_mb")


def run_all(seed, seconds):
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode:
                sys.stderr.write(out.stderr)
                return out.returncode
            rows[(name, trace)] = [json.loads(line) for line in out.stdout.splitlines()]
            s = rows[(name, trace)][-1]
            print(f"# {name} trace={trace}: correct={s['correct']} "
                  f"attempted={s['attempted']} failed={s['failed']}")

    def order(r):
        name = r["metric"]
        if r["percentile"] not in (None, 50):
            name = name.rsplit("_p", 1)[0] + "_tail_us"
        return TABLE_ORDER.index(name) if name in TABLE_ORDER else len(TABLE_ORDER)

    print(f"\nEnd to end (seed {seed}, {seconds:g} s per run, tracing off)")
    print(f"{'workload':16} {'metric':16} {'value':>14} {'unit':6} samples")
    for name in workloads.WORKLOADS:
        recs = sorted((r for r in rows[(name, 0)][:-1] if r["layer"] == "end_to_end"), key=order)
        for r in recs:
            v = r["median"] if r["value"] is None else r["value"]
            print(f"{name:16} {r['metric']:16} {v:14.6g} {r['unit']:6} {r['samples']}")
    print(f"\nPer layer (seed {seed}; traced passes, per-pass totals, median over passes)")
    print(f"{'workload':16} {'metric':30} {'value':>14} {'unit':6} fixture")
    for name in workloads.WORKLOADS:
        summary = rows[(name, 1)][-1]["metrics"]
        for r in rows[(name, 1)][:-1]:
            per_size_gap = r["metric"] == "wildcard.structured_gap" and r["size"] is not None
            if (r["metric"] in summary and r["family"] is None) or per_size_gap:
                fixture = f"n={r['size']}" if r["size"] is not None else ""
                print(f"{name:16} {r['metric']:30} {r['median']:14.6g} {r['unit']:6} {fixture}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()
    import workloads
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    records, summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for rec in records:
        print(json.dumps(rec))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
