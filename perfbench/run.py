"""Benchmark harness: one workload, one seed, a closed loop for --seconds.

    python3 perfbench/run.py --workload kernel_k1000 --seed 0 --seconds 25 --trace 0

One caller, no threads: each op starts when the previous one has been
timed and checked.  Set-up (import, input generation, digest load and
one untimed warm-up op) runs SETUP_REPS times, each re-importing the
library from `src/`.

A shared host drifts in speed by a fifth or more over minutes, so every
timing is scaled by a reference measured next to it: a fixed task, the
benchmark's own oracle on a fixed 16-chord code, that slows with the
host and never with the library.  After every op, outside its timer,
the loop times `wl.ref_units` reference units; after every set-up it
times SETUP_REF_UNITS.  `ops_per_s_norm` and `setup_s` are the rate and
the median set-up time on a host on which one unit takes REF_UNIT_S.
The raw figures and the measured unit time are in the report line.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1
it first runs untraced for half the time, then installs the tracing
wrappers and replays exactly the same ops; the per-layer metrics come
from that replay, and `trace.overhead_frac` compares the two passes,
each scaled by its own reference time.

The last line of standard output is the result object; the line before
it holds the environment and details such as the tail quantile.  Both,
plus the spans of a traced run, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPS = 5
REF_K = 16
REF_UNIT_S = 0.001          # nominal seconds of one reference unit
SETUP_REF_UNITS = 60        # reference units timed after each set-up
TAIL_BEYOND = 10            # samples beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1


def reference_code(k=REF_K) -> str:
    """A fixed k-chord Gauss code made with the benchmark's own RNG, not the library's."""
    rng = random.Random("reference:0")
    events = [("O", c) for c in range(1, k + 1)] + [("U", c) for c in range(1, k + 1)]
    rng.shuffle(events)
    signs = {c: rng.choice("+-") for c in range(1, k + 1)}
    return " ".join("%s%d%s" % (end, c, signs[c]) for end, c in events)


REF_CODE = reference_code()


def reference(units: int):
    """The fixed reference task; its time tracks the host's speed, not the library's."""
    for _ in range(units):
        oracle.compute_H(REF_CODE, "quotient")


def load_library():
    """Fresh import of knotoidh from src/, never from anywhere else."""
    for name in [m for m in sys.modules if m == "knotoidh" or m.startswith("knotoidh.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("knotoidh")
    if Path(package.__file__).resolve().parent != SRC / "knotoidh":
        raise ImportError("knotoidh was imported from %s, not %s" % (package.__file__, SRC))
    mods = {m: importlib.import_module("knotoidh." + m) for m in tracing.MODULES}
    return types.SimpleNamespace(package=package, **mods)


def load_digests(name, seed, sizes):
    """Committed per-slot digests, if they apply to this run, else None."""
    with open(DIGESTS, encoding="utf-8") as fh:
        data = json.load(fh)
    if sizes or seed != data["seed"]:
        return None
    return data["workloads"].get(name)


def setup(name, seed, sizes, rep=0):
    """Import, inputs, digests and one untimed warm-up op.

    Each repetition warms up with a different op, so the median set-up
    time does not hang on the cost of a single seeded input.
    """
    lib = load_library()
    wl = workloads.WORKLOADS[name](lib, seed, str(OUT), **(sizes or {}))
    digests = load_digests(name, seed, sizes)
    warm = wl.warm_op(rep)
    try:
        wl.check(warm, wl.op(warm))
    except Exception:  # a broken op fails every measured op; the run still reports
        pass
    wl.reset()
    return lib, wl, digests


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _describe(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def measure(wl, digests, seconds=None, count=None, tracer=None):
    """Closed loop over ops 0, 1, ...: for `seconds` (and MIN_OPS), or `count` ops.

    Returns per-op seconds, the seconds of the `wl.ref_units` reference
    units run after each op, and the failures as (op, reason).  A failed
    check or an exception counts the op as failed and the loop goes on.
    """
    wl.reset()
    times, ref_times, failures = [], [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while (i < count) if count is not None else (i < MIN_OPS or clock() - start < seconds):
        if tracer:
            tracer.begin_op(i)
        t0 = clock()
        try:
            result = wl.op(i)
        except Exception as exc:  # the run must go on; the op counts as failed
            result, fails = None, [_describe(exc)]
        times.append(clock() - t0)
        if tracer:
            tracer.end_op()
        t0 = clock()
        reference(wl.ref_units)
        ref_times.append(clock() - t0)
        if result is not None:
            try:
                text, fails = wl.check(i, result)
            except Exception as exc:
                text, fails = "", [_describe(exc)]
            if digests is not None and digest(text) != digests[i % len(digests)]:
                fails.append("digest mismatch at slot %d" % (i % len(digests)))
        if fails:
            failures.append((i, fails[0]))
        i += 1
    return times, ref_times, failures


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def ref_unit_s(ref_times, units):
    """Mean seconds of one reference unit over a pass."""
    return sum(ref_times) / (len(ref_times) * units)


def end_to_end(times, ref_times, units, setup_times, setup_scaled):
    ordered = sorted(times)
    n = len(ordered)
    unit_s = ref_unit_s(ref_times, units)
    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "ops_per_s_norm": metric(n / sum(times) * unit_s / REF_UNIT_S, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Reported, not declared: the raw rate follows the host's drift, and when
    # the host flips between a fast and a slow state within a run, the order
    # statistics jump between the two; their run-to-run spreads exceed the
    # largest bound allowed.
    detail = {"ops_per_s": n / sum(times), "ref_unit_ms": unit_s * 1e3,
              "ref_share": sum(ref_times) / (sum(ref_times) + sum(times)),
              "op_p50_ms": statistics.median(times) * 1e3,
              "op_p50_ms_norm": statistics.median(times) * 1e3 * REF_UNIT_S / unit_s,
              "op_tail_ms_norm": ordered[n - 1 - TAIL_BEYOND] * 1e3 * REF_UNIT_S / unit_s,
              "op_tail_ms": ordered[n - 1 - TAIL_BEYOND] * 1e3,
              "tail_quantile": (n - TAIL_BEYOND) / n, "samples": n,
              "setup_s_each": setup_times, "setup_s_raw": statistics.median(setup_times)}
    return metrics, detail


def per_layer(wl, tracer, n_ops, overhead):
    calls, self_s = tracer.totals()
    memo = {}

    def stats_of(code):
        if code not in memo:
            memo[code] = workloads.input_stats(code)
        return memo[code]

    per_slot = {}
    for i in range(n_ops):
        slot = i % wl.slots
        if slot not in per_slot:
            ins = [sum(col) for col in zip(*map(stats_of, wl.op_inputs(i)))]
            scanned = sum(stats_of(c)[1] * times for c, times in wl.scanned(i))
            per_slot[slot] = ins + [scanned]
    chords, pairs, distinct, scanned = (
        sum(per_slot[i % wl.slots][f] for i in range(n_ops)) / n_ops for f in range(4))

    def per_op_calls(name):
        return calls.get(name, 0) / n_ops

    def per_op_ms(name):
        return self_s.get(name, 0.0) * 1e3 / n_ops

    def per_scanned(value):
        return value / scanned if scanned else 0.0

    m = {}
    for name in ("gauss.chords", "gauss.parse_gauss_code", "invariant.compute_H",
                 "moves.detect_r2", "moves.detect_r3", "moves.apply_move"):
        m[name + ".calls"] = metric(per_op_calls(name), "count")
        m[name + ".self_ms"] = metric(per_op_ms(name), "ms")
    for name in ("gauss.load_gko", "invariant.render", "cli.main", "moves.random_walk",
                 "singular.singular_H", "gordian.crossing_change_delta", "gordian.decompose"):
        m[name + ".self_ms"] = metric(per_op_ms(name), "ms")
    for name in ("zpoly.ZPoly", "zpoly.reduce_exponent", "singular.compute_H",
                 "gordian.index_function"):
        m[name + ".calls"] = metric(per_op_calls(name), "count")
    m["invariant.compute_H.ns_per_crossing"] = metric(
        per_scanned(per_op_ms("invariant.compute_H") * 1e6), "ns")
    m["zpoly.reduce_exponent.calls_per_crossing"] = metric(
        per_scanned(per_op_calls("zpoly.reduce_exponent")), "ratio")
    m["input.chords_per_op"] = metric(chords, "count")
    m["input.crossing_pairs_per_op"] = metric(pairs, "count")
    m["input.distinct_degrees_per_op"] = metric(distinct, "count")
    m["trace.overhead_frac"] = metric(overhead, "ratio")
    return m


def run(name, seed, seconds, trace, sizes=None):
    """One benchmark run; returns (result object, report with details)."""
    setup_times, setup_scaled = [], []
    wl = None
    for rep in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        lib, wl, digests = setup(name, seed, sizes, rep)
        setup_s = time.perf_counter() - t0
        gc.collect()    # so set-up's garbage is not collected inside the reference
        t0 = time.perf_counter()
        reference(SETUP_REF_UNITS)
        unit_s = (time.perf_counter() - t0) / SETUP_REF_UNITS
        setup_times.append(setup_s)
        setup_scaled.append(setup_s * REF_UNIT_S / unit_s)
    report = {"digests_checked": digests is not None}
    try:
        if not trace:
            times, ref_times, failures = measure(wl, digests, seconds=seconds)
            metrics, detail = end_to_end(times, ref_times, wl.ref_units, setup_times, setup_scaled)
            report.update(detail)
            wrappers = tracing.installed_wrappers(lib)
        else:
            times, ref_times, failures = measure(wl, digests, seconds=seconds / 2)
            tracer = tracing.Tracer(lib)
            tracer.install()
            try:
                traced, traced_ref, traced_failures = measure(
                    wl, digests, count=len(times), tracer=tracer)
            finally:
                tracer.restore()
            wrappers = tracing.installed_wrappers(lib)
            # Each pass is scaled by its own reference time, so host drift
            # between the two passes does not read as tracing overhead.
            overhead = (sum(traced) / ref_unit_s(traced_ref, wl.ref_units)) / (
                sum(times) / ref_unit_s(ref_times, wl.ref_units)) - 1
            metrics = per_layer(wl, tracer, len(times), overhead)
            failures += traced_failures
            times += traced
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / ("spans-%s-seed%d.jsonl.gz" % (name, seed))
            tracer.write(spans_path, tracer.spans[0][1] if tracer.spans else 0.0)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["span_count"] = len(tracer.spans)
    finally:
        wl.close()
    if wrappers:
        failures.append((-1, "%d tracing wrappers left installed" % wrappers))
    failed_ops = len({i for i, _ in failures if i >= 0})
    report["failed_frac"] = failed_ops / len(times)
    report["failures"] = [{"op": i, "reason": r} for i, r in failures[:20]]
    result = {"correct": not failures, "attempted": len(times), "failed": failed_ops,
              "metrics": metrics}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knotoidh" / "__init__.py").is_file():
        print("error: no knotoidh sources at %s" % SRC, file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    report["environment"] = environment(args)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
