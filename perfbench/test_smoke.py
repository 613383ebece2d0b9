"""Tiny-size runs of every workload, traced and untraced, so the harness cannot rot.

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import tracing
import workloads

TINY = {
    "kernel_k1000": {"k": 40, "pool": 3},
    "walk_k200": {"k": 20, "half": 3, "pool": 2},
    "census_small": {"chunk": 5, "pool": 3},
    "skein_gordian": {"k": 10, "s": 3, "k_delta": 40, "pool": 3},
}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_declared_workload_is_implemented():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run(name, trace):
    result, report = run.run(name, seed=3, seconds=0.05, trace=trace, sizes=TINY[name])
    assert result["correct"], report["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_failed_checks_are_counted_and_never_abort():
    wl = workloads.Kernel(run.load_library(), 5, str(run.OUT), **TINY["kernel_k1000"])
    times, ref_times, failures = run.measure(wl, ["0" * 64], count=4)
    assert len(times) == len(ref_times) == 4
    assert [i for i, _ in failures] == [0, 1, 2, 3]


def test_tracer_installs_and_restores():
    lib = run.load_library()
    assert tracing.installed_wrappers(lib) == 0
    original = lib.singular.compute_H
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        assert tracing.installed_wrappers(lib) > 0
        assert lib.singular.compute_H is not original
        d = lib.singular.random_singular_diagram(6, 2, 1)
        tracer.begin_op(0)
        lib.singular.singular_H(d)
        tracer.end_op()
    finally:
        tracer.restore()
    assert tracing.installed_wrappers(lib) == 0
    assert lib.singular.compute_H is original
    calls, self_s = tracer.totals()
    assert calls["singular.singular_H"] == 1
    assert calls["singular.compute_H"] == 4
    assert calls["invariant.compute_H"] == 4
    assert self_s["singular.singular_H"] >= 0


def test_oracle_and_input_stats_match_the_library():
    lib = run.load_library()
    rng = random.Random(11)
    for _ in range(300):
        d = lib.gauss.random_diagram(rng.randint(0, 12), rng.randrange(2 ** 31))
        code = lib.gauss.serialize(d)
        for policy in lib.zpoly.ReductionPolicy:
            want = lib.invariant.render(lib.invariant.compute_H(d, policy), "json")
            assert oracle.compute_H(code, policy.value) == want
        ch = oracle.chords(code)
        assert workloads.degrees(ch) == [oracle.degree(ch, i) for i in range(len(ch))]
        brute = sum(1 for i in range(len(ch)) for j in range(i + 1, len(ch))
                    if oracle.side(ch[i], ch[j]))
        assert workloads.crossing_pairs(ch) == brute


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
