"""Vouch for the committed digests; nothing here is timed.

    python3 perfbench/verify.py            # check digests.json
    python3 perfbench/verify.py --record   # rewrite it from the library, then check

Every slot of every workload is run at the digest seed with the default
sizes, its seed-independent checks must pass, and its output must hash
to the committed digest.  The brute-force oracle then recomputes, from
the formula alone, every census_small slot and the kernel_k1000 slots in
ORACLE_KERNEL_SLOTS under their policies, and must hash to the same
digests.  walk_k200 and skein_gordian digests rest on their
seed-independent checks (walk cycles preserve quotient H; the skein sums
vanish or not as the order-one theorem says; a delta decomposes with
bound 1 and reconstructs exactly).
"""

from __future__ import annotations

import argparse
import json
import sys

import oracle
import run
import workloads

DIGEST_SEED = 0
ORACLE_KERNEL_SLOTS = (0, 1, 2, 3)


def library_digests(name):
    """Digest of every slot, and the failures of their checks."""
    wl = workloads.WORKLOADS[name](run.load_library(), DIGEST_SEED, str(run.OUT))
    try:
        out, failures = [], []
        for i in range(wl.slots):
            text, fails = wl.check(i, wl.op(i))
            failures += ["%s slot %d: %s" % (name, i, f) for f in fails]
            out.append(run.digest(text))
        return wl, out, failures
    finally:
        wl.close()


def oracle_digests(wl):
    """slot -> digest recomputed by the oracle, for the slots it covers."""
    if isinstance(wl, workloads.Census):
        return {i: run.digest("".join(oracle.compute_H(code, wl.modes[i % 2]) + "\n"
                                      for code in wl.chunks[i % len(wl.chunks)]))
                for i in range(wl.slots)}
    if isinstance(wl, workloads.Kernel):
        return {i: run.digest(oracle.compute_H(wl.codes[i % len(wl.codes)],
                                               wl.policies[i % 2].value))
                for i in ORACLE_KERNEL_SLOTS}
    return {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json from the library's outputs first")
    args = parser.parse_args(argv)
    problems = []
    recorded = {}
    with open(run.DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh)
    for name in workloads.WORKLOADS:
        wl, digests, failures = library_digests(name)
        problems += failures
        if args.record:
            recorded[name] = digests
        elif committed["seed"] != DIGEST_SEED or committed["workloads"].get(name) != digests:
            problems.append("%s: library output differs from the committed digests" % name)
        reference = digests if args.record else committed["workloads"].get(name, [])
        checked = oracle_digests(wl)
        for i, want in checked.items():
            if i >= len(reference) or reference[i] != want:
                problems.append("%s slot %d: oracle disagrees with the digest" % (name, i))
        print("%-14s %3d slots, %3d vouched by the oracle" % (name, len(digests), len(checked)))
    if args.record and not problems:
        with open(run.DIGESTS, "w", encoding="utf-8") as fh:
            json.dump({"seed": DIGEST_SEED, "workloads": recorded}, fh, indent=1)
            fh.write("\n")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else "%d problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
