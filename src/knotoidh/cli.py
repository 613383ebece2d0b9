"""Command line front end.

    knotoidh compute --code "O1+ O2- U1 U2"
    knotoidh compute --file diagrams.gko --mode literal --format json
    knotoidh compare <codeA> <codeB> --check reverse
    knotoidh gordian <codeA> <codeB> --json
    knotoidh selftest --samples 200 --seed 1

Exit codes: 0 success, 1 property failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .gauss import (GaussCodeError, crossing_change, load_gko, mirror,
                    parse_gauss_code, random_diagram, random_nested_diagram,
                    reverse, serialize)
from .gordian import (NotHomotopyForm, crossing_change_delta, decompose,
                      decomposition_json, gordian_lower_bound)
from .invariant import (compute_H, invariant_neg, invariant_sub, render,
                        subst_t_inverse, subst_z_inverse)
from .moves import random_walk
from .singular import verify_order_one
from .zpoly import ReductionPolicy

__all__ = ["main", "run_selftest"]


def _policy(args) -> ReductionPolicy:
    return ReductionPolicy(args.mode)


def _cmd_compute(args) -> int:
    if args.file is not None:
        diagrams = [d for _, d in load_gko(args.file)]
    else:
        diagrams = [parse_gauss_code(args.code)]
    policy = _policy(args)
    for d in diagrams:
        print(render(compute_H(d, policy, args.include_n0), args.format))
    return 0


def _cmd_compare(args) -> int:
    policy = _policy(args)
    ha = compute_H(parse_gauss_code(args.code_a), policy)
    hb = compute_H(parse_gauss_code(args.code_b), policy)
    print("equal" if ha == hb else "distinct")
    if args.check == "none":
        return 0
    if args.check == "reverse":
        predicted = subst_t_inverse(ha)
    else:
        predicted = invariant_neg(subst_z_inverse(subst_t_inverse(ha)))
    if hb == predicted:
        print("%s identity holds" % args.check)
        return 0
    print("%s identity violated" % args.check)
    return 1


def _cmd_gordian(args) -> int:
    policy = _policy(args)
    delta = invariant_sub(compute_H(parse_gauss_code(args.code_a), policy),
                          compute_H(parse_gauss_code(args.code_b), policy))
    try:
        dec = decompose(delta)
    except NotHomotopyForm as exc:
        if args.json:
            print(json.dumps({"bound": None, "per_n": {}, "pairs": [],
                              "status": "not_homotopy_form", "reason": str(exc)}))
        else:
            print("not_homotopy_form")
            print("reason: %s" % exc, file=sys.stderr)
        return 0
    if args.json:
        print(json.dumps(decomposition_json(dec)))
    else:
        print("bound: %d" % dec.bound)
    return 0


def run_selftest(samples: int = 100, max_chords: int = 6, seed: int = 0) -> dict:
    """Seeded property battery; `ok` ignores non-fatal Literal walk failures."""
    if max_chords < 2:
        raise ValueError("max_chords must be at least 2")
    rng = random.Random(seed)
    Q, L = ReductionPolicy.QUOTIENT, ReductionPolicy.LITERAL
    props = []

    def record(name, policy, failures, fatal, total):
        props.append({"name": name, "policy": policy.value, "samples": total,
                      "failures": len(failures), "fatal": fatal,
                      "examples": failures[:3]})

    walk_fail = {Q: [], L: []}
    for _ in range(samples):
        k = rng.randint(2, max_chords)
        d = random_diagram(k, rng.randrange(2 ** 31))
        walked = random_walk(d, steps=6, seed=rng.randrange(2 ** 31))
        for pol in (Q, L):
            if not (compute_H(d, pol) == compute_H(walked, pol)):
                walk_fail[pol].append(serialize(d))
    record("move_invariance", Q, walk_fail[Q], True, samples)
    record("move_invariance", L, walk_fail[L], False, samples)

    for pol in (Q, L):
        rev_fail, mir_fail = [], []
        for _ in range(samples):
            d = random_diagram(rng.randint(1, max_chords), rng.randrange(2 ** 31))
            h = compute_H(d, pol)
            if not (compute_H(reverse(d), pol) == subst_t_inverse(h)):
                rev_fail.append(serialize(d))
            if not (compute_H(mirror(d), pol)
                    == invariant_neg(subst_z_inverse(subst_t_inverse(h)))):
                mir_fail.append(serialize(d))
        record("reverse_identity", pol, rev_fail, True, samples)
        record("mirror_identity", pol, mir_fail, True, samples)

    for pol in (Q, L):
        rep = verify_order_one(samples=samples, max_chords=max_chords,
                               seed=rng.randrange(2 ** 31), policy=pol)
        fails = rep["failing"] if rep["two_singular_failures"] else []
        if not rep["witness_nonzero"]:
            fails = fails + ["singular_witness collapsed to zero"]
        record("order_one", pol, fails, True, samples)

    for pol in (Q, L):
        delta_fail = []
        for _ in range(samples):
            k = rng.randint(1, max_chords)
            d = random_diagram(k, rng.randrange(2 ** 31))
            cid = rng.randint(1, k)
            predicted = crossing_change_delta(d, cid, pol)
            actual = invariant_sub(compute_H(d, pol),
                                   compute_H(crossing_change(d, cid), pol))
            if not (predicted == actual):
                delta_fail.append("%s @%d" % (serialize(d), cid))
        record("crossing_change_delta", pol, delta_fail, True, samples)

    for pol in (Q, L):
        nested_fail = []
        for _ in range(samples):
            d = random_nested_diagram(rng.randint(1, max_chords),
                                      rng.randrange(2 ** 31))
            if not compute_H(d, pol).is_zero():
                nested_fail.append(serialize(d))
        record("nested_zero_height", pol, nested_fail, True, samples)

    ok = all(p["failures"] == 0 for p in props if p["fatal"])
    return {"seed": seed, "samples": samples, "max_chords": max_chords,
            "properties": props, "ok": ok}


def _cmd_selftest(args) -> int:
    if args.max_chords < 2:
        print("error: --max-chords must be at least 2", file=sys.stderr)
        return 2
    report = run_selftest(args.samples, args.max_chords, args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotoidh",
        description="Three-variable index invariant of knotoid Gauss diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=["quotient", "literal"],
                       default="quotient", help="exponent reduction policy")

    p = sub.add_parser("compute", help="evaluate H for one code or a .gko file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--code", help="Gauss code (empty string = trivial)")
    src.add_argument("--file", help=".gko collection, one `name: code` per line")
    add_mode(p)
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p.add_argument("--include-n0", action="store_true", dest="include_n0",
                   help="keep the gcd-0 stratum")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("compare", help="compare H of two codes")
    p.add_argument("code_a")
    p.add_argument("code_b")
    add_mode(p)
    p.add_argument("--check", choices=["reverse", "mirror", "none"], default="none",
                   help="also verify the symmetry identity for the pair")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gordian", help="Gordian distance lower bound for two codes")
    p.add_argument("code_a")
    p.add_argument("code_b")
    add_mode(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gordian)

    p = sub.add_parser("selftest", help="run the seeded property battery")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-chords", type=int, default=6, dest="max_chords")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GaussCodeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
