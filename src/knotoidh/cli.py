"""Command line front end.

    knotoidh compute --code "O1+ O2- U1 U2"
    knotoidh compute --file diagrams.gko --mode literal --format json
    knotoidh compare <codeA> <codeB> --check reverse
    knotoidh gordian <codeA> <codeB> --json
    knotoidh selftest --samples 200 --seed 1

Exit codes: 0 success, 1 property failure, 2 usage or parse error.  Every
exit 2 writes one `error: <message>` line to stderr and nothing to stdout;
a usage error (an unknown command or flag, a bad flag value, a missing
`--code`/`--file`) prints no usage block, while `--help` is unchanged.

`compute`, `compare` and `gordian` reach H through one function,
`_each_H`: it parses a code, computes every H before anything is printed,
and names the code or `.gko` entry that a `GaussCodeError` came from.
`gordian` prints the one report that `gordian._report` builds, whole as
JSON or as its text line; `compare` prints its identity verdict, `holds`
or `violated`, with one print.

Each choice and bound is declared once and read by the parser: `--mode`
from `ReductionPolicy`, `--format` from `render`'s format table, `--check`
from `_SYMMETRIES` (the kinds `symmetry_image` accepts) plus `none`, and
the `selftest` flags' least values from `_LEAST`, which `run_selftest`
checks too, once its counts have passed `_seeded`'s int gate.  Every int
flag (`--samples`, `--max-chords`, `--seed`) is read by `_canonical_int`:
an ASCII decimal with no leading zeros and `-` the only sign, so `--seed ٥`,
`1_0`, `+2`, `007` or ` 3 ` is a usage error, `invalid int value`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache, partial

from .gauss import (GaussCodeError, _seeded, bundled_diagrams, crossing_change,
                    load_gko, mirror, parse_gauss_code, random_diagram,
                    random_nested_diagram, reverse, serialize)
from .gordian import NotHomotopyForm, _report, crossing_change_delta, gordian_lower_bound
from .invariant import (_FORMATS, Invariant, compute_H, render, subst_t_inverse,
                        subst_z_inverse)
from . import moves
from .moves import format_trace, random_walk
from .singular import random_singular_diagram, singular_H
from .zpoly import ReductionPolicy

__all__ = ["PROPERTIES", "main", "run_selftest", "symmetry_image"]

# The symmetries symmetry_image predicts, in the order `--check` offers them.
_SYMMETRIES = ("reverse", "mirror")
# The least value of each run_selftest count; `selftest` checks its flags against it.
_LEAST = {"samples": 1, "max_chords": 2}


def _each_H(named, mode, include_n0=False) -> list:
    """H of every (name, code or diagram) pair under `mode`, all before any
    is printed, so one that fails rejects them all; a str is parsed here.

    A GaussCodeError is raised again as "<name>: <message>" unless the
    name is None.
    """
    policy = ReductionPolicy(mode)
    out = []
    for name, code in named:
        try:
            out.append(compute_H(parse_gauss_code(code) if isinstance(code, str) else code,
                                 policy, include_n0))
        except GaussCodeError as exc:
            if name is None:
                raise
            raise GaussCodeError("%s: %s" % (name, exc)) from None
    return out


def _cmd_compute(args) -> int:
    named = [(None, args.code)] if args.file is None else load_gko(args.file)
    for h in _each_H(named, args.mode, args.include_n0):
        print(render(h, args.format))
    return 0


def symmetry_image(h: Invariant, kind: str) -> Invariant:
    """Predicted H of the reversed ("reverse") or mirrored ("mirror") diagram."""
    if kind not in _SYMMETRIES:
        raise ValueError("unknown symmetry %r; expected one of %s"
                         % (kind, ", ".join(_SYMMETRIES)))
    h = subst_t_inverse(h)
    return h if kind == "reverse" else -subst_z_inverse(h)


def _cmd_compare(args) -> int:
    ha, hb = _each_H([("code_a", args.code_a), ("code_b", args.code_b)], args.mode)
    print("equal" if ha == hb else "distinct")
    if args.check == "none":
        return 0
    holds = hb == symmetry_image(ha, args.check)
    print("%s identity %s" % (args.check, "holds" if holds else "violated"))
    return 0 if holds else 1


def _cmd_gordian(args) -> int:
    ha, hb = _each_H([("code_a", args.code_a), ("code_b", args.code_b)], args.mode)
    report = _report(ha - hb)
    if args.json:
        print(json.dumps(report))
    elif report["bound"] is None:
        print(report["status"])
        print("reason: %s" % report["reason"], file=sys.stderr)
    else:
        print("bound: %d" % report["bound"])
    return 0


def _move_invariance(rng, max_chords, policy):
    d = random_diagram(rng.randint(2, max_chords), rng.randrange(2 ** 31))
    seed, trace = rng.randrange(2 ** 31), []
    walked = random_walk(d, 6, seed, trace=trace)
    if compute_H(d, policy) != compute_H(walked, policy):
        return "%s\nseed %d\n%s" % (serialize(d), seed, format_trace(trace))


def _symmetry_identity(kind, rng, max_chords, policy):
    d = random_diagram(rng.randint(1, max_chords), rng.randrange(2 ** 31))
    image = reverse(d) if kind == "reverse" else mirror(d)
    if compute_H(image, policy) != symmetry_image(compute_H(d, policy), kind):
        return serialize(d)


def _order_one(rng, max_chords, policy):
    k = rng.randint(2, max_chords)
    d = random_singular_diagram(k, 2, rng.randrange(2 ** 31))
    if not singular_H(d, policy).is_zero():
        return serialize(d)
    if singular_H(bundled_diagrams()["singular_witness"], policy).is_zero():
        return "singular_witness collapsed to zero"


def _crossing_change_delta(rng, max_chords, policy):
    k = rng.randint(1, max_chords)
    d, cid = random_diagram(k, rng.randrange(2 ** 31)), rng.randint(1, k)
    actual = compute_H(d, policy) - compute_H(crossing_change(d, cid), policy)
    if crossing_change_delta(d, cid, policy) != actual:
        return "%s @%d" % (serialize(d), cid)


def _nested_zero_height(rng, max_chords, policy):
    d = random_nested_diagram(rng.randint(1, max_chords), rng.randrange(2 ** 31))
    if not compute_H(d, policy).is_zero():
        return serialize(d)


def _gordian_bound(rng, max_chords, policy):
    k = rng.randint(2, max_chords)
    d = random_diagram(k, rng.randrange(2 ** 31))
    changes = sorted(rng.sample(range(1, k + 1), rng.randint(0, k)))
    changed = d
    for cid in changes:
        changed = crossing_change(changed, cid)
    # the walk only makes a second diagram of the knotoid; it is read from
    # `moves` so that this module's `random_walk`, the subject of the
    # move_invariance row, can be replaced without touching this row
    seed, trace = rng.randrange(2 ** 31), []
    walked = moves.random_walk(changed, 4, seed, trace=trace)
    try:
        bound = gordian_lower_bound(d, walked, policy)
    except NotHomotopyForm:
        bound = None
    if bound is None or bound > len(changes):
        return "%s @%s\nseed %d\n%s" % (serialize(d), ",".join(map(str, changes)),
                                         seed, format_trace(trace))


# (name, check, fatal_under_literal): check(rng, max_chords, policy) draws
# one sample and returns a replayable failure example or None.  Literal
# exponents are not move invariant, so the rows with a walk only report.
PROPERTIES = (
    ("move_invariance", _move_invariance, False),
    *(("%s_identity" % kind, partial(_symmetry_identity, kind), True) for kind in _SYMMETRIES),
    ("order_one", _order_one, True),
    ("crossing_change_delta", _crossing_change_delta, True),
    ("nested_zero_height", _nested_zero_height, True),
    ("gordian_bound", _gordian_bound, False),
)


def run_selftest(samples: int = 100, max_chords: int = 6, seed: int = 0) -> dict:
    """Seeded property battery; `ok` ignores non-fatal Literal walk failures."""
    rng = _seeded(seed, samples=samples, max_chords=max_chords)
    for name, value in (("samples", samples), ("max_chords", max_chords)):
        if value < _LEAST[name]:
            raise ValueError("%s must be at least %d" % (name, _LEAST[name]))
    props = []
    for name, check, fatal_under_literal in PROPERTIES:
        for policy in ReductionPolicy:
            fatal = fatal_under_literal or policy is ReductionPolicy.QUOTIENT
            failures = [ex for ex in (check(rng, max_chords, policy)
                                      for _ in range(samples)) if ex is not None]
            props.append({"name": name, "policy": policy.value, "samples": samples,
                          "failures": len(failures), "fatal": fatal,
                          "examples": failures[:3]})
    ok = all(p["failures"] == 0 for p in props if p["fatal"])
    return {"seed": seed, "samples": samples, "max_chords": max_chords,
            "properties": props, "ok": ok}


def _cmd_selftest(args) -> int:
    for name, least in _LEAST.items():
        if getattr(args, name) < least:
            print("error: --%s must be at least %d" % (name.replace("_", "-"), least),
                  file=sys.stderr)
            return 2
    report = run_selftest(args.samples, args.max_chords, args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


# The int flags' one form: ASCII decimal, no leading zeros, `-` the only sign.
_INT = re.compile(r"0|-?[1-9][0-9]*")


def _canonical_int(text: str) -> int:
    """The argparse type of every int flag: int(text) for text in _INT's
    form, else argparse's `invalid int value` line."""
    try:
        if _INT.fullmatch(text):
            return int(text)
    except ValueError:  # past int()'s digit limit; argparse would name this function
        pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, whose usage error
    is one `error: <message>` line and exit 2."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@cache  # built on the first main call and kept: parse_args fills a fresh namespace per call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="knotoidh",
        description="Three-variable index invariant of knotoid Gauss diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=[policy.value for policy in ReductionPolicy],
                       default="quotient", help="exponent reduction policy")

    p = sub.add_parser("compute", help="evaluate H for one code or a .gko file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--code", help="Gauss code (empty string = trivial)")
    src.add_argument("--file", help=".gko collection, one `name: code` per line")
    add_mode(p)
    p.add_argument("--format", choices=list(_FORMATS), default="text")
    p.add_argument("--include-n0", action="store_true", dest="include_n0",
                   help="keep the gcd-0 stratum")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("compare", help="compare H of two codes")
    p.add_argument("code_a")
    p.add_argument("code_b")
    add_mode(p)
    p.add_argument("--check", choices=[*_SYMMETRIES, "none"], default="none",
                   help="also verify the symmetry identity for the pair")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gordian", help="Gordian distance lower bound for two codes")
    p.add_argument("code_a")
    p.add_argument("code_b")
    add_mode(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gordian)

    p = sub.add_parser("selftest", help="run the seeded property battery")
    p.add_argument("--samples", type=_canonical_int, default=100)
    p.add_argument("--max-chords", type=_canonical_int, default=6, dest="max_chords")
    p.add_argument("--seed", type=_canonical_int, default=0)
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
