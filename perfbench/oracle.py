"""Brute-force H(t, y, z), written straight from the formula with plain loops.

This is the reference the benchmark vouches its digests with, and the
oracle that faster kernels are diff-tested against.  It shares no code
with the library: it parses canonical Gauss codes itself, scans every
ordered pair of chords, and prints the same canonical JSON as
`render(inv, "json")`.

For a chord c running from its Over endpoint o(c) to its Under endpoint
u(c), a chord e crosses c when exactly one endpoint of e lies strictly
between o(c) and u(c).  A crossing chord belongs to the right part r(c)
when that inside endpoint is e's Under endpoint and c runs forward
(o(c) < u(c)), or it is e's Over endpoint and c runs backward; otherwise
it belongs to the left part l(c).  Then

    d(c)     = sum_{e in r(c)} sgn(e) - sum_{e in l(c)} sgn(e)
    n        = gcd(|d(c)|, |d(e)|)            (n = 0 is skipped)
    Ind_c^n  = sum_{e in r^n(c)} sgn(e) z^phi(d(e))
             - sum_{e in l^n(c)} sgn(e) z^phi(-d(e))
    H        = sum_c sum_n sgn(c) (t^Ind_c^n - 1) y^n

with phi the reduction mod |d(c)| under the policy ("quotient": least
non-negative residue; "literal": least absolute value, a tie at m/2
keeping the sign of the input; m = 0: no reduction).
"""

from __future__ import annotations

import json
import math
import re

_TOKEN = re.compile(r"([OU])([0-9]+)([+\-*])\Z")
_SIGN = {"+": 1, "-": -1, "*": 0}


def chords(code: str) -> list:
    """(over, under, sign) per chord id 1..k; positions are 1-based.

    Only canonical codes (every token tagged) are accepted; a singular
    chord has sign 0.
    """
    over, under, sign = {}, {}, {}
    for pos, tok in enumerate(code.split(), start=1):
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError("not a canonical token: %r" % tok)
        cid = int(m.group(2))
        (over if m.group(1) == "O" else under)[cid] = pos
        sign[cid] = _SIGN[m.group(3)]
    ids = sorted(sign)
    if ids != list(range(1, len(ids) + 1)) or sorted(over) != ids or sorted(under) != ids:
        raise ValueError("chord ids must be exactly 1..k with one O and one U each")
    return [(over[c], under[c], sign[c]) for c in ids]


def side(c, e):
    """+1 if e is in r(c), -1 if e is in l(c), 0 if e does not cross c."""
    o, u, _ = c
    lo, hi = min(o, u), max(o, u)
    over_in = lo < e[0] < hi
    under_in = lo < e[1] < hi
    if over_in == under_in:
        return 0
    if under_in:
        return 1 if o < u else -1
    return 1 if o > u else -1


def degree(ch, i) -> int:
    total = 0
    for j, e in enumerate(ch):
        if j != i:
            s = side(ch[i], e)
            if s:
                if e[2] == 0:
                    raise ValueError("degree undefined: crossing chord %d is singular" % (j + 1))
                total += s * e[2]
    return total


def reduce(k: int, m: int, policy: str) -> int:
    if m == 0:
        return k
    r = k % m
    if policy == "quotient":
        return r
    alt = r - m
    if abs(alt) < abs(r) or (abs(alt) == abs(r) and k < 0):
        return alt
    return r


def index_polys(ch, i, deg, policy: str) -> dict:
    """n -> {exponent: coefficient} of Ind_c^n for chord index i, n >= 1.

    `deg` holds every chord's degree.  Zero coefficients and classes
    whose polynomial vanishes are dropped.
    """
    m = abs(deg[i])
    out = {}
    for j, e in enumerate(ch):
        if j == i:
            continue
        s = side(ch[i], e)
        if not s:
            continue
        n = math.gcd(deg[i], deg[j])
        if n == 0:
            continue
        exp = reduce(s * deg[j], m, policy)
        poly = out.setdefault(n, {})
        poly[exp] = poly.get(exp, 0) + s * e[2]
    result = {}
    for n, poly in out.items():
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            result[n] = poly
    return result


def compute_H(code: str, policy: str) -> str:
    """Canonical JSON of H for a code without singular chords."""
    ch = chords(code)
    if any(s == 0 for _, _, s in ch):
        raise ValueError("diagram has singular chords")
    deg = [degree(ch, i) for i in range(len(ch))]
    exp_terms = {}
    const_terms = {}
    for i, c in enumerate(ch):
        for n, poly in index_polys(ch, i, deg, policy).items():
            P = tuple(sorted(poly.items()))
            m = 0 if all(e == 0 for e, _ in P) else abs(deg[i])
            key = (n, m, P)
            exp_terms[key] = exp_terms.get(key, 0) + c[2]
            const_terms[n] = const_terms.get(n, 0) - c[2]
    return canonical_json(policy, exp_terms, const_terms)


def canonical_json(policy: str, exp_terms: dict, const_terms: dict) -> str:
    """The library's JSON form: terms sorted by (n, m, P), zeros dropped."""
    terms = [{"n": n, "m": m, "P": [[e, c] for e, c in P], "coeff": coeff}
             for (n, m, P), coeff in sorted(exp_terms.items()) if coeff]
    consts = [{"n": n, "coeff": coeff} for n, coeff in sorted(const_terms.items()) if coeff]
    return json.dumps({"policy": policy, "terms": terms, "consts": consts})
