"""The cached chord table and H against a brute-force reading of the formulas.

The reference below shares nothing with the library's chord table: it
scans every ordered pair of chords, written straight from the
definitions, the way `perfbench/oracle.py` does.  For a chord c running
from o(c) to u(c), a chord e crosses c when exactly one endpoint of e
lies strictly between them; e is in r(c) when that endpoint is e's Under
endpoint and c runs forward, or e's Over endpoint and c runs backward.
"""

import math

import pytest

from knotoidh.gauss import (
    parse_gauss_code,
    random_diagram,
    random_nested_diagram,
    serialize,
)
from knotoidh.gordian import crossing_change_delta
from knotoidh.invariant import (
    Invariant,
    TermKey,
    compute_H,
    crossing_partition,
    degree,
    index_function,
    index_polys,
)
from knotoidh.zpoly import ReductionPolicy, ZPoly

POLICIES = list(ReductionPolicy)
SIZES = (0, 1, 2, 3, 5, 8, 13, 21, 34, 60)


def brute_chords(d):
    """(over, under, sign) per chord id 1..k, read off the events."""
    over, under, sign = {}, {}, {}
    for p, ev in enumerate(d.events, start=1):
        (over if ev.kind == "O" else under)[ev.chord] = p
        sign[ev.chord] = ev.sign
    return {c: (over[c], under[c], sign[c]) for c in sorted(sign)}


def brute_side(c, e):
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


def brute_degree(ch, c):
    return sum(brute_side(ch[c], ch[e]) * ch[e][2] for e in ch if e != c)


def brute_reduce(k, m, policy):
    if m == 0:
        return k
    r = k % m
    if policy is ReductionPolicy.QUOTIENT:
        return r
    alt = r - m
    if abs(alt) < abs(r) or (abs(alt) == abs(r) and k < 0):
        return alt
    return r


def brute_index(ch, deg, c, n, policy):
    """Ind_c^n as {exponent: coefficient}, zero coefficients dropped."""
    poly = {}
    for e in ch:
        s = brute_side(ch[c], ch[e]) if e != c else 0
        if s and math.gcd(deg[c], deg[e]) == n:
            exp = brute_reduce(s * deg[e], abs(deg[c]), policy)
            poly[exp] = poly.get(exp, 0) + s * ch[e][2]
    return {x: a for x, a in poly.items() if a}


def brute_H(ch, deg, policy, include_n0):
    """sum_c sum_n sgn(c) (t^Ind_c^n - 1) y^n, straight from the formula."""
    exp, const = {}, {}
    for c in ch:
        ns = {math.gcd(deg[c], deg[e]) for e in ch if e != c and brute_side(ch[c], ch[e])}
        for n in sorted(ns if include_n0 else ns - {0}):
            ind = brute_index(ch, deg, c, n, policy)
            if not ind:
                continue
            P = ZPoly(ind)
            key = TermKey(n, 0 if P.is_constant() else abs(deg[c]), P)
            exp[key] = exp.get(key, 0) + ch[c][2]
            const[n] = const.get(n, 0) - ch[c][2]
    return Invariant(policy, exp, const)


def brute_delta(ch, deg, c, policy):
    """eps * sum_n (t^Ind + t^{-Ind(z^-1)} - 2) y^n, straight from the formula."""
    eps, m = ch[c][2], abs(deg[c])
    exp, const = {}, {}
    ns = {math.gcd(deg[c], deg[e]) for e in ch if e != c and brute_side(ch[c], ch[e])}
    for n in sorted(ns - {0}):
        ind = brute_index(ch, deg, c, n, policy)
        if not ind:
            continue
        partner = {}
        for x, a in ind.items():
            y = brute_reduce(-x, m, policy)
            partner[y] = partner.get(y, 0) - a
        for poly in (ind, partner):
            P = ZPoly(poly)
            key = TermKey(n, 0 if P.is_constant() else m, P)
            exp[key] = exp.get(key, 0) + eps
        const[n] = const.get(n, 0) - 2 * eps
    return Invariant(policy, exp, const)


@pytest.mark.parametrize("make", [random_diagram, random_nested_diagram])
@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", [0, 1])
def test_table_matches_brute_force(make, k, seed):
    d = make(k, 1000 * k + seed)
    ch = brute_chords(d)
    deg = {c: brute_degree(ch, c) for c in ch}
    for c in ch:
        assert degree(d, c) == deg[c]
        right = tuple(e for e in ch if e != c and brute_side(ch[c], ch[e]) > 0)
        left = tuple(e for e in ch if e != c and brute_side(ch[c], ch[e]) < 0)
        assert crossing_partition(d, c) == (right, left)
        classes = {math.gcd(deg[c], deg[e]) for e in right + left}
        for policy in POLICIES:
            for n in classes | {0, 1, 2}:
                want = ZPoly(brute_index(ch, deg, c, n, policy))
                assert index_function(d, c, n, policy).terms == want.terms, (c, n)
            got = {n: P.terms for n, P in index_polys(d, c, policy).items()}
            assert got == {n: ZPoly(brute_index(ch, deg, c, n, policy)).terms
                           for n in classes}, c
            got = crossing_change_delta(d, c, policy)
            want = brute_delta(ch, deg, c, policy)
            assert got.exp_terms == want.exp_terms and got.const_terms == want.const_terms
    for policy in POLICIES:
        for include_n0 in (False, True):
            got = compute_H(d, policy, include_n0)
            want = brute_H(ch, deg, policy, include_n0)
            assert got.exp_terms == want.exp_terms and got.const_terms == want.const_terms


def test_cache_is_invisible_to_equality_hash_and_repr():
    code = serialize(random_diagram(9, 4))
    built, fresh = parse_gauss_code(code), parse_gauss_code(code)
    degree(built, 1)
    built.chords()
    assert "_table" in vars(built) and "_table" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


def test_chords_mapping_is_read_only():
    d = random_diagram(4, 2)
    views = d.chords()
    with pytest.raises(TypeError):
        views[1] = views[2]
    with pytest.raises(TypeError):
        del views[1]
    assert d.chord(1) == views[1] and sorted(views) == [1, 2, 3, 4]
