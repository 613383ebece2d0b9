"""The three-variable invariant H(t, y, z) of a knotoid Gauss diagram.

Every chord c gets a degree d(c): the signed count of chords crossing it,
counted +1 from the right part r(c) and -1 from the left part l(c).  With
W(p) the sum over positions 1..p of +sgn(e) at each Over endpoint and
-sgn(e) at each Under endpoint, d(c) = W(o(c) - 1) - W(u(c)): nested chords
cancel, so prefix sums give every degree in O(k).  d(c) is undefined exactly
when a singular chord crosses c.  The chords crossing c form its crossing
row, read from the events strictly inside c's span (e crosses c when
exactly one endpoint of e lies there); the partitions, the index
polynomials, the deltas and the singular rule read that row.  The crossing
chords split further by n = gcd(|d(c)|, |d(e)|), and each class
contributes an index polynomial

    Ind_c^n(z) = sum_{e in r^n} sgn(e) z^{phi(d(e))}
               - sum_{e in l^n} sgn(e) z^{phi(-d(e))}

with exponents reduced mod |d(c)| under the chosen policy.  The invariant
collects, over all chords and all n >= 1,

    H = sum sgn(c) (t^{Ind_c^n(z)} - 1) y^n,

stored sparsely as coefficients on t-exponent polynomials plus a constant
per y-stratum.  Pairs with gcd 0 (both degrees zero) are skipped unless
include_n0 is set.  Crossing-change deltas and skein sums are signed sums of
the same summand (t^P - 1) y^n, and Invariant.from_summands is the one place
that turns summands into stored terms.

H does not read the crossing rows, whose lengths sum to O(k^2) events:
Ind_c^n sees a crossing chord only through its degree, sign and side, so
one sweep of bitset sums fills one signed count of r(c) and one of l(c)
per (chord, distinct degree) cell (_histogram_terms).  _histogram_pays
sends a small diagram, whose rows can be shorter, to the rows instead.
Either way _index_polys alone turns a chord's terms into its Ind_c^n.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from collections import defaultdict, namedtuple
from itertools import compress
from operator import sub

from .gauss import SINGULAR, GaussCodeError, GaussDiagram, _crossing_row
from .zpoly import ReductionPolicy, ZPoly, _join_signed, reduce_exponent, reduce_poly

__all__ = [
    "TermKey",
    "Invariant",
    "degree",
    "crossing_partition",
    "index_polys",
    "index_function",
    "compute_H",
    "invariant_equal",
    "invariant_sub",
    "invariant_neg",
    "subst_t_inverse",
    "subst_z_inverse",
    "nonzero_height_certificate",
    "render",
    "invariant_to_json",
    "invariant_from_json",
]

# (y-exponent, modulus, exponent polynomial); m is 0 whenever P is constant.
TermKey = namedtuple("TermKey", ["n", "m", "P"])

# The histogram kernel costs about _CELL_COST crossing-row events per cell
# plus _KERNEL_SETUP events per diagram: a least-squares fit of the time
# difference of the two paths on 400 random diagrams with k from 1 to 60.
_CELL_COST = 1.1
_KERNEL_SETUP = 100

# Bytes of a signed bitset field -> its array typecode; see _histogram_terms.
_FIELD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _term_key(n, m, P):
    return TermKey(n, 0 if P.is_constant() else m, P)


class Invariant:
    """Sparse value of H for one diagram under one reduction policy.

    exp_terms maps TermKey -> nonzero coefficient of t^P y^n, const_terms
    maps n -> the nonzero constant coefficient of y^n.  Values are treated
    as immutable; all arithmetic returns new instances.  Comparing or
    combining invariants computed under different policies is an error.
    """

    __slots__ = ("policy", "exp_terms", "const_terms")

    def __init__(self, policy, exp_terms=None, const_terms=None):
        self.policy = policy
        self.exp_terms = {k: v for k, v in (exp_terms or {}).items() if v}
        self.const_terms = {n: v for n, v in (const_terms or {}).items() if v}

    @classmethod
    def from_summands(cls, policy, items):
        """Sum of s (t^P - 1) y^n over items (n, m, P, s), P reduced mod m.

        A zero P adds nothing, since t^0 - 1 = 0.
        """
        exp = defaultdict(int)
        const = defaultdict(int)
        for n, m, P, s in items:
            if P:
                exp[_term_key(n, m, P)] += s
                const[n] -= s
        return cls(policy, exp, const)

    def is_zero(self) -> bool:
        return not self.exp_terms and not self.const_terms

    def __eq__(self, other):
        if not isinstance(other, Invariant):
            return NotImplemented
        return invariant_equal(self, other)

    def __hash__(self):
        return hash((self.policy,
                     frozenset(self.exp_terms.items()),
                     frozenset(self.const_terms.items())))

    def __add__(self, other):
        return _merge(self, other, 1)

    def __sub__(self, other):
        return invariant_sub(self, other)

    def __neg__(self):
        return invariant_neg(self)

    def __repr__(self):
        return "Invariant(%s, %s)" % (self.policy.value, render(self))


def _check_policies(a: Invariant, b: Invariant):
    if a.policy is not b.policy:
        raise ValueError("cannot mix reduction policies %s and %s"
                         % (a.policy.value, b.policy.value))


def invariant_equal(a: Invariant, b: Invariant) -> bool:
    _check_policies(a, b)
    return a.exp_terms == b.exp_terms and a.const_terms == b.const_terms


def _merge(a: Invariant, b: Invariant, sign: int) -> Invariant:
    """a + sign * b."""
    _check_policies(a, b)
    merged = []
    for ours, theirs in ((a.exp_terms, b.exp_terms), (a.const_terms, b.const_terms)):
        out = dict(ours)
        for key, c in theirs.items():
            out[key] = out.get(key, 0) + sign * c
        merged.append(out)
    return Invariant(a.policy, *merged)


def invariant_sub(a: Invariant, b: Invariant) -> Invariant:
    return _merge(a, b, -1)


def invariant_neg(a: Invariant) -> Invariant:
    return _merge(Invariant(a.policy), a, -1)


def nonzero_height_certificate(inv: Invariant) -> bool:
    """True certifies the knotoid has nonzero height; False is silent."""
    return not inv.is_zero()


def _index_polys(table, chord_terms, policy, include_n0):
    """The summands (n, |d(c)|, Ind_c^n, sgn(c)) of H, from (c, terms of c) pairs.

    A term is a (signed degree, signed count) pair: e in r(c) is (d(e), sgn(e)),
    e in l(c) is (-d(e), -sgn(e)), a cell is (D, r_c(D)) and (-D, -l_c(D)).
    Term (D, s) adds s z^phi(D) to class n = gcd(|d(c)|, D), phi reducing mod
    |d(c)|, both found once per (|d(c)|, D).  Class 0 needs include_n0.
    """
    sign, deg = table.sign, table.degree
    plans = defaultdict(dict)  # |d(c)| -> D -> (n, phi(D))
    for c, terms in chord_terms:
        m = abs(deg[c])
        plan = plans[m]
        buckets = defaultdict(lambda: defaultdict(int))
        for D, s in terms:
            cell = plan.get(D)
            if cell is None:
                cell = plan[D] = math.gcd(m, D), reduce_exponent(D, m, policy)
            n, e = cell
            buckets[n][e] += s
        if not include_n0:
            buckets.pop(0, None)
        for n, poly in buckets.items():
            yield n, m, ZPoly(poly), sign[c]


def _row_terms(table, cids):
    """(c, terms of c) for each chord c in cids, one term per chord in c's crossing row."""
    deg, sign = table.degree, table.sign
    for c in cids:
        yield c, [(deg[e], sign[e]) if in_r else (-deg[e], -sign[e])
                  for e, in_r in _crossing_row(table, c)]


def degree(d: GaussDiagram, cid: int) -> int:
    """d(c): signed crossing count, r(c) positive, l(c) negative."""
    d.chord(cid)  # raises for an unknown id
    table = d._table
    if table.degree[cid] is None:
        e = min(e for e, _ in _crossing_row(table, cid) if table.sign[e] == SINGULAR)
        raise GaussCodeError("degree undefined: crossing chord %d is singular" % e)
    return table.degree[cid]


def crossing_partition(d: GaussDiagram, cid: int):
    """Ids of chords crossing cid, split as (right, left), each sorted."""
    d.chord(cid)  # raises for an unknown id
    row = sorted(_crossing_row(d._table, cid))
    return tuple(e for e, in_r in row if in_r), tuple(e for e, in_r in row if not in_r)


def index_polys(d: GaussDiagram, cid: int, policy: ReductionPolicy) -> dict:
    """n -> Ind_c^n(z) for each gcd class n of the chords crossing cid, n = 0 included."""
    degree(d, cid)
    table = d._table
    for e, _ in _crossing_row(table, cid):
        degree(d, e)  # raises where a singular chord leaves d(e) undefined
    return {n: P for n, _, P, _ in _index_polys(table, _row_terms(table, [cid]), policy, True)}


def index_function(d: GaussDiagram, cid: int, n: int, policy: ReductionPolicy) -> ZPoly:
    """Ind_c^n(z) with exponents reduced mod |d(c)| under the policy."""
    return index_polys(d, cid, policy).get(n, ZPoly())


def _histogram_terms(table):
    """(c, terms of c) for every chord c, read from one signed count per (chord, degree) cell.

    Ind_c^n sees a crossing chord e only through d(e), sgn(e) and its side,
    so for each distinct degree D it needs r_c(D) and l_c(D): the signed
    counts of the degree-D chords in r(c) and in l(c).  One sweep along the
    segment finds, for each chord e, the chords c whose span holds e's Over
    endpoint but not its Under endpoint, and the other way round; those are
    the chords e crosses with that endpoint inside.  Both sets are bitsets
    with one field per chord, so summing sgn(e) times them over the chords
    of degree D counts D's cells of every chord at once.  Which of the two
    counts is r(c) follows c's direction, as in _crossing_row.  A chord's
    terms are its nonzero cells, (D, r_c(D)) and (-D, -l_c(D)).
    """
    over, under, sign, deg, at, mate = table
    k = len(sign) - 1
    by_degree = defaultdict(list)
    for c in range(1, k + 1):
        by_degree[deg[c]].append(c)
    # Field i of a bitset is chords[i], forward chords (Over first) first.  A
    # field holds a signed count of one degree's chords, biased by half its
    # range, so sums never carry from one field into the next; XOR with the
    # bias turns the fields into two's complement counts, and 2 * bias - x
    # negates every field of x.
    forward = [c for c in range(1, k + 1) if over[c] < under[c]]
    chords = forward + [c for c in range(1, k + 1) if over[c] > under[c]]
    most = max(map(len, by_degree.values()), default=0)
    width = next(w for w in _FIELD_CODES if most < 1 << (8 * w - 1))
    field = [0] * (k + 1)
    for i, c in enumerate(chords):
        field[c] = 1 << (8 * width * i)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * k, "little")
    via_over, via_under = dict.fromkeys(by_degree, bias), dict.fromkeys(by_degree, bias)
    spanning = 0  # the chords whose span holds the current position
    at_first = {}
    for p in range(1, 2 * k + 1):
        e = at[p]
        if mate[p] > p:
            at_first[e] = spanning
            spanning |= field[e]
            continue
        spanning ^= field[e]
        first, last = at_first.pop(e), spanning
        at_over, at_under = (first, last) if over[e] < under[e] else (last, first)
        nests_e = first & last
        via_over[deg[e]] += sign[e] * (at_over ^ nests_e)
        via_under[deg[e]] += sign[e] * (at_under ^ nests_e)

    def counts(bitset):
        out = array(_FIELD_CODES[width])
        out.frombytes((bitset ^ bias).to_bytes(k * width, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out

    fwd = (1 << (8 * width * len(forward))) - 1  # the fields of the forward chords
    keys, columns = [], []
    for D in by_degree:
        o, u = via_over.pop(D), via_under.pop(D)
        keys += D, -D
        columns += counts(u & fwd | o & ~fwd), counts(2 * bias - (o & fwd | u & ~fwd))
    for c, row in zip(chords, zip(*columns)):
        yield c, compress(zip(keys, row), row)


def _histogram_pays(table) -> bool:
    """True when the histogram kernel costs less than reading the crossing rows.

    The rows read every event inside every span; the kernel fills k cells
    per distinct degree after a fixed setup, both priced in span events.
    """
    over, under, deg = table.over, table.under, table.degree
    k = len(deg) - 1
    if k * (k - 1) <= _KERNEL_SETUP:  # the spans of k chords hold at most k(k - 1) events
        return False
    span_events = sum(map(abs, map(sub, over[1:], under[1:]))) - k
    return _CELL_COST * k * len(set(deg[1:])) + _KERNEL_SETUP < span_events


def compute_H(d: GaussDiagram,
              policy: ReductionPolicy = ReductionPolicy.QUOTIENT,
              include_n0: bool = False) -> Invariant:
    """Evaluate H over all chords and all gcd classes of the diagram."""
    if d.singular_ids():
        raise GaussCodeError("diagram has singular chords; resolve them first")
    table = d._table
    chord_terms = (_histogram_terms(table) if _histogram_pays(table)
                   else _row_terms(table, range(1, d.k + 1)))
    return Invariant.from_summands(policy, _index_polys(table, chord_terms, policy, include_n0))


def _map_exponents(inv: Invariant, f) -> Invariant:
    """Replace every t-exponent polynomial P by f(P), re-reduced."""
    exp = defaultdict(int)
    for (n, m, P), c in inv.exp_terms.items():
        exp[TermKey(n, m, reduce_poly(f(P), m, inv.policy))] += c
    return Invariant(inv.policy, exp, dict(inv.const_terms))


def subst_t_inverse(inv: Invariant) -> Invariant:
    """t -> t^-1: every t-exponent polynomial P becomes -P, re-reduced."""
    return _map_exponents(inv, ZPoly.__neg__)


def subst_z_inverse(inv: Invariant) -> Invariant:
    """z -> z^-1 inside every t-exponent polynomial, re-reduced."""
    return _map_exponents(inv, ZPoly.subst_z_inverse)


def _sorted_keys(inv: Invariant):
    return sorted(inv.exp_terms, key=lambda k: (k.n, k.m, k.P.terms))


_PLAIN_INT = re.compile(r"-?[0-9]+\Z")


def _t_power(P: ZPoly) -> str:
    s = str(P)
    if s == "1":
        return "t"
    if s == "z" or _PLAIN_INT.match(s):
        return "t^" + s
    return "t^(" + s + ")"


def _t_power_latex(P: ZPoly) -> str:
    if P.is_constant() and P.constant_value() == 1:
        return "t"
    return "t^{%s}" % P.latex()


def _y_power(n: int, latex: bool) -> str:
    if n == 0:
        return ""
    if latex:
        return "y" if n == 1 else "y^{%d}" % n
    return "*y" if n == 1 else "*y^%d" % n


def _render_terms(inv: Invariant, latex: bool) -> str:
    strata = sorted(set(k.n for k in inv.exp_terms) | set(inv.const_terms))
    keys_by_n = defaultdict(list)
    for key in _sorted_keys(inv):
        keys_by_n[key.n].append(key)
    t_power = _t_power_latex if latex else _t_power
    out = []
    for n in strata:
        terms = [(inv.exp_terms[key], t_power(key.P)) for key in keys_by_n[n]]
        if n in inv.const_terms:
            terms.append((inv.const_terms[n], ""))
        body = _join_signed(terms, times="" if latex else "*")
        if latex:
            out.append("\\left(%s\\right)%s" % (body, _y_power(n, True)))
        else:
            out.append("(%s)%s" % (body, _y_power(n, False)))
    return " + ".join(out) or "0"


def invariant_to_json(inv: Invariant) -> str:
    terms = [{"n": k.n, "m": k.m, "P": [[e, c] for e, c in k.P.terms],
              "coeff": inv.exp_terms[k]} for k in _sorted_keys(inv)]
    consts = [{"n": n, "coeff": inv.const_terms[n]} for n in sorted(inv.const_terms)]
    return json.dumps({"policy": inv.policy.value, "terms": terms, "consts": consts})


def _json_int(obj, field, minimum=None) -> int:
    """obj[field], which must be an int (not a bool) and at least `minimum`."""
    v = obj.get(field) if isinstance(obj, dict) else None
    if type(v) is not int or (minimum is not None and v < minimum):
        want = "an integer" if minimum is None else "an integer >= %d" % minimum
        raise ValueError("%s must be %s in %r" % (field, want, obj))
    return v


def invariant_from_json(text: str) -> Invariant:
    """Read invariant_to_json output; a term not in canonical form raises ValueError."""
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("terms"), list)
            and isinstance(data.get("consts"), list)):
        raise ValueError('expected {"policy": ..., "terms": [...], "consts": [...]}')
    policy = ReductionPolicy(data["policy"])
    exp = {}
    for t in data["terms"]:
        n, m, coeff = _json_int(t, "n", 0), _json_int(t, "m", 0), _json_int(t, "coeff")
        pairs = t.get("P")
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
                for p in pairs)):
            raise ValueError("P must be a list of [exponent, coefficient] integer pairs"
                             " in term %r" % (t,))
        P = ZPoly(pairs)
        if not P:
            raise ValueError("zero exponent polynomial in term %r" % (t,))
        if [list(p) for p in P.terms] != pairs:
            raise ValueError("P needs ascending distinct exponents and nonzero"
                             " coefficients in term %r" % (t,))
        if _term_key(n, m, P).m != m:
            raise ValueError("constant exponent polynomial needs m = 0 in term %r" % (t,))
        if reduce_poly(P, m, policy) != P:
            raise ValueError("exponents not reduced mod %d under %s in term %r"
                             % (m, policy.value, t))
        key = TermKey(n, m, P)
        if key in exp or not coeff:
            raise ValueError("duplicate or zero-coefficient term %r" % (t,))
        exp[key] = coeff
    const = {}
    for t in data["consts"]:
        n, coeff = _json_int(t, "n", 0), _json_int(t, "coeff")
        if n in const or not coeff:
            raise ValueError("duplicate or zero-coefficient constant %r" % (t,))
        const[n] = coeff
    return Invariant(policy, exp, const)


def render(inv: Invariant, fmt: str = "text") -> str:
    """Render to `text`, `latex` or `json`; strata ascend in n, terms in (m, P)."""
    if fmt == "text":
        return _render_terms(inv, latex=False)
    if fmt == "latex":
        return _render_terms(inv, latex=True)
    if fmt == "json":
        return invariant_to_json(inv)
    raise ValueError("unknown format %r" % fmt)
