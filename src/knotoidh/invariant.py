"""The three-variable invariant H(t, y, z) of a knotoid Gauss diagram.

Every chord c gets a degree d(c): the signed count of chords crossing it,
counted +1 from the right part r(c) and -1 from the left part l(c).  With
W(p) the sum over positions 1..p of +sgn(e) at each Over endpoint and
-sgn(e) at each Under endpoint, d(c) = W(o(c) - 1) - W(u(c)): nested chords
cancel, so prefix sums give every degree in O(k).  d(c) is undefined exactly
when a singular chord crosses c.  The chords crossing c form its crossing
row, read from the events strictly inside c's span (e crosses c when
exactly one endpoint of e lies there); the partitions, one chord's index
polynomials (index_polys), the crossing-change delta (_switch_delta) and
the singular rule read that row.  The crossing chords split further by
n = gcd(|d(c)|, |d(e)|), and each class contributes an index polynomial

    Ind_c^n(z) = sum_{e in r^n} sgn(e) z^{phi(d(e))}
               - sum_{e in l^n} sgn(e) z^{phi(-d(e))}

with exponents reduced mod |d(c)| under the chosen policy.  The invariant
collects, over all chords and all n >= 1,

    H = sum sgn(c) (t^{Ind_c^n(z)} - 1) y^n,

stored sparsely as coefficients on t-exponent polynomials plus a constant
per y-stratum.  Pairs with gcd 0 (both degrees zero) are skipped unless
include_n0 is set.  Crossing-change deltas and skein sums are signed sums of
the same summand (t^P - 1) y^n, and Invariant.from_summands is the one place
that turns summands into stored terms.  Switching c takes H(d) to H(d) minus
sgn(c) (t^P + t^{partner(P)} - 2) y^n per class n of c, with sgn(c) and
P = Ind_c^n read in d.  _pair_sum is the one sum of such pairs, and
_switch_delta the one place that reads them off c's row: compute_H and
gordian.crossing_change_delta both call it.

The rule for Ind_c^n is written once, in _row_classes: one pass over c's
span, as _crossing_row walks it but with no row built first, sums each
crossing chord's side times its sign into the chord's (n, phi) classes.
index_polys groups those classes by n; _row_cells and _switch_delta hand
them on as class cells.  compute_H reads the class cells ((n, phi), count)
of its chords through one reader, _cells.  Below _KERNEL_MIN_CHORDS chords it
reads each one's row (_row_cells); from there on it counts every chord's
crossings per (n, phi) class in one bitset sweep (_histogram_cells).  Both
sources take (table, policy) and hand each chord's class cells on sorted by
(n, phi), one per class and none zero, and _index_polys, compute_H's one
tail, turns them into Ind_c^n: a run of equal n is already its sorted term
tuple.
from_summands sums the signs per (n, m, P) before it builds anything, then
builds one ZPoly per stored term, unchecked (ZPoly._built): each P it is
given is already canonical, a run of sorted class cells, the terms of a
checked ZPoly, or the partner of either (_partner).  The class and reduced
exponent of a crossing depend only on |d(c)|, its signed degree and the
policy, so they are found once per process and kept, one plan per
(|d(c)|, policy), for every later call (_plan); _partner reads each
partner exponent from the same plans.  from_summands and signed_sum check
the policy once and build their result unchecked (Invariant._built), since
every dict they make holds nonzero values only.

A diagram that gauss.crossing_change made carries a store of H values,
keyed by (policy, include_n0), and a link to the store of the diagram it
was switched from.  compute_H fills the store, and when the parent's store
holds H for the key, the child's H is that H plus the switch's delta, read
from the switched chord's row alone (_switch_delta, which says why), so
each step of a skein sum's Gray walk reads one crossing row.  Every other
diagram has no store, and compute_H reads all its cells.
"""

from __future__ import annotations

import math
import struct
from collections import defaultdict, namedtuple
from functools import lru_cache, partial
from itertools import compress
from operator import eq, itemgetter, neg, sub

from .gauss import SINGULAR, GaussCodeError, GaussDiagram, _crossing_row, _json, _text
from .zpoly import (ReductionPolicy, ZPoly, _join_signed, _require_policy, reduce_exponent,
                    reduce_poly)

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

# _cells takes the histogram kernel from this many chords on.  Both sources timed
# through the tail on random_diagram(k, 0..9), even k = 14..120, both
# policies, best of 7 (Python 3.11, 2 CPUs), five draws, the rows read
# through _row_classes: the best threshold was 56 to 60, every threshold
# from 40 to 64 came within 0.7% of it, 64 within 2.6% of taking the faster
# source on each diagram, and 70 cost 0.8% to 1.3% more.
_KERNEL_MIN_CHORDS = 64

# Bytes of a signed bitset field -> its struct format character; see _histogram_cells.
_FIELD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


class Invariant:
    """Sparse value of H for one diagram under one reduction policy.

    exp_terms maps TermKey -> nonzero coefficient of t^P y^n, const_terms
    maps n -> the nonzero constant coefficient of y^n.  Values are treated
    as immutable; all arithmetic returns new instances.  Comparing or
    combining invariants computed under different policies is an error.
    """

    __slots__ = ("policy", "exp_terms", "const_terms")

    def __init__(self, policy, exp_terms=None, const_terms=None):
        _require_policy(policy)
        self.policy = policy
        self.exp_terms = {k: v for k, v in (exp_terms or {}).items() if v}
        self.const_terms = {n: v for n, v in (const_terms or {}).items() if v}

    @classmethod
    def _built(cls, policy, exp_terms: dict, const_terms: dict) -> "Invariant":
        """An Invariant on dicts already as stored, under a policy already checked:
        no zero value in either dict.  Nothing is checked or copied."""
        h = object.__new__(cls)
        h.policy, h.exp_terms, h.const_terms = policy, exp_terms, const_terms
        return h

    @classmethod
    def from_summands(cls, policy, items):
        """Sum of s (t^P - 1) y^n over items (n, m, P, s), P reduced mod m.

        P is given by its terms, exactly as in ZPoly.terms: int (exponent,
        coefficient) pairs sorted by exponent, distinct exponents, no zero
        coefficient; this is not checked.  The signs are summed per (n, m, P)
        first, so each nonzero stored term is one TermKey with its own ZPoly.
        A zero P adds nothing, since t^0 - 1 = 0.  Only the constants can sum
        to 0, so only they are filtered.
        """
        sums = {}
        for n, m, P, s in items:
            if P:
                key = n, m if len(P) > 1 or P[0][0] else 0, P  # m is 0 for a constant P
                sums[key] = sums.get(key, 0) + s
        exp, const = {}, {}
        for (n, m, P), s in sums.items():
            const[n] = const.get(n, 0) - s
            if s:
                exp[TermKey(n, m, ZPoly._built(P))] = s
        _require_policy(policy)
        return Invariant._built(policy, exp, {n: c for n, c in const.items() if c})

    @classmethod
    def signed_sum(cls, policy, items):
        """Sum of s * h over items (s, h), every h under the policy, in one pass.

        A first h of sign +1 is taken as copies of its dicts, which hashes
        none of its keys again; every later h adds its terms key by key, and
        a key is dropped where its sum comes to 0.
        """
        _require_policy(policy)
        total = Invariant._built(policy, {}, {})
        for i, (s, h) in enumerate(items):
            _check_policy(policy, h)
            for terms, add in ((total.exp_terms, h.exp_terms), (total.const_terms, h.const_terms)):
                if i == 0 and s == 1:
                    terms.update(add)
                else:
                    for key, c in add.items():
                        c = terms.get(key, 0) + s * c
                        if c:
                            terms[key] = c
                        else:
                            terms.pop(key, None)
        return total

    def is_zero(self) -> bool:
        return not self.exp_terms and not self.const_terms

    def __eq__(self, other):
        if not isinstance(other, Invariant):
            return NotImplemented
        _check_policy(self.policy, other)
        return self.exp_terms == other.exp_terms and self.const_terms == other.const_terms

    def __hash__(self):
        return hash((self.policy,
                     frozenset(self.exp_terms.items()),
                     frozenset(self.const_terms.items())))

    def __add__(self, other):
        if not isinstance(other, Invariant):
            return NotImplemented
        return Invariant.signed_sum(self.policy, ((1, self), (1, other)))

    def __sub__(self, other):
        if not isinstance(other, Invariant):
            return NotImplemented
        return Invariant.signed_sum(self.policy, ((1, self), (-1, other)))

    def __neg__(self):
        return Invariant.signed_sum(self.policy, ((-1, self),))

    def __repr__(self):
        return "Invariant(%s, %s)" % (self.policy.value, render(self))


def _check_policy(policy, h: Invariant):
    if h.policy is not policy:
        raise ValueError("cannot mix reduction policies %s and %s"
                         % (policy.value, h.policy.value))


# The operators under their public function names.
invariant_equal, invariant_sub, invariant_neg = eq, sub, neg


def nonzero_height_certificate(inv: Invariant) -> bool:
    """True certifies the knotoid has nonzero height; False is silent."""
    return not inv.is_zero()


class _Plan(dict):
    """D -> (n, phi(D)) for the chords c of one modulus m = |d(c)|, found on first use.

    A crossing of signed degree D counts in class n = gcd(m, D) with
    exponent phi(D), D reduced mod m under the policy.  This is the only
    place that finds them.  An entry depends on m, D and the policy alone,
    never on the diagram, so _plan hands out one plan per (m, policy) that
    every call shares.
    """

    __slots__ = ("m", "policy")

    def __init__(self, m, policy):
        _require_policy(policy)
        self.m, self.policy = m, policy

    def __missing__(self, D):
        cell = self[D] = math.gcd(self.m, D), reduce_exponent(D, self.m, self.policy)
        return cell


# The plans kept across calls, the least recently used dropped first.  A plan
# of modulus m holds one cell per degree D asked of it, |D| < k; _partner
# asks it for -e, e an exponent of H, which is again such a D.  So for
# diagrams of at most k chords the cache holds at most _PLAN_CACHE_SIZE *
# (2k - 1) cells.  Fourteen compute_H calls on seven random_diagram(1000, .)
# under alternating policies left 116 plans and 13.3k cells, 1.4 MB by
# tracemalloc; the largest modulus among them was 64.
_PLAN_CACHE_SIZE = 256
_plan = lru_cache(maxsize=_PLAN_CACHE_SIZE)(_Plan)


def _index_polys(table, chord_cells, include_n0):
    """H's summands (n, |d(c)|, terms of Ind_c^n, sgn(c)) from (c, class cells of c) pairs.

    compute_H's one tail, after either source.  A class cell ((n, phi),
    count) adds count z^phi to Ind_c^n.  The cells of c come sorted by
    (n, phi), one per class and none zero, so each run of equal n already
    is Ind_c^n's sorted (exponent, coefficient) tuple.  Class 0 needs
    include_n0.
    """
    sign, deg = table.sign, table.degree
    for c, cells in chord_cells:
        m, s, last = abs(deg[c]), sign[c], None
        for (n, phi), count in cells:
            if n != last:
                if last is not None and (last or include_n0):
                    yield last, m, tuple(run), s
                run, last = [], n
            run.append((phi, count))
        if last is not None and (last or include_n0):
            yield last, m, tuple(run), s


def _row_classes(table, c, policy) -> dict:
    """(n, phi) -> c's signed count in that class, read from c's crossing row.

    The one place that writes Ind_c^n's rule: e in r(c) adds sgn(e) to the
    class _plan(|d(c)|, policy)[d(e)], e in l(c) adds -sgn(e) to that of
    -d(e).  The span is walked as in _crossing_row, with t = 1 for e in r(c)
    and t = -1 for e in l(c), so e adds t sgn(e) at the class of t d(e).  A
    class whose terms cancel is kept with count 0.  A crossing chord whose
    d(e) is undefined raises TypeError.
    """
    over, under, sign, deg, at, mate = table
    o, u = over[c], under[c]
    back = o > u
    lo, hi = (u, o) if back else (o, u)
    plan, classes = _plan(abs(deg[c]), policy), {}
    for p in range(lo + 1, hi):
        if not lo < mate[p] < hi:
            e = at[p]
            t = 1 if (over[e] == p) == back else -1
            key = plan[t * deg[e]]
            classes[key] = classes.get(key, 0) + t * sign[e]
    return classes


def _row_cells(table, policy):
    """(c, class cells of c) for every chord c, read from c's crossing row.

    The cells are _row_classes(table, c, policy) sorted by (n, phi), with
    the classes whose count is 0 left out.
    """
    for c in range(1, len(table.sign)):
        yield c, sorted(filter(itemgetter(1), _row_classes(table, c, policy).items()))


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


def _check_row(d: GaussDiagram, cid: int, policy) -> None:
    """The gate before cid's row is read under the policy: a policy that is not
    a ReductionPolicy raises TypeError before _plan's cache sees it, then an
    unknown cid, an undefined d(cid), or else the first chord crossing cid, in
    position order, whose degree is undefined raises GaussCodeError."""
    _require_policy(policy)
    degree(d, cid)
    if SINGULAR in d._table.sign:  # only a singular chord leaves a degree undefined
        for e, _ in _crossing_row(d._table, cid):
            degree(d, e)


def index_polys(d: GaussDiagram, cid: int, policy: ReductionPolicy) -> dict:
    """n -> Ind_c^n(z) for each gcd class n of the chords crossing cid, n = 0 included.

    One read of cid's crossing row, by _row_classes, grouped by n.  A class
    whose terms all cancel stays, as ZPoly().
    """
    _check_row(d, cid, policy)
    polys = {}
    for (n, phi), count in _row_classes(d._table, cid, policy).items():
        polys.setdefault(n, {})[phi] = count
    return {n: ZPoly(terms) for n, terms in polys.items()}


def _partner(terms: tuple, m: int, policy) -> tuple:
    """partner(P) = -P(z^-1), reduced mod m, on P's terms: Ind_c^n after a switch
    of c, if P is before it.

    P must already be reduced mod m under the policy.  Then negation maps
    the reduced exponents one to one onto themselves (Quotient's 0..m-1,
    Literal's range with both ends of a tie at +-m/2, and every exponent
    when m = 0), so no two terms merge and the result is canonical.  Each
    reduced -e is read from the plan of (m, policy), _plan(m, policy)[-e],
    so a partner whose exponents the plan has seen reduces nothing again.
    """
    plan = _plan(m, policy)
    return tuple(sorted((plan[-e][1], -c) for e, c in terms))


def _pair_sum(policy, pairs) -> Invariant:
    """Sum of a (t^P + t^{partner(P)} - 2) y^n over pairs (n, m, terms of P, a),
    each P reduced mod m."""
    summands = []
    for n, m, P, a in pairs:
        summands += (n, m, P, a), (n, m, _partner(P, m, policy), a)
    return Invariant.from_summands(policy, summands)


def _switch_delta(table, c, policy, include_n0) -> Invariant:
    """H(d) - H(crossing_change(d, c)) for the diagram d of the table, read from
    c's row alone: c's pairs, one per class n of c, class 0 only under include_n0.

    A crossing change at c changes no other chord's Ind_e^n: for a chord e
    crossing c, the switch moves c between r(e) and l(e) and negates sgn(c)
    and d(c), so c still adds sgn(c) at degree d(c) (from r(e), sgn(c) at
    d(c); from l(e), -(-sgn(c)) at -(-d(c))), and d(e), hence e's modulus,
    stays.  A chord that does not cross c does not see it.  c's own classes
    keep their n, and the switch takes each Ind_c^n to its partner and
    negates sgn(c), since it swaps r(c) and l(c).  So H changes by c's pairs
    alone.  Every degree in c's row must be defined.
    """
    cells = sorted(filter(itemgetter(1), _row_classes(table, c, policy).items()))
    return _pair_sum(policy, _index_polys(table, [(c, cells)], include_n0))


def index_function(d: GaussDiagram, cid: int, n: int, policy: ReductionPolicy) -> ZPoly:
    """Ind_c^n(z) with exponents reduced mod |d(c)| under the policy.

    The class n must be an int, not a bool, and at least 0.
    """
    if type(n) is not int or n < 0:
        raise GaussCodeError("class n must be an int >= 0, got %r" % (n,))
    return index_polys(d, cid, policy).get(n, ZPoly())


def _histogram_cells(table, policy):
    """(c, class cells of c) for every chord c, as _row_cells gives them.

    Ind_c^n sees a crossing chord e only through d(e), sgn(e) and its side,
    so for each distinct degree D it needs r_c(D) and l_c(D): the signed
    counts of the degree-D chords in r(c) and in l(c).  One sweep along the
    segment finds, for each chord e, the chords c whose span holds e's Over
    endpoint but not its Under endpoint, and the other way round; those are
    the chords e crosses with that endpoint inside.  Both sets are bitsets
    with one field per chord, so summing sgn(e) times them over the chords
    of degree D counts D's cells of every chord at once.  Which of the two
    counts is r(c) follows c's direction, as in _crossing_row.

    The cells (D, r_c(D)) and (-D, -l_c(D)) of c reach Ind_c^n only through
    their class _plan(|d(c)|, policy)[D] = (n, phi(D)), which is the same
    for every chord of one |d(c)|.  So the fields of each |d(c)| lie side by
    side, and one add per (|d(c)|, signed degree) sums that slice of the
    packed cells into a packed column per class before anything is
    unpacked.  Each class column is written and read little-endian, whatever
    the host, and one struct.unpack reads it whole, zeros included; compress
    hands on each chord's nonzero cells.  The classes of a group are sorted
    once, so every chord's cells come out in (n, phi) order.
    """
    over, under, sign, deg, at, mate = table
    k = len(sign) - 1
    by_degree, by_modulus = defaultdict(list), defaultdict(list)
    for c in range(1, k + 1):
        by_degree[deg[c]].append(c)
        by_modulus[abs(deg[c])].append(c)
    # Field i of a bitset is chords[i], the chords of each |d(c)| side by
    # side.  A field holds a signed count biased by half its range, so sums
    # never carry from one field into the next.  A degree cell counts chords
    # of one degree, and the sweep's fields have `narrow` bytes to hold that;
    # a class cell sums terms of distinct crossing chords, so |count| < k,
    # and the class columns widen every field to `width` bytes.  XOR with
    # the bias turns the fields into two's complement counts, and
    # 2 * bias - x negates every field of x.
    chords = [c for group in by_modulus.values() for c in group]
    most = max(map(len, by_degree.values()), default=0)
    narrow, width = (next(w for w in _FIELD_CODES if n < 1 << (8 * w - 1)) for n in (most, k))
    unit = bytes(narrow - 1) + b"\x80"  # the bias of one narrow field
    field = [0] * (k + 1)
    for i, c in enumerate(chords):
        field[c] = 1 << (8 * narrow * i)
    bias = int.from_bytes(unit * k, "little")
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

    fwd = int.from_bytes(b"".join(b"\xff" * narrow if over[c] < under[c] else bytes(narrow)
                                  for c in chords), "little")  # the forward chords' fields

    def widened(x):
        """The biased fields of x, each zero-extended from narrow to width bytes."""
        packed, out = x.to_bytes(k * narrow, "little"), bytearray(k * width)
        for j in range(narrow):
            out[j::width] = packed[j::narrow]
        return out

    columns = []  # (D, r column) and (-D, -l column), packed, biased and widened
    for D in by_degree:
        o, u = via_over.pop(D), via_under.pop(D)
        columns += (D, widened(u & fwd | o & ~fwd)), (-D, widened(2 * bias - (o & fwd | u & ~fwd)))
    start = 0
    for m, group in by_modulus.items():
        plan, stop = _plan(m, policy), start + len(group) * width
        cell_bias = int.from_bytes((unit + bytes(width - narrow)) * len(group), "little")
        class_bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(group), "little")
        sums = {}  # (n, phi) -> packed class column
        for D, column in columns:
            key = plan[D]
            sums[key] = (sums.get(key, class_bias)
                         + int.from_bytes(column[start:stop], "little") - cell_bias)
        start = stop
        keys, fmt = sorted(sums), "<%d%s" % (len(group), _FIELD_CODES[width])
        rows = [struct.unpack(fmt, (sums[key] ^ class_bias).to_bytes(len(group) * width, "little"))
                for key in keys]
        for c, row in zip(group, zip(*rows)):
            yield c, compress(zip(keys, row), row)


def _cells(table, policy):
    """(c, class cells of c) for every chord c: from the rows below
    _KERNEL_MIN_CHORDS chords, from the histogram kernel from there on."""
    if len(table.sign) - 1 < _KERNEL_MIN_CHORDS:
        return _row_cells(table, policy)
    return _histogram_cells(table, policy)


def compute_H(d: GaussDiagram,
              policy: ReductionPolicy = ReductionPolicy.QUOTIENT,
              include_n0: bool = False) -> Invariant:
    """Evaluate H over all chords and all gcd classes of the diagram.

    A diagram that crossing_change made stores its H per (policy,
    include_n0).  When the diagram it was switched from has H stored for
    the key, H is that H plus the switch's delta (_switch_delta), read from
    the switched chord's row alone.  Every other call reads all the cells.
    """
    _require_policy(policy)
    if type(include_n0) is not bool:
        raise TypeError("include_n0 must be a bool, not %s" % type(include_n0).__name__)
    table, key = d._table, (policy, include_n0)
    if SINGULAR in table.sign:
        raise GaussCodeError("diagram has singular chords; resolve them first")
    parent, c = d._H_link or (None, 0)
    if key in (parent or {}):
        h = parent[key] + _switch_delta(table, c, policy, include_n0)
    else:
        h = Invariant.from_summands(policy, _index_polys(table, _cells(table, policy), include_n0))
    if d._H_store is not None:
        d._H_store[key] = h
    return h


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


def _sorted_terms(inv: Invariant) -> list:
    """(TermKey, coefficient) pairs in ascending (n, m, P) order."""
    return sorted(inv.exp_terms.items(), key=lambda kv: (kv[0].n, kv[0].m, kv[0].P.terms))


def _strata(inv: Invariant):
    """H's canonical walk: (n, terms, constant) for each stratum, n ascending.

    terms are the stratum's (TermKey, coefficient) pairs in _sorted_terms
    order, by (m, P); a stratum may hold terms only (constant 0) or only its
    constant.  render and gordian.decompose both read H in this order.
    """
    by_n = {}
    for key, c in _sorted_terms(inv):
        by_n.setdefault(key.n, []).append((key, c))
    for n in sorted(by_n.keys() | inv.const_terms.keys()):
        yield n, by_n.get(n, []), inv.const_terms.get(n, 0)


def _t_power(P: ZPoly, latex: bool) -> str:
    if P.terms == ((0, 1),):  # t^1
        return "t"
    if latex:
        return "t^{%s}" % P.latex()
    return ("t^%s" if P.is_constant() or P.terms == ((1, 1),) else "t^(%s)") % P


def _y_power(n: int, latex: bool) -> str:
    if n == 0:
        return ""
    if latex:
        return "y" if n == 1 else "y^{%d}" % n
    return "*y" if n == 1 else "*y^%d" % n


def _render_terms(inv: Invariant, latex: bool) -> str:
    out = []
    for n, terms, const in _strata(inv):
        parts = [(c, _t_power(key.P, latex)) for key, c in terms]
        body = _join_signed(parts + [(const, "")] if const else parts, times="" if latex else "*")
        out.append(("\\left(%s\\right)%s" if latex else "(%s)%s") % (body, _y_power(n, latex)))
    return " + ".join(out) or "0"


def invariant_to_json(inv: Invariant) -> str:
    """Canonical JSON text, byte for byte what json.dumps writes for
    {"policy": ..., "terms": [{"n", "m", "P", "coeff"}, ...], "consts": [{"n", "coeff"}, ...]}
    with terms in render order and consts ascending in n.
    """
    terms = ['{"n": %d, "m": %d, "P": [%s], "coeff": %d}'
             % (key.n, key.m, ", ".join(map("[%d, %d]".__mod__, key.P.terms)), coeff)
             for key, coeff in _sorted_terms(inv)]
    consts = map('{"n": %d, "coeff": %d}'.__mod__, sorted(inv.const_terms.items()))
    return '{"policy": "%s", "terms": [%s], "consts": [%s]}' % (
        inv.policy.value, ", ".join(terms), ", ".join(consts))


def _json_int(obj, field, minimum=None) -> int:
    """obj[field], which must be an int (not a bool) and at least `minimum`."""
    v = obj.get(field) if isinstance(obj, dict) else None
    if type(v) is not int or (minimum is not None and v < minimum):
        want = "an integer" if minimum is None else "an integer >= %d" % minimum
        raise ValueError("%s must be %s in %r" % (field, want, obj))
    return v


def invariant_from_json(text: str) -> Invariant:
    """Read invariant_to_json output, a str; a term not in canonical form raises ValueError.

    Canonical form includes the order invariant_to_json writes: terms
    ascending in (n, m, P), constants ascending in n.
    """
    data = _json(_text(text, "a JSON invariant", ValueError), "an invariant", ValueError)
    if not (isinstance(data, dict) and data.keys() == {"policy", "terms", "consts"}
            and isinstance(data["policy"], str) and isinstance(data["terms"], list)
            and isinstance(data["consts"], list)):
        raise ValueError('expected {"policy": ..., "terms": [...], "consts": [...]}')
    policy = ReductionPolicy(data["policy"])
    exp, last = {}, ()
    for t in data["terms"]:
        n, m, coeff = _json_int(t, "n", 0), _json_int(t, "m", 0), _json_int(t, "coeff")
        pairs = t.get("P")
        # ZPoly's TypeError holds the pair rule; a P that is not a list (ZPoly
        # would read a dict or a str) goes in as None, which it refuses
        try:
            P = ZPoly(pairs if isinstance(pairs, list) else None)
        except TypeError:
            raise ValueError("P must be a list of [exponent, coefficient] integer pairs"
                             " in term %r" % (t,)) from None
        if not P:
            raise ValueError("zero exponent polynomial in term %r" % (t,))
        if [list(p) for p in P.terms] != pairs:
            raise ValueError("P needs ascending distinct exponents and nonzero"
                             " coefficients in term %r" % (t,))
        if P.is_constant() and m:
            raise ValueError("constant exponent polynomial needs m = 0 in term %r" % (t,))
        if reduce_poly(P, m, policy) != P:
            raise ValueError("exponents not reduced mod %d under %s in term %r"
                             % (m, policy.value, t))
        key = TermKey(n, m, P)
        if key in exp or not coeff:
            raise ValueError("duplicate or zero-coefficient term %r" % (t,))
        if t.keys() != {"n", "m", "P", "coeff"}:
            raise ValueError("term %r has a key other than n, m, P and coeff" % (t,))
        if (n, m, P.terms) < last:
            raise ValueError("term %r is out of order: terms ascend in (n, m, P)" % (t,))
        exp[key], last = coeff, (n, m, P.terms)
    const, last = {}, -1
    for t in data["consts"]:
        n, coeff = _json_int(t, "n", 0), _json_int(t, "coeff")
        if n in const or not coeff:
            raise ValueError("duplicate or zero-coefficient constant %r" % (t,))
        if t.keys() != {"n", "coeff"}:
            raise ValueError("constant %r has a key other than n and coeff" % (t,))
        if n < last:
            raise ValueError("constant %r is out of order: constants ascend in n" % (t,))
        const[n], last = coeff, n
    return Invariant(policy, exp, const)


# render's formats, in the order the CLI offers them: fmt -> inv -> str.
_FORMATS = {"text": partial(_render_terms, latex=False), "json": invariant_to_json,
            "latex": partial(_render_terms, latex=True)}


def render(inv: Invariant, fmt: str = "text") -> str:
    """Render to `text`, `json` or `latex` in the order of _strata: strata ascend
    in n, terms in (m, P); json lists the terms in that order, then the constants."""
    try:
        to_text = _FORMATS[fmt]
    except (KeyError, TypeError):  # TypeError: an unhashable fmt
        raise ValueError("unknown format %r" % (fmt,)) from None
    return to_text(inv)
