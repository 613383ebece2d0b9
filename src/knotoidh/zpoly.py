"""Integer Laurent polynomials in z, plus exponent reduction.

Index values live in Z[z, z^-1].  When a chord has degree of modulus m > 0,
its index exponents are only defined mod m, so a reduction policy picks a
canonical representative for every exponent:

* QUOTIENT: least non-negative residue, 0..m-1.  Reduction is a ring
  homomorphism Z[z,z^-1] -> Z[z]/(z^m - 1), so move invariance is exact.
* LITERAL: representative of least absolute value, ties at m/2 broken
  toward the sign of the input.  This reproduces hand-reduced expressions
  (z^-1 stays z^-1) but is not a class function on residues.  For odd m
  the residue of least absolute value is unique, so there Literal
  reduction is a relabelling of Quotient's and keeps its invariance.  For
  even m the tie at m/2 keeps the input's sign, so z^(m/2) and z^(-m/2),
  one residue, stay apart: that is why Literal H is not move invariant.

m = 0 means no reduction at all.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from itertools import chain
from operator import itemgetter

__all__ = ["ReductionPolicy", "ZPoly", "reduce_exponent", "reduce_poly"]


class ReductionPolicy(enum.Enum):
    QUOTIENT = "quotient"
    LITERAL = "literal"

    # Identity, as Enum's ==, so that cache keys hash in C rather than in Enum.__hash__.
    __hash__ = object.__hash__


def _require_policy(policy) -> None:
    if not isinstance(policy, ReductionPolicy):
        raise TypeError("policy must be a ReductionPolicy, not %r" % (policy,))


def reduce_exponent(k: int, m: int, policy: ReductionPolicy) -> int:
    """Reduce a single exponent k modulo m under the given policy.

    m = 0 leaves k unchanged.  For LITERAL the result r satisfies
    |r| <= m/2, and reduce_exponent(-k) == -reduce_exponent(k) exactly.
    """
    _require_policy(policy)
    if m < 0:
        raise ValueError("modulus must be non-negative")
    if m == 0:
        return k
    r = k % m
    if policy is ReductionPolicy.QUOTIENT:
        return r
    if 2 * r > m or (2 * r == m and k < 0):
        r -= m
    return r


class ZPoly:
    """Immutable Laurent polynomial in z with integer coefficients.

    Terms are kept as a sorted tuple of (exponent, coefficient) pairs with
    zero coefficients dropped, so equal polynomials compare equal and can
    be used as dictionary keys; the hash is taken once, at construction.
    ZPoly(...) checks, merges and sorts what it is given.  _built trusts a
    tuple that is already canonical and checks nothing; its one caller,
    Invariant.from_summands, gets its terms from the library alone.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        """From a dict exponent -> coefficient, or from (exponent, coefficient) pairs, summed.

        Anything else, a non-int value or an item that is not a tuple or list
        of two included, raises one TypeError naming terms.
        """
        try:
            items = terms.items() if isinstance(terms, dict) else tuple(terms)
            pairs = ({tuple, list}.issuperset(map(type, items))
                     and {2}.issuperset(map(len, items))
                     and {int}.issuperset(map(type, chain.from_iterable(items))))
        except TypeError:  # terms is not iterable
            pairs = False
        if not pairs:
            raise TypeError("ZPoly needs int exponents and coefficients, not %r" % (terms,))
        merged = defaultdict(int)
        for e, c in items:
            merged[e] += c
        self.terms = tuple(sorted(filter(itemgetter(1), merged.items())))
        self._hash = hash(self.terms)

    @classmethod
    def _built(cls, terms: tuple) -> "ZPoly":
        """A ZPoly on terms already as in ZPoly.terms: int pairs, sorted, distinct, nonzero."""
        p = object.__new__(cls)
        p.terms, p._hash = terms, hash(terms)
        return p

    @classmethod
    def const(cls, c: int) -> "ZPoly":
        return cls(((0, c),))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "ZPoly":
        return cls(((exp, coeff),))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, ZPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "ZPoly") -> "ZPoly":
        if not isinstance(other, ZPoly):
            return NotImplemented
        return ZPoly(self.terms + other.terms)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple((e, -c) for e, c in self.terms))

    def subst_z_inverse(self) -> "ZPoly":
        """Substitute z -> z^-1, i.e. negate every exponent."""
        return ZPoly(tuple((-e, c) for e, c in self.terms))

    def is_constant(self) -> bool:
        terms = self.terms  # sorted with distinct exponents: a constant has at most (0, c)
        return not terms or (len(terms) == 1 and terms[0][0] == 0)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0][1] if self.terms else 0

    def __str__(self) -> str:
        return _join_signed((c, "" if e == 0 else "z" if e == 1 else "z^%d" % e)
                            for e, c in self.terms)

    def __repr__(self) -> str:
        return "ZPoly(%r)" % (self.terms,)

    def latex(self) -> str:
        return _join_signed(((c, "" if e == 0 else "z" if e == 1 else "z^{%d}" % e)
                             for e, c in self.terms), times="", sep="")


def _join_signed(terms, times: str = "*", sep: str = " ") -> str:
    """Write (coefficient, body) pairs as a signed sum such as `-a + 2*b - 3`.

    An empty body is the unit, shown as its bare |coefficient|; any other
    body gets a |coefficient| prefix joined by `times` unless that is 1.
    The sign comes first on the leading term and between `sep`s after it.
    """
    out = []
    for c, body in terms:
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = "%d%s%s" % (abs(c), times, body)
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+" if c > 0 else "-") + sep + body)
    return sep.join(out) or "0"


def reduce_poly(p: ZPoly, m: int, policy: ReductionPolicy) -> ZPoly:
    """Reduce every exponent of p modulo m; merged terms may cancel."""
    if m == 0:
        return p
    return ZPoly(tuple((reduce_exponent(e, m, policy), c) for e, c in p.terms))
