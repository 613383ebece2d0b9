"""Gordian distance lower bounds from crossing-change deltas.

One crossing change at a chord c with sign eps shifts H by

    eps * (t^{Ind_c^n(z)} + t^{-Ind_c^n(z^-1)} - 2) * y^n

summed over the gcd classes n of c.  Any difference H(K) - H(K') of
homotopic knotoids is therefore a sum of such deltas; decompose() writes
a difference in that shape or proves it impossible, and the per-stratum
coefficient sums bound the Gordian distance from below.

invariant._pair_sum is the one sum of a (t^P + t^{partner(P)} - 2) y^n
over pairs (n, m, terms of P, a), and reconstruct calls it.
crossing_change_delta reads a chord's pairs off its row through
invariant._switch_delta, which compute_H also calls to add a crossing
change's delta to a stored H.
decompose walks the difference once, through invariant._strata, the
order render prints it in: strata ascending in n, terms by (m, P).  Each
stratum gets one ledger of its unpaired terms; a term leaves it when it
is paired, either as the term or as its partner, and the stratum's
constant is checked once its terms are paired, before the next stratum.
_report writes the `gordian` command's one report of a difference:
decomposition_json's keys when decompose pairs it, and the same keys
with a null bound, status not_homotopy_form and a trailing reason when
it cannot.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .gauss import SINGULAR, GaussCodeError, GaussDiagram
from .invariant import (Invariant, _check_row, _pair_sum, _partner, _strata, _switch_delta,
                        compute_H)
from .zpoly import ReductionPolicy, ZPoly

__all__ = [
    "NotHomotopyForm",
    "DeltaPair",
    "GordianDecomposition",
    "crossing_change_delta",
    "decompose",
    "reconstruct",
    "gordian_lower_bound",
    "decomposition_json",
]


class NotHomotopyForm(Exception):
    """The difference cannot be a sum of crossing-change deltas."""


# One delta summand: a * (t^P + t^{partner(P)} - 2) y^n with modulus m.
DeltaPair = namedtuple("DeltaPair", ["n", "m", "P", "a"])


@dataclass(frozen=True)
class GordianDecomposition:
    policy: ReductionPolicy
    pairs: tuple
    bound_per_n: dict
    bound: int


def crossing_change_delta(d: GaussDiagram, cid: int,
                          policy: ReductionPolicy = ReductionPolicy.QUOTIENT) -> Invariant:
    """Predicted H(d) - H(crossing_change(d, cid)), read from cid's row alone."""
    if d.chord(cid).sign == SINGULAR:
        raise GaussCodeError("chord %d is singular; resolve it first" % cid)
    _check_row(d, cid, policy)
    return _switch_delta(d._table, cid, policy, False)


def decompose(delta: Invariant) -> GordianDecomposition:
    """Write delta as a sum of crossing-change summands, or fail.

    Terms pair up under P <-> partner(P) with equal coefficients (even
    when self-paired); each pair contributes |a| to its stratum's bound
    and -2a to its constant, which must account for the stored constant
    exactly.  Raises NotHomotopyForm otherwise.
    """
    pairs = []
    bound_per_n = {}
    for n, terms, const in _strata(delta):
        ledger = dict(terms)  # the stratum's terms not yet paired
        acc_const = bound = 0
        for key, a in terms:
            if ledger.pop(key, None) is None:  # already taken as a partner
                continue
            _, m, P = key
            Q = ZPoly(_partner(P.terms, m, delta.policy))
            if Q == P:
                if a % 2:
                    raise NotHomotopyForm(
                        "self-paired term t^(%s) y^%d has odd coefficient %d" % (P, n, a))
                a //= 2
            else:
                b = ledger.pop(key._replace(P=Q), None)
                if b is None:
                    raise NotHomotopyForm(
                        "term t^(%s) y^%d lacks its partner t^(%s)" % (P, n, Q))
                if b != a:
                    raise NotHomotopyForm(
                        "partner coefficients differ at y^%d: %d vs %d" % (n, a, b))
            pairs.append(DeltaPair(n, m, P, a))
            bound += abs(a)
            acc_const -= 2 * a
        if acc_const != const:
            raise NotHomotopyForm(
                "constant at y^%d is %d, expected %d from the pairing" % (n, const, acc_const))
        bound_per_n[n] = bound
    return GordianDecomposition(delta.policy, tuple(pairs), bound_per_n,
                                max(bound_per_n.values(), default=0))


def reconstruct(dec: GordianDecomposition) -> Invariant:
    """Invariant equal to the decomposed difference, bit for bit."""
    return _pair_sum(dec.policy, ((n, m, P.terms, a) for n, m, P, a in dec.pairs))


def gordian_lower_bound(d1: GaussDiagram, d2: GaussDiagram,
                        policy: ReductionPolicy = ReductionPolicy.QUOTIENT) -> int:
    """Max per-stratum bound for d_G(d1, d2); raises NotHomotopyForm."""
    return decompose(compute_H(d1, policy) - compute_H(d2, policy)).bound


def decomposition_json(dec: GordianDecomposition) -> dict:
    return {
        "bound": dec.bound,
        "per_n": {str(n): v for n, v in sorted(dec.bound_per_n.items())},
        "pairs": [{"n": p.n, "m": p.m, "P": [[e, c] for e, c in p.P.terms], "a": p.a}
                  for p in dec.pairs],
        "status": "ok",
    }


def _report(delta: Invariant) -> dict:
    """The `gordian` command's report on delta: decomposition_json of its
    decomposition, or, when decompose raises NotHomotopyForm, the same keys
    with no bound or pairs, status "not_homotopy_form" and a trailing reason."""
    try:
        return decomposition_json(decompose(delta))
    except NotHomotopyForm as exc:
        return {"bound": None, "per_n": {}, "pairs": [], "status": "not_homotopy_form",
                "reason": str(exc)}
