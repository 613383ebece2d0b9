"""Skein resolutions of singular chords and the order-one check.

A singular chord resolves two ways: positively (keep the drawn direction,
sign +1) and negatively (the crossing change of that).  The alternating
sum over all 2^s resolutions extends H to diagrams with s singular
chords; H is Vassiliev of order one exactly when this vanishes for s >= 2
while some 1-singular diagram stays nonzero.
"""

from __future__ import annotations

import random
from itertools import product

from .gauss import (SINGULAR, Event, GaussCodeError, GaussDiagram,
                    bundled_diagrams, crossing_change, random_diagram, serialize)
from .invariant import Invariant, compute_H
from .zpoly import ReductionPolicy

__all__ = [
    "make_singular",
    "resolutions",
    "singular_H",
    "random_singular_diagram",
    "verify_order_one",
]


def make_singular(d: GaussDiagram, ids) -> GaussDiagram:
    """Mark the given chords as singular, keeping their directions."""
    ids = set(ids)
    missing = ids - set(d.chords())
    if missing:
        raise GaussCodeError("no chord with id %d" % min(missing))
    return GaussDiagram(tuple(
        Event(ev.chord, ev.kind, SINGULAR) if ev.chord in ids else ev
        for ev in d.events))


def _resolve(d: GaussDiagram, choices: dict) -> GaussDiagram:
    """Replace singular chords per choices: +1 keeps the drawn direction."""
    events = []
    for ev in d.events:
        c = choices.get(ev.chord)
        if c is None:
            events.append(ev)
        elif c == 1:
            events.append(Event(ev.chord, ev.kind, 1))
        else:
            events.append(Event(ev.chord, "U" if ev.kind == "O" else "O", -1))
    return GaussDiagram(tuple(events))


def resolutions(d: GaussDiagram, cid: int):
    """(positive, negative) resolutions of one singular chord."""
    if d.chord(cid).sign != SINGULAR:
        raise GaussCodeError("chord %d is not singular" % cid)
    plus = _resolve(d, {cid: 1})
    return plus, crossing_change(plus, cid)


def singular_H(d: GaussDiagram,
               policy: ReductionPolicy = ReductionPolicy.QUOTIENT,
               include_n0: bool = False) -> Invariant:
    """Alternating sum of H over all full resolutions of d."""
    ids = d.singular_ids()
    total = Invariant(policy)
    for assignment in product((1, -1), repeat=len(ids)):
        h = compute_H(_resolve(d, dict(zip(ids, assignment))), policy, include_n0)
        total = total - h if assignment.count(-1) % 2 else total + h
    return total


def random_singular_diagram(k: int, s: int, seed: int) -> GaussDiagram:
    """Seed-deterministic k-chord diagram with s chords marked singular."""
    if not 0 <= s <= k:
        raise ValueError("need 0 <= s <= k")
    d = random_diagram(k, seed)
    rng = random.Random(seed)
    return make_singular(d, rng.sample(range(1, k + 1), s))


def verify_order_one(samples: int = 200, max_chords: int = 6, seed: int = 0,
                     policy: ReductionPolicy = ReductionPolicy.QUOTIENT) -> dict:
    """Check order-one behaviour on random 2-singular diagrams.

    Every 2-singular diagram must have singular_H = 0; the bundled
    1-singular witness must stay nonzero.  Returns a report dict with
    `ok` summarizing both.
    """
    rng = random.Random(seed)
    failing = []
    for i in range(samples):
        k = rng.randint(2, max(2, max_chords))
        d = random_singular_diagram(k, 2, seed=rng.randrange(2 ** 31))
        if not singular_H(d, policy).is_zero():
            failing.append(serialize(d))
    witness = bundled_diagrams()["singular_witness"]
    witness_nonzero = not singular_H(witness, policy).is_zero()
    return {
        "samples": samples,
        "max_chords": max_chords,
        "seed": seed,
        "policy": policy.value,
        "two_singular_failures": len(failing),
        "failing": failing[:3],
        "witness_nonzero": witness_nonzero,
        "ok": not failing and witness_nonzero,
    }
