"""Reidemeister moves on Gauss diagrams and seeded random walks.

The table's oriented moves, as Gauss-diagram patterns, are all 4 R1 kinks
(insert/delete per direction and sign), 1 of the 4 R2 pokes (over strand
first, its two new chords parallel with opposite signs) and 2 of the 48
oriented R3 patterns on three pairwise-crossing chords (variants `3a` and
`3a_prime`).  Polyak's minimal generating sets of Reidemeister moves are
a theorem about planar moves; nothing here shows that these Gauss
patterns generate the other R2 and R3 patterns.  Every apply returns a
new diagram; every applied move is describable as a JSON-able MoveSpec
so walks can be traced and replayed.

Each kind is written once, in `_MOVES`: its param schema (checked when a
MoveSpec is built and on direct calls), apply, inverse and site
enumerator, which `apply_move`, `inverse_spec` and `random_walk` read.
`MOVE_KINDS` is read from `_MOVES`, in its order, and an R3 site's params
are its `R3Config` fields, read in field order through `vars`, which
copies nothing, so `_check` sees each value as given.  Every chord id
param is checked by `_chord`.  `r1_insert`, `r2_insert` and their
inverses read the ids of the new chords from `_new_ids`, which passes
`_chord` the number of chords the move adds.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType

from .gauss import Event, GaussDiagram, _json, _seeded, _text, _tuple

__all__ = [
    "MoveError",
    "MoveSpec",
    "R3Config",
    "FORWARD",
    "BACKWARD",
    "FIRST_POSITIVE",
    "FIRST_NEGATIVE",
    "MOVE_KINDS",
    "r1_insert",
    "r1_delete",
    "r2_insert",
    "r2_delete",
    "detect_r2",
    "detect_r3",
    "r3_apply",
    "apply_move",
    "inverse_spec",
    "random_walk",
    "format_trace",
    "parse_trace",
]

FORWARD = "forward"
BACKWARD = "backward"
FIRST_POSITIVE = "first_positive"
FIRST_NEGATIVE = "first_negative"


class MoveError(ValueError):
    """Raised when a move's params or its pattern precondition fail."""


def _check(name, value, want):
    """A param value of type `want`: int, another class, a list length, or
    the allowed values."""
    if want is int:
        ok, what = type(value) is int, "an integer"
    elif isinstance(want, type):
        ok, what = isinstance(value, want), "of type " + want.__name__
    elif type(want) is int:
        ok = (isinstance(value, (list, tuple)) and len(value) == want
              and all(type(v) is int for v in value))
        what = "a list of %d integers" % want
    else:
        ok = any(type(value) is type(a) and value == a for a in want)
        what = "one of %s" % ", ".join(map(repr, want))
    if not ok:
        raise MoveError("param %r must be %s, got %r" % (name, what, value))
    return tuple(value) if type(want) is int else value


def _checked(kind, params) -> dict:
    """Params checked against kind's schema, in their given order, lists as tuples."""
    move = _MOVES.get(kind) if isinstance(kind, str) else None
    if move is None:
        raise MoveError("unknown move kind %r" % (kind,))
    if not isinstance(params, Mapping):
        raise MoveError("move params must be a dict, got %r" % (params,))
    out = {}
    for name, value in params.items():
        if name not in move.schema:
            raise MoveError("param %r must be one of the %s params %s, got %r"
                            % (name, kind, ", ".join(move.schema), value))
        out[name] = _check(name, value, move.schema[name][0])
    for name, (_, default) in move.schema.items():
        if default is ... and name not in out:
            raise MoveError("move is missing param %r" % name)
    return out


def _check_call(kind, **args) -> dict:
    """Check a direct call's arguments; None stands for a default of None."""
    schema = _MOVES[kind].schema
    return _checked(kind, {name: value for name, value in args.items()
                           if value is not None or schema[name][1] is not None})


@dataclass(frozen=True)
class MoveSpec:
    """A move kind and its params, checked once and read-only from then on."""

    kind: str
    params: Mapping

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(_checked(self.kind, self.params)))

    def __hash__(self):
        return hash((self.kind, frozenset(self.params.items())))


@dataclass(frozen=True)
class R3Config:
    """A detected R3 site: three adjacent position pairs and the role map.

    bases = (p, q, r) are the left positions of the pairs (p,p+1) < (q,q+1)
    < (r,r+1); roles = chord ids playing (c1, c2, c3) of the variant.
    """

    variant: str
    bases: tuple
    roles: tuple


# Six events of a config in position order (A1 A2 B1 B2 C1 C2), as
# (role, kind, sign), on the pairwise-crossing side of each variant.  The
# move swaps the two events of each pair (r3_apply), so the image side,
# pairwise non-crossing, is the layout with positions i and i ^ 1 swapped.
_R3_LAYOUTS = {
    "3a": ((3, "U", 1), (2, "U", -1), (1, "U", 1), (3, "O", 1), (2, "O", -1), (1, "O", 1)),
    "3a_prime": ((3, "U", -1), (2, "U", 1), (1, "O", 1), (3, "O", -1), (2, "O", 1), (1, "U", 1)),
}


def _r3_matches(events, variant, bases, roles, either_side=False) -> bool:
    """Whether the six events at bases show the variant's crossing side, or
    with either_side also its image."""
    p, q, r = bases
    actual = tuple(events[i - 1] for i in (p, p + 1, q, q + 1, r, r + 1))
    crossing = tuple(Event(roles[role - 1], kind, sign)
                     for role, kind, sign in _R3_LAYOUTS[variant])
    return actual == crossing or either_side and actual == tuple(crossing[i ^ 1] for i in range(6))


def _relabel(events, new_id) -> tuple:
    """events with chord c renamed new_id[c], or dropped where that is 0.

    One list per call maps every old id; an event whose id stays is reused.
    """
    return tuple([ev if n == ev[0] else tuple.__new__(Event, (n, ev[1], ev[2]))
                  for ev, n in zip(events, map(new_id.__getitem__, map(itemgetter(0), events)))
                  if n])


def _shift_ids(events, new_ids) -> tuple:
    """Relabel existing chords so ids in new_ids are free, order kept."""
    k = len(events) // 2
    if min(new_ids) > k:  # no existing id moves
        return events
    return _relabel(events, [0] + [c for c in range(1, k + len(new_ids) + 1)
                                   if c not in new_ids])


def _drop_ids(events, dead) -> tuple:
    """Remove the chords in dead and close up the ids, order kept."""
    new_id, n = [0], 0
    for c in range(1, len(events) // 2 + 1):
        n += c not in dead
        new_id.append(0 if c in dead else n)
    return _relabel(events, new_id)


def _check_gap(d, gap):
    if not 0 <= gap <= 2 * d.k:
        raise MoveError("gap %d out of range 0..%d" % (gap, 2 * d.k))


def _chord(d, name, cid, added=0):
    """cid, checked to be a chord id of d once `added` chords are added to it."""
    if not 1 <= cid <= d.k + added:
        raise MoveError("param %r must be a chord id in 1..%d, got %d" % (name, d.k + added, cid))
    return cid


def _new_ids(d, prm, name, added):
    """The ids an insert move gives the `added` chords it adds to d: its
    param `name` (a chord id or, for two chords, a pair), else d.k + 1 on.

    The move and its inverse both read them here.
    """
    if name not in prm:
        return tuple(range(d.k + 1, d.k + added + 1))
    ids = (prm[name],) if added == 1 else prm[name]
    if len({_chord(d, name, cid, added) for cid in ids}) != added:
        raise MoveError("param %r must be two different chord ids, got %r" % (name, prm[name]))
    return ids


def r1_insert(d: GaussDiagram, gap: int, direction: str = FORWARD,
              sign: int = 1, cid: int = None) -> GaussDiagram:
    """Add an isolated kink chord at the gap (0 = before everything)."""
    prm = _check_call("r1_insert", gap=gap, direction=direction, sign=sign, cid=cid)
    _check_gap(d, gap)
    (cid,) = _new_ids(d, prm, "cid", 1)
    events = _shift_ids(d.events, (cid,))
    kinds = ("O", "U") if direction == FORWARD else ("U", "O")
    pair = (Event(cid, kinds[0], sign), Event(cid, kinds[1], sign))
    return GaussDiagram._built(events[:gap] + pair + events[gap:])


def r1_delete(d: GaussDiagram, cid: int) -> GaussDiagram:
    """Remove a kink: the chord's endpoints must be adjacent."""
    _check_call("r1_delete", cid=cid)
    if _chord(d, "cid", cid) not in _kinks(d):
        raise MoveError("chord %d is not a kink (endpoints not adjacent)" % cid)
    return GaussDiagram._built(_drop_ids(d.events, (cid,)))


def r2_insert(d: GaussDiagram, gap_a: int, gap_b: int,
              assignment: str = FIRST_POSITIVE, cids: tuple = None) -> GaussDiagram:
    """Poke: two parallel interleaved chords with opposite signs.

    The chord pair gets its Over endpoints (adjacent) at gap_a and its
    Under endpoints at gap_b; the first chord is the one whose endpoints
    come first, and `assignment` sets its sign.
    """
    prm = _check_call("r2_insert", gap_a=gap_a, gap_b=gap_b, assignment=assignment, cids=cids)
    _check_gap(d, gap_a)
    _check_gap(d, gap_b)
    if gap_a >= gap_b:
        raise MoveError("gap_a must be strictly less than gap_b")
    ca, cb = _new_ids(d, prm, "cids", 2)
    sa = 1 if assignment == FIRST_POSITIVE else -1
    events = _shift_ids(d.events, tuple(sorted((ca, cb))))
    overs = (Event(ca, "O", sa), Event(cb, "O", -sa))
    unders = (Event(ca, "U", sa), Event(cb, "U", -sa))
    return GaussDiagram._built(events[:gap_a] + overs + events[gap_a:gap_b] + unders
                               + events[gap_b:])


def _r2_pattern(table, id1: int, id2: int):
    """Return the (first, second) chord ids if the pair matches the poke image."""
    over, under, sign = table[:3]
    a, b = (id1, id2) if over[id1] < over[id2] else (id2, id1)
    ok = (over[b] == over[a] + 1
          and under[b] == under[a] + 1
          and under[a] > over[b] + 1
          and sign[a] in (1, -1) and sign[a] == -sign[b])
    return (a, b) if ok else None


def _poke(d, id1, id2):
    """The pair's (first, second) chord ids; MoveError unless it is a poke."""
    pat = _r2_pattern(d._table, _chord(d, "id1", id1), _chord(d, "id2", id2))
    if pat is None:
        raise MoveError("chords %d,%d do not form a poke pair" % (id1, id2))
    return pat


def r2_delete(d: GaussDiagram, id1: int, id2: int) -> GaussDiagram:
    """Remove a poke pair; the exact r2_insert image is required."""
    _check_call("r2_delete", id1=id1, id2=id2)
    _poke(d, id1, id2)
    return GaussDiagram._built(_drop_ids(d.events, (id1, id2)))


def detect_r2(d: GaussDiagram) -> list:
    """All deletable poke pairs as (first_id, second_id), position order."""
    events, table = d.events, d._table
    return [(ea.chord, eb.chord) for ea, eb in zip(events, events[1:])
            if ea.kind == eb.kind == "O" and _r2_pattern(table, ea.chord, eb.chord)]


def detect_r3(d: GaussDiagram) -> list:
    """Find all R3 sites on the pairwise-crossing side of each variant.

    Both variants anchor the same way: the lowest pair holds the Under
    endpoints of roles 3 and 2, which pins where the other four endpoints
    must sit, so the scan is linear in the diagram size.
    """
    events = d.events
    top = len(events)
    over = d._table.over
    out = []
    for p in range(1, top):  # left position of the low pair, 1-based
        ea, eb = events[p - 1], events[p]
        if ea.kind != "U" or eb.kind != "U" or ea.chord == eb.chord:
            continue
        q = over[ea.chord] - 1
        r = over[eb.chord]
        if not (p + 1 < q and q + 1 < r and r + 1 <= top):
            continue
        if events[q - 1].chord != events[r].chord:  # role c1 at q and r+1
            continue
        roles = (events[q - 1].chord, eb.chord, ea.chord)
        for variant in _R3_LAYOUTS:
            if _r3_matches(events, variant, (p, q, r), roles):
                out.append(R3Config(variant, (p, q, r), roles))
    return out


def r3_apply(d: GaussDiagram, config: R3Config) -> GaussDiagram:
    """Slide the triangle: swap the two events inside each of the pairs.

    The config is revalidated against both sides of its variant, so
    applying the same config twice returns the original diagram.
    """
    prm = _check_call("r3", **vars(_check("config", config, R3Config)))
    p, q, r = prm["bases"]
    if not (1 <= p and p + 1 < q and q + 1 < r and r + 1 <= 2 * d.k):
        raise MoveError("stale R3 configuration: bases %r out of range" % (config.bases,))
    if not _r3_matches(d.events, config.variant, (p, q, r), prm["roles"], either_side=True):
        raise MoveError("stale R3 configuration: events do not match %r" % config.variant)
    ev = list(d.events)
    for base in (p, q, r):
        ev[base - 1], ev[base] = ev[base], ev[base - 1]
    return GaussDiagram._built(tuple(ev))


def _r1_delete_inverse(d, prm):
    cid = _chord(d, "cid", prm["cid"])
    over, under, sign = d._table[:3]
    return MoveSpec("r1_insert", {
        "gap": min(over[cid], under[cid]) - 1,
        "direction": FORWARD if over[cid] < under[cid] else BACKWARD,
        "sign": sign[cid], "cid": cid})


def _r2_delete_inverse(d, prm):
    first, second = _poke(d, prm["id1"], prm["id2"])
    over, under, sign = d._table[:3]
    return MoveSpec("r2_insert", {
        "gap_a": over[first] - 1, "gap_b": under[first] - 3,
        "assignment": FIRST_POSITIVE if sign[first] == 1 else FIRST_NEGATIVE,
        "cids": (first, second)})


def _kinks(d):
    """The ids of the chords whose endpoints are adjacent, in id order."""
    over, under = d._table[:2]
    return [c for c in range(1, d.k + 1) if abs(over[c] - under[c]) == 1]


def _r2_insert_sites(d):
    """Lexicographic gap_a < gap_b, then both assignments; picked lazily."""
    gaps = 2 * d.k + 1

    def pick(i):
        i, which = divmod(i, 2)
        a = 0
        while i >= gaps - a - 1:
            i -= gaps - a - 1
            a += 1
        return {"gap_a": a, "gap_b": a + 1 + i,
                "assignment": (FIRST_POSITIVE, FIRST_NEGATIVE)[which]}
    return gaps * (gaps - 1), pick


def _listed(find, params):
    """A site enumerator over the list find(d), each site named by params(site)."""
    def sites(d):
        found = find(d)
        return len(found), lambda i: params(found[i])
    return sites


# One entry per kind.  schema: name -> (type for _check, default, or ...
# when required); apply(d, **params) -> diagram; inverse(d, params) -> the
# MoveSpec undoing the move on d; sites(d) -> (count, i -> params).  The
# enumerators look detect_r2 and detect_r3 up when called, so a wrapper
# bound to either module attribute sees every scan.
_Move = namedtuple("_Move", "schema apply inverse sites")
_MOVES = {
    "r1_insert": _Move(
        {"gap": (int, ...), "direction": ((FORWARD, BACKWARD), FORWARD),
         "sign": ((1, -1), 1), "cid": (int, None)},
        r1_insert,
        lambda d, prm: MoveSpec("r1_delete", {"cid": _new_ids(d, prm, "cid", 1)[0]}),
        lambda d: (4 * (2 * d.k + 1), lambda i: {"gap": i // 4,
                                                 "direction": (FORWARD, BACKWARD)[i % 4 // 2],
                                                 "sign": (1, -1)[i % 2]})),
    "r1_delete": _Move(
        {"cid": (int, ...)}, r1_delete, _r1_delete_inverse,
        _listed(_kinks, lambda cid: {"cid": cid})),
    "r2_insert": _Move(
        {"gap_a": (int, ...), "gap_b": (int, ...),
         "assignment": ((FIRST_POSITIVE, FIRST_NEGATIVE), FIRST_POSITIVE),
         "cids": (2, None)},
        r2_insert,
        lambda d, prm: MoveSpec("r2_delete", dict(zip(("id1", "id2"),
                                                      _new_ids(d, prm, "cids", 2)))),
        _r2_insert_sites),
    "r2_delete": _Move(
        {"id1": (int, ...), "id2": (int, ...)}, r2_delete, _r2_delete_inverse,
        _listed(lambda d: detect_r2(d), lambda pair: dict(zip(("id1", "id2"), pair)))),
    "r3": _Move(
        {"variant": (tuple(_R3_LAYOUTS), ...), "bases": (3, ...),
         "roles": (3, ...)},
        lambda d, **prm: r3_apply(d, R3Config(**prm)),
        lambda d, prm: MoveSpec("r3", prm),
        _listed(lambda d: detect_r3(d), vars)),
}
MOVE_KINDS = tuple(_MOVES)


def apply_move(d: GaussDiagram, spec: MoveSpec) -> GaussDiagram:
    _check("spec", spec, MoveSpec)
    return _MOVES[spec.kind].apply(d, **spec.params)


def inverse_spec(d: GaussDiagram, spec: MoveSpec) -> MoveSpec:
    """The move undoing `spec`, where `spec` has not yet been applied to d."""
    _check("spec", spec, MoveSpec)
    return _MOVES[spec.kind].inverse(d, spec.params)


def random_walk(d: GaussDiagram, steps: int, seed: int,
                allowed=None, trace: list = None) -> GaussDiagram:
    """Apply `steps` uniformly chosen applicable moves, deterministically.

    `allowed` restricts the move kinds: an iterable, not a string, of
    MOVE_KINDS entries, else MoveError before any draw.  Kinds with no
    applicable instance contribute nothing to the draw.  Applied MoveSpecs
    are appended to `trace` when given.
    """
    if isinstance(allowed, (str, bytes, bytearray)):
        raise MoveError("allowed must be a collection of move kinds, not the string %r"
                        % allowed)
    allowed = MOVE_KINDS if allowed is None else _tuple(allowed, "allowed", MoveError)
    if unknown := [kind for kind in allowed if kind not in MOVE_KINDS]:
        raise MoveError("unknown move kinds %s" % unknown)
    kinds = [kind for kind in MOVE_KINDS if kind in allowed]
    rng = _seeded(seed, MoveError, steps=steps)
    for _ in range(steps):
        sites = [(kind, *_MOVES[kind].sites(d)) for kind in kinds]
        total = sum(count for _, count, _ in sites)
        if total == 0:
            continue
        i = rng.randrange(total)
        for kind, count, pick in sites:
            if i < count:
                break
            i -= count
        spec = MoveSpec(kind, pick(i))
        d = apply_move(d, spec)
        if trace is not None:
            trace.append(spec)
    return d


def format_trace(specs) -> str:
    """One JSON object per line: {"move": kind, "params": {...}}."""
    return "\n".join(json.dumps({"move": s.kind, "params": dict(s.params)}) for s in specs)


def parse_trace(text: str) -> list:
    out = []
    for lineno, line in enumerate(_text(text, "a move trace", MoveError).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _json(line, "a move", MoveError)
            if not (isinstance(obj, dict) and "move" in obj
                    and isinstance(obj.get("params"), dict)):
                raise MoveError('expected {"move": kind, "params": {...}}')
            extra = sorted(obj.keys() - {"move", "params"})
            if extra:
                raise MoveError("unexpected key %r; a trace line holds only move and params"
                                % extra[0])
            out.append(MoveSpec(obj["move"], obj["params"]))
        except MoveError as exc:
            raise MoveError("line %d: %s" % (lineno, exc)) from None
    return out
