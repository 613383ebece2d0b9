"""Reidemeister moves on Gauss diagrams and seeded random walks.

The generators are the oriented moves that suffice for invariance checks:
one R1 kink insert/delete per direction and sign, the R2 poke whose two
new chords are parallel with opposite signs, and the two R3 patterns on
three pairwise-crossing chords (variants `3a` and `3a_prime`).  Every
apply returns a new diagram; every applied move is describable as a
JSON-able MoveSpec so walks can be traced and replayed.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .gauss import Event, GaussDiagram

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

MOVE_KINDS = ("r1_insert", "r1_delete", "r2_insert", "r2_delete", "r3")


class MoveError(ValueError):
    """Raised when a move's pattern precondition fails."""


_INT_PARAMS = ("gap", "sign", "cid", "gap_a", "gap_b", "id1", "id2")
_INT_LIST_PARAMS = {"cids": 2, "bases": 3, "roles": 3}  # name -> length
_STR_PARAMS = ("direction", "assignment", "variant")
_PARAM_NAMES = frozenset(_INT_PARAMS + tuple(_INT_LIST_PARAMS) + _STR_PARAMS)


class _Params(dict):
    """Checked move params, list values as tuples; a missing one raises MoveError."""

    def __init__(self, params):
        if not isinstance(params, Mapping):
            raise MoveError("move params must be a dict, got %r" % (params,))
        super().__init__(params)
        for name, value in self.items():
            if name not in _PARAM_NAMES:
                raise MoveError("param %r must be one of the move params, got %r"
                                % (name, value))
            if name in _INT_PARAMS and type(value) is not int:
                raise MoveError("param %r must be an integer, got %r" % (name, value))
            if name in _INT_LIST_PARAMS:
                size = _INT_LIST_PARAMS[name]
                if not (isinstance(value, (list, tuple)) and len(value) == size
                        and all(type(v) is int for v in value)):
                    raise MoveError("param %r must be a list of %d integers, got %r"
                                    % (name, size, value))
                self[name] = tuple(value)
            if name in _STR_PARAMS and not isinstance(value, str):
                raise MoveError("param %r must be a string, got %r" % (name, value))

    def __missing__(self, name):
        raise MoveError("move is missing param %r" % name)


@dataclass(frozen=True)
class MoveSpec:
    """A move kind and its params, checked once and read-only from then on."""

    kind: str
    params: Mapping

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(_Params(self.params)))

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
# (role, kind).  True = the pairwise-crossing side of the variant,
# False = its image after the move (pairwise non-crossing).
_R3_LAYOUTS = {
    ("3a", True): ((3, "U"), (2, "U"), (1, "U"), (3, "O"), (2, "O"), (1, "O")),
    ("3a", False): ((2, "U"), (3, "U"), (3, "O"), (1, "U"), (1, "O"), (2, "O")),
    ("3a_prime", True): ((3, "U"), (2, "U"), (1, "O"), (3, "O"), (2, "O"), (1, "U")),
    ("3a_prime", False): ((2, "U"), (3, "U"), (3, "O"), (1, "O"), (1, "U"), (2, "O")),
}
_R3_SIGNS = {"3a": {1: 1, 2: -1, 3: 1}, "3a_prime": {1: 1, 2: 1, 3: -1}}


def _shift_ids(events, new_ids):
    """Relabel existing chords so ids in new_ids are free, order kept."""
    out = []
    for ev in events:
        cid = ev.chord
        for c in new_ids:
            if cid >= c:
                cid += 1
        out.append(ev if cid == ev.chord else Event(cid, ev.kind, ev.sign))
    return out


def _drop_ids(events, dead):
    dead = sorted(dead)
    out = []
    for ev in events:
        if ev.chord in dead:
            continue
        cid = ev.chord - sum(1 for c in dead if c < ev.chord)
        out.append(ev if cid == ev.chord else Event(cid, ev.kind, ev.sign))
    return out


def _check_gap(d, gap):
    if not 0 <= gap <= 2 * d.k:
        raise MoveError("gap %d out of range 0..%d" % (gap, 2 * d.k))


def r1_insert(d: GaussDiagram, gap: int, direction: str = FORWARD,
              sign: int = 1, cid: int = None) -> GaussDiagram:
    """Add an isolated kink chord at the gap (0 = before everything)."""
    _check_gap(d, gap)
    if direction not in (FORWARD, BACKWARD):
        raise MoveError("direction must be %r or %r" % (FORWARD, BACKWARD))
    if sign not in (1, -1):
        raise MoveError("sign must be +1 or -1")
    if cid is None:
        cid = d.k + 1
    if not 1 <= cid <= d.k + 1:
        raise MoveError("cid %d out of range 1..%d" % (cid, d.k + 1))
    events = _shift_ids(d.events, (cid,))
    kinds = ("O", "U") if direction == FORWARD else ("U", "O")
    pair = (Event(cid, kinds[0], sign), Event(cid, kinds[1], sign))
    return GaussDiagram(tuple(events[:gap]) + pair + tuple(events[gap:]))


def r1_delete(d: GaussDiagram, cid: int) -> GaussDiagram:
    """Remove a kink: the chord's endpoints must be adjacent."""
    view = d.chord(cid)
    if abs(view.over_pos - view.under_pos) != 1:
        raise MoveError("chord %d is not a kink (endpoints not adjacent)" % cid)
    return GaussDiagram(tuple(_drop_ids(d.events, (cid,))))


def r2_insert(d: GaussDiagram, gap_a: int, gap_b: int,
              assignment: str = FIRST_POSITIVE, cids: tuple = None) -> GaussDiagram:
    """Poke: two parallel interleaved chords with opposite signs.

    The chord pair gets its Over endpoints (adjacent) at gap_a and its
    Under endpoints at gap_b; the first chord is the one whose endpoints
    come first, and `assignment` sets its sign.
    """
    _check_gap(d, gap_a)
    _check_gap(d, gap_b)
    if gap_a >= gap_b:
        raise MoveError("gap_a must be strictly less than gap_b")
    if assignment not in (FIRST_POSITIVE, FIRST_NEGATIVE):
        raise MoveError("assignment must be %r or %r" % (FIRST_POSITIVE, FIRST_NEGATIVE))
    if cids is None:
        cids = (d.k + 1, d.k + 2)
    ca, cb = cids
    if ca == cb or not (1 <= ca <= d.k + 2 and 1 <= cb <= d.k + 2):
        raise MoveError("cids %r invalid for a %d-chord diagram" % (cids, d.k))
    sa = 1 if assignment == FIRST_POSITIVE else -1
    events = _shift_ids(d.events, tuple(sorted((ca, cb))))
    overs = (Event(ca, "O", sa), Event(cb, "O", -sa))
    unders = (Event(ca, "U", sa), Event(cb, "U", -sa))
    return GaussDiagram(tuple(events[:gap_a]) + overs
                        + tuple(events[gap_a:gap_b]) + unders
                        + tuple(events[gap_b:]))


def _r2_pattern(d: GaussDiagram, id1: int, id2: int):
    """Return (first, second) chord views if the pair matches the poke image."""
    va, vb = d.chord(id1), d.chord(id2)
    if va.over_pos > vb.over_pos:
        va, vb = vb, va
    ok = (vb.over_pos == va.over_pos + 1
          and vb.under_pos == va.under_pos + 1
          and va.under_pos > vb.over_pos + 1
          and va.sign in (1, -1) and va.sign == -vb.sign)
    return (va, vb) if ok else None


def r2_delete(d: GaussDiagram, id1: int, id2: int) -> GaussDiagram:
    """Remove a poke pair; the exact r2_insert image is required."""
    pat = _r2_pattern(d, id1, id2)
    if pat is None:
        raise MoveError("chords %d,%d do not form a poke pair" % (id1, id2))
    return GaussDiagram(tuple(_drop_ids(d.events, (id1, id2))))


def detect_r2(d: GaussDiagram) -> list:
    """All deletable poke pairs as (first_id, second_id), position order."""
    out = []
    events = d.events
    for ea, eb in zip(events, events[1:]):
        if ea.kind == eb.kind == "O" and _r2_pattern(d, ea.chord, eb.chord):
            out.append((ea.chord, eb.chord))
    return out


def detect_r3(d: GaussDiagram) -> list:
    """Find all R3 sites on the pairwise-crossing side of each variant.

    Both variants anchor the same way: the lowest pair holds the Under
    endpoints of roles 3 and 2, which pins where the other four endpoints
    must sit, so the scan is linear in the diagram size.
    """
    events = d.events
    top = len(events)
    views = d.chords()
    out = []
    for p in range(1, top):  # left position of the low pair, 1-based
        ea, eb = events[p - 1], events[p]
        if ea.kind != "U" or eb.kind != "U" or ea.chord == eb.chord:
            continue
        u, v = ea.chord, eb.chord
        q = views[u].over_pos - 1
        r = views[v].over_pos
        if not (p + 1 < q and q + 1 < r and r + 1 <= top):
            continue
        e_q, e_r1 = events[q - 1], events[r]
        if e_q.chord != e_r1.chord:
            continue
        w = e_q.chord
        for variant in ("3a", "3a_prime"):
            signs = _R3_SIGNS[variant]
            if (views[u].sign, views[v].sign, views[w].sign) != (
                    signs[3], signs[2], signs[1]):
                continue
            want_b1 = "U" if variant == "3a" else "O"
            want_c2 = "O" if variant == "3a" else "U"
            if e_q.kind == want_b1 and e_r1.kind == want_c2:
                out.append(R3Config(variant, (p, q, r), (w, v, u)))
    return out


def r3_apply(d: GaussDiagram, config: R3Config) -> GaussDiagram:
    """Slide the triangle: swap the two events inside each of the pairs.

    The config is revalidated against both sides of its variant, so
    applying the same config twice returns the original diagram.
    """
    p, q, r = config.bases
    top = 2 * d.k
    if not (1 <= p and p + 1 < q and q + 1 < r and r + 1 <= top):
        raise MoveError("stale R3 configuration: bases %r out of range" % (config.bases,))
    roles = config.roles
    if len(set(roles)) != 3:
        raise MoveError("R3 roles must be three distinct chords")
    positions = (p, p + 1, q, q + 1, r, r + 1)
    actual = tuple(d.events[i - 1] for i in positions)
    views = d.chords()
    signs = _R3_SIGNS.get(config.variant)
    if signs is None:
        raise MoveError("unknown R3 variant %r" % config.variant)
    for role, cid in enumerate(roles, start=1):
        if cid not in views or views[cid].sign != signs[role]:
            raise MoveError("stale R3 configuration: role c%d sign mismatch" % role)
    for side in (True, False):
        layout = _R3_LAYOUTS[(config.variant, side)]
        if actual == tuple(Event(roles[role - 1], kind, signs[role])
                           for role, kind in layout):
            break
    else:
        raise MoveError("stale R3 configuration: events do not match %r" % config.variant)
    ev = list(d.events)
    for base in (p, q, r):
        ev[base - 1], ev[base] = ev[base], ev[base - 1]
    return GaussDiagram(tuple(ev))


def apply_move(d: GaussDiagram, spec: MoveSpec) -> GaussDiagram:
    kind, prm = spec.kind, spec.params
    if kind == "r1_insert":
        return r1_insert(d, prm["gap"], prm.get("direction", FORWARD),
                         prm.get("sign", 1), prm.get("cid"))
    if kind == "r1_delete":
        return r1_delete(d, prm["cid"])
    if kind == "r2_insert":
        return r2_insert(d, prm["gap_a"], prm["gap_b"],
                         prm.get("assignment", FIRST_POSITIVE), prm.get("cids"))
    if kind == "r2_delete":
        return r2_delete(d, prm["id1"], prm["id2"])
    if kind == "r3":
        return r3_apply(d, R3Config(prm["variant"], prm["bases"], prm["roles"]))
    raise MoveError("unknown move kind %r" % kind)


def inverse_spec(d: GaussDiagram, spec: MoveSpec) -> MoveSpec:
    """The move undoing `spec`, where `spec` has not yet been applied to d."""
    kind, prm = spec.kind, spec.params
    if kind == "r1_insert":
        return MoveSpec("r1_delete", {"cid": prm.get("cid") or d.k + 1})
    if kind == "r1_delete":
        view = d.chord(prm["cid"])
        first = min(view.over_pos, view.under_pos)
        direction = FORWARD if view.over_pos < view.under_pos else BACKWARD
        return MoveSpec("r1_insert", {"gap": first - 1, "direction": direction,
                                      "sign": view.sign, "cid": prm["cid"]})
    if kind == "r2_insert":
        cids = prm.get("cids") or (d.k + 1, d.k + 2)
        return MoveSpec("r2_delete", {"id1": cids[0], "id2": cids[1]})
    if kind == "r2_delete":
        pat = _r2_pattern(d, prm["id1"], prm["id2"])
        if pat is None:
            raise MoveError("chords %d,%d do not form a poke pair"
                            % (prm["id1"], prm["id2"]))
        first, second = pat
        assignment = FIRST_POSITIVE if first.sign == 1 else FIRST_NEGATIVE
        return MoveSpec("r2_insert", {"gap_a": first.over_pos - 1,
                                      "gap_b": first.under_pos - 3,
                                      "assignment": assignment,
                                      "cids": (first.id, second.id)})
    if kind == "r3":
        return spec
    raise MoveError("unknown move kind %r" % kind)


def _decode_pair_index(i, gaps):
    # lexicographic (gap_a, gap_b) with gap_a < gap_b over `gaps` values
    for a in range(gaps):
        block = gaps - a - 1
        if i < block:
            return a, a + 1 + i
        i -= block
    raise IndexError


def random_walk(d: GaussDiagram, steps: int, seed: int,
                allowed=None, trace: list = None) -> GaussDiagram:
    """Apply `steps` uniformly chosen applicable moves, deterministically.

    `allowed` restricts the move kinds; kinds with no applicable instance
    contribute nothing to the draw.  Applied MoveSpecs are appended to
    `trace` when given.
    """
    if allowed is None:
        allowed = MOVE_KINDS
    allowed = frozenset(allowed)
    unknown = allowed - set(MOVE_KINDS)
    if unknown:
        raise MoveError("unknown move kinds %s" % sorted(unknown))
    rng = random.Random(seed)
    for _ in range(steps):
        gaps = 2 * d.k + 1
        counts = []
        kink_ids = pokes = configs = None
        for kind in MOVE_KINDS:
            if kind not in allowed:
                counts.append(0)
            elif kind == "r1_insert":
                counts.append(gaps * 4)
            elif kind == "r1_delete":
                kink_ids = [v.id for v in d.chords().values()
                            if abs(v.over_pos - v.under_pos) == 1]
                kink_ids.sort()
                counts.append(len(kink_ids))
            elif kind == "r2_insert":
                counts.append(gaps * (gaps - 1))  # ordered pairs / 2 * 2 signs
            elif kind == "r2_delete":
                pokes = detect_r2(d)
                counts.append(len(pokes))
            else:
                configs = detect_r3(d)
                counts.append(len(configs))
        total = sum(counts)
        if total == 0:
            continue
        i = rng.randrange(total)
        for kind, count in zip(MOVE_KINDS, counts):
            if i < count:
                break
            i -= count
        if kind == "r1_insert":
            gap, rem = divmod(i, 4)
            spec = MoveSpec("r1_insert", {
                "gap": gap,
                "direction": FORWARD if rem < 2 else BACKWARD,
                "sign": 1 if rem % 2 == 0 else -1})
        elif kind == "r1_delete":
            spec = MoveSpec("r1_delete", {"cid": kink_ids[i]})
        elif kind == "r2_insert":
            pair_i, which = divmod(i, 2)
            a, b = _decode_pair_index(pair_i, gaps)
            spec = MoveSpec("r2_insert", {
                "gap_a": a, "gap_b": b,
                "assignment": FIRST_POSITIVE if which == 0 else FIRST_NEGATIVE})
        elif kind == "r2_delete":
            id1, id2 = pokes[i]
            spec = MoveSpec("r2_delete", {"id1": id1, "id2": id2})
        else:
            cfg = configs[i]
            spec = MoveSpec("r3", {"variant": cfg.variant,
                                   "bases": list(cfg.bases),
                                   "roles": list(cfg.roles)})
        d = apply_move(d, spec)
        if trace is not None:
            trace.append(spec)
    return d


def format_trace(specs) -> str:
    """One JSON object per line: {"move": kind, "params": {...}}."""
    return "\n".join(json.dumps({"move": s.kind, "params": dict(s.params)}) for s in specs)


def parse_trace(text: str) -> list:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MoveError("line %d: %s" % (lineno, exc)) from None
        if not (isinstance(obj, dict) and "move" in obj
                and isinstance(obj.get("params"), dict)):
            raise MoveError('line %d: expected {"move": kind, "params": {...}}' % lineno)
        try:
            out.append(MoveSpec(obj["move"], obj["params"]))
        except MoveError as exc:
            raise MoveError("line %d: %s" % (lineno, exc)) from None
    return out
