"""Gauss diagrams of knotoids: parsing, serialization, basic symmetries.

A diagram with k chords is a sequence of 2k events along the oriented
segment, two per chord: the Over passage and the Under passage.  Chords
are directed Over -> Under and carry a sign, or are marked singular with
`*` when the crossing is a double point.

Code grammar: tokens `O<id><tag>` / `U<id><tag>` separated by the
whitespace that `str.split()` splits on.  The tag is `+` or `-`, or `*`
for a singular chord (a double point), e.g. `O3* U3*`; it is required on
O tokens and optional on U tokens.  All the tagged tokens of a chord must
agree, and their tag is the chord's sign.
An id is written in ASCII decimal without leading zeros, and the ids of a
code must be exactly 1..k.  The empty code is the trivial diagram.  A
code is read in one regular-expression scan; a rejected code raises
GaussCodeError naming its first bad token in text order.  A code that
passes the token and tag checks but holds an id longer than int() reads
(sys.get_int_max_str_digits()) names its first such token.

The entries that take events from outside check them once.
`GaussDiagram(...)` and `from_chord_positions` run `_validate`, the
event-by-event check.  `parse_gauss_code` (and so `parse_gko`/`load_gko`)
reads each id with one int() call, checks a code on its token columns and
builds through `_built`.  `_reject` words every token fault; the parser
calls `GaussDiagram(...)` only so that `_validate` words the message for a
code that fails a structure check (a repeated or missing token, ids not
1..k).
The library's own builders (the moves, `reverse`, `mirror`,
`crossing_change` and the singular markings and resolutions) make valid
events by construction and go through `GaussDiagram._built`, which does not
check again; the tests check their output instead.  Every diagram builds
its chord table (`_table`) from its events on first use, except one from
`crossing_change`: that hands its result d's table with the switched chord
patched in, an empty store of H values and a link to d's store, through
`GaussDiagram._built_with_table`, its one caller.

Four gates hold the package's input rules, each written once and raising
the error its caller names: `_text` (a reader got a str), `_tuple` (an
iterable), `_seeded` (a seed and int counts) and `_json` (JSON text, the
package's one `json.loads`).
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from itertools import compress, repeat
from operator import itemgetter
from types import MappingProxyType

__all__ = [
    "SINGULAR",
    "GaussCodeError",
    "Event",
    "ChordView",
    "GaussDiagram",
    "parse_gauss_code",
    "serialize",
    "reverse",
    "mirror",
    "crossing_change",
    "random_diagram",
    "random_nested_diagram",
    "from_chord_positions",
    "parse_gko",
    "load_gko",
    "bundled_diagrams",
]

# Sign value marking a singular (double-point) chord.
SINGULAR = 0


class GaussCodeError(ValueError):
    """Raised for malformed codes and structurally invalid diagrams."""


Event = namedtuple("Event", ["chord", "kind", "sign"])

ChordView = namedtuple("ChordView", ["id", "over_pos", "under_pos", "sign"])

# Derived chord data as plain lists, slot 0 unused.  over, under, sign and
# degree are indexed by chord id, degree[c] being None when a singular
# chord crosses c; at[p] (the chord at position p) and mate[p] (the
# position of its other endpoint) are indexed by position.
_ChordTable = namedtuple("_ChordTable", ["over", "under", "sign", "degree", "at", "mate"])

# One match per token: (kind, id, tag, "") for a well-formed token, else
# ("", "", "", token).  re's \s and str.split() agree on every code point.
_TOKEN = re.compile(r"([OU])(0|[1-9][0-9]*)([+\-*]?)(?!\S)|(\S+)")

_TAGS = {"+": 1, "-": -1, "*": SINGULAR}
_TAG_OF = {sign: tag for tag, sign in _TAGS.items()}


def _tuple(items, what: str, error=GaussCodeError) -> tuple:
    """tuple(items), or a one-line `error` naming `what` if items is not iterable."""
    try:
        items = iter(items)
    except TypeError:
        raise error("%s must be iterable, not %r" % (what, items)) from None
    return tuple(items)


def _text(text, what: str, error=GaussCodeError) -> str:
    """text, or a one-line `error` naming its type if it is not a str."""
    if not isinstance(text, str):
        raise error("%s must be a str, not %s" % (what, type(text).__name__))
    return text


def _json(text: str, what: str, error):
    """json.loads(text), or one line of `error` for a decode error, an integer
    past the interpreter's digit limit, a key given twice in one object, or
    nesting too deep to read as `what`."""
    try:
        return json.loads(text, object_pairs_hook=_unrepeated)
    except RecursionError:
        raise error("JSON nested too deeply to read as %s" % what) from None
    except ValueError as exc:  # JSONDecodeError is one too
        raise error(str(exc)) from None


def _unrepeated(pairs) -> dict:
    """json.loads's object_pairs_hook: the dict of an object's pairs, or
    ValueError naming its first repeated key.  The repeat is found by its key,
    not by value identity: JSON's small ints are shared objects."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError("JSON object repeats the key %r" % (key,))
    return obj


def _validate(events):
    if not {Event}.issuperset(map(type, events)):
        pos = next(pos for pos, ev in enumerate(events, start=1) if type(ev) is not Event)
        raise GaussCodeError("event at position %d is %r, not an Event" % (pos, events[pos - 1]))
    # An equal float or bool passes the checks by value; one type scan per column.
    # The ids are scanned first, before the loop hashes them and formats them with %d.
    if not {int}.issuperset(map(type, map(itemgetter(0), events))):
        ev = next(ev for ev in events if type(ev.chord) is not int)
        raise GaussCodeError("chord id %r is not an int" % (ev.chord,))
    seen = {}
    for pos, ev in enumerate(events, start=1):
        if ev.kind not in ("O", "U"):
            raise GaussCodeError("event at position %d has kind %r" % (pos, ev.kind))
        if ev.sign not in (1, -1, SINGULAR):
            raise GaussCodeError("chord %d has sign %r" % (ev.chord, ev.sign))
        slot = seen.setdefault(ev.chord, {})
        if ev.kind in slot:
            raise GaussCodeError("duplicate %s token for chord %d" % (ev.kind, ev.chord))
        slot[ev.kind] = ev
    if not {int}.issuperset(map(type, map(itemgetter(2), events))):
        ev = next(ev for ev in events if type(ev.sign) is not int)
        raise GaussCodeError("chord %d has sign %r, not an int" % (ev.chord, ev.sign))
    for cid, slot in seen.items():
        if len(slot) != 2:
            raise GaussCodeError("chord %d is missing its %s token"
                                 % (cid, "U" if "O" in slot else "O"))
        if slot["O"].sign != slot["U"].sign:
            raise GaussCodeError("chord %d: sign mismatch between O and U tokens" % cid)
    k = len(seen)
    if seen and sorted(seen) != list(range(1, k + 1)):
        raise GaussCodeError("chord ids must be exactly 1..%d, got %s" % (k, sorted(seen)))


@dataclass(frozen=True)
class GaussDiagram:
    """Immutable event sequence; positions are 1-based indices into it."""

    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", _tuple(self.events, "events"))
        _validate(self.events)

    @classmethod
    def _built(cls, events: tuple) -> GaussDiagram:
        """A diagram on a tuple of events that a library builder made valid."""
        d = object.__new__(cls)
        object.__setattr__(d, "events", events)
        return d

    # The store of H values and the link to the parent's store: None except
    # on a diagram that crossing_change made; invariant.compute_H reads both.
    _H_store = _H_link = None

    @classmethod
    def _built_with_table(cls, events: tuple, table: _ChordTable, link: tuple) -> GaussDiagram:
        """_built(events) with its chord table already made; table must be
        exactly what _table would build from events.

        The diagram gets an empty store of H values, a dict from (policy,
        include_n0) that compute_H fills, and link, a pair (store, c): the
        store of the diagram it was switched from (None if that has none)
        and the switched chord c.
        """
        d = cls._built(events)
        object.__setattr__(d, "_table", table)  # fills the cached_property
        object.__setattr__(d, "_H_store", {})
        object.__setattr__(d, "_H_link", link)
        return d

    @property
    def k(self) -> int:
        return len(self.events) // 2

    @cached_property
    def _table(self) -> _ChordTable:
        """Derived chord data, built on first use; see _ChordTable."""
        k = self.k
        over, under, sign = [None] * (k + 1), [None] * (k + 1), [None] * (k + 1)
        at, mate = [None] * (2 * k + 1), [None] * (2 * k + 1)
        prefix = [0]  # prefix[p]: Over signs minus Under signs at positions 1..p
        for pos, (cid, kind, s) in enumerate(self.events, start=1):
            (over if kind == "O" else under)[cid] = pos
            sign[cid] = s
            at[pos] = cid
            prefix.append(prefix[-1] + (s if kind == "O" else -s))
        for o, u in zip(over[1:], under[1:]):
            mate[o], mate[u] = u, o
        # c's own endpoints add sgn(c) - sgn(c) = 0, so one formula fits both directions
        degree = [None] + [prefix[o - 1] - prefix[u] for o, u in zip(over[1:], under[1:])]
        table = _ChordTable(over, under, sign, degree, at, mate)
        for e, s in enumerate(sign):
            if s == SINGULAR:
                for c, _ in _crossing_row(table, e):
                    degree[c] = None
        return table

    def chords(self) -> MappingProxyType:
        """Read-only map chord id -> ChordView, 1-based endpoint positions, built
        from the chord table on each call."""
        over, under, sign = self._table[:3]
        ids = range(1, self.k + 1)
        return MappingProxyType(dict(zip(ids, map(ChordView, ids, over[1:], under[1:], sign[1:]))))

    def chord(self, cid: int) -> ChordView:
        """The ChordView of one chord, read from the chord table.

        The one chord-id rule: cid must be an int, not a bool, in 1..k, else
        GaussCodeError names it.
        """
        if type(cid) is not int or not 1 <= cid <= self.k:
            raise GaussCodeError("no chord with id %r" % (cid,))
        over, under, sign = self._table[:3]
        return ChordView(cid, over[cid], under[cid], sign[cid])

    def singular_ids(self) -> tuple:
        return tuple(c for c, s in enumerate(self._table.sign) if s == SINGULAR)

    def __str__(self) -> str:
        return serialize(self)


def _crossing_row(table: _ChordTable, cid: int) -> list:
    """[(e, in_r), ...] for the chords e crossing cid, in position order.

    e crosses c when exactly one endpoint of e lies strictly inside c's
    span, so the row is read from the events in that span.  e is in r(c)
    when that endpoint is e's Over endpoint and c runs backward (Under
    before Over), or its Under endpoint and c runs forward.
    """
    over, under, _, _, at, mate = table
    o, u = over[cid], under[cid]
    lo, hi = (u, o) if o > u else (o, u)
    back = o > u
    return [(at[p], (over[at[p]] == p) == back)
            for p in range(lo + 1, hi) if not lo < mate[p] < hi]


def from_chord_positions(chords) -> GaussDiagram:
    """Build a diagram from (over_pos, under_pos, sign) triples.

    Positions must be ints (not bools) forming a permutation of 1..2k; ids
    are assigned 1..k in input order.
    """
    chords = _tuple(chords, "chords")
    events = {}
    for i, entry in enumerate(chords, start=1):
        try:
            over, under, sign = entry
        except (TypeError, ValueError):
            over = under = None
        if type(over) is not int or type(under) is not int:
            raise GaussCodeError("chord entry %r is not (over_pos, under_pos, sign) with int"
                                 " positions" % (entry,))
        events[over] = Event(i, "O", sign)
        events[under] = Event(i, "U", sign)
    if sorted(events) != list(range(1, 2 * len(chords) + 1)):
        raise GaussCodeError("endpoint positions must be a permutation of 1..2k")
    return GaussDiagram(tuple(events[p] for p in sorted(events)))


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a Gauss code string; see the module grammar.

    The code is checked once, over whole columns of tokens, and a code that
    passes is built unchecked (_built).  _reject words every token fault: a
    code that fails a token or tag check, or holds an id that int() refuses.
    One that fails a structure check goes through GaussDiagram(...), whose
    _validate words the message.
    """
    found = _TOKEN.findall(_text(text, "a Gauss code"))
    if not found:
        return GaussDiagram._built(())
    kinds, ids, tags, junk = zip(*found)
    signs = dict(compress(zip(ids, tags), tags))  # id -> the last tag on any of its tokens
    try:  # int() refuses a junk token's empty id and an id past the interpreter's digit limit
        nums = tuple(map(int, ids))
    except ValueError:
        _reject(found)
    if ("0" in ids or ("O", "") in zip(kinds, tags)
            or len(set(compress(zip(ids, tags), tags))) != len(signs)
            or "" in tags and len(signs) != len(set(ids))):
        _reject(found)
    events = tuple(map(tuple.__new__, repeat(Event),
                       zip(nums, kinds, map(_TAGS.__getitem__, map(signs.__getitem__, ids)))))
    # The columns have settled each token's form and each chord's one sign.
    # Left for _validate's rules: no (id, kind) token twice and both tokens
    # of every chord; and ids 1..k, which k distinct positive ints (the ids
    # are canonical decimals) are exactly when the largest is k.
    if len(set(zip(ids, kinds))) == len(found) == 2 * len(signs) and max(nums) == len(signs):
        return GaussDiagram._built(events)
    return GaussDiagram(events)  # _validate raises, and words the message


def _reject(found) -> None:
    """Raise for the first bad token of a rejected code, else for its least
    chord with no tagged token, else for its first id longer than int() reads."""
    first = {}  # id -> the tag of its first tagged token
    for kind, cid, tag, junk in found:
        if junk:
            raise GaussCodeError("malformed token %r" % junk)
        if cid == "0":
            raise GaussCodeError("malformed token %r: chord ids start at 1" % (kind + cid + tag))
        if kind == "O" and not tag:
            raise GaussCodeError("token %r: O tokens need a sign or *" % (kind + cid))
        if tag and first.setdefault(cid, tag) != tag:
            raise GaussCodeError("chord %s: sign mismatch between O and U tokens" % cid)
    # canonical decimals order as ints do by (length, text), with no int() to refuse a long id
    unsigned = min(((len(cid), cid) for _, cid, _, _ in found if cid not in first), default=None)
    if unsigned:
        raise GaussCodeError("chord %s has no sign on either token" % unsigned[1])
    limit = sys.get_int_max_str_digits()
    kind, cid, tag, _ = next(token for token in found if len(token[1]) > limit)
    raise GaussCodeError("token %r: chord id has %d digits, past the interpreter's limit of %d"
                         % (kind + cid[:8] + "..." + tag, len(cid), limit))


def serialize(d: GaussDiagram) -> str:
    """Canonical code: every token carries its tag, on U tokens too."""
    return " ".join([kind + str(chord) + _TAG_OF[sign] for chord, kind, sign in d.events])


def reverse(d: GaussDiagram) -> GaussDiagram:
    """Reverse the segment orientation: event order flips, signs stay."""
    return GaussDiagram._built(d.events[::-1])


def _switched(ev: Event) -> Event:
    """ev with Over and Under swapped and its sign negated.

    Read by mirror and crossing_change alone: every other switched crossing,
    a negative skein resolution included, is made by crossing_change.
    """
    return Event(ev.chord, "U" if ev.kind == "O" else "O", -ev.sign)


def mirror(d: GaussDiagram) -> GaussDiagram:
    """Swap Over/Under at every crossing and negate all signs in place."""
    return GaussDiagram._built(tuple(map(_switched, d.events)))


def crossing_change(d: GaussDiagram, cid: int) -> GaussDiagram:
    """Switch one crossing: flip the chord's direction and its sign.

    The result's chord table is d's, patched.  Negating sgn(c) and swapping
    c's Over and Under endpoints leaves what each endpoint adds to W(p), so
    W and every other degree stay, and d(c) changes sign (an undefined d(c)
    stays undefined).  at and mate are shared.

    The result also gets an empty store of H values and a link to d's
    store with c, so that compute_H can find its H as d's plus the switch's
    delta (see invariant._switch_delta for why the delta is c's alone).  It
    holds d's store, never d itself.
    """
    if d.chord(cid).sign == SINGULAR:
        raise GaussCodeError("chord %d is singular; resolve it first" % cid)
    over, under, sign, degree, at, mate = d._table
    o, u = over[cid], under[cid]
    events = list(d.events)
    events[o - 1], events[u - 1] = _switched(events[o - 1]), _switched(events[u - 1])
    over, under, sign, degree = over[:], under[:], sign[:], degree[:]
    over[cid], under[cid], sign[cid] = u, o, -sign[cid]
    degree[cid] = degree[cid] and -degree[cid]  # None stays None
    return GaussDiagram._built_with_table(tuple(events),
                                          _ChordTable(over, under, sign, degree, at, mate),
                                          (d._H_store, cid))


def _seeded(seed, error=ValueError, **counts) -> random.Random:
    """random.Random(seed), once seed and every count are ints (not bools)
    and no count is negative; else `error` naming the param."""
    for name, value in (*counts.items(), ("seed", seed)):
        if type(value) is not int:
            raise error("%s must be an int, not %s" % (name, type(value).__name__))
    for name, value in counts.items():
        if value < 0:
            raise error("%s must be non-negative" % name)
    return random.Random(seed)


def random_diagram(k: int, seed: int) -> GaussDiagram:
    """Seed-deterministic diagram, uniform over pairings, signs, directions."""
    rng = _seeded(seed, k=k)
    positions = list(range(1, 2 * k + 1))
    rng.shuffle(positions)
    return _oriented(rng, zip(positions[::2], positions[1::2]))


def random_nested_diagram(k: int, seed: int) -> GaussDiagram:
    """Seeded diagram whose chords are pairwise nested or disjoint.

    No two chords interleave, so every degree is 0 and H vanishes; used
    to exercise the zero-height side of the certificate.
    """
    rng = _seeded(seed, k=k)
    spans = []

    def fill(lo, count):
        # lay `count` chords inside positions lo..lo+2*count-1
        while count:
            inner = rng.randrange(count)  # chords nested under this one
            spans.append((lo, lo + 2 * inner + 1))
            fill(lo + 1, inner)
            lo += 2 * inner + 2
            count -= inner + 1

    fill(1, k)
    return _oriented(rng, spans)


def _oriented(rng, pairs) -> GaussDiagram:
    """The diagram of chords on the position pairs, each drawn a uniform
    direction and then a uniform sign."""
    chords = []
    for a, b in pairs:
        if rng.random() < 0.5:
            a, b = b, a
        chords.append((a, b, rng.choice((1, -1))))
    return from_chord_positions(chords)


def parse_gko(text: str) -> list:
    """Parse a .gko collection: `name: code` lines, # comments, blanks."""
    out = []
    for lineno, raw in enumerate(_text(text, "a .gko collection").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, code = line.partition(":")
        name = name.strip()
        if not sep or not name:
            raise GaussCodeError("line %d: expected `name: code`" % lineno)
        try:
            out.append((name, parse_gauss_code(code)))
        except GaussCodeError as exc:
            raise GaussCodeError("line %d (%s): %s" % (lineno, name, exc)) from None
    return out


def load_gko(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GaussCodeError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return parse_gko(text)


@cache
def _bundled_pairs() -> tuple:
    path = resources.files(__package__).joinpath("data/paper_fixtures.gko")
    return tuple(parse_gko(path.read_text(encoding="utf-8")))


def bundled_diagrams() -> dict:
    """Named reference diagrams shipped with the package, parsed once."""
    return dict(_bundled_pairs())
