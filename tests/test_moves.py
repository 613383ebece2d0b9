"""Reidemeister move generators, detection, inversion, and walk invariance."""

import dataclasses
import hashlib
import json
import random
from itertools import compress, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from knotoidh import moves, singular
from knotoidh.gauss import (
    GaussDiagram,
    _validate,
    crossing_change,
    from_chord_positions,
    mirror,
    parse_gauss_code,
    random_diagram,
    reverse,
    serialize,
)
from knotoidh.invariant import compute_H, degree
from knotoidh.moves import (
    BACKWARD,
    FIRST_NEGATIVE,
    FIRST_POSITIVE,
    FORWARD,
    MoveError,
    MOVE_KINDS,
    MoveSpec,
    R3Config,
    apply_move,
    detect_r2,
    detect_r3,
    format_trace,
    inverse_spec,
    parse_trace,
    r1_delete,
    r1_insert,
    r2_delete,
    r2_insert,
    r3_apply,
    random_walk,
    _MOVES,
)
from knotoidh.singular import make_singular, resolutions
from knotoidh.zpoly import ReductionPolicy

QUOT = ReductionPolicy.QUOTIENT

# pairwise-crossing sides of the two triangle patterns
CORE_3A = parse_gauss_code("U3+ U2- U1+ O3+ O2- O1+")
CORE_3A_PRIME = parse_gauss_code("U3- U2+ O1+ O3- O2+ U1+")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=8)


def test_r1_insert_and_delete():
    d = parse_gauss_code("O1+ U1+")
    k = r1_insert(d, 1, FORWARD, -1)
    assert serialize(k) == "O1+ O2- U2- U1+"
    assert serialize(r1_insert(d, 0, BACKWARD, 1)) == "U2+ O2+ O1+ U1+"
    assert r1_delete(k, 2) == d
    with pytest.raises(MoveError, match="kink"):
        r1_delete(parse_gauss_code("O1+ U2+ U1+ O2+"), 1)
    with pytest.raises(MoveError, match="gap"):
        r1_insert(d, 3)


def test_r1_insert_relabels_to_keep_ids_dense():
    d = parse_gauss_code("O1+ U1+")
    k = r1_insert(d, 2, FORWARD, 1, cid=1)
    assert serialize(k) == "O2+ U2+ O1+ U1+"
    assert r1_delete(k, 1) == d


def test_r2_insert_and_delete():
    d = parse_gauss_code("O1+ U1+")
    p = r2_insert(d, 0, 1, FIRST_POSITIVE)
    assert serialize(p) == "O2+ O3- O1+ U2+ U3- U1+"
    # the insert's own pair, plus the accidental pair it forms with chord 1
    assert detect_r2(p) == [(2, 3), (3, 1)]
    assert r2_delete(p, 2, 3) == d
    assert r2_delete(p, 3, 2) == d
    assert serialize(r2_delete(p, 3, 1)) == "O1+ U1+"
    with pytest.raises(MoveError, match="poke"):
        r2_delete(p, 1, 2)
    with pytest.raises(MoveError, match="gap_a"):
        r2_insert(d, 1, 1)


def test_r2_delete_requires_the_poke_image():
    # parallel adjacent chords with equal signs are not a poke
    d = parse_gauss_code("O1+ O2+ U1+ U2+")
    assert detect_r2(d) == []
    with pytest.raises(MoveError):
        r2_delete(d, 1, 2)
    # contiguous O O U U is outside the insert image (nothing was poked)
    d = parse_gauss_code("O1+ O2- U1+ U2-")
    assert detect_r2(d) == []
    with pytest.raises(MoveError):
        r2_delete(d, 1, 2)


def test_r3_detection_on_both_cores():
    for core, variant in ((CORE_3A, "3a"), (CORE_3A_PRIME, "3a_prime")):
        configs = detect_r3(core)
        assert configs == [R3Config(variant, (1, 3, 5), (1, 2, 3))]
        moved = r3_apply(core, configs[0])
        assert r3_apply(moved, configs[0]) == core
        # the slid side carries no further site
        assert detect_r3(moved) == []
        assert compute_H(core) == compute_H(moved)


def test_r3_moved_cores():
    moved = r3_apply(CORE_3A, detect_r3(CORE_3A)[0])
    assert serialize(moved) == "U2- U3+ O3+ U1+ O1+ O2-"
    moved = r3_apply(CORE_3A_PRIME, detect_r3(CORE_3A_PRIME)[0])
    assert serialize(moved) == "U2+ U3- O3- O1+ U1+ O2+"


def test_r3_stale_config_is_rejected():
    cfg = detect_r3(CORE_3A)[0]
    with pytest.raises(MoveError, match="stale"):
        r3_apply(CORE_3A_PRIME, cfg)
    with pytest.raises(MoveError, match="stale"):
        r3_apply(CORE_3A, R3Config("3a", (1, 3, 4), (1, 2, 3)))


def spectatored(core, seed):
    """Wrap a triangle core in poke chords so degrees become nontrivial."""
    rng = random.Random(seed)
    d = core
    for _ in range(3):
        gaps = 2 * d.k + 1
        a = rng.randrange(gaps - 1)
        b = rng.randrange(a + 1, gaps)
        d = r2_insert(d, a, b,
                      FIRST_POSITIVE if rng.random() < 0.5 else FIRST_NEGATIVE)
    return d


@given(st.sampled_from(["3a", "3a_prime"]), seeds)
def test_r3_degree_law_and_invariance(variant, seed):
    core = CORE_3A if variant == "3a" else CORE_3A_PRIME
    d = spectatored(core, seed)
    for cfg in detect_r3(d):
        c1, c2, c3 = cfg.roles
        if cfg.variant == "3a":
            assert degree(d, c1) + degree(d, c3) == degree(d, c2)
        else:
            assert degree(d, c3) - degree(d, c1) == degree(d, c2)
        moved = r3_apply(d, cfg)
        assert compute_H(d) == compute_H(moved)
        assert r3_apply(moved, cfg) == d


@settings(deadline=None)
@given(sizes, seeds)
def test_random_walk_preserves_H(k, seed):
    d = random_diagram(k, seed)
    w = random_walk(d, 10, seed=seed ^ 0x5EED)
    assert compute_H(d, QUOT) == compute_H(w, QUOT)


@settings(deadline=None)
@given(sizes, seeds)
def test_walk_trace_replays_forward_and_backward(k, seed):
    d = random_diagram(k, seed)
    trace = []
    w = random_walk(d, 6, seed=seed, trace=trace)
    states = [d]
    for spec in trace:
        states.append(apply_move(states[-1], spec))
    assert states[-1] == w
    back = w
    for spec, before in zip(reversed(trace), reversed(states[:-1])):
        back = apply_move(back, inverse_spec(before, spec))
    assert back == d


@settings(deadline=None)
@given(sizes, seeds)
def test_trace_survives_json(k, seed):
    trace = []
    w = random_walk(random_diagram(k, seed), 6, seed=seed + 1, trace=trace)
    replayed = random_diagram(k, seed)
    for spec in parse_trace(format_trace(trace)):
        replayed = apply_move(replayed, spec)
    assert replayed == w


def assert_valid(d):
    """d passes the check that the library's own builders skip."""
    _validate(d.events)
    assert type(d.events) is tuple and d == GaussDiagram(d.events)


starts = st.one_of(st.builds(random_diagram, st.integers(min_value=0, max_value=6), seeds),
                   st.builds(spectatored, st.sampled_from([CORE_3A, CORE_3A_PRIME]), seeds))


@settings(deadline=None, max_examples=25)
@given(starts, seeds)
def test_library_builders_make_valid_diagrams(d, seed):
    for kind in MOVE_KINDS:
        count, pick = _MOVES[kind].sites(d)
        for i in range(count):
            spec = MoveSpec(kind, pick(i))
            moved = apply_move(d, spec)
            assert_valid(moved)
            back = apply_move(moved, inverse_spec(d, spec))
            assert_valid(back)
            assert back == d
    w = d
    for step, allowed in enumerate((None, ("r1_delete", "r2_delete", "r3")) * 4):
        w = random_walk(w, 1, seed + step, allowed)
        assert_valid(w)
    for image in (reverse(d), mirror(d), *(crossing_change(d, c) for c in range(1, d.k + 1))):
        assert_valid(image)
    s = make_singular(d, random.Random(seed).sample(range(1, d.k + 1), min(d.k, 3)))
    assert_valid(s)
    ids = s.singular_ids()
    for cid in ids:
        for image in resolutions(s, cid):
            assert_valid(image)
    plus = singular._signed(s, set(ids), 1)
    for negative in product((False, True), repeat=len(ids)):  # every full resolution
        image = plus
        for cid in compress(ids, negative):
            image = crossing_change(image, cid)
        assert_valid(image)


def every_diagram(k):
    """Every diagram on k chords up to relabelling: each pairing of the 2k
    positions, each chord's direction and sign."""
    def pairings(points):
        if not points:
            yield []
        for i in range(1, len(points)):
            for rest in pairings(points[1:i] + points[i + 1:]):
                yield [(points[0], points[i])] + rest
    for pairs in pairings(list(range(1, 2 * k + 1))):
        for flips, signs in product(product((False, True), repeat=k), product((1, -1), repeat=k)):
            yield from_chord_positions([(b, a, sign) if flip else (a, b, sign)
                                        for (a, b), flip, sign in zip(pairs, flips, signs)])


@pytest.mark.parametrize("kind, name, added", [("r1_insert", "cid", 1), ("r2_insert", "cids", 2)])
def test_insert_inverses_delete_the_chords_the_insert_added(kind, name, added):
    """At every insert site for k <= 2, with the default ids and each explicit
    choice of them, the inverse undoes the move."""
    runs = 0
    for k in range(3):
        new = range(1, k + added + 1)
        choices = [None, *(new if added == 1 else permutations(new, 2))]
        for d in every_diagram(k):
            count, pick = _MOVES[kind].sites(d)
            for i, ids in product(range(count), choices):
                params = pick(i) if ids is None else {**pick(i), name: ids}
                spec = MoveSpec(kind, params)
                assert apply_move(apply_move(d, spec), inverse_spec(d, spec)) == d, (d, spec)
                runs += 1
    assert runs


def brute_r2(d):
    """Poke pairs from the chord views: Over endpoints adjacent, then Under
    endpoints adjacent in the same order with something between the two
    pairs, and opposite nonsingular signs."""
    views = d.chords().values()
    return sorted(((a.id, b.id) for a in views for b in views
                   if b.over_pos == a.over_pos + 1 and b.under_pos == a.under_pos + 1
                   and a.under_pos > b.over_pos + 1 and a.sign in (1, -1)
                   and b.sign == -a.sign),
                  key=lambda pair: d.chord(pair[0]).over_pos)


# signs of roles (c1, c2, c3) and the six endpoints of the pairwise-crossing
# side in position order, as in CORE_3A and CORE_3A_PRIME
TRIANGLES = {"3a": ((1, -1, 1), "U3 U2 U1 O3 O2 O1"),
             "3a_prime": ((1, 1, -1), "U3 U2 O1 O3 O2 U1")}


def brute_r3(d):
    """R3 sites from the chord views, over every ordered triple of chords."""
    views = d.chords()
    out = []
    for variant, (signs, layout) in TRIANGLES.items():
        for roles in product(views, repeat=3):
            if len(set(roles)) < 3 or [views[c].sign for c in roles] != list(signs):
                continue
            pos = [getattr(views[roles[int(token[1]) - 1]],
                           "over_pos" if token[0] == "O" else "under_pos")
                   for token in layout.split()]
            if (pos[1] == pos[0] + 1 and pos[3] == pos[2] + 1 and pos[5] == pos[4] + 1
                    and pos[0] + 1 < pos[2] and pos[2] + 1 < pos[4]):
                out.append(R3Config(variant, tuple(pos[::2]), roles))
    return sorted(out, key=lambda c: (c.bases, c.variant))


@settings(deadline=None)
@given(starts, seeds, st.integers(min_value=0, max_value=4))
def test_site_scans_match_brute_force(d, seed, grow):
    d = random_walk(d, grow, seed, ("r1_insert", "r2_insert"))
    for e in (d, *(r3_apply(d, c) for c in detect_r3(d))):
        assert detect_r2(e) == brute_r2(e)
        assert detect_r3(e) == brute_r3(e)
        count, pick = _MOVES["r1_delete"].sites(e)
        assert [pick(i)["cid"] for i in range(count)] == \
            [c for c, v in e.chords().items() if abs(v.over_pos - v.under_pos) == 1]


def test_site_scans_on_the_cores():
    pokes = triangles = 0
    for core in (CORE_3A, CORE_3A_PRIME):
        for d in (core, *(spectatored(core, seed) for seed in range(10))):
            assert detect_r2(d) == brute_r2(d)
            assert detect_r3(d) == brute_r3(d)
            pokes, triangles = pokes + len(detect_r2(d)), triangles + len(detect_r3(d))
    assert pokes > 0 and triangles > 2  # some spectators leave the triangle whole


WALK_PIN = "766c84d4548815a02f0595cb91d755b11510508a8f18328936bf93621b35a59f"


def test_seeded_walk_bytes_are_pinned():
    # random diagrams rarely hold an R3 site, so the cores add some
    starts = [random_diagram(k, seed) for k in range(1, 13) for seed in range(5)]
    starts += [spectatored(core, seed) for core in (CORE_3A, CORE_3A_PRIME)
               for seed in range(10)]
    digest = hashlib.sha256()
    kinds = set()
    for allowed in (None, ("r1_delete", "r2_delete", "r3")):
        for i, d in enumerate(starts):
            trace = []
            w = random_walk(d, 8, 7919 * i + 1, allowed, trace)
            digest.update(("%s\n%s\n\n" % (serialize(w), format_trace(trace))).encode())
            kinds.update(s.kind for s in trace)
    assert kinds == set(MOVE_KINDS)
    assert digest.hexdigest() == WALK_PIN


def test_walk_respects_allowed_kinds():
    d = random_diagram(4, 9)
    trace = []
    random_walk(d, 12, seed=3, allowed=("r1_insert", "r1_delete"), trace=trace)
    assert {s.kind for s in trace} <= {"r1_insert", "r1_delete"}
    with pytest.raises(MoveError, match="unknown"):
        random_walk(d, 1, seed=0, allowed=("r9",))


def test_walk_looks_the_site_scans_up_when_called(monkeypatch):
    """A wrapper bound to moves.detect_r2 or moves.detect_r3 sees one scan per step."""
    calls = []
    for name in ("detect_r2", "detect_r3"):
        def counted(d, scan=getattr(moves, name), name=name):
            calls.append(name)
            return scan(d)
        monkeypatch.setattr(moves, name, counted)
    random_walk(random_diagram(30, 4), 3, seed=11)
    assert calls == ["detect_r2", "detect_r3"] * 3


def test_walk_rejects_a_string_for_allowed():
    d = random_diagram(3, 0)
    for allowed in ("r3", "", b"r3", bytearray(b"r3"), b""):
        with pytest.raises(MoveError, match="^allowed must be a collection of move kinds, "
                                            "not the string "):
            random_walk(d, 1, 0, allowed=allowed)
    assert random_walk(d, 1, 0, allowed=["r3"]) == random_walk(d, 1, 0, allowed={"r3"})


@pytest.mark.parametrize("allowed, message", [
    (5, "allowed must be iterable, not 5"),
    ([["r3"]], "unknown move kinds [['r3']]"),
    ([None, "x"], "unknown move kinds [None, 'x']"),
    (("r9", "r1_insert", "a"), "unknown move kinds ['r9', 'a']"),
])
def test_walk_rejects_allowed_that_is_not_an_iterable_of_kinds(monkeypatch, allowed, message):
    """Unknown kinds are listed in the order given, and no generator is ever seeded."""
    monkeypatch.setattr(moves, "_seeded", None)
    with pytest.raises(MoveError) as exc:
        random_walk(random_diagram(3, 0), 1, 0, allowed=allowed)
    assert str(exc.value) == message


@pytest.mark.parametrize("steps, seed, message", [
    (2, None, "seed must be an int, not NoneType"),
    (2, 1.0, "seed must be an int, not float"),
    (2, False, "seed must be an int, not bool"),
    (2.0, 0, "steps must be an int, not float"),
    (True, 0, "steps must be an int, not bool"),
    (-1, 0, "steps must be non-negative"),
])
def test_walk_takes_int_steps_and_seed(steps, seed, message):
    with pytest.raises(MoveError) as exc:
        random_walk(random_diagram(3, 0), steps, seed)
    assert str(exc.value) == message


def test_apply_move_rejects_unknown_kind():
    with pytest.raises(MoveError, match="unknown"):
        apply_move(random_diagram(1, 0), MoveSpec("r4", {}))


@pytest.mark.parametrize("params", [None, [("gap", 0)], "gap=0"])
def test_move_params_that_are_not_a_dict_raise_move_error(params):
    d = random_diagram(3, 0)
    for fn in (apply_move, inverse_spec):
        with pytest.raises(MoveError, match="^move params must be a dict, got "):
            fn(d, MoveSpec("r1_insert", params))


def test_move_spec_is_frozen():
    params = {"cid": 1}
    spec = MoveSpec("r1_delete", params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.kind = "r1_insert"
    with pytest.raises(TypeError):
        spec.params["cid"] = 2
    params["cid"] = 2
    assert spec.params["cid"] == 1
    assert spec == MoveSpec("r1_delete", {"cid": 1})
    assert hash(spec) == hash(MoveSpec("r1_delete", {"cid": 1}))
    assert len({spec, MoveSpec("r1_delete", {"cid": 1}), MoveSpec("r1_delete", {"cid": 2})}) == 2
    r3 = {"variant": "3a", "bases": [1, 3, 5], "roles": [4, 2, 3]}
    spec = MoveSpec("r3", r3)
    assert spec.params["bases"] == (1, 3, 5) and hash(spec) == hash(MoveSpec("r3", r3))
    assert format_trace([spec]) == json.dumps({"move": "r3", "params": r3})


@pytest.mark.parametrize("kind, params, missing", [
    ("r1_insert", {}, "gap"),
    ("r1_delete", {}, "cid"),
    ("r2_insert", {"gap_a": 0}, "gap_b"),
    ("r2_delete", {"id1": 1}, "id2"),
    ("r3", {"variant": "3a", "bases": [1, 3, 5]}, "roles"),
])
def test_missing_move_params_raise_move_error(kind, params, missing):
    d = random_diagram(3, 0)
    with pytest.raises(MoveError, match="missing param '%s'" % missing):
        apply_move(d, MoveSpec(kind, params))
    if kind.endswith("_delete"):  # the only inverses that read the params
        with pytest.raises(MoveError, match="missing param '%s'" % missing):
            inverse_spec(d, MoveSpec(kind, params))


def test_parse_trace_rejects_malformed_lines_with_line_number():
    good = '{"move": "r1_delete", "params": {"cid": 1}}'
    assert parse_trace(good + "\n\n" + good) == [MoveSpec("r1_delete", {"cid": 1})] * 2
    for bad in ('{"move": "r1_delete"}', '{"params": {}}', '[1, 2]',
                '{"move": "r3", "params": [1]}'):
        with pytest.raises(MoveError, match="line 3: expected"):
            parse_trace(good + "\n\n" + bad)
    r3 = '{"move": "r3", "params": {"variant": "3a", "bases": [1, 3, 5], "roles": [1, 2, 3]}}'
    with pytest.raises(MoveError, match="^line 2: Expecting property name"):
        parse_trace(r3 + '\n{oops')
    with pytest.raises(MoveError, match="^line 1: move is missing param "):
        parse_trace('{"move": "r3", "params": {}}\n{oops')
    with pytest.raises(MoveError, match="^line 2: param 'cid' must be an integer"):
        parse_trace(good + '\n{"move": "r1_delete", "params": {"cid": "1"}}')


@pytest.mark.parametrize("bad", ["[" * 100000, '{"move": ' * 100000],
                         ids=["arrays", "objects"])
def test_parse_trace_rejects_json_nested_too_deeply(bad):
    good = '{"move": "r1_delete", "params": {"cid": 1}}'
    with pytest.raises(MoveError) as info:
        parse_trace(good + "\n" + bad)
    assert str(info.value) == "line 2: JSON nested too deeply to read as a move"


def test_parse_trace_rejects_a_long_integer_with_its_line_number(long_digits):
    good = '{"move": "r1_delete", "params": {"cid": 1}}'
    with pytest.raises(MoveError) as info:
        parse_trace(good + '\n{"move": "r1_insert", "params": {"gap": %s}}' % long_digits)
    assert str(info.value).startswith("line 2: Exceeds the limit ")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("line, key", [
    ('{"move": "r1_insert", "params": {"gap": 5, "gap": 0}}', "gap"),
    ('{"move": "r1_delete", "move": "r1_insert", "params": {"gap": 0}}', "move"),
    ('{"move": "r1_insert", "params": {"gap": 0}, "params": {"gap": 0}}', "params"),
], ids=["params", "move", "top_level"])
def test_parse_trace_rejects_a_repeated_key(line, key):
    good = '{"move": "r1_delete", "params": {"cid": 1}}'
    with pytest.raises(MoveError) as info:
        parse_trace(good + "\n" + line)
    assert str(info.value) == "line 2: JSON object repeats the key %r" % key


def test_parse_trace_rejects_keys_other_than_move_and_params():
    good = '{"move": "r1_delete", "params": {"cid": 1}}'
    for extra, key in (('"extra": [1]', "extra"), ('"Move": "r3", "z": 0', "Move")):
        with pytest.raises(MoveError, match="^line 2: unexpected key '%s'" % key):
            parse_trace(good + '\n{"move": "r1_delete", "params": {"cid": 1}, %s}' % extra)


@pytest.mark.parametrize("kind, params, name", [
    ("r1_insert", {"gap": "x"}, "gap"),
    ("r1_insert", {"gap": True}, "gap"),
    ("r1_insert", {"gap": 0, "sign": 1.0}, "sign"),
    ("r1_insert", {"gap": 0, "cid": None}, "cid"),
    ("r1_delete", {"cid": "1"}, "cid"),
    ("r2_insert", {"gap_a": 0, "gap_b": 2, "cids": [4, "5"]}, "cids"),
    ("r2_delete", {"id1": 1, "id2": 2.0}, "id2"),
    ("r3", {"variant": "3a", "bases": "abc", "roles": [1, 2, 3]}, "bases"),
    ("r3", {"variant": "3a", "bases": [1, 3, 5], "roles": [1, False, 3]}, "roles"),
    ("r3", {"variant": ["3a"], "bases": [1, 3, 5], "roles": [1, 2, 3]}, "variant"),
    ("r1_insert", {"gap": 0, "direction": 1}, "direction"),
    ("r2_insert", {"gap_a": 0, "gap_b": 2, "assignment": None}, "assignment"),
    ("r2_insert", {"gap_a": 0, "gap_b": 2, "cids": [4]}, "cids"),
    ("r2_insert", {"gap_a": 0, "gap_b": 2, "cids": []}, "cids"),
    ("r3", {"variant": "3a", "bases": [1, 3], "roles": [1, 2, 3]}, "bases"),
    ("r3", {"variant": "3a", "bases": [1, 3, 5], "roles": [1, 2, 3, 4]}, "roles"),
    ("r1_insert", {"gap": 0, "gapp": [1]}, "gapp"),
])
def test_wrongly_typed_move_params_raise_move_error(kind, params, name):
    d = random_diagram(3, 0)
    for fn in (apply_move, inverse_spec):
        with pytest.raises(MoveError, match="^param '%s' must be" % name):
            fn(d, MoveSpec(kind, params))


# direct calls check their arguments through the same schema as MoveSpec
DIRECT_CALLS = [
    ("r2_insert short cids", lambda d: r2_insert(d, 0, 2, cids=(4,)), "cids"),
    ("r2_insert assignment", lambda d: r2_insert(d, 0, 2, "first"), "assignment"),
    ("r3_apply short bases", lambda d: r3_apply(d, R3Config("3a", (1, 3), (1, 2, 3))), "bases"),
    ("r3_apply variant", lambda d: r3_apply(d, R3Config("zz", (1, 3, 5), (1, 2, 3))), "variant"),
    ("r1_insert bool cid", lambda d: r1_insert(d, 0, cid=True), "cid"),
    ("r1_insert direction", lambda d: r1_insert(d, 0, "sideways"), "direction"),
    ("r1_insert direction None", lambda d: r1_insert(d, 0, None), "direction"),
    ("r1_insert sign", lambda d: r1_insert(d, 0, FORWARD, 0), "sign"),
    ("r1_delete stale", lambda d: r1_delete(d, 99), "cid"),
    ("r2_delete stale", lambda d: r2_delete(d, 99, 1), "id1"),
    ("inverse r1_delete stale", lambda d: inverse_spec(d, MoveSpec("r1_delete", {"cid": 99})),
     "cid"),
    ("inverse r2_delete stale",
     lambda d: inverse_spec(d, MoveSpec("r2_delete", {"id1": 1, "id2": 99})), "id2"),
    ("r3_apply None", lambda d: r3_apply(d, None), "config"),
    ("r3_apply generator bases",
     lambda d: r3_apply(d, R3Config("3a", (p for p in (1, 3, 5)), (1, 2, 3))), "bases"),
    ("r3_apply params dict",
     lambda d: r3_apply(d, {"variant": "3a", "bases": (1, 3, 5), "roles": (1, 2, 3)}), "config"),
    ("apply_move kind string", lambda d: apply_move(d, "r3"), "spec"),
    ("inverse_spec None", lambda d: inverse_spec(d, None), "spec"),
    ("r1_insert cid out of range", lambda d: r1_insert(d, 0, cid=5), "cid"),
    ("r1_insert cid zero", lambda d: r1_insert(d, 0, cid=0), "cid"),
    ("r2_insert cids out of range", lambda d: r2_insert(d, 0, 2, cids=(1, 6)), "cids"),
    ("r2_insert equal cids", lambda d: r2_insert(d, 0, 2, cids=(2, 2)), "cids"),
]


@pytest.mark.parametrize("call, name", [c[1:] for c in DIRECT_CALLS],
                         ids=[c[0] for c in DIRECT_CALLS])
def test_direct_calls_with_bad_arguments_raise_move_error(call, name):
    with pytest.raises(MoveError, match="^param '%s' must be" % name):
        call(random_diagram(3, 0))


@pytest.mark.parametrize("kind, params, message", [
    ("nonsense", {}, "^unknown move kind 'nonsense'$"),
    (["r3"], {}, r"^unknown move kind \['r3'\]$"),
    ("r1_delete", {"cid": 1, "gap": 5}, "^param 'gap' must be one of the r1_delete params cid,"),
    ("r1_delete", {"cid": 1, "variant": "x"}, "^param 'variant' must be one of the r1_delete "),
    ("r3", {"variant": "3a", "roles": [1, 2, 3]}, "^move is missing param 'bases'$"),
    ("r2_insert", {"gap_b": 2}, "^move is missing param 'gap_a'$"),
])
def test_move_spec_is_checked_at_construction(kind, params, message):
    with pytest.raises(MoveError, match=message):
        MoveSpec(kind, params)
