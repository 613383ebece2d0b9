"""Skein resolutions and the order-one vanishing property."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from knotoidh.gauss import (
    GaussCodeError,
    bundled_diagrams,
    parse_gauss_code,
    random_diagram,
    serialize,
)
from knotoidh.invariant import Invariant, TermKey, compute_H, degree, render
from knotoidh import singular
from knotoidh.moves import r1_insert
from knotoidh.singular import (
    MAX_SINGULAR,
    make_singular,
    random_singular_diagram,
    resolutions,
    singular_H,
)
from knotoidh.zpoly import ReductionPolicy, ZPoly

QUOT = ReductionPolicy.QUOTIENT
LIT = ReductionPolicy.LITERAL

WITNESS = bundled_diagrams()["singular_witness"]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=2, max_value=8)


def test_make_singular():
    d = random_diagram(4, 0)
    s = make_singular(d, (2, 4))
    assert s.singular_ids() == (2, 4)
    assert s.chord(1).sign == d.chord(1).sign
    with pytest.raises(GaussCodeError):
        make_singular(d, (5,))


@pytest.mark.parametrize("ids", [3, None])
def test_make_singular_takes_an_iterable_of_ids(ids):
    with pytest.raises(GaussCodeError) as exc:
        make_singular(random_diagram(4, 1), ids)
    assert str(exc.value) == "ids must be iterable, not %r" % (ids,)


def assert_gate_matches_singular_ids(d):
    """compute_H refuses d exactly when singular_ids() names a chord."""
    if d.singular_ids():
        with pytest.raises(GaussCodeError,
                           match="^diagram has singular chords; resolve them first$"):
            compute_H(d)
    else:
        compute_H(d)


def test_compute_H_refuses_exactly_the_diagrams_with_singular_ids():
    rng = random.Random(0)
    assert_gate_matches_singular_ids(parse_gauss_code(""))
    assert_gate_matches_singular_ids(parse_gauss_code("O1* U1*"))
    for k in range(1, 13):
        for seed in range(4):
            d = random_diagram(k, seed)
            for ids in ([], rng.sample(range(1, k + 1), rng.randint(1, k))):
                assert_gate_matches_singular_ids(make_singular(d, ids))
            # a singular kink crosses nothing, so every degree stays defined
            # and only the sign column shows it
            kink = make_singular(r1_insert(d, rng.randint(0, 2 * k)), [k + 1])
            for c in range(1, k + 2):
                degree(kink, c)  # raises where a degree is undefined
            assert_gate_matches_singular_ids(kink)


def test_resolutions_of_a_singular_chord():
    d = parse_gauss_code("O1+ U2* O2* U1+")
    plus, minus = resolutions(d, 2)
    assert serialize(plus) == "O1+ U2+ O2+ U1+"
    assert serialize(minus) == "O1+ O2- U2- U1+"
    with pytest.raises(GaussCodeError):
        resolutions(d, 1)


def test_witness_resolutions():
    plus, minus = resolutions(WITNESS, 2)
    assert [degree(plus, c) for c in range(1, 5)] == [-2, -2, 1, 1]
    assert [degree(minus, c) for c in range(1, 5)] == [-2, 2, 1, 1]
    for policy in (QUOT, LIT):
        assert compute_H(plus, policy).is_zero()
        assert not compute_H(minus, policy).is_zero()


def test_witness_singular_invariant():
    h = singular_H(WITNESS, QUOT)
    assert render(h) == "(t^(-z) + t^z - 2)*y + (t^-1 + t - 2)*y^2"
    want = Invariant(QUOT, {
        TermKey(1, 2, ZPoly.monomial(-1, 1)): 1,
        TermKey(1, 2, ZPoly.monomial(1, 1)): 1,
        TermKey(2, 0, ZPoly.const(-1)): 1,
        TermKey(2, 0, ZPoly.const(1)): 1,
    }, {1: -2, 2: -2})
    assert h == want
    # literal mode keeps the small representative of the chord-2 index
    assert render(singular_H(WITNESS, LIT)) == \
        "(t^(z^-1) + t^(-z) - 2)*y + (t^-1 + t - 2)*y^2"


@pytest.mark.parametrize("k, s, seed, message", [
    (3, 4, 0, "need 0 <= s <= k"),
    (3, -1, 0, "s must be non-negative"),
    (4, True, 0, "s must be an int, not bool"),
    (4, 1.5, 0, "s must be an int, not float"),
    (4, 1, None, "seed must be an int, not NoneType"),
    (None, 1, 0, "k must be an int, not NoneType"),
    (-1, 0, 0, "k must be non-negative"),
])
def test_random_singular_diagram_rejects_bad_sizes_and_seeds(k, s, seed, message):
    with pytest.raises(ValueError) as exc:
        random_singular_diagram(k, s, seed)
    assert str(exc.value) == message


def test_singular_H_requires_a_singular_chord():
    d = random_diagram(3, 1)
    assert singular_H(d) == compute_H(d)


def test_singular_H_bounds_the_number_of_singular_chords(monkeypatch):
    calls = []

    def counted(d, policy, include_n0):
        calls.append(d)
        return Invariant(policy, {}, {})

    monkeypatch.setattr(singular, "compute_H", counted)
    over = random_singular_diagram(MAX_SINGULAR + 2, MAX_SINGULAR + 1, 5)
    with pytest.raises(GaussCodeError, match="^singular_H resolves at most %d singular "
                                             "chords, got %d$" % (MAX_SINGULAR, MAX_SINGULAR + 1)):
        singular_H(over)
    assert calls == []
    assert singular_H(random_singular_diagram(MAX_SINGULAR + 2, MAX_SINGULAR, 5)).is_zero()
    assert len(calls) == 2 ** MAX_SINGULAR


def resolved_token(token, negative):
    """A token of a canonical code with its `*` resolved, read off the text alone.

    The positive resolution tags the chord `+`; the negative one swaps its O
    and U tokens and tags it `-`.
    """
    kind, cid, tag = token[0], token[1:-1], token[-1]
    if tag != "*":
        return token
    if cid in negative:
        return {"O": "U", "U": "O"}[kind] + cid + "-"
    return kind + cid + "+"


@pytest.mark.parametrize("include_n0", [False, True])
@pytest.mark.parametrize("policy", list(ReductionPolicy))
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_singular_H_is_the_alternating_sum_over_its_resolutions(s, policy, include_n0):
    """sum over all 2^s resolutions of (-1)^(number negative) H, built from
    the code text, not by the library's resolutions."""
    for k, seed in product((s, s + 2, 9), range(3)):
        d = random_singular_diagram(k, s, seed)
        tokens = serialize(d).split()
        ids = [str(cid) for cid in d.singular_ids()]
        exp, const = Counter(), Counter()
        for signs in product((1, -1), repeat=s):
            negative = {cid for cid, sign in zip(ids, signs) if sign < 0}
            code = " ".join(resolved_token(t, negative) for t in tokens)
            h = compute_H(parse_gauss_code(code), policy, include_n0)
            parity = (-1) ** len(negative)
            for key, c in h.exp_terms.items():
                exp[key] += parity * c
            for n, c in h.const_terms.items():
                const[n] += parity * c
        assert singular_H(d, policy, include_n0) == Invariant(policy, exp, const), (k, seed)


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_the_gray_walk_visits_each_resolution_once_with_its_sign(monkeypatch, s):
    """Each resolution reaches compute_H once, with sign (-1)^(number negative),
    and each step from the all-positive one switches one chord."""
    walk = []

    def recorded(d, policy, include_n0):
        walk.append(serialize(d))
        return Invariant(policy, {}, {len(walk): 1})  # its sign lands on y^len(walk)

    monkeypatch.setattr(singular, "compute_H", recorded)
    d = random_singular_diagram(s + 3, s, s)
    signs = singular_H(d).const_terms
    tokens = serialize(d).split()
    ids = [str(cid) for cid in d.singular_ids()]
    expected = {}
    for choice in product((1, -1), repeat=s):
        negative = {cid for cid, sign in zip(ids, choice) if sign < 0}
        expected[" ".join(resolved_token(t, negative) for t in tokens)] = (-1) ** len(negative)
    assert len(walk) == 2 ** s
    assert dict(zip(walk, (signs[i] for i in range(1, len(walk) + 1)))) == expected
    assert walk[0] == " ".join(resolved_token(t, set()) for t in tokens)
    for a, b in zip(walk, walk[1:]):
        assert len({t[1:-1] for t, u in zip(a.split(), b.split()) if t != u}) == 1


@settings(deadline=None)
@given(sizes, seeds, st.sampled_from(list(ReductionPolicy)))
def test_two_singular_diagrams_vanish(k, seed, policy):
    d = random_singular_diagram(k, 2, seed)
    assert len(d.singular_ids()) == 2
    assert singular_H(d, policy).is_zero()


@settings(deadline=None)
@given(st.integers(min_value=3, max_value=7), seeds)
def test_three_singular_diagrams_vanish_too(k, seed):
    d = random_singular_diagram(k, 3, seed)
    assert singular_H(d).is_zero()

