"""Degrees, index functions, H computation, symmetries, and rendering."""

import json
import re
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from knotoidh.gauss import (
    GaussCodeError,
    bundled_diagrams,
    crossing_change,
    mirror,
    parse_gauss_code,
    random_diagram,
    random_nested_diagram,
    reverse,
)
from knotoidh.gordian import crossing_change_delta
from knotoidh.invariant import (
    _KERNEL_MIN_CHORDS,
    Invariant,
    _partner,
    TermKey,
    compute_H,
    crossing_partition,
    degree,
    index_function,
    index_polys,
    invariant_equal,
    invariant_from_json,
    invariant_neg,
    invariant_sub,
    invariant_to_json,
    nonzero_height_certificate,
    render,
    subst_t_inverse,
    subst_z_inverse,
)
from knotoidh.singular import singular_H
from knotoidh.zpoly import ReductionPolicy, ZPoly, reduce_exponent, reduce_poly

QUOT = ReductionPolicy.QUOTIENT
LIT = ReductionPolicy.LITERAL

FIXTURES = bundled_diagrams()

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=8)
policies = st.sampled_from(list(ReductionPolicy))


def test_two_crossing_chords():
    d = FIXTURES["2_2"]
    assert [degree(d, c) for c in (1, 2)] == [1, 1]
    assert crossing_partition(d, 1) == ((), (2,))
    assert crossing_partition(d, 2) == ((1,), ())
    for c in (1, 2):
        assert index_function(d, c, 1, QUOT) == ZPoly.const(1)
        assert index_function(d, c, 1, LIT) == ZPoly.const(1)
    for policy in (QUOT, LIT):
        assert compute_H(d, policy).is_zero()


def test_five_chord_degrees_and_indexes():
    d = FIXTURES["5.1.28"]
    assert [degree(d, c) for c in range(1, 6)] == [-2, 2, 1, -1, 0]
    expected = {
        (1, 1): ZPoly.monomial(-1, 1),   # -z
        (1, 2): ZPoly.const(-1),
        (2, 1): ZPoly.monomial(1, -1),   # z^-1
        (2, 2): ZPoly.const(1),
        (3, 1): ZPoly.const(1),
        (4, 1): ZPoly.const(-1),
        (5, 1): ZPoly(),
        (5, 2): ZPoly(),
    }
    for (c, n), want in expected.items():
        assert index_function(d, c, n, LIT) == want, (c, n)
    # quotient agrees except the chord-2 class-1 representative
    assert index_function(d, 2, 1, QUOT) == ZPoly.monomial(1, 1)
    for (c, n), want in expected.items():
        if (c, n) != (2, 1):
            assert index_function(d, c, n, QUOT) == want, (c, n)


@pytest.mark.parametrize("bad", [True, 1.0, "1", -1, None])
def test_index_function_takes_only_a_class_that_is_an_int_at_least_0(bad):
    with pytest.raises(GaussCodeError, match="^class n must be an int >= 0, got %s$"
                       % re.escape(repr(bad))):
        index_function(FIXTURES["5.1.28"], 1, bad, LIT)


def test_five_chord_invariant_renders():
    d = FIXTURES["5.1.28"]
    h_lit = compute_H(d, LIT)
    h_quot = compute_H(d, QUOT)
    assert render(h_lit) == \
        "(-t^-1 - t + t^(z^-1) + t^(-z))*y + (t^-1 + t - 2)*y^2"
    assert render(h_quot) == \
        "(-t^-1 - t + t^(-z) + t^z)*y + (t^-1 + t - 2)*y^2"
    assert render(h_lit, "latex") == \
        (r"\left(-t^{-1} - t + t^{z^{-1}} + t^{-z}\right)y"
         r" + \left(t^{-1} + t - 2\right)y^{2}")


# Text and LaTeX renders pinned byte for byte: coefficients of 2, -2 and -3,
# inside exponents too; negative leading terms; a multi-term exponent; the
# y^0 stratum; both policies of 5.1.28.
RENDER_PINS = [
    ("O1- U2- U1- O2-", QUOT, False,
     "(-t^-1 - t + 2)*y", r"\left(-t^{-1} - t + 2\right)y"),
    ("U3+ O2+ O1+ O3+ U1+ U2+", QUOT, False,
     "(2*t^-1 + t^(2*z) - 3)*y", r"\left(2t^{-1} + t^{2z} - 3\right)y"),
    ("U3+ O2- O1- O3+ U1- U2-", LIT, False,
     "(-2*t^-1 + t^(-2*z^-1) + 1)*y", r"\left(-2t^{-1} + t^{-2z^{-1}} + 1\right)y"),
    ("U4+ O3- U1- O2+ O1- O5+ O4+ U3- U5+ U2+", LIT, False,
     "(t^-1 + t^(-2*z^-1) - t^(-2*z^-1 - z) - 1)*y",
     r"\left(t^{-1} + t^{-2z^{-1}} - t^{-2z^{-1}-z} - 1\right)y"),
    ("O3+ U2- U1+ O2- O4+ O1+ U3+ U4+", QUOT, True,
     "(t^-1 + t - 2) + (t^(-z^-1) + t^(z^-1) - 2)*y",
     r"\left(t^{-1} + t - 2\right) + \left(t^{-z^{-1}} + t^{z^{-1}} - 2\right)y"),
    (FIXTURES["5.1.28"], QUOT, False,
     "(-t^-1 - t + t^(-z) + t^z)*y + (t^-1 + t - 2)*y^2",
     r"\left(-t^{-1} - t + t^{-z} + t^{z}\right)y + \left(t^{-1} + t - 2\right)y^{2}"),
    (FIXTURES["5.1.28"], LIT, False,
     "(-t^-1 - t + t^(z^-1) + t^(-z))*y + (t^-1 + t - 2)*y^2",
     r"\left(-t^{-1} - t + t^{z^{-1}} + t^{-z}\right)y + \left(t^{-1} + t - 2\right)y^{2}"),
]


@pytest.mark.parametrize("d, policy, include_n0, text, latex", RENDER_PINS)
def test_render_pins(d, policy, include_n0, text, latex):
    if isinstance(d, str):
        d = parse_gauss_code(d)
    h = compute_H(d, policy, include_n0)
    assert render(h, "text") == text
    assert render(h, "latex") == latex


def test_five_chord_invariant_terms():
    h = compute_H(FIXTURES["5.1.28"], QUOT)
    assert h.exp_terms == {
        TermKey(1, 0, ZPoly.const(-1)): -1,
        TermKey(1, 0, ZPoly.const(1)): -1,
        TermKey(1, 2, ZPoly.monomial(-1, 1)): 1,
        TermKey(1, 2, ZPoly.monomial(1, 1)): 1,
        TermKey(2, 0, ZPoly.const(-1)): 1,
        TermKey(2, 0, ZPoly.const(1)): 1,
    }
    assert h.const_terms == {2: -2}


def test_reversed_five_chord_diagram():
    d = FIXTURES["5.1.28"]
    r = FIXTURES["5.1.28_inverse"]
    assert [degree(r, c) for c in range(1, 6)] == [2, -2, -1, 1, 0]
    h_lit = compute_H(r, LIT)
    assert render(h_lit) == \
        "(-t^-1 - t + t^(-z^-1) + t^z)*y + (t^-1 + t - 2)*y^2"
    # t -> t^-1 identity, exact in both policies
    for policy in (QUOT, LIT):
        assert compute_H(r, policy) == subst_t_inverse(compute_H(d, policy))
    # literal mode separates the pair, quotient mode does not
    assert compute_H(r, LIT) != compute_H(d, LIT)
    assert compute_H(r, QUOT) == compute_H(d, QUOT)


@given(sizes, seeds, policies)
def test_reverse_identity(k, seed, policy):
    d = random_diagram(k, seed)
    assert compute_H(reverse(d), policy) == subst_t_inverse(compute_H(d, policy))


@given(sizes, seeds, policies)
def test_mirror_identity(k, seed, policy):
    d = random_diagram(k, seed)
    want = invariant_neg(subst_z_inverse(subst_t_inverse(compute_H(d, policy))))
    assert compute_H(mirror(d), policy) == want


@given(sizes, seeds, policies)
def test_substitutions_are_involutive(k, seed, policy):
    h = compute_H(random_diagram(k, seed), policy)
    assert subst_t_inverse(subst_t_inverse(h)) == h
    assert subst_z_inverse(subst_z_inverse(h)) == h


@given(sizes, seeds)
def test_nested_diagrams_have_zero_invariant(k, seed):
    d = random_nested_diagram(k, seed)
    assert all(degree(d, c) == 0 for c in d.chords())
    for policy in (QUOT, LIT):
        h = compute_H(d, policy)
        assert h.is_zero() and not nonzero_height_certificate(h)


@pytest.mark.parametrize("include_n0", ["no", 1, None])
@pytest.mark.parametrize("evaluate", [compute_H, singular_H])
def test_include_n0_must_be_a_bool(evaluate, include_n0):
    d = FIXTURES["singular_witness"] if evaluate is singular_H else FIXTURES["5.1.28"]
    with pytest.raises(TypeError) as info:
        evaluate(d, QUOT, include_n0)
    assert str(info.value) == "include_n0 must be a bool, not %s" % type(include_n0).__name__


def test_include_n0_stratum():
    d = parse_gauss_code("O3+ U2- U1+ O2- O4+ O1+ U3+ U4+")
    assert {c: degree(d, c) for c in d.chords()} == {1: 0, 2: -1, 3: -1, 4: 0}
    assert render(compute_H(d)) == "(t^(-z^-1) + t^(z^-1) - 2)*y"
    with_n0 = compute_H(d, QUOT, include_n0=True)
    assert render(with_n0) == "(t^-1 + t - 2) + (t^(-z^-1) + t^(z^-1) - 2)*y"


def test_singular_diagram_is_rejected():
    d = FIXTURES["singular_witness"]
    with pytest.raises(GaussCodeError, match="singular"):
        compute_H(d)


def test_degree_is_undefined_exactly_where_a_singular_chord_crosses():
    w = FIXTURES["singular_witness"]  # O1- O2* U3+ U4- O3+ U1- U2* O4-
    msg = r"^degree undefined: crossing chord 2 is singular$"
    for c in (1, 4):  # the chords that singular chord 2 crosses
        with pytest.raises(GaussCodeError, match=msg):
            degree(w, c)
    assert degree(w, 2) == -2 and degree(w, 3) == 1
    for policy in (QUOT, LIT):
        with pytest.raises(GaussCodeError, match=msg):
            index_function(w, 1, 1, policy)
        for read in (index_polys, crossing_change_delta):  # chord 3 crosses chord 4
            with pytest.raises(GaussCodeError, match=msg):
                read(w, 3, policy)


def test_policy_mismatch_raises():
    d = FIXTURES["2_2"]
    with pytest.raises(ValueError, match="polic"):
        invariant_equal(compute_H(d, QUOT), compute_H(d, LIT))
    with pytest.raises(ValueError, match="polic"):
        invariant_sub(compute_H(d, QUOT), compute_H(d, LIT))
    with pytest.raises(ValueError, match="polic"):
        compute_H(d, QUOT) + compute_H(d, LIT)


@pytest.mark.parametrize("policy", ["quotient", None, 1, []])  # [] cannot be hashed
@pytest.mark.parametrize("call", [
    lambda p: compute_H(random_diagram(30, 1), p),
    lambda p: compute_H(FIXTURES["trivial"], p),
    lambda p: index_polys(FIXTURES["2_2"], 1, p),
    lambda p: index_polys(parse_gauss_code("O1+ U1+"), 1, p),  # degree 0
    lambda p: crossing_change_delta(FIXTURES["2_2"], 1, p),
    lambda p: singular_H(FIXTURES["singular_witness"], p),
    lambda p: reduce_exponent(5, 3, p),
    lambda p: reduce_poly(ZPoly([(5, 1)]), 3, p),
    lambda p: Invariant(p),
    lambda p: Invariant.from_summands(p, ()),
    lambda p: Invariant.signed_sum(p, ()),
], ids=["compute_H", "compute_H_trivial", "index_polys", "index_polys_degree_0",
        "crossing_change_delta", "singular_H", "reduce_exponent", "reduce_poly", "Invariant",
        "from_summands", "signed_sum"])
def test_policy_that_is_not_a_reduction_policy_raises(call, policy):
    with pytest.raises(TypeError, match=r"^policy must be a ReductionPolicy, not %s$"
                       % re.escape(repr(policy))):
        call(policy)


def test_invariant_equal_is_false_against_a_non_invariant():
    assert invariant_equal(compute_H(FIXTURES["2_2"]), object()) is False


def test_arithmetic_with_a_non_invariant_raises_type_error():
    h = compute_H(FIXTURES["2_2"])
    for combine in (lambda: h + 1, lambda: h - 1, lambda: invariant_sub(h, object())):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            combine()


@given(sizes, seeds, sizes, seeds, policies)
def test_addition_laws(k1, seed1, k2, seed2, policy):
    a = compute_H(random_diagram(k1, seed1), policy)
    b = compute_H(random_diagram(k2, seed2), policy)
    assert a + b == b + a
    assert (a + b) - b == a
    assert (a + (-a)).is_zero()


def test_sums_neither_change_nor_share_their_operands_dicts():
    """signed_sum takes a first operand of sign +1 as copies of its dicts,
    and drops a key only where the sum there comes to 0."""
    d = random_diagram(12, 1)
    a, b = compute_H(d, QUOT, True), compute_H(crossing_change(d, 3), QUOT, True)
    assert a.exp_terms.keys() & b.exp_terms.keys() and a != b
    before = [(dict(h.exp_terms), dict(h.const_terms)) for h in (a, b)]
    for result in (a + b, a - b, -a, b + a, b - a, -b, a - a):
        for h in (a, b):
            for terms in (h.exp_terms, h.const_terms):
                assert terms is not result.exp_terms and terms is not result.const_terms
        assert [(h.exp_terms, h.const_terms) for h in (a, b)] == before
        assert all(result.exp_terms.values()) and all(result.const_terms.values())
    assert (a - a).is_zero() and (a - b) + b == a and -(-a) == a


def test_an_invariant_is_zero_only_without_terms_and_constants():
    """Each half alone keeps an invariant built by hand from being zero."""
    z = ZPoly.monomial(1, 1)
    assert Invariant(QUOT).is_zero()
    assert not Invariant(QUOT, const_terms={1: -2}).is_zero()
    assert not Invariant(QUOT, exp_terms={TermKey(1, 3, z): 1}).is_zero()


def test_from_summands_stores_m_only_for_nonconstant_exponents():
    z, z2, two = ZPoly.monomial(1, 1), ZPoly.monomial(1, 2), ZPoly.const(2)
    h = Invariant.from_summands(QUOT, [(1, 3, two.terms, 1), (1, 3, z.terms, -2),
                                       (1, 3, z.terms, 1), (2, 3, ZPoly().terms, 5),
                                       (1, 5, two.terms, 1),
                                       (2, 3, z2.terms, 1), (2, 3, z2.terms, -1)])
    assert h.exp_terms == {TermKey(1, 0, two): 2, TermKey(1, 3, z): -1}
    assert h.const_terms == {1: -1}


def test_compute_H_builds_one_unchecked_ZPoly_per_stored_term(monkeypatch):
    checked, unchecked = [], []  # every ZPoly made, by ZPoly(...) and by ZPoly._built
    init, built = ZPoly.__init__, ZPoly._built.__func__

    def counted(self, terms=()):
        checked.append(self)
        init(self, terms)

    def counted_unchecked(cls, terms):
        unchecked.append(built(cls, terms))
        return unchecked[-1]

    monkeypatch.setattr(ZPoly, "__init__", counted)
    monkeypatch.setattr(ZPoly, "_built", classmethod(counted_unchecked))
    rows, kernel = random_diagram(30, 5), random_diagram(200, 3)
    assert rows.k < _KERNEL_MIN_CHORDS <= kernel.k
    for d in (rows, kernel):
        for policy in ReductionPolicy:
            checked.clear()
            unchecked.clear()
            h = compute_H(d, policy, include_n0=True)
            assert not checked
            assert len(unchecked) == len(h.exp_terms)
            assert set(map(id, unchecked)) == {id(key.P) for key in h.exp_terms}
            # the P of several stored terms is equal, yet each term holds its own ZPoly
            assert len({key.P for key in h.exp_terms}) < len(h.exp_terms)


def assert_canonical_polys(h):
    """Every exponent polynomial of h is the ZPoly that the checked constructor makes."""
    for key in h.exp_terms:
        checked = ZPoly(key.P.terms)
        assert key.P == checked and hash(key.P) == hash(checked)
        assert all(type(x) is int for term in key.P.terms for x in term)


@pytest.mark.parametrize("k", [6, 30, _KERNEL_MIN_CHORDS, 90])
@pytest.mark.parametrize("policy", list(ReductionPolicy))
def test_unchecked_exponent_polynomials_are_canonical(k, policy):
    for seed in range(3):
        d = random_diagram(k, seed)
        for include_n0 in (False, True):
            assert_canonical_polys(compute_H(d, policy, include_n0))
        for cid in range(1, k + 1, max(1, k // 6)):
            assert_canonical_polys(crossing_change_delta(d, cid, policy))


def zpoly_partner(P, m, policy):
    """partner(P) through checked ZPoly arithmetic: -P(z^-1), re-reduced mod m."""
    return reduce_poly(-P.subst_z_inverse(), m, policy).terms


def assert_partner_merges_nothing(terms, m, policy):
    got = _partner(terms, m, policy)
    assert got == zpoly_partner(ZPoly(terms), m, policy), (terms, m)
    assert len({e for e, _ in got}) == len(got) == len(terms), (terms, m)


@pytest.mark.parametrize("include_n0", [False, True])
@pytest.mark.parametrize("policy", list(ReductionPolicy))
def test_partner_on_terms_is_the_zpoly_partner_of_every_term_of_H(policy, include_n0):
    """Every term of H, k = 1..70, through both sources; the draws include
    degree-0 chords (m = 0) and, under Literal, exponents at +-m/2.  H keeps
    no term with m = 1, whose P is constant; the hand-made cases cover it."""
    moduli, ties = set(), 0
    for k in range(1, 71):
        for (n, m, P) in compute_H(random_diagram(k, k), policy, include_n0).exp_terms:
            assert_partner_merges_nothing(P.terms, m, policy)
            moduli.add(m if m or P.is_constant() else "degree 0")
            ties += any(2 * e == -m < 0 for e, _ in P.terms)  # Literal alone keeps -m/2
    assert {0, 2, "degree 0"} <= moduli and (ties > 0) == (policy is LIT)


@pytest.mark.parametrize("terms, m, policy, want", [
    (((-2, 1), (2, 3)), 4, LIT, ((-2, -3), (2, -1))),  # both ends of the tie at m/2
    (((-1, 1), (0, 2), (1, 5)), 2, LIT, ((-1, -5), (0, -2), (1, -1))),
    (((0, 1), (1, -2), (3, 4)), 4, QUOT, ((0, -1), (1, -4), (3, 2))),
    (((-3, 1), (2, -1)), 0, QUOT, ((-2, 1), (3, -1))),  # m = 0: a degree-0 chord
    (((-3, 1), (2, -1)), 0, LIT, ((-2, 1), (3, -1))),
    (((0, 5),), 0, QUOT, ((0, -5),)),  # a constant P, stored with m = 0
    (((0, 5),), 0, LIT, ((0, -5),)),
    (((0, 2),), 1, QUOT, ((0, -2),)),  # m = 1: every exponent is 0
    (((0, 2),), 1, LIT, ((0, -2),)),
    ((), 3, QUOT, ()),
])
def test_partner_on_hand_made_terms(terms, m, policy, want):
    assert _partner(terms, m, policy) == want
    assert_partner_merges_nothing(terms, m, policy)


def reduced_exponents(m, policy) -> list:
    """Every exponent reduced mod m under the policy, both ends of a Literal
    tie at +-m/2 included; at m = 0, where nothing is reduced, -12..12."""
    if m == 0:
        return list(range(-12, 13))
    if policy is QUOT:
        return list(range(m))
    return list(range(-(m // 2), m // 2 + 1))


@pytest.mark.parametrize("policy", list(ReductionPolicy))
def test_partner_reads_what_reduce_exponent_gives(policy):
    """_partner reads each exponent from the plan; it must equal the
    exponent reduce_exponent gives, for every reduced exponent, one term at a
    time and all at once, and for a constant P at m = 0."""
    for m in range(13):
        exponents = reduced_exponents(m, policy)
        cases = [((e, 2 * e + 1),) for e in exponents] + [((0, -3),)]
        cases.append(tuple((e, 2 * e + 1) for e in exponents))
        for terms in cases:
            want = tuple(sorted((reduce_exponent(-e, m, policy), -c) for e, c in terms))
            assert _partner(terms, m, policy) == want, (terms, m)
        if policy is LIT and m and m % 2 == 0:  # both ends of the tie are covered
            assert {-m // 2, m // 2} <= set(exponents)


def quotient_image(h):
    """The Quotient invariant that a Literal invariant h reduces to: each
    t^P y^n becomes t^Q y^n, Q = reduce_poly(P, m, QUOTIENT), keyed with
    m = 0 when Q is constant; a zero Q makes t^0 = 1, a constant of y^n."""
    exp, const = defaultdict(int), defaultdict(int, h.const_terms)
    for (n, m, P), a in h.exp_terms.items():
        Q = reduce_poly(P, m, QUOT)
        if Q:
            exp[TermKey(n, 0 if Q.is_constant() else m, Q)] += a
        else:
            const[n] += a
    return Invariant(QUOT, exp, const)


@given(st.integers(min_value=0, max_value=13), seeds, st.booleans())
def test_quotient_H_is_the_image_of_literal_H(k, seed, include_n0):
    d = random_diagram(k, seed)
    assert compute_H(d, QUOT, include_n0) == quotient_image(compute_H(d, LIT, include_n0))


@pytest.mark.parametrize("include_n0", [False, True])
@pytest.mark.parametrize("k, seed", [(40, 0), (40, 1), (70, 0), (70, 1)])
def test_quotient_H_is_the_image_of_literal_H_on_larger_diagrams(k, seed, include_n0):
    d = random_diagram(k, seed)
    assert compute_H(d, QUOT, include_n0) == quotient_image(compute_H(d, LIT, include_n0))


def test_literal_keeps_criterion_03_s_pair_apart_only_at_the_tie_m_2():
    """The Literal difference of 5.1.28 and its reverse lies wholly at m = 2,
    where z and z^-1 (z^(m/2) and z^(-m/2)) are one residue but keep their signs."""
    d = FIXTURES["5.1.28"]
    diff = compute_H(d, LIT) - compute_H(reverse(d), LIT)
    assert render(diff) == "(-t^(-z^-1) + t^(z^-1) + t^(-z) - t^z)*y"
    assert {m for _, m, _ in diff.exp_terms} == {2} and diff.const_terms == {}


def check_literal_relabels_quotient_at_odd_m(d, include_n0) -> dict:
    """Check that Literal's odd-m terms (n, m, P, c) map one to one, by
    P -> reduce_poly(P, m, QUOTIENT), onto exactly Quotient's odd-m terms,
    as the unique residue of least absolute value at odd m makes them;
    return Quotient's odd-m terms."""
    quot = {key: c for key, c in compute_H(d, QUOT, include_n0).exp_terms.items() if key.m % 2}
    image = [(TermKey(n, m, reduce_poly(P, m, QUOT)), c)
             for (n, m, P), c in compute_H(d, LIT, include_n0).exp_terms.items() if m % 2]
    assert len(dict(image)) == len(image) and dict(image) == quot
    return quot


@given(st.integers(min_value=0, max_value=13), seeds, st.booleans())
def test_literal_relabels_quotient_at_odd_m(k, seed, include_n0):
    check_literal_relabels_quotient_at_odd_m(random_diagram(k, seed), include_n0)


@pytest.mark.parametrize("include_n0", [False, True])
def test_literal_relabels_quotient_at_odd_m_on_larger_diagrams(include_n0):
    for seed in range(10):
        assert check_literal_relabels_quotient_at_odd_m(random_diagram(70, seed), include_n0)


@given(sizes, seeds, policies, st.booleans())
def test_json_round_trip(k, seed, policy, include_n0):
    h = compute_H(random_diagram(k, seed), policy, include_n0)
    back = invariant_from_json(invariant_to_json(h))
    assert back == h and back.policy == policy


def test_json_keeps_modulus_zero_on_a_degree_zero_chord():
    h = compute_H(random_diagram(8, 295), QUOT)
    assert h.exp_terms[TermKey(3, 0, ZPoly.monomial(-1, -3))] == 1
    assert invariant_from_json(render(h, "json")) == h


@pytest.mark.parametrize("overrides, message", [
    ({"n": 1.5}, "n must be an integer >= 0"),
    ({"n": True}, "n must be an integer >= 0"),
    ({"n": -1}, "n must be an integer >= 0"),
    ({"m": "2"}, "m must be an integer >= 0"),
    ({"m": -2}, "m must be an integer >= 0"),
    ({"coeff": 1.0}, "coeff must be an integer"),
    ({"coeff": False}, "coeff must be an integer"),
    ({"P": [[1, 1.5]]}, "P must be a list"),
    ({"P": [[True, 1]]}, "P must be a list"),
    ({"P": [[1]]}, "P must be a list"),
    ({"P": "z"}, "P must be a list"),
    ({"P": ""}, "P must be a list"),  # ZPoly("") and ZPoly({}) are zero; P must be a list first
    ({"P": {}}, "P must be a list"),
    ({"P": None}, "P must be a list"),
    ({"P": []}, "zero exponent polynomial"),
    ({"P": [[1, 1], [1, -1]]}, "zero exponent polynomial"),
    ({"m": 0, "P": [[2, 1], [1, 1]]}, "ascending distinct exponents"),
    ({"m": 0, "P": [[1, 1], [1, 1]]}, "ascending distinct exponents"),
    ({"m": 0, "P": [[1, 0], [2, 1]]}, "ascending distinct exponents"),
    ({"P": [[0, 1]]}, "constant exponent polynomial needs m = 0"),
    ({"P": [[5, 1]]}, "not reduced mod 2 under quotient"),
    ({"P": [[-1, 1]]}, "not reduced mod 2 under quotient"),
    ({"policy": "literal", "m": 3, "P": [[2, 1]]}, "not reduced mod 3 under literal"),
    ({"consts": [{"n": 1.5, "coeff": -1}]}, "n must be an integer >= 0"),
    ({"consts": [{"n": 1, "coeff": "-1"}]}, "coeff must be an integer"),
    ({"coeff": 0}, "duplicate or zero-coefficient term"),
    ({"terms": [{"n": 1, "m": 0, "P": [[0, 1]], "coeff": 1}] * 2},
     "duplicate or zero-coefficient term"),
    ({"consts": [{"n": 1, "coeff": 0}]}, "duplicate or zero-coefficient constant"),
    ({"consts": [{"n": 1, "coeff": -1}, {"n": 1, "coeff": 1}]},
     "duplicate or zero-coefficient constant"),
    ({"extra": 0}, "has a key other than n, m, P and coeff"),
    ({"consts": [{"n": 1, "coeff": -1, "extra": 0}]}, "has a key other than n and coeff"),
    ({"consts": [{"n": 1, "coeff": 2}, {"n": 3, "coeff": -1}, {"n": 2, "coeff": 1}]},
     "constant {'n': 2, 'coeff': 1} is out of order: constants ascend in n"),
])
def test_json_rejects_noncanonical_input(overrides, message):
    term = {"n": 1, "m": 2, "P": [[1, 1]], "coeff": 1}
    data = {"policy": "quotient", "terms": [term], "consts": []}
    for key, value in overrides.items():
        (data if key in data else term)[key] = value
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        invariant_from_json(json.dumps(data))
    assert "\n" not in str(info.value)


def test_json_rejects_terms_out_of_render_order():
    data = json.loads(invariant_to_json(compute_H(FIXTURES["5.1.28"])))  # the README's H
    assert len(data["terms"]) == 6
    data["terms"].reverse()
    with pytest.raises(ValueError) as info:
        invariant_from_json(json.dumps(data))
    assert str(info.value) == ("term %r is out of order: terms ascend in (n, m, P)"
                               % (data["terms"][1],))
    data["terms"].reverse()
    data["terms"][2:4] = data["terms"][3:1:-1]  # equal n and m, P swapped
    with pytest.raises(ValueError, match="^term .* is out of order"):
        invariant_from_json(json.dumps(data))


def test_json_long_integer_is_one_value_error(long_digits):
    text = '{"policy": "quotient", "terms": [], "consts": [{"n": 1, "coeff": %s}]}' % long_digits
    with pytest.raises(ValueError) as info:
        invariant_from_json(text)
    assert type(info.value) is ValueError and str(info.value).startswith("Exceeds the limit ")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("text, key", [
    ('{"policy": "quotient", "policy": "literal", "terms": [], "consts": []}', "policy"),
    ('{"policy": "quotient", "terms": [{"n": 1, "m": 2, "P": [[1, 1]], "coeff": 1, "coeff": 1}],'
     ' "consts": []}', "coeff"),
    ('{"policy": "quotient", "terms": [], "consts": [{"n": 1, "n": 2, "coeff": 1}]}', "n"),
], ids=["top_level", "term", "constant"])
def test_json_rejects_a_repeated_key(text, key):
    with pytest.raises(ValueError) as info:
        invariant_from_json(text)
    assert str(info.value) == "JSON object repeats the key %r" % key


@pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000],
                         ids=["arrays", "objects"])
def test_json_nested_too_deeply_is_one_value_error(text):
    with pytest.raises(ValueError) as info:
        invariant_from_json(text)
    assert str(info.value) == "JSON nested too deeply to read as an invariant"


@pytest.mark.parametrize("text", [
    "[]", '{"policy": "quotient", "consts": []}',
    '{"policy": "quotient", "terms": {}, "consts": []}',
    '{"policy": "quotient", "terms": [], "consts": null}',
    '{"terms": [], "consts": []}',
    '{"policy": "quotient", "terms": [], "consts": [], "extra": 0}',
])
def test_json_rejects_a_malformed_document(text):
    with pytest.raises(ValueError, match="^expected"):
        invariant_from_json(text)


def test_render_formats():
    h = compute_H(FIXTURES["5.1.28"], QUOT)
    assert render(h, "text") == render(h)
    assert render(h, "json") == invariant_to_json(h)
    assert render(compute_H(FIXTURES["trivial"]), "text") == "0"
    with pytest.raises(ValueError):
        render(h, "html")


@pytest.mark.parametrize("fmt", ["html", "TEXT", None, 1, ["x"], {"json": 1}])
def test_render_rejects_an_unknown_or_unhashable_format(fmt):
    with pytest.raises(ValueError) as exc:
        render(compute_H(FIXTURES["2_2"]), fmt)
    assert str(exc.value) == "unknown format %r" % (fmt,)


def test_an_invariant_hashes_by_value_and_shows_its_policy_and_text():
    h = compute_H(FIXTURES["5.1.28"], LIT)
    assert hash(h) == hash(compute_H(FIXTURES["5.1.28"], LIT)) == hash(-(-h))
    assert repr(h) == "Invariant(literal, %s)" % render(h)
    assert repr(compute_H(FIXTURES["trivial"])) == "Invariant(quotient, 0)"


def test_trivial_diagram_has_zero_invariant():
    h = compute_H(FIXTURES["trivial"])
    assert h.is_zero() and render(h) == "0"
