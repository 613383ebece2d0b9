"""Exponent reduction policies and sparse integer z-polynomials."""

import pytest
from hypothesis import given, strategies as st

from knotoidh.zpoly import ReductionPolicy, ZPoly, reduce_exponent, reduce_poly

QUOT = ReductionPolicy.QUOTIENT
LIT = ReductionPolicy.LITERAL

exponents = st.integers(min_value=-60, max_value=60)
moduli = st.integers(min_value=0, max_value=12)
policies = st.sampled_from(list(ReductionPolicy))
polys = st.lists(
    st.tuples(st.integers(min_value=-6, max_value=6),
              st.integers(min_value=-5, max_value=5)),
    max_size=6).map(ZPoly)


def test_modulus_zero_is_identity():
    for k in (-7, 0, 3):
        assert reduce_exponent(k, 0, QUOT) == k
        assert reduce_exponent(k, 0, LIT) == k


def test_quotient_least_nonnegative():
    assert reduce_exponent(7, 3, QUOT) == 1
    assert reduce_exponent(-1, 3, QUOT) == 2
    assert reduce_exponent(-6, 3, QUOT) == 0
    assert reduce_exponent(2, 2, QUOT) == 0


def test_literal_least_absolute_value():
    assert reduce_exponent(2, 3, LIT) == -1
    assert reduce_exponent(-2, 3, LIT) == 1
    assert reduce_exponent(4, 3, LIT) == 1
    assert reduce_exponent(0, 3, LIT) == 0
    assert reduce_exponent(5, 5, LIT) == 0


def test_literal_even_tie_keeps_input_sign():
    assert reduce_exponent(2, 4, LIT) == 2
    assert reduce_exponent(-2, 4, LIT) == -2
    assert reduce_exponent(6, 4, LIT) == 2
    assert reduce_exponent(-6, 4, LIT) == -2


@given(exponents, moduli)
def test_literal_commutes_with_negation(k, m):
    assert reduce_exponent(-k, m, LIT) == -reduce_exponent(k, m, LIT)


@given(exponents, moduli, policies)
def test_reduction_idempotent_congruent_in_range(k, m, policy):
    r = reduce_exponent(k, m, policy)
    assert reduce_exponent(r, m, policy) == r
    if m:
        assert (r - k) % m == 0
        if policy is QUOT:
            assert 0 <= r < m
        else:
            assert 2 * abs(r) <= m


def test_zero_coefficients_are_dropped():
    assert not ZPoly([(1, 1), (1, -1)])
    assert not ZPoly([(2, 0)])
    assert ZPoly([(1, 1), (1, 1)]).terms == ((1, 2),)


def test_terms_merge_and_sort():
    p = ZPoly([(3, 1), (-1, 2), (3, 4), (0, -1)])
    assert p.terms == ((-1, 2), (0, -1), (3, 5))
    assert ZPoly({3: 5, 1: 0, -1: 2, 0: -1}) == p == ZPoly(iter(p.terms))


@pytest.mark.parametrize("terms", [
    [(1.5, 2)], [(1, 2.0)], [(True, 1)], [(1, False)],
    {"3": True}, {3: True}, {True: 3}, {1: 1, 2: None},
    [(1,)], [(1, 2, 3)], [1, 2], 5, None, [{1: 2, 3: 4}], [{5, 7}],
])
def test_values_that_are_not_ints_raise(terms):
    with pytest.raises(TypeError, match="^ZPoly needs int exponents and coefficients"):
        ZPoly(terms)


@pytest.mark.parametrize("call, message", [
    (lambda: reduce_exponent(1, -2, QUOT), "modulus must be non-negative"),
    (lambda: reduce_exponent(1, -2, LIT), "modulus must be non-negative"),
    (lambda: ZPoly([(1, 1)]).constant_value(), "not a constant polynomial"),
])
def test_a_value_out_of_range_raises_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_arithmetic_with_a_non_zpoly_raises_type_error():
    p = ZPoly.monomial(2, 1)
    for combine in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: p - object()):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            combine()


def test_a_zpoly_never_equals_a_non_zpoly():
    # __eq__ hands the comparison back, and neither side claims it
    assert ZPoly.const(1) != 1 and not ZPoly.const(1) == 1
    assert ZPoly.monomial(1, 1) != ((1, 1),)  # not even its own terms


def test_constructors():
    assert ZPoly.const(0).terms == ()
    assert ZPoly.const(-3).terms == ((0, -3),)
    assert ZPoly.monomial(2, -1).terms == ((-1, 2),)
    assert ZPoly.const(4).is_constant()
    assert ZPoly.const(4).constant_value() == 4
    assert ZPoly().constant_value() == 0 and ZPoly.const(0).constant_value() == 0
    assert not ZPoly.monomial(1, 1).is_constant()


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys)
def test_negation_is_additive_inverse(p):
    assert not (p + (-p))
    assert p - p == ZPoly()


@given(polys)
def test_subst_z_inverse_is_involutive(p):
    assert p.subst_z_inverse().subst_z_inverse() == p


@given(polys)
def test_hash_agrees_with_equality(p):
    q = ZPoly(p.terms)
    assert p == q and hash(p) == hash(q)


def test_str_rendering():
    assert str(ZPoly()) == "0"
    assert str(ZPoly.const(1)) == "1"
    assert str(ZPoly.const(-2)) == "-2"
    assert str(ZPoly.monomial(1, 1)) == "z"
    assert str(ZPoly.monomial(-1, -1)) == "-z^-1"
    assert str(ZPoly([(-1, -1), (0, 2)])) == "-z^-1 + 2"
    assert str(ZPoly([(1, 2), (2, -3)])) == "2*z - 3*z^2"
    assert repr(ZPoly([(-1, -1), (0, 2)])) == "ZPoly(((-1, -1), (0, 2)))"


def test_latex_rendering():
    assert ZPoly.monomial(1, -1).latex() == "z^{-1}"
    assert ZPoly.monomial(-1, 1).latex() == "-z"
    assert ZPoly([(0, 1), (2, 1)]).latex() == "1+z^{2}"
    assert ZPoly([(1, 2), (2, -3)]).latex() == "2z-3z^{2}"
    assert ZPoly([(-1, -1), (0, -2)]).latex() == "-z^{-1}-2"
    assert ZPoly().latex() == "0"


def test_reduce_poly_merges_collisions():
    # z^4 + z  ->  2z  (mod 3, quotient)
    p = ZPoly([(4, 1), (1, 1)])
    assert reduce_poly(p, 3, QUOT) == ZPoly([(1, 2)])
    # z^2 + z^-1  ->  2z^-1  (mod 3, literal)
    q = ZPoly([(2, 1), (-1, 1)])
    assert reduce_poly(q, 3, LIT) == ZPoly([(-1, 2)])
    assert reduce_poly(q, 0, LIT) == q


@given(polys, moduli, policies)
def test_reduce_poly_idempotent(p, m, policy):
    once = reduce_poly(p, m, policy)
    assert reduce_poly(once, m, policy) == once
