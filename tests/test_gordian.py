"""Crossing-change deltas, homotopy-form decomposition, distance bounds."""

import pytest
from hypothesis import given, settings, strategies as st

from knotoidh.gauss import (GaussCodeError, bundled_diagrams, crossing_change, parse_gauss_code,
                            random_diagram)
from knotoidh.gordian import (
    NotHomotopyForm,
    _report,
    crossing_change_delta,
    decompose,
    decomposition_json,
    gordian_lower_bound,
    reconstruct,
)
from knotoidh.invariant import Invariant, TermKey, compute_H, invariant_sub
from knotoidh.zpoly import ReductionPolicy, ZPoly

QUOT = ReductionPolicy.QUOTIENT
LIT = ReductionPolicy.LITERAL

FIXTURES = bundled_diagrams()

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=8)
policies = st.sampled_from(list(ReductionPolicy))


def test_five_chord_bound_is_two():
    d, triv = FIXTURES["5.1.28"], FIXTURES["trivial"]
    for policy in (QUOT, LIT):
        assert gordian_lower_bound(d, triv, policy) == 2
        delta = invariant_sub(compute_H(d, policy), compute_H(triv, policy))
        dec = decompose(delta)
        assert dec.bound == 2
        assert dec.bound_per_n == {1: 2, 2: 1}
        assert reconstruct(dec) == delta


def test_bound_between_equal_diagrams_is_zero():
    d = FIXTURES["5.1.28"]
    assert gordian_lower_bound(d, d) == 0
    assert gordian_lower_bound(FIXTURES["trivial"], FIXTURES["trivial"]) == 0


def test_decomposition_json_shape():
    d, triv = FIXTURES["5.1.28"], FIXTURES["trivial"]
    dec = decompose(invariant_sub(compute_H(d), compute_H(triv)))
    obj = decomposition_json(dec)
    assert obj["status"] == "ok"
    assert obj["bound"] == 2
    assert obj["per_n"] == {"1": 2, "2": 1}
    assert {p["n"] for p in obj["pairs"]} == {1, 2}


def difference_from_trivial(code):
    return compute_H(parse_gauss_code(code)) - compute_H(parse_gauss_code(""))


def test_report_on_a_pairing_is_the_decomposition_json():
    delta = difference_from_trivial("O1+ U2+ U3- O4- O5+ U4- O2+ U1+ O3- U5+")
    report = _report(delta)
    assert report == decomposition_json(decompose(delta))
    assert list(report) == ["bound", "per_n", "pairs", "status"]


def test_report_without_a_pairing_keeps_the_keys_and_adds_a_reason():
    report = _report(difference_from_trivial("O1+ O3+ U1+ O2- U3+ U2-"))
    assert list(report) == ["bound", "per_n", "pairs", "status", "reason"]
    assert report == {"bound": None, "per_n": {}, "pairs": [], "status": "not_homotopy_form",
                      "reason": "partner coefficients differ at y^1: 1 vs -1"}


@given(sizes, seeds, policies)
def test_single_crossing_change_decomposes(k, seed, policy):
    d = random_diagram(k, seed)
    cid = seed % k + 1
    delta = crossing_change_delta(d, cid, policy)
    dec = decompose(delta)
    assert dec.bound <= 1
    assert reconstruct(dec) == delta


@settings(deadline=None)
@given(sizes, seeds, policies)
def test_delta_matches_recomputed_difference(k, seed, policy):
    d = random_diagram(k, seed)
    cid = seed % k + 1
    want = invariant_sub(compute_H(d, policy),
                         compute_H(crossing_change(d, cid), policy))
    assert crossing_change_delta(d, cid, policy) == want


@settings(deadline=None)
@given(st.data(), policies)
def test_several_crossing_changes_decompose_within_their_count(data, policy):
    k = data.draw(sizes)
    d = random_diagram(k, data.draw(seeds))
    changes = data.draw(st.sets(st.integers(1, k), min_size=1, max_size=min(3, k)))
    changed = d
    for cid in changes:
        changed = crossing_change(changed, cid)
    diff = invariant_sub(compute_H(d, policy), compute_H(changed, policy))
    dec = decompose(diff)
    assert dec.bound <= len(changes)
    assert reconstruct(dec) == diff


def one(n, m, P, coeff, const):
    return Invariant(QUOT, {TermKey(n, m, P): coeff}, {n: const} if const else {})


@pytest.mark.parametrize("policy", list(ReductionPolicy))
def test_delta_rejects_a_singular_chord(policy):
    with pytest.raises(GaussCodeError) as exc:
        crossing_change_delta(FIXTURES["singular_witness"], 2, policy)
    assert str(exc.value) == "chord 2 is singular; resolve it first"


def test_unpaired_term_is_rejected():
    bad = one(1, 0, ZPoly.const(1), 1, -1)  # (t - 1)y alone
    with pytest.raises(NotHomotopyForm, match="partner"):
        decompose(bad)


def test_odd_self_paired_term_is_rejected():
    # z - z^-1 maps to itself under the partner involution
    p = ZPoly([(1, 1), (-1, -1)])
    bad = Invariant(QUOT, {TermKey(1, 0, p): 1}, {1: -1})
    with pytest.raises(NotHomotopyForm, match="odd"):
        decompose(bad)


def test_even_self_paired_term_decomposes():
    p = ZPoly([(1, 1), (-1, -1)])
    good = Invariant(QUOT, {TermKey(1, 0, p): 2}, {1: -2})
    dec = decompose(good)
    assert dec.bound == 1 and dec.bound_per_n == {1: 1}
    assert reconstruct(dec) == good


def test_partner_coefficient_mismatch_is_rejected():
    bad = Invariant(QUOT, {
        TermKey(1, 0, ZPoly.const(1)): 2,
        TermKey(1, 0, ZPoly.const(-1)): 1,
    }, {1: -3})
    with pytest.raises(NotHomotopyForm, match="differ"):
        decompose(bad)


def test_wrong_constant_is_rejected():
    bad = Invariant(QUOT, {
        TermKey(1, 0, ZPoly.const(1)): 1,
        TermKey(1, 0, ZPoly.const(-1)): 1,
    }, {1: -1})  # should be -2
    with pytest.raises(NotHomotopyForm, match="constant"):
        decompose(bad)


def test_strata_fail_in_ascending_order():
    # each stratum is paired, then its constant checked, before the next one
    t, t_inv = ZPoly.const(1), ZPoly.const(-1)
    bad_const_then_unpaired = Invariant(QUOT, {
        TermKey(1, 0, t): 1, TermKey(1, 0, t_inv): 1, TermKey(2, 0, t): 1,
    }, {1: -1, 2: -1})
    with pytest.raises(NotHomotopyForm) as exc:
        decompose(bad_const_then_unpaired)
    assert str(exc.value) == "constant at y^1 is -1, expected -2 from the pairing"
    unequal_then_bad_const = Invariant(QUOT, {
        TermKey(1, 0, t): 2, TermKey(1, 0, t_inv): 1,
    }, {1: -3, 2: 5})
    with pytest.raises(NotHomotopyForm) as exc:
        decompose(unequal_then_bad_const)
    assert str(exc.value) == "partner coefficients differ at y^1: 1 vs 2"


def test_zero_delta_has_zero_bound():
    dec = decompose(Invariant(QUOT))
    assert dec.bound == 0 and dec.bound_per_n == {} and dec.pairs == ()
