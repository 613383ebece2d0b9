"""The Gauss-code and JSON codecs against a per-token parser and the oracle's JSON writer."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracle

from knotoidh.gauss import (
    SINGULAR,
    Event,
    GaussCodeError,
    GaussDiagram,
    bundled_diagrams,
    parse_gauss_code,
    random_diagram,
    serialize,
)
from knotoidh.invariant import Invariant, compute_H, render
from knotoidh.singular import singular_H
from knotoidh.zpoly import ReductionPolicy

_REF_TOKEN = re.compile(r"([OU])([0-9]+)([+\-*]?)\Z")
_REF_TAGS = {"+": 1, "-": -1, "*": SINGULAR}


def reference_parse(text):
    """Per-token parser: split, match each token, and give each chord the tag
    of its first tagged token, which every later tag of the chord must match."""
    signs = {}
    entries = []
    for tok in text.split():
        m = _REF_TOKEN.match(tok)
        if not m or (m.group(2).startswith("0") and len(m.group(2)) > 1):
            raise GaussCodeError("malformed token %r" % tok)
        kind, cid, tag = m.group(1), int(m.group(2)), m.group(3)
        if cid == 0:
            raise GaussCodeError("malformed token %r: chord ids start at 1" % tok)
        if kind == "O" and not tag:
            raise GaussCodeError("token %r: O tokens need a sign or *" % tok)
        if tag and signs.setdefault(cid, _REF_TAGS[tag]) != _REF_TAGS[tag]:
            raise GaussCodeError("chord %d: sign mismatch between O and U tokens" % cid)
        entries.append((kind, cid))
    unsigned = sorted({cid for _, cid in entries} - signs.keys())
    if unsigned:
        raise GaussCodeError("chord %d has no sign on either token" % unsigned[0])
    return GaussDiagram(tuple(Event(cid, kind, signs[cid]) for kind, cid in entries))


def outcome(parse, text):
    try:
        return "ok", serialize(parse(text))
    except GaussCodeError as exc:
        return "error", str(exc)


ids = st.integers(min_value=1, max_value=4).map(str)
good_tokens = st.builds("{}{}{}".format, st.sampled_from("OU"), ids, st.sampled_from("+-*"))
odd_tokens = st.one_of(
    st.builds("U{}".format, ids),
    st.builds("O{}".format, ids),
    st.sampled_from(["O0+", "U0", "O01+", "U02-", "O00*", "O1++", "o1+", "U1+-",
                     "X1+", "O", "U-", "1+", "O1+x", "O١+", "+"]),
)
separators = st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\x1c", " ", " \n "])
ends = st.sampled_from(["", " ", "\n", "\xa0"])


@st.composite
def token_soups(draw):
    tokens = draw(st.lists(st.one_of(good_tokens, good_tokens, odd_tokens), max_size=10))
    return _join(draw, tokens)


@st.composite
def near_valid_codes(draw):
    """A valid code with some U tags dropped, then perhaps one token changed."""
    d = random_diagram(draw(st.integers(min_value=0, max_value=5)), draw(st.integers(0, 2**16)))
    tokens = serialize(d).split()
    tokens = [t[:-1] if t[0] == "U" and draw(st.booleans()) else t for t in tokens]
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.one_of(good_tokens, odd_tokens))
    return _join(draw, tokens)


def _join(draw, tokens):
    """Tokens joined by drawn separators, perhaps with a separator at either end."""
    body = "".join(t + draw(separators) for t in tokens[:-1]) + "".join(tokens[-1:])
    return draw(ends) + body + draw(ends)


@settings(max_examples=400)
@given(st.one_of(token_soups(), near_valid_codes()))
def test_parse_matches_the_per_token_reference(text):
    assert outcome(parse_gauss_code, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", [
    "", "O1+ U1+", "O1+ O2- U1 U2", "U1 U1+ O1-", "U1 U1+ U1-", "U2 U1 U1+",
    "U1 U1+ O2+ O2+", "U1+ U1+", "O1+ O1-", "O01+ U1+", "O0+ U1 X", "O1 U1 O0+",
    "O1+\xa0U1+", "O1+\x1cU1+", " O1* \n U1 ",
])
def test_parse_matches_the_reference_on_edge_cases(text):
    assert outcome(parse_gauss_code, text) == outcome(reference_parse, text)


def test_re_whitespace_is_str_split_whitespace():
    every = "x".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\S+", every) == every.split()


JSON_CASES = {**bundled_diagrams(), **{"random_%d" % k: random_diagram(k, k) for k in (3, 12, 40)}}


@pytest.mark.parametrize("policy", list(ReductionPolicy))
@pytest.mark.parametrize("include_n0", [False, True])
@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_matches_json_dumps(name, policy, include_n0):
    d = JSON_CASES[name]
    h = (singular_H if d.singular_ids() else compute_H)(d, policy, include_n0)
    assert render(h, "json") == oracle.canonical_json(
        policy.value, {(k.n, k.m, k.P.terms): c for k, c in h.exp_terms.items()}, h.const_terms)


@pytest.mark.parametrize("policy", list(ReductionPolicy))
def test_empty_invariant_json_matches_json_dumps(policy):
    for h in (Invariant(policy), Invariant(policy, const_terms={0: 2, 3: -1})):
        assert render(h, "json") == oracle.canonical_json(policy.value, {}, h.const_terms)
