"""Gauss code parsing, diagram containers, and symmetry operations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import knotoidh
from knotoidh import gauss
from knotoidh.gauss import (
    Event,
    GaussCodeError,
    GaussDiagram,
    bundled_diagrams,
    crossing_change,
    from_chord_positions,
    load_gko,
    mirror,
    parse_gauss_code,
    parse_gko,
    random_diagram,
    random_nested_diagram,
    reverse,
    serialize,
)
from knotoidh.invariant import compute_H, invariant_from_json, render
from knotoidh.moves import MoveError, parse_trace

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=8)

# A JSON render that invariant_from_json reads back, as a str: H of the trivial diagram.
JSON_H = render(compute_H(parse_gauss_code("")), "json")


def spans(d):
    return {c: tuple(sorted((v.over_pos, v.under_pos)))
            for c, v in d.chords().items()}


def interleaved(sa, sb):
    return sa[0] < sb[0] < sa[1] < sb[1] or sb[0] < sa[0] < sb[1] < sa[1]


def test_parse_and_serialize_round_trip():
    code = "O1+ U2+ U3- O4- O5+ U4- O2+ U1+ O3- U5+"
    d = parse_gauss_code(code)
    assert serialize(d) == code and str(d) == code


def test_under_tokens_may_omit_the_sign():
    d = parse_gauss_code("O1+ O2- U1 U2")
    assert serialize(d) == "O1+ O2- U1+ U2-"


def test_empty_code_is_the_trivial_diagram():
    d = parse_gauss_code("")
    assert d.k == 0 and serialize(d) == ""


def test_singular_chords_parse_with_star():
    d = parse_gauss_code("O1* U1*")
    assert d.singular_ids() == (1,)
    assert d.chord(1).sign == 0


@pytest.mark.parametrize("code,message", [
    ("O1+ U1-", "sign mismatch"),
    ("U1- O1+", "sign mismatch"),
    ("O1+ U1+ O1+ U1+", "duplicate"),
    ("O1+ O1+", "duplicate"),
    ("O2+ U2+", "exactly 1"),
    ("O1+ U2+", "missing"),
    ("O1 U1", "sign"),
    ("X1+ U1+", "token"),
    ("O01+ U1+", "^malformed token 'O01\\+'$"),
    ("U1 U1+", "^duplicate U token for chord 1$"),
    ("U1 U1- O1+", "^chord 1: sign mismatch between O and U tokens$"),
    ("U2 U1 U1+", "^chord 2 has no sign on either token$"),
    ("O1+ U1+ U1+", "^duplicate U token for chord 1$"),
    ("O1+ U2+ O2+", "^chord 1 is missing its U token$"),
    ("O1+ U1+ O3- U3-", "^chord ids must be exactly 1\\.\\.2, got \\[1, 3\\]$"),
])
def test_malformed_codes_are_rejected(code, message):
    with pytest.raises(GaussCodeError, match=message):
        parse_gauss_code(code)


@pytest.mark.parametrize("code, token", [
    ("O{0}+ U{0}+", "O11111111...+"),
    ("O1+ U1+ U{0}- O{0}-", "U11111111...-"),
    ("O1+ U{0} O{0}* U1+", "U11111111..."),
    ("O{0}+ U{0}+ O{0}+", "O11111111...+"),  # before the repeated token
], ids=["first", "later", "untagged", "repeated"])
def test_an_id_longer_than_int_reads_names_its_first_token(long_digits, code, token):
    with pytest.raises(GaussCodeError) as info:
        parse_gauss_code(code.format(long_digits))
    assert str(info.value) == ("token %r: chord id has 5000 digits, past the interpreter's"
                               " limit of 4300" % token)


def test_a_token_or_tag_check_comes_before_the_digit_limit(long_digits):
    for code, message in (("O{0}+ X", "malformed token 'X'"),
                          ("O{0}+ U{0}+ U2", "chord 2 has no sign on either token")):
        with pytest.raises(GaussCodeError) as info:
            parse_gauss_code(code.format(long_digits))
        assert str(info.value) == message


def test_a_gko_line_with_a_long_id_is_named(long_digits):
    with pytest.raises(GaussCodeError) as info:
        parse_gko("a: O1+ U1+\nb: O{0}+ U{0}+\n".format(long_digits))
    assert str(info.value).startswith("line 2 (b): token 'O11111111...+': chord id has 5000")


TAGS = {"+": 1, "-": -1, "*": 0}

# (kind, id, tag) tokens: soups of ids 1..5, and valid codes with one or two
# tokens dropped, duplicated, or renumbered to k + 1.
soups = st.lists(st.tuples(st.sampled_from("OU"), st.integers(1, 5), st.sampled_from([*TAGS, ""])),
                 max_size=10)


@st.composite
def mutated_codes(draw):
    k = draw(sizes)
    tokens = [(t[0], int(t[1:-1]), t[-1]) for t in serialize(random_diagram(k, draw(seeds))).split()]
    for _ in range(draw(st.integers(0, 2))):
        if not tokens:
            break
        j, how = draw(st.integers(0, len(tokens) - 1)), draw(st.sampled_from("drop dup renumber".split()))
        kind, cid, tag = tokens.pop(j) if how == "drop" else tokens[j]
        if how == "dup":
            tokens.insert(draw(st.integers(0, len(tokens))), (kind, cid, tag))
        elif how == "renumber":
            tokens[j] = (kind, k + 1, tag)
    return tokens


@given(st.one_of(soups, mutated_codes()))
def test_a_parsed_code_is_accepted_exactly_when_its_events_are_valid(tokens):
    code = " ".join("%s%d%s" % token for token in tokens)
    tags = {}  # id -> the tags on its tokens, "" for an untagged one
    for _, cid, tag in tokens:
        tags.setdefault(cid, set()).add(tag)
    try:
        if any(kind == "O" and not tag for kind, _, tag in tokens) or any(
                len(seen - {""}) != 1 for seen in tags.values()):
            gauss._reject(gauss._TOKEN.findall(code))  # a token or tag check fails
        sign = {cid: TAGS[(seen - {""}).pop()] for cid, seen in tags.items()}
        want = GaussDiagram(tuple(Event(cid, kind, sign[cid]) for kind, cid, _ in tokens))
    except GaussCodeError as exc:
        want = str(exc)
    if isinstance(want, str):
        with pytest.raises(GaussCodeError) as got:
            parse_gauss_code(code)
        assert str(got.value) == want
    else:
        d = parse_gauss_code(code)
        assert d == want and GaussDiagram(d.events) == d


def test_a_parsed_code_skips_validate(monkeypatch):
    """The parser proves a code's structure from its token columns; only
    GaussDiagram(...) and from_chord_positions reach _validate."""
    def refuse(events):
        raise AssertionError("_validate called")

    code = serialize(random_diagram(30, 5))
    monkeypatch.setattr(gauss, "_validate", refuse)
    for text, canonical in ((code, code), ("", ""), ("O1+ O2- U1 U2", "O1+ O2- U1+ U2-"),
                            ("O1* U1*", "O1* U1*")):
        assert serialize(parse_gauss_code(text)) == canonical
    for build in (lambda: GaussDiagram(parse_gauss_code(code).events),
                  lambda: from_chord_positions([(1, 2, 1)])):
        with pytest.raises(AssertionError, match="^_validate called$"):
            build()


def test_reverse_reverses_the_event_sequence():
    d = parse_gauss_code("O1+ O2- U1 U2")
    assert serialize(reverse(d)) == "U2- U1+ O2- O1+"


def test_mirror_swaps_strands_and_signs():
    d = parse_gauss_code("O1+ O2- U1 U2")
    assert serialize(mirror(d)) == "U1- U2+ O1- O2+"


def test_crossing_change_flips_one_chord():
    d = parse_gauss_code("O1+ O2- U1 U2")
    c = crossing_change(d, 2)
    assert serialize(c) == "O1+ U2+ U1+ O2+"
    assert crossing_change(c, 2) == d


def test_crossing_change_rejects_singular_chords():
    d = parse_gauss_code("O1* U1*")
    with pytest.raises(GaussCodeError):
        crossing_change(d, 1)


def test_from_chord_positions():
    d = from_chord_positions([(1, 3, 1), (2, 4, -1)])
    assert serialize(d) == "O1+ O2- U1+ U2-"
    with pytest.raises(GaussCodeError):
        from_chord_positions([(1, 1, 1)])


def test_outside_entries_check_the_events(tmp_path):
    # the library's own builders skip this check; every entry from outside keeps it
    gko = tmp_path / "bad.gko"

    def from_events(code):  # every token of these codes is on chord 1 with sign +
        return GaussDiagram(tuple(Event(1, token[0], 1) for token in code.split()))

    def from_file(code):
        gko.write_text("a: " + code, encoding="utf-8")
        return load_gko(gko)

    for make, where in ((from_events, ""), (parse_gauss_code, ""),
                        (lambda code: parse_gko("a: " + code), "line 1 (a): "),
                        (from_file, "line 1 (a): ")):
        for code, message in (("O1+ U1+ O1+", "duplicate O token for chord 1"),
                              ("O1+", "chord 1 is missing its U token")):
            with pytest.raises(GaussCodeError) as exc:
                make(code)
            assert str(exc.value) == where + message
    for chords in ([(1, 2, 1), (1, 3, 1)], [(1, 3, 1)]):  # a repeated O, a missing U
        with pytest.raises(GaussCodeError) as exc:
            from_chord_positions(chords)
        assert str(exc.value) == "endpoint positions must be a permutation of 1..2k"
    with pytest.raises(GaussCodeError, match="^chord 1 has sign 5$"):
        from_chord_positions([(1, 2, 5)])


@pytest.mark.parametrize("make, message", [
    (lambda: from_chord_positions([(1, 4, 1.0), (3, 5, 1), (2, 6, -1)]),
     "chord 1 has sign 1.0, not an int"),
    (lambda: from_chord_positions([(1, 4, 1), (3, 5, True), (2, 6, -1)]),
     "chord 2 has sign True, not an int"),
    (lambda: GaussDiagram((Event(True, "O", 1), Event(True, "U", 1))),
     "chord id True is not an int"),
])
def test_a_sign_or_id_equal_to_an_int_but_not_one_is_rejected(make, message):
    with pytest.raises(GaussCodeError) as exc:
        make()
    assert str(exc.value) == message


ENTRY = "chord entry %s is not (over_pos, under_pos, sign) with int positions"


@pytest.mark.parametrize("make, message", [
    (lambda: GaussDiagram(((1, "O", 1), (1, "U", 1))),
     "event at position 1 is (1, 'O', 1), not an Event"),
    (lambda: GaussDiagram((Event(1, "O", 1), None)), "event at position 2 is None, not an Event"),
    (lambda: from_chord_positions([(1, 2)]), ENTRY % "(1, 2)"),
    (lambda: from_chord_positions([(1, 2, 1, 1)]), ENTRY % "(1, 2, 1, 1)"),
    (lambda: from_chord_positions([7]), ENTRY % "7"),
    (lambda: from_chord_positions([("1", 2, 1)]), ENTRY % "('1', 2, 1)"),
    (lambda: from_chord_positions([(1.0, 2, 1)]), ENTRY % "(1.0, 2, 1)"),
    (lambda: from_chord_positions([(1, 3, 1), (True, 4, 1)]), ENTRY % "(True, 4, 1)"),
    (lambda: from_chord_positions([(1, 2.0, 1)]), ENTRY % "(1, 2.0, 1)"),
    (lambda: GaussDiagram((Event([1], "O", 1), Event([1], "U", 1))), "chord id [1] is not an int"),
    (lambda: GaussDiagram((Event("a", "O", 7), Event("a", "U", 7))), "chord id 'a' is not an int"),
    (lambda: GaussDiagram(None), "events must be iterable, not None"),
    (lambda: from_chord_positions(None), "chords must be iterable, not None"),
    (lambda: GaussDiagram((Event(1, "X", 1), Event(1, "U", 1))),
     "event at position 1 has kind 'X'"),
    (lambda: GaussDiagram((Event(1, "O", 1), Event(1, "U", -1))),
     "chord 1: sign mismatch between O and U tokens"),
    (lambda: parse_gko("a: O1+ U1+\nno colon here"), "line 2: expected `name: code`"),
])
def test_an_event_or_chord_entry_of_the_wrong_shape_is_rejected(make, message):
    with pytest.raises(GaussCodeError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("draw", [random_diagram, random_nested_diagram])
@pytest.mark.parametrize("k, seed, message", [
    (3, None, "seed must be an int, not NoneType"),
    (3, True, "seed must be an int, not bool"),
    (3, 1.0, "seed must be an int, not float"),
    (3, "1", "seed must be an int, not str"),
    (True, 0, "k must be an int, not bool"),
    (2.0, 0, "k must be an int, not float"),
    (-1, 0, "k must be non-negative"),
])
def test_a_seeded_draw_takes_an_int_seed_and_count(draw, k, seed, message):
    with pytest.raises(ValueError) as exc:
        draw(k, seed)
    assert type(exc.value) is ValueError and str(exc.value) == message


@given(sizes, seeds)
def test_random_diagram_is_valid_and_deterministic(k, seed):
    d = random_diagram(k, seed)
    assert d.k == k
    assert d == random_diagram(k, seed)
    assert serialize(parse_gauss_code(serialize(d))) == serialize(d)


@given(sizes, seeds)
def test_random_nested_diagram_has_no_interleavings(k, seed):
    d = random_nested_diagram(k, seed)
    sp = spans(d)
    ids = sorted(sp)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            assert not interleaved(sp[a], sp[b])


@given(sizes, seeds)
def test_reverse_and_mirror_are_involutive(k, seed):
    d = random_diagram(k, seed)
    assert reverse(reverse(d)) == d
    assert mirror(mirror(d)) == d


@pytest.mark.parametrize("read, text, error, message", [
    (parse_gauss_code, None, GaussCodeError, "a Gauss code must be a str, not NoneType"),
    (parse_gauss_code, b"O1+ U1+", GaussCodeError, "a Gauss code must be a str, not bytes"),
    (parse_gko, None, GaussCodeError, "a .gko collection must be a str, not NoneType"),
    (parse_gko, b"a: O1+ U1+", GaussCodeError, "a .gko collection must be a str, not bytes"),
    (parse_trace, None, MoveError, "a move trace must be a str, not NoneType"),
    (parse_trace, ["{}"], MoveError, "a move trace must be a str, not list"),
    (invariant_from_json, JSON_H.encode(), ValueError, "a JSON invariant must be a str, not bytes"),
    (invariant_from_json, bytearray(JSON_H, "utf-16"), ValueError,
     "a JSON invariant must be a str, not bytearray"),
    (invariant_from_json, None, ValueError, "a JSON invariant must be a str, not NoneType"),
    (invariant_from_json, 5, ValueError, "a JSON invariant must be a str, not int"),
])
def test_a_text_reader_rejects_input_that_is_not_a_str(read, text, error, message):
    with pytest.raises(error) as exc:
        read(text)
    assert type(exc.value) is error and str(exc.value) == message


def test_a_parsed_code_reads_each_id_once(monkeypatch):
    """parse_gauss_code converts its id column once: one int() call per token."""
    calls = []

    def counting_int(text):
        calls.append(text)
        return int(text)

    code = serialize(random_diagram(7, 3))
    monkeypatch.setattr(gauss, "int", counting_int, raising=False)
    for text, canonical in ((code, code), ("O1+ O2- U1 U2", "O1+ O2- U1+ U2-")):
        calls.clear()
        assert serialize(parse_gauss_code(text)) == canonical
        assert len(calls) == len(text.split())


def test_parse_gko_names_and_comments():
    entries = parse_gko("# header\n\na: O1+ U1+\nb:\n")
    assert [(n, serialize(d)) for n, d in entries] == [("a", "O1+ U1+"), ("b", "")]


def test_bundled_diagrams():
    fixtures = bundled_diagrams()
    assert set(fixtures) == {
        "trivial", "2_2", "5.1.28", "5.1.28_inverse", "singular_witness"}
    assert fixtures["trivial"].k == 0
    assert fixtures["5.1.28_inverse"] == reverse(fixtures["5.1.28"])
    assert fixtures["singular_witness"].singular_ids() == (2,)
    fixtures.clear()  # each call returns its own dict over one parse
    again = bundled_diagrams()
    assert len(again) == 5 and again["2_2"] is bundled_diagrams()["2_2"]


def test_bundled_diagrams_are_read_as_utf8():
    """The fixture file names its encoding, so no locale's default is read."""
    path = [str(Path(knotoidh.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                          "-W", "error::EncodingWarning",
                          "-c", "import knotoidh; knotoidh.bundled_diagrams()"],
                         env=env, capture_output=True, encoding="utf-8", timeout=60)
    assert (run.returncode, run.stderr) == (0, "")


def test_diagram_is_hashable_and_frozen():
    d = parse_gauss_code("O1+ U1+")
    assert len({d, parse_gauss_code("O1+ U1+")}) == 1
    with pytest.raises(AttributeError):
        d.events = ()
