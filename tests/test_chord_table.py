"""The cached chord table and H against the brute-force oracle, `perfbench/oracle.py`.

The oracle shares nothing with the library's chord table: it reads the
serialized code itself and scans every ordered pair of chords, written
straight from the definitions.  It leaves out the n = 0 class and the
crossing-change delta; the few lines below build those on the oracle's
own functions, not on a copy of them.

compute_H reads each chord's crossings from its crossing row below
_KERNEL_MIN_CHORDS chords and from per-degree counts summed into (n, phi)
class counts from there on, and one tail turns them into H; the tests
below also compare the two sources' class cells on the same diagrams and
feed both through that tail, with a diagram for each rule by which degree
counts merge into class counts, check that the kernel reads its class
counts the same under either host byte order, and pin H for criterion
10's diagram.

A diagram that crossing_change made stores the H values compute_H gives
it, and links to the store of the diagram it was switched from, so that its
H can be its parent's plus the switch's delta; the last tests check that
every step of a skein walk and of a chain of crossing changes equals H of
the same code parsed anew and the oracle's, that a child of a stored parent
reads only the switched chord's row, that a child whose parent has no H for
the key reads every chord, that no other builder gives a diagram a store,
and that a child never keeps its parent alive.
"""

import gc
import hashlib
import math
import operator
import random
import re
import sys
import weakref
from collections import Counter
from unittest import mock

import pytest

import oracle
from knotoidh import gauss, invariant, singular
from knotoidh.gauss import (
    GaussCodeError,
    crossing_change,
    from_chord_positions,
    parse_gauss_code,
    random_diagram,
    random_nested_diagram,
    serialize,
)
from knotoidh.gordian import crossing_change_delta
from knotoidh.moves import r1_insert, r2_insert
from knotoidh.singular import make_singular, random_singular_diagram, resolutions
from knotoidh.invariant import (
    Invariant,
    TermKey,
    compute_H,
    crossing_partition,
    degree,
    index_function,
    index_polys,
    render,
)
from knotoidh.zpoly import ReductionPolicy, ZPoly

POLICIES = list(ReductionPolicy)
SIZES = (0, 1, 2, 3, 5, 8, 13, 21, 34, 60)


def hub_diagram(k, seed):
    """One hub chord crossed by all k - 1 others, which share one sign and one direction.

    Every other chord runs from inside the hub's span to beyond it, so
    |d(hub)| = k - 1; they cross each other pairwise or nest pairwise,
    as the seed decides.
    """
    if k == 0:
        return from_chord_positions([])
    rng = random.Random(seed)
    n = k - 1
    sign, inward = rng.choice((1, -1)), rng.random() < 0.5
    outside = list(range(n + 3, 2 * n + 3))
    if rng.random() < 0.5:
        outside.reverse()
    hub = (1, n + 2) if rng.random() < 0.5 else (n + 2, 1)
    chords = [(*hub, rng.choice((1, -1)))]
    for inner, outer in zip(range(2, n + 2), outside):
        chords.append((outer, inner, sign) if inward else (inner, outer, sign))
    return from_chord_positions(chords)


def block_hub_diagram(size, seed):
    """A hub crossed by two blocks of `size` chords that share one sign and direction.

    Each block nests within itself and crosses the other block whole, so
    the blocks' degrees differ by 2 * size = |d(hub)|: the hub's cells of
    the two degrees fall into one (n, phi) class of count 2 * size, while
    no single degree has more than `size` chords.
    """
    rng = random.Random(seed)
    n = 2 * size
    sign, inward = rng.choice((1, -1)), rng.random() < 0.5
    chords = [(1, n + 2, rng.choice((1, -1)))]
    for i in range(n):
        inner = 2 + i
        outer = n + 3 + (i // size) * size + size - 1 - i % size
        chords.append((outer, inner, sign) if inward else (inner, outer, sign))
    return from_chord_positions(chords)


def takes_kernel(d):
    """True when compute_H reads d's class cells from the histogram kernel, not the rows."""
    kernel = mock.Mock(wraps=invariant._histogram_cells)
    with mock.patch.object(invariant, "_histogram_cells", kernel):
        compute_H(d)
    return kernel.called


def first_histogram_size(make, seed):
    """The least k at which compute_H picks the histogram kernel for make(k, seed)."""
    return next(k for k in range(1, 400) if takes_kernel(make(k, seed)))


def oracle_chords(d):
    """The oracle's (over, under, sign) per chord of d, chord c at index c - 1, and the degrees."""
    ch = oracle.chords(serialize(d))
    return ch, [oracle.degree(ch, i) for i in range(len(ch))]


def oracle_index(ch, deg, i, policy):
    """n -> {exponent: coefficient} of Ind_c^n for chord index i, n = 0 included.

    The oracle skips n = 0, the crossing chords e with d(c) = d(e) = 0.  There
    m = 0 and D = 0, so Ind_c^0 is the constant sum of their signed sides.
    """
    polys = oracle.index_polys(ch, i, deg, policy.value)
    const = sum(oracle.side(ch[i], e) * e[2] for e, D in zip(ch, deg) if D == 0)
    if deg[i] == 0 and const:
        polys[0] = {0: const}
    return polys


def n0_stratum(ch, deg, policy):
    """sum_c sgn(c) (t^Ind_c^0 - 1), the stratum that include_n0 adds to H."""
    exp = Counter()
    for i, c in enumerate(ch):
        P = oracle_index(ch, deg, i, policy).get(0)
        if P:
            exp[TermKey(0, 0, ZPoly(P))] += c[2]
    return Invariant(policy, exp, {0: -sum(exp.values())})


def brute_delta(ch, deg, i, policy):
    """eps * sum_n (t^Ind + t^{-Ind(z^-1)} - 2) y^n over the oracle's classes n >= 1."""
    eps, m = ch[i][2], abs(deg[i])
    exp, const = Counter(), Counter()
    for n, ind in oracle.index_polys(ch, i, deg, policy.value).items():
        partner = Counter()
        for x, a in ind.items():
            partner[oracle.reduce(-x, m, policy.value)] -= a
        for poly in (ind, partner):
            P = ZPoly(poly)
            exp[TermKey(n, 0 if P.is_constant() else m, P)] += eps
        const[n] -= 2 * eps
    return Invariant(policy, exp, const)


def brute_check(d):
    ch, deg = oracle_chords(d)
    for i, c in enumerate(ch):
        cid = i + 1
        assert degree(d, cid) == deg[i]
        sides = [(j, oracle.side(c, e)) for j, e in enumerate(ch, start=1)]
        right, left = (tuple(e for e, s in sides if s == want) for want in (1, -1))
        assert crossing_partition(d, cid) == (right, left)
        classes = {math.gcd(deg[i], deg[e - 1]) for e in right + left}
        for policy in POLICIES:
            want = oracle_index(ch, deg, i, policy)
            for n in classes | {0, 1, 2}:
                assert index_function(d, cid, n, policy).terms == ZPoly(want.get(n, {})).terms, n
            got = {n: P.terms for n, P in index_polys(d, cid, policy).items()}
            assert got == {n: ZPoly(want.get(n, {})).terms for n in classes}, cid
            got = crossing_change_delta(d, cid, policy)
            want = brute_delta(ch, deg, i, policy)
            assert got.exp_terms == want.exp_terms and got.const_terms == want.const_terms
    for policy in POLICIES:
        h = compute_H(d, policy)
        assert render(h, "json") == oracle.compute_H(serialize(d), policy.value)
        assert compute_H(d, policy, True) - h == n0_stratum(ch, deg, policy)


@pytest.mark.parametrize("make", [random_diagram, random_nested_diagram, hub_diagram])
@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", [0, 1])
def test_table_matches_brute_force(make, k, seed):
    brute_check(make(k, 1000 * k + seed))


# The rule reads the chord count alone, so every generator switches at
# _KERNEL_MIN_CHORDS chords; block_hub_diagram(size, .) has 2 * size + 1 of them.
@pytest.mark.parametrize("make, seed", [
    (random_diagram, 0), (random_diagram, 1), (random_diagram, 2), (random_nested_diagram, 0),
    (hub_diagram, 0), (hub_diagram, 1), (hub_diagram, 2), (block_hub_diagram, 0)])
def test_brute_force_on_both_sides_of_the_cost_rule(make, seed):
    k = first_histogram_size(make, seed)
    below, above = make(k - 1, seed), make(k, seed)
    assert below.k < invariant._KERNEL_MIN_CHORDS <= above.k
    assert not takes_kernel(below)
    brute_check(below)
    brute_check(above)


def both_sources(d, policy):
    """c -> class cells of c from the crossing rows, and the same from the histogram kernel."""
    table = d._table
    return [{c: list(cells) for c, cells in source}
            for source in (invariant._row_cells(table, policy),
                           invariant._histogram_cells(table, policy))]


def both_paths(d, policy, include_n0):
    """H from crossing-row cells and H from histogram cells, both through the one tail."""
    return [Invariant.from_summands(policy, invariant._index_polys(
        d._table, cells.items(), include_n0)) for cells in both_sources(d, policy)]


# Past 127 chords of one degree (nested diagrams, nested hubs) the kernel's
# bitset fields widen from one byte to two.
@pytest.mark.parametrize("make, sizes", [
    (random_diagram, (0, 1, 2, 3, 4, 6, 9, 14, 25, 50, 90, 150)),
    (random_nested_diagram, (1, 5, 30, 80, 127, 128, 200)),
    (hub_diagram, (1, 2, 3, 7, 16, 40, 120, 140)),
])
def test_histogram_and_row_paths_agree(make, sizes):
    for k in sizes:
        for seed in range(3):
            d = make(k, 7 * k + seed)
            for policy in POLICIES:
                for include_n0 in (False, True):
                    rows, histogram = both_paths(d, policy, include_n0)
                    assert rows.exp_terms == histogram.exp_terms, (k, seed)
                    assert rows.const_terms == histogram.const_terms, (k, seed)
                    assert render(rows, "json") == render(histogram, "json")


def test_the_kernel_widens_a_field_that_must_hold_128():
    """The sweep's fields hold a count of one degree's chords in one byte up
    to 127.  In these hubs 128 chords share one degree, so a count reaches
    +128 and the fields must take two bytes."""
    for seed in (0, 2):
        d = hub_diagram(129, seed)
        assert max(Counter(d._table.degree[1:]).values()) == 128
        for policy in POLICIES:
            rows, histogram = both_sources(d, policy)
            assert rows == histogram, (seed, policy)


def test_the_kernel_reads_its_class_columns_whatever_the_host_byte_order(monkeypatch):
    """The class columns are packed little-endian, so the host's byte order
    must not change how they are read.  At k = 200 each class field takes
    two bytes, which a stray byte swap would scramble."""
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    for seed in (0, 1, 2):
        d = random_diagram(200, seed)
        assert takes_kernel(d)
        for policy in POLICIES:
            assert (render(compute_H(d, policy), "json")
                    == oracle.compute_H(serialize(d), policy.value)), (seed, policy)


def merge_rules(d):
    """The rules for merging degree cells into (n, phi) class cells that d exercises.

    Read from the oracle's crossings: the term (D, s) of e in r(c) is
    (d(e), sgn(e)), of e in l(c) it is (-d(e), -sgn(e)).
    """
    ch, deg = oracle_chords(d)
    most = max((deg.count(D) for D in set(deg)), default=0)
    hit = set()
    for c, m in zip(ch, map(abs, deg)):
        cells = {}  # (n, D mod m) -> {D: summed count}
        for e, De in zip(ch, deg):
            side = oracle.side(c, e)
            if side:
                D, s = side * De, side * e[2]
                cell = cells.setdefault((math.gcd(m, D), D % m if m else D), {})
                cell[D] = cell.get(D, 0) + s
        for (n, _), cell in cells.items():
            if m and m % 2 == 0 and {D > 0 for D in cell if D % m == m // 2} == {True, False}:
                hit.add("literal tie")  # D = +m/2 and -m/2 share a class only under QUOTIENT
            if len(cell) > 1 and any(cell.values()) and not sum(cell.values()):
                hit.add("cancelling cell")
            if not m:
                hit.add("degree 0" if n else "n = 0")
            if abs(sum(cell.values())) > max(127, most):
                hit.add("wide count")
    return hit


def test_class_columns_match_the_rows_through_the_one_tail():
    """Each merge rule of the class columns, against the crossing rows, bit for bit.

    Both sources yield every chord's cells in (n, phi) order, one per class
    and none zero.  Some rows cross chords whose terms cancel within a
    class; the row source drops those cells as the class columns do.
    """
    diagrams = [random_diagram(k, seed) for k in (12, 40, 90) for seed in range(3)]
    diagrams += [random_nested_diagram(30, 1), hub_diagram(40, 1), block_hub_diagram(100, 0),
                 block_hub_diagram(100, 1)]
    hit, cancelled = set(), 0
    for d in diagrams:
        hit |= merge_rules(d)
        table = d._table
        for policy in POLICIES:
            rows, histogram = both_sources(d, policy)
            assert rows == histogram and sorted(rows) == list(range(1, d.k + 1))
            for c, cells in rows.items():
                classes = [cls for cls, _ in cells]
                assert classes == sorted(set(classes)) and all(count for _, count in cells)
                plan = invariant._plan(abs(table.degree[c]), policy)
                crossed = {plan[table.degree[e] if in_r else -table.degree[e]]
                           for e, in_r in gauss._crossing_row(table, c)}
                assert set(classes) <= crossed
                cancelled += len(crossed) - len(classes)
            for include_n0 in (False, True):
                rows, histogram = both_paths(d, policy, include_n0)
                assert rows.exp_terms == histogram.exp_terms
                assert rows.const_terms == histogram.const_terms
                assert render(rows, "json") == render(histogram, "json")
    assert hit == {"literal tie", "cancelling cell", "degree 0", "n = 0", "wide count"}
    assert cancelled


def test_plans_kept_across_calls_keep_the_policies_apart():
    """Quotient and Literal, alternated on the same moduli, each against brute force.

    The first two diagrams hold terms at D = m/2 and D = -m/2 in one class,
    which only Quotient merges; the rows read the first, the kernel the rest.
    """
    diagrams = [random_diagram(7, 0), random_diagram(64, 0), block_hub_diagram(32, 0)]
    assert all("literal tie" in merge_rules(d) for d in diagrams[:2])
    assert [takes_kernel(d) for d in diagrams] == [False, True, True]
    invariant._plan.cache_clear()
    for _ in range(2):
        for d in diagrams:
            brute_check(d)


def test_plans_kept_across_calls_give_H_in_any_order():
    diagrams = [random_diagram(k, seed) for k in (4, 9, 12, 30, 70) for seed in range(2)]
    diagrams += [hub_diagram(64, 0), block_hub_diagram(32, 1)]
    assert {takes_kernel(d) for d in diagrams} == {False, True}
    invariant._plan.cache_clear()
    first = [[render(compute_H(d, policy), "json") for policy in POLICIES] for d in diagrams]
    invariant._plan.cache_clear()
    again = [[render(compute_H(d, policy), "json") for policy in POLICIES[::-1]][::-1]
             for d in diagrams[::-1]][::-1]
    assert again == first


# SHA-256 of render(compute_H(random_diagram(1000, 97), policy), "json"), recorded
# with the crossing-row kernel before the histogram kernel replaced it there.
CRITERION_10_PINS = {
    ReductionPolicy.QUOTIENT: "c9f1550ce671377c523d1ac652930894850f6f9da502116bc7544294f7ab0b7c",
    ReductionPolicy.LITERAL: "e6a3119bad03cc3794c8192b20227ce3cbafc92f4c368933bc7b711d501bf907",
}


def test_criterion_10_diagram_H_is_pinned():
    d = random_diagram(1000, 97)
    for policy, pin in CRITERION_10_PINS.items():
        text = render(compute_H(d, policy), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == pin, policy


def test_criterion_10_diagram_reads_no_crossing_row(monkeypatch):
    calls = []

    def counted(read):
        def reader(table, cid, *policy):
            calls.append(cid)
            return read(table, cid, *policy)
        return reader

    for module, name in ((gauss, "_crossing_row"), (invariant, "_crossing_row"),
                         (invariant, "_row_classes")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    d = random_diagram(1000, 97)
    h = compute_H(d)
    assert not h.is_zero()
    assert calls == []


def test_crossing_change_delta_reads_the_row_once(monkeypatch):
    """One chord's deltas and index polynomials read its crossing row once,
    through the one row reader, and never the whole-diagram row source."""
    calls, sources = [], []

    def counted(table, cid, policy):
        calls.append(cid)
        return row(table, cid, policy)

    def whole_diagram(*args):
        sources.append(args)
        return cells(*args)

    row, cells = invariant._row_classes, invariant._row_cells
    monkeypatch.setattr(invariant, "_row_classes", counted)
    monkeypatch.setattr(invariant, "_row_cells", whole_diagram)
    d, policy = random_diagram(400, 3), ReductionPolicy.QUOTIENT
    assert not crossing_change_delta(d, 5).is_zero()
    assert calls == [5] and sources == []
    for call in (index_polys, lambda d, cid, policy: index_function(d, cid, 1, policy)):
        calls.clear()
        call(d, 5, policy)
        assert calls == [5] and sources == []


def test_cache_is_invisible_to_equality_hash_and_repr():
    code = serialize(random_diagram(9, 4))
    built, fresh = parse_gauss_code(code), parse_gauss_code(code)
    degree(built, 1)
    built.chords()
    assert "_table" in vars(built) and "_table" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


def test_chords_mapping_is_read_only():
    d = random_diagram(4, 2)
    views = d.chords()
    with pytest.raises(TypeError):
        views[1] = views[2]
    with pytest.raises(TypeError):
        del views[1]
    assert d.chord(1) == views[1] and sorted(views) == [1, 2, 3, 4]


@pytest.mark.parametrize("bad", ["x", 1.0, True, 0, 5])  # 5 is k + 1
def test_one_chord_id_rule(bad):
    """An id that is not an int in 1..k, or is a bool, is named in a GaussCodeError."""
    d = random_diagram(4, 1)
    policy = ReductionPolicy.QUOTIENT
    for call in (lambda: d.chord(bad), lambda: degree(d, bad),
                 lambda: crossing_partition(d, bad), lambda: index_polys(d, bad, policy),
                 lambda: index_function(d, bad, 1, policy), lambda: crossing_change(d, bad),
                 lambda: crossing_change_delta(d, bad), lambda: resolutions(d, bad),
                 lambda: make_singular(d, [bad])):
        with pytest.raises(GaussCodeError, match="^no chord with id %s$" % re.escape(repr(bad))):
            call()


def rebuilt_table(d):
    """The chord table built from d's events alone, as on a parsed diagram."""
    return gauss.GaussDiagram._built(d.events)._table


def test_crossing_change_patches_the_table_a_rebuild_would_make():
    """crossing_change hands its result d's table, patched; it must equal a
    rebuild, on every chord, along a chain of changes, and beside a singular
    chord, where a crossed chord's degree stays undefined.  H of the patched
    diagram is checked against the oracle on both sides of the cost rule."""
    kernel = invariant._KERNEL_MIN_CHORDS
    for k in range(kernel + 7):
        d = random_diagram(k, k)
        for c in range(1, k + 1):
            changed = crossing_change(d, c)
            assert "_table" in vars(changed)
            assert changed._table == rebuilt_table(changed), (k, c)
        if k in (7, 30, kernel - 1, kernel, kernel + 6):
            changed = crossing_change(d, k // 2 + 1)
            for policy in POLICIES:
                assert (render(compute_H(changed, policy), "json")
                        == oracle.compute_H(serialize(changed), policy.value)), (k, policy)
    rng = random.Random(3)
    for k in (12, kernel + 6):
        d = random_diagram(k, 11)
        for _ in range(3 * k):
            d = crossing_change(d, rng.randint(1, k))
            assert d._table == rebuilt_table(d)
        for policy in POLICIES:
            assert render(compute_H(d, policy), "json") == oracle.compute_H(serialize(d), policy.value)
    crossed = 0  # changed chords whose degree a singular chord leaves undefined
    for seed in range(5):
        s = make_singular(random_diagram(14, seed), [1, 2])
        for c in range(3, 15):
            changed = crossing_change(s, c)
            assert changed._table == rebuilt_table(changed), (seed, c)
            crossed += changed._table.degree[c] is None
    assert crossed


KERNEL = invariant._KERNEL_MIN_CHORDS
STORE_SIZES = (1, 12, 30, KERNEL - 1, KERNEL, KERNEL + 6)
KEYS = [(policy, include_n0) for policy in POLICIES for include_n0 in (False, True)]


def fresh_H(d, policy, include_n0=False):
    """H of d's code read anew: a parsed diagram, which has no store of H values."""
    fresh = parse_gauss_code(serialize(d))
    assert fresh._H_store is None and fresh._H_link is None
    return compute_H(fresh, policy, include_n0)


def oracle_H(d, policy, include_n0):
    """H of d by the brute-force oracle, as JSON text; under include_n0 the
    oracle's H plus n0_stratum, built on the oracle's own index polynomials."""
    text = oracle.compute_H(serialize(d), policy.value)
    if not include_n0:
        return text
    return render(invariant.invariant_from_json(text) + n0_stratum(*oracle_chords(d), policy),
                  "json")


def walked(monkeypatch, check):
    """Patch singular's compute_H to call check(r, policy, include_n0, h) at every step."""
    def checked(r, policy, include_n0):
        h = compute_H(r, policy, include_n0)
        check(r, policy, include_n0, h)
        return h

    monkeypatch.setattr(singular, "compute_H", checked)


@pytest.mark.parametrize("k", STORE_SIZES)
def test_each_skein_step_and_chain_step_gives_the_H_of_a_fresh_parse(monkeypatch, k):
    """Every step of singular_H's Gray walk, and of a chain of 3k random
    crossing changes, against H of the same code parsed anew.  Along the
    chain the policy alternates step by step and include_n0 every second
    step, so a step finds its key in its parent's store only at times, and
    every second step computes its H a second time under the other key."""
    steps = []

    def check(r, policy, include_n0, h):
        assert h == fresh_H(r, policy, include_n0), (k, len(steps), policy, include_n0)
        steps.append(r._H_store is not None)

    walked(monkeypatch, check)
    s = min(k, 4)
    for policy, include_n0 in KEYS:
        steps.clear()
        singular.singular_H(random_singular_diagram(k, s, k), policy, include_n0)
        assert steps == [False] + [True] * ((1 << s) - 1)  # the first one is _signed's
    rng = random.Random(k)
    d = random_diagram(k, k + 1)
    for step in range(3 * k):
        d = crossing_change(d, rng.randint(1, k))
        for policy, include_n0 in KEYS[step % 4::2][:1 + step % 2]:
            assert compute_H(d, policy, include_n0) == fresh_H(d, policy, include_n0), (k, step)
    assert set(d._H_store) <= set(KEYS)


@pytest.mark.parametrize("k", [1, 12, 30, KERNEL + 6])
def test_each_skein_step_and_chain_step_matches_the_oracle(monkeypatch, k):
    """The same walks against the brute-force oracle, bit for bit."""
    steps = []

    def check(r, policy, include_n0, h):
        assert render(h, "json") == oracle_H(r, policy, include_n0), (k, len(steps))
        steps.append(r)

    walked(monkeypatch, check)
    s = min(k, 4 if k < KERNEL else 3)
    for policy, include_n0 in KEYS:
        steps.clear()
        singular.singular_H(random_singular_diagram(k, s, k + 2), policy, include_n0)
        assert len(steps) == 1 << s
    rng = random.Random(k + 2)
    d = random_diagram(k, k + 3)
    for step in range(min(3 * k, 40)):
        d = crossing_change(d, rng.randint(1, k))
        policy, include_n0 = KEYS[step % 4]
        assert render(compute_H(d, policy, include_n0), "json") == oracle_H(d, policy, include_n0)


def counted_reads(monkeypatch):
    """Record the chord of each row read, and each call of a whole-diagram cell source."""
    rows, sources = [], []

    def row(table, cid, policy):
        rows.append(cid)
        return row_classes(table, cid, policy)

    def source(read):
        def counted(table, policy):
            sources.append(read.__name__)
            return read(table, policy)
        return counted

    row_classes = invariant._row_classes
    monkeypatch.setattr(invariant, "_row_classes", row)
    for name in ("_row_cells", "_histogram_cells"):
        monkeypatch.setattr(invariant, name, source(getattr(invariant, name)))
    return rows, sources


@pytest.mark.parametrize("k", [30, KERNEL + 6])
def test_a_child_of_a_stored_parent_reads_the_switched_chord_alone(monkeypatch, k):
    """A child of a diagram whose H is stored for the key reads the crossing
    row of the switched chord and no other, and calls neither cell source;
    the parent's stored H stays, and switching back gives the parent's H."""
    parent = crossing_change(random_diagram(k, 4), 1)
    h = {key: compute_H(parent, *key) for key in KEYS}
    assert parent._H_store == h and all(map(operator.is_, parent._H_store.values(), h.values()))
    rows, sources = counted_reads(monkeypatch)
    for cid in (2, k // 2, k):
        rows.clear()
        child = crossing_change(parent, cid)
        child_h = {key: compute_H(child, *key) for key in KEYS}
        assert rows == [cid] * len(KEYS) and sources == []
        assert child._H_store == child_h
        assert child_h == {key: fresh_H(child, *key) for key in KEYS}
        assert {key: compute_H(crossing_change(child, cid), *key) for key in KEYS} == h
        assert all(map(operator.is_, parent._H_store.values(), h.values()))
        sources.clear()


def test_a_switch_delta_builds_no_checked_zpoly(monkeypatch):
    """The delta of a switch goes from class cells to stored terms with no
    ZPoly round trip: compute_H on a child whose parent has H stored, and
    crossing_change_delta, never call ZPoly.__init__."""
    inits = []
    init = ZPoly.__init__

    def counted(self, *args):
        inits.append(args)
        init(self, *args)

    parent = crossing_change(random_diagram(30, 7), 1)
    stored = {policy: compute_H(parent, policy) for policy in POLICIES}
    monkeypatch.setattr(ZPoly, "__init__", counted)
    got = {}
    for policy in POLICIES:
        for cid in (2, 5):
            got[policy, cid] = (compute_H(crossing_change(parent, cid), policy),
                                crossing_change_delta(parent, cid, policy))
    assert inits == []
    monkeypatch.undo()
    for (policy, cid), (child_h, delta) in got.items():
        assert not delta.is_zero() and delta == stored[policy] - child_h
        assert child_h == fresh_H(crossing_change(parent, cid), policy)


@pytest.mark.parametrize("k", [30, KERNEL + 6])
def test_a_child_computes_in_full_when_its_parent_has_no_H_for_the_key(monkeypatch, k):
    """A parent with H stored under one key only, and one with no store at
    all: each other key, and the child of the storeless parent, reads every
    chord through the cell source that k picks."""
    source = "_row_cells" if k < KERNEL else "_histogram_cells"
    parent = crossing_change(random_diagram(k, 6), 3)
    compute_H(parent, ReductionPolicy.QUOTIENT)
    rows, sources = counted_reads(monkeypatch)
    child = crossing_change(parent, 5)
    orphan = crossing_change(random_diagram(k, 6), 3)
    assert orphan._H_link == (None, 3) and orphan._H_store == {}
    for d, key in [(child, key) for key in KEYS[1:]] + [(orphan, KEYS[0])]:
        rows.clear(), sources.clear()
        h = compute_H(d, *key)
        assert sources == [source] and sorted(rows) == (list(range(1, k + 1)) if k < KERNEL
                                                        else []), key
        assert h == fresh_H(d, *key) and d._H_store[key] is h


def test_only_crossing_change_gives_a_diagram_a_store():
    """Parsed and random diagrams, moves, the other symmetries and the skein
    markings have no store of H values and no link, even when the diagram
    they start from has them."""
    base = crossing_change(random_diagram(9, 6), 3)
    h = compute_H(base)
    assert base._H_store == {(ReductionPolicy.QUOTIENT, False): h}
    plus, minus = resolutions(make_singular(base, [4]), 4)
    built = [parse_gauss_code(serialize(base)), random_diagram(9, 6), random_nested_diagram(9, 6),
             from_chord_positions([(1, 2, 1)]), r1_insert(base, 0), r2_insert(base, 2, 5),
             gauss.reverse(base), gauss.mirror(base), make_singular(base, [2]), plus]
    for d in built:
        if not d.singular_ids():
            compute_H(d)
        assert d._H_store is None and d._H_link is None, serialize(d)
        assert not {"_H_store", "_H_link"} & set(vars(d)), serialize(d)
    assert minus._H_store == {} and minus._H_link == (None, 4)
    child = crossing_change(base, 1)
    assert child._H_store == {} and child._H_link[0] is base._H_store


def test_a_child_never_keeps_its_parent_alive(monkeypatch):
    """The link holds the parent's store, not the parent, so a Gray walk
    keeps at most two resolutions alive whatever the number of singular
    chords."""
    d = crossing_change(random_diagram(30, 9), 5)
    parent = weakref.ref(d)
    compute_H(d)
    c = crossing_change(d, 1)
    compute_H(c)
    del d
    gc.collect()
    assert parent() is None
    assert c._H_link[0] and c._H_store
    walk = []

    def check(r, policy, include_n0, h):
        walk.append(weakref.ref(r))
        assert sum(ref() is not None for ref in walk) <= 2, len(walk)

    walked(monkeypatch, check)
    singular.singular_H(random_singular_diagram(30, 6, 2))
    assert len(walk) == 64
