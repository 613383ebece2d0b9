"""The four benchmark workloads: inputs from a seed, one op, its checks.

Every op starts from Gauss-code text made at set-up, so no work hides in
pre-built diagrams.  Op i is fully determined by the seed and by
`i % slots`, which is what lets one committed digest per slot cover a run
of any length.  `op` is the timed part; `check` is untimed and returns
the op's canonical output text (the digested bytes) and a list of
failures from checks that hold at every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile

import oracle


def _rng(name: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (name, seed))


def degrees(ch) -> list:
    """Every chord's degree in O(k) from prefix sums over positions.

    Chords wholly inside c's span add +s at their Over and -s at their
    Under endpoint and cancel, so only crossing chords remain.  Singular
    chords count as their positive resolution.
    """
    val = [0] * (2 * len(ch) + 1)
    for o, u, s in ch:
        s = s or 1
        val[o] += s
        val[u] -= s
    prefix = [0]
    for v in val[1:]:
        prefix.append(prefix[-1] + v)
    out = []
    for o, u, _ in ch:
        lo, hi = min(o, u), max(o, u)
        inside = prefix[hi - 1] - prefix[lo]
        out.append(inside if o > u else -inside)
    return out


def crossing_pairs(ch) -> int:
    """Number of interleaved chord pairs, by a Fenwick-tree sweep."""
    size = 2 * len(ch)
    tree = [0] * (size + 1)

    def add(p, v):
        while p <= size:
            tree[p] += v
            p += p & -p

    def total(p):
        t = 0
        while p > 0:
            t += tree[p]
            p -= p & -p
        return t

    ends = {}
    for o, u, _ in ch:
        ends[min(o, u)] = None
        ends[max(o, u)] = min(o, u)
    pairs = 0
    for p in range(1, size + 1):
        lo = ends[p]
        if lo is None:
            add(p, 1)
        else:
            add(lo, -1)
            pairs += total(p) - total(lo)
    return pairs


def input_stats(code: str) -> tuple:
    """(chords, crossing pairs, distinct degrees) of one code."""
    ch = oracle.chords(code)
    return len(ch), crossing_pairs(ch), len(set(degrees(ch)))


def _nonzero_index_chord(ch, order) -> int:
    """First chord index in `order` with a nonzero quotient Ind_c^n.

    A crossing change at such a chord shifts H, so its delta has a
    Gordian bound of exactly 1 and its singular resolution sum is nonzero.
    """
    deg = degrees(ch)
    for i in order:
        if oracle.index_polys(ch, i, deg, "quotient"):
            return i
    return -1


class Workload:
    name = ""
    slots = 1
    ref_units = 1       # reference units timed after each op; 7-9 % of the loop at default sizes

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = _rng(self.name, seed)

    def new_seed(self) -> int:
        return self.rng.randrange(2 ** 31)

    def warm_op(self, rep: int) -> int:
        """An op that can run first after set-up, a different one per repetition."""
        return rep % self.slots

    def op(self, i):
        raise NotImplementedError

    def check(self, i, result):
        raise NotImplementedError

    def op_inputs(self, i) -> list:
        """Codes op i starts from."""
        raise NotImplementedError

    def scanned(self, i) -> list:
        """(code, times) for every diagram compute_H scans in op i."""
        return []

    def reset(self):
        pass

    def close(self):
        pass


class Kernel(Workload):
    """One k=1000 compute_H per op; the policy alternates op by op."""

    name = "kernel_k1000"
    ref_units = 60

    def __init__(self, lib, seed, out_dir, k=1000, pool=7):
        super().__init__(lib, seed)
        if pool % 2 == 0:
            raise ValueError("pool must be odd so each code meets both policies")
        g = lib.gauss
        self.codes = [g.serialize(g.random_diagram(k, self.new_seed())) for _ in range(pool)]
        rp = lib.zpoly.ReductionPolicy
        self.policies = (rp.QUOTIENT, rp.LITERAL)
        self.slots = 2 * pool

    def op(self, i):
        lib = self.lib
        d = lib.gauss.parse_gauss_code(self.codes[i % len(self.codes)])
        h = lib.invariant.compute_H(d, self.policies[i % 2])
        return h, lib.invariant.render(h, "json")

    def check(self, i, result):
        h, text = result
        inv = self.lib.invariant
        back = inv.invariant_from_json(text)
        fails = []
        if back.policy is not self.policies[i % 2]:
            fails.append("policy %s in output" % back.policy.value)
        elif back != h or inv.render(back, "json") != text:
            fails.append("JSON round trip changed H")
        return text, fails

    def op_inputs(self, i):
        return [self.codes[i % len(self.codes)]]

    def scanned(self, i):
        return [(self.codes[i % len(self.codes)], 1)]


class Census(Workload):
    """`compute --file chunk.gko --format json` in process, many small k."""

    name = "census_small"

    def __init__(self, lib, seed, out_dir, chunk=50, kmax=12, pool=15):
        super().__init__(lib, seed)
        if pool % 2 == 0:
            raise ValueError("pool must be odd so each chunk meets both modes")
        g = lib.gauss
        self.chunks = []
        for _ in range(pool):
            # k runs evenly through 1..kmax in every chunk, in shuffled order, so
            # chunks cost about the same and the op-time median does not jump
            # between cheap and dear chunks.
            ks = [1 + j % kmax for j in range(chunk)]
            self.rng.shuffle(ks)
            self.chunks.append([g.serialize(g.random_diagram(k, self.new_seed())) for k in ks])
        os.makedirs(out_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="census-", dir=out_dir)
        self.paths = []
        for j, codes in enumerate(self.chunks):
            path = os.path.join(self.dir, "chunk%d.gko" % j)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# census chunk %d, seed %d\n" % (j, seed))
                fh.writelines("d%d: %s\n" % (n, c) for n, c in enumerate(codes))
            self.paths.append(path)
        self.modes = ("quotient", "literal")
        self.slots = 2 * pool

    def op(self, i):
        argv = ["compute", "--file", self.paths[i % len(self.paths)],
                "--format", "json", "--mode", self.modes[i % 2]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib.cli.main(argv)
        return rc, buf.getvalue()

    def check(self, i, result):
        rc, text = result
        inv = self.lib.invariant
        lines = text.splitlines()
        fails = []
        if rc != 0:
            fails.append("exit code %r" % rc)
        if len(lines) != len(self.chunks[i % len(self.chunks)]):
            fails.append("%d output lines" % len(lines))
        for line in lines:
            back = inv.invariant_from_json(line)
            if back.policy.value != self.modes[i % 2] or inv.render(back, "json") != line:
                fails.append("JSON round trip changed %s" % line[:60])
                break
        return text, fails

    def op_inputs(self, i):
        return self.chunks[i % len(self.chunks)]

    def scanned(self, i):
        return [(c, 1) for c in self.chunks[i % len(self.chunks)]]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Walk(Workload):
    """One random_walk step per op, text in and text out.

    A walk is one cycle: `half` steps with every move kind (r2_insert has
    by far the most instances, so k grows by about 2 per step), then
    `half` steps of deletions and R3 slides, which shrink it back.  Walks
    restart from the pool of start codes, so op i depends on the seed and
    on i % slots only.
    """

    name = "walk_k200"
    ref_units = 6
    SHRINK = ("r1_delete", "r2_delete", "r3")

    def __init__(self, lib, seed, out_dir, k=200, half=20, pool=4):
        super().__init__(lib, seed)
        g = lib.gauss
        self.half = half
        self.starts = [g.serialize(g.random_diagram(k, self.new_seed())) for _ in range(pool)]
        self.step_seeds = [[self.new_seed() for _ in range(2 * half)] for _ in range(pool)]
        quotient = lib.zpoly.ReductionPolicy.QUOTIENT
        self.start_H = [lib.invariant.compute_H(g.parse_gauss_code(s), quotient)
                        for s in self.starts]
        self.slots = pool * 2 * half
        self.current = None
        self.inputs = {}

    def warm_op(self, rep):
        return rep % len(self.starts) * 2 * self.half

    def _where(self, i):
        return divmod(i % self.slots, 2 * self.half)

    def op(self, i):
        lib = self.lib
        w, j = self._where(i)
        text = self.starts[w] if j == 0 else self.current
        d = lib.moves.random_walk(lib.gauss.parse_gauss_code(text), 1, self.step_seeds[w][j],
                                  allowed=None if j < self.half else self.SHRINK)
        return text, lib.gauss.serialize(d)

    def check(self, i, result):
        text_in, text_out = result
        self.current = text_out
        self.inputs[i % self.slots] = text_in
        w, j = self._where(i)
        fails = []
        if j == 2 * self.half - 1:
            lib = self.lib
            h = lib.invariant.compute_H(lib.gauss.parse_gauss_code(text_out),
                                        lib.zpoly.ReductionPolicy.QUOTIENT)
            if h != self.start_H[w]:
                fails.append("quotient H changed over walk %d" % w)
        return text_out, fails

    def op_inputs(self, i):
        return [self.inputs[i % self.slots]]

    def reset(self):
        self.current = None


class Skein(Workload):
    """An s-singular skein sum, a 1-singular one, and a k=400 delta."""

    name = "skein_gordian"
    ref_units = 50

    def __init__(self, lib, seed, out_dir, k=30, s=8, k_delta=400, pool=45):
        super().__init__(lib, seed)
        g, sg = lib.gauss, lib.singular
        self.s = s
        self.cases = []
        for _ in range(pool):
            multi = g.serialize(sg.random_singular_diagram(k, s, self.new_seed()))
            single = None
            while single is None:
                d = g.random_diagram(k, self.new_seed())
                ch = oracle.chords(g.serialize(d))
                for c in self.rng.sample(range(k), k):
                    plus = list(ch)
                    plus[c] = (ch[c][0], ch[c][1], 1)
                    if _nonzero_index_chord(plus, [c]) >= 0:
                        single = g.serialize(sg.make_singular(d, [c + 1]))
                        break
            cid = -1
            while cid < 0:
                big = g.serialize(g.random_diagram(k_delta, self.new_seed()))
                ch = oracle.chords(big)
                deg = degrees(ch)
                # A degree-0 chord has one gcd class per distinct |d(e)|, up to
                # ~20 at k=400, so its delta costs 10x the others; leaving them
                # out keeps one such case from swinging a whole run.
                order = [c for c in self.rng.sample(range(k_delta), k_delta) if deg[c]]
                cid = _nonzero_index_chord(ch, order)
            self.cases.append((multi, single, big, cid + 1))
        self.slots = pool

    def op(self, i):
        g, sg, gd = self.lib.gauss, self.lib.singular, self.lib.gordian
        multi, single, big, cid = self.cases[i % len(self.cases)]
        h_multi = sg.singular_H(g.parse_gauss_code(multi))
        h_single = sg.singular_H(g.parse_gauss_code(single))
        delta = gd.crossing_change_delta(g.parse_gauss_code(big), cid)
        return h_multi, h_single, delta, gd.decompose(delta)

    def check(self, i, result):
        h_multi, h_single, delta, dec = result
        inv, gd = self.lib.invariant, self.lib.gordian
        fails = []
        if self.s >= 2 and not h_multi.is_zero():
            fails.append("%d-singular skein sum is nonzero" % self.s)
        if h_single.is_zero():
            fails.append("1-singular skein sum is zero")
        if dec.bound != 1:
            fails.append("decompose bound %d, expected 1" % dec.bound)
        if gd.reconstruct(dec) != delta:
            fails.append("reconstruct(decompose(delta)) != delta")
        text = "\n".join([inv.render(h_multi, "json"), inv.render(h_single, "json"),
                          inv.render(delta, "json"), json.dumps(gd.decomposition_json(dec))])
        return text, fails

    def op_inputs(self, i):
        return list(self.cases[i % len(self.cases)][:3])

    def scanned(self, i):
        multi, single = self.cases[i % len(self.cases)][:2]
        return [(multi, 2 ** self.s), (single, 2)]


WORKLOADS = {cls.name: cls for cls in (Kernel, Walk, Census, Skein)}
