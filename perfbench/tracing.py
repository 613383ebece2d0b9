"""Span tracing installed on the library from outside, and removed after.

Every public function of the traced modules is replaced, in each module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent, op) while an op is open.  Wrapping the binding rather than
the function lets one function be counted per call site: the calls that
`singular_H` makes go through `knotoidh.singular.compute_H`, and those
show up under that binding name as well as under `invariant.compute_H`.

Two hot leaves, `zpoly.reduce_exponent` and the `ZPoly` constructor, are
counted but get no span: a span per call would cost more than the call.
`GaussDiagram.chords` is wrapped on the class as `gauss.chords`.
"""

from __future__ import annotations

import gzip
import json
import time
import types

MODULES = ("gauss", "zpoly", "invariant", "moves", "singular", "gordian", "cli")
COUNT_ONLY = frozenset({"zpoly.reduce_exponent"})
_MARK = "_perfbench_wrapper"


def _namespaces(lib):
    """(label, module) for the package and every traced module."""
    return [("knotoidh", lib.package)] + [(m, getattr(lib, m)) for m in MODULES]


def installed_wrappers(lib) -> int:
    """Number of tracing wrappers currently bound anywhere in the library."""
    found = sum(1 for _, mod in _namespaces(lib) for obj in vars(mod).values()
                if getattr(obj, _MARK, False))
    found += getattr(lib.gauss.GaussDiagram.chords, _MARK, False)
    found += getattr(lib.zpoly.ZPoly.__init__, _MARK, False)
    return found


class Tracer:
    """Spans and counts of one traced run; install() ... restore()."""

    def __init__(self, lib):
        self.lib = lib
        self.names = []      # name id -> (function name, binding name)
        self.counts = []     # name id -> calls of a count-only wrapper
        self.spans = []      # (name id, start, end, parent index, op)
        self.on = False
        self.op = -1
        self._stack = []
        self._saved = []

    def begin_op(self, op: int):
        self.op = op
        self.on = True

    def end_op(self):
        self.on = False

    def _name_id(self, fn_name, binding):
        self.names.append((fn_name, binding))
        self.counts.append(0)
        return len(self.names) - 1

    def _span_wrapper(self, fn, nid):
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.op)

        return wrapper

    def _count_wrapper(self, fn, nid):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, owner, attr, fn_name, binding, count_only):
        fn = getattr(owner, attr)
        nid = self._name_id(fn_name, binding)
        make = self._count_wrapper if count_only else self._span_wrapper
        wrapper = make(fn, nid)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self):
        lib = self.lib
        targets = {}
        for mod_name in MODULES:
            mod = getattr(lib, mod_name)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    targets[obj] = "%s.%s" % (mod_name, name)
        for label, mod in _namespaces(lib):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in targets:
                    fn_name = targets[obj]
                    self._wrap(mod, attr, fn_name, "%s.%s" % (label, attr),
                               fn_name in COUNT_ONLY)
        self._wrap(lib.gauss.GaussDiagram, "chords", "gauss.chords", "gauss.chords", False)
        self._wrap(lib.zpoly.ZPoly, "__init__", "zpoly.ZPoly", "zpoly.ZPoly", True)

    def restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def totals(self):
        """Per function and per binding: calls and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = {}, {}
        for idx, (nid, start, end, _, _) in enumerate(self.spans):
            fn_name, binding = self.names[nid]
            for key in {fn_name, binding}:
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + (end - start - child[idx])
        for nid, n in enumerate(self.counts):
            if n:
                fn_name, binding = self.names[nid]
                for key in {fn_name, binding}:
                    calls[key] = calls.get(key, 0) + n
        return calls, self_s

    def write(self, path, t0: float):
        """Spans as gzipped JSON lines, times in seconds from t0."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, start, end, parent, op in self.spans:
                fh.write("[%d,%.9f,%.9f,%d,%d]\n" % (nid, start - t0, end - t0, parent, op))
