"""Span tracing of circtrees from outside the package.

``Tracer.install`` replaces every public function of the package with a
wrapper that records a span, in every module namespace that binds it, so
calls between modules (``mahler`` calling ``chebyshev.tau_even``, which
calls ``find_roots``) are traced as well as calls from the benchmark.
Spans are kept in memory as tuples

    (name, start, end, parent, op, attr)

with ``parent`` the index of the enclosing span (or -1), ``op`` the index
of the benchmark operation that caused it, and ``attr`` an argument summary
for the few functions whose per-layer metrics need one.
"""

import functools
import inspect
import json
import sys
import time


def _find_roots_attr(poly, precision, *args, **kwargs):
    return [hash(poly.coeffs), precision]


def _bareiss_attr(matrix, *args, **kwargs):
    return len(matrix)


ATTRS = {
    "chebyshev.find_roots": _find_roots_attr,
    "exact.bareiss_determinant": _bareiss_attr,
}


def _is_target(obj):
    if isinstance(obj, functools._lru_cache_wrapper):
        obj = obj.__wrapped__
    return (inspect.isfunction(obj)
            and obj.__module__.startswith("circtrees.")
            and not obj.__name__.startswith("_"))


class Tracer:
    """Records spans of traced calls; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._originals = []

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        attr_of = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            attr = attr_of(*args, **kwargs) if attr_of else None
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.op, attr)
                stack.pop()

        return traced

    def install(self):
        """Wrap every public circtrees function in every namespace binding it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "circtrees"
                                         or key.startswith("circtrees."))]
        wrappers = {}
        for module in modules:
            for key, obj in list(vars(module).items()):
                if not _is_target(obj):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.split(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
                self._originals.append((module, key, obj))
                setattr(module, key, wrappers[id(obj)])

    def uninstall(self):
        for module, key, obj in reversed(self._originals):
            setattr(module, key, obj)
        self._originals.clear()

    def dump(self, path, header):
        write_spans(path, self.spans, header)


def write_spans(path, spans, header=None):
    """Write spans as JSON lines, after an optional header line."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, op, attr in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op,
                                 "attr": attr}) + "\n")


def load(path):
    """(header, spans) from a file written by :meth:`Tracer.dump`."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = []
        for line in fh:
            s = json.loads(line)
            spans.append((s["name"], s["start"], s["end"], s["parent"],
                          s["op"], s["attr"]))
    return header, spans


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attr in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c
            for (name, start, end, parent, op, attr), c in zip(spans, child)]


def layer_metrics(spans, ops):
    """Per-layer metrics per benchmark operation, from one traced phase."""
    own = self_times(spans)
    self_s, calls = {}, {}
    for (name, *_), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names) / ops

    def c(*names):
        return sum(calls.get(n, 0) for n in names) / ops

    roots = [span[5] for span in spans if span[0] == "chebyshev.find_roots"]
    taus = ("chebyshev.tau_even", "chebyshev.tau_odd")
    tau_calls = calls.get(taus[0], 0) + calls.get(taus[1], 0)
    in_ratio = 0
    for name, start, end, parent, op, attr in spans:
        if name not in taus:
            continue
        while parent >= 0:
            if spans[parent][0] == "mahler.asymptotic_ratio":
                in_ratio += 1
                break
            parent = spans[parent][3]
    return {
        "chebyshev.find_roots.self_s": (s("chebyshev.find_roots"), "s/op"),
        "chebyshev.find_roots.calls": (c("chebyshev.find_roots"), "1/op"),
        "chebyshev.find_roots.bits_sum": (
            sum(a[1] for a in roots) / ops, "bits/op"),
        "chebyshev.find_roots.distinct_ratio": (
            len({tuple(a) for a in roots}) / len(roots) if roots else 0.0,
            "ratio"),
        "chebyshev.find_roots.per_tau": (
            len(roots) / tau_calls if tau_calls else 0.0, "calls/tau"),
        "chebyshev.tau.self_s": (s(*taus), "s/op"),
        "chebyshev.tau.calls": (c(*taus), "1/op"),
        "chebyshev.cheb_eval_large.self_s": (
            s("chebyshev.cheb_eval_large"), "s/op"),
        "chebyshev.cheb_eval_large.calls": (
            c("chebyshev.cheb_eval_large"), "1/op"),
        "chebyshev.build_char.self_s": (
            s("chebyshev.build_even_char", "chebyshev.build_odd_char"), "s/op"),
        "exact.bareiss_determinant.self_s": (
            s("exact.bareiss_determinant"), "s/op"),
        "exact.bareiss_determinant.calls": (
            c("exact.bareiss_determinant"), "1/op"),
        "exact.bareiss_determinant.dim3_sum": (
            sum(span[5] ** 3 for span in spans
                if span[0] == "exact.bareiss_determinant") / ops, "1/op"),
        "exact.tau_oracle.self_s": (s("exact.tau_oracle"), "s/op"),
        "graph.laplacian.self_s": (s("graph.laplacian"), "s/op"),
        "graph.canonicalize.calls": (c("graph.canonicalize"), "1/op"),
        "arithmetic.decompose.self_s": (s("arithmetic.decompose"), "s/op"),
        "arithmetic.family_spec.calls": (c("arithmetic.family_spec"), "1/op"),
        "arithmetic.sequence_a.self_s": (s("arithmetic.sequence_a"), "s/op"),
        "mahler.associated_laurent.self_s": (
            s("mahler.associated_laurent"), "s/op"),
        "mahler.mahler_root_product.self_s": (
            s("mahler.mahler_root_product"), "s/op"),
        "mahler.mahler_quadrature.self_s": (
            s("mahler.mahler_quadrature"), "s/op"),
        "mahler.asymptotic_ratio.self_s": (
            s("mahler.asymptotic_ratio"), "s/op"),
        "mahler.asymptotic_ratio.tau_calls": (in_ratio / ops, "1/op"),
    }
