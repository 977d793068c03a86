"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of every layer module
(the package's ``__all__``, and every function of ``cli`` not named with
a leading underscore) with a wrapper, in the defining module and wherever another chainpoly
module (or the package itself) bound the same function by import, so
calls between layers and calls from the benchmark are both seen.  Each
wrapper appends a span [layer, function, start, end, parent, job] to an
in-memory list; ``layer_metrics`` derives self time (a span minus its
children) and the per-layer counters from that list after a round.
Methods of classes such as ``Poly`` and inner helpers outside
``__all__`` (``primitive_part``, ``compose``) are not wrapped: their time
counts toward the layer whose function called them, and wrapping calls
that cheap would mostly measure the wrapper.
"""

from __future__ import annotations

import json
import time
import types
from functools import _lru_cache_wrapper

LAYERS = ("cli", "descents", "polynomials", "realroots", "symdecomp",
          "posets", "simplicial", "coxeter")

RR_NAMES = {"real_rootedness", "is_real_rooted"}
ORACLE_NAMES = {"build_reflection_group", "noncrossing_lattice"}
FLAG_NAMES = {"flag_vectors", "rank_selected_h"}


def _coeff_bits(p):
    bits = 0
    for c in p.coeffs:
        if isinstance(c, int):
            bits = max(bits, abs(c).bit_length())
        else:
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.stack = []
        self.job = -1
        self.counts = {}
        self.saved = []

    def install(self):
        modules = [self.lib.package] + [getattr(self.lib, name) for name in LAYERS]
        exported = set(self.lib.package.__all__)
        for layer in LAYERS:
            module = getattr(self.lib, layer)
            for name, fn in list(vars(module).items()):
                if not isinstance(fn, (types.FunctionType, _lru_cache_wrapper)):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                public = not name.startswith("_") if layer == "cli" else name in exported
                if not public:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for other in modules:
                    for bound, obj in list(vars(other).items()):
                        if obj is fn:
                            self.saved.append((other, bound, fn))
                            setattr(other, bound, wrapper)

    def uninstall(self):
        for module, name, fn in reversed(self.saved):
            setattr(module, name, fn)
        self.saved = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def _bump(self, key, value, combine=int.__add__):
        old = self.counts.get(key)
        self.counts[key] = value if old is None else combine(old, value)

    def _wrap(self, layer, name, fn):
        clock = time.perf_counter
        poly_type = self.lib.polynomials.Poly
        poset_type = self.lib.posets.Poset
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent][0] != layer
            rec = [layer, name, clock(), 0.0, parent, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if outer:
                tracer._count(layer, name, args, result, poly_type, poset_type)
            return result

        return wrapper

    def _count(self, layer, name, args, result, poly_type, poset_type):
        if layer == "realroots":
            for a in args:
                if isinstance(a, poly_type):
                    self._bump("realroots.degree_sum", max(a.degree, 0))
                    self._bump("realroots.max_coeff_bits", _coeff_bits(a), max)
        elif layer == "descents" and isinstance(result, poly_type):
            self._bump("descents.max_coeff_bits", _coeff_bits(result), max)
        elif layer == "posets":
            for a in args:
                if isinstance(a, poset_type):
                    self._bump("posets.elements", len(a))
                    break
        elif name == "build_reflection_group":
            self._bump("coxeter.group_elements", len(result.elements))
        elif name == "noncrossing_lattice":
            self._bump("coxeter.nc_elements", len(result))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, counts, memo_stats, lines):
    """Per-layer numbers for one traced round, times in ms.  The cli
    spans enclose the whole batch call, so cli.self_ms is the batch wall
    time minus the time spent in library calls."""
    child = [0.0] * len(spans)
    for layer, name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = {}
    for layer in LAYERS:
        m[layer + ".self_ms"] = 0.0
        m[layer + ".calls"] = 0
    keys = ("realroots.rr_ms", "realroots.interlace_ms", "descents.gessel_ms",
            "posets.flag_ms", "coxeter.oracle_ms", "coxeter.formula_ms")
    for key in keys:
        m[key] = 0.0
    m["realroots.rr_calls"] = 0
    m["realroots.interlace_calls"] = 0
    for i, (layer, name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        m[layer + ".self_ms"] += (dur - child[i]) * 1e3
        m[layer + ".calls"] += 1
        pname = spans[parent][1] if parent >= 0 else None
        player = spans[parent][0] if parent >= 0 else None
        if name in RR_NAMES and pname not in RR_NAMES:
            m["realroots.rr_ms"] += dur * 1e3
            m["realroots.rr_calls"] += 1
        elif name == "interlaces" and pname != "interlaces":
            m["realroots.interlace_ms"] += dur * 1e3
            m["realroots.interlace_calls"] += 1
        elif name == "determinant_descent_enumerator":
            m["descents.gessel_ms"] += dur * 1e3
        elif name in FLAG_NAMES and pname not in FLAG_NAMES:
            m["posets.flag_ms"] += dur * 1e3
        elif layer == "coxeter" and player != "coxeter":
            key = "coxeter.oracle_ms" if name in ORACLE_NAMES else "coxeter.formula_ms"
            m[key] += dur * 1e3
    for key in ("realroots.degree_sum", "realroots.max_coeff_bits",
                "descents.max_coeff_bits", "posets.elements",
                "coxeter.group_elements", "coxeter.nc_elements"):
        m[key] = counts.get(key, 0)
    hits = sum(s.hits for s in memo_stats)
    lookups = hits + sum(s.misses for s in memo_stats)
    m["realroots.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["cli.lines"] = lines
    return m
