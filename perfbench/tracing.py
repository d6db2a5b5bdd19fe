"""Per-layer tracing from outside the program.

Wrappers around the public functions of each dsx module record spans
(name, start, end, parent, command id) in memory; a layer's self time is
its spans' durations minus the time of wrapped calls nested inside them.
Because cli.py and moore.py import functions by name, a wrapper is bound
in place of the original under every name any dsx module gives it.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

# span name -> the public dsx names timed as that layer, as module.name
LAYERS = {
    "products.smash": ("products.n_ary_smash", "products.n_ary_product",
                       "products.smash", "products.geometric_product"),
    "products.morphism": ("products.smash_morphism",
                          "products.smash_morphism_left",
                          "products.product_morphism"),
    "delta.construct": ("delta.DeltaSet.__init__",
                        "based.BasedDeltaSet.__init__"),
    "delta.validate": ("delta.validate", "based.validate_based"),
    "moore.power": ("moore.symmetric_power_of",),
    "moore.projection": ("moore.PowerSystem.projection",),
    "moore.coherence_map": ("moore.MooreSystem.coherence_map",),
    "homology.chain_complex": ("homology.chain_complex",
                               "homology.chain_map_matrices"),
    "homology.cone": ("homology.mapping_cone_complex",),
    "homology.homology": ("homology.homology", "homology.certify_moore"),
    "exact.morse": ("exact.morse_reduce",),
    "exact.sparse_z": ("exact.sparse_rank_and_factors",),
    "exact.sparse_fp": ("exact.sparse_rank_mod_p",),
    "exact.smith": ("exact.smith",),
    "exact.mat_mul": ("exact.mat_mul",),
    "dgred.reduce": ("dgred.reduce_mod_n",),
    "dgred.extend": ("dgred.extend_over_mod_n",),
    "dgred.cone": ("dgred.cone_dg", "dgred.cone_exterior"),
    "dgred.check": ("dgred.ExteriorModule.check", "dgred.hom_differential"),
    "moves.cone": ("moves.cone",),
    "moves.replay": ("moves.ExpansionCertificate.verify",),
    "moves.search": ("moves.find_collapse_sequence",),
    "io.read": ("io.read_delta", "io.read_complex", "io.read_certificate"),
    "io.write": ("io.write_delta", "io.write_complex", "io.write_certificate"),
    "cli.run": ("cli.run",),
}

# results kept for the workloads' traced checks, not timed
CAPTURES = {"dgred.tower": "dgred.order_tower"}


def _counts(K):
    return {d: n for d, n in enumerate(K.counts()) if n}


def _count_cells(tracer, span, args, result):
    if span.parent is None or span.parent.name != span.name:
        tracer.add("products.cells", result.n_cells())


def _count_power(tracer, span, args, result):
    P, _, W = result
    tracer.captures.setdefault("moore.power", []).append(
        (_counts(P), _counts(W)))


def _count_morse(tracer, span, args, result):
    tracer.add("exact.morse_cells", sum(args[0].values()))
    tracer.add("exact.morse_residue_cells", sum(result[0].values()))


def _count_madds(tracer, span, args, result):
    A, B = args
    tracer.add("exact.mat_mul_madds", len(A) * len(B) * (len(B[0]) if B else 0))


def _count_search(tracer, span, args, result):
    if result is not None:
        tracer.add("moves.cells_collapsed", 2 * len(result))


def _count_read(tracer, span, args, result):
    tracer.add("io.read_bytes", os.path.getsize(args[0]))


COUNTERS = {
    "products.smash": _count_cells,
    "moore.power": _count_power,
    "exact.morse": _count_morse,
    "exact.mat_mul": _count_madds,
    "moves.search": _count_search,
    "io.read": _count_read,
}


class Span:
    __slots__ = ("index", "name", "parent", "command", "start", "end")

    def __init__(self, index, name, parent, command):
        self.index = index
        self.name = name
        self.parent = parent
        self.command = command
        self.start = self.end = 0.0


class Tracer:
    """Holds the spans, counters and captured results of one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = None
        self.counters = {}
        self.captures = {}
        self._undo = []

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _timed(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None,
                        self.command)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                count(self, span, args, result)
            return result
        return wrapper

    def _captured(self, name, fn):
        sink = self.captures.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return wrapper

    def _rebind(self, path, make):
        module, attr = path.split(".", 1)
        mod = sys.modules[f"dsx.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for name, m in list(sys.modules.items()):
            if name != "dsx" and not name.startswith("dsx."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, orig))

    def install(self):
        import dsx.cli  # noqa: F401  (loads every module to be rebound)
        for name, paths in LAYERS.items():
            for path in paths:
                self._rebind(path, lambda fn, name=name: self._timed(name, fn))
        for name, path in CAPTURES.items():
            self._rebind(path, lambda fn, name=name: self._captured(name, fn))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def self_times(self):
        """Self time per span name."""
        nested = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                nested[s.parent.index] += s.end - s.start
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - nested[s.index]
        return out

    def dump(self):
        """Spans as lists: name, start, end, parent index, command id."""
        return [[s.name, s.start, s.end,
                 None if s.parent is None else s.parent.index, s.command]
                for s in self.spans]


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, cli_overhead_s):
    """The per-layer metrics of BENCHMARK.json; a layer that did not run
    reads 0."""
    t = tracer.self_times()
    c = tracer.counters.get
    values = {
        "products.smash_s": (t["products.smash"], "s"),
        "products.cells": (c("products.cells", 0), "count"),
        "products.cells_per_s": (_rate(c("products.cells", 0),
                                       t["products.smash"]), "1/s"),
        "products.morphism_s": (t["products.morphism"], "s"),
        "delta.construct_s": (t["delta.construct"], "s"),
        "delta.validate_s": (t["delta.validate"], "s"),
        "moore.power_s": (t["moore.power"], "s"),
        "moore.projection_s": (t["moore.projection"], "s"),
        "moore.coherence_map_s": (t["moore.coherence_map"], "s"),
        "homology.chain_complex_s": (t["homology.chain_complex"], "s"),
        "homology.cone_s": (t["homology.cone"], "s"),
        "homology.homology_s": (t["homology.homology"], "s"),
        "exact.morse_s": (t["exact.morse"], "s"),
        "exact.morse_cells_per_s": (_rate(c("exact.morse_cells", 0),
                                          t["exact.morse"]), "1/s"),
        "exact.morse_residue_cells": (c("exact.morse_residue_cells", 0),
                                      "count"),
        "exact.sparse_z_s": (t["exact.sparse_z"], "s"),
        "exact.sparse_fp_s": (t["exact.sparse_fp"], "s"),
        "exact.smith_s": (t["exact.smith"], "s"),
        "exact.mat_mul_s": (t["exact.mat_mul"], "s"),
        "exact.mat_mul_madds": (c("exact.mat_mul_madds", 0), "count"),
        "dgred.reduce_s": (t["dgred.reduce"], "s"),
        "dgred.extend_s": (t["dgred.extend"], "s"),
        "dgred.cone_s": (t["dgred.cone"], "s"),
        "dgred.check_s": (t["dgred.check"], "s"),
        "moves.cone_s": (t["moves.cone"], "s"),
        "moves.replay_s": (t["moves.replay"], "s"),
        "moves.search_s": (t["moves.search"], "s"),
        "moves.search_cells_per_s": (_rate(c("moves.cells_collapsed", 0),
                                           t["moves.search"]), "1/s"),
        "io.read_s": (t["io.read"], "s"),
        "io.write_s": (t["io.write"], "s"),
        "io.read_mb_per_s": (_rate(c("io.read_bytes", 0) / 1e6,
                                   t["io.read"]), "MB/s"),
        "cli.overhead_s": (cli_overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
