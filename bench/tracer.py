"""Spans around the engine's public functions, installed from outside.

`tracing(recorder)` replaces each traced function by a wrapper in every
`fusionseed` module that holds it (several modules import functions by
name, e.g. `from .grp import class_GG`), and restores the originals on
exit.  A span records its name, start, end, parent span and, for group
enumeration, the number of elements built.  `layer_metrics` turns the
spans of one run into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# (module, attribute, span name) for plain functions.  `tables` is a row
# lookup and gets no span.
FUNCTION_SPANS = [
    ("grp", "class_GG", "grp.class_GG"),
    ("grp", "o_pprime", "grp.o_pprime"),
    ("grp", "product_covers", "grp.product_covers"),
    ("grp", "intermediate_subgroups", "grp.intermediate_subgroups"),
    ("grp", "sylow_normalizer_via_orbit", "grp.orbit_normalizer"),
    ("mu", "compute_gvee", "mu.compute_gvee"),
    ("mu", "preimage", "mu.preimage"),
    ("mu", "recognize", "mu.recognize"),
    ("modrep", "canonical_subspaces", "modrep.canonical_subspaces"),
    ("modrep", "is_indecomposable", "modrep.is_indecomposable"),
    ("modrep", "split_summands", "modrep.split_summands"),
    ("modrep", "w_filtration", "modrep.w_filtration"),
    ("criterion", "evaluate", "criterion.evaluate"),
    ("criterion", "enumerate_admissible", "criterion.enumerate_admissible"),
    ("sgroup", "build_s", "sgroup.build_s"),
    ("sgroup", "choose_x_a", "sgroup.choose_x_a"),
    ("sgroup", "hb_subgroups", "sgroup.hb_subgroups"),
    ("sgroup", "theta_witness", "sgroup.theta_witness"),
    ("sgroup", "step2_conditions", "sgroup.step2_conditions"),
    ("zoo", "build_family", "zoo.build"),
    ("zoo", "heavy_extraspecial_check", "zoo.heavy_check"),
    ("cli", "main", "cli"),
]
# The F_p linear-algebra functions of `gfp`; `as_prime` and `inv_table`
# are constructor helpers called for every matrix and are left out.
GFP_FUNCTIONS = ["rref", "rank", "kernel_basis", "image_basis", "intersect",
                 "add", "contains", "solve", "image_of_subspace",
                 "preimage_of_subspace"]
GFP_METHODS = ["inverse", "pow"]

NAME, START, END, PARENT, ELEMENTS = range(5)


class Recorder:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, elements]
        self.counters = {}
        self._open = []

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1, 0])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        self._open.pop()
        span[END] = time.perf_counter()

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _fusionseed_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "fusionseed"
                                  or n.startswith("fusionseed."))]


@contextlib.contextmanager
def tracing(rec: Recorder):
    """Install the spans of FUNCTION_SPANS, gfp and MatGroup.cache."""
    from fusionseed import gfp, grp

    def after_orbit(args, result):
        orbit = result[1]
        rec.count("grp.orbit_size", orbit)
        # one Schreier generator per (orbit point, generator) pair
        rec.count("grp.schreier_generators", orbit * len(args[2]))

    def after_admissible(args, result):
        rec.count("criterion.admissible_passers", len(result))

    def after_intermediate(args, result):
        rec.count("criterion.admissible_candidates", len(result))

    afters = {"grp.orbit_normalizer": after_orbit,
              "criterion.enumerate_admissible": after_admissible,
              "grp.intermediate_subgroups": after_intermediate}
    replacements = {}      # id(original) -> wrapper
    for mod, attr, name in FUNCTION_SPANS:
        fn = getattr(importlib.import_module("fusionseed." + mod), attr)
        replacements[id(fn)] = rec.wrap(name, fn, afters.get(name))
    for attr in GFP_FUNCTIONS:
        fn = getattr(gfp, attr)
        replacements[id(fn)] = rec.wrap("gfp." + attr, fn)

    restore = []
    for module in _fusionseed_modules():
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                restore.append((module, attr, value))
                setattr(module, attr, wrapper)

    for attr in GFP_METHODS:
        fn = getattr(gfp.FpMatrix, attr)
        restore.append((gfp.FpMatrix, attr, fn))
        setattr(gfp.FpMatrix, attr, rec.wrap("gfp.FpMatrix." + attr, fn))

    cache = grp.MatGroup.cache

    def cache_traced(group):
        # a group whose element stack exists is a cache hit, not a build
        if group._stack is not None:
            return group
        span = rec.begin("grp.enumerate")
        try:
            cache(group)
        finally:
            rec.end(span)
        span[ELEMENTS] = group.order()
        return group
    restore.append((grp.MatGroup, "cache", cache))
    grp.MatGroup.cache = cache_traced
    try:
        yield rec
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under_sgroup(spans, i):
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME].startswith("sgroup."):
            return True
        i = spans[i][PARENT]
    return False


# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {}
for _n in ("grp.enumerate", "grp.class_GG", "grp.o_pprime",
           "criterion.evaluate", "sgroup.theta_witness"):
    LAYER_METRICS[_n + ".self_s"] = "s"
    LAYER_METRICS[_n + ".calls"] = "count"
for _n in ("grp.product_covers", "grp.intermediate_subgroups",
           "grp.orbit_normalizer", "mu.compute_gvee", "mu.preimage",
           "mu.recognize", "modrep.canonical_subspaces",
           "modrep.is_indecomposable", "modrep.split_summands",
           "modrep.w_filtration", "sgroup.build_s", "sgroup.choose_x_a",
           "sgroup.hb_subgroups", "sgroup.step2_conditions", "zoo.build",
           "zoo.heavy_check"):
    LAYER_METRICS[_n + ".self_s"] = "s"
LAYER_METRICS.update({
    "grp.elements_enumerated": "count", "grp.largest_stack": "count",
    "grp.orbit_size": "count", "grp.schreier_generators": "count",
    "gfp.self_s": "s", "gfp.calls": "count",
    "criterion.admissible_candidates": "count",
    "criterion.admissible_passers": "count",
    "sgroup.gamma_enumerate_s": "s", "sgroup.gamma_elements": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
})


def layer_metrics(dumps, overhead_s):
    """Per-layer metrics from the dumps of one or more traced processes."""
    out = {name: 0 for name in LAYER_METRICS}
    out["trace.overhead_s"] = overhead_s
    for dump in dumps:
        spans = dump["spans"]
        own = self_times(spans)
        for i, s in enumerate(spans):
            name = s[NAME]
            if name.startswith("gfp."):
                out["gfp.self_s"] += own[i]
                out["gfp.calls"] += 1
            elif name == "cli":
                out["cli.self_s"] += own[i]
            else:
                key = name + ".self_s"
                if key in out:
                    out[key] += own[i]
                if name + ".calls" in out:
                    out[name + ".calls"] += 1
            if name == "grp.enumerate":
                out["grp.elements_enumerated"] += s[ELEMENTS]
                out["grp.largest_stack"] = max(out["grp.largest_stack"],
                                               s[ELEMENTS])
                if _under_sgroup(spans, i):
                    out["sgroup.gamma_enumerate_s"] += own[i]
                    out["sgroup.gamma_elements"] += s[ELEMENTS]
        for name, k in dump["counters"].items():
            out[name] += k
    return out
