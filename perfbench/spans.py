"""Span and counter recorder for the traced benchmark run.

`Tracer.install()` wraps the public entry points of each `dgglue` module at
run time, from the benchmark's own files, so `src/` stays untouched.  A name
copied by `from ... import` is patched in every `dgglue` module that holds
it.  Each outermost call records a span (name, start, end, parent, command);
a call nested inside another call with the same span name is not recorded
again.  `fields` is not wrapped: per-operation wrapping would swamp the run,
and its cost shows up as the self time of its callers.

Self time is a span's duration minus the part of it covered by its child
spans.  `layer_metrics` turns one pass's spans and counters into the
per-layer metrics.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import weakref

ELIM = "linalg.elim"
# Time spent computing counters after a call; a span of its own so that it
# counts as no layer's self time.
BOOKKEEPING = "trace.bookkeeping"

# (span name, owner, attribute); the owner is a module, or "module:Class"
# for a method.
SPANNED = (
    ("cli.main", "dgglue.cli", "main"),
    ("cli.run", "dgglue.cli", "run"),
    ("io.parse", "dgglue.io", "parse_document"),
    ("io.dump", "dgglue.io", "dump_json"),
    (ELIM, "dgglue.linalg:Matrix", "rank"),
    (ELIM, "dgglue.linalg:Matrix", "kernel_basis"),
    (ELIM, "dgglue.linalg:Matrix", "solve"),
    (ELIM, "dgglue.linalg:Matrix", "inverse"),
    (ELIM, "dgglue.linalg:Matrix", "is_invertible"),
    (ELIM, "dgglue.linalg:Matrix", "column_space_pivots"),
    ("linalg.matmul", "dgglue.linalg:Matrix", "__matmul__"),
    ("linalg.quotient_maps", "dgglue.linalg", "quotient_maps"),
    ("complexes.cohomology", "dgglue.complexes:Complex", "cohomology"),
    ("complexes.induced_map", "dgglue.complexes", "induced_cohomology_map"),
    ("hypercube.totalize", "dgglue.hypercube", "totalize"),
    ("hypercube.bimodule_cube", "dgglue.hypercube", "bimodule_cube"),
    ("hypercube.push_functor", "dgglue.hypercube:DgCube", "push_functor"),
    ("hypercube.defect", "dgglue.hypercube:DgCube", "defect"),
    ("hypercube.defect", "dgglue.hypercube:ComplexCube", "defect"),
    ("dgcat.compose_functors", "dgglue.dgcat", "compose_functors"),
    ("dgcat.validate", "dgglue.dgcat", "validate_category"),
    ("dgcat.validate", "dgglue.dgcat", "validate_functor"),
    ("glue.gac", "dgglue.glue", "gac"),
    ("glue.pi_comparison", "dgglue.glue", "pi_comparison_map"),
    ("twisted.tw_hom", "dgglue.twisted", "tw_hom"),
    ("twisted.mc_check", "dgglue.twisted:TwistedComplex",
     "maurer_cartan_defect"),
    ("filtlab.refinement_square", "dgglue.filtlab", "refinement_square"),
    ("filtlab.proj_dgcat", "dgglue.filtlab", "proj_dgcat"),
    ("filtlab.auslander", "dgglue.filtlab", "auslander"),
    ("filtlab.auslander", "dgglue.filtlab:AuslanderAlgebra", "mul_basis"),
    ("filtlab.auslander", "dgglue.filtlab:AuslanderAlgebra", "validate"),
    ("filtlab.fil_coords", "dgglue.filtlab:FilteredAlgebra", "fil_coords"),
)
# DgCategory.comp_matrix builds a table once per key and then serves it from
# a cache; only builds get a span, named after the kind of category.
COMP_TABLE = "glue.comp_table"          # a category returned by glue.gac
COMP_MATRIX = "dgcat.comp_matrix"       # any other (vertex) category
# DgCategory.compose runs millions of times in validation: counted only.
COMPOSE = "dgcat.compose"

# Per-layer metrics: (metric, unit, span name or counter, how).
# how: "calls" counts spans, "self" sums self time, "counter" reads a counter.
LAYER_METRICS = (
    ("linalg.elim_calls", "count", ELIM, "calls"),
    ("linalg.elim_s", "s", ELIM, "self"),
    ("linalg.elim_s.Q", "s", ELIM + "@Q", "self"),
    ("linalg.elim_s.F7", "s", ELIM + "@F7", "self"),
    ("linalg.elim_cells", "cells", "elim_cells", "counter"),
    ("linalg.elim_nnz", "count", "elim_nnz", "counter"),
    ("linalg.elim_calls.lt32", "count", "elim_lt32", "counter"),
    ("linalg.elim_calls.ge256", "count", "elim_ge256", "counter"),
    ("linalg.matmul_calls", "count", "linalg.matmul", "calls"),
    ("linalg.matmul_s", "s", "linalg.matmul", "self"),
    ("linalg.quotient_maps_s", "s", "linalg.quotient_maps", "self"),
    ("complexes.cohomology_calls", "count", "complexes.cohomology", "calls"),
    ("complexes.cohomology_s", "s", "complexes.cohomology", "self"),
    ("complexes.induced_map_calls", "count", "complexes.induced_map",
     "calls"),
    ("complexes.induced_map_s", "s", "complexes.induced_map", "self"),
    ("hypercube.totalize_calls", "count", "hypercube.totalize", "calls"),
    ("hypercube.totalize_s", "s", "hypercube.totalize", "self"),
    ("hypercube.totalize_dim", "dim", "totalize_dim", "counter"),
    ("hypercube.bimodule_cube_s", "s", "hypercube.bimodule_cube", "self"),
    ("hypercube.push_functor_calls", "count", "hypercube.push_functor",
     "calls"),
    ("hypercube.push_functor_s", "s", "hypercube.push_functor", "self"),
    ("hypercube.defect_s", "s", "hypercube.defect", "self"),
    ("dgcat.compose_calls", "count", COMPOSE, "counter"),
    ("dgcat.compose_functors_calls", "count", "dgcat.compose_functors",
     "calls"),
    ("dgcat.compose_functors_s", "s", "dgcat.compose_functors", "self"),
    ("dgcat.comp_matrix_calls", "count", COMP_MATRIX, "calls"),
    ("dgcat.comp_matrix_s", "s", COMP_MATRIX, "self"),
    ("dgcat.validate_s", "s", "dgcat.validate", "self"),
    ("glue.gac_s", "s", "glue.gac", "self"),
    ("glue.gac_objects", "count", "gac_objects", "counter"),
    ("glue.comp_table_calls", "count", COMP_TABLE, "calls"),
    ("glue.comp_table_s", "s", COMP_TABLE, "self"),
    ("glue.pi_comparison_calls", "count", "glue.pi_comparison", "calls"),
    ("glue.pi_comparison_s", "s", "glue.pi_comparison", "self"),
    ("twisted.tw_hom_calls", "count", "twisted.tw_hom", "calls"),
    ("twisted.tw_hom_s", "s", "twisted.tw_hom", "self"),
    ("twisted.tw_hom_dim", "dim", "tw_hom_dim", "counter"),
    ("twisted.mc_check_s", "s", "twisted.mc_check", "self"),
    ("filtlab.refinement_square_s", "s", "filtlab.refinement_square",
     "self"),
    ("filtlab.proj_dgcat_s", "s", "filtlab.proj_dgcat", "self"),
    ("filtlab.auslander_s", "s", "filtlab.auslander", "self"),
    ("filtlab.fil_coords_calls", "count", "filtlab.fil_coords", "calls"),
    ("filtlab.fil_coords_s", "s", "filtlab.fil_coords", "self"),
    ("io.parse_s", "s", "io.parse", "self"),
    ("io.bytes_in", "bytes", "bytes_in", "counter"),
    ("io.dump_s", "s", "io.dump", "self"),
    ("io.bytes_out", "bytes", "bytes_out", "counter"),
    ("cli.main_self_s", "s", "cli.main", "self"),
    ("cli.run_self_s", "s", "cli.run", "self"),
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(mod, cls, None) if cls else mod


def _nnz(m):
    items = getattr(m, "items", None)
    return sum(1 for _ in items()) if items is not None else 0


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []     # (name, start, end, parent index, command, tag)
        self.counters = {}
        self.command = None
        self._stack = []
        self._active = set()
        self._undo = []
        self._gac_categories = {}
        self._built_tables = {}

    # -- recording ---------------------------------------------------------

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def _call(self, name, fn, args, kwargs, tag=None, after=None):
        if name in self._active:
            return fn(*args, **kwargs)
        self._active.add(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active.discard(name)
            self.spans[index] = (name, start, end, parent, self.command, tag)
        if after is not None:
            start = time.perf_counter()
            after(args, result)
            self.spans.append((BOOKKEEPING, start, time.perf_counter(), parent,
                               self.command, None))
        return result

    def _elim_sizes(self, args, result):
        m = args[0]
        self.count("elim_cells", m.nrows * m.ncols)
        self.count("elim_nnz", _nnz(m))
        size = max(m.nrows, m.ncols)
        if size < 32:
            self.count("elim_lt32")
        elif size >= 256:
            self.count("elim_ge256")

    def _after(self, name):
        if name == ELIM:
            return self._elim_sizes
        if name == "hypercube.totalize":
            return lambda args, r: self.count("totalize_dim", r.total_dim())
        if name == "twisted.tw_hom":
            return lambda args, r: self.count("tw_hom_dim", r.total_dim())
        if name == "io.dump":
            return lambda args, r: self.count("bytes_out", len(r))
        if name == "glue.gac":
            return self._register_gac
        return None

    def _register_gac(self, args, result):
        cat = result.category
        self._gac_categories[id(cat)] = weakref.ref(cat)
        self.count("gac_objects", len(cat.objects))

    def _wrapper(self, name, fn):
        after = self._after(name)
        tracer = self
        if name == ELIM:
            def wrapper(*args, **kwargs):
                return tracer._call(ELIM, fn, args, kwargs,
                                    tag=args[0].field.name, after=after)
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs, after=after)
        wrapper.__wrapped__ = fn
        return wrapper

    def _comp_matrix_wrapper(self, fn):
        tracer = self

        def comp_matrix(cat, a, b, c, i, j):
            built = tracer._built_tables.get(id(cat))
            if built is None or built[0]() is not cat:  # new, or id reused
                built = tracer._built_tables[id(cat)] = (weakref.ref(cat),
                                                         set())
            key = (a, b, c, i, j)
            if key in built[1]:
                return fn(cat, a, b, c, i, j)
            built[1].add(key)
            gac = tracer._gac_categories.get(id(cat))
            name = COMP_TABLE if gac is not None and gac() is cat \
                else COMP_MATRIX
            return tracer._call(name, fn, (cat, a, b, c, i, j), {})
        comp_matrix.__wrapped__ = fn
        return comp_matrix

    def _compose_wrapper(self, fn):
        counters = self.counters

        def compose(*args, **kwargs):
            counters[COMPOSE] = counters.get(COMPOSE, 0) + 1
            return fn(*args, **kwargs)
        compose.__wrapped__ = fn
        return compose

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every entry point, including each copied module global.

        Raises LookupError if an entry point is missing (renamed or moved):
        the wrappers no longer match the program, so the traced run is not
        correct.  The caller still has to uninstall().
        """
        for name, owner, attr in SPANNED:
            self._patch(owner, attr, lambda fn, n=name: self._wrapper(n, fn))
        self._patch("dgglue.dgcat:DgCategory", "comp_matrix",
                    self._comp_matrix_wrapper)
        self._patch("dgglue.dgcat:DgCategory", "compose",
                    self._compose_wrapper)

    def _patch(self, owner, attr, make):
        target = _resolve(owner)
        if target is None or attr not in vars(target):
            raise LookupError(f"entry point {owner}.{attr} not found")
        orig = vars(target)[attr]
        wrapped = make(orig)
        if isinstance(target, type):
            self._undo.append((target, attr, orig))
            setattr(target, attr, wrapped)
            return
        for mod in [m for k, m in sys.modules.items()
                    if k == "dgglue" or k.startswith("dgglue.")]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)
        self._gac_categories.clear()
        self._built_tables.clear()

    def write(self, path):
        """Write every recorded span as one JSON list per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = {}
    for i, (_, _, _, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters, own=None):
    """Per-layer metric values for one pass's spans and counters.

    `own` gives the spans' self times when they were computed over a longer
    list that these spans are a slice of.
    """
    if own is None:
        own = self_times(spans)
    calls = {}
    self_s = {}
    for span, t in zip(spans, own):
        name, tag = span[0], span[5]
        for key in (name, f"{name}@{tag}") if tag else (name,):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + t
    out = {}
    for metric, _, source, how in LAYER_METRICS:
        if how == "calls":
            out[metric] = calls.get(source, 0)
        elif how == "self":
            out[metric] = self_s.get(source, 0.0)
        else:
            out[metric] = counters.get(source, 0)
    return out
