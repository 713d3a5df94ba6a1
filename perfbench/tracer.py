"""Call tracing from outside the package, for the per-layer metrics.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper wherever rankforge holds the original: under the same
name in every loaded rankforge module (so `solve_mod` is traced when `rank`,
`weakpoly` or `nullsatz` calls it) and as a value of module-level dicts
(the acceptance registry).  A few class methods are patched on their class.
`Tracer.uninstall` puts every original back.

Each wrapped call is a span whose parent is the innermost open span of the
calling thread.  Chunk work that `ParallelContext.map_chunks` runs is a
span under that `map_chunks` call, in whatever thread runs it, and its own
time is credited to the function that called `map_chunks`.  A span's self
time is its duration minus the part of it that its children cover.  With
worker threads, self times of one name add up over the threads.

Counters that need no timing (`MultiPoly.__init__`, `Budget.charge`,
`Box.digits`) are counted without a span.  Spans are folded into totals per
name as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "domain",
    "runtime",
    "poly",
    "linalg",
    "analytic",
    "rank",
    "geometry",
    "weakpoly",
    "explicit",
    "nullsatz",
    "acceptance",
)

# rref_mod inputs of at most this many cells count as the tiny-system regime.
SMALL_CELLS = 10**4


class Span:
    __slots__ = ("name", "parent", "children", "in_rank", "dur", "own")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.in_rank = name.startswith("rank.") or (parent is not None and parent.in_rank)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(int)
        self.originals: dict[str, object] = {}  # span or counter name -> wrapped function
        self.hooks: dict[str, object] = {}  # span name -> counter update run after the call
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, object, object]] = []
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, parent: Span | None) -> Span:
        span = Span(name, parent)
        self._local.span = span
        return span

    def _close(self, span: Span, restore: Span | None, t0: float, calls: int = 1) -> None:
        t1 = perf_counter()
        self._local.span = restore
        span.dur = t1 - t0
        span.own = span.dur - covered(span.children)
        with self._lock:
            self.calls[span.name] += calls
            self.self_s[span.name] += span.own
            if span.parent is not None:
                span.parent.children.append((t0, t1))

    def _add(self, deltas) -> None:
        with self._lock:
            for key, value in deltas:
                self.count[key] += value

    def _wrap(self, name: str, fn, after=None):
        """Span around fn; after(span, bound_arguments, result) yields counter deltas."""
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = getattr(self._local, "span", None)
            span = self._open(name, parent)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, parent, t0)
            if after is not None:
                self._add(after(span, sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def _wrap_map_chunks(self, fn):
        @functools.wraps(fn)
        def map_chunks(ctx, chunk_fn, total):
            if not self.enabled:
                return fn(ctx, chunk_fn, total)
            parent = getattr(self._local, "span", None)
            owner = parent.name if parent is not None else "runtime.map_chunks"
            caller = threading.get_ident()
            runners: list[int] = []

            def chunk(lo, hi):
                restore = getattr(self._local, "span", None)
                mine = self._open(owner, span)
                t0 = perf_counter()
                try:
                    return chunk_fn(lo, hi)
                finally:
                    self._close(mine, restore, t0, calls=0)
                    runners.append(threading.get_ident())

            span = self._open("runtime.map_chunks", parent)
            t0 = perf_counter()
            try:
                return fn(ctx, chunk, total)
            finally:
                self._close(span, parent, t0)
                self._add(
                    [
                        ("runtime.map_chunks.chunks", len(runners)),
                        ("runtime.map_chunks.pooled_calls", int(any(t != caller for t in runners))),
                    ]
                )

        return map_chunks

    def _wrap_charge(self, fn, refusal):
        @functools.wraps(fn)
        def charge(budget, estimate, *args, **kwargs):
            if not self.enabled:
                return fn(budget, estimate, *args, **kwargs)
            self._add([("runtime.budget.charges", 1), ("runtime.budget.estimated_steps", int(estimate))])
            try:
                return fn(budget, estimate, *args, **kwargs)
            except refusal:
                self._add([("runtime.budget.refusals", 1)])
                raise

        return charge

    def _wrap_init(self, fn):
        @functools.wraps(fn)
        def init(*args, **kwargs):
            if self.enabled:
                self._add([("poly.MultiPoly.constructed", 1)])
            return fn(*args, **kwargs)

        return init

    def _wrap_digits(self, fn):
        """Count the bytes of every digit table a Box builds (a new array object)."""

        @functools.wraps(fn)
        def digits(bx):
            table = fn(bx)
            if self.enabled:
                with self._lock:
                    seen = self._tables.get(bx)
                    if seen is None or seen() is not table:
                        self._tables[bx] = weakref.ref(table)
                        self.count["domain.digits.bytes"] += table.nbytes
            return table

        return digits

    # -- installation --------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"rankforge.{layer}") for layer in LAYERS}
        package = [m for n, m in sorted(sys.modules.items()) if n == "rankforge" or n.startswith("rankforge.")]
        errors = importlib.import_module("rankforge.errors")
        self.hooks = hooks = _hooks(mods)
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrapper = self._wrap(name, fn, hooks.get(name))
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._set(value, k, wrapper)

        Box = mods["domain"].Box
        ctx = mods["runtime"].ParallelContext
        budget = mods["runtime"].Budget
        poly = mods["poly"].MultiPoly
        subspace = mods["geometry"].AffineSubspace
        methods = [
            (Box, "eval_poly", "domain.eval_poly", lambda f: self._wrap("domain.eval_poly", f, hooks["domain.eval_poly"])),
            (Box, "subspace_points", "domain.subspace_points", lambda f: self._wrap("domain.subspace_points", f)),
            (Box, "digits", "domain.digits", self._wrap_digits),
            (ctx, "map_chunks", "runtime.map_chunks", self._wrap_map_chunks),
            (budget, "charge", "runtime.budget.charges", lambda f: self._wrap_charge(f, errors.BudgetExceededError)),
            (poly, "__init__", "poly.MultiPoly.constructed", self._wrap_init),
            (poly, "compose", "poly.compose", lambda f: self._wrap("poly.compose", f)),
        ]
        for cls, attr, name, make in methods:
            self.originals[name] = cls.__dict__[attr]
            self._set(cls, attr, make(cls.__dict__[attr]))
        fn = subspace.__dict__["from_span"].__func__
        self.originals["geometry.from_span"] = fn
        self._set(subspace, "from_span", staticmethod(self._wrap("geometry.from_span", fn)))
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()


def _hooks(mods) -> dict:
    """Counter updates computed from a finished call, by span name."""
    linalg = mods["linalg"]
    count_subspaces = mods["geometry"].count_affine_subspaces

    def eval_poly(span, a, result):
        points = len(result)
        return [("domain.eval_poly.points", points), ("domain.eval_poly.term_points", points * len(a["P"].terms))]

    def rref_mod(span, a, result):
        rows, cols = result[0].shape
        cells = rows * cols
        if cells <= SMALL_CELLS:
            return [("linalg.rref_mod.small.calls", 1), ("linalg.rref_mod.small.self_s", span.own)]
        return [
            ("linalg.rref_mod.large.calls", 1),
            ("linalg.rref_mod.large.self_s", span.own),
            ("linalg.rref_mod.large.cells", cells),
        ]

    def solve_mod(span, a, result):
        rows = len(a["A"])
        feasible = int(result[0] is not None)
        tracked = a.get("want_certificate", True) and rows <= linalg.CERTIFICATE_ROW_LIMIT
        out = [("linalg.solve_mod.feasible", feasible), ("linalg.solve_mod.tracked_bytes", rows * rows * 8 if tracked else 0)]
        if span.in_rank:
            out += [("rank.solves", 1), ("rank.feasible", feasible)]
        return out

    def nullspace_mod(span, a, result):
        if span.parent is not None and span.parent.name == "weakpoly.weak_space":
            return [("weakpoly.weak_space.rows", len(a["A"]))]
        return []

    def enumerate_subspaces_in(span, a, result):
        X = a["X"]
        return [
            ("geometry.enumerate_subspaces_in.candidates", count_subspaces(X.field, X.n, a["m"])),
            ("geometry.enumerate_subspaces_in.found", len(result)),
        ]

    def extend_by_solve(span, a, result):
        return [("weakpoly.extend_by_solve.infeasible", int(not result.feasible))]

    def run_criterion(span, a, result):
        return [(f"acceptance.{a['name']}.wall_s", span.dur)]

    return {
        "domain.eval_poly": eval_poly,
        "linalg.rref_mod": rref_mod,
        "linalg.solve_mod": solve_mod,
        "linalg.nullspace_mod": nullspace_mod,
        "geometry.enumerate_subspaces_in": enumerate_subspaces_in,
        "weakpoly.extend_by_solve": extend_by_solve,
        "acceptance.run_criterion": run_criterion,
    }


def layer_metrics(t: Tracer, criteria) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from one traced run."""
    calls, own, c = t.calls, t.self_s, t.count
    m = {
        "domain.eval_poly.calls": calls["domain.eval_poly"],
        "domain.eval_poly.points": c["domain.eval_poly.points"],
        "domain.eval_poly.term_points": c["domain.eval_poly.term_points"],
        "domain.eval_poly.self_s": own["domain.eval_poly"],
        "domain.digits.bytes": c["domain.digits.bytes"],
        "domain.subspace_points.self_s": own["domain.subspace_points"],
        "runtime.map_chunks.calls": calls["runtime.map_chunks"],
        "runtime.map_chunks.chunks": c["runtime.map_chunks.chunks"],
        "runtime.map_chunks.pooled_calls": c["runtime.map_chunks.pooled_calls"],
        "runtime.map_chunks.self_s": own["runtime.map_chunks"],
        "runtime.budget.charges": c["runtime.budget.charges"],
        "runtime.budget.estimated_steps": c["runtime.budget.estimated_steps"],
        "runtime.budget.refusals": c["runtime.budget.refusals"],
        "poly.multilinear_form.calls": calls["poly.multilinear_form"],
        "poly.multilinear_form.self_s": own["poly.multilinear_form"],
        "poly.compose.self_s": own["poly.compose"],
        "poly.MultiPoly.constructed": c["poly.MultiPoly.constructed"],
        "linalg.rref_mod.small.calls": c["linalg.rref_mod.small.calls"],
        "linalg.rref_mod.small.self_s": c["linalg.rref_mod.small.self_s"],
        "linalg.rref_mod.large.calls": c["linalg.rref_mod.large.calls"],
        "linalg.rref_mod.large.self_s": c["linalg.rref_mod.large.self_s"],
        "linalg.rref_mod.large.cells": c["linalg.rref_mod.large.cells"],
        "linalg.solve_mod.calls": calls["linalg.solve_mod"],
        "linalg.solve_mod.feasible": c["linalg.solve_mod.feasible"],
        "linalg.solve_mod.tracked_bytes": c["linalg.solve_mod.tracked_bytes"],
        "rank.solves": c["rank.solves"],
        "rank.hit_ratio": c["rank.feasible"] / c["rank.solves"] if c["rank.solves"] else 0.0,
        "geometry.enumerate_subspaces_in.calls": calls["geometry.enumerate_subspaces_in"],
        "geometry.enumerate_subspaces_in.self_s": own["geometry.enumerate_subspaces_in"],
        "geometry.enumerate_subspaces_in.candidates": c["geometry.enumerate_subspaces_in.candidates"],
        "geometry.enumerate_subspaces_in.found": c["geometry.enumerate_subspaces_in.found"],
        "geometry.from_span.calls": calls["geometry.from_span"],
        "weakpoly.weak_space.self_s": own["weakpoly.weak_space"],
        "weakpoly.weak_space.rows": c["weakpoly.weak_space.rows"],
        "weakpoly.restriction_space.self_s": own["weakpoly.restriction_space"],
        "weakpoly.extend_by_solve.calls": calls["weakpoly.extend_by_solve"],
        "weakpoly.extend_by_solve.self_s": own["weakpoly.extend_by_solve"],
        "weakpoly.extend_by_solve.infeasible": c["weakpoly.extend_by_solve.infeasible"],
        "explicit.explicit_extension.calls": calls["explicit.explicit_extension"],
        "explicit.explicit_extension.self_s": own["explicit.explicit_extension"],
        "nullsatz.ideal_membership.self_s": own["nullsatz.ideal_membership"],
        "nullsatz.vanishing_vs_ideal_dims.self_s": own["nullsatz.vanishing_vs_ideal_dims"],
    }
    for name in ("schmidt_rank", "partition_rank"):
        m[f"rank.{name}.calls"] = calls[f"rank.{name}"]
        m[f"rank.{name}.self_s"] = own[f"rank.{name}"]
    for name in ("enumerate_points", "census_extension", "kappa_fibers"):
        m[f"geometry.{name}.self_s"] = own[f"geometry.{name}"]
    for name in ("histogram_of_poly", "gowers_norm", "gowers_norm_direct", "value_distribution", "count_points_char_sum"):
        m[f"analytic.{name}.self_s"] = own[f"analytic.{name}"]
    m["analytic.histogram_of_poly.calls"] = calls["analytic.histogram_of_poly"]
    for name in criteria:
        m[f"acceptance.{name}.wall_s"] = c[f"acceptance.{name}.wall_s"]
    return m
