"""Spans around gerbekit's public functions, installed from outside the
program.

`Tracer.install()` replaces every binding of each wrapped function in every
loaded `gerbekit.*` module (modules import functions by name, and `SUITES`
holds the suite functions in a dict), and patches the listed methods on
their classes.  `uninstall()` puts every original object back.

The kernels are hot (hundreds of thousands of calls per pass), so a span is
not stored: each span adds its calls, duration and self time to an
aggregate keyed by (span name, parent span name).  Only top-level spans
are kept one by one.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute).  "Class.method" patches the class.
# `modform.eta` and `modform.theta_lattice` wrap the evaluators behind the
# public `eta` / `theta_lattice`: those are one-line forwards, and the CLI
# calls the evaluators directly.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("trigform.init", "trigform", "TrigForm.__init__"),
    ("trigform.add", "trigform", "TrigForm.__add__"),
    ("trigform.scale", "trigform", "TrigForm.__rmul__"),
    ("trigform.d", "trigform", "TrigForm.d"),
    ("trigform.wedge", "trigform", "TrigForm.wedge"),
    ("trigform.integrate_cell", "trigform", "TrigForm.integrate_cell"),
    ("covers.supports", "covers", "Cover.supports"),
    ("covers.nonempty_tuples", "covers", "Cover.nonempty_tuples"),
    ("covers.refine", "covers", "refine"),
    ("covers.build", "covers", "make_circle_cover"),
    ("covers.build", "covers", "make_torus_cover"),
    ("covers.build", "covers", "product_cover"),
    ("covers.build", "covers", "make_circle_decomposition"),
    ("covers.build", "covers", "make_torus_hex_decomposition"),
    ("covers.two_subordinations", "covers", "two_subordinations"),
    ("cochain.component", "cochain", "DiffCochain.component"),
    ("cochain.materialize", "cochain", "DiffCochain.materialize"),
    ("cochain.max_defect", "cochain", "DiffCochain.max_defect"),
    ("cochain.total_d", "cochain", "total_d"),
    ("cochain.homotopy_k", "cochain", "homotopy_k"),
    ("cochain.restrict", "cochain", "restrict"),
    ("holonomy.holonomy", "holonomy", "holonomy"),
    ("holonomy.classify", "cochain", "classify_flat_2cocycle"),
    ("fiberint.t_symbol_form", "fiberint", "t_symbol_form"),
    ("fiberint.integrate_fiber_cell", "fiberint", "integrate_fiber_cell"),
    ("fiberint.pushforward", "fiberint", "pushforward"),
    ("fiberint.pushforward_homotopy", "fiberint", "pushforward_homotopy"),
    ("liecs.d", "liecs", "LieValuedForm.d"),
    ("liecs.graded_bracket", "liecs", "graded_bracket"),
    ("liecs.pairing", "liecs", "pairing"),
    ("liecs.cs_form", "liecs", "cs_form"),
    ("liecs.gauge_variation_defect", "liecs", "gauge_variation_defect"),
    ("lattice.builtin", "lattice", "builtin"),
    ("lattice.enumerate_by_norm", "lattice", "enumerate_by_norm"),
    ("lattice.coxeter_from_roots", "lattice", "coxeter_from_roots"),
    ("modform.eta", "modform", "_eta_with_terms"),
    ("modform.eta_multiplier", "modform", "eta_multiplier"),
    ("modform.theta_lattice", "modform", "_theta_with_terms"),
    ("modform.theta_lattice_enum", "modform", "theta_lattice_enum"),
    ("modform.factor", "modform", "factor"),
    ("modform.transform_defect", "modform", "transform_defect"),
    ("modform.cocycle_defect", "modform", "cocycle_defect"),
    ("serialize.load_cochain", "serialize", "load_cochain"),
    ("serialize.save_cochain", "serialize", "save_cochain"),
    ("serialize.from_id", "serialize", "cover_from_id"),
    ("serialize.from_id", "serialize", "decomposition_from_id"),
    ("suites.random_alternating_cochain", "suites", "random_alternating_cochain"),
    ("suites.random_cocycle", "suites", "random_cocycle"),
    ("suites.suite", "suites", "suite_cochain"),
    ("suites.suite", "suites", "suite_holonomy"),
    ("suites.suite", "suites", "suite_pushforward"),
    ("suites.suite", "suites", "suite_chernsimons"),
    ("suites.suite", "suites", "suite_lattice"),
    ("suites.suite", "suites", "suite_modular"),
    ("suites.suite", "suites", "suite_crossmodule"),
    ("cli.run_suite", "cli", "run_suite"),
    ("cli.main", "cli", "main"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Aggregated spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.stack: List[list] = []        # [name, time covered by children]
        self.agg: Dict[Tuple[str, str], list] = {}   # -> [calls, dur, self]
        self.counts: Dict[str, int] = defaultdict(int)
        self.roots: List[Tuple[str, float, float]] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._hooks = {
            "trigform.init": (self._terms_in, None),
            "cochain.component": (self._memo, None),
            "cochain.materialize": (None, self._materialized),
            "fiberint.t_symbol_form": (None, self._t_symbol),
            "lattice.enumerate_by_norm": (None, self._enumerated),
            "serialize.load_cochain": (self._load_bytes, None),
            "serialize.save_cochain": (None, self._save_bytes),
        }

    # -- counters measured at span boundaries ------------------------------

    def _terms_in(self, args, kwargs):
        terms = _arg(args, kwargs, 3, "terms")
        self.counts["trigform.init.terms_in"] += len(terms) if terms else 0

    def _memo(self, args, kwargs):
        # mirrors DiffCochain.component: only in-range lookups without a
        # repeated index on a cochain with a component_fn use the memo
        om, idx = args[0], tuple(_arg(args, kwargs, 1, "idx"))
        if om.component_fn is None or len(set(idx)) != len(idx):
            return
        deg = om.level_degree(len(idx))
        if 0 <= deg <= om.ambient_dim:
            self.counts["cochain.component.memo_lookups"] += 1
            self.counts["cochain.component.memo_hits"] += idx in om.components

    def _materialized(self, args, kwargs, result):
        self.counts["cochain.materialized_components"] += len(result.components)

    def _t_symbol(self, args, kwargs, result):
        # a zero symbol is skipped by the caller: wasted work
        self.counts["fiberint.t_symbol_nonzero"] += bool(result.terms)

    def _enumerated(self, args, kwargs, result):
        self.counts["lattice.vectors_enumerated"] += sum(
            len(v) for v in result.values())

    def _load_bytes(self, args, kwargs):
        self.counts["serialize.load_cochain.bytes"] += _file_size(
            _arg(args, kwargs, 0, "path"))

    def _save_bytes(self, args, kwargs, result):
        self.counts["serialize.save_cochain.bytes"] += _file_size(
            _arg(args, kwargs, 0, "path"))

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        pre, post = self._hooks.get(name, (None, None))
        stack, agg, roots = self.stack, self.agg, self.roots
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    roots.append((name, t0, t1))
                a = agg.get((name, parent))
                if a is None:
                    a = agg[name, parent] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
            if post is not None:
                post(args, kwargs, result)
            return result

        span.__perfbench_span__ = name
        return span

    def install(self) -> None:
        import gerbekit.cli  # noqa: F401  (loads every gerbekit module)
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "gerbekit" or n.startswith("gerbekit.")]
        for name, mod, attr in SPANS:
            module = sys.modules[f"gerbekit.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig, False))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig, False))
                        setattr(m, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._patches.append((val, k, orig, True))
                                val[k] = wrapped

    def uninstall(self) -> None:
        for holder, key, orig, is_item in reversed(self._patches):
            if is_item:
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def dump(self) -> Dict:
        return {"aggregates": [[n, p, *v] for (n, p), v in sorted(self.agg.items())],
                "counts": dict(sorted(self.counts.items())),
                "roots": self.roots}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: Dict, wall_s: float,
                  overhead_frac: float) -> Dict[str, Tuple[float, str]]:
    """The PER_LAYER metrics from a trace dump.  `X.calls` and `X.self_s`
    sum span X over its parents; the rest come from the counters."""
    totals: Dict[str, List[float]] = {}       # name -> [calls, self time]
    for name, _parent, calls, _dur, self_s in dump["aggregates"]:
        t = totals.setdefault(name, [0, 0.0])
        t[0] += calls
        t[1] += self_s
    counts = dump["counts"]
    out: Dict[str, Tuple[float, str]] = {}
    for metric, unit in PER_LAYER:
        span, _, what = metric.rpartition(".")
        if what == "calls":
            out[metric] = (totals.get(span, [0, 0.0])[0], unit)
        elif what == "self_s":
            out[metric] = (totals.get(span, [0, 0.0])[1], unit)
        elif metric == "cochain.component.memo_hit_frac":
            out[metric] = (_ratio(counts.get("cochain.component.memo_hits", 0),
                                  counts.get("cochain.component.memo_lookups", 0)),
                           unit)
        elif metric == "fiberint.t_symbol_nonzero_frac":
            out[metric] = (_ratio(counts.get("fiberint.t_symbol_nonzero", 0),
                                  totals.get("fiberint.t_symbol_form", [0, 0.0])[0]),
                           unit)
        elif metric == "trace.overhead_frac":
            out[metric] = (overhead_frac, unit)
        elif metric == "trace.uncovered_s":
            covered = sum(t1 - t0 for _, t0, t1 in dump["roots"])
            out[metric] = (wall_s - covered, unit)
        else:
            out[metric] = (counts.get(metric, 0), unit)
    return out


PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("trigform.init.calls", "count"),
    ("trigform.init.self_s", "s"),
    ("trigform.init.terms_in", "count"),
    ("trigform.add.calls", "count"),
    ("trigform.add.self_s", "s"),
    ("trigform.scale.calls", "count"),
    ("trigform.scale.self_s", "s"),
    ("trigform.d.calls", "count"),
    ("trigform.d.self_s", "s"),
    ("trigform.wedge.calls", "count"),
    ("trigform.wedge.self_s", "s"),
    ("trigform.integrate_cell.calls", "count"),
    ("trigform.integrate_cell.self_s", "s"),
    ("covers.supports.calls", "count"),
    ("covers.supports.self_s", "s"),
    ("covers.nonempty_tuples.calls", "count"),
    ("covers.nonempty_tuples.self_s", "s"),
    ("covers.refine.self_s", "s"),
    ("covers.build.self_s", "s"),
    ("covers.two_subordinations.self_s", "s"),
    ("cochain.component.calls", "count"),
    ("cochain.component.self_s", "s"),
    ("cochain.component.memo_hit_frac", "ratio"),
    ("cochain.total_d.calls", "count"),
    ("cochain.homotopy_k.calls", "count"),
    ("cochain.restrict.calls", "count"),
    ("cochain.max_defect.calls", "count"),
    ("cochain.max_defect.self_s", "s"),
    ("cochain.materialized_components", "count"),
    ("holonomy.holonomy.calls", "count"),
    ("holonomy.holonomy.self_s", "s"),
    ("holonomy.classify.calls", "count"),
    ("fiberint.t_symbol_form.calls", "count"),
    ("fiberint.t_symbol_form.self_s", "s"),
    ("fiberint.t_symbol_nonzero_frac", "ratio"),
    ("fiberint.integrate_fiber_cell.calls", "count"),
    ("fiberint.integrate_fiber_cell.self_s", "s"),
    ("fiberint.pushforward.calls", "count"),
    ("fiberint.pushforward_homotopy.calls", "count"),
    ("liecs.d.calls", "count"),
    ("liecs.d.self_s", "s"),
    ("liecs.graded_bracket.calls", "count"),
    ("liecs.graded_bracket.self_s", "s"),
    ("liecs.pairing.calls", "count"),
    ("liecs.pairing.self_s", "s"),
    ("liecs.cs_form.self_s", "s"),
    ("liecs.gauge_variation_defect.self_s", "s"),
    ("lattice.builtin.calls", "count"),
    ("lattice.builtin.self_s", "s"),
    ("lattice.enumerate_by_norm.calls", "count"),
    ("lattice.enumerate_by_norm.self_s", "s"),
    ("lattice.vectors_enumerated", "count"),
    ("lattice.coxeter_from_roots.self_s", "s"),
    ("modform.eta.calls", "count"),
    ("modform.eta.self_s", "s"),
    ("modform.eta_multiplier.calls", "count"),
    ("modform.eta_multiplier.self_s", "s"),
    ("modform.theta_lattice.calls", "count"),
    ("modform.theta_lattice.self_s", "s"),
    ("modform.theta_lattice_enum.calls", "count"),
    ("modform.theta_lattice_enum.self_s", "s"),
    ("modform.factor.calls", "count"),
    ("modform.factor.self_s", "s"),
    ("modform.transform_defect.self_s", "s"),
    ("modform.cocycle_defect.self_s", "s"),
    ("serialize.load_cochain.calls", "count"),
    ("serialize.load_cochain.self_s", "s"),
    ("serialize.load_cochain.bytes", "B"),
    ("serialize.save_cochain.calls", "count"),
    ("serialize.save_cochain.self_s", "s"),
    ("serialize.save_cochain.bytes", "B"),
    ("serialize.from_id.self_s", "s"),
    ("suites.random_alternating_cochain.calls", "count"),
    ("suites.random_alternating_cochain.self_s", "s"),
    ("suites.random_cocycle.calls", "count"),
    ("suites.suite.self_s", "s"),
    ("cli.run_suite.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_s", "s"),
)

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = tuple(m for m, unit in PER_LAYER
              if unit in ("count", "B")
              or (unit == "ratio" and m != "trace.overhead_frac"))
