"""Per-layer tracing of rhlab from outside the package.

The tracer replaces public functions of ``rhlab`` with wrappers that record a
span (id, parent id, name, start, end) and a call count.  A function is
replaced at every module namespace that binds it, because several modules
import names with ``from .x import f`` and call their own binding.  The scipy
solvers are wrapped only as ``rhlab.fluid`` sees them: its ``spla`` name is
pointed at a view of ``scipy.sparse.linalg`` whose ``spilu``, ``cg``,
``bicgstab`` and ``lgmres`` are wrapped, and each Krylov call gets an
observing ``callback`` that counts iterations.

Spans stay in memory; ``write_spans`` writes them out once the run is over.
``layer_metrics`` turns spans and counts into the per-layer metrics listed in
``LAYER_METRICS``.

Inclusive time of a name sums its outermost spans (a span nested in another
of the same name is not counted twice).  Self time is a span's duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg as spla

clock = time.perf_counter

# span name -> (module, attribute); attribute "Class.method" wraps a method.
SPANS = {
    "config.parse_config": ("rhlab.config", "parse_config"),
    "scenarios.build": ("rhlab.scenarios", "Scenario.build"),
    "runner.build_problem": ("rhlab.runner", "build_problem"),
    "runner.run_scenario": ("rhlab.runner", "run_scenario"),
    "picard.solve": ("rhlab.picard", "solve"),
    "picard.solve_slab_full": ("rhlab.picard", "solve_slab_full"),
    "picard.delta_continuation": ("rhlab.picard", "delta_continuation"),
    "picard.gamma_metric": ("rhlab.picard", "gamma_metric"),
    "fluid.continuity_step_fv": ("rhlab.fluid", "continuity_step_fv"),
    "fluid.continuity_step_characteristics":
        ("rhlab.fluid", "continuity_step_characteristics"),
    "fluid.heat_smooth": ("rhlab.fluid", "heat_smooth"),
    "fluid.momentum_step": ("rhlab.fluid", "momentum_step"),
    "transport.transport_step": ("rhlab.transport", "transport_step"),
    "transport.collision_decomposition":
        ("rhlab.transport", "collision_decomposition"),
    "transport.momentum_source": ("rhlab.transport", "momentum_source"),
    "transport.free_streaming_step": ("rhlab.transport", "free_streaming_step"),
    "physics.pressure": ("rhlab.physics", "pressure"),
    "physics.sigma_bm": ("rhlab.physics", "CoefficientModel.sigma_bm"),
    "physics.emission_bm": ("rhlab.physics", "CoefficientModel.emission_bm"),
    "grid.write_field_snapshot": ("rhlab.grid", "write_field_snapshot"),
    "norms.mixed_radiation_norm": ("rhlab.norms", "mixed_radiation_norm"),
    "norms.sobolev_norm": ("rhlab.norms", "sobolev_norm"),
    "diagnostics.blowup_monitor": ("rhlab.diagnostics", "blowup_monitor"),
    "diagnostics.farfield_bounds_check":
        ("rhlab.diagnostics", "farfield_bounds_check"),
}

# Leaf helpers called ~10^5 times per run get a count and no span: a span
# each would add overhead and memory without feeding any metric.
COUNTED = {
    "grid.pad_ghost": ("rhlab.grid", "pad_ghost"),
    "norms.lp_norm": ("rhlab.norms", "lp_norm"),
}

KRYLOV = ("cg", "bicgstab", "lgmres")

# metric -> unit, better; the order is the order of the report.
LAYER_METRICS = {
    "fluid.ilu_s": ("s", "lower"),
    "fluid.ilu_failures": ("count", "lower"),
    "fluid.krylov_s": ("s", "lower"),
    "fluid.krylov_iters": ("count", "lower"),
    "fluid.krylov_maxiter_hits": ("count", "lower"),
    "fluid.lgmres_fallbacks": ("count", "lower"),
    "fluid.momentum_calls": ("count", "lower"),
    "fluid.momentum_assembly_s": ("s", "lower"),
    "fluid.continuity_fv_s": ("s", "lower"),
    "fluid.continuity_char_s": ("s", "lower"),
    "fluid.heat_smooth_s": ("s", "lower"),
    "transport.substeps": ("count", "lower"),
    "transport.step_s": ("s", "lower"),
    "transport.collision_calls": ("count", "lower"),
    "transport.collision_s": ("s", "lower"),
    "transport.momentum_source_s": ("s", "lower"),
    "transport.free_stream_steps": ("count", "lower"),
    "transport.free_stream_s": ("s", "lower"),
    "physics.pressure_s": ("s", "lower"),
    "physics.sigma_bm_s": ("s", "lower"),
    "physics.emission_bm_s": ("s", "lower"),
    "physics.kernel_cache_hit_ratio": ("ratio", "higher"),
    "grid.pad_ghost_calls": ("count", "lower"),
    "grid.snapshot_files": ("count", "lower"),
    "grid.snapshot_bytes": ("bytes", "lower"),
    "grid.snapshot_write_s": ("s", "lower"),
    "norms.mixed_radiation_calls": ("count", "lower"),
    "norms.mixed_radiation_s": ("s", "lower"),
    "norms.sobolev_s": ("s", "lower"),
    "norms.lp_calls": ("count", "lower"),
    "diagnostics.monitor_s": ("s", "lower"),
    "diagnostics.farfield_s": ("s", "lower"),
    "picard.slabs": ("count", "lower"),
    "picard.halvings": ("count", "lower"),
    "picard.max_ratio": ("ratio", "lower"),
    "picard.sweeps": ("count", "lower"),
    "picard.useful_sweep_ratio": ("ratio", "higher"),
    "picard.gamma_metric_s": ("s", "lower"),
    "picard.self_s": ("s", "lower"),
    "picard.continuation_s": ("s", "lower"),
    "config.parse_s": ("s", "lower"),
    "scenarios.build_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class _SolverView:
    """``scipy.sparse.linalg`` as ``rhlab.fluid`` sees it under tracing."""

    def __init__(self, overrides: dict):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(spla, name)


class Tracer:
    """Installs the wrappers, records spans and counts, and undoes it all."""

    def __init__(self):
        self.spans = []          # (id, parent id or -1, name, start, end)
        self.counts = Counter()
        self.slab_ratios = []    # contraction ratios of accepted slabs
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if after is not None:
                after(result)
            return result
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _krylov(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            def callback(_xk):
                counts["fluid.krylov_iters"] += 1
            kwargs["callback"] = callback
            x, info = fn(*args, **kwargs)
            if info > 0:
                counts["fluid.krylov_maxiter_hits"] += 1
            return x, info
        return self._span(name, observed)

    def _after_slab(self, result):
        _, diag = result
        self.counts["picard.slabs"] += 1
        self.counts["picard.sweeps"] += diag.iterations
        self.counts["picard.halvings"] += diag.halvings
        self.slab_ratios.extend(diag.contraction_ratios)

    def _kernels(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def kernels(model, freq, ang):
            before = len(model._kernel_cache)
            out = fn(model, freq, ang)
            hit = len(model._kernel_cache) == before
            counts["physics.kernel_cache_hits" if hit
                   else "physics.kernel_cache_misses"] += 1
            return out
        return kernels

    # -- installation --------------------------------------------------------

    def _replace(self, module_name, attr, make):
        """Replace ``module.attr`` everywhere it is bound inside rhlab."""
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "rhlab" or name.startswith("rhlab.")) \
                    and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                self._undo.append((module, attr, original))

    def install(self):
        import rhlab  # noqa: F401  (loads every submodule)
        for name, (module, attr) in SPANS.items():
            after = self._after_slab if name == "picard.solve_slab_full" else None
            self._replace(module, attr,
                          lambda fn, n=name, a=after: self._span(n, fn, a))
        for name, (module, attr) in COUNTED.items():
            self._replace(module, attr, lambda fn, n=name: self._counted(n, fn))
        self._replace("rhlab.physics", "CoefficientModel.kernels", self._kernels)
        view = {"spilu": self._span("fluid.spilu", spla.spilu)}
        view.update({k: self._krylov("fluid." + k, getattr(spla, k)) for k in KRYLOV})
        fluid = sys.modules["rhlab.fluid"]
        self._undo.append((fluid, "spla", fluid.spla))
        fluid.spla = _SolverView(view)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")

    def _times(self):
        """Per-name (call count, inclusive time, self time)."""
        calls = Counter()
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        names = {}
        for sid, parent, name, start, end in self.spans:
            names[sid] = name
            if parent >= 0:
                child_time[parent] += end - start
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            self_time[name] += (end - start) - child_time[sid]
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if names[ancestor] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][1]
            if not nested:
                inclusive[name] += end - start
        return calls, inclusive, self_time

    def layer_metrics(self, snapshot_bytes: int) -> dict:
        """Every LAYER_METRICS value except trace.overhead_s."""
        calls, inc, own = self._times()
        c = self.counts
        kernel_calls = c["physics.kernel_cache_hits"] + c["physics.kernel_cache_misses"]
        gamma_calls = calls["picard.gamma_metric"]
        return {
            "fluid.ilu_s": inc["fluid.spilu"],
            "fluid.ilu_failures": c["fluid.spilu.raised"],
            "fluid.krylov_s": sum(inc["fluid." + k] for k in KRYLOV),
            "fluid.krylov_iters": c["fluid.krylov_iters"],
            "fluid.krylov_maxiter_hits": c["fluid.krylov_maxiter_hits"],
            "fluid.lgmres_fallbacks": calls["fluid.lgmres"],
            "fluid.momentum_calls": calls["fluid.momentum_step"],
            "fluid.momentum_assembly_s": own["fluid.momentum_step"],
            "fluid.continuity_fv_s": inc["fluid.continuity_step_fv"],
            "fluid.continuity_char_s": inc["fluid.continuity_step_characteristics"],
            "fluid.heat_smooth_s": inc["fluid.heat_smooth"],
            "transport.substeps": calls["transport.transport_step"],
            "transport.step_s": inc["transport.transport_step"],
            "transport.collision_calls": calls["transport.collision_decomposition"],
            "transport.collision_s": inc["transport.collision_decomposition"],
            "transport.momentum_source_s": inc["transport.momentum_source"],
            "transport.free_stream_steps": calls["transport.free_streaming_step"],
            "transport.free_stream_s": inc["transport.free_streaming_step"],
            "physics.pressure_s": inc["physics.pressure"],
            "physics.sigma_bm_s": inc["physics.sigma_bm"],
            "physics.emission_bm_s": inc["physics.emission_bm"],
            "physics.kernel_cache_hit_ratio":
                c["physics.kernel_cache_hits"] / kernel_calls if kernel_calls else 0.0,
            "grid.pad_ghost_calls": c["grid.pad_ghost"],
            "grid.snapshot_files": calls["grid.write_field_snapshot"],
            "grid.snapshot_bytes": snapshot_bytes,
            "grid.snapshot_write_s": inc["grid.write_field_snapshot"],
            "norms.mixed_radiation_calls": calls["norms.mixed_radiation_norm"],
            "norms.mixed_radiation_s": inc["norms.mixed_radiation_norm"],
            "norms.sobolev_s": inc["norms.sobolev_norm"],
            "norms.lp_calls": c["norms.lp_norm"],
            "diagnostics.monitor_s": inc["diagnostics.blowup_monitor"],
            "diagnostics.farfield_s": inc["diagnostics.farfield_bounds_check"],
            "picard.slabs": c["picard.slabs"],
            "picard.halvings": c["picard.halvings"],
            "picard.max_ratio": max(self.slab_ratios, default=0.0),
            "picard.sweeps": c["picard.sweeps"],
            "picard.useful_sweep_ratio":
                c["picard.sweeps"] / gamma_calls if gamma_calls else 0.0,
            "picard.gamma_metric_s": inc["picard.gamma_metric"],
            "picard.self_s": sum(own[n] for n in ("picard.solve",
                                                  "picard.solve_slab_full",
                                                  "picard.delta_continuation")),
            "picard.continuation_s": inc["picard.delta_continuation"],
            "config.parse_s": inc["config.parse_config"],
            "scenarios.build_s": inc["scenarios.build"],
            "runner.self_s": own["runner.run_scenario"],
        }
