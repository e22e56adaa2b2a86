"""Run orchestration and output writing.

``build_problem`` (defined in ``rhlab.config``, bound here too) builds every
object a run uses; the runner only runs and writes.  A run executes the
chained-slab solve for the configured scenario and writes: the snapshots
(every ``snapshot_stride``-th state, as one raw float64 ``.npy`` stack per
field kind: ``t``, ``rho``, ``u`` with its component axis, and the radiation
energy ``Er``), the monitor CSV (time, phi, theta, phi components, mass, min
rho, flags), the fixed-point diagnostics CSV (slab, k, gamma, ratio), and a
machine-readable summary.  The text outputs print floats with 17 significant
digits; given the same config every output is byte-identical across
invocations.
"""

from __future__ import annotations

import os

import numpy as np

from .config import Problem, RunConfig, build_problem, serialize_config
from .diagnostics import (blowup_monitor, compatibility_check, farfield_bounds_check,
                          mass_total)
from .grid import integrate_radiation, write_field_snapshot
from .physics import validate_kernel_integrability, validate_sigma_regularity
from .picard import Trajectory, _clipped_slab, delta_continuation, solve

OUTPUT_DIR_ENV = "RHLAB_OUTPUT_DIR"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _emit_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with deterministic key order and 17-significant-
    digit floats (json.dumps cannot format floats)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_emit_json(obj[k], indent + 1)}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return f'"{float(obj)}"'
        return _fmt(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_emit_json(obj) + "\n")


def _output_dir(cfg: RunConfig) -> str:
    return os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)


def _write_snapshots(traj: Trajectory, prob: Problem, outdir: str, stride: int) -> None:
    """Every ``stride``-th state: its time in ``t.npy`` and one stack per field
    kind in ``rho.npy``, ``u.npy`` and ``Er.npy``."""
    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    grids = prob.grids
    states = traj.states[::stride]
    np.save(os.path.join(snapdir, "t.npy"), np.array(traj.times[::stride], dtype=float),
            allow_pickle=False)
    stacks = {"rho": [s.rho for s in states], "u": [s.u for s in states],
              "Er": [integrate_radiation(s.I, grids.freq, grids.ang) for s in states]}
    for name, fields in stacks.items():
        write_field_snapshot(os.path.join(snapdir, f"{name}.npy"), np.stack(fields),
                             grids.spatial)


def _write_monitor_csv(path, report, masses, min_rhos) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,phi,theta,phi_I,phi_rho,phi_u,mass,min_rho,flags\n")
        for i, t in enumerate(report.times):
            ci = report.phi_components[i]
            flags = ";".join(f for f, j in zip(report.flags, report.flag_snapshots)
                             if j == i)
            fh.write(",".join([_fmt(t), _fmt(report.phi[i]), _fmt(report.theta[i]),
                               _fmt(ci[0]), _fmt(ci[1]), _fmt(ci[2]),
                               _fmt(masses[i]), _fmt(min_rhos[i]), flags]) + "\n")


def _write_picard_csv(path, diagnostics) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("slab,k,gamma,ratio\n")
        for s, diag in enumerate(diagnostics):
            ratios = diag.contraction_ratios
            for k, gamma in enumerate(diag.gamma_history, start=1):
                ratio = _fmt(ratios[k - 2]) if 0 <= k - 2 < len(ratios) else ""
                fh.write(f"{s},{k},{_fmt(gamma)},{ratio}\n")


def run_scenario(cfg: RunConfig) -> dict:
    """Execute the configured run and write all artifacts; returns the summary."""
    prob = build_problem(cfg)
    outdir = _output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    grids, grid = prob.grids, prob.grids.spatial

    traj = solve(prob.state0, prob.model, grids, prob.visc, prob.eos, prob.consts,
                 prob.slab, cfg.t_final)
    continuation = None
    if prob.schedule is not None:
        # the first slab of the main solve, cut at t_final as ``solve`` cuts it
        _, continuation = delta_continuation(
            prob.state0, prob.model, grids, prob.visc, prob.eos, prob.consts,
            _clipped_slab(prob.slab, prob.slab.slab_length, cfg.t_final), prob.schedule)

    report = blowup_monitor(traj, grids, prob.settings)
    masses = [mass_total(s.rho, grid) for s in traj.states]
    min_rhos = [float(np.min(s.rho)) for s in traj.states]
    min_I = min(float(np.min(s.I)) for s in traj.states)

    ff = None
    if grid.boundary == "farfield" and grid.rho_bar > 0:
        ff = farfield_bounds_check(traj, grids, 0.35 * max(grid.lengths))

    _write_snapshots(traj, prob, outdir, cfg.snapshot_stride)
    _write_monitor_csv(os.path.join(outdir, "monitor.csv"), report, masses, min_rhos)
    _write_picard_csv(os.path.join(outdir, "picard.csv"), traj.diagnostics)

    drift = abs(masses[-1] - masses[0]) / max(abs(masses[0]), 1e-300)
    phi_I, phi_rho, phi_u = report.phi_components[-1]
    summary = {
        "scenario": cfg.scenario,
        "t_final": cfg.t_final,
        "snapshots": len(traj.states),
        "final": {
            "phi": report.phi[-1],
            "theta": report.theta[-1],
            "mass": masses[-1],
            "min_rho": min_rhos[-1],
            "radiation_norm": phi_I,
            "density_norm": phi_rho,
            "velocity_seminorm": phi_u,
        },
        "conservation": {
            "initial_mass": masses[0],
            "final_mass": masses[-1],
            "relative_drift": drift,
        },
        "positivity": {
            "min_rho": min(min_rhos),
            "min_intensity": min_I,
            "ok": min(min_rhos) >= 0.0 and min_I >= 0.0,
        },
        "picard": {
            "slabs": len(traj.diagnostics),
            "total_iterations": sum(d.iterations for d in traj.diagnostics),
            "all_converged": all(d.converged for d in traj.diagnostics),
            "max_ratio": max((r for d in traj.diagnostics
                              for r in d.contraction_ratios), default=0.0),
        },
        "monitor": {
            "max_phi": report.max_phi,
            "phi_cap": report.phi_cap,
            "flags": list(report.flags),
        },
    }
    if ff is not None:
        summary["farfield_bounds"] = {
            "applicable": ff.applicable,
            "passed": ff.passed,
            "first_violation": ff.first_violation,
        }
    if continuation is not None:
        summary["delta_continuation"] = {
            "deltas": list(continuation.deltas),
            "differences": list(continuation.differences),
            "monotone": continuation.monotone,
        }
    write_json(os.path.join(outdir, "summary.json"), summary)
    with open(os.path.join(outdir, "config.echo"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    return summary


def check_compat(cfg: RunConfig) -> dict:
    """Compatibility-condition verdict for the configured initial data."""
    prob = build_problem(cfg)
    st = prob.state0
    report = compatibility_check(st.I, st.rho, st.u, prob.eos, prob.visc,
                                 prob.model, prob.grids, prob.consts)
    result = {
        "scenario": cfg.scenario,
        "verdict": report.verdict,
        "g_l2": report.g_l2,
        "last_ratio": report.last_ratio,
        "refinement_trace": [list(entry) for entry in report.refinement_trace],
    }
    outdir = _output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "compatibility.json"), result)
    return result


def validate_model(cfg: RunConfig) -> dict:
    """Kernel-integrability and coefficient-regularity reports for the model."""
    prob = build_problem(cfg)
    grids = prob.grids
    kern = validate_kernel_integrability(prob.model, grids.freq, grids.ang)
    st = prob.state0
    reg = validate_sigma_regularity(prob.model, st.rho, np.zeros_like(st.rho),
                                    prob.settings, grids)

    def entries(report):
        return [{"name": e.name, "value": e.value, "bound": e.bound,
                 "passed": e.passed,
                 "location": list(e.location) if e.location else None}
                for e in report.entries]

    result = {
        "kernel_integrability": {
            "passed": kern.passed,
            "entries": entries(kern),
            "suggested_scale": kern.suggested_scale,
        },
        "sigma_regularity": {
            "passed": reg.passed,
            "entries": entries(reg),
            "suggested_scale": reg.suggested_scale,
        },
    }
    outdir = _output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "validation.json"), result)
    return result
