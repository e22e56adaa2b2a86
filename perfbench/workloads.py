"""The four pinned rhlab workloads, their seeded perturbations, and the
stored reference outputs.

A workload is an rhlab run config.  The seed perturbs only the scenario's
shape parameters (an amplitude and a width), each by at most +-10% of its
nominal value; seed 0 is the nominal config itself.  The ranges are narrow on
purpose: every seed must keep the workload in the same regime (same step,
slab and sweep counts, same solver path) so that run-to-run spread measures
the machine and the program, not the draw.

Only the rendered config text reaches the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0
PERTURBATION = 0.10          # relative half-width of every seeded range
REFERENCE_RTOL = 1e-6        # tolerance on final phi, theta and mass
W1_MASS_DRIFT_MAX = 1e-11    # acceptance criterion 02

_PHYSICS = {"eos": "polytropic", "A": "1.0", "gamma": "2.0", "mu": "1.0",
            "lambda": "0.0", "c": "1.0", "q": "4.0"}

# name -> (config sections, perturbed scenario keys, tiny-size overrides)
WORKLOADS = {
    "w1-periodic1d": (
        {
            "grid": {"dim": "1", "cells": "128", "lengths": "1.0",
                     "boundary": "periodic"},
            "radiation": {"ordinates": "8",
                          "band_edges": "0.5, 1.0, 2.0, 3.0, 4.5"},
            "model": {"kind": "constant", "sigma0": "0.2", "kernel0": "0.05",
                      "emission0": "0.05"},
            "scenario": {"name": "smooth-bump", "amplitude": 0.3,
                         "width": 0.12},
            "run": {"t_final": "0.02", "slab_length": "0.01", "dt": "5e-4"},
        },
        ("amplitude", "width"),
        {"grid": {"cells": "32"}, "run": {"t_final": "0.005"}},
    ),
    "w2-farfield2d": (
        {
            "grid": {"dim": "2", "cells": "32, 32", "lengths": "1.0, 1.0",
                     "boundary": "farfield", "rho_bar": "1.0"},
            "radiation": {"ordinates": "14", "band_edges": "0.5, 1.0, 2.0"},
            "model": {"kind": "constant", "sigma0": "0.5", "kernel0": "0.1",
                      "emission0": "0.05"},
            "scenario": {"name": "smooth-bump", "amplitude": 0.3,
                         "width": 0.12},
            "run": {"t_final": "0.02", "slab_length": "0.01", "dt": "0.002"},
        },
        ("amplitude", "width"),
        {"grid": {"cells": "8, 8"}, "run": {"t_final": "0.004"}},
    ),
    "w3-vacuum3d": (
        {
            "grid": {"dim": "3", "cells": "16, 16, 16",
                     "lengths": "1.0, 1.0, 1.0", "boundary": "farfield",
                     "rho_bar": "1.0"},
            "radiation": {"ordinates": "8", "band_edges": "0.5, 1.0"},
            "model": {"kind": "constant", "sigma0": "0.5", "kernel0": "0.1",
                      "emission0": "0.05"},
            "scenario": {"name": "vacuum-plateau", "emission0": "0.05",
                         "vacuum_radius": 0.1, "transition_width": 0.15},
            "run": {"t_final": "0.002", "slab_length": "0.002",
                    "dt": "0.002"},
        },
        ("vacuum_radius", "transition_width"),
        {"grid": {"cells": "6, 6, 6"}},
    ),
    "w4-vacuum1d-continuation": (
        {
            "grid": {"dim": "1", "cells": "256", "lengths": "1.0",
                     "boundary": "farfield", "rho_bar": "0"},
            "radiation": {"ordinates": "8",
                          "band_edges": "0.5, 1.0, 2.0, 3.0, 4.5"},
            "model": {"kind": "compton", "D1": "1", "D2": "1", "v0": "1",
                      "theta": "1", "kernel0": "0.05"},
            "scenario": {"name": "vacuum-farfield", "amplitude": 1.0,
                         "width": 0.25},
            "run": {"t_final": "0.01", "slab_length": "0.01", "dt": "0.001",
                    "continuity": "characteristics",
                    "deltas": "1e-2, 1e-3, 1e-4"},
        },
        ("amplitude", "width"),
        {"grid": {"cells": "32"}, "run": {"t_final": "0.002",
                                          "slab_length": "0.002"}},
    ),
}

SIZES = ("full", "tiny")
# the (size, seeds) for which reference.json stores outputs, for every workload
REFERENCE_SEEDS = {"full": range(11), "tiny": (DEFAULT_SEED,)}

_REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _fmt(value) -> str:
    return value if isinstance(value, str) else format(value, ".17g")


def scenario_draw(workload: str, seed: int) -> dict:
    """The perturbed scenario parameters for one (workload, seed)."""
    sections, keys, _ = WORKLOADS[workload]
    nominal = {k: sections["scenario"][k] for k in keys}
    if seed == DEFAULT_SEED:
        return nominal
    rng = random.Random(f"{workload}:{seed}")
    return {k: v * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))
            for k, v in nominal.items()}


def render_config(workload: str, seed: int, size: str = "full") -> str:
    """INI text of the run config the program receives."""
    sections, _, tiny = WORKLOADS[workload]
    merged = {name: dict(body) for name, body in sections.items()}
    merged["physics"] = dict(_PHYSICS)
    merged["scenario"].update(scenario_draw(workload, seed))
    if size == "tiny":
        for name, body in tiny.items():
            merged[name].update(body)
    lines = []
    for name in ("grid", "radiation", "physics", "model", "scenario", "run"):
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {_fmt(v)}" for k, v in merged[name].items())
        lines.append("")
    return "\n".join(lines)


def close(a: float, b: float, rtol: float = REFERENCE_RTOL) -> bool:
    """True when ``a`` and ``b`` agree within ``rtol`` relative."""
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def reference_key(workload: str, seed: int, size: str) -> str:
    return f"{workload}/{size}/seed{seed}"


def load_references() -> dict:
    if not _REFERENCE_PATH.exists():
        return {}
    return json.loads(_REFERENCE_PATH.read_text(encoding="utf-8"))


def save_references(refs: dict) -> None:
    _REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
