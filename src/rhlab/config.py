"""Flat INI-style run configuration: parsing with per-line diagnostics,
validation of every physical constraint, and construction of the solver
objects a run needs.

The field metadata of ``RunConfig`` is the single declaration of the schema:
each field names its section, INI key, conversion kind and default.  The
known keys, the per-key conversion and its message, and every line of
``serialize_config`` derive from it.  The ``[scenario]`` keys are the ones
the built-in scenarios declare; a ``[model]`` or ``[scenario]`` key that the
chosen model kind or scenario does not read is rejected.  ``[model]`` owns
the emission: a ``[scenario] emission0`` is accepted only as a repeat of the
model's value.  The two derived defaults (``slab_length`` and the CFL-based
``dt``) and the checks are explicit code.

Every violation is collected (not just the first) and reported with its line
number.  A parsed config serializes back to text that re-parses to an equal
config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ParameterError
from .grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from .norms import NormSettings
from .physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                      ViscosityParams, compton_model, constant_model, zero_model)
from .picard import DeltaSchedule, SlabConfig
from .scenarios import builtin_scenarios


def _key(section: str, key: str, kind: str, default):
    """A field read from ``key = value`` in ``[section]``; see ``_KINDS``."""
    return field(default=default,
                 metadata={"section": section, "key": key, "kind": kind})


def _params(section: str, kinds: dict):
    """Optional keys of ``section`` ({key: kind}), kept as (key, value) pairs in that order."""
    return field(default=(), metadata={"section": section, "params": kinds})


_COMPTON_KEYS = ("D1", "D2", "v0", "theta")
# model kind -> the [model] keys it reads
_MODEL_KEYS = {"zero": (), "constant": ("sigma0", "kernel0", "emission0"),
               "compton": _COMPTON_KEYS + ("kernel0", "emission0")}


def _scenario_keys() -> dict:
    """{key: kind} of every key some scenario declares, and ``emission0``,
    which must repeat the model's value: the numbers sorted, then the
    strings in declaration order."""
    declared = {"emission0": 0.0}
    for scenario in builtin_scenarios().values():
        declared.update(scenario.keys)
    strings = [k for k, v in declared.items() if isinstance(v, str)]
    return {**dict.fromkeys(sorted(declared.keys() - set(strings)), "float"),
            **dict.fromkeys(strings, "str")}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; see ``parse_config``."""

    dim: int = _key("grid", "dim", "int", 1)
    cells: tuple = _key("grid", "cells", "ints", (128,))
    lengths: tuple = _key("grid", "lengths", "floats", (1.0,))
    boundary: str = _key("grid", "boundary", "str", "periodic")
    rho_bar: float = _key("grid", "rho_bar", "float", 1.0)

    ordinates: str = _key("radiation", "ordinates", "str", "8")
    band_edges: tuple = _key("radiation", "band_edges", "floats",
                             (0.5, 1.0, 2.0, 3.0, 4.5))

    eos_kind: str = _key("physics", "eos", "str", "polytropic")
    A: float = _key("physics", "A", "float", 1.0)
    gamma: float = _key("physics", "gamma", "float", 2.0)
    rho_table: tuple = _key("physics", "rho_table", "floats", ())
    p_table: tuple = _key("physics", "p_table", "floats", ())
    mu: float = _key("physics", "mu", "float", 1.0)
    lam: float = _key("physics", "lambda", "float", 0.0)
    c: float = _key("physics", "c", "float", 1.0)
    q: float = _key("physics", "q", "float", 4.0)

    model_kind: str = _key("model", "kind", "str", "constant")
    model_params: tuple = _params("model", dict.fromkeys(
        (key for keys in _MODEL_KEYS.values() for key in keys), "float"))

    scenario: str = _key("scenario", "name", "str", "equilibrium")
    scenario_params: tuple = _params("scenario", _scenario_keys())

    t_final: float = _key("run", "t_final", "float", 0.01)
    slab_length: float = _key("run", "slab_length", "float", 0.01)
    dt: float = _key("run", "dt", "float", 0.002)
    max_iters: int = _key("run", "max_iters", "int", 30)
    gamma_tol: float = _key("run", "gamma_tol", "float", 1e-8)
    max_halvings: int = _key("run", "max_halvings", "int", 2)
    transport_cfl: float = _key("run", "transport_cfl", "float", 0.9)
    continuity: str = _key("run", "continuity", "str", "fv")
    snapshot_stride: int = _key("run", "snapshot_stride", "int", 1)
    output_dir: str = _key("run", "output_dir", "str", "out")
    deltas: tuple = _key("run", "deltas", "floats", ())
    extrapolate: bool = _key("run", "extrapolate", "bool", False)

    # -- constructors of solver objects ------------------------------------

    def build_spatial_grid(self) -> SpatialGrid:
        if self.boundary == "farfield":
            return SpatialGrid.farfield(self.cells, self.lengths, self.rho_bar)
        return SpatialGrid.periodic(self.cells, self.lengths)

    def build_angular(self) -> AngularQuadrature:
        tok = self.ordinates
        if self.dim == 1:
            if tok == "beams":
                return AngularQuadrature.beams_slab()
            return AngularQuadrature.gauss_legendre_slab(int(tok))
        return {"6": AngularQuadrature.axes3d,
                "8": AngularQuadrature.corners3d,
                "14": AngularQuadrature.combined14}[tok]()

    def build_grids(self) -> Grids:
        return Grids(self.build_spatial_grid(),
                     FrequencyGrid.from_edges(self.band_edges),
                     self.build_angular())

    def build_eos(self) -> EquationOfState:
        if self.eos_kind == "polytropic":
            return EquationOfState.polytropic(self.A, self.gamma)
        return EquationOfState.barotropic_table(np.array(self.rho_table),
                                                np.array(self.p_table))

    def build_viscosity(self) -> ViscosityParams:
        return ViscosityParams(self.mu, self.lam)

    def build_constants(self) -> PhysicalConstants:
        return PhysicalConstants(self.c)

    def build_norm_settings(self) -> NormSettings:
        return NormSettings(q=self.q, rho_ref=self.rho_bar)

    def build_model(self) -> CoefficientModel:
        params = dict(self.model_params)
        if self.model_kind == "zero":
            return zero_model()
        e0 = params.get("emission0", 0.0)
        if self.model_kind == "constant":
            return constant_model(params.get("sigma0", 0.0), params.get("kernel0", 0.0), e0)
        k0 = params.get("kernel0", 0.0)
        profile = None
        if k0 > 0:
            def profile(v_from, v_to, mu):
                return np.full_like(np.asarray(mu, dtype=float), k0)
        return compton_model(*(params.get(k, 1.0) for k in _COMPTON_KEYS),
                             sigma_s_profile=profile, emission0=e0)

    def build_slab_config(self) -> SlabConfig:
        # every SlabConfig field is a [run] field of the same name
        return SlabConfig(**{name: getattr(self, name) for name in SlabConfig.__slots__})

    def build_delta_schedule(self) -> DeltaSchedule | None:
        return DeltaSchedule(self.deltas, extrapolate=self.extrapolate) if self.deltas else None


# -- schema derived from the field metadata ---------------------------------

_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
          **dict.fromkeys(("false", "no", "off", "0"), False)}


def _list(conv):
    return lambda s: tuple(conv(p) for p in s.replace(",", " ").split())


def _finite(s: str) -> float:
    if not math.isfinite(x := float(s)):
        raise ValueError(f"non-finite value {s!r}")
    return x


# kind -> (converter of the raw value, what the error message expects)
_KINDS = {
    "int": (int, "an integer"),
    "float": (_finite, "a number"),
    "str": (str, "a string"),
    "bool": (lambda s: _BOOLS[s.strip().lower()], "a boolean"),
    "ints": (_list(int), "an integer list"),
    "floats": (_list(_finite), "a number list"),
}


def _field_keys(f) -> dict:
    """{key: kind} of the INI keys a RunConfig field reads."""
    m = f.metadata
    return m["params"] if "params" in m else {m["key"]: m["kind"]}


_KNOWN_KEYS: dict = {}      # section -> the keys it accepts
_WHERE: dict = {}           # field name -> (section, key or None for pairs)
for _f in fields(RunConfig):
    _KNOWN_KEYS.setdefault(_f.metadata["section"], set()).update(_field_keys(_f))
    _WHERE[_f.name] = (_f.metadata["section"], _f.metadata.get("key"))


# -- parsing and serialization ----------------------------------------------

def _tokenize(text: str):
    """{(section, key): (line_number, raw_value)} of the known keys, and the
    syntax errors; a key set twice keeps its last value."""
    data, errors, section = {}, [], None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                errors.append((ln, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            errors.append((ln, f"expected 'key = value', got {line!r}"))
            continue
        if section is None:
            errors.append((ln, "key outside of any known section"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[section]:
            errors.append((ln, f"unknown key {key!r} in section [{section}]"))
            continue
        data[(section, key)] = (ln, value)
    return data, errors


def _read(data: dict, errors: list) -> dict:
    """Converted values of the keys the text sets, by RunConfig field name.
    A value that fails to convert is reported and left out."""
    values = {}
    for f in fields(RunConfig):
        section, read = f.metadata["section"], {}
        for key, kind in _field_keys(f).items():
            if (section, key) in data:
                ln, raw = data[(section, key)]
                conv, what = _KINDS[kind]
                try:
                    read[key] = conv(raw)
                except (KeyError, TypeError, ValueError):
                    errors.append((ln, f"{section}.{key}: expected {what}, got {raw!r}"))
        if "params" in f.metadata:
            values[f.name] = tuple(read.items())
        elif read:
            values[f.name] = read[f.metadata["key"]]
    return values


def _checks(cfg: RunConfig, min_h: float) -> list:
    """((section, key), whether the check fails, message) for the constraints
    on single keys and on keys that must agree with each other."""
    dim, cells, lengths, ordinates = cfg.dim, cfg.cells, cfg.lengths, cfg.ordinates
    edges, mu, lam, c, dt = cfg.band_edges, cfg.mu, cfg.lam, cfg.c, cfg.dt
    slab = cfg.slab_length
    deltas = cfg.deltas
    poly = cfg.eos_kind == "polytropic"
    table_msg = None
    if cfg.eos_kind == "barotropic_table":
        try:
            cfg.build_eos()
        except ParameterError as exc:
            table_msg = f"table EOS: {exc}"
    ord_msg = None
    if dim != 1 and ordinates not in ("6", "8", "14"):
        ord_msg = f"3D ordinate sets are 6, 8 or 14 points, got {ordinates!r}"
    elif dim == 1 and ordinates != "beams":
        try:
            if int(ordinates) < 2:
                ord_msg = "need at least 2 slab ordinates"
        except ValueError:
            ord_msg = f"slab ordinates must be a count or 'beams', got {ordinates!r}"
    cfl = dim and cells and lengths and len(cells) == len(lengths) and c > 0 and dt > 0
    checks = [
        ("dim", dim not in (1, 2, 3), f"dim must be 1, 2 or 3, got {dim}"),
        ("cells", len(cells) != dim, f"need {dim} cell counts, got {len(cells)}"),
        ("cells", any(n < 4 for n in cells), f"need at least 4 cells per axis, got {cells}"),
        ("lengths", len(lengths) != dim, f"need {dim} lengths, got {len(lengths)}"),
        ("lengths", any(L <= 0 for L in lengths), "domain lengths must be positive"),
        ("boundary", cfg.boundary not in ("periodic", "farfield"),
         f"boundary must be periodic or farfield, got {cfg.boundary!r}"),
        ("rho_bar", cfg.rho_bar < 0, "background density must be >= 0"),
        ("ordinates", ord_msg is not None, ord_msg),
        ("band_edges", len(edges) < 2, "need at least two band edges"),
        ("band_edges", len(edges) >= 2 and (
            edges[0] <= 0 or any(b <= a for a, b in zip(edges, edges[1:]))),
         "band edges must be positive and increasing"),
        ("A", poly and cfg.A <= 0, f"A must be positive, got {cfg.A}"),
        ("gamma", poly and cfg.gamma <= 1, f"gamma must exceed 1, got {cfg.gamma}"),
        ("rho_table", table_msg is not None, table_msg),
        ("eos_kind", cfg.eos_kind not in ("polytropic", "barotropic_table"),
         f"eos must be polytropic or barotropic_table, got {cfg.eos_kind!r}"),
        ("mu", mu <= 0, f"shear viscosity must be positive, got {mu}"),
        ("lam", lam + 2.0 * mu / 3.0 < 0,
         f"need lambda + (2/3) mu >= 0, got {lam + 2.0 * mu / 3.0}"),
        ("c", c <= 0, f"light speed must be positive, got {c}"),
        ("q", not 3.0 < cfg.q <= 6.0, f"q must lie in (3, 6], got {cfg.q}"),
        ("model_kind", cfg.model_kind not in ("zero", "constant", "compton"),
         f"model kind must be zero, constant or compton, got {cfg.model_kind!r}"),
        ("scenario", cfg.scenario not in builtin_scenarios(),
         f"unknown scenario {cfg.scenario!r}; see 'rhlab list-scenarios'"),
        ("t_final", cfg.t_final <= 0, f"t_final must be positive, got {cfg.t_final}"),
        ("slab_length", slab <= 0, f"slab_length must be positive, got {slab}"),
        ("dt", dt <= 0 or (slab > 0 and dt > slab),
         f"need 0 < dt <= slab_length, got dt={dt}"),
        ("dt", cfl and c * dt > min_h * (1.0 + 1e-12),
         f"dt violates the transport CFL bound: c*dt = {c * dt:.3g} "
         f"exceeds the smallest cell width {min_h:.3g}"),
        ("max_iters", cfg.max_iters < 1, "max_iters must be >= 1"),
        ("gamma_tol", cfg.gamma_tol <= 0, "gamma_tol must be positive"),
        ("max_halvings", cfg.max_halvings < 0, "max_halvings must be >= 0"),
        ("transport_cfl", not 0 < cfg.transport_cfl <= 1, "transport_cfl must lie in (0, 1]"),
        ("continuity", cfg.continuity not in ("fv", "characteristics"),
         f"continuity must be fv or characteristics, got {cfg.continuity!r}"),
        ("snapshot_stride", cfg.snapshot_stride < 1, "snapshot_stride must be >= 1"),
        ("deltas", bool(deltas) and (
            any(d <= 0 for d in deltas) or any(b >= a for a, b in zip(deltas, deltas[1:]))),
         "deltas must be positive and strictly decreasing"),
    ]
    located = [(_WHERE[name], failed, msg) for name, failed, msg in checks]
    kind, reads = cfg.model_kind, _MODEL_KEYS.get(cfg.model_kind)
    for key, value in cfg.model_params:
        located += [(("model", key), value < 0,
                     f"model parameter {key} must be >= 0, got {value}"),
                    (("model", key), kind == "compton" and key in _COMPTON_KEYS
                     and value <= 0, f"Compton parameter {key} must be positive, got {value}"),
                    (("model", key), reads is not None and key not in reads,
                     f"model kind {kind} does not read {key}")]
    e0 = dict(cfg.model_params).get("emission0", 0.0)
    scenario = builtin_scenarios().get(cfg.scenario)
    for key, value in cfg.scenario_params:
        if key == "emission0":
            located.append((("scenario", key), value != e0,
                            f"scenario emission0 = {value} differs from the model's "
                            f"emission0 = {e0}; the emission is set in [model]"))
        else:
            located.append((("scenario", key),
                            scenario is not None and key not in scenario.keys,
                            f"scenario {cfg.scenario} does not read {key}"))
    return located


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation with
    its line number."""
    data, errors = _tokenize(text)
    values = _read(data, errors)
    # line of each key; a derived default cites the line of the key it comes from
    line = {where: ln for where, (ln, _) in data.items()}

    cfg = RunConfig(**values)
    if "slab_length" not in values:
        cfg = replace(cfg, slab_length=min(cfg.t_final, 0.01))
        line[_WHERE["slab_length"]] = line.get(_WHERE["t_final"], 0)
    cells, lengths, slab = cfg.cells, cfg.lengths, cfg.slab_length
    min_h = min(L / n for L, n in zip(lengths, cells)) if cells and lengths \
        and len(cells) == len(lengths) and all(n > 0 for n in cells) else 1.0
    if "dt" not in values:
        cfl_dt = 0.4 * min_h / max(cfg.c, 1e-300)
        cfg = replace(cfg, dt=min(slab, cfl_dt) if slab > 0 else 0.0)
        source = "slab_length" if slab <= 0 or slab <= cfl_dt else "lengths"
        line[_WHERE["dt"]] = line.get(_WHERE[source], 0)

    errors += [(line.get(where, 0), msg)
               for where, failed, msg in _checks(cfg, min_h) if failed]

    if errors:
        errors = sorted(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in errors)
        raise ConfigError(f"invalid configuration: {lines}", violations=errors)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Fields are written in declaration order; an empty list is written as the
    key's absence, which parses back to the same empty default."""
    def fmt(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, float):
            return format(x, ".17g")
        if isinstance(x, (tuple, list)):
            return ", ".join(fmt(v) for v in x)
        return str(x)

    lines, section = [], None
    for f in fields(cfg):
        if f.metadata["section"] != section:
            section = f.metadata["section"]
            lines += [""] * bool(lines) + [f"[{section}]"]
        value = getattr(cfg, f.name)
        if "params" in f.metadata:
            lines += [f"{key} = {fmt(v)}" for key, v in value]
        elif value != ():
            lines.append(f"{f.metadata['key']} = {fmt(value)}")
    return "\n".join(lines) + "\n"
