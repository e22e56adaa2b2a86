"""Flat INI-style run configuration: parsing with per-line diagnostics,
validation of every constraint on the run inputs, and construction of the
objects a run uses.

``_SCHEMA`` is the single declaration of the INI schema: one row per
``RunConfig`` field, naming its section, INI key, conversion kind and
default.  The slots of ``RunConfig``, the known keys, the per-key conversion
and its message, and every line of ``serialize_config`` read it.  The
``[scenario]`` keys are the ones the built-in scenarios declare; a
``[model]`` or ``[scenario]`` key that the chosen model kind or scenario does
not read is rejected.  ``[model]`` owns the emission: a ``[scenario]
emission0`` is accepted only as a repeat of the model's value.  The two
derived defaults (``slab_length`` and the CFL-based ``dt``) are explicit code.

Each constraint on a run input is stated once, as a ``(field, failed,
message)`` row of the class or function that owns it (``SpatialGrid.checks``,
``SlabConfig.checks``, ``constant_model_checks``, a scenario's ``checks``
...).  ``_checks`` evaluates those rows on the config's values and adds only
the checks no constructor makes.  Once the grid, radiation and scenario keys
are valid, the scenario builds its initial state on the config's grids, so
initial data that only the scenario rejects is reported too.

Every violation is collected (not just the first) and reported with its line
number.  A parsed config serializes back to text that re-parses to an equal
config.

``RunConfig`` is data.  ``build_problem`` is the one constructor of what a run
uses: it returns a ``Problem`` with the grids, laws, coefficient model, slab
policy, delta schedule and initial state.  Validation builds with the same
private constructors (``_grids``, ``_eos``, ``_state0``), so a parsed config
builds its grids and initial state twice, once in ``parse_config`` and once
in ``build_problem``.  On the benchmark workloads w1, w2 and w4 that costs
0.5-0.65 ms on a 2-vCPU Xeon, against a median ``run_s`` of 67-113 ms,
and a cached ``Problem`` would share its mutable arrays between runs, so
none is kept.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._records import Value
from .errors import ConfigError, ParameterError
from .fluid import _momentum_layout
from .grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from .norms import NormSettings
from .physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                      ViscosityParams, compton_model, compton_model_checks,
                      constant_model, constant_model_checks, zero_model)
from .picard import DeltaSchedule, SlabConfig, State
from .scenarios import builtin_scenarios

_COMPTON_KEYS = ("D1", "D2", "v0", "theta")
# model kind -> the [model] keys it reads
_MODEL_KEYS = {"zero": (), "constant": ("sigma0", "kernel0", "emission0"),
               "compton": _COMPTON_KEYS + ("kernel0", "emission0")}
# [radiation] ordinates -> the quadrature of a 2D or 3D grid
_ORDINATE_SETS = {"6": AngularQuadrature.axes3d, "8": AngularQuadrature.corners3d,
                  "14": AngularQuadrature.combined14}


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


# RunConfig field -> (section, INI key, kind, default), in config.echo order;
# see _KINDS.  A field whose key is None keeps the optional keys of its
# section, whose kind is {key: kind}, as (key, value) pairs in that order.
_SCHEMA = {
    "dim": ("grid", "dim", "int", 1),
    "cells": ("grid", "cells", "ints", (128,)),
    "lengths": ("grid", "lengths", "floats", (1.0,)),
    "boundary": ("grid", "boundary", "str", "periodic"),
    "rho_bar": ("grid", "rho_bar", "float", 1.0),

    "ordinates": ("radiation", "ordinates", "str", "8"),
    "band_edges": ("radiation", "band_edges", "floats", (0.5, 1.0, 2.0, 3.0, 4.5)),

    "eos_kind": ("physics", "eos", "str", "polytropic"),
    "A": ("physics", "A", "float", 1.0),
    "gamma": ("physics", "gamma", "float", 2.0),
    "rho_table": ("physics", "rho_table", "floats", ()),
    "p_table": ("physics", "p_table", "floats", ()),
    "mu": ("physics", "mu", "float", 1.0),
    "lam": ("physics", "lambda", "float", 0.0),
    "c": ("physics", "c", "float", 1.0),
    "q": ("physics", "q", "float", 4.0),

    "model_kind": ("model", "kind", "str", "constant"),
    "model_params": ("model", None, dict.fromkeys(
        (key for keys in _MODEL_KEYS.values() for key in keys), "float"), ()),

    "scenario": ("scenario", "name", "str", "equilibrium"),
    "scenario_params": ("scenario", None, _scenario_keys(), ()),

    "t_final": ("run", "t_final", "float", 0.01),
    "slab_length": ("run", "slab_length", "float", 0.01),
    "dt": ("run", "dt", "float", 0.002),
    "max_iters": ("run", "max_iters", "int", 30),
    "gamma_tol": ("run", "gamma_tol", "float", 1e-8),
    "max_halvings": ("run", "max_halvings", "int", 2),
    "continuity": ("run", "continuity", "str", "fv"),
    "snapshot_stride": ("run", "snapshot_stride", "int", 1),
    "output_dir": ("run", "output_dir", "str", "out"),
    "deltas": ("run", "deltas", "floats", ()),
}


def _model_args(kind: str, params: dict) -> dict:
    """Keyword arguments of the constant or compton model constructor, from
    the [model] keys or their defaults; compton's kernel0 is a profile that
    ``_model`` makes."""
    if kind == "constant":
        return {key: params.get(key, 0.0) for key in _MODEL_KEYS["constant"]}
    return {**{key: params.get(key, 1.0) for key in _COMPTON_KEYS},
            "emission0": params.get("emission0", 0.0)}


class RunConfig(Value):
    """Validated run description; see ``parse_config``.  Its fields are the
    rows of ``_SCHEMA``; a field not given takes the row's default."""

    __slots__ = tuple(_SCHEMA)

    def __init__(self, **values):
        self._set(**{**_DEFAULTS, **values})


class Problem(NamedTuple):
    """Everything a run uses, built once from a config by ``build_problem``."""

    cfg: RunConfig
    grids: Grids
    eos: EquationOfState
    visc: ViscosityParams
    consts: PhysicalConstants
    settings: NormSettings
    model: CoefficientModel
    state0: State
    slab: SlabConfig
    schedule: DeltaSchedule | None     # None without [run] deltas


def build_problem(cfg: RunConfig) -> Problem:
    """Grids, laws, model, slab policy, delta schedule and initial state of a
    run.  Also builds the momentum layout of the grid (cached), so its
    one-time cost falls in set-up, not in the first momentum step."""
    grids = _grids(cfg)
    visc = ViscosityParams(cfg.mu, cfg.lam)
    prob = Problem(cfg=cfg, grids=grids, eos=_eos(cfg), visc=visc,
                   consts=PhysicalConstants(cfg.c), settings=NormSettings(cfg.q),
                   model=_model(cfg), state0=_state0(cfg, grids),
                   # every SlabConfig field is a [run] field of the same name
                   slab=SlabConfig(**{name: getattr(cfg, name)
                                      for name in SlabConfig.__slots__}),
                   schedule=DeltaSchedule(cfg.deltas) if cfg.deltas else None)
    _momentum_layout(grids.spatial, visc)
    return prob


def _grids(cfg: RunConfig) -> Grids:
    make = SpatialGrid.farfield if cfg.boundary == "farfield" else SpatialGrid.periodic
    spatial = make(cfg.cells, cfg.lengths, cfg.rho_bar)
    freq = FrequencyGrid.from_edges(cfg.band_edges)
    tok = cfg.ordinates
    if cfg.dim != 1:
        ang = _ORDINATE_SETS[tok]()
    elif tok == "beams":
        ang = AngularQuadrature.beams_slab()
    else:
        ang = AngularQuadrature.gauss_legendre_slab(int(tok))
    return Grids(spatial, freq, ang)


def _eos(cfg: RunConfig) -> EquationOfState:
    if cfg.eos_kind == "polytropic":
        return EquationOfState.polytropic(cfg.A, cfg.gamma)
    return EquationOfState.barotropic_table(np.array(cfg.rho_table), np.array(cfg.p_table))


def _model(cfg: RunConfig) -> CoefficientModel:
    if cfg.model_kind == "zero":
        return zero_model()
    params = dict(cfg.model_params)
    args = _model_args(cfg.model_kind, params)
    if cfg.model_kind == "constant":
        return constant_model(**args)
    k0 = params.get("kernel0", 0.0)
    profile = None
    if k0 > 0:
        def profile(v_from, v_to, mu):
            return np.full_like(np.asarray(mu, dtype=float), k0)
    return compton_model(**args, sigma_s_profile=profile)


def _state0(cfg: RunConfig, grids: Grids) -> State:
    """The scenario's initial state on ``grids``."""
    return builtin_scenarios()[cfg.scenario].build(grids, dict(cfg.scenario_params))


# -- conversions and the tables derived from the schema -----------------------

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
    "ints": (_list(int), "an integer list"),
    "floats": (_list(_finite), "a number list"),
}


def _keys_of(key, kind) -> dict:
    """{key: kind} of the INI keys a schema row reads."""
    return kind if key is None else {key: kind}


_DEFAULTS = {name: default for name, (_, _, _, default) in _SCHEMA.items()}
_WHERE = {name: (section, key) for name, (section, key, _, _) in _SCHEMA.items()}
_KNOWN_KEYS: dict = {}      # section -> the keys it accepts
for _section, _key, _kind, _ in _SCHEMA.values():
    _KNOWN_KEYS.setdefault(_section, set()).update(_keys_of(_key, _kind))

# constructor argument -> the RunConfig field it is read from, where the names differ
_FIELD_OF = {"extents": "cells", "spacing": "lengths", "n": "ordinates", "kind": "eos_kind"}


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
    for name, (section, field_key, field_kind, _) in _SCHEMA.items():
        read = {}
        for key, kind in _keys_of(field_key, field_kind).items():
            if (section, key) in data:
                ln, raw = data[(section, key)]
                conv, what = _KINDS[kind]
                try:
                    read[key] = conv(raw)
                except ValueError:
                    errors.append((ln, f"{section}.{key}: expected {what}, got {raw!r}"))
        if field_key is None:
            values[name] = tuple(read.items())
        elif read:
            values[name] = read[field_key]
    return values


def _checks(cfg: RunConfig, min_h: float) -> list:
    """((section, key), message) of every failing constraint: the rows of the
    constructors the config feeds, and the checks no constructor makes (the
    dimension and the counts of cells and lengths, the ordinate names, the
    table EOS interpolant, the model kind and the keys it reads, the scenario
    name and its keys, the emission0 repeat, t_final, the CFL bound and
    snapshot_stride)."""
    dim, cells, lengths, ordinates = cfg.dim, cfg.cells, cfg.lengths, cfg.ordinates
    c, dt, edges = cfg.c, cfg.dt, np.asarray(cfg.band_edges, dtype=float)
    # a cell count below 1 fails the cells row; the spacing keeps the sign of the length
    spacing = tuple(L / max(n, 1) for L, n in zip(lengths, cells))
    owned = [
        *SpatialGrid.checks(cells, spacing, cfg.boundary, cfg.rho_bar),
        *FrequencyGrid.checks(edges, np.diff(edges)),
        *EquationOfState.checks(cfg.eos_kind, cfg.A, cfg.gamma),
        *ViscosityParams.checks(cfg.mu, cfg.lam),
        *PhysicalConstants.checks(c),
        *NormSettings.checks(cfg.q),
        *SlabConfig.checks(*(getattr(cfg, name) for name in SlabConfig.__slots__)),
        *(DeltaSchedule.checks(cfg.deltas) if cfg.deltas else ()),
    ]
    if cfg.eos_kind == "barotropic_table":
        rows = EquationOfState.table_checks(np.array(cfg.rho_table), np.array(cfg.p_table))
        owned += [(key, failed, f"table EOS: {msg}") for key, failed, msg in rows]
        if not any(failed for _, failed, _ in rows):
            try:
                _eos(cfg)
            except ParameterError as exc:     # only the interpolant is left to fail
                owned.append(("rho_table", True, f"table EOS: {exc}"))
    ord_msg = None
    if dim != 1 and ordinates not in _ORDINATE_SETS:
        ord_msg = f"3D ordinate sets are 6, 8 or 14 points, got {ordinates!r}"
    elif dim == 1 and ordinates != "beams":
        try:
            owned += AngularQuadrature.gauss_legendre_checks(int(ordinates))
        except ValueError:
            ord_msg = f"slab ordinates must be a count or 'beams', got {ordinates!r}"
    cfl = dim and cells and lengths and len(cells) == len(lengths) and c > 0 and dt > 0
    checks = [
        ("dim", dim not in (1, 2, 3), f"dim must be 1, 2 or 3, got {dim}"),
        ("cells", len(cells) != dim, f"need {dim} cell counts, got {len(cells)}"),
        ("lengths", len(lengths) != dim, f"need {dim} lengths, got {len(lengths)}"),
        ("ordinates", ord_msg is not None, ord_msg),
        ("model_kind", cfg.model_kind not in _MODEL_KEYS,
         f"model kind must be zero, constant or compton, got {cfg.model_kind!r}"),
        ("scenario", cfg.scenario not in builtin_scenarios(),
         f"unknown scenario {cfg.scenario!r}; see 'rhlab list-scenarios'"),
        ("t_final", cfg.t_final <= 0, f"t_final must be positive, got {cfg.t_final}"),
        ("dt", cfl and c * dt > min_h * (1.0 + 1e-12),
         f"dt violates the transport CFL bound: c*dt = {c * dt:.3g} "
         f"exceeds the smallest cell width {min_h:.3g}"),
        ("snapshot_stride", cfg.snapshot_stride < 1, "snapshot_stride must be >= 1"),
    ]
    found = [(_WHERE[_FIELD_OF.get(name, name)], msg)
             for name, failed, msg in owned + checks if failed]

    kind, reads = cfg.model_kind, _MODEL_KEYS.get(cfg.model_kind)
    params = dict(cfg.model_params)
    model_rows = []
    if kind == "constant":
        model_rows = constant_model_checks(**_model_args(kind, params))
    elif kind == "compton":
        # the compton kernel0 is a constant kernel, constrained as constant_model's
        model_rows = (compton_model_checks(**_model_args(kind, params))
                      + constant_model_checks(kernel0=params.get("kernel0", 0.0)))
    found += [(("model", key), msg) for key, failed, msg in model_rows if failed]
    found += [(("model", key), f"model kind {kind} does not read {key}")
              for key in params if reads is not None and key not in reads]

    e0 = params.get("emission0", 0.0)
    scenario = builtin_scenarios().get(cfg.scenario)
    if scenario is not None:
        # a row on a [scenario] key is cited at that key, the rho_bar row at the name
        rows = scenario.checks(cfg.boundary, cfg.rho_bar,
                               {**scenario.keys, **dict(cfg.scenario_params)})
        found += [(("scenario", key) if key in scenario.keys else _WHERE["scenario"],
                   f"scenario {cfg.scenario}: {msg}") for key, failed, msg in rows if failed]
    for key, value in cfg.scenario_params:
        if key == "emission0":
            if value != e0:
                found.append((("scenario", key),
                              f"scenario emission0 = {value} differs from the model's "
                              f"emission0 = {e0}; the emission is set in [model]"))
        elif scenario is not None and key not in scenario.keys:
            found.append((("scenario", key), f"scenario {cfg.scenario} does not read {key}"))
    return found


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation with
    its line number."""
    data, errors = _tokenize(text)
    values = _read(data, errors)
    # line of each key; a derived default (or scenario name, the equilibrium
    # over the [grid] rho_bar) cites the line of the key it comes from
    line = {where: ln for where, (ln, _) in data.items()}
    line.setdefault(_WHERE["scenario"], line.get(_WHERE["rho_bar"], 0))

    cfg = RunConfig(**values)
    if "slab_length" not in values:
        cfg = cfg._replace(slab_length=min(cfg.t_final, 0.01))
        line[_WHERE["slab_length"]] = line.get(_WHERE["t_final"], 0)
    cells, lengths, slab = cfg.cells, cfg.lengths, cfg.slab_length
    min_h = min(L / n for L, n in zip(lengths, cells)) if cells and lengths \
        and len(cells) == len(lengths) and all(n > 0 for n in cells) else 1.0
    if "dt" not in values:
        cfl_dt = 0.4 * min_h / max(cfg.c, 1e-300)
        cfg = cfg._replace(dt=min(slab, cfl_dt) if slab > 0 else 0.0)
        source = "slab_length" if slab <= 0 or slab <= cfl_dt else "lengths"
        line[_WHERE["dt"]] = line.get(_WHERE[source], 0)

    found = _checks(cfg, min_h)
    # keys that fail to convert or a check: the initial state needs valid
    # grid, radiation and scenario keys
    error_lines = {ln for ln, _ in errors}
    bad = {where for where, (ln, _) in data.items() if ln in error_lines}
    bad.update(where for where, _ in found)
    errors += [(line.get(where, 0), msg) for where, msg in found]
    if not any(section in ("grid", "radiation", "scenario") for section, _ in bad):
        try:
            _state0(cfg, _grids(cfg))
        except ConfigError as exc:
            errors.append((line[_WHERE["scenario"]], f"scenario {cfg.scenario}: {exc}"))

    if errors:
        errors = sorted(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in errors)
        raise ConfigError(f"invalid configuration: {lines}", violations=errors)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Fields are written in schema order; an empty list is written as the
    key's absence, which parses back to the same empty default."""
    def fmt(x):
        if isinstance(x, float):
            return format(x, ".17g")
        if isinstance(x, (tuple, list)):
            return ", ".join(fmt(v) for v in x)
        return str(x)

    lines, section = [], None
    for name, (field_section, key, _, _) in _SCHEMA.items():
        if field_section != section:
            section = field_section
            lines += [""] * bool(lines) + [f"[{section}]"]
        value = getattr(cfg, name)
        if key is None:
            lines += [f"{k} = {fmt(v)}" for k, v in value]
        elif value != ():
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"
