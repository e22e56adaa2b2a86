import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, reject
from hypothesis import strategies as st

import rhlab
from rhlab import config, runner, transport
from rhlab.config import _MODEL_KEYS, RunConfig, build_problem, parse_config, serialize_config
from rhlab.errors import ConfigError, ParameterError
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import NormSettings
from rhlab.physics import (EquationOfState, PhysicalConstants, ViscosityParams,
                           compton_model, constant_model, pressure)
from rhlab.picard import DeltaSchedule, SlabConfig
from rhlab.scenarios import builtin_scenarios

MINIMAL = """
[grid]
dim = 1
cells = 64
lengths = 1.0

[run]
t_final = 0.01
"""


RICH = """
[grid]
dim = 1
cells = 96
lengths = 2.0
boundary = farfield
rho_bar = 0.7

[radiation]
ordinates = 4
band_edges = 0.25, 1.0, 3.0

[physics]
eos = polytropic
A = 0.9
gamma = 1.4
mu = 0.8
lambda = -0.3
c = 2.0
q = 5.5

[model]
kind = constant
sigma0 = 0.4
kernel0 = 0.1
emission0 = 0.02

[scenario]
name = smooth-bump
amplitude = 0.25

[run]
t_final = 0.008
slab_length = 0.004
dt = 0.002
max_iters = 25
gamma_tol = 1e-7
max_halvings = 4
continuity = characteristics
snapshot_stride = 2
output_dir = results
deltas = 1e-2, 1e-4
"""

RICH_SERIALIZED = """\
[grid]
dim = 1
cells = 96
lengths = 2
boundary = farfield
rho_bar = 0.69999999999999996

[radiation]
ordinates = 4
band_edges = 0.25, 1, 3

[physics]
eos = polytropic
A = 0.90000000000000002
gamma = 1.3999999999999999
mu = 0.80000000000000004
lambda = -0.29999999999999999
c = 2
q = 5.5

[model]
kind = constant
sigma0 = 0.40000000000000002
kernel0 = 0.10000000000000001
emission0 = 0.02

[scenario]
name = smooth-bump
amplitude = 0.25

[run]
t_final = 0.0080000000000000002
slab_length = 0.0040000000000000001
dt = 0.002
max_iters = 25
gamma_tol = 9.9999999999999995e-08
max_halvings = 4
continuity = characteristics
snapshot_stride = 2
output_dir = results
deltas = 0.01, 0.0001
"""

_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=12)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def config_texts(draw, max_cells=None):
    """Config text over every section; each key is present or left to its
    default, and values mostly satisfy the constraints.  ``max_cells`` caps
    the product of the cell counts."""
    def maybe(strategy):
        return draw(st.one_of(st.none(), strategy))

    dim = draw(st.sampled_from([1, 2, 3]))
    cells = draw(st.lists(st.integers(4, 64), min_size=dim, max_size=dim))
    assume(max_cells is None or math.prod(cells) <= max_cells)
    lengths = draw(st.lists(_floats(0.5, 4.0), min_size=dim, max_size=dim))
    eos = draw(st.sampled_from(["polytropic", "barotropic_table"]))
    if eos == "barotropic_table":
        n = draw(st.integers(4, 6))
        # increasing densities from 0, as the EOS requires, and any finite pressures
        rho_table = draw(st.lists(_floats(0.0, 10.0).filter(bool), min_size=n - 1,
                                  max_size=n - 1, unique=True).map(lambda r: [0.0] + sorted(r)))
        p_table = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=n, max_size=n))
    else:
        rho_table = maybe(st.lists(_floats(0.0, 10.0), max_size=3))
        p_table = maybe(st.lists(_floats(0.0, 10.0), max_size=3))
    kind = draw(st.sampled_from(sorted(_MODEL_KEYS)))
    model = {key: maybe(_floats(0.01, 5.0)) for key in _MODEL_KEYS[kind]}
    name = maybe(st.sampled_from(sorted(builtin_scenarios())))
    declared = builtin_scenarios()[name or "equilibrium"].keys
    # [scenario] emission0 is accepted only as a repeat of the model's value
    e0 = model.get("emission0") or 0.0
    slab = maybe(_floats(1e-4, 0.1))
    sections = {
        "grid": {"dim": dim, "cells": cells, "lengths": lengths,
                 "boundary": maybe(st.sampled_from(["periodic", "farfield"])),
                 "rho_bar": maybe(_floats(0.0, 2.0))},
        "radiation": {
            "ordinates": maybe(st.sampled_from(["beams", "2", "4", "8"] if dim == 1
                                               else ["6", "8", "14"])),
            "band_edges": maybe(st.lists(_floats(0.1, 10.0), min_size=2, max_size=5,
                                         unique=True).map(sorted))},
        "physics": {"eos": eos, "A": maybe(_floats(0.1, 5.0)),
                    "gamma": maybe(_floats(1.01, 3.0)), "rho_table": rho_table,
                    "p_table": p_table, "mu": maybe(_floats(0.1, 5.0)),
                    "lambda": maybe(_floats(0.0, 3.0)), "c": maybe(_floats(0.5, 2.0)),
                    "q": maybe(_floats(3.01, 6.0))},
        "model": {"kind": kind, **model},
        "scenario": {"name": name, "emission0": maybe(st.just(e0)),
                     **{key: maybe(_NAMES if isinstance(default, str) else _floats(-2.0, 2.0))
                        for key, default in declared.items()}},
        "run": {"t_final": maybe(_floats(1e-4, 1.0)), "slab_length": slab,
                "dt": maybe(_floats(0.1, 1.0).map(lambda f: f * (slab or 0.01))),
                "max_iters": maybe(st.integers(1, 50)),
                "gamma_tol": maybe(_floats(1e-12, 1e-2)),
                "max_halvings": maybe(st.integers(0, 5)),
                "continuity": maybe(st.sampled_from(["fv", "characteristics"])),
                "snapshot_stride": maybe(st.integers(1, 5)),
                "output_dir": maybe(_NAMES),
                "deltas": maybe(st.lists(_floats(1e-6, 1.0), max_size=3, unique=True)
                                .map(lambda d: sorted(d, reverse=True)))},
    }
    lines = []
    for section, body in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_fmt(v)}" for key, v in body.items() if v is not None]
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 1
        assert cfg.cells == (64,)
        assert cfg.boundary == "periodic"
        assert cfg.q == 4.0
        assert cfg.gamma == 2.0
        assert cfg.scenario == "equilibrium"
        assert 0 < cfg.dt <= cfg.slab_length <= cfg.t_final

    def test_viscosity_constraint_cited_with_line(self):
        text = MINIMAL + "\n[physics]\nmu = 3.0\nlambda = -3.0\n"
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        err = ei.value
        assert any("lambda + (2/3) mu" in msg for _, msg in err.violations)
        lam_line = text.splitlines().index("lambda = -3.0") + 1
        assert any(ln == lam_line for ln, _ in err.violations)

    def test_q_range_message(self):
        with pytest.raises(ConfigError, match=r"q must lie in \(3, 6\]"):
            parse_config(MINIMAL + "\n[physics]\nq = 7\n")

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError) as ei:
            parse_config(MINIMAL + "\n[grid]\nfoo = 1\n")
        assert any("unknown key 'foo'" in msg for _, msg in ei.value.violations)

    def test_unknown_section_reported(self):
        with pytest.raises(ConfigError) as ei:
            parse_config(MINIMAL + "\n[proofs]\nkey = 1\n")
        assert any("unknown section" in msg for _, msg in ei.value.violations)

    def test_all_violations_collected(self):
        text = """
[grid]
dim = 1
cells = 2
lengths = -1.0

[physics]
gamma = 0.5
q = 7

[run]
t_final = -3
"""
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        msgs = [m for _, m in ei.value.violations]
        assert len(msgs) >= 5
        assert any("at least 4 cells" in m for m in msgs)
        assert any("gamma must exceed 1" in m for m in msgs)
        assert any("q must lie in" in m for m in msgs)
        assert any("t_final" in m for m in msgs)
        # the derived slab_length and dt defaults cite the t_final line they come from
        t_line = text.splitlines().index("t_final = -3") + 1
        assert (t_line, "slab_length must be positive, got -3.0") in ei.value.violations
        assert (t_line, "need 0 < dt <= slab_length, got dt=0.0") in ei.value.violations
        assert all(ln > 0 for ln, _ in ei.value.violations)

    def test_dt_above_transport_cfl_runs_in_substeps(self, tmp_path, monkeypatch):
        # c dt = 0.05 exceeds the smallest cell width h = 1/64, which is no
        # config error: the transport splits each step into CFL substeps, and
        # a radiating run on that grid with that dt converges and stays positive
        assert parse_config(MINIMAL + "\n[run]\nslab_length = 0.05\ndt = 0.05\n").dt == 0.05
        counts = []
        real = transport._substeps

        def counted(rad, dt):
            n_sub, sub = real(rad, dt)
            counts.append(n_sub)
            return n_sub, sub

        monkeypatch.setattr(transport, "_substeps", counted)
        monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        summary = runner.run_scenario(parse_config(
            MINIMAL.replace("t_final = 0.01", "t_final = 0.05")
            + "slab_length = 0.05\ndt = 0.05\n\n[model]\nkind = constant\nemission0 = 0.05\n"
            "\n[scenario]\nname = smooth-bump\n"))
        assert counts and min(counts) > 1
        assert summary["picard"]["all_converged"] and summary["positivity"]["ok"]

    def test_bad_value_type_reported_with_line(self):
        with pytest.raises(ConfigError) as ei:
            parse_config(MINIMAL + "\n[physics]\nmu = fast\n")
        assert any("expected a number" in msg for _, msg in ei.value.violations)

    def test_non_finite_numbers_rejected_with_line(self):
        text = (MINIMAL + "\n[physics]\nmu = nan\n\n[run]\ndt = inf\n"
                "\n[radiation]\nband_edges = 0.5, nan\n")
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        lines = text.splitlines()
        assert ei.value.violations == [
            (lines.index("mu = nan") + 1, "physics.mu: expected a number, got 'nan'"),
            (lines.index("dt = inf") + 1, "run.dt: expected a number, got 'inf'"),
            (lines.index("band_edges = 0.5, nan") + 1,
             "radiation.band_edges: expected a number list, got '0.5, nan'")]

    def test_bad_parameter_value_reported_once(self):
        # a value that fails to convert is not checked again as a default
        with pytest.raises(ConfigError) as ei:
            parse_config(MINIMAL + "\n[model]\nkind = compton\nD1 = x\n")
        assert [m for _, m in ei.value.violations] == ["model.D1: expected a number, got 'x'"]

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as ei:
            parse_config(MINIMAL + "\njust some words\n")
        assert any("key = value" in msg for _, msg in ei.value.violations)

    def test_farfield_scenario_config(self):
        cfg = parse_config("""
[grid]
dim = 1
cells = 128
lengths = 1.0
boundary = farfield
rho_bar = 1.0

[model]
kind = compton
D1 = 1.0
D2 = 2.0
v0 = 1.5
theta = 1.0

[scenario]
name = vacuum-plateau

[run]
t_final = 0.002
deltas = 1e-2, 1e-3
""")
        assert cfg.model_kind == "compton"
        assert cfg.deltas == (1e-2, 1e-3)
        assert build_problem(cfg).schedule.deltas == (1e-2, 1e-3)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(MINIMAL + "\n[scenario]\nname = warp-drive\n")


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_rich_round_trip(self):
        cfg = parse_config(RICH)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_rich_serialized_text(self):
        # pins the byte form written to config.echo
        assert serialize_config(parse_config(RICH)) == RICH_SERIALIZED

    @given(config_texts())
    @example("[physics]\np_table = 1, 2\n")  # a table list with no densities
    def test_generated_round_trip(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            reject()
        assert parse_config(serialize_config(cfg)) == cfg

    @given(config_texts(max_cells=4096))
    def test_accepted_config_builds(self, text):
        # what parse_config accepts, build_problem builds: the scenario's
        # initial data (e.g. a negative smooth-bump amplitude) is checked at parse
        try:
            cfg = parse_config(text)
        except ConfigError:
            reject()
        build_problem(cfg)

    def test_builders_construct(self):
        cfg = parse_config(MINIMAL)
        prob = build_problem(cfg)
        assert prob.cfg is cfg
        assert prob.grids.radiation_shape()[0] == len(cfg.band_edges) - 1
        assert pressure(prob.eos, np.array([2.0]))[0] == cfg.A * 2.0 ** cfg.gamma
        assert prob.visc == ViscosityParams(cfg.mu, cfg.lam)
        assert prob.consts == PhysicalConstants(cfg.c)
        assert prob.settings == NormSettings(cfg.q)
        assert prob.model.emission_bm(prob.grids, 0.0).shape[0] == len(cfg.band_edges) - 1
        assert prob.state0.rho.shape == prob.grids.spatial.extents
        assert prob.schedule is None


class TestOneOwnerOfConstruction:
    def test_slab_is_built_from_the_run_keys(self):
        text = MINIMAL + ("slab_length = 0.005\ndt = 0.001\nmax_iters = 12\ngamma_tol = 1e-6\n"
                          "max_halvings = 3\ncontinuity = characteristics\n")
        assert build_problem(parse_config(text)).slab == SlabConfig(
            slab_length=0.005, dt=0.001, max_iters=12, gamma_tol=1e-6, max_halvings=3,
            continuity="characteristics")

    def test_schedule_is_built_from_the_deltas(self):
        cfg = parse_config(MINIMAL + "deltas = 1e-2, 1e-3, 1e-4\n")
        schedule = build_problem(cfg).schedule
        assert schedule == DeltaSchedule(cfg.deltas)
        assert schedule.deltas == cfg.deltas == (1e-2, 1e-3, 1e-4)
        assert build_problem(parse_config(MINIMAL)).schedule is None

    def test_runner_builds_with_the_config_constructor(self):
        assert runner.build_problem is config.build_problem
        assert runner.Problem is config.Problem

    def test_transport_cfl_is_no_run_key(self):
        text = MINIMAL + "transport_cfl = 0.5\n"
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert ei.value.violations == [(_line_of(text, "transport_cfl = 0.5"),
                                        "unknown key 'transport_cfl' in section [run]")]

    def test_run_config_is_data(self):
        assert [name for name in dir(RunConfig) if name.startswith("build_")] == []
        assert [name for name, member in vars(RunConfig).items()
                if callable(member) and not name.startswith("__")] == []


def _line_of(text, line):
    return text.splitlines().index(line) + 1


class TestOneOwnerPerInput:
    @pytest.mark.parametrize("model", ["kind = constant\nsigma0 = 0.2",
                                       "kind = compton\nkernel0 = 0.05"])
    @pytest.mark.parametrize("scenario", ["smooth-bump", "vacuum-plateau", "equilibrium"])
    def test_model_emission0_reaches_the_run(self, model, scenario):
        # the emission of a run is the [model] one, whatever the scenario
        text = MINIMAL + (f"\n[grid]\nboundary = farfield\n\n[model]\n{model}\n"
                          f"emission0 = 0.5\n\n[scenario]\nname = {scenario}\n")
        prob = build_problem(parse_config(text))
        assert np.all(prob.model.emission_bm(prob.grids, 0.0) == 0.5)
        unset = build_problem(parse_config(text.replace("emission0 = 0.5\n", "")))
        assert np.all(unset.model.emission_bm(unset.grids, 0.0) == 0.0)

    def test_scenario_emission0_must_repeat_the_model(self):
        text = MINIMAL + ("\n[model]\nkind = constant\nemission0 = 0.05\n"
                          "\n[scenario]\nname = vacuum-plateau\nemission0 = 0.5\n")
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert ei.value.violations == [
            (_line_of(text, "emission0 = 0.5"),
             "scenario emission0 = 0.5 differs from the model's emission0 = 0.05; "
             "the emission is set in [model]")]
        # a repeat of the model's value is accepted and echoed back
        cfg = parse_config(text.replace("emission0 = 0.5", "emission0 = 0.05"))
        assert ("emission0", 0.05) in cfg.scenario_params
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("kind, key", [("compton", "sigma0"), ("zero", "emission0"),
                                           ("zero", "kernel0"), ("constant", "theta")])
    def test_model_key_the_kind_does_not_read(self, kind, key):
        text = MINIMAL + f"\n[model]\nkind = {kind}\n{key} = 0.5\n"
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert ei.value.violations == [
            (_line_of(text, f"{key} = 0.5"), f"model kind {kind} does not read {key}")]

    @pytest.mark.parametrize("name, key", [("equilibrium", "amplitude"),
                                           ("smooth-bump", "vacuum_radius"),
                                           ("beam-absorption", "u0_amplitude")])
    def test_scenario_key_the_scenario_does_not_read(self, name, key):
        text = MINIMAL + f"\n[scenario]\nname = {name}\n{key} = 0.5\n"
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert ei.value.violations == [
            (_line_of(text, f"{key} = 0.5"), f"scenario {name} does not read {key}")]

    def test_scenario_keys_are_the_declared_ones(self):
        # the background density is [grid] rho_bar; [scenario] has no such key
        with pytest.raises(ConfigError, match="unknown key 'rho_bar' in section"):
            parse_config(MINIMAL + "\n[scenario]\nrho_bar = 3\n")
        for scenario in builtin_scenarios().values():
            lines = "".join(f"{key} = {value if isinstance(value, str) else 0.5}\n"
                            for key, value in scenario.keys.items())
            cfg = parse_config(MINIMAL + f"\n[scenario]\nname = {scenario.name}\n{lines}")
            keys = [key for key, _ in cfg.scenario_params]
            assert set(keys) == set(scenario.keys)
        # the config.echo order, shown on the last scenario, custom: the numbers
        # sorted, then rho0, u0, I0
        assert keys == ["I0_value", "amplitude", "rho0_value", "transition_width",
                        "u0_amplitude", "vacuum_radius", "width", "rho0", "u0", "I0"]


class TestOneStatementPerConstraint:
    @pytest.mark.parametrize("keys, construct", [
        ("[grid]\ncells = 2", lambda: SpatialGrid.periodic(2, 1.0)),
        ("[grid]\nlengths = -1.0", lambda: SpatialGrid.periodic(64, -1.0)),
        ("[grid]\nboundary = torus", lambda: SpatialGrid((64,), (1 / 64,), "torus")),
        ("[grid]\nboundary = farfield\nrho_bar = -1.0",
         lambda: SpatialGrid.farfield(64, 1.0, -1.0)),
        ("[grid]\nrho_bar = -1.0", lambda: SpatialGrid.periodic(64, 1.0, rho_bar=-1.0)),
        ("[radiation]\nordinates = 1", lambda: AngularQuadrature.gauss_legendre_slab(1)),
        ("[radiation]\nband_edges = 2.0, 1.0", lambda: FrequencyGrid.from_edges([2.0, 1.0])),
        ("[radiation]\nband_edges = 2.0", lambda: FrequencyGrid.from_edges([2.0])),
        ("[physics]\neos = ideal", lambda: EquationOfState("ideal")),
        ("[physics]\nA = -1.0", lambda: EquationOfState.polytropic(-1.0, 2.0)),
        ("[physics]\nmu = -1.0", lambda: ViscosityParams(-1.0, 0.0)),
        ("[physics]\nlambda = -3.0", lambda: ViscosityParams(1.0, -3.0)),
        ("[physics]\nc = 0.0", lambda: PhysicalConstants(0.0)),
        ("[physics]\nq = 7.0", lambda: NormSettings(7.0)),
        ("[run]\ngamma_tol = 0.0", lambda: SlabConfig(0.01, 0.002, gamma_tol=0.0)),
        ("[run]\ncontinuity = weno", lambda: SlabConfig(0.01, 0.002, continuity="weno")),
        ("[run]\nmax_halvings = -1", lambda: SlabConfig(0.01, 0.002, max_halvings=-1)),
        ("[run]\ndeltas = 1e-3, 1e-2", lambda: DeltaSchedule((1e-3, 1e-2))),
        ("[model]\nkind = constant\nsigma0 = -1.0", lambda: constant_model(sigma0=-1.0)),
        ("[model]\nkind = compton\ntheta = -1.0", lambda: compton_model(1, 1, 1, -1.0)),
        ("[model]\nkind = compton\nemission0 = -1.0",
         lambda: compton_model(1, 1, 1, 1, emission0=-1.0)),
        ("[model]\nkind = compton\nkernel0 = -1.0", lambda: constant_model(kernel0=-1.0)),
        ("[model]\nkind = compton\ntheta = 1e-300\nD1 = 1e300",
         lambda: compton_model(1e300, 1, 1, 1e-300)),
        ("[model]\nkind = compton\ntheta = 1e-300\nD2 = 1e300",
         lambda: compton_model(1, 1e300, 1, 1e-300))],
        ids=lambda value: value.replace("\n", " ") if isinstance(value, str) else "")
    def test_parse_reports_the_constructor_message_at_the_key(self, keys, construct):
        # the constraint is stated once, by its constructor; parse_config
        # reports the same message at the line of the key it reads
        with pytest.raises(ParameterError) as raised:
            construct()
        text = MINIMAL + "\n" + keys + "\n"
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert (_line_of(text, keys.splitlines()[-1]), str(raised.value)) \
            in ei.value.violations

    @pytest.mark.parametrize("keys, key_line", [
        ("[grid]\nrho_bar = 0\n\n[scenario]\nname = smooth-bump", "name = smooth-bump"),
        ("[grid]\nrho_bar = 0", "rho_bar = 0"),
        ("[scenario]\nname = smooth-bump\namplitude = -2", "name = smooth-bump"),
        ("[grid]\nboundary = farfield\nrho_bar = 1\n\n[scenario]\nname = vacuum-farfield",
         "name = vacuum-farfield"),
        ("[grid]\nboundary = farfield\nrho_bar = 0\n\n[scenario]\nname = vacuum-plateau",
         "name = vacuum-plateau"),
        ("[grid]\nboundary = farfield\n\n[scenario]\nname = smooth-bump\nwidth = 2",
         "name = smooth-bump")],
        ids=lambda value: value.replace("\n", " ") if "[" in value else "")
    def test_initial_data_the_scenario_rejects_is_cited(self, keys, key_line):
        # valid key by key, but the scenario cannot build its initial state;
        # the name line is cited, or rho_bar's when the name is defaulted
        text = MINIMAL + "\n" + keys + "\n"
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        [(line, message)] = ei.value.violations
        assert line == _line_of(text, key_line) > 0
        assert message.startswith("scenario ")


    @pytest.mark.parametrize("key, value, allowed", [
        ("rho0", "Bump", "constant, bump or well"), ("rho0", "foo", "constant, bump or well"),
        ("u0", "sin", "zero or sine"), ("I0", "Uniform", "zero or uniform")])
    def test_custom_selector_cited_at_its_key(self, key, value, allowed):
        # an unknown u0 or I0 used to build zero velocity or intensity, and an
        # unknown rho0 was cited at the scenario name, by the builder's raise
        grids = Grids(SpatialGrid.periodic(32, 1.0), FrequencyGrid.from_edges([0.5, 1.0]),
                      AngularQuadrature.gauss_legendre_slab(8))
        with pytest.raises(ParameterError) as raised:
            builtin_scenarios()["custom"].build(grids, {key: value})
        text = (MINIMAL.replace("cells = 64", "cells = 32") + "\n[model]\nkind = zero\n"
                "\n[scenario]\nname = custom\nu0_amplitude = 0.5\n" + f"{key} = {value}\n")
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert str(raised.value) == f"{key} must be {allowed}, got {value!r}"
        assert ei.value.exit_code == 2
        assert ei.value.violations == [(_line_of(text, f"{key} = {value}"),
                                        f"scenario custom: {raised.value}")]

    @pytest.mark.parametrize("name, keys", [
        ("smooth-bump", {"width": 0.0}), ("smooth-bump", {"width": -0.12}),
        ("beam-absorption", {"width": 0.0}), ("vacuum-farfield", {"width": -0.25}),
        ("vacuum-plateau", {"transition_width": 0.0}),
        ("vacuum-plateau", {"transition_width": -0.15}),
        ("compat-satisfied", {"transition_width": 0.0}),
        ("compat-diverging", {"transition_width": -0.15}),
        ("custom", {"width": 0.0, "rho0": "bump"}),
        ("custom", {"transition_width": 0.0, "rho0": "well"})],
        ids=lambda value: "-".join(f"{k}={v}" for k, v in value.items())
        if isinstance(value, dict) else value)
    def test_scenario_widths_must_be_positive(self, name, keys):
        # a width <= 0 used to build no bump, a step, or the bump of its
        # absolute value; the scenario states the bound once, its build
        # raises it, and parse_config cites the key's line
        grids = Grids(SpatialGrid.periodic(64, 1.0), FrequencyGrid.from_edges([0.5, 1.0]),
                      AngularQuadrature.gauss_legendre_slab(8))
        with pytest.raises(ParameterError) as raised:
            builtin_scenarios()[name].build(grids, keys)
        text = MINIMAL + f"\n[scenario]\nname = {name}\n" \
            + "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        key, value = next(iter(keys.items()))
        assert str(raised.value) == f"{key} must be positive, got {value}"
        assert ei.value.violations == [(_line_of(text, f"{key} = {value}"),
                                        f"scenario {name}: {raised.value}")]


class TestTableEOS:
    TABLE = MINIMAL + "\n[physics]\neos = barotropic_table\nrho_table = {}\np_table = {}\n"

    @pytest.mark.parametrize("rho, p, key, message", [
        ("0, 2, 1, 3", "0, 1, 2, 3", "rho_table", "table densities must be strictly increasing"),
        ("0, 1e-160, 1, 2", "0, 5, 6, 7", "rho_table",
         "table has no finite C1 interpolant: its cubic overflows"),
        ("0, 1, 2", "0, 1, 2", "rho_table",
         "table needs matching 1D sample arrays (>= 4 points)"),
        ("0, 1, 2, 3", "0, 1, 2", "p_table",
         "table needs matching 1D sample arrays (>= 4 points)")])
    def test_rejected_at_the_line_of_its_column(self, rho, p, key, message):
        # the constructor raises the first failing sample row, and parse_config
        # cites each at its own key (pressure rows used to cite rho_table); a
        # table whose interpolant is not finite used to build, with p(0) NaN
        columns = {"rho_table": rho, "p_table": p}
        with pytest.raises(ParameterError) as raised:
            EquationOfState.barotropic_table(*([float(x) for x in column.split(",")]
                                               for column in columns.values()))
        text = self.TABLE.format(rho, p)
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert str(raised.value) == message
        assert ei.value.violations == [(_line_of(text, f"{key} = {columns[key]}"),
                                        f"table EOS: {message}")]

    @pytest.mark.parametrize("rho, p", [("0.2, 1, 2, 3", "0.5, 1, 4, 9"),
                                        ("0.5, 1, 2, 3", "0.25, 1, 4, 9")])
    def test_table_must_start_at_zero_density(self, rho, p):
        # PCHIP extrapolated below such a table is not monotone: p(0) = 0.546
        # > p(0.2) = 0.5 for the first
        text = self.TABLE.format(rho, p)
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert ei.value.violations == [
            (_line_of(text, f"rho_table = {rho}"),
             f"table EOS: table densities must start at 0, got {float(rho[:3])}")]

    def test_table_without_interpolant_rejected(self):
        # densities a subnormal apart give the interpolant non-finite slopes
        text = self.TABLE.format("0.0, 2.225073858507203e-309, 1.0, 2.0", "0, 1, 1, 1")
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        [(line, message)] = ei.value.violations
        assert line == _line_of(text, "rho_table = 0.0, 2.225073858507203e-309, 1.0, 2.0")
        assert message.startswith("table EOS: table has no finite C1 interpolant: ")

    def test_non_monotone_table_builds(self):
        # the paper's pressure law is any C1 function; PCHIP follows the samples
        text = self.TABLE.format("0, 1, 2, 3", "0, 2, 1, 3")
        eos = build_problem(parse_config(text)).eos
        assert eos(np.array([0.0, 1.0, 2.0, 3.0])).tolist() == [0.0, 2.0, 1.0, 3.0]


class TestSetUp:
    def test_set_up_loads_no_polynomial_and_no_dataclass(self):
        # a fresh interpreter imports rhlab and builds a 1D and a 2D problem:
        # the slab Gauss-Legendre set is computed without numpy.polynomial,
        # and no rhlab class is a dataclass (all are written out, for their
        # class-creation cost at import)
        code = f'''
import inspect, sys
import rhlab
from rhlab.runner import build_problem
build_problem(rhlab.parse_config({MINIMAL!r}))
build_problem(rhlab.parse_config({MINIMAL!r}.replace("dim = 1", "dim = 2")
                                 .replace("cells = 64", "cells = 8, 8")
                                 .replace("lengths = 1.0", "lengths = 1.0, 1.0")))
print("numpy.polynomial" in sys.modules)
print(sorted(cls.__name__ for name, module in list(sys.modules.items())
            if name.split(".")[0] == "rhlab"
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == name
            and "__dataclass_fields__" in vars(cls)))
'''
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rhlab.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out == ["False", "[]"]
