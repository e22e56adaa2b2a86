"""The benchmark's run configs stay valid: each one parses and builds, and
each tiny variant runs without a warning to byte-identical outputs.  A full
run builds one transport record per slab solve, steps no sweep transport
when it has no radiation, reads the emission table once per radiation step,
and makes a pinned number of interpolations, characteristics traces,
momentum solves and matrix-vector products."""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

from rhlab import fluid, physics, picard, transport
from rhlab.config import parse_config
from rhlab.runner import OUTPUT_DIR_ENV, build_problem, run_scenario

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_builds(name, size):
    prob = build_problem(parse_config(workloads.render_config(name, 0, size)))
    assert prob.cfg.scenario == workloads.WORKLOADS[name][0]["scenario"]["name"]


def _outputs(outdir: Path) -> dict:
    return {str(f.relative_to(outdir)): f.read_bytes()
            for f in sorted(outdir.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_reproducibly(name, tmp_path, monkeypatch):
    # the 2D/3D sweeps, the characteristics and the delta continuation, end
    # to end through run_scenario, twice at seed 0
    outputs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(parse_config(workloads.render_config(name, 0, "tiny")))
        outputs.append(_outputs(outdir))
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0]["summary.json"])
    assert summary["positivity"]["ok"] and summary["picard"]["all_converged"]


@pytest.mark.parametrize("name, records", [("w1-periodic1d", 2), ("w2-farfield2d", 2),
                                           ("w4-vacuum1d-continuation", 4)])
def test_one_radiation_record_per_slab_solve(name, records, tmp_path, monkeypatch):
    # one transport record (counted by its flux weights) serves iterate 0 and
    # every sweep of a slab solve: w1 and w2 solve 2 slabs, w4 1 slab and 3
    # density-lifted ones (6, 6 and 12 records when each sweep built one)
    calls = []
    real = transport._flux_weights

    def counted(grids):
        calls.append(1)
        return real(grids)

    monkeypatch.setattr(transport, "_flux_weights", counted)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
    run_scenario(parse_config(workloads.render_config(name, 0, "full")))
    assert len(calls) == records


@pytest.mark.parametrize("name, steps, streams, traces, interps, solves", [
    ("w1-periodic1d", 120, 40, 0, 0,
     dict(momentum_step=120, _band_solve=120, _cg=0, _bicgstab=0, _matvec=120)),
    ("w2-farfield2d", 30, 10, 0, 0,
     dict(momentum_step=30, _band_solve=0, _cg=5, _bicgstab=25, _matvec=238)),
    ("w3-vacuum3d", 2, 1, 0, 0,
     dict(momentum_step=2, _band_solve=0, _cg=1, _bicgstab=1, _matvec=33)),
    ("w4-vacuum1d-continuation", 0, 40, 12, 180,
     dict(momentum_step=120, _band_solve=120, _cg=0, _bicgstab=0, _matvec=120))])
def test_dark_sweeps_make_no_transport_step(name, steps, streams, traces, interps,
                                            solves, tmp_path, monkeypatch):
    # w4 has no emission and I0 = 0, so none of its 120 sweep steps (12
    # sweeps x 10 steps) is stepped; w1, w2 and w3 emit, and keep theirs.  The
    # free streaming of iterate 0 and the characteristics traces do not change.
    # The 8 of w4's 12 traces that move interpolate 21 times each (once at the
    # start, twice per substep) and every trace once more for the density;
    # each 1D momentum step is one band LU solve and one residual product,
    # and the Krylov solves make 238 products in all on w2 (30 solves) and
    # 33 on w3 (2 solves, one 3D step per sweep), their start residuals and
    # verdicts included.  Short of a new algorithm, a faster fluid half
    # comes from cheaper calls, not from fewer
    calls = {}

    def count(owner, attr):
        real = getattr(owner, attr)
        calls[attr] = 0

        def counted(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(transport, "_transport_step")
    count(transport, "free_streaming_step")
    count(fluid, "_trace_backward")
    count(fluid, "_interp")
    count(picard, "momentum_step")
    for attr in ("_band_solve", "_cg", "_bicgstab", "_matvec"):
        count(fluid, attr)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
    run_scenario(parse_config(workloads.render_config(name, 0, "full")))
    assert calls == dict(_transport_step=steps, free_streaming_step=streams,
                         _trace_backward=traces, _interp=interps, **solves)


@pytest.mark.parametrize("name, reads", [("w1-periodic1d", 120), ("w2-farfield2d", 30),
                                         ("w4-vacuum1d-continuation", 120)])
def test_one_emission_read_per_radiation_step(name, reads, tmp_path, monkeypatch):
    # a radiation step forms its coefficients once, before its dark test, so
    # each of the sweep steps (w1 120, w2 30, w4 120, stepped or dark) reads
    # the emission table once; a dark test that read it on its own made it
    # 240, 60 and 240
    calls = []
    real = physics._tabulated_emission

    def counted_table(table):
        def counted(*args):
            calls.append(1)
            return table(*args)
        return real(counted)

    monkeypatch.setattr(physics, "_tabulated_emission", counted_table)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
    run_scenario(parse_config(workloads.render_config(name, 0, "full")))
    assert len(calls) == reads
