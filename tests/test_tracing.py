"""The benchmark tracer stays installable on rhlab: every name it wraps
exists, uninstalling it restores every binding, and on the tiny workloads
every layer it saw still reads."""

import importlib.util
import sys
from pathlib import Path

import pytest

import rhlab  # noqa: F401  (loads every submodule)
from rhlab import runner
from rhlab.config import parse_config

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = _load("tracing"), _load("workloads")


def _bindings() -> dict:
    """{(module, name): object} of every rhlab module attribute, and of
    every attribute of the classes a module defines, as "Class.name"."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "rhlab" or name.startswith("rhlab."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update(((name, f"{attr}.{member}"), item)
                               for member, item in vars(value).items())
    return out


def test_tracer_wraps_and_restores_the_rhlab_bindings():
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
        wrapped = {key for key in before if during[key] is not before[key]}
        assert set(tracing.SPANS.values()) | set(tracing.COUNTED.values()) <= wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []
    # fluid.spla, read through the module __getattr__ before, is left bound
    assert after.keys() - before.keys() <= {("rhlab.fluid", "spla")}


# the per-layer metrics that read > 0 on every tiny workload at seed 0, with
# the tracer installed after parse_config; 24 of the 43 read > 0 on some
_SEEN_BY_ALL = {
    "diagnostics.monitor_s", "fluid.heat_smooth_s", "fluid.momentum_assembly_s",
    "fluid.momentum_calls", "grid.pad_ghost_calls", "grid.snapshot_bytes",
    "grid.snapshot_files", "grid.snapshot_write_s", "physics.pressure_s",
    "picard.gamma_metric_s", "picard.max_ratio", "picard.self_s", "picard.slabs",
    "picard.sweeps", "picard.useful_sweep_ratio", "runner.self_s", "scenarios.build_s",
    "transport.free_stream_s", "transport.free_stream_steps"}
# name -> (the further metrics it reads > 0, momentum calls, free-streaming
# steps, sweeps, slab solves)
_TINY_RUNS = {
    "w1-periodic1d": ({"fluid.continuity_fv_s"}, 30, 10, 3, 1),
    "w2-farfield2d": ({"fluid.continuity_fv_s", "diagnostics.farfield_s"}, 4, 2, 2, 1),
    "w4-vacuum1d-continuation": (
        {"fluid.continuity_char_s", "norms.lp_calls", "picard.continuation_s"}, 24, 8, 12, 4),
}


@pytest.mark.parametrize("name", sorted(_TINY_RUNS))
def test_tracer_sees_every_layer_of_a_tiny_run(name, tmp_path, monkeypatch):
    cfg = parse_config(workloads.render_config(name, 0, "tiny"))
    outdir = tmp_path / "out"
    monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(outdir))
    tracer = tracing.Tracer().install()
    try:
        runner.run_scenario(cfg)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(sum(p.stat().st_size
                                       for p in (outdir / "snapshots").iterdir()))
    extra, momentum, free_stream, sweeps, slabs = _TINY_RUNS[name]
    assert len(metrics) == 43
    assert {k for k, v in metrics.items() if v > 0} == _SEEN_BY_ALL | extra
    assert (metrics["fluid.momentum_calls"], metrics["transport.free_stream_steps"],
            metrics["picard.sweeps"], metrics["picard.slabs"]) == \
        (momentum, free_stream, sweeps, slabs)
