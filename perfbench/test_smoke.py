"""Smoke test of the benchmark itself, on the tiny variant of every workload.

    python3 -m pytest -q perfbench

Runs the driver untraced and traced, checks that the result line carries
exactly the metrics BENCHMARK.json declares, that the output check passes
against the stored tiny references and catches a broken run, that the tracer
wraps every binding of a function and restores it, and that the driver
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_declared_metrics(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result, detail = lines[-1], lines[-2]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert detail["byte_identical_to_reference"] is True
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["picard.sweeps"]["value"] >= 1
        assert result["metrics"]["fluid.momentum_calls"]["value"] >= 1


def test_output_check_catches_broken_run(tmp_path):
    cfg = workloads.render_config("w1-periodic1d", 0, "tiny")
    import rhlab
    from rhlab import runner
    monkey = pytest.MonkeyPatch()
    monkey.setenv(runner.OUTPUT_DIR_ENV, str(tmp_path))
    try:
        runner.run_scenario(rhlab.parse_config(cfg))
    finally:
        monkey.undo()
    good = child.check_outputs(tmp_path, "w1-periodic1d", 0, "tiny")
    assert good["ok"] and good["byte_identical"], good["errors"]

    summary = tmp_path / "summary.json"
    text = summary.read_text(encoding="utf-8")
    phi = json.loads(text)["final"]["phi"]
    summary.write_text(text.replace(format(phi, ".17g"), format(phi * 1.001, ".17g"), 1),
                       encoding="utf-8")
    bad = child.check_outputs(tmp_path, "w1-periodic1d", 0, "tiny")
    assert not bad["ok"] and not bad["byte_identical"]
    assert any("final phi" in e for e in bad["errors"])


def test_tracer_wraps_every_binding_and_restores():
    import rhlab.fluid
    import rhlab.picard
    import rhlab.transport
    originals = (rhlab.fluid.momentum_step, rhlab.transport.pad_ghost,
                 rhlab.fluid.spla)
    tracer = tracing.Tracer().install()
    try:
        assert rhlab.picard.momentum_step is rhlab.fluid.momentum_step
        assert rhlab.picard.momentum_step is not originals[0]
        assert rhlab.transport.pad_ghost is rhlab.grid.pad_ghost
        assert rhlab.transport.pad_ghost is not originals[1]
        assert rhlab.fluid.spla.spilu is not originals[2].spilu
        assert rhlab.fluid.spla.LinearOperator is originals[2].LinearOperator
    finally:
        tracer.uninstall()
    assert (rhlab.fluid.momentum_step, rhlab.transport.pad_ghost,
            rhlab.fluid.spla) == originals
    assert rhlab.picard.momentum_step is originals[0]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [(0, -1, "a", 0.0, 10.0), (1, 0, "b", 1.0, 4.0),
                    (2, 1, "b", 2.0, 3.0), (3, 0, "c", 5.0, 6.0)]
    calls, inclusive, own = tracer._times()
    assert calls["b"] == 2
    assert inclusive["b"] == 3.0          # the nested b is not counted twice
    assert own["a"] == 10.0 - 3.0 - 1.0
    assert own["b"] == (3.0 - 1.0) + 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "w1-periodic1d", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
