"""The benchmark's run configs stay valid: each one parses and builds, and
each tiny variant runs without a warning to byte-identical outputs."""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

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
