"""The benchmark's run configs stay valid: each one parses and builds."""

import importlib.util
from pathlib import Path

import pytest

from rhlab.config import parse_config
from rhlab.runner import build_problem

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_builds(name, size):
    prob = build_problem(parse_config(workloads.render_config(name, 0, size)))
    assert prob.cfg.scenario == workloads.WORKLOADS[name][0]["scenario"]["name"]
