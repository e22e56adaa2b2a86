"""The benchmark tracer stays installable on rhlab: every name it wraps
exists, and uninstalling it restores every binding."""

import importlib.util
import sys
from pathlib import Path

import rhlab  # noqa: F401  (loads every submodule)

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


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
