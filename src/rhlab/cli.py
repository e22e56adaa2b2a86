"""Command-line entry point.

Commands: ``run <config>``, ``check-compat <config>``, ``validate-model
<config>``, ``list-scenarios``.  The environment variable RHLAB_OUTPUT_DIR
overrides the configured output directory.  Error exit codes: config 2,
CFL/step size 3, linear solver 4, fixed-point iteration 5, and 6 when ``run``
finishes but its own summary fails (positivity violated or a Picard slab not
converged).
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import ConfigError, RHLabError
from .runner import check_compat, run_scenario, validate_model
from .scenarios import builtin_scenarios

SUMMARY_FAILED_EXIT = 6     # the run finished, but its summary reports a failure


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _cmd_run(args) -> int:
    summary = run_scenario(_load(args.config))
    positive = summary["positivity"]["ok"]
    converged = summary["picard"]["all_converged"]
    print(f"run finished: {summary['snapshots']} snapshots, "
          f"mass drift {summary['conservation']['relative_drift']:.3e}, "
          f"positivity {'ok' if positive else 'VIOLATED'}, "
          f"picard {'converged' if converged else 'NOT CONVERGED'}")
    failed = [text for ok, text in ((positive, "positivity violated"),
                                    (converged, "a Picard slab did not converge"))
              if not ok]
    if failed:
        print(f"error: run summary failed: {'; '.join(failed)}", file=sys.stderr)
        return SUMMARY_FAILED_EXIT
    return 0


def _cmd_check_compat(args) -> int:
    result = check_compat(_load(args.config))
    trace = ", ".join(f"{cut:.3g}: {val:.6g} ({cells} cells at or below)"
                      for cut, val, cells in result["refinement_trace"])
    print(f"compatibility verdict: {result['verdict']} (g_l2 trace {trace})")
    return 0


def _cmd_validate_model(args) -> int:
    result = validate_model(_load(args.config))
    for name in ("kernel_integrability", "sigma_regularity"):
        rep = result[name]
        status = "pass" if rep["passed"] else "FAIL"
        print(f"{name}: {status}")
        for e in rep["entries"]:
            loc = f" at {tuple(e['location'])}" if e["location"] else ""
            print(f"  {e['name']}: value {e['value']:.6g} vs bound "
                  f"{e['bound']:.6g} -> {'ok' if e['passed'] else 'fail'}{loc}")
    return 0


def _cmd_list_scenarios(_args) -> int:
    for name, scenario in sorted(builtin_scenarios().items()):
        print(f"{name:18s} {scenario.description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhlab",
        description="numerical laboratory for compressible radiation hydrodynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a configured run")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check-compat",
                       help="evaluate the initial-layer compatibility verdict")
    p.add_argument("config")
    p.set_defaults(func=_cmd_check_compat)

    p = sub.add_parser("validate-model",
                       help="run the coefficient-model validators")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate_model)

    p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    p.set_defaults(func=_cmd_list_scenarios)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RHLabError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
