"""One benchmark repetition in a fresh process.

Imports rhlab from the checkout's ``src``, parses the generated config, builds
the problem, probes the host speed, times ``runner.run_scenario``, probes
the host speed again and checks the outputs.
Prints one JSON record on standard output.

    python3 perfbench/child.py --config CFG --workload NAME --seed N \
        --size full|tiny --out DIR [--spans PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

OUTPUT_FILES = ("summary.json", "monitor.csv", "picard.csv")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(outdir: Path, workload: str, seed: int, size: str) -> dict:
    """Output check of one run: invariants always, the stored reference when
    there is one for this (workload, size, seed)."""
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    final = {k: float(summary["final"][k]) for k in ("phi", "theta", "mass")}
    errors = []
    if not summary["positivity"]["ok"]:
        errors.append("positivity violated")
    if not summary["picard"]["all_converged"]:
        errors.append("a Picard slab did not converge")
    drift = float(summary["conservation"]["relative_drift"])
    if workload.startswith("w1") and not drift <= workloads.W1_MASS_DRIFT_MAX:
        errors.append(f"mass drift {drift:.3e} > {workloads.W1_MASS_DRIFT_MAX:g}")
    digests = {name: _digest(outdir / name) for name in OUTPUT_FILES}
    ref = workloads.load_references().get(workloads.reference_key(workload, seed, size))
    identical = None
    if ref is not None:
        for key, value in final.items():
            if not workloads.close(value, ref["final"][key]):
                errors.append(f"final {key} {value!r} differs from reference "
                              f"{ref['final'][key]!r}")
        identical = digests == ref["sha256"]
    return {"ok": not errors, "errors": errors, "final": final,
            "sha256": digests, "has_reference": ref is not None,
            "byte_identical": identical,
            "regime": {"picard_sweeps": summary["picard"]["total_iterations"],
                       "snapshots": summary["snapshots"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import rhlab
    if Path(rhlab.__file__).resolve().parent != ROOT / "src" / "rhlab":
        print(f"rhlab imported from {rhlab.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    from rhlab import runner

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer().install()
    cfg = rhlab.parse_config(Path(args.config).read_text(encoding="utf-8"))
    runner.build_problem(cfg)
    record = {"ready": time.monotonic(), "probe_before": hostspeed.probe()}

    outdir = Path(args.out)
    os.environ[runner.OUTPUT_DIR_ENV] = str(outdir)
    try:
        start = time.perf_counter()
        runner.run_scenario(cfg)
        record["run_wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["probe_after"] = hostspeed.probe()
        if tracer is not None:
            tracer.uninstall()
        record["check"] = check_outputs(outdir, args.workload, args.seed, args.size)
        if tracer is not None:
            snap = outdir / "snapshots"
            snap_bytes = sum(p.stat().st_size for p in snap.iterdir()) if snap.is_dir() else 0
            record["layers"] = tracer.layer_metrics(snap_bytes)
            tracer.write_spans(args.spans)
    except Exception:
        record["error"] = traceback.format_exc(limit=5)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
