"""rhlab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Closed loop, one client: one workload repetition at a time, each in a fresh
child process (``child.py``) that imports rhlab from the checkout's ``src``
and runs the generated config through ``parse_config`` ->
``runner.build_problem`` -> ``runner.run_scenario``, as ``rhlab run`` does.
BLAS/OpenMP threads are pinned to 1 in every child.

``--trace 0`` repeats untraced runs until ``--seconds`` have passed and
reports the end-to-end metrics (medians over repetitions).  Set-up and run
times are rescaled to reference host speed by the probe in ``hostspeed.py``;
the raw wall times are printed alongside.  ``--trace 1``
alternates untraced and traced runs for the same time and reports the
per-layer metrics of the traced runs plus the tracing overhead.  Each
repetition's outputs are checked; a failed check or an exception counts in
``failed`` and its timing is left out.

Earlier lines of standard output carry the machine record, the input draw,
quartiles and sample counts; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0        # the whole run ends well within 180 s
WORK_DIR = ".perfbench_work"
CHILD = HERE / "child.py"


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment_record(root: Path) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or blas.get("name")
    except (TypeError, KeyError, AttributeError):
        openblas = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rhlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "commit": _commit(root),
        "src_sha256": src.hexdigest(),
    }


class Runner:
    """Spawns child repetitions against one generated config."""

    def __init__(self, root: Path, workload: str, seed: int, size: str):
        self.root = root
        self.workload, self.seed, self.size = workload, seed, size
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.config = self.work / f"{workload}-{size}-seed{seed}.ini"
        self.config.write_text(workloads.render_config(workload, seed, size),
                               encoding="utf-8")
        self.spans = self.work / f"spans-{workload}-{size}-seed{seed}.jsonl"
        self.start = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, traced: bool = False) -> dict:
        """Run one child; returns its record with the set-up and run times
        added, raw (``*_wall_s``) and at reference host speed (``setup_s``,
        ``run_s``), or a record carrying ``error``."""
        self.count += 1
        cmd = [sys.executable, str(CHILD), "--config", str(self.config),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size,
               "--out", str(self.work / f"out-{os.getpid()}-{self.count}")]
        if traced:
            cmd += ["--spans", str(self.spans)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        record = json.loads(lines[-1])
        record["setup_wall_s"] = record.pop("ready") - t0
        record["setup_s"] = record["setup_wall_s"] * hostspeed.REFERENCE_S / record["probe_before"]
        if "probe_after" in record:
            probe = 0.5 * (record["probe_before"] + record["probe_after"])
            record["run_s"] = record["run_wall_s"] * hostspeed.REFERENCE_S / probe
        return record

    def repeat(self, seconds: float, step) -> list:
        """Call ``step`` (which runs one or more children) until ``seconds``
        have passed, at least once, and never past the deadline."""
        out = []
        longest = 0.0
        t_begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            out.extend(step())
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() - t_begin >= seconds \
                    or self.remaining() < 1.5 * longest \
                    or any(r.get("error") == "timed out" for r in out):
                return out


def _judge(reps: list) -> tuple[list, list]:
    """Split repetitions into passed and failed.  A rep fails on an
    exception, a failed output check, or final values that disagree with the
    first passing rep of this run."""
    passed, failed = [], []
    first = None
    for rep in reps:
        check = rep.get("check")
        if "error" in rep or not check or not check["ok"]:
            failed.append(rep)
            continue
        if first is not None and not all(
                workloads.close(check["final"][k], first[k]) for k in first):
            check["errors"] = ["disagrees with an earlier repetition"]
            failed.append(rep)
            continue
        first = first or check["final"]
        passed.append(rep)
    return passed, failed


def _failures(failed: list) -> list:
    return [r.get("error") or r.get("check", {}).get("errors") for r in failed]


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list, list, dict]:
    reps = runner.repeat(seconds, lambda: [runner.spawn()])
    passed, failed = _judge(reps)
    if not passed:
        raise RuntimeError(f"no repetition passed: {_failures(failed)[:1]}")
    samples = {
        "run_s": _quartiles([r["run_s"] for r in passed]),
        "setup_s": _quartiles([r["setup_s"] for r in passed]),
        "peak_rss_mb": _quartiles([r["peak_rss_mb"] for r in passed]),
        "run_wall_s": _quartiles([r["run_wall_s"] for r in passed]),
        "setup_wall_s": _quartiles([r["setup_wall_s"] for r in passed]),
        "probe_s": _quartiles([r["probe_before"] for r in passed]),
    }
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": samples[k]["median"], "unit": units[k]} for k in units}
    return metrics, passed, failed, samples


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list, list, dict]:
    reps = runner.repeat(seconds, lambda: [runner.spawn(), runner.spawn(traced=True)])
    plain = [r for i, r in enumerate(reps) if i % 2 == 0]
    traced = [r for i, r in enumerate(reps) if i % 2 == 1]
    p_plain, f_plain = _judge(plain)
    p_traced, f_traced = _judge(traced)
    if not p_plain or not p_traced:
        raise RuntimeError(f"no traced pair passed: {_failures(f_plain + f_traced)[:1]}")
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(r["run_s"] for r in p_traced)
                     - statistics.median(r["run_s"] for r in p_plain))
        else:
            value = statistics.median(r["layers"][name] for r in p_traced)
        metrics[name] = {"value": value, "unit": unit}
    samples = {"run_s_untraced": _quartiles([r["run_s"] for r in p_plain]),
               "run_s_traced": _quartiles([r["run_s"] for r in p_traced]),
               "run_wall_s_untraced": _quartiles([r["run_wall_s"] for r in p_plain]),
               "run_wall_s_traced": _quartiles([r["run_wall_s"] for r in p_traced]),
               "spans_file": str(runner.spans.relative_to(runner.root))}
    return metrics, p_plain + p_traced, f_plain + f_traced, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rhlab benchmark driver")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rhlab" / "__init__.py").is_file():
        print(f"no rhlab sources under {ROOT / 'src'}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print(json.dumps({"environment": environment_record(ROOT)}), flush=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "scenario": workloads.scenario_draw(args.workload, args.seed),
                      "loop": "closed, 1 client"}), flush=True)

    runner = Runner(ROOT, args.workload, args.seed, args.size)
    measure = run_traced if args.trace else run_untraced
    try:
        metrics, passed, failed, samples = measure(runner, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = len(passed) + len(failed)
    identical = [r["check"]["byte_identical"] for r in passed]
    print(json.dumps({
        "samples": samples,
        "failed_fraction": len(failed) / attempted,
        "failures": _failures(failed),
        "byte_identical_to_reference": identical[0] if len(set(identical)) == 1 else identical,
        "regime": passed[0]["check"]["regime"] if passed else None,
    }), flush=True)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
