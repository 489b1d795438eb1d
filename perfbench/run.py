"""quadfield benchmark: time-to-blocks on the shipped fixtures.

Usage (from the repository root):

    python3 perfbench/run.py --workload half_disc --seed 0 --seconds 25 --trace 0

Workloads are defined in ``workloads.py`` and described in ``NOTES.md``.
Every process this script starts is fresh and single-threaded (BLAS pinned
to one thread).  Set-up is timed in several set-up-only processes and in the
process that then runs the operations; operations run in that one process,
one after another, until ``--seconds`` is spent.  The times of a timed run
are scaled to nominal machine speed with the probe of ``speed.py``; the raw
wall times are printed beside them.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics of a traced run.  Lines before
it print every metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, offset_index, write_inputs  # noqa: E402

SETUP_PROBES = 4            # set-up-only processes; the run process adds one sample
DEADLINE_S = 170.0          # the whole run, all processes included
WORK_DIR = ".perfbench_work"


class WorkerError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, deadline):
    """Run one worker; (its set-up time: wall seconds from start to its ``ready``
    line and that line's probe seconds and speed factor, its last stdout line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget exhausted before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    fields = ready.split()
    if len(fields) != 3 or fields[0] != "ready" or code != 0:
        raise WorkerError(f"worker {argv[:4]} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return (setup_s, float(fields[1]), float(fields[2])), (lines[-1] if lines else "")


def scaled(wall, spent, speed):
    """Seconds at nominal machine speed of ``wall`` seconds, ``spent`` of them
    in the probe's kernel, measured at speed factor ``speed``."""
    return (wall - spent) / speed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4, method="inclusive")


def round_times(rounds, key, at_nominal=False):
    """Per round, the mean of one time over the round's operations, divided
    by each operation's speed factor if ``at_nominal``."""
    return [statistics.fmean(op[key] / (op["speed"] if at_nominal else 1.0) for op in rnd)
            for rnd in rounds]


def end_to_end(report, setups):
    """{name: (value, unit, samples)} of a timed run, attempted, failed, and the
    raw wall-time samples of set-up and of the rounds, for the printed lines."""
    runs = round_times(report["rounds"], "wall", at_nominal=True)
    setup_samples = [scaled(*s) for s in setups]
    checks = report["checks"]
    passed = [0.0 if c["problems"] else 1.0 for c in checks]
    quality = [c["quality"] for c in checks if c["quality"] is not None]
    metrics = {
        "run_s": (statistics.median(runs), "s", runs),
        "setup_s": (statistics.median(setup_samples), "s", setup_samples),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", [report["peak_rss_mb"]]),
        "pass_ratio": (statistics.fmean(passed), "ratio", passed),
        "block_min_sj": (min(quality) if quality else 0.0, "ratio", quality),
    }
    raw = {"setup_wall_s": [s[0] for s in setups],
           "run_wall_s": round_times(report["rounds"], "wall"),
           "speed_factor": [op["speed"] for rnd in report["rounds"] for op in rnd]}
    return metrics, len(checks), passed.count(0.0), raw


def per_layer(report):
    """{name: (value, unit, samples)} of a traced run, attempted, failed."""
    ratios = ("reftri.points_per_call", "trimesh.invert_hit_ratio",
              "field.inversions_per_locate")
    metrics = {name: (value, "ratio" if name in ratios
                      else "s" if name.endswith("_s") else "count", [])
               for name, value in report["layers"].items()}
    untraced = statistics.median(round_times(report["untraced"], "wall"))
    traced = statistics.median(round_times(report["rounds"], "wall"))
    drift = [c["drift"] for c in report["checks"] if c["drift"] is not None]
    metrics["cli.cpu_s"] = (statistics.median(round_times(report["untraced"], "cpu")), "s", [])
    metrics["cli.artifact_drift"] = (max(drift, default=0), "count", [])
    metrics["trace.untraced_run_s"] = (untraced, "s", [])
    metrics["trace.traced_run_s"] = (traced, "s", [])
    metrics["trace.overhead_s"] = (traced - untraced, "s", [])
    failed = sum(1 for c in report["checks"] if c["problems"])
    return metrics, len(report["checks"]), failed, {}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    sys.exit(128 + signum)      # unwinds through spawn(), which kills its worker


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "quadfield" / "cli.py").is_file():
        print(f"error: no quadfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = ROOT / WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = write_inputs(ROOT, workload, args.seed, work)
        common = ["--workload", workload.name, "--inputs", json.dumps(inputs),
                  "--work", str(work)]
        setup_samples = [spawn(["--mode", "setup", *common], deadline)[0]
                         for _ in range(SETUP_PROBES)]
        setup, line = spawn(["--mode", "run", *common, "--seconds", str(args.seconds),
                             "--trace", str(args.trace),
                             "--offset", str(offset_index(args.seed))], deadline)
        setup_samples.append(setup)
        report = json.loads(line)
    except (WorkerError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass

    if args.trace:
        metrics, attempted, failed, raw = per_layer(report)
    else:
        metrics, attempted, failed, raw = end_to_end(report, setup_samples)
    for check in report["checks"]:
        for problem in check["problems"]:
            print(f"check failed: {problem}")
    for name, (value, unit, samples) in metrics.items():
        line = f"{workload.name} {name} = {value:.6g} {unit}"
        if samples:
            q1, _, q3 = quartiles(samples)
            line += f"  (n={len(samples)}, q1={q1:.6g}, q3={q3:.6g})"
        print(line)
    for name, samples in raw.items():
        q1, median, q3 = quartiles(samples)
        print(f"{workload.name} {name} = {median:.6g} (raw, not a metric;"
              f" n={len(samples)}, q1={q1:.6g}, q3={q3:.6g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
