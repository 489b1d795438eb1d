"""One fresh benchmark process: set up, run operations, check them.

``--mode setup`` only sets up: import quadfield, load the domains, build
``ref_triangle(order)``.  It prints ``ready`` when done, so the launcher can
time set-up from process start.  ``--mode run`` sets up the same way, then
runs rounds of operations through ``quadfield.cli.main`` until the time
budget is spent, checks every operation's artifacts after the timed region,
and prints one JSON line.  With ``--trace 1`` it runs one untraced round,
then traced rounds with the wrappers of ``spans.py`` installed.

Set-up and the operations of a timed run are measured with the machine-speed
probe of ``speed.py`` running; the ``ready`` line carries its time and speed
factor for set-up, every operation its own.  Traced runs go without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, op_argvs  # noqa: E402


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--inputs", required=True, help="JSON {fixture: domain path}")
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--offset", type=int, default=0)
    return p.parse_args()


def setup(workload, inputs):
    import quadfield.cli  # noqa: F401  (the whole package and numpy/scipy)
    from quadfield.geometry import load_domain
    from quadfield.reftri import ref_triangle

    domains = {name: load_domain(path) for name, path in inputs.items()}
    ref_triangle(workload.order)
    return domains


def run_round(workload, inputs, work, tag, probe):
    """One operation per domain: its domain, out dir, exit codes, wall and CPU time
    without the probe's kernel, the probe's speed factor (1.0 without a probe)."""
    from quadfield import cli

    ops = []
    for name in workload.domains:
        out = Path(work) / f"{tag}-{name}"
        argvs = op_argvs(workload, inputs[name], out)
        gc.collect()            # start each operation from a clean heap, as a fresh CLI does
        if probe is not None:
            probe.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in argvs]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        spent, speed = probe.stop() if probe is not None else (0.0, 1.0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops.append({"domain": name, "out": str(out), "codes": codes,
                    "wall": wall - spent, "cpu": cpu - spent, "speed": speed,
                    "rss_mb": rss_mb})
    return ops


def run_rounds(workload, inputs, work, seconds, prefix, probe=None):
    """At least one round, then rounds while the next would end nearer the budget."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(workload, inputs, work, f"{prefix}{len(rounds)}", probe))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


def check_all(workload, domains, ops, reference, offset):
    from check import check_operation

    results = []
    for op in ops:
        ref = reference[workload.name][str(offset)][op["domain"]]
        problems, quality, drift = check_operation(
            op["out"], workload.full_run, op["codes"], ref,
            holes=len(domains[op["domain"]].holes))
        results.append({"problems": problems, "quality": quality, "drift": drift})
    return results


def main():
    args = _parse()
    workload = WORKLOADS[args.workload]
    inputs = json.loads(args.inputs)
    probe = None if args.trace else SpeedProbe()
    if probe is not None:
        probe.start()
    domains = setup(workload, inputs)
    spent, speed = probe.stop() if probe is not None else (0.0, 1.0)
    print(f"ready {spent!r} {speed!r}", flush=True)
    if args.mode == "setup":
        return 0

    report = {}
    if args.trace:
        from spans import Tracer, layer_metrics, span_totals

        start = time.perf_counter()
        untraced = run_rounds(workload, inputs, args.work, 0.0, "u")
        left = args.seconds - (time.perf_counter() - start)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, inputs, args.work, left, "t")
        finally:
            tracer.uninstall()
        spans, counters = tracer.take()
        traced_ops = [op for rnd in traced for op in rnd]
        report["layers"] = layer_metrics(span_totals(tracer.names, spans), counters,
                                         len(traced_ops))
        report["untraced"] = untraced
        rounds = traced
    else:
        rounds = run_rounds(workload, inputs, args.work, args.seconds, "r", probe)
    report["rounds"] = rounds
    # after the first round only: later rounds add heap fragmentation that a
    # fresh CLI process never sees, and their number depends on machine speed
    report["peak_rss_mb"] = rounds[0][-1]["rss_mb"]

    reference = json.loads((HERE / "reference.json").read_text())
    ops = [op for rnd in report.get("untraced", []) + rounds for op in rnd]
    report["checks"] = check_all(workload, domains, ops, reference, args.offset)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
