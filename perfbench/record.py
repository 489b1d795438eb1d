"""Record the correctness reference of every workload and seed offset.

    python3 perfbench/record.py [workload ...]

Runs each workload's operations once per offset of ``workloads.OFFSETS`` and
writes ``perfbench/reference.json``: exit codes, topology counts, block
counts, artifact checksums and, for mesh+solve workloads, the solved field
at fixed probe points.  Run it only on a commit whose outputs are accepted
as correct; the file in the repository was recorded at the commit that
added the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from check import load_solution, probe_points, sample_field, summarize  # noqa: E402
from workloads import OFFSETS, WORKLOADS, op_argvs, write_inputs  # noqa: E402


def record(workload, offset, work):
    from quadfield.cli import main

    inputs = write_inputs(ROOT, workload, offset, work)
    out = {}
    for name in workload.domains:
        dest = work / f"out-{name}"
        codes = [main(argv) for argv in op_argvs(workload, inputs[name], dest)]
        facts = {"exit_codes": codes, **summarize(dest, workload.full_run)}
        if not workload.full_run:
            sol = load_solution(dest)
            facts["probe_points"] = probe_points(sol.mesh)
            facts["field"] = sample_field(sol, facts["probe_points"]).tolist()
        out[name] = facts
    return out


def main(names):
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    work = ROOT / ".perfbench_work" / "record"
    for wname in names or sorted(WORKLOADS):
        workload = WORKLOADS[wname]
        entry = {}
        for k in range(len(OFFSETS)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            entry[str(k)] = record(workload, k, work)
            print(wname, k, {d: {key: v for key, v in f.items()
                                 if key not in ("sha256", "probe_points", "field")}
                             for d, f in entry[str(k)].items()}, flush=True)
        reference[wname] = entry
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
