"""Tests of the benchmark itself: its correctness check and its tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from check import block_scaled_jacobians, check_operation  # noqa: E402
from run import end_to_end, per_layer  # noqa: E402
from spans import Tracer, layer_metrics, snapshot, span_totals  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import OFFSETS, WORKLOADS, op_argvs, translate, write_inputs  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


@pytest.fixture(scope="module")
def traced_half_disc(tmp_path_factory):
    """One traced half_disc operation: (out dir, exit codes, snapshots, tracer data)."""
    from quadfield import cli

    work = tmp_path_factory.mktemp("half_disc")
    workload = WORKLOADS["half_disc"]
    inputs = write_inputs(HERE.parent, workload, 0, work)
    out = work / "out"
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        during = snapshot()
        codes = [cli.main(argv) for argv in op_argvs(workload, inputs["half_disc"], out)]
    finally:
        tracer.uninstall()
    after = snapshot()
    spans, counters = tracer.take()
    return out, codes, (before, during, after), (tracer.names, spans, counters)


def test_check_passes_on_seed_output(traced_half_disc):
    out, codes, _, _ = traced_half_disc
    ref = REFERENCE["half_disc"]["0"]["half_disc"]
    problems, quality, drift = check_operation(out, True, codes, ref)
    assert problems == []
    assert quality > 0
    assert drift == 0


def test_check_fails_on_removed_block(traced_half_disc, tmp_path):
    out, codes, _, _ = traced_half_disc
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    doc = json.loads((bad / "blocks.json").read_text())
    doc["blocks"].pop()
    (bad / "blocks.json").write_text(json.dumps(doc))
    ref = REFERENCE["half_disc"]["0"]["half_disc"]
    problems, _, drift = check_operation(bad, True, codes, ref)
    assert any(p.startswith("blocks:") for p in problems)
    assert drift == 1


def test_check_fails_on_inverted_block():
    square = [[[0, 0], [1, 0]], [[1, 0], [1, 1]], [[1, 1], [0, 1]], [[0, 1], [0, 0]]]
    assert block_scaled_jacobians(square).min() == pytest.approx(1.0)
    mirrored = [[[x, -y] for x, y in side] for side in square]
    assert block_scaled_jacobians(mirrored).max() < 0


def test_check_fails_on_wrong_exit_code(traced_half_disc):
    out, _, _, _ = traced_half_disc
    ref = REFERENCE["half_disc"]["0"]["half_disc"]
    problems, _, _ = check_operation(out, True, [5], ref)
    assert problems


def test_tracer_restores_quadfield(traced_half_disc):
    from quadfield import cli, trimesh

    _, _, (before, during, after), _ = traced_half_disc
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)
    changed = {key for key in before if during.get(key) is not before[key]}
    # a function imported by name is patched where it is looked up too
    assert ("quadfield.cli", "elevate_and_curve") in changed
    assert ("quadfield.trimesh", "elevate_and_curve") in changed
    assert ("quadfield.reftri", "RefTriangle.basis_at") in changed
    assert cli.elevate_and_curve is trimesh.elevate_and_curve
    assert not hasattr(trimesh.TriMesh.invert_map, "__wrapped__")


def test_traced_layer_metrics(traced_half_disc):
    _, codes, _, (names, spans, counters) = traced_half_disc
    assert codes == [0]
    layers = layer_metrics(span_totals(names, spans), counters, 1)
    ref = REFERENCE["half_disc"]["0"]["half_disc"]
    assert layers["singular.critical_points"] == ref["critical_points"]
    assert layers["blockdecomp.faces"] == ref["blocks"]
    assert layers["quadblocks.quads"] == 16 * ref["blocks"]
    assert layers["reftri.basis_calls"] > 0 and layers["reftri.basis_s"] > 0
    assert 0 < layers["trimesh.invert_hit_ratio"] < 1
    assert layers["field.inversions_per_locate"] >= 1
    assert layers["tracer.rounds"] > 0 and layers["tracer.steps"] >= layers["tracer.rounds"]
    for name in ("vtkio.write_s", "svgio.write_s", "msh.write_s"):
        assert layers[name] > 0


def test_self_time_subtracts_children():
    names = ["a", "b"]
    spans = {"name": np.array([0, 1, 1]), "parent": np.array([-1, 0, 0]),
             "t0": np.array([0.0, 1.0, 3.0]), "t1": np.array([10.0, 2.0, 5.0])}
    totals = span_totals(names, spans)
    assert totals["a"][:3] == (1, 10.0, 7.0)
    assert totals["b"][:3] == (2, 3.0, 3.0)
    assert totals["a"][3] == {"b": 2}


def test_tracer_uninstalls_after_a_failed_install(monkeypatch):
    import spans

    before = snapshot()
    broken = spans.TARGETS + (("quadfield.cli", "no_such_function", None, None),)
    monkeypatch.setattr(spans, "TARGETS", broken)
    with pytest.raises(KeyError):
        Tracer().install()
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_seed_zero_is_the_shipped_fixture():
    from quadfield.geometry import domain_from_json, fixture_path

    doc = json.loads(Path(fixture_path("half_disc")).read_text())
    assert OFFSETS[0] == (0.0, 0.0)
    assert domain_from_json(translate(doc, 0.0, 0.0)).to_json() == \
        domain_from_json(doc).to_json()
    moved = translate(doc, *OFFSETS[1])
    assert moved["loops"][0]["segments"][0]["p0"] == [-1 + 0.5, 0 - 0.25]


def test_result_metrics_match_benchmark_json(traced_half_disc):
    _, codes, _, (names, spans, counters) = traced_half_disc
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    op = {"domain": "half_disc", "out": "out", "codes": codes, "wall": 9.0, "cpu": 8.5,
          "speed": 1.5, "rss_mb": 74.0}
    check = {"problems": [], "quality": 0.5, "drift": 0}
    report = {"rounds": [[op]], "untraced": [[op]], "checks": [check],
              "peak_rss_mb": 74.0,
              "layers": layer_metrics(span_totals(names, spans), counters, 1)}
    metrics, attempted, failed, _ = end_to_end(report, [(0.6, 0.0, 1.0), (0.9, 0.1, 2.0)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit, _) in metrics.items()}
    assert (attempted, failed) == (1, 0)
    assert metrics["run_s"][0] == pytest.approx(6.0)
    assert metrics["setup_s"][2] == pytest.approx([0.6, 0.4])
    metrics, _, _, _ = per_layer(report)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit, _) in metrics.items()}


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(i * i for i in range(1000))
    spent, speed = probe.stop()
    assert len(probe.samples) >= 5
    assert 0 < spent < 0.3
    assert speed > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
