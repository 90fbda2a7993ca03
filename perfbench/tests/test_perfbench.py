"""Tests of the benchmark itself: span arithmetic, a tiny run of every
workload, the failure counter, and BENCHMARK.json's agreement with the
metric definitions.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import calibrate
from perfbench.metrics import END_TO_END, PER_LAYER, percentile
from perfbench.replay import WorkloadRun
from perfbench.tracer import OP_SPANS, SpanTable, Tracer, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _tiny(name: str):
    """The workload cut to a first pass of 2000 ops (crashes every 500)."""
    return replace(WORKLOADS[name], det_ops=2000, crash_every=500)


def _trace(spans):
    """A Tracer holding ``(name, start, end, parent, op)`` spans."""
    tracer = Tracer()
    for name, start, end, parent, op in spans:
        tracer.name_of.append(tracer._name_id(name))
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ops.append(op)
    return tracer


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    starts = [0, 10, 12, 25, 60]
    ends = [100, 30, 20, 50, 70]
    parents = [-1, 0, 1, 0, 0]
    # Children of span 0 cover [10, 50) and [60, 70): 50 of its 100.
    assert self_times(starts, ends, parents) == [50, 12, 8, 25, 10]


def test_self_time_clips_children_to_their_parent():
    assert self_times([0, 5], [10, 20], [-1, 0]) == [5, 15]


def test_span_table_means_counts_and_coverage():
    tracer = _trace(
        [
            ("op.read", 0, 10_000, -1, 0),
            ("storage.get_page", 1_000, 9_000, 0, 0),
            ("flash.read_page", 2_000, 4_000, 1, 0),
            ("op.read", 20_000, 24_000, -1, 1),
            ("storage.get_page", 20_000, 24_000, 3, 1),
            ("storage.get_page", 30_000, 31_000, -1, -1),  # outside any op
        ]
    )
    table = SpanTable(tracer, det_ops=1)
    assert table.calls["storage.get_page"] == 2
    assert table.det_calls == {"op.read": 1, "storage.get_page": 1, "flash.read_page": 1}
    assert table.mean_self_us(["storage.get_page"]) == pytest.approx((6.0 + 4.0) / 2)
    assert table.mean_total_us(["storage.get_page"]) == pytest.approx((8.0 + 4.0) / 2)
    assert table.child_calls == {
        ("op.read", "storage.get_page"): 1,
        ("storage.get_page", "flash.read_page"): 1,
    }
    assert table.coverage() == pytest.approx(12 / 14)


def test_wrapped_calls_nest_and_carry_the_op_id():
    tracer = Tracer()

    def inner():
        return 7

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        return traced_inner() + 1

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == 8 and len(tracer) == 0  # disabled: no spans
    tracer.enabled = True
    tracer.op_id = 42
    assert traced_outer() == 8
    assert [tracer.names[i] for i in tracer.name_of] == ["outer", "inner"]
    assert list(tracer.parents) == [-1, 0]
    assert list(tracer.ops) == [42, 42]
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))


def test_install_patches_and_uninstall_restores():
    from repro.core.differential import Differential
    from repro.storage.bufferpool.manager import BufferManager

    original = BufferManager.get_page
    tracer = Tracer()
    tracer.install()
    try:
        assert BufferManager.get_page is not original
        assert isinstance(vars(Differential)["from_pages"], classmethod)
    finally:
        tracer.uninstall()
    assert BufferManager.get_page is original


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert percentile(ordered, 50) == 50
    assert percentile(ordered, 99) == 99
    assert percentile(ordered, 99.9) == 100
    assert percentile([], 50) == 0.0


# ----------------------------------------------------------------------
# Tiny runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    run = WorkloadRun(_tiny(name), seed=3, workdir=str(tmp_path))
    run.setup(repeats=1)
    run.measure(0.0)
    run.close()
    assert run.errors == []
    assert run.correct and run.attempted == run.ops_done >= 2000
    assert run.restart_ns, "every workload crashes and restarts at least once"
    metrics = run.end_to_end()
    assert set(metrics) == {m.name for m in END_TO_END}
    for name_, value in metrics.items():
        assert math.isfinite(value) and value > 0, name_
    assert set(run.end_to_end(raw=True)) == set(metrics)


def test_final_check_reads_every_page_from_storage(tmp_path):
    """The end-of-window comparison runs on a reopened database, so every
    page it reads is a buffer-pool miss served by the engine."""
    workload = _tiny("hot-fit")
    run = WorkloadRun(workload, seed=3, workdir=str(tmp_path))
    run.setup(repeats=1)
    measured = run.db
    run.measure(0.0)
    assert run.correct
    assert run.db is not measured
    assert run.db.pool.stats.hits == 0
    assert run.db.pool.stats.misses == workload.n_pages
    run.close()


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    workload = _tiny("crash-restart")
    untraced = WorkloadRun(workload, seed=3, workdir=str(tmp_path))
    untraced.setup(repeats=1)
    untraced.measure(0.0)
    untraced.close()
    tracer = Tracer()
    tracer.install()
    try:
        traced = WorkloadRun(workload, seed=3, workdir=str(tmp_path), tracer=tracer)
        traced.setup(repeats=1)
        tracer.enabled = True
        traced.measure(0.0)
        tracer.enabled = False
        traced.close()
    finally:
        tracer.uninstall()
    assert traced.correct
    # Every span of a timed op lies under that op's root span: nothing
    # outside the ops (restarts, the final check) is charged to them.
    names = [tracer.names[i] for i in tracer.name_of]
    for i, op in enumerate(tracer.ops):
        if op < 0:
            continue
        root = i
        while tracer.parents[root] >= 0:
            root = tracer.parents[root]
        assert names[root] in OP_SPANS and tracer.ops[root] == op, names[i]
    metrics = traced.per_layer(SpanTable(tracer, workload.det_ops), untraced)
    assert set(metrics) == {m.name for m in PER_LAYER}
    for layer in ("storage.get_page_self_us", "core.read_page_self_us",
                  "flash.read_self_us", "ext.tick_self_us"):
        assert metrics[layer] > 0, layer
    assert metrics["ext.restart_journal_records"] > 0
    assert 0 < metrics["trace.span_coverage"] <= 1
    # Counts are identical to the untraced run's: tracing only observes.
    assert traced.meter.totals == untraced.meter.totals


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------
def test_kernel_discards_samples_that_shared_the_cpu(monkeypatch):
    samples = iter([(1_000_000, 400_000, 0), (1_000_000, 0, 300_000), (1_000_001, 0, 0)])
    monkeypatch.setattr(calibrate, "_kernel_sample", lambda: next(samples))
    before = calibrate.discarded
    assert calibrate._kernel_ns() == 1_000_001
    assert calibrate.discarded == before + 2

    monkeypatch.setattr(calibrate, "_kernel_sample", lambda: (1_000_000, 400_000, 0))
    with pytest.raises(RuntimeError, match="in a row shared the CPU"):
        calibrate._kernel_ns()


_BUSY = {
    # Hashing a large buffer releases the GIL: the thread uses CPU while
    # the kernel holds the GIL.
    "thread": (
        "import hashlib, threading\n"
        "stop = threading.Event()\n"
        "def spin():\n"
        "    while not stop.is_set():\n"
        "        hashlib.sha256(bytes(1 << 20)).digest()\n"
        "worker = threading.Thread(target=spin)\n"
        "worker.start()\n"
        "def halt():\n"
        "    stop.set()\n"
        "    worker.join()\n"
    ),
    "child": (
        "import subprocess, sys\n"
        "worker = subprocess.Popen([sys.executable, '-c', 'while True: pass'])\n"
        "def halt():\n"
        "    worker.kill()\n"
        "    worker.wait()\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(_BUSY))
def test_busy_background_work_is_detected(kind):
    """As in a benchmark run, this process and its background work share
    one CPU (in a subprocess, so the test process stays unpinned): the
    kernel samples the background work ran into are discarded, and
    clean samples are still found between its time slices."""
    script = (
        "import os\n"
        "from perfbench import calibrate\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        + _BUSY[kind]
        + "try:\n"
        "    samples = [calibrate._kernel_ns() for _ in range(20)]\n"
        "finally:\n"
        "    halt()\n"
        "print(calibrate.discarded, min(samples))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    discarded, fastest = done.stdout.split()
    assert int(discarded) > 0
    assert int(fastest) > 0


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_corrupted_shadow_image_is_counted_as_failed(tmp_path):
    run = WorkloadRun(_tiny("engine-miss"), seed=3, workdir=str(tmp_path))
    run.setup(repeats=1)
    pid = run.stream.ops[0].pid
    run.shadow[pid] = bytes(len(run.shadow[pid]))
    run.measure(0.0)
    run.close()
    assert not run.correct
    assert run.failed >= 1
    assert any(f"page {pid}" in error for error in run.errors)


def test_lost_acknowledged_write_is_counted_as_failed(tmp_path):
    run = WorkloadRun(_tiny("engine-miss"), seed=3, workdir=str(tmp_path))
    run.setup(repeats=1)
    # Claim page 0 was acknowledged with other contents: the restart
    # durability check must flag it.
    run.acked[0] = bytes(len(run.acked[0]))
    run.measure(0.0)
    run.close()
    assert any("lost the acknowledged image of page 0" in e for e in run.errors)


def test_without_engine_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
