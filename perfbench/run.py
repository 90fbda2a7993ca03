"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-miss --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (preceded, in the same process, by an
untraced run whose throughput gives the tracing overhead); the traced
run also writes every span it recorded to
``.perfbench-out/spans-<workload>.csv.gz``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the same figures as
a table with units and clocks, normalized host times beside raw ones.
The exit code is 0 only when every output check passed.

The engine is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (str(SRC), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(rows, raw_rows, definitions) -> None:
    """One line per metric: normalized value, raw value (host-clock
    metrics only differ), unit and clock."""
    clocks = {m.name: (m.unit, m.clock) for m in definitions}
    for name, value in rows.items():
        unit, clock = clocks.get(name, ("ratio", "-"))
        raw = raw_rows.get(name, value)
        print(f"  {name:34s} {value:16.6g} {raw:16.6g}  {unit:6s} {clock}")


def _write_spans(tracer, path: Path) -> None:
    """Every recorded span as gzip-compressed CSV (about 15 bytes a span)."""
    path.parent.mkdir(exist_ok=True)
    names = tracer.names
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name,start_ns,end_ns,parent,op\n")
        for lo in range(0, len(tracer), 65536):
            hi = min(lo + 65536, len(tracer))
            fh.write("".join(
                f"{names[tracer.name_of[i]]},{tracer.starts[i]},{tracer.ends[i]},"
                f"{tracer.parents[i]},{tracer.ops[i]}\n"
                for i in range(lo, hi)
            ))


def _stop_resource_tracker() -> None:
    """The process executor's shared memory starts multiprocessing's
    resource tracker process; stop it and wait for it, so no process
    the benchmark started outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2

    from perfbench import calibrate
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.replay import WorkloadRun, log, pin_to_one_cpu
    from perfbench.tracer import SpanTable, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    runs = []
    try:
        run = WorkloadRun(workload, args.seed, workdir)
        runs.append(run)
        log(f"perfbench: {workload.name} seed {args.seed}: setup")
        run.setup()
        log(f"perfbench: {workload.name}: measuring")
        run.measure(args.seconds)
        run.close()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = WorkloadRun(workload, args.seed, workdir, tracer)
                runs.append(traced)
                log(f"perfbench: {workload.name}: traced run")
                traced.setup(repeats=1)
                tracer.enabled = True
                traced.measure(args.seconds)
                tracer.enabled = False
                traced.close()
            finally:
                tracer.uninstall()
            spans = SpanTable(tracer, workload.det_ops)
            metrics = traced.per_layer(spans, run)
            raw_metrics = traced.per_layer(spans, run, raw=True)
            definitions = PER_LAYER
            spans_path = ROOT / ".perfbench-out" / f"spans-{workload.name}.csv.gz"
            _write_spans(tracer, spans_path)
            log(f"perfbench: {len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = run.end_to_end()
            raw_metrics = run.end_to_end(raw=True)
            definitions = END_TO_END
    finally:
        for finished in runs:
            finished.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
        _stop_resource_tracker()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for error in r.errors:
            log(f"perfbench: FAILED: {error}")
    counts = run.sample_counts()
    print(
        f"{workload.name} seed {args.seed}: {counts['ops']} ops in "
        f"{run.window_s:.2f} s (normalization factor {run.speed:.3f}, "
        f"{calibrate.discarded} reference-kernel samples discarded); "
        f"samples: reads {counts['reads']}, "
        f"updates {counts['updates']}, commits {counts['commits']}, "
        f"restarts {counts['restarts']}, setups {counts['setups']}"
    )
    print(f"  {'metric':34s} {'value':>16s} {'raw':>16s}  {'unit':6s} clock")
    _table(metrics, raw_metrics, definitions)
    _table({"failed_op_ratio": failed / max(1, attempted)}, {}, ())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in definitions
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
