"""Determinism self-check of the benchmark's simulated and count metrics.

Runs ``perfbench/run.py`` twice per workload and trace mode with one
seed and requires every metric declared deterministic in
``perfbench/metrics.py`` (simulated time, write and space
amplification, the per-op and ratio counters of core, ftl, ext and
flash) to repeat exactly; any drift is flagged and the exit code is 1.
A third run on a second seed is printed beside them for reference.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.metrics import deterministic_names  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Timed window of each run; the deterministic first pass always runs whole.
SECONDS = 1

#: The seed run twice, and the second seed recorded beside it.
SEED, SECOND_SEED = 1, 2


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    wanted = set(deterministic_names())
    drift = 0
    print(f"{'workload':14s} {'metric':34s} {'seed ' + str(SEED):>14s} "
          f"{'repeat':>14s} {'seed ' + str(SECOND_SEED):>14s}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = _run(workload, SEED, trace)
            again = _run(workload, SEED, trace)
            other = _run(workload, SECOND_SEED, trace)
            for name in sorted(wanted & set(first)):
                a, b = first[name]["value"], again[name]["value"]
                flag = "" if a == b else "  DRIFT"
                drift += a != b
                print(f"{workload:14s} {name:34s} {a:14.6g} {b:14.6g} "
                      f"{other[name]['value']:14.6g}{flag}", flush=True)
    print("determinism: " + ("OK" if not drift else f"{drift} metric(s) drifted"))
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
