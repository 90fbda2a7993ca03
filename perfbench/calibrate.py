"""Host-speed normalization for a shared, noisy machine.

The machines this benchmark runs on execute the same Python code at a
speed that drifts by up to 1.9x over tens of seconds (other tenants
share the cores; thread CPU time drifts with wall time, so the slowdown
is not descheduling).  A fixed pure-Python reference kernel, run
between short slices of the timed window, measures that drift: every
host-clock sample is scaled by ``(NOMINAL_NS / kernel time) **
SENSITIVITY`` measured around it.  A normalized time is therefore
close to raw host time when the kernel takes its nominal 1 ms, and a
slowdown of the engine still shows in full because the kernel never
runs engine code.

The kernel must measure the host alone.  A kernel run during which
another thread of this process, or one of its child processes (the
shard workers), used CPU would read slow and scale the engine's times
down, hiding the cost of work moved onto a background thread.  A sample
is therefore discarded, and the kernel run again, when

* the other threads' or the live children's CPU time grew while it ran
  (the kernel reads these counters for tasks running on another CPU
  only at scheduler ticks, so this check alone misses short bursts), or
* the kernel's own thread was off the CPU for part of it (wall time
  minus thread CPU time).  The benchmark pins itself and its workers to
  one CPU, so any CPU they use while the kernel runs takes it off the
  CPU; so does a process of another tenant, whose sample is as useless.

If no clean sample comes in :data:`_ATTEMPTS` tries, the run fails.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Reference kernel time that defines normalized host time (1 ms).
NOMINAL_NS = 1_000_000

#: How strongly engine time follows the kernel's speed, as an exponent.
#: The kernel is interpreter-bound; the engine also waits on memory and
#: system calls, which speed up less when the host does.  Fitted on the
#: build host over runs in fast and slow phases, the exponent was
#: 0.5-0.6; 1.0 over-corrected fast phases (one workload's p95 spread
#: 0.24 across runs, against 0.06 at 0.5).
SENSITIVITY = 0.5

#: Kernel repetitions; sized so one kernel takes about 1 ms here.
_ROUNDS = 45

#: CPU time that other threads and child processes may use during one
#: kernel run, as a share of the run's time, before it is discarded.
BACKGROUND_SHARE = 0.02

#: Kernel runs tried for one clean sample before the run fails.
_ATTEMPTS = 50

#: Kernel samples discarded so far in this process (printed by the run).
discarded = 0

#: Kernel samples whose median gives one slice's factor.
_WIDTH = 5

_BLOCK = bytes(range(256)) * 8


def _kernel() -> int:
    """Interpreter-bound work shaped like the engine's: dict and list
    lookups, small calls, bytes slicing.  Allocation-free apart from
    transient bytes, and run with the cyclic GC paused, so its time does
    not depend on how much the benchmark holds in memory."""
    table = {i: i * 7 for i in range(64)}
    buf = bytearray(_BLOCK)
    acc = 0
    for r in range(_ROUNDS):
        for i in range(64):
            acc += table[(i * r) & 63] ^ len(buf[i : i + 8])
        buf[r : r + 16] = _BLOCK[: 16]
    return acc


def child_pids() -> List[int]:
    """Live child processes of this process (of any of its threads)."""
    pids: List[int] = []
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return pids  # no procfs: no children can be seen
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids += [int(pid) for pid in fh.read().split()]
        except OSError:
            continue  # a thread that already exited
    return pids


def _children_cpu_ns() -> int:
    """CPU time used so far by every thread of the live child processes."""
    total = 0
    for pid in child_pids():
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
        except OSError:
            continue  # a child that already exited
    return total


def _kernel_sample() -> Tuple[int, int, int]:
    """One kernel run, cyclic GC paused.  Returns its host time, the CPU
    time other threads and child processes used meanwhile, and the time
    the kernel's thread spent off the CPU (all ns)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        children = _children_cpu_ns()
        process = time.process_time_ns()
        thread = time.thread_time_ns()
        start = time.perf_counter_ns()
        _kernel()
        elapsed = time.perf_counter_ns() - start
        thread = time.thread_time_ns() - thread
        process = time.process_time_ns() - process
        others = process - thread + _children_cpu_ns() - children
        return elapsed, others, elapsed - thread
    finally:
        if enabled:
            gc.enable()


def _kernel_ns() -> int:
    """Host time of one kernel run during which nothing else used the
    CPU (see the module docstring)."""
    global discarded
    for _ in range(_ATTEMPTS):
        elapsed, others, off_cpu = _kernel_sample()
        if max(others, off_cpu) <= elapsed * BACKGROUND_SHARE:
            return elapsed
        discarded += 1
    raise RuntimeError(
        f"reference kernel: {_ATTEMPTS} runs in a row shared the CPU (last: "
        f"{elapsed} ns, background threads and workers {others} ns of CPU, "
        f"{off_cpu} ns off the CPU); host times cannot be normalized"
    )


class Calibrator:
    """Kernel samples taken between the slices of a timed window."""

    def __init__(self) -> None:
        self.kernel_ns: List[int] = []

    def sample(self) -> None:
        """Run the kernel once and record its time (a slice boundary)."""
        self.kernel_ns.append(_kernel_ns())

    def factors(self) -> List[float]:
        """Per-slice factors: slice ``s`` ran between kernel samples
        ``s`` and ``s + 1``; its factor uses the median of the
        ``_WIDTH`` samples centred on that gap, which damps one-off
        interrupts."""
        samples = self.kernel_ns
        out = []
        for s in range(max(0, len(samples) - 1)):
            lo = max(0, s - _WIDTH // 2)
            window = sorted(samples[lo : s + _WIDTH // 2 + 1])
            out.append((NOMINAL_NS / window[len(window) // 2]) ** SENSITIVITY)
        return out


def timed(fn: Callable[[], T]) -> Tuple[T, int, float]:
    """Call ``fn``; returns its result, its raw host time in ns and the
    normalization factor taken from kernel runs just before and after.

    A full collection runs first, so a cyclic-GC pass over garbage left
    by earlier work does not land inside a one-off timing at random."""
    gc.collect()
    before = statistics.median(_kernel_ns() for _ in range(3))
    start = time.perf_counter_ns()
    result = fn()
    elapsed = time.perf_counter_ns() - start
    after = statistics.median(_kernel_ns() for _ in range(3))
    return result, elapsed, (2 * NOMINAL_NS / (before + after)) ** SENSITIVITY
