"""In-process shard executors: inline and worker-thread execution.

A :class:`~repro.sharding.driver.ShardedDriver` names every shard call
as a module-level op ``op(shard_driver, *args)`` (see
:mod:`repro.sharding.ops`) and hands it to an *executor*, which decides
where the op runs.  Every executor offers the same small seam:

* ``run(index, op, *args)`` — run one op on shard ``index``;
* ``fan_out(calls)`` / ``broadcast(op, *args)`` — run ``(index, op,
  args)`` calls on their shards and join them all, re-raising the first
  error only after every call has finished;
* ``inspect(op)`` — one read-only op per shard (reports, clocks, stats);
* ``meta`` (per-shard :func:`~repro.sharding.ops.describe` facts),
  ``phases`` (the façade's :class:`~repro.sharding.stats.PhaseStack`),
  ``suffix`` (the label token), ``serializes_callers``, ``shutdown()``.

This module holds the two in-process implementations:

* :class:`InlineExecutor` — the serial array: ops run on the calling
  thread, one shard after another; parallelism exists only in the
  simulated clock model (the busiest chip's share of a window).
* :class:`ThreadExecutor` — one persistent **single-writer worker
  thread per shard** (a :class:`ShardExecutor` pool).  Everything that
  touches a shard's driver, allocator, GC engine or write buffer runs
  on that shard's one worker, so each chip keeps exactly the sequential
  execution its crash/GC invariants assume — no fine-grained locks in
  the drivers — and many client threads may share the array.

The process implementation is
:class:`~repro.sharding.executor_proc.ProcessShardExecutor`.

Per-shard :class:`~repro.flash.stats.FlashStats` collectors double as
the per-worker accumulators: each is only ever mutated by its shard's
owner, and :class:`~repro.sharding.stats.AggregateStats` merges them
(stall histograms included) when the caller reads after a join.

See ``docs/concurrency.md`` for the full execution model, including how
measured wall-clock time relates to the simulated parallel clock and
why speedup is largest on the file backend's real I/O waits.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from queue import SimpleQueue
from typing import Callable, List, Optional, Sequence, Tuple

from ..ftl.base import PageUpdateMethod
from ..ftl.errors import ConcurrencyError, ConfigurationError
from . import ops
from .stats import PhaseStack

#: Sentinel dropped into a mailbox to stop its worker thread.
_STOP = None


class ShardExecutor:
    """A pool of persistent single-writer worker threads, one per shard.

    Tasks are submitted to a specific worker's mailbox and return
    :class:`~concurrent.futures.Future` objects; a worker drains its
    mailbox in FIFO order, so all tasks for one shard execute
    sequentially on one thread (the single-writer invariant), while
    tasks on *different* workers run genuinely concurrently.

    The pool is intentionally dumb: it knows nothing about drivers or
    routing.  :class:`ThreadExecutor` runs shard ops on it.
    """

    def __init__(self, n_workers: int, name: str = "shard"):
        if n_workers < 1:
            raise ValueError("ShardExecutor needs at least one worker")
        self._mailboxes: List[SimpleQueue] = [SimpleQueue() for _ in range(n_workers)]
        self._idents: List[Optional[int]] = [None] * n_workers
        self._started = threading.Event()
        self._shutdown = False
        #: Serializes submit() against shutdown(): without it a task
        #: could be enqueued behind the stop sentinel and its future
        #: would never complete (the caller would block forever).
        self._submit_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        remaining = [n_workers]
        lock = threading.Lock()

        def _note_started(index: int) -> None:
            self._idents[index] = threading.get_ident()
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    self._started.set()

        for i in range(n_workers):
            thread = threading.Thread(
                target=self._worker,
                args=(i, _note_started),
                name=f"{name}-worker-{i}",
                daemon=True,  # a forgotten shutdown must not hang exit
            )
            thread.start()
            self._threads.append(thread)
        self._started.wait()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker(self, index: int, note_started: Callable[[int], None]) -> None:
        note_started(index)
        mailbox = self._mailboxes[index]
        while True:
            item = mailbox.get()
            if item is _STOP:
                return
            future, fn, args, kwargs = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # delivered via future.result()
                future.set_exception(exc)
            else:
                future.set_result(result)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._mailboxes)

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    def worker_ident(self, index: int) -> int:
        """Thread identity of worker ``index`` (for ownership guards)."""
        ident = self._idents[index]
        assert ident is not None, "workers are started in __init__"
        return ident

    def submit(self, index: int, fn: Callable, *args, **kwargs) -> Future:
        """Enqueue ``fn(*args, **kwargs)`` on worker ``index``'s mailbox."""
        if not 0 <= index < len(self._mailboxes):
            raise ValueError(
                f"worker index {index} outside pool of {len(self._mailboxes)}"
            )
        future: Future = Future()
        with self._submit_lock:
            if self._shutdown:
                raise ConcurrencyError("executor is shut down")
            self._mailboxes[index].put((future, fn, args, kwargs))
        return future

    def run(self, index: int, fn: Callable, *args, **kwargs):
        """Submit to worker ``index`` and wait for the result.

        Calls from the worker's own thread execute inline instead —
        waiting on the mailbox from inside it would deadlock (the task
        behind you in the queue can never run while you block).
        """
        if threading.get_ident() == self._idents[index]:
            return fn(*args, **kwargs)
        return self.submit(index, fn, *args, **kwargs).result()

    def map(self, tasks: Sequence[Tuple[int, Callable]]) -> List[object]:
        """Run ``(worker index, thunk)`` tasks concurrently; join all.

        Every task is awaited even when an earlier one fails — a fan-out
        must not leave half the fleet still mutating state when control
        returns — then the first exception (in task order) is re-raised.
        """
        futures = [self.submit(index, fn) for index, fn in tasks]
        return gather(futures)

    def broadcast(self, fn_of_index: Callable[[int], object]) -> List[object]:
        """Run ``fn_of_index(i)`` on every worker ``i`` concurrently."""
        futures = [
            self.submit(i, fn_of_index, i) for i in range(len(self._mailboxes))
        ]
        return gather(futures)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker after its queued tasks drain.  Idempotent."""
        with self._submit_lock:
            if self._shutdown:
                return
            self._shutdown = True
            for mailbox in self._mailboxes:
                mailbox.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def gather(futures: Sequence[Future]) -> List[object]:
    """Wait for every future; re-raise the first failure (in order)."""
    results: List[object] = []
    first_exc: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:
            if first_exc is None:
                first_exc = exc
            results.append(None)
    if first_exc is not None:
        raise first_exc
    return results


class InlineExecutor:
    """Shard ops on the calling thread, one shard after another."""

    suffix = ""
    #: Concurrent callers are *not* serialized per shard: the array is
    #: as single-threaded as the drivers under it.
    serializes_callers = False
    #: Nothing runs in the background, so there is nothing to stop.
    is_shutdown = False

    def __init__(self, shards: Sequence[PageUpdateMethod]):
        if not shards:
            raise ConfigurationError("a sharded array needs at least one shard")
        self.shards: List[PageUpdateMethod] = list(shards)
        self.meta = [ops.describe(shard) for shard in self.shards]
        self.phases = PhaseStack()

    @property
    def chips(self):
        return [shard.chip for shard in self.shards]

    def _call(self, index: int, phase: Optional[str], op: Callable, args: tuple):
        shard = self.shards[index]
        if phase is None:
            return op(shard, *args)
        with shard.stats.phase(phase):
            return op(shard, *args)

    def run(self, index: int, op: Callable, *args):
        return self._call(index, self.phases.current, op, args)

    def fan_out(self, calls: Sequence[Tuple[int, Callable, tuple]]) -> List[object]:
        phase = self.phases.current
        results: List[object] = []
        first_exc: Optional[BaseException] = None
        for index, op, args in calls:
            try:
                results.append(self._call(index, phase, op, args))
            except BaseException as exc:  # re-raised once every call ran
                if first_exc is None:
                    first_exc = exc
                results.append(None)
        if first_exc is not None:
            raise first_exc
        return results

    def broadcast(self, op: Callable, *args) -> List[object]:
        return self.fan_out([(i, op, args) for i in range(len(self.shards))])

    def inspect(self, op: Callable) -> List[object]:
        """Read-only ``op`` per shard, on the calling thread (live state
        stays readable after shutdown)."""
        return [op(shard) for shard in self.shards]

    def shutdown(self) -> None:
        pass


class ThreadExecutor(InlineExecutor):
    """Shard ops on one single-writer worker thread per shard.

    Construction pins each shard's GC engine to its worker thread
    (:meth:`~repro.ftl.gc.GarbageCollector.bind_owner_thread`), so any
    code path that would run ``on_write_begin``/``on_write_end`` hooks
    off the owning worker fails loudly instead of corrupting shard
    state.  Single ops marshal through the owning shard's mailbox — one
    client thread gains nothing, but many client threads are serialized
    per shard and overlap across shards; fan-outs are where a single
    caller sees wall-clock parallelism.
    """

    suffix = " par"
    serializes_callers = True

    def __init__(
        self,
        shards: Sequence[PageUpdateMethod],
        pool: Optional[ShardExecutor] = None,
    ):
        super().__init__(shards)
        if pool is not None and pool.n_workers != len(self.shards):
            raise ConcurrencyError(
                f"executor has {pool.n_workers} workers for "
                f"{len(self.shards)} shards"
            )
        self.pool = pool if pool is not None else ShardExecutor(len(self.shards))
        for index, shard in enumerate(self.shards):
            gc = getattr(shard, "gc", None)
            if gc is not None:
                gc.bind_owner_thread(self.pool.worker_ident(index))

    @property
    def is_shutdown(self) -> bool:
        return self.pool.is_shutdown

    def run(self, index: int, op: Callable, *args):
        return self.pool.run(index, self._call, index, self.phases.current, op, args)

    def fan_out(self, calls: Sequence[Tuple[int, Callable, tuple]]) -> List[object]:
        phase = self.phases.current
        return gather(
            [
                self.pool.submit(index, self._call, index, phase, op, args)
                for index, op, args in calls
            ]
        )

    def shutdown(self) -> None:
        self.pool.shutdown()
