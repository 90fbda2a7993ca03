"""Real thread-parallel shard execution: worker pool + parallel driver.

:class:`~repro.sharding.driver.ShardedDriver` routes operations to
independent per-shard drivers, but executes them one after another on
the calling thread — parallelism existed only in the *simulated* clock
model (the busiest chip's share of a window).  This module makes shard
independence real in wall-clock time:

* :class:`ShardExecutor` — one persistent **single-writer worker
  thread per shard**, fed through a thread-safe mailbox of
  :class:`~concurrent.futures.Future` tasks.  Everything that touches a
  shard's driver, allocator, GC engine or write buffer runs on that
  shard's one worker, so each chip keeps exactly the sequential
  execution its crash/GC invariants assume — no fine-grained locks
  anywhere in the drivers.
* :class:`ParallelShardedDriver` — a drop-in
  :class:`~repro.sharding.driver.ShardedDriver` whose batched entry
  points (``load_pages``/``write_pages``/``group_flush``/``sync``) fan
  out across the workers and join, and whose single-page operations are
  marshalled through the owning shard's mailbox — which also makes the
  driver safe to hammer from many client threads at once.

Per-shard :class:`~repro.flash.stats.FlashStats` collectors double as
the per-worker accumulators: each is only ever mutated by its shard's
worker, and :class:`~repro.sharding.stats.AggregateStats` merges them
(stall histograms included) when the caller reads after a join.

See ``docs/concurrency.md`` for the full execution model, including how
measured wall-clock time relates to the simulated parallel clock and
why speedup is largest on the file backend's real I/O waits.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from queue import SimpleQueue
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..flash.stats import DEFAULT_PHASE
from ..ftl.base import ChangeRun, PageUpdateMethod
from ..ftl.errors import ConcurrencyError
from .driver import ShardedDriver
from .router import ShardRouter

#: Sentinel dropped into a mailbox to stop its worker thread.
_STOP = None


class ShardExecutor:
    """A pool of persistent single-writer worker threads, one per shard.

    Tasks are submitted to a specific worker's mailbox and return
    :class:`~concurrent.futures.Future` objects; a worker drains its
    mailbox in FIFO order, so all tasks for one shard execute
    sequentially on one thread (the single-writer invariant), while
    tasks on *different* workers run genuinely concurrently.

    The executor is intentionally dumb: it knows nothing about drivers
    or routing.  :class:`ParallelShardedDriver` supplies the policy.
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


def make_executor(
    kind: str = "thread",
    *,
    n_workers: Optional[int] = None,
    factories=None,
    name: str = "shard",
):
    """Build a shard executor of the requested kind.

    ``kind="thread"`` returns a :class:`ShardExecutor` over
    ``n_workers`` worker threads (defaulting to ``len(factories)`` when
    recipes are supplied).  ``kind="process"`` returns a
    :class:`~repro.sharding.executor_proc.ProcessShardExecutor`, which
    needs one spawn-safe
    :class:`~repro.sharding.executor_proc.ShardFactory` per shard —
    the workers rebuild their drivers from the recipes, so there is
    nothing else a process pool could be built from.  See
    ``docs/concurrency.md`` for the thread-vs-process decision table.
    """
    from ..ftl.errors import ConfigurationError

    if kind == "thread":
        if n_workers is None:
            if factories is None:
                raise ConfigurationError(
                    "make_executor(kind='thread') needs n_workers (or "
                    "factories to count)"
                )
            n_workers = len(list(factories))
        return ShardExecutor(n_workers, name=name)
    if kind == "process":
        from .executor_proc import ProcessShardExecutor

        if factories is None:
            raise ConfigurationError(
                "make_executor(kind='process') needs per-shard ShardFactory "
                "recipes (see repro.sharding.executor_proc)"
            )
        if n_workers is not None and n_workers != len(list(factories)):
            raise ConfigurationError(
                f"n_workers={n_workers} disagrees with "
                f"{len(list(factories))} shard factories"
            )
        return ProcessShardExecutor(factories, name=name)
    raise ConfigurationError(
        f"unknown executor kind {kind!r}; expected 'thread' or 'process'"
    )


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


class ParallelShardedDriver(ShardedDriver):
    """A :class:`ShardedDriver` whose shards execute on worker threads.

    Construction pins each shard's GC engine to its worker thread
    (:meth:`~repro.ftl.gc.GarbageCollector.bind_owner_thread`), so any
    code path that would run ``on_write_begin``/``on_write_end`` hooks
    off the owning worker fails loudly instead of corrupting shard
    state.  ``close()`` shuts the pool down; the driver (like its
    serial parent) must not be used afterwards.

    Single-page operations marshal through the owning shard's mailbox —
    one client thread gains nothing, but *many* client threads are
    serialized per shard and overlap across shards, which is the
    stress-test configuration.  The fan-out entry points
    (``load_pages``/``write_pages``/``flush``/``group_flush``/
    ``sync``/``end_of_load``) are where a single caller sees wall-clock
    parallelism: all shards work at once and the call joins them.
    """

    def __init__(
        self,
        shards: Sequence[PageUpdateMethod],
        router: Optional[ShardRouter] = None,
        executor: Optional[ShardExecutor] = None,
    ):
        super().__init__(shards, router)
        if executor is not None and executor.n_workers != len(self.shards):
            raise ConcurrencyError(
                f"executor has {executor.n_workers} workers for "
                f"{len(self.shards)} shards"
            )
        self.executor = executor if executor is not None else ShardExecutor(
            len(self.shards)
        )
        self.name += " par"
        for index, shard in enumerate(self.shards):
            gc = getattr(shard, "gc", None)
            if gc is not None:
                gc.bind_owner_thread(self.executor.worker_ident(index))
        #: Guards the cross-shard counters the fan-out paths update
        #: (``group_flushes``) against racing client threads.
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Task marshalling
    # ------------------------------------------------------------------
    def _task(self, index: int, fn: Callable, *args, **kwargs) -> Callable[[], object]:
        """Bind a shard task, propagating the caller's stats phase.

        Phase stacks are thread-local (see
        :class:`~repro.flash.stats.FlashStats`), so a phase the *client*
        thread pushed — e.g. ``AggregateStats.phase("load")`` around a
        bulk load — would not attribute work executed on a worker.  The
        innermost phase is captured here, on the submitting thread, and
        re-pushed around the task on the worker.
        """
        phase = self.shards[index].stats.current_phase

        def run() -> object:
            if phase == DEFAULT_PHASE:
                return fn(*args, **kwargs)
            with self.shards[index].stats.phase(phase):
                return fn(*args, **kwargs)

        return run

    def _run_on(self, index: int, fn: Callable, *args, **kwargs):
        return self.executor.run(index, self._task(index, fn, *args, **kwargs))

    def _fan_out(self, tasks: Dict[int, Callable]) -> List[object]:
        ordered = sorted(tasks.items())
        return self.executor.map(
            [(index, self._task(index, fn)) for index, fn in ordered]
        )

    # ------------------------------------------------------------------
    # PageUpdateMethod contract — single-page paths (mailbox-serialized)
    # ------------------------------------------------------------------
    def load_page(self, pid: int, data: bytes) -> None:
        index = self.shard_index(pid)
        self._run_on(index, self.shards[index].load_page, pid, data)

    def read_page(self, pid: int) -> bytes:
        index = self.shard_index(pid)
        return self._run_on(index, self.shards[index].read_page, pid)

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        index = self.shard_index(pid)
        self._run_on(
            index, self.shards[index].write_page, pid, data, update_logs
        )

    # ------------------------------------------------------------------
    # Fan-out paths (parallel across shards, joined before returning)
    # ------------------------------------------------------------------
    def end_of_load(self) -> None:
        self._fan_out(
            {i: shard.end_of_load for i, shard in enumerate(self.shards)}
        )

    def load_pages(self, pages) -> None:
        per_shard: Dict[int, List] = {}
        for pid, data in pages:
            per_shard.setdefault(self.shard_index(pid), []).append((pid, data))
        self._fan_out(
            {
                index: (lambda s=self.shards[index], g=group: s.load_pages(g))
                for index, group in per_shard.items()
            }
        )

    def write_pages(self, pages, update_logs=None) -> None:
        per_shard: Dict[int, List] = {}
        for pid, data in pages:
            per_shard.setdefault(self.shard_index(pid), []).append((pid, data))
        tasks: Dict[int, Callable] = {}
        for index, group in per_shard.items():
            logs = None
            if update_logs is not None:
                logs = {pid: update_logs[pid] for pid, _ in group if pid in update_logs}
            tasks[index] = (
                lambda s=self.shards[index], g=group, l=logs: s.write_pages(
                    g, update_logs=l
                )
            )
        self._fan_out(tasks)

    def group_flush(self, pages=None, update_logs=None) -> None:
        """Drain every shard's buffers *concurrently* and join.

        Same durability horizon as the serial
        :meth:`~repro.sharding.driver.ShardedDriver.group_flush` —
        nothing returns until every shard has flushed — but the shard
        flushes overlap in wall-clock time, not only on the simulated
        clock.

        With ``pages``, each shard's slice of the batch is written *and*
        its buffers drained inside one worker task, so a buffer pool's
        ``flush_all`` costs a single fan-out/join across the array
        instead of two.
        """
        if pages is None:
            self._fan_out(
                {i: shard.flush for i, shard in enumerate(self.shards)}
            )
        else:
            split = self._split_by_shard(pages, update_logs)

            def write_then_flush(shard, entry):
                if entry is not None:
                    group, logs = entry
                    shard.write_pages(group, update_logs=logs)
                shard.flush()

            self._fan_out(
                {
                    i: (
                        lambda s=shard, e=split.get(i): write_then_flush(s, e)
                    )
                    for i, shard in enumerate(self.shards)
                }
            )
        with self._counter_lock:
            self.group_flushes += 1

    def fsck(self, repair: bool = True):
        """Scan and repair every shard concurrently; join, then merge.

        Each shard's scan runs on its own worker (the single-writer
        invariant covers fsck's repair writes too), so an array fscks in
        the wall-clock time of its slowest shard.
        """
        from ..core.fsck import FsckReport

        def shard_task(shard):
            if hasattr(shard, "fsck"):
                return shard.fsck(repair=repair)
            return FsckReport()

        reports = self._fan_out(
            {
                i: (lambda s=shard: shard_task(s))
                for i, shard in enumerate(self.shards)
            }
        )
        return FsckReport.merge(list(reports))

    def sync(self) -> None:
        self._fan_out({i: chip.sync for i, chip in enumerate(self.chips)})

    def close(self) -> None:
        """Close every shard chip in parallel, then stop the workers."""
        try:
            self._fan_out({i: chip.close for i, chip in enumerate(self.chips)})
        finally:
            self.executor.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelShardedDriver {self.name!r} "
            f"router={type(self.router).__name__} shards={len(self.shards)}>"
        )
