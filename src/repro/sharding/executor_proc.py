"""Process-per-shard execution: shard parallelism past the GIL.

:class:`~repro.sharding.executor.ShardExecutor` made shard independence
real in wall-clock time — but only up to the GIL: with device waits
disabled, its worker *threads* time-slice one core and eight shards
deliver ~1x.  This module moves each shard into its own **worker
process**, so pure-Python shard work (differential encoding, mapping
table updates, GC) runs on separate cores:

* :class:`ShardFactory` — a picklable recipe for building one shard's
  driver *inside* its worker (fresh memory chip, reopened file image,
  or a Figure-11 recovery of an existing image).  Shipping a recipe
  instead of a live driver is what spawn-safety means here: nothing
  crosses the process boundary except plain data.
* :class:`ProcessShardExecutor` — one spawned worker process per shard,
  implementing the same executor seam as the inline and thread
  executors, so the one :class:`~repro.sharding.driver.ShardedDriver`
  façade runs on it unchanged (``"PDL (256B) x8 proc"``).  There are
  no parent-side threads: the *calling* thread sends each command down
  the worker's pipe and reads the reply itself, under a per-worker lock
  held from the first command to the last reply.  Fan-outs take the
  locks of their workers in ascending shard index and send every worker
  its command before collecting any reply, so workers still overlap.
* **Shared-memory page frames** — page payloads travel through a
  per-worker :class:`multiprocessing.shared_memory.SharedMemory` ring
  (:data:`FRAMES_PER_WORKER` frames of one page each), not through
  pickle.  A batch larger than the ring is sent in ring-sized chunks.
  Because the lock allows at most one command in flight per worker,
  frames are reusable the moment the worker's reply arrives (see
  ``docs/concurrency.md`` for the full frame lifecycle).
* **Worker-side state** — per-shard
  :class:`~repro.flash.stats.FlashStats` accumulate in the workers and
  are fetched on read; at shutdown the executor snapshots the
  read-only ops of :data:`repro.sharding.ops.SNAPSHOT` (stats, clocks,
  GC counters, differential pages, horizon) so post-close reporting
  still works.

Commands and results travel over pipes; exceptions raised in a worker
are pickled back and re-raised in the caller (with the worker traceback
attached as a note on Python ≥ 3.11), so error handling looks exactly
like the thread executor's.
"""

from __future__ import annotations

import pickle
import threading
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..flash.spec import FlashSpec
from ..ftl.base import PageUpdateMethod
from ..ftl.errors import ConcurrencyError, ConfigurationError
from . import ops
from .driver import ShardedDriver
from .executor import gather
from .stats import PhaseStack

#: Page frames in each worker's shared-memory ring; a batch larger
#: than the ring is sent in ring-sized chunks.
FRAMES_PER_WORKER = 64


class WorkerCrashError(ConcurrencyError):
    """A shard worker process died or failed to start."""


# ----------------------------------------------------------------------
# Spawn-safe shard recipes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardFactory:
    """Picklable recipe for building one shard's driver in its worker.

    ``path=None`` builds a fresh in-memory chip; a path reopens that
    :class:`~repro.flash.backend.FileBackend` image (created by the
    parent, so geometry errors surface before any process is spawned).
    ``recover=True`` additionally runs the Figure-11 spare-area scan
    over the image instead of building a fresh driver — the process
    variant of :func:`repro.core.recovery.recover_driver`.

    Every field must be picklable (the spawn start method re-imports
    the module and unpickles the factory in the child); ``driver_kwargs``
    carries per-shard constructor tuning such as ``gc_config``.
    """

    label: str
    spec: FlashSpec
    path: Optional[str] = None
    recover: bool = False
    max_differential_size: int = 256
    read_cache_pages: int = 0
    realtime_scale: float = 0.0
    driver_kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Tuple[PageUpdateMethod, Optional[object]]:
        """Construct ``(driver, recovery_report_or_None)`` — worker-side."""
        from ..flash.backend import FileBackend
        from ..flash.chip import FlashChip

        backend = None
        if self.path is not None:
            backend = FileBackend.open(self.path, self.spec)
        chip = FlashChip(
            self.spec,
            backend=backend,
            read_cache_pages=self.read_cache_pages,
            realtime_scale=self.realtime_scale,
        )
        if self.recover:
            from ..core.recovery import recover_driver

            driver, report = recover_driver(
                chip,
                max_differential_size=self.max_differential_size,
                **self.driver_kwargs,
            )
            return driver, report
        from ..methods import make_method

        return make_method(self.label, chip, **self.driver_kwargs), None


def factories_from_chips(
    chips: Sequence, label: str, driver_kwargs: Dict[str, Any]
) -> List[ShardFactory]:
    """Describe parent-built *pristine* chips as worker recipes.

    A worker cannot adopt a live parent object, so the chips are used
    only as configuration donors: geometry, backend kind (memory or
    file path), read-cache size and realtime scale.  File handles are
    closed here — the worker owns the image from now on.  Chips that
    already hold programmed pages are rejected: their content would be
    silently lost for memory backends, so existing images must go
    through ``recover_all(..., parallel="process")`` instead.
    """
    from ..flash.backend import FileBackend, MemoryBackend

    factories = []
    for i, chip in enumerate(chips):
        if next(iter(chip.iter_programmed_pages()), None) is not None:
            raise ConfigurationError(
                "process-backed shards rebuild their drivers inside worker "
                f"processes, but chip {i} already holds programmed pages; "
                "use recover_all(..., parallel='process') to adopt existing "
                "images"
            )
        path = None
        if isinstance(chip.backend, FileBackend):
            path = chip.backend.path
            chip.close()  # hand the image over to the worker
        elif not isinstance(chip.backend, MemoryBackend):
            raise ConfigurationError(
                "process-backed shards support memory and file backends, "
                f"not {type(chip.backend).__name__} (fault injection and "
                "other wrappers are parent-process state)"
            )
        factories.append(
            ShardFactory(
                label=label,
                spec=chip.spec,
                path=path,
                read_cache_pages=chip.cache.capacity if chip.cache is not None else 0,
                realtime_scale=chip.realtime_scale,
                driver_kwargs=dict(driver_kwargs),
            )
        )
    return factories


def recovery_factories_from_chips(
    chips: Sequence,
    max_differential_size: int,
    driver_kwargs: Dict[str, Any],
) -> List[ShardFactory]:
    """Describe existing file-backed chips as worker *recovery* recipes.

    The Figure-11 scan runs inside each worker over its reopened image;
    the parent's handles are closed here and must not be used again.
    Memory chips cannot cross the boundary (their content lives in the
    parent's address space), so they are rejected with a pointer to the
    thread executor.
    """
    from ..flash.backend import FileBackend

    factories = []
    for i, chip in enumerate(chips):
        if not isinstance(chip.backend, FileBackend):
            raise ConfigurationError(
                f"process recovery needs file-backed chips (chip {i} is "
                f"{type(chip.backend).__name__}-backed; a worker process "
                "cannot see parent memory — use parallel=True for threads)"
            )
        path = chip.backend.path
        cache_pages = chip.cache.capacity if chip.cache is not None else 0
        scale = chip.realtime_scale
        chip.close()
        factories.append(
            ShardFactory(
                label="PDL",
                spec=chip.spec,
                path=path,
                recover=True,
                max_differential_size=max_differential_size,
                read_cache_pages=cache_pages,
                realtime_scale=scale,
                driver_kwargs=dict(driver_kwargs),
            )
        )
    return factories


# ----------------------------------------------------------------------
# Worker-side protocol (module-level: resolvable after spawn re-import)
# ----------------------------------------------------------------------
def _sanitize_exc(exc: BaseException) -> Tuple[BaseException, str]:
    """Make an exception safe to send; keep the traceback as text."""
    tb = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
        return exc, tb
    except Exception:
        return ConcurrencyError(f"unpicklable worker exception: {exc!r}"), tb


def _worker_main(conn, shm_name: str, factory: ShardFactory) -> None:
    """Entry point of one shard worker process."""
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        try:
            driver, report = factory.build()
            meta = ops.describe(driver)
            meta["report"] = report
        except BaseException as exc:
            safe, tb = _sanitize_exc(exc)
            conn.send(("error", safe, tb))
            return
        conn.send(("ready", meta))
        try:
            _serve(driver, conn, shm.buf)
        finally:
            # Sync file-backed images even when the parent stops the pool
            # without an explicit close broadcast.  Double-close (after an
            # ops.close) is harmless but guarded anyway.
            try:
                driver.chip.close()
            # repro: allow[bare-except] -- worker exit path: the parent is
            # gone or stopping, there is nowhere left to report a close error
            except Exception:
                pass
    finally:
        shm.close()
        conn.close()


def _serve(driver: PageUpdateMethod, conn, buf: memoryview) -> None:
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return  # parent died; daemon exit
        if msg[0] == "stop":
            try:
                conn.send(("ok", None))
            except OSError:
                pass
            return
        try:
            phase = msg[1]
            if phase is not None:
                with driver.stats.phase(phase):
                    result = _execute(driver, buf, msg)
            else:
                result = _execute(driver, buf, msg)
        except BaseException as exc:
            safe, tb = _sanitize_exc(exc)
            conn.send(("error", safe, tb))
        else:
            conn.send(("ok", result))


def _execute(driver: PageUpdateMethod, buf: memoryview, msg) -> object:
    op = msg[0]
    if op == "write_pages":
        _, _, metas, logs = msg
        pages = [(pid, bytes(buf[off : off + n])) for pid, off, n in metas]
        driver.write_pages(pages, update_logs=logs)
        return None
    if op == "load_pages":
        metas = msg[2]
        pages = [(pid, bytes(buf[off : off + n])) for pid, off, n in metas]
        driver.load_pages(pages)
        return None
    if op == "read_page":
        data = driver.read_page(msg[2])
        n = len(data)
        buf[:n] = data
        return n
    if op == "write_page":
        _, _, pid, n, logs = msg
        driver.write_page(pid, bytes(buf[:n]), update_logs=logs)
        return None
    if op == "load_page":
        driver.load_page(msg[2], bytes(buf[: msg[3]]))
        return None
    if op == "call":
        _, _, fn, args, kwargs = msg
        return fn(driver, *args, **kwargs)
    raise ConcurrencyError(f"unknown worker op {op!r}")


# ----------------------------------------------------------------------
# Parent-side executor
# ----------------------------------------------------------------------
def _worker_error(msg) -> BaseException:
    """The exception carried by an ``("error", exc, traceback)`` reply."""
    exc, tb = msg[1], msg[2]
    if tb and hasattr(exc, "add_note"):
        exc.add_note(f"shard worker traceback:\n{tb}")
    return exc


# Tasks are generator functions ``task(frame_buf, *args)``: each value
# a task yields is one command for its worker, the worker's reply is
# sent back in, and the task's return value is the exchange's result.
def _call(_buf, phase, fn, args, kwargs):
    return (yield ("call", phase, fn, args, kwargs or {}))


def _read(buf, phase, pid):
    n = yield ("read_page", phase, pid)
    return bytes(buf[:n])


def _check_fits(n: int, cap: int) -> None:
    if n > cap:
        raise ConfigurationError(
            f"page of {n} bytes exceeds the {cap}-byte shared-memory frame ring"
        )


def _put_page(buf, op, phase, pid, data, logs=None):
    """``write_page``/``load_page``: one page through frame 0."""
    n = len(data)
    _check_fits(n, len(buf))
    buf[:n] = data
    yield (op, phase, pid, n, logs)


def _put_batch(buf, op, do_flush, phase, group, logs=None):
    """Send a page batch through the frame ring, chunked to its size."""
    cap = len(buf)
    i = 0
    while i < len(group):
        metas = []
        off = 0
        j = i
        while j < len(group):
            pid, data = group[j]
            n = len(data)
            _check_fits(n, cap)
            if off + n > cap:
                break
            buf[off : off + n] = data
            metas.append((pid, off, n))
            off += n
            j += 1
        if op == "write_pages":
            chunk_logs = None
            if logs is not None:
                chunk_logs = {pid: logs[pid] for pid, _o, _n in metas if pid in logs}
            yield (op, phase, metas, chunk_logs)
        else:
            yield (op, phase, metas)
        i = j
    if do_flush:
        yield ("call", phase, ops.flush, (), {})


#: Page-carrying ops and the frame-ring task (with its leading
#: arguments) that carries each; every other op is a plain ``_call``.
_RING_TASKS: Dict[Callable, Tuple[Callable, tuple]] = {
    ops.read_page: (_read, ()),
    ops.write_page: (_put_page, ("write_page",)),
    ops.load_page: (_put_page, ("load_page",)),
    ops.write_pages: (_put_batch, ("write_pages", False)),
    ops.load_pages: (_put_batch, ("load_pages", False)),
    ops.write_then_flush: (_put_batch, ("write_pages", True)),
}


class _Exchange:
    """One task's command sequence on one worker, driven by its caller.

    :meth:`ProcessShardExecutor.submit_task` creates it with the
    worker's lock held and the first command sent; each :meth:`step`
    receives one reply and sends the task's next command.  The lock is
    released the moment the task returns or fails, so a worker never
    has more than one command in flight.
    """

    __slots__ = ("index", "done", "_gen", "_conn", "_lock", "_held", "_value", "_exc")

    def __init__(self, index: int, gen, conn, lock, held: List["_Exchange"]):
        self.index = index
        self.done = False
        self._gen = gen
        self._conn = conn
        self._lock = lock
        self._held = held
        self._value: object = None
        self._exc: Optional[BaseException] = None

    def _finish(self, value: object, exc: Optional[BaseException]) -> None:
        self._gen.close()  # no-op once the task has returned or raised
        self.done = True
        self._value = value
        self._exc = exc
        self._lock.release()
        self._held.remove(self)

    def _lost(self, exc: BaseException) -> BaseException:
        """A pipe that fails (EOF, broken, reset) means the worker died."""
        if not isinstance(exc, (EOFError, OSError)):
            return exc  # e.g. an unpicklable command: nothing was sent
        crash = WorkerCrashError(f"shard worker {self.index} died mid-command")
        # Drop the pipe frames: they pin the pickled command's buffer.
        crash.__cause__ = exc.with_traceback(None)
        return crash

    def _advance(self, reply: object) -> None:
        try:
            command = self._gen.send(reply)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:
            self._finish(None, exc)
            return
        try:
            self._conn.send(command)
        except BaseException as exc:
            self._finish(None, self._lost(exc))

    def step(self) -> None:
        """Receive one reply and send the next command (never raises)."""
        try:
            reply = self._conn.recv()
        except BaseException as exc:
            self._finish(None, self._lost(exc))
            return
        if reply[0] == "error":
            self._finish(None, _worker_error(reply))
        else:
            self._advance(reply[1])

    def result(self) -> object:
        """Drive the exchange to its end; return or raise its outcome."""
        while not self.done:
            self.step()
        if self._exc is not None:
            raise self._exc
        return self._value


class _Held(threading.local):
    """Per thread: its exchanges that still hold a worker lock."""

    def __init__(self) -> None:
        self.exchanges: List[_Exchange] = []


class ProcessShardExecutor:
    """One spawned worker process per shard, driven by the callers.

    Implements the executor seam of :mod:`repro.sharding.executor` —
    ``run``/``fan_out``/``broadcast``/``inspect`` plus ``submit``
    handles with ``result()`` — adapted to the process boundary: an op
    must be *picklable* and is invoked in the worker as ``fn(driver,
    *args, **kwargs)`` against the shard driver the worker built from
    its :class:`ShardFactory`.  The page-carrying ops of
    :mod:`repro.sharding.ops` ride the shared-memory frame ring instead
    (:data:`_RING_TASKS`), and the innermost phase of :attr:`phases`
    travels with every command.

    There are no parent-side threads.  The calling thread speaks the
    worker's pipe itself, holding that worker's lock from its first
    command until its last reply, so a worker has at most one command
    in flight — which is what makes the shared-memory frame ring
    reusable between commands.  A thread waits only for a worker lock
    above every lock it already holds (see :meth:`submit_task`), so
    concurrent fan-outs cannot deadlock.
    """

    suffix = " proc"
    serializes_callers = True

    def __init__(
        self,
        factories: Sequence[ShardFactory],
        name: str = "shard-proc",
        start_timeout_s: float = 120.0,
    ):
        self.factories = list(factories)
        if not self.factories:
            raise ConfigurationError(
                "ProcessShardExecutor needs at least one shard factory"
            )
        ctx = get_context("spawn")
        n = len(self.factories)
        self._locks = [threading.Lock() for _ in range(n)]
        self._held = _Held()
        self._procs: List = []
        self._conns: List = []
        self._shms: List[shared_memory.SharedMemory] = []
        self._shutdown = False
        self._shutdown_started = False
        self._reaped = False
        self._state_lock = threading.Lock()
        self.phases = PhaseStack()
        #: Per-worker :data:`ops.SNAPSHOT` results taken at shutdown
        #: (``None`` for a worker that could not answer).
        self._final: List[Optional[list]] = [None] * n
        #: Per-worker :func:`ops.describe` facts from the ready
        #: handshake, plus the ``"report"`` of a recovery build.
        self.meta: List[dict] = [{} for _ in range(n)]
        try:
            for i, factory in enumerate(self.factories):
                # Each resource is registered the moment it exists, so
                # the except-reap below can release it even when a later
                # step of the same iteration (Pipe, Process.start) is
                # what raised.
                frame = max(1, factory.spec.page_data_size)
                shm = shared_memory.SharedMemory(
                    create=True, size=frame * FRAMES_PER_WORKER
                )
                self._shms.append(shm)
                parent_conn, child_conn = ctx.Pipe()
                self._conns.append(parent_conn)
                try:
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(child_conn, shm.name, factory),
                        name=f"{name}-{i}",
                        daemon=True,  # a forgotten shutdown must not hang exit
                    )
                    proc.start()
                    self._procs.append(proc)
                finally:
                    # The child end must stay open until start() has
                    # pickled it into the worker; close it in the parent
                    # on success and failure alike.
                    child_conn.close()
            for i, conn in enumerate(self._conns):
                if not conn.poll(start_timeout_s):
                    raise WorkerCrashError(
                        f"shard worker {i} did not report ready within "
                        f"{start_timeout_s:.0f}s"
                    )
                try:
                    msg = conn.recv()
                except EOFError:
                    raise WorkerCrashError(f"shard worker {i} died during startup") from None
                if msg[0] == "error":
                    raise _worker_error(msg)
                self.meta[i] = msg[1]
        except BaseException:
            self._reap(force=True)
            raise

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._locks)

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown_started

    def submit_task(self, index: int, task: Callable, *args) -> _Exchange:
        """Start generator task ``task(frame_buf, *args)`` on worker ``index``.

        The calling thread takes the worker's lock and sends the task's
        first command; the returned exchange's ``result()`` collects the
        replies and releases the lock.  Every worker command sequence
        enters here.  Any exchange this thread still holds on worker
        ``index`` or above is finished first, so the thread only ever
        waits for a lock higher than all the locks it holds.
        """
        if not 0 <= index < len(self._locks):
            raise ValueError(f"worker index {index} outside pool of {len(self._locks)}")
        held = self._held.exchanges
        if held:
            _drive([ex for ex in held if ex.index >= index])
        lock = self._locks[index]
        lock.acquire()
        if self._shutdown:
            lock.release()
            raise ConcurrencyError("executor is shut down")
        exchange = _Exchange(
            index, task(self._shms[index].buf, *args), self._conns[index], lock, held
        )
        held.append(exchange)
        exchange._advance(None)
        return exchange

    def run_tasks(self, calls: Sequence[Tuple[int, Callable, tuple]]) -> List[object]:
        """Run ``(index, task, args)`` exchanges concurrently; join all.

        Exchanges start in ascending worker order (the lock order), so
        every worker has its first command before any reply is awaited;
        replies are then collected round-robin, which keeps workers
        overlapping through chunked batches.  Results come back in
        ``calls`` order; the first failure is re-raised once every
        exchange has finished and released its lock.
        """
        order = sorted(range(len(calls)), key=lambda k: calls[k][0])
        exchanges: List[Optional[_Exchange]] = [None] * len(calls)
        try:
            for k in order:
                index, task, args = calls[k]
                exchanges[k] = self.submit_task(index, task, *args)
        finally:
            _drive([ex for ex in exchanges if ex is not None])
        return gather(exchanges)

    def _task(self, fn: Callable, args: tuple, kwargs: Optional[dict] = None) -> tuple:
        """``(task, *task_args)`` carrying op ``fn`` and the caller's phase."""
        phase = self.phases.current
        ring = _RING_TASKS.get(fn)
        if ring is None:
            return (_call, phase, fn, args, kwargs)
        if kwargs:
            raise TypeError(
                f"{fn.__name__} rides the frame ring and takes positional "
                f"arguments only, not {sorted(kwargs)}"
            )
        task, lead = ring
        return (task, *lead, phase, *args)

    def submit(self, index: int, fn: Callable, *args, **kwargs) -> _Exchange:
        """Start picklable ``fn(driver, *args, **kwargs)`` on a worker."""
        return self.submit_task(index, *self._task(fn, args, kwargs))

    def run(self, index: int, fn: Callable, *args, **kwargs):
        """Run ``fn(driver, ...)`` on worker ``index`` and return its result."""
        return self.submit_task(index, *self._task(fn, args, kwargs)).result()

    def fan_out(self, calls: Sequence[Tuple[int, Callable, tuple]]) -> List[object]:
        """Run ``(index, op, args)`` calls concurrently; join all."""
        tasks = []
        for index, fn, args in calls:
            task, *task_args = self._task(fn, args)
            tasks.append((index, task, task_args))
        return self.run_tasks(tasks)

    def broadcast(self, fn: Callable, *args, **kwargs) -> List[object]:
        """Run ``fn(driver, ...)`` on every worker concurrently."""
        task, *task_args = self._task(fn, args, kwargs)
        return self.run_tasks([(i, task, task_args) for i in range(self.n_workers)])

    def inspect(self, op: Callable) -> List[object]:
        """Read-only ``op`` per worker; after shutdown, from the snapshot
        taken while the workers still ran (only :data:`ops.SNAPSHOT`)."""
        if not self._shutdown_started:
            return self.broadcast(op)
        if op not in ops.SNAPSHOT:
            raise ConcurrencyError("executor is shut down")
        k = ops.SNAPSHOT.index(op)
        values = []
        for index, state in enumerate(self._final):
            if state is None:
                raise WorkerCrashError(
                    f"shard worker {index} stopped before its state was captured"
                )
            values.append(state[k])
        return values

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop workers once their in-flight commands finish; reap.

        Idempotent.  ``shutdown(wait=False)`` stops the workers but
        leaves reaping to a later ``shutdown()`` (or ``__exit__``) — the
        started/reaped states are tracked separately so no call order
        can leak processes or shared-memory segments.
        """
        with self._state_lock:
            already_started = self._shutdown_started
            self._shutdown_started = True
        if not already_started:
            # Snapshot what reports may still ask for, while the workers
            # exist, so counters can be read after close().
            for index in range(self.n_workers):
                try:
                    self._final[index] = self.run(index, ops.snapshot)
                # repro: allow[bare-except] -- best-effort snapshot: a dead
                # worker must not block reaping the rest
                except Exception:
                    pass
            _drive(list(self._held.exchanges))
            self._shutdown = True
            for lock, conn in zip(self._locks, self._conns):
                # A command wedged past the timeout leaves its worker to
                # _reap's terminate path.
                if not lock.acquire(timeout=30):
                    continue
                try:
                    conn.send(("stop",))
                    conn.recv()
                except (EOFError, OSError):
                    pass  # already dead; _reap joins it
                finally:
                    lock.release()
        if wait:
            self._reap()

    def _reap(self, force: bool = False) -> None:
        with self._state_lock:
            if self._reaped:
                return
            self._reaped = True
        for proc in self._procs:
            if force:
                proc.terminate()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _drive(exchanges: Sequence[_Exchange]) -> None:
    """Finish every exchange, one reply from each in turn."""
    pending = [ex for ex in exchanges if not ex.done]
    while pending:
        for exchange in pending:
            exchange.step()
        pending = [ex for ex in pending if not ex.done]


#: The process-backed array is the one sharded façade; the alias keeps
#: code and tools that name it by this module working.
ProcessShardedDriver = ShardedDriver
