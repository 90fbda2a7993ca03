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
  honoring the thread executor's submit/result contract.  There are no
  parent-side threads: the *calling* thread sends each command down the
  worker's pipe and reads the reply itself, under a per-worker lock
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
* :class:`ProcessShardedDriver` — the
  :class:`~repro.sharding.driver.ShardedDriver`-shaped façade on top:
  same routing, batched fan-out, fsck/GC/wear reporting and label
  round-tripping (``"PDL (256B) x8 proc"``), with per-shard
  :class:`~repro.flash.stats.FlashStats` accumulated worker-side and
  merged into an :class:`~repro.sharding.stats.AggregateStats` view on
  read (and snapshotted once more on shutdown, so post-close reporting
  still works).

Commands and results travel over pipes; exceptions raised in a worker
are pickled back and re-raised in the caller (with the worker traceback
attached as a note on Python ≥ 3.11), so error handling looks exactly
like the thread executor's.
"""

from __future__ import annotations

import pickle
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..flash.spec import FlashSpec
from ..flash.stats import DEFAULT_PHASE
from ..ftl.base import ChangeRun, PageUpdateMethod
from ..ftl.errors import ConcurrencyError, ConfigurationError
from .executor import gather
from .router import HashRouter, ShardRouter
from .stats import AggregateStats

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
            meta = {
                "name": driver.name,
                "page_size": driver.page_size,
                "tightly_coupled": bool(getattr(driver, "tightly_coupled", False)),
                "effective_max": getattr(driver, "effective_max", None),
                "report": report,
            }
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
            # _op_close) is harmless but guarded anyway.
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


# Worker-side operations dispatched through the generic "call" command.
# They must live at module level so pickle can resolve them by name in
# the spawned child.
def _op_flush(driver):
    driver.flush()


def _op_end_of_load(driver):
    driver.end_of_load()


def _op_sync(driver):
    driver.chip.sync()


def _op_close(driver):
    driver.chip.close()


def _op_stats(driver):
    return driver.stats


def _op_reset_stats(driver):
    driver.stats.reset()


def _op_clock(driver):
    return driver.chip.clock_us


def _op_fsck(driver, repair):
    from ..core.fsck import FsckReport

    if hasattr(driver, "fsck"):
        return driver.fsck(repair=repair)
    return FsckReport()


def _op_diff_count(driver):
    if hasattr(driver, "differential_page_count"):
        return driver.differential_page_count()
    return 0


def _op_horizon(driver):
    ppmt = getattr(driver, "ppmt", None)
    if ppmt is None:
        return 0
    top = getattr(ppmt, "max_pid", None)
    if top is not None:
        # Tiered tables track the horizon; a full walk would demand-page
        # every snapshot page of the shard just to find the max.
        return top + 1
    return max((pid for pid, _entry in ppmt.items()), default=-1) + 1


def _op_gc_info(driver):
    gc = getattr(driver, "gc", None)
    if gc is None:
        return None
    return {
        "policy": gc.policy_label,
        "collections": gc.collections,
        "pages_relocated": gc.pages_relocated,
        "incremental_steps": gc.steps,
        "debt_blocks": gc.gc_debt(),
        "gc_time_us": gc.gc_time_us,
    }


def _op_final_state(driver):
    """Everything the parent may still ask about after shutdown."""
    return {
        "clock_us": driver.chip.clock_us,
        "stats": driver.stats,
        "gc": _op_gc_info(driver),
        "differential_pages": _op_diff_count(driver),
        "horizon": _op_horizon(driver),
    }


def _op_dump_image(driver):
    """Flash image of the shard's chip, for equivalence testing."""
    return dump_chip_image(driver.chip)


def dump_chip_image(chip) -> Dict[str, object]:
    """Parent-side twin of the worker image dump (thread/serial drivers)."""
    pages = {}
    for addr in chip.iter_programmed_pages():
        pages[addr] = (chip.peek_data(addr), chip.peek_spare(addr))
    erases = [chip.erase_count(b) for b in range(chip.spec.n_blocks)]
    return {"pages": pages, "erase_counts": erases}


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
    return (yield ("call", phase, fn, args, kwargs))


def _read(buf, phase, pid):
    n = yield ("read_page", phase, pid)
    return bytes(buf[:n])


def _check_fits(n: int, cap: int) -> None:
    if n > cap:
        raise ConfigurationError(
            f"page of {n} bytes exceeds the {cap}-byte shared-memory frame ring"
        )


def _put_page(buf, op, phase, pid, data, logs):
    """``write_page``/``load_page``: one page through frame 0."""
    n = len(data)
    _check_fits(n, len(buf))
    buf[:n] = data
    yield (op, phase, pid, n, logs)


def _put_batch(buf, op, phase, group, logs, do_flush):
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
        yield ("call", phase, _op_flush, (), {})


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

    Mirrors :class:`~repro.sharding.executor.ShardExecutor`'s contract —
    ``submit``/``run``/``map``/``broadcast``, handles with ``result()``
    — with the execution surface adapted to the process boundary: a
    submitted callable must be *picklable* and is invoked in the worker
    as ``fn(driver, *args, **kwargs)`` against the shard driver the
    worker built from its :class:`ShardFactory`.

    There are no parent-side threads.  The calling thread speaks the
    worker's pipe itself, holding that worker's lock from its first
    command until its last reply, so a worker has at most one command
    in flight — which is what makes the shared-memory frame ring
    reusable between commands.  A thread waits only for a worker lock
    above every lock it already holds (see :meth:`submit_task`), so
    concurrent fan-outs cannot deadlock.
    """

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
        self._finalizers: List[Callable[[], None]] = []
        #: Per-worker build metadata from the ready handshake (driver
        #: name, page size, effective_max, recovery report).
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

    def submit(self, index: int, fn: Callable, *args, **kwargs) -> _Exchange:
        """Start picklable ``fn(driver, *args, **kwargs)`` on a worker."""
        return self.submit_task(index, _call, None, fn, args, kwargs)

    def run(self, index: int, fn: Callable, *args, **kwargs):
        """Run ``fn(driver, ...)`` on worker ``index`` and return its result."""
        return self.submit(index, fn, *args, **kwargs).result()

    def map(self, tasks: Sequence[Tuple[int, Callable]]) -> List[object]:
        """Run ``(worker index, fn)`` calls concurrently; join all."""
        return self.run_tasks([(index, _call, (None, fn, (), {})) for index, fn in tasks])

    def broadcast(self, fn: Callable, *args, **kwargs) -> List[object]:
        """Run ``fn(driver, ...)`` on every worker concurrently."""
        return self.run_tasks(
            [(i, _call, (None, fn, args, kwargs)) for i in range(self.n_workers)]
        )

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Register a hook to run (once) at shutdown, before workers stop.

        The driver uses this to snapshot worker-side state (stats,
        clocks) while the workers still exist, so benchmarks can shut
        the pool down and *then* read counters — the same call order
        the thread executor supports for free.
        """
        self._finalizers.append(fn)

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
            for finalizer in self._finalizers:
                try:
                    finalizer()
                # repro: allow[bare-except] -- best-effort snapshot hooks: a
                # dead worker must not block reaping the rest
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


# ----------------------------------------------------------------------
# Stats façade
# ----------------------------------------------------------------------
class ProcessAggregateStats:
    """An :class:`AggregateStats`-shaped view over worker-side collectors.

    Reads fetch the per-shard :class:`~repro.flash.stats.FlashStats`
    from the workers (or from the shutdown snapshot) and delegate to a
    real :class:`AggregateStats` built on the fetch, so every derived
    metric stays consistent with the thread executor.  ``phase`` is
    parent-side state: the innermost name rides along with each command
    and is re-pushed around the operation inside the worker — the
    process twin of the thread driver's phase capture.
    """

    def __init__(self, driver: "ProcessShardedDriver"):
        self._driver = driver
        self._phases = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._phases, "stack", None)
        if stack is None:
            stack = self._phases.stack = []
        return stack

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        stack = self._stack()
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()

    @property
    def current_phase(self) -> str:
        stack = self._stack()
        return stack[-1] if stack else DEFAULT_PHASE

    def _agg(self) -> AggregateStats:
        return AggregateStats(self._driver._states("stats", _op_stats))

    def reset(self) -> None:
        self._driver._broadcast(_op_reset_stats)

    def __getattr__(self, name: str):
        # Properties resolve to values, methods to bound methods of a
        # freshly fetched aggregate — one fetch per access either way.
        # Private/dunder lookups (pickle, copy) must not fan out.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._agg(), name)


class _RemoteChip:
    """Parent-side stand-in for a worker-owned chip (introspection only).

    Exposes the two attributes measurement code reads off
    ``driver.chips`` — the simulated clock and the stats collector —
    plus sync/close, all marshalled to the owning worker (or served
    from the shutdown snapshot once the pool has stopped).
    """

    def __init__(self, owner: "ProcessShardedDriver", index: int):
        self._owner = owner
        self._index = index
        self.spec = owner.executor.factories[index].spec

    @property
    def clock_us(self) -> float:
        return self._owner._state(self._index, "clock_us", _op_clock)

    @property
    def stats(self):
        return self._owner._state(self._index, "stats", _op_stats)

    def sync(self) -> None:
        self._owner._run(self._index, _op_sync)

    def close(self) -> None:
        self._owner._run(self._index, _op_close)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RemoteChip shard={self._index}>"


# ----------------------------------------------------------------------
# The driver façade
# ----------------------------------------------------------------------
class ProcessShardedDriver:
    """A sharded driver whose shards live in worker processes.

    Presents the :class:`~repro.sharding.driver.ShardedDriver` surface —
    routing, batched fan-out entry points, aggregated stats/GC/wear/fsck
    reporting — over a :class:`ProcessShardExecutor`.  There are no
    local shard driver objects: every operation is marshalled to the
    owning shard's worker, with page payloads in shared memory.

    Construction happens through :func:`repro.methods.make_method` with
    a ``proc`` label (fresh shards), ``recover_all(...,
    parallel="process")`` (existing images) or ``Database.open(...,
    parallel="process")``.
    """

    def __init__(
        self,
        factories: Optional[Sequence[ShardFactory]] = None,
        router: Optional[ShardRouter] = None,
        executor: Optional[ProcessShardExecutor] = None,
    ):
        if executor is None:
            if not factories:
                raise ConfigurationError(
                    "ProcessShardedDriver needs shard factories or a "
                    "running ProcessShardExecutor"
                )
            executor = ProcessShardExecutor(factories)
        self.executor = executor
        n = executor.n_workers
        self.router = router if router is not None else HashRouter(n)
        if self.router.n_shards != n:
            raise ConfigurationError(
                f"router partitions {self.router.n_shards} shards but the "
                f"executor runs {n} workers"
            )
        metas = executor.meta
        sizes = {meta["page_size"] for meta in metas}
        if len(sizes) != 1:
            raise ConfigurationError(
                f"shards disagree on logical page size: {sorted(sizes)}"
            )
        self.name = f"{metas[0]['name']} x{n} proc"
        self.tightly_coupled = any(meta["tightly_coupled"] for meta in metas)
        self.group_flushes = 0
        self._counter_lock = threading.Lock()
        self._stats = ProcessAggregateStats(self)
        self._final_state: List[Optional[dict]] = [None] * n
        self._chips = [_RemoteChip(self, i) for i in range(n)]
        executor.add_finalizer(self._capture_final_state)

    # ------------------------------------------------------------------
    # Routing + marshalling
    # ------------------------------------------------------------------
    def shard_index(self, pid: int) -> int:
        index = self.router.shard_of(pid)
        if not 0 <= index < self.n_shards:
            raise ConfigurationError(
                f"router sent pid {pid} to shard {index} of {self.n_shards}"
            )
        return index

    def _phase(self) -> Optional[str]:
        phase = self._stats.current_phase
        return None if phase == DEFAULT_PHASE else phase

    def _run(self, index: int, fn: Callable, *args):
        return self.executor.submit_task(index, _call, self._phase(), fn, args, {}).result()

    def _broadcast(self, fn: Callable, *args) -> List[object]:
        call = (self._phase(), fn, args, {})
        return self.executor.run_tasks([(i, _call, call) for i in range(self.n_shards)])

    # ------------------------------------------------------------------
    # PageUpdateMethod contract — single-page paths
    # ------------------------------------------------------------------
    def _put(self, op: str, pid: int, data: bytes, logs) -> None:
        self.executor.submit_task(
            self.shard_index(pid), _put_page, op, self._phase(), pid, data, logs
        ).result()

    def load_page(self, pid: int, data: bytes) -> None:
        self._put("load_page", pid, data, None)

    def read_page(self, pid: int) -> bytes:
        return self.executor.submit_task(self.shard_index(pid), _read, self._phase(), pid).result()

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        self._put("write_page", pid, data, update_logs)

    # ------------------------------------------------------------------
    # Fan-out paths
    # ------------------------------------------------------------------
    def end_of_load(self) -> None:
        self._broadcast(_op_end_of_load)

    def _fan_out_batches(
        self, op: str, pages, update_logs, flush_all: bool
    ) -> None:
        per_shard: Dict[int, List] = {}
        for pid, data in pages:
            per_shard.setdefault(self.shard_index(pid), []).append((pid, data))
        phase = self._phase()
        calls = []
        for index in range(self.n_shards) if flush_all else sorted(per_shard):
            group = per_shard.get(index, [])
            logs = None
            if op == "write_pages" and update_logs is not None:
                logs = {
                    pid: update_logs[pid] for pid, _ in group if pid in update_logs
                }
            calls.append((index, _put_batch, (op, phase, group, logs, flush_all)))
        self.executor.run_tasks(calls)

    def load_pages(self, pages) -> None:
        self._fan_out_batches("load_pages", pages, None, flush_all=False)

    def write_pages(self, pages, update_logs=None) -> None:
        self._fan_out_batches("write_pages", pages, update_logs, flush_all=False)

    def flush(self) -> None:
        self.group_flush()

    def group_flush(self, pages=None, update_logs=None) -> None:
        """Drain every shard's buffers concurrently and join.

        Same durability horizon as the serial driver's group flush;
        with ``pages``, each shard's slice of the batch is written and
        its buffers drained inside one worker command sequence, and
        shards with no pages in the batch still flush.
        """
        if pages is None:
            self._broadcast(_op_flush)
        else:
            self._fan_out_batches("write_pages", pages, update_logs, flush_all=True)
        with self._counter_lock:
            self.group_flushes += 1

    def fsck(self, repair: bool = True):
        """Scan and repair every shard concurrently; join, then merge."""
        from ..core.fsck import FsckReport

        reports = self._broadcast(_op_fsck, repair)
        return FsckReport.merge(list(reports))

    def sync(self) -> None:
        self._broadcast(_op_sync)

    def close(self) -> None:
        """Close every shard chip in its worker, then stop the pool.

        Benchmarks may stop the executor first and read counters from
        the final-state snapshot before closing; in that case the
        workers already closed their chips on the way out, so there is
        nothing left to broadcast.
        """
        try:
            if not self.executor.is_shutdown:
                self._broadcast(_op_close)
        finally:
            self.executor.shutdown()

    # ------------------------------------------------------------------
    # Worker-state access (live before shutdown, snapshot after)
    # ------------------------------------------------------------------
    def _capture_final_state(self) -> None:
        for i in range(self.n_shards):
            try:
                self._final_state[i] = self._run(i, _op_final_state)
            except Exception:
                self._final_state[i] = None

    def _final(self, index: int) -> dict:
        state = self._final_state[index]
        if state is None:
            raise WorkerCrashError(
                f"shard worker {index} stopped before its state was captured"
            )
        return state

    def _state(self, index: int, key: str, op: Callable):
        if self.executor.is_shutdown:
            return self._final(index)[key]
        return self._run(index, op)

    def _states(self, key: str, op: Callable) -> List:
        if self.executor.is_shutdown:
            return [self._final(i)[key] for i in range(self.n_shards)]
        return list(self._broadcast(op))

    def chip_clocks(self) -> List[float]:
        return self._states("clock_us", _op_clock)

    def allocation_horizon(self) -> int:
        """Highest recovered pid + 1 across all shards (post-recovery)."""
        return max(self._states("horizon", _op_horizon), default=0)

    def differential_page_count(self) -> int:
        return sum(self._states("differential_pages", _op_diff_count))

    def dump_images(self) -> List[Dict[str, object]]:
        """Per-shard flash images (equivalence testing; memory backends)."""
        return list(self._broadcast(_op_dump_image))

    # ------------------------------------------------------------------
    # Aggregated introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.executor.n_workers

    @property
    def chips(self) -> List[_RemoteChip]:
        return list(self._chips)

    @property
    def spec(self) -> FlashSpec:
        return self.executor.factories[0].spec

    @property
    def stats(self) -> ProcessAggregateStats:
        return self._stats

    @property
    def page_size(self) -> int:
        return self.executor.meta[0]["page_size"]

    @property
    def effective_max(self) -> Optional[int]:
        """Representative PDL Case-3 horizon (None for non-PDL shards)."""
        return self.executor.meta[0]["effective_max"]

    @property
    def total_blocks(self) -> int:
        return sum(f.spec.n_blocks for f in self.executor.factories)

    @property
    def recovery_reports(self) -> List[object]:
        """Per-shard Figure-11 reports from the ready handshake."""
        return [meta.get("report") for meta in self.executor.meta]

    def gc_report(self) -> Dict[str, object]:
        """Aggregated space-management health across the array."""
        per_shard = self._states("gc", _op_gc_info)
        present = [entry for entry in per_shard if entry is not None]
        agg = self._stats._agg()
        return {
            "per_shard": per_shard,
            "total_collections": sum(e["collections"] for e in present),
            "total_pages_relocated": sum(e["pages_relocated"] for e in present),
            "total_incremental_steps": sum(e["incremental_steps"] for e in present),
            "total_debt_blocks": sum(e["debt_blocks"] for e in present),
            "write_stall_p99_us": agg.write_stall_percentile(99),
            "write_stall_max_us": agg.max_write_stall_us,
        }

    def wear_report(self) -> Dict[str, object]:
        """Aggregated wear: per-shard erase totals and worst block."""
        shard_stats = self._states("stats", _op_stats)
        per_shard = [stats.total_erases for stats in shard_stats]
        worst = max(
            (max(stats.block_erases, default=0) for stats in shard_stats),
            default=0,
        )
        return {
            "per_shard_erases": per_shard,
            "total_erases": sum(per_shard),
            "max_block_erases": worst,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ProcessShardedDriver {self.name!r} "
            f"router={type(self.router).__name__} shards={self.n_shards}>"
        )
