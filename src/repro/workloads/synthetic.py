"""The paper's synthetic workload (Section 5.1).

An *update operation* consists of (1) reading the addressed page,
(2) changing ``%ChangedByOneU_Op`` percent of its data at a randomly
selected position, and (3) writing the updated page — executed directly
against the driver "to exclude the buffering effect in the DBMS".

``N_updates_till_write`` is the number of update operations applied to a
page in memory between recreating it from flash and reflecting it back:
one measured cycle performs one read step, ``N`` in-memory changes (each
a fresh random region of the page), and one write step.  Figures 12–17
report time per such cycle; OPU's flatness across N in Figure 13 is the
tell-tale that this is the paper's normalization.

The workload keeps a shadow copy of every page and verifies each read
against it, so every benchmark run is simultaneously an end-to-end
correctness check of the driver under test (disable with
``verify=False`` for speed).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ftl.base import ChangeRun, PageUpdateMethod


class VerificationError(AssertionError):
    """A driver returned page contents different from the shadow copy."""


@dataclass(frozen=True)
class PlannedCycle:
    """One pre-drawn update cycle: the pid and its in-memory mutations.

    Runs are content-independent overwrites, so a cycle can be replayed
    on any thread as long as per-pid plan order is preserved.
    """

    pid: int
    runs: Tuple[ChangeRun, ...]


@dataclass
class SyntheticConfig:
    """Parameters of Table 3's experiments."""

    database_pages: int
    pct_changed: float = 2.0  # %ChangedByOneU_Op
    n_updates_till_write: int = 1  # N_updates_till_write
    seed: int = 20100121  # the paper's arXiv date, for reproducibility
    verify: bool = True

    def __post_init__(self) -> None:
        if self.database_pages <= 0:
            raise ValueError("database_pages must be positive")
        if not 0.0 < self.pct_changed <= 100.0:
            raise ValueError("pct_changed must be in (0, 100]")
        if self.n_updates_till_write < 1:
            raise ValueError("n_updates_till_write must be at least 1")


class SyntheticWorkload:
    """Drives one page-update method with the paper's update operations."""

    def __init__(self, driver: PageUpdateMethod, config: SyntheticConfig):
        self.driver = driver
        self.config = config
        self.rng = random.Random(config.seed)
        self._shadow: List[bytes] = []
        self.update_cycles = 0
        self.read_ops = 0
        page = driver.page_size
        self.change_size = max(1, round(page * config.pct_changed / 100.0))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self) -> None:
        """Populate the database with random page images.

        Loading goes through the driver's batched :meth:`load_pages`
        path — the bulk-load hot path the file backend amortizes into a
        few large writes per allocation block.
        """
        page_size = self.driver.page_size
        pages = []
        for pid in range(self.config.database_pages):
            data = self.rng.randbytes(page_size)
            pages.append((pid, data))
            self._shadow.append(data)
        self.driver.load_pages(pages)
        self.driver.end_of_load()

    @property
    def shadow(self) -> List[bytes]:
        return self._shadow

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def update_cycle(
        self, pid: Optional[int] = None, n_updates: Optional[int] = None
    ) -> None:
        """One read-modify-write cycle with N in-memory updates.

        ``n_updates`` overrides the configured ``N_updates_till_write``
        (used by the steady-state aging pass, which collapses a page's
        accumulated update history into one reflection).
        """
        if pid is None:
            pid = self.rng.randrange(self.config.database_pages)
        if n_updates is None:
            n_updates = self.config.n_updates_till_write
        data = self.driver.read_page(pid)
        self._verify(pid, data)
        image = bytearray(data)
        logs: List[ChangeRun] = []
        for _ in range(n_updates):
            logs.append(self._mutate(image))
        new_data = bytes(image)
        self._shadow[pid] = new_data
        self.driver.write_page(pid, new_data, update_logs=logs)
        self.update_cycles += 1

    def read_only_op(self, pid: Optional[int] = None) -> bytes:
        """A read-only operation (Experiment 4's mixes)."""
        if pid is None:
            pid = self.rng.randrange(self.config.database_pages)
        data = self.driver.read_page(pid)
        self._verify(pid, data)
        self.read_ops += 1
        return data

    def _mutate(self, image: bytearray) -> ChangeRun:
        """Change ``%ChangedByOneU_Op`` of the page at a random offset.

        Draws offset then payload from the workload RNG — the exact
        order :meth:`plan_updates` replicates; keep the two in sync.
        """
        rng = self.rng
        page_size = len(image)
        size = min(self.change_size, page_size)
        offset = rng.randrange(page_size - size + 1)
        new_bytes = rng.randbytes(size)
        image[offset : offset + size] = new_bytes
        return ChangeRun(offset, new_bytes)

    # ------------------------------------------------------------------
    # Batch helpers
    # ------------------------------------------------------------------
    def run_updates(self, n_cycles: int) -> None:
        for _ in range(n_cycles):
            self.update_cycle()

    def plan_updates(self, n_cycles: int) -> List["PlannedCycle"]:
        """Pre-draw ``n_cycles`` update cycles from the workload RNG.

        The draws happen in exactly the order :meth:`update_cycle` makes
        them — pid first, then each mutation's offset and payload — so a
        workload that plans and executes ``n`` cycles consumes the same
        RNG stream as one that runs them directly.  Mutations depend only
        on the RNG and the page size, never on page contents, which is
        what makes the plan executable out of order across pids: applying
        one pid's runs in plan order yields the same final image no
        matter how other pids interleave.
        """
        page_size = self.driver.page_size
        size = min(self.change_size, page_size)
        plan: List[PlannedCycle] = []
        for _ in range(n_cycles):
            pid = self.rng.randrange(self.config.database_pages)
            runs: List[ChangeRun] = []
            for _ in range(self.config.n_updates_till_write):
                offset = self.rng.randrange(page_size - size + 1)
                runs.append(ChangeRun(offset, self.rng.randbytes(size)))
            plan.append(PlannedCycle(pid, tuple(runs)))
        return plan

    def run_updates_threaded(self, n_cycles: int, n_threads: int) -> None:
        """Run update cycles from ``n_threads`` concurrent client threads.

        The whole operation stream is pre-drawn with :meth:`plan_updates`
        and partitioned by ``pid % n_threads``: an identical seed yields
        the identical set of update cycles — same pids, same mutations —
        regardless of the client-thread count, and the same stream a
        serial :meth:`run_updates` call would execute.  Each thread owns
        a disjoint pid partition and replays its cycles in plan order, so
        the shadow copy stays race-free (threads write disjoint list
        slots), verification remains exact, and the final database state
        matches the serial run bit-for-bit.  Only the interleaving
        across pids is nondeterministic — which is the point: this
        drives a thread-safe driver (e.g. an ``xN par`` array on a
        :class:`~repro.sharding.executor.ThreadExecutor`) the way
        concurrent DBMS clients would.  Serial drivers are not safe
        under this entry point; use :meth:`run_updates`.
        """
        if n_threads < 1:
            raise ValueError("n_threads must be at least 1")
        if n_threads == 1:
            self.run_updates(n_cycles)
            return
        plan = self.plan_updates(n_cycles)
        partitions: List[List[PlannedCycle]] = [[] for _ in range(n_threads)]
        for cycle in plan:
            partitions[cycle.pid % n_threads].append(cycle)
        errors: List[BaseException] = []
        lock = threading.Lock()

        def client(t: int) -> None:
            try:
                for cycle in partitions[t]:
                    pid = cycle.pid
                    data = self.driver.read_page(pid)
                    self._verify(pid, data)
                    image = bytearray(data)
                    # Same cycle shape as update_cycle: N in-memory
                    # mutations, change runs collected so tightly-coupled
                    # drivers (IPL) see real update logs, not a
                    # degenerate whole-page log.
                    for run in cycle.runs:
                        image[run.offset : run.offset + len(run.data)] = run.data
                    new_data = bytes(image)
                    self._shadow[pid] = new_data
                    self.driver.write_page(
                        pid, new_data, update_logs=list(cycle.runs)
                    )
            except BaseException as exc:
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,), name=f"client-{t}")
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.update_cycles += len(plan)

    def run_mix(self, n_ops: int, pct_update: float) -> None:
        """Execute a read-only/update mix (``%UpdateOps`` of Table 3)."""
        if not 0.0 <= pct_update <= 100.0:
            raise ValueError("pct_update must be within [0, 100]")
        for _ in range(n_ops):
            if self.rng.uniform(0.0, 100.0) < pct_update:
                self.update_cycle()
            else:
                self.read_only_op()

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def _verify(self, pid: int, data: bytes) -> None:
        if self.config.verify and data != self._shadow[pid]:
            raise VerificationError(
                f"{self.driver.name} returned wrong contents for page {pid}"
            )

    def verify_all(self) -> None:
        """Full database consistency check against the shadow copy."""
        for pid in range(self.config.database_pages):
            data = self.driver.read_page(pid)
            if data != self._shadow[pid]:
                raise VerificationError(
                    f"{self.driver.name} corrupted page {pid}"
                )
