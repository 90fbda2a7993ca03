"""The benchmark's workloads: sizes, engine configuration and stream.

Every workload uses 2 KB pages (the Table-1 chip geometry) and opens
its database with :meth:`repro.storage.Database.open` on a directory of
:class:`~repro.flash.backend.FileBackend` images.  One client drives it
as a closed loop and issues ``Database.flush()`` — the commit — after
every :data:`COMMIT_EVERY` updates.  A commit does not fsync: the file
backend writes through to the OS page cache, the engine default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.flash.spec import FlashSpec
from repro.scenarios import ScenarioStream, build_stream
from repro.workloads.patterns import make_pattern

#: Logical page size (bytes) of every workload.
PAGE_SIZE = 2048

#: Updates per commit (``Database.flush()``, the durability ack).
COMMIT_EVERY = 32


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``det_ops`` is the length of the seeded stream.  Its first pass is
    the deterministic window: every simulated and count metric is read
    at the moment the pass ends, so those metrics depend only on the
    seed.  Host-clock metrics cover the whole timed window, which keeps
    replaying the stream until the requested seconds have passed.

    ``crash_every`` crashes the database every that many ops of the
    first pass, the end of the pass included.  Every workload crashes,
    so every workload reports restart cost and passes the durability
    check.
    """

    name: str
    pattern: str
    n_pages: int
    pool_frames: int
    blocks_per_shard: int
    det_ops: int
    crash_every: int
    shards: int = 1
    executor: str = "serial"
    mapping_cache: Optional[int] = None

    def spec(self) -> FlashSpec:
        return FlashSpec(n_blocks=self.blocks_per_shard, page_data_size=PAGE_SIZE)

    def open_kwargs(self) -> Dict[str, object]:
        """Keyword arguments of ``Database.open`` (create and reopen)."""
        kwargs: Dict[str, object] = {
            "buffer_capacity": self.pool_frames,
            "spec": self.spec(),
            "n_shards": self.shards,
            "parallel": "process" if self.executor == "process" else False,
        }
        if self.mapping_cache is not None:
            kwargs["mapping_cache"] = self.mapping_cache
        return kwargs

    def stream(self, seed: int) -> ScenarioStream:
        return build_stream(
            make_pattern(self.pattern),
            n_pages=self.n_pages,
            n_ops=self.det_ops,
            page_size=PAGE_SIZE,
            seed=seed,
        )

    def crash_points(self) -> List[int]:
        """Op indexes at which the database crashes (before that op)."""
        return list(range(self.crash_every, self.det_ops + 1, self.crash_every))


#: The workloads, in ``BENCHMARK.json``'s order; the reason for each is
#: its ``why`` there.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot-fit",
            pattern="ycsb-b",
            n_pages=2048,
            pool_frames=2048,
            blocks_per_shard=48,
            det_ops=200_000,
            crash_every=10_000,
        ),
        Workload(
            name="engine-miss",
            pattern="ycsb-a",
            n_pages=2048,
            pool_frames=64,
            blocks_per_shard=48,
            det_ops=60_000,
            crash_every=3_000,
        ),
        Workload(
            name="sharded-proc",
            pattern="ycsb-a",
            n_pages=2048,
            pool_frames=64,
            blocks_per_shard=24,
            shards=2,
            executor="process",
            det_ops=60_000,
            crash_every=6_000,
        ),
        Workload(
            name="crash-restart",
            pattern="ycsb-a",
            n_pages=2048,
            pool_frames=64,
            blocks_per_shard=48,
            mapping_cache=256,
            crash_every=250,
            det_ops=40_000,
        ),
    )
}
