"""Driver registry: build any of the paper's methods from its figure label.

The experiments compare six configurations; this module maps the paper's
labels to constructed drivers so workloads and benchmarks can be written
against names::

    make_method("PDL (256B)", chip)
    make_method("IPL (18KB)", chip)

Labels are case-insensitive and whitespace-tolerant; sizes accept ``B``
and ``KB`` suffixes.

Sharded configurations append an ``xN`` shard count and take a sequence
of N chips instead of one::

    chips = [FlashChip(spec) for _ in range(4)]
    make_method("PDL (256B) x4", chips)          # hash-routed by default
    make_method("OPU x2", chips[:2], router=RangeRouter(2, 1024))

A ``gc=<policy>`` token anywhere after the base label selects a
registered GC victim policy (see :mod:`repro.ftl.gc`) for the driver —
per shard, on sharded labels::

    make_method("PDL (256B) x4 gc=cb", chips)    # cost-benefit GC
    make_method("OPU gc=wear", chip)             # wear-aware GC

A ``par`` token on a sharded label runs the same array on a
:class:`~repro.sharding.executor.ThreadExecutor`: one worker thread per
shard, so group flush, bulk loads and buffer-pool flushes execute
concurrently in wall-clock time (see ``docs/concurrency.md``)::

    make_method("PDL (256B) x4 par", chips)      # thread-parallel array
    make_method("PDL (256B) x4 par gc=cb", chips)

A ``proc`` token instead runs it on a
:class:`~repro.sharding.executor_proc.ProcessShardExecutor`: one worker
*process* per shard, so shard work runs on separate cores past the GIL.
The chips must be pristine (the workers rebuild the drivers from
spawn-safe recipes; use ``recover_all(..., parallel="process")`` for
existing images) and memory- or file-backed::

    make_method("PDL (256B) x8 proc", chips)     # process-parallel array

Each chip gets its own per-shard driver (any base method works); every
sharded label, whatever its executor, builds the one
:class:`~repro.sharding.driver.ShardedDriver` façade.  ``x1`` is
accepted and still builds the sharded façade, which benchmarks use to
measure the façade's (zero-flash-cost) overhead against the bare driver.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple, Union

from .core.pdl import PdlDriver
from .flash.chip import FlashChip
from .ftl.base import PageUpdateMethod
from .ftl.errors import ConfigurationError
from .ftl.gc import GcConfig
from .ftl.ipl import IplDriver
from .ftl.ipu import IpuDriver
from .ftl.opu import OpuDriver
from .sharding.driver import ShardedDriver
from .sharding.executor import InlineExecutor, ThreadExecutor
from .sharding.router import ShardRouter

#: The six configurations of the paper's evaluation (Figure 12's legend).
PAPER_METHODS = (
    "IPL (18KB)",
    "IPL (64KB)",
    "PDL (2KB)",
    "PDL (256B)",
    "OPU",
    "IPU",
)

#: The five methods of Figure 17/18 (IPU excluded, as in the paper).
PAPER_METHODS_NO_IPU = tuple(m for m in PAPER_METHODS if m != "IPU")

_LABEL_RE = re.compile(
    r"^\s*(?P<kind>PDL|IPL)\s*\(\s*(?P<size>\d+)\s*(?P<unit>B|KB)?\s*\)\s*$",
    re.IGNORECASE,
)

_SHARDED_RE = re.compile(r"^(?P<base>.*\S)\s*[xX]\s*(?P<n>\d+)\s*$")

_GC_RE = re.compile(r"\bgc\s*=\s*(?P<policy>[A-Za-z_][\w\-]*)", re.IGNORECASE)

_PAR_RE = re.compile(r"\bpar\b", re.IGNORECASE)

_PROC_RE = re.compile(r"\bproc\b", re.IGNORECASE)


def parse_size(size: str, unit: Optional[str]) -> int:
    value = int(size)
    if unit and unit.upper() == "KB":
        value *= 1024
    return value


def parse_gc_label(label: str) -> Tuple[str, Optional[str]]:
    """Split a ``gc=<policy>`` token off a label.

    ``"PDL (256B) x4 gc=cb"`` → ``("PDL (256B) x4", "cb")``; labels
    without the token return ``(label, None)``.  The token may sit
    before or after the ``xN`` shard suffix, so driver names built as
    ``"PDL (256B) gc=cb x4"`` round-trip through the parser.
    """
    match = _GC_RE.search(label)
    if match is None:
        return label, None
    rest = (label[: match.start()] + label[match.end() :]).strip()
    rest = re.sub(r"\s{2,}", " ", rest)  # heal the seam the token left
    if _GC_RE.search(rest) is not None:
        raise ValueError(f"label {label!r} has more than one gc= token")
    return rest, match.group("policy").lower()


def parse_parallel_label(label: str) -> Tuple[str, Union[bool, str]]:
    """Split a ``par`` or ``proc`` token off a label.

    ``"PDL (256B) x4 par"`` → ``("PDL (256B) x4", "thread")`` and
    ``"PDL (256B) x8 proc"`` → ``("PDL (256B) x8", "process")``; labels
    without either token return ``(label, False)``.  The returned mode
    is truthy exactly when the label requests parallel execution, so
    callers that only care whether the driver is parallel can keep
    treating it as a boolean.  Like ``gc=``, the tokens may sit
    anywhere after the base label, so driver names built as
    ``"PDL (256B) x4 par"`` / ``"... x8 proc"`` round-trip through the
    parser.  A label may carry at most one of the two tokens.
    """
    parallel: Union[bool, str] = False
    rest = label
    match = _PAR_RE.search(rest)
    if match is not None:
        rest = (rest[: match.start()] + rest[match.end() :]).strip()
        rest = re.sub(r"\s{2,}", " ", rest)
        if _PAR_RE.search(rest) is not None:
            raise ValueError(f"label {label!r} has more than one par token")
        parallel = "thread"
    match = _PROC_RE.search(rest)
    if match is not None:
        if parallel:
            raise ValueError(
                f"label {label!r} asks for both thread (par) and process "
                "(proc) execution; pick one"
            )
        rest = (rest[: match.start()] + rest[match.end() :]).strip()
        rest = re.sub(r"\s{2,}", " ", rest)
        if _PROC_RE.search(rest) is not None:
            raise ValueError(f"label {label!r} has more than one proc token")
        parallel = "process"
    return rest, parallel


def parse_sharded_label(label: str) -> Tuple[str, Optional[int]]:
    """Split ``"PDL (256B) x4"`` into ``("PDL (256B)", 4)``.

    Returns ``(label, None)`` for unsharded labels; an explicit ``x1``
    still counts as sharded (one-shard array).
    """
    match = _SHARDED_RE.match(label.strip())
    if match is None:
        return label, None
    return match.group("base"), int(match.group("n"))


def _make_single(label: str, chip: FlashChip, **kwargs) -> PageUpdateMethod:
    plain = label.strip().upper()
    if plain == "OPU":
        return OpuDriver(chip, **kwargs)
    if plain == "IPU":
        if "gc_config" in kwargs:
            raise ConfigurationError(
                "IPU updates in place and owns no garbage collector; "
                "a gc= token / gc_config does not apply"
            )
        return IpuDriver(chip, **kwargs)
    match = _LABEL_RE.match(label)
    if match is None:
        raise ValueError(
            f"unknown method label {label!r}; expected OPU, IPU, "
            "PDL(<size>) or IPL(<size>), optionally suffixed ' xN', "
            "' gc=<policy>' and/or ' par'"
        )
    size = parse_size(match.group("size"), match.group("unit"))
    kind = match.group("kind").upper()
    if kind == "PDL":
        return PdlDriver(chip, max_differential_size=size, **kwargs)
    if "gc_config" in kwargs:
        raise ConfigurationError(
            "IPL reclaims via block merges, not the pluggable collector; "
            "a gc= token / gc_config does not apply"
        )
    return IplDriver(chip, log_region_bytes=size, **kwargs)


def make_method(
    label: str,
    chip: Union[FlashChip, Sequence[FlashChip]],
    *,
    router: Optional[ShardRouter] = None,
    **kwargs,
) -> PageUpdateMethod:
    """Construct the driver named by a paper-style label.

    ``kwargs`` are forwarded to the (per-shard) driver constructor (e.g.
    ``victim_policy`` or ``gc_config`` for the GC ablations).  Sharded
    labels (``xN``) require ``chip`` to be a sequence of exactly N
    chips; ``router`` overrides the default :class:`HashRouter`
    partition.  A ``gc=<policy>`` token builds a :class:`GcConfig` for
    every (per-shard) driver and may not be combined with an explicit
    ``gc_config``/``victim_policy`` keyword.
    """
    stripped, gc_policy = parse_gc_label(label)
    if gc_policy is not None:
        if "gc_config" in kwargs or kwargs.get("victim_policy") is not None:
            raise ConfigurationError(
                f"label {label!r} selects a GC policy, but gc_config/"
                "victim_policy was also passed explicitly"
            )
        kwargs["gc_config"] = GcConfig(policy=gc_policy)
        label = stripped
    label, parallel = parse_parallel_label(label)
    base_label, n_shards = parse_sharded_label(label)
    if parallel and n_shards is None:
        raise ConfigurationError(
            f"label {label!r} requests parallel execution but is unsharded; "
            "parallelism is per shard — use an 'xN' label (x1 gives a "
            "one-worker array)"
        )
    if n_shards is not None:
        if isinstance(chip, FlashChip):
            raise ConfigurationError(
                f"sharded label {label!r} needs a sequence of {n_shards} "
                "chips, got a single FlashChip"
            )
        chips = list(chip)
        if len(chips) != n_shards:
            raise ConfigurationError(
                f"sharded label {label!r} needs {n_shards} chips, "
                f"got {len(chips)}"
            )
        if parallel == "process":
            # No local shard drivers: the chips only donate configuration
            # and the workers rebuild everything from spawn-safe recipes.
            from .sharding.executor_proc import (
                ProcessShardExecutor,
                factories_from_chips,
            )

            executor = ProcessShardExecutor(
                factories_from_chips(chips, base_label, kwargs)
            )
        else:
            shards = [_make_single(base_label, shard_chip, **kwargs) for shard_chip in chips]
            executor = ThreadExecutor(shards) if parallel else InlineExecutor(shards)
        return ShardedDriver(executor, router=router)
    if router is not None:
        raise ConfigurationError(
            f"label {label!r} is unsharded; a router only applies to 'xN' labels"
        )
    if not isinstance(chip, FlashChip):
        chips = list(chip)
        if len(chips) != 1:
            raise ConfigurationError(
                f"unsharded label {label!r} takes one chip, got {len(chips)}; "
                f"did you mean '{label} x{len(chips)}'?"
            )
        chip = chips[0]
    return _make_single(base_label, chip, **kwargs)


def method_labels(include_ipu: bool = True) -> List[str]:
    """The standard comparison set, in the paper's plotting order."""
    return list(PAPER_METHODS if include_ipu else PAPER_METHODS_NO_IPU)


def sharded_labels(base: str, shard_counts: Sequence[int]) -> List[str]:
    """Labels for a shard-scaling sweep, e.g. ``["PDL (256B) x1", ...]``."""
    return [f"{base} x{n}" for n in shard_counts]
