"""End-to-end benchmark of the PDL storage engine.

One client replays a seeded, fully resolved operation stream through
:class:`repro.storage.Database` as a closed loop, checks every result,
and reports end-to-end metrics (host and simulated clocks) or, in the
traced mode, per-layer metrics.  ``python3 perfbench/run.py --help``
lists the options; ``perfbench/README.md`` describes the workloads and
every metric.
"""
