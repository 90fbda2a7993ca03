"""Extensions: the paper's future-work items.

* :mod:`repro.ext.journal` — the journaled, snapshotted mapping table
  (Section 4.5's "further study"), so a restart replays the journal tail
  instead of running the full Figure-11 scan.
* :mod:`repro.ext.wear_leveling` — alternative GC victim policies
  (footnote 4's orthogonal wear-leveling).
"""

from .wear_leveling import round_robin_policy, wear_aware_policy

__all__ = [
    "round_robin_policy",
    "wear_aware_policy",
]
