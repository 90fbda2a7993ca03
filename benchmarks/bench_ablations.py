"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Max_Differential_Size sweep — the paper's own x in PDL(x), finer grid;
* differential encoding granularity — byte-wise maximal runs suppress
  Case 3 (footnote 16's sawtooth never resets) and hurt the write step;
* GC victim policy — greedy vs round-robin vs wear-aware cost/benefit.

The recovery-scan vs snapshot+journal restart comparison (Section 4.5's
"further study" extension) lives in ``bench_recovery.py``.
"""

from repro.bench.experiments import (
    ablation_diff_granularity,
    ablation_max_differential_size,
    ablation_victim_policy,
)


def test_ablation_max_differential_size(run_experiment, scale):
    table = run_experiment(
        ablation_max_differential_size, scale, sizes=(64, 256, 1024, 2048)
    )
    overall = dict(zip(table.column("max_diff_size"), table.column("overall_us")))
    # small thresholds beat the page-sized one under 2 % updates
    assert overall[256] < overall[2048]
    # reads stay within the at-most-two-page principle everywhere
    for value in table.column("read_us"):
        assert value <= 2 * 110.0 + 1


def test_ablation_diff_granularity(run_experiment, scale):
    table = run_experiment(ablation_diff_granularity, scale, units=(None, 16, 64))
    col = dict(zip(table.column("diff_unit"), table.column("write_with_gc_us")))
    # byte-wise maximal runs (no Case-3 sawtooth) cost more in the write
    # step than the default 16-byte unit encoder
    assert col["bytewise"] > col[16]


def test_ablation_victim_policy(run_experiment, scale):
    table = run_experiment(ablation_victim_policy, scale)
    rows = {row[0]: row for row in table.rows}
    assert set(rows) == {"greedy", "round_robin", "wear_aware"}
    greedy_overall = rows["greedy"][1]
    rr_overall = rows["round_robin"][1]
    # greedy reclaims more garbage per erase, so it should not lose badly
    assert greedy_overall <= rr_overall * 1.25
