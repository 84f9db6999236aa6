"""The verdict ``tools/bench_pairs.py`` records per end-to-end metric.

Synthetic ten-pair series against the rule of the ``choosing-metrics``
(sections 6-8) and ``simplicity-review`` guides; ``bound`` values are the
ones ``BENCHMARK.json`` fixes (``op_best_ms`` 15 %).
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py",
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

#: ten parent runs: median 100.5, quartiles 99.25 .. 101.75 (IQR 2.5)
PARENT = [98.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 102.0, 102.0, 103.0]


def verdict(change, *, parent=PARENT, better="lower", bound=0.15, failed=(0, 0)):
    return bench_pairs.judge(parent, change, better, bound, *failed)["verdict"]


def test_ten_of_ten_beyond_parent_iqr_is_a_gain():
    entry = bench_pairs.judge(PARENT, [p - 10 for p in PARENT], "lower", 0.15)
    assert entry["verdict"] == "gain"
    assert (entry["wins"], entry["ties"]) == (10, 0)
    assert entry["gap_exceeds_parent_iqr"]
    assert entry["change_over_parent"] == pytest.approx(90.5 / 100.5)


def test_nine_wins_and_a_tie_is_a_gain_eight_is_not():
    nine = [p - 10 for p in PARENT[:9]] + [PARENT[9]]       # 9 wins, 1 tie
    assert verdict(nine) == "gain"
    eight = [p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]]
    assert verdict(eight) == "no-regression"


def test_ten_wins_inside_parent_iqr_is_not_a_gain():
    assert verdict([p - 1 for p in PARENT]) == "no-regression"


def test_more_failures_is_never_a_gain():
    change = [p - 10 for p in PARENT]
    assert verdict(change, failed=(0, 1)) == "no-regression"
    assert verdict(change, failed=(2, 1)) == "gain"


def test_median_worse_by_more_than_the_bound_is_regressed():
    assert verdict([p * 1.2 for p in PARENT]) == "regressed"
    assert verdict([p * 1.1 for p in PARENT]) == "no-regression"
    assert verdict([p * 1.1 for p in PARENT], bound=0.05) == "regressed"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    assert verdict(wide, parent=wide) == "unresolved"
    assert verdict([w * 0.98 for w in wide], parent=wide) == "unresolved"
    # ... unless every run of the change beats every run of the parent
    assert verdict([50.0 + i for i in range(10)], parent=wide) == "gain"
    assert verdict([59.0] * 10, parent=wide, failed=(0, 1)) == "no-regression"


def test_higher_is_better_direction():
    up = [p + 10 for p in PARENT]
    assert verdict(up, better="higher") == "gain"
    assert verdict(up, better="lower") == "no-regression"    # +10 % < 15 %
    down = [p * 0.8 for p in PARENT]
    assert verdict(down, better="higher") == "regressed"
    assert verdict(down, better="lower") == "gain"
