"""The pure helpers of `scripts/bench_pairs.py`, the A/B benchmark pair runner."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text, seeds", [
    ("801-803,805", [801, 802, 803, 805]),
    ("801", [801]),
    ("805,801-802", [805, 801, 802]),
])
def test_seed_list(text, seeds):
    assert bench_pairs.seed_list(text) == seeds


def test_summary_quartiles_are_inclusive():
    assert bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.summary([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25}


RUNS = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [2.0, 2.0, 1.0, 5.0]}


def test_compare_counts_wins_for_higher():
    entry = bench_pairs.compare(RUNS, {"unit": "1/s", "better": "higher", "bound": 0.25})
    # 2 > 1 and 5 > 4 win; the tie 2 = 2 counts for neither side.
    assert entry["change_better_pairs"] == "2/4"
    assert (entry["unit"], entry["better"], entry["bound"]) == ("1/s", "higher", 0.25)
    assert entry["parent"]["median"] == 2.5 and entry["change"]["median"] == 2.0
    assert entry["change_over_parent"] == 2.0 / 2.5
    assert entry["runs"] is RUNS


def test_compare_counts_wins_for_lower():
    entry = bench_pairs.compare(RUNS, {"unit": "ms", "better": "lower"})
    # Only 1 < 3 wins; the tie 2 = 2 counts for neither side.
    assert entry["change_better_pairs"] == "1/4"
    assert "bound" not in entry


def test_compare_with_a_zero_parent_median_has_no_ratio():
    entry = bench_pairs.compare({"parent": [0.0, 0.0, 1.0], "change": [1.0, 1.0, 1.0]},
                                {"better": "lower"})
    assert entry["parent"]["median"] == 0.0
    assert entry["change_over_parent"] is None
    assert entry["change_better_pairs"] == "0/3"
