"""scripts/record_bench.py without running the benchmark: its verdict rules on
synthetic per-seed data, and its refusals."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench",
                                               ROOT / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

# ten parent runs with median 10 and quartiles 9.7625 and 10.2375 (spread 0.475)
PARENT = [9.0, 9.5, 9.75, 9.8, 10.0, 10.0, 10.2, 10.25, 10.5, 11.0]


def test_clear_win_is_gain():
    change = [x - 2.0 for x in PARENT]
    assert record_bench.verdict(change, PARENT, "lower", 0.25) == "gain"


def test_nine_wins_of_ten_is_enough_ten_losses_of_ten_are_not():
    change = [x - 2.0 for x in PARENT]
    change[0] = 20.0  # one lost pair
    assert record_bench.verdict(change, PARENT, "lower", 0.25) == "gain"
    change[1] = 20.0  # two lost pairs
    assert record_bench.verdict(change, PARENT, "lower", 0.25) == "flat"


def test_win_inside_parent_spread_is_flat():
    # wins every pair, but the median gap (0.1) is below q3 - q1 (0.475)
    change = [x - 0.1 for x in PARENT]
    assert record_bench.verdict(change, PARENT, "lower", 0.25) == "flat"


def test_worse_beyond_bound():
    change = [x * 1.3 for x in PARENT]
    assert record_bench.verdict(change, PARENT, "lower", 0.25) == "worse"
    change = [x * 1.2 for x in PARENT]
    assert record_bench.verdict(change, PARENT, "lower", 0.25) == "flat"


def test_higher_is_better_flips_the_direction():
    up = [x + 2.0 for x in PARENT]
    assert record_bench.verdict(up, PARENT, "higher", 0.25) == "gain"
    assert record_bench.verdict(PARENT, up, "higher", 0.1) == "worse"
    assert record_bench.wins(up, PARENT, "higher") == 10
    assert record_bench.wins(up, PARENT, "lower") == 0


def test_wide_parent_spread_is_unresolved_unless_change_beats_every_run():
    # quartiles 4.75 and 15.25 around a median of 10: a spread of 1.05
    # medians, over the 0.25 bound
    wide = [1.0, 2.0, 3.0, 10.0, 10.0, 10.0, 10.0, 17.0, 18.0, 19.0]
    assert record_bench.verdict(list(wide), wide, "lower", 0.25) == "unresolved"
    # below every parent run, yet the median gap (9.5) is inside the spread
    below = [0.5 + 0.01 * k for k in range(10)]
    assert record_bench.verdict(below, wide, "lower", 0.25) == "flat"
    below[-1] = 1.0  # ties the best parent run
    assert record_bench.verdict(below, wide, "lower", 0.25) == "unresolved"


def test_refuses_existing_bench_file_and_self_parent(tmp_path, monkeypatch):
    checkout = (tmp_path / "checkout").resolve()
    checkout.mkdir()
    (checkout / "BENCH_3.json").write_text("{}")
    monkeypatch.setattr(record_bench, "ROOT", checkout)
    assert record_bench.output_path(4, tmp_path / "parent") == checkout / "BENCH_4.json"
    with pytest.raises(SystemExit, match="already exists"):
        record_bench.output_path(3, tmp_path / "parent")
    with pytest.raises(SystemExit, match="another checkout"):
        record_bench.output_path(4, checkout / ".." / "checkout")
