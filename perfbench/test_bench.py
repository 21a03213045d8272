"""Unit tests of the benchmark's own code: self-time arithmetic, module
wrapping, and agreement between BENCHMARK.json and what run.py prints.

    python -m pytest perfbench -q
"""

import json
import types
from pathlib import Path

import pytest

import run
from tracer import SpanStats, Tracer, self_times


def test_self_times_subtracts_union_of_direct_children():
    # span 0: root [0, 10]
    #   span 1: [1, 4]        (overlaps span 2)
    #     span 3: [1.5, 2.5]  (grandchild: counts against span 1 only)
    #   span 2: [3, 5]
    #   span 4: [7, 8]
    #   span 5: [9, 12]       (runs past the root: clipped to [9, 10])
    # span 6: second root [20, 21], no children
    starts = [0.0, 1.0, 3.0, 1.5, 7.0, 9.0, 20.0]
    ends = [10.0, 4.0, 5.0, 2.5, 8.0, 12.0, 21.0]
    parents = [-1, 0, 0, 1, 0, 0, -1]
    got = self_times(starts, ends, parents)
    # root: 10 - (|[1, 5]| + |[7, 8]| + |[9, 10]|) = 10 - 6
    assert got == pytest.approx([4.0, 2.0, 2.0, 1.0, 1.0, 3.0, 1.0])


def test_span_stats_self_time_sums_to_root_duration():
    tracer = Tracer(clock=iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0]).__next__)
    outer = tracer.open("a.outer")
    inner = tracer.open("a.inner")
    leaf = tracer.open("b.leaf")
    tracer.close(leaf)
    tracer.close(inner)
    tracer.close(outer, error="ValueError")
    stats = SpanStats()
    stats.add(tracer)
    assert stats.per_round("a.outer", "self_ms") == pytest.approx(5000.0)
    assert stats.per_round("a.inner", "self_ms") == pytest.approx(2000.0)
    assert stats.per_round("b.leaf", "total_ms") == pytest.approx(2000.0)
    assert stats.layer_self_ms() == pytest.approx({"a": 7000.0, "b": 2000.0})
    assert dict(stats.errors["a.outer"]) == {"ValueError": 1}


def _fake_module(name, source):
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    return mod


def test_install_wraps_where_defined_and_where_bound_then_restores():
    home = _fake_module("pkg.home", (
        "class Thing:\n    pass\n"
        "def helper(x):\n    return x + 1\n"
        "def entry(x):\n    return helper(x) * 2\n"
        "def _private(x):\n    return x\n"
    ))
    user = types.ModuleType("pkg.user")
    user.entry = home.entry  # as ``from .home import entry, Thing``
    user.Thing = home.Thing
    originals = (home.entry, home.helper, home._private, user.entry)

    tracer = Tracer()
    tracer.install({"home": home, "user": user})
    with tracer:
        assert user.entry(1) == 4
        assert home._private(5) == 5
    assert tracer.names == ["home.entry", "home.helper"]
    assert tracer.parents == [-1, 0]
    assert tracer.uncovered == ["user.Thing (class from home)"]
    assert (home.entry, home.helper, home._private, user.entry) == originals


def test_exception_closes_span_and_propagates():
    home = _fake_module("pkg.boom", "def fail():\n    raise KeyError('x')\n")
    tracer = Tracer()
    tracer.install({"boom": home})
    with tracer, pytest.raises(KeyError):
        home.fail()
    assert tracer.errors == ["KeyError"]
    assert tracer._stack == []


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
