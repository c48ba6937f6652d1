"""Tests of the benchmark harness itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import rackq  # noqa: E402


def _inputs(name, seed, workdir):
    items = workloads.WORKLOADS[name]().make_inputs(seed, str(workdir))
    if name == "census":
        return [workloads.Census.key(argv) for argv in items]
    if name == "check":
        out = []
        for path, defect in items:
            with open(path, encoding="utf-8") as fh:
                out.append((os.path.basename(path), fh.read(), defect))
        return out
    return items


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert len(first) == workloads.WORKLOADS[name].items_per_pass
    if name != "census":
        assert first != _inputs(name, 8, tmp_path / "c")


def test_tail_percentile_rule():
    # The highest ladder percentile that leaves at least ten samples above it.
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(65) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(199) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9
    with pytest.raises(ValueError):
        run.tail_percentile(19)
    # Items that each stand for five timed samples, as in a run's per-item means.
    assert run.tail_percentile(13, 5) == 75
    assert run.tail_percentile(40, 5) == 95
    assert run.tail_percentile(2060, 5) == 99.9
    with pytest.raises(ValueError):
        run.tail_percentile(3, 5)


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(reversed(values), 99.5) == 100
    assert run.nearest_rank([3.0], 99) == 3.0


def test_self_time_nested_and_back_to_back():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),   # child of a, with its own child c
        ("c", 2.0, 3.0, 1),
        ("d", 4.0, 6.0, 0),   # back-to-back children d and e
        ("e", 6.0, 9.0, 0),
        ("d", 9.5, 10.0, 0),
    ]
    self_s, calls = tracing.self_times(spans)
    assert self_s == pytest.approx({"a": 1.5, "b": 2.0, "c": 1.0, "d": 2.5, "e": 3.0})
    assert calls == {"a": 1, "b": 1, "c": 1, "d": 2, "e": 1}


def test_tracer_records_parents_and_restores_functions():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    original = rackq.inner.rack_profile
    table = rackq.dihedral(11)
    tracer.install()
    try:
        assert rackq.rack_profile is rackq.inner.rack_profile is not original
        rackq.rack_profile(table)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert rackq.rack_profile is rackq.inner.rack_profile is original
    names = [s[0] for s in spans]
    assert names[0] == "inner.rack_profile" and spans[0][3] == -1
    assert "inner.is_indecomposable" in names and "perm.cycle_lengths" in names
    assert all(parent < index for index, (_n, _s, _e, parent) in enumerate(spans))
    self_s, calls = tracing.self_times(spans)
    assert calls["perm.cycle_lengths"] == 11
    assert sum(self_s.values()) == pytest.approx(spans[0][2] - spans[0][1])


def test_checker_flags_corrupted_census_count(tmp_path):
    census = workloads.Census()
    items = [argv for argv in census.make_inputs(0, str(tmp_path)) if int(argv[2]) <= 4]
    outputs = [census.run(argv) for argv in items]
    assert census.check(items, outputs) == []
    code, out, err = outputs[3]
    assert '"total_up_to_iso":19,' in out
    outputs[3] = (code, out.replace('"total_up_to_iso":19,', '"total_up_to_iso":18,'), err)
    failures = census.check(items, outputs)
    assert len(failures) == 1 and "published 19" in failures[0]


def test_checker_flags_corrupted_verdict(tmp_path):
    obstruct = workloads.Obstruct()
    items = obstruct.make_inputs(3, str(tmp_path))[:300]
    outputs = [obstruct.run(item) for item in items]
    assert obstruct.check(items, outputs) == []
    index = next(i for i, (racks, _) in enumerate(outputs) if "ExcludedProp35" in racks)
    racks, crossed = outputs[index]
    outputs[index] = (racks.replace('"i":', '"i":1', 1), crossed)
    failures = obstruct.check(items, outputs)
    assert len(failures) == 1 and items[index][0] in failures[0]


def test_divisor_closed_sets_are_not_excluded():
    lengths = [2, 3, 4, 6, 8, 12, 16, 24, 48]
    assert oracle.cor34_witness(lengths) is None
    racks, crossed = oracle.expected_verdicts(lengths, [1] * len(lengths), True)
    assert '"NotExcluded"' in racks and '"NotExcluded"' in crossed


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()


def test_later_passes_are_checked_against_the_first():
    passes = [
        {"fingerprints": ["a", "b", "c"], "failures": []},
        {"fingerprints": ["a", "b", "c"], "failures": []},
        {"fingerprints": ["a", "x", "c"], "failures": []},
    ]
    failures, attempted = run._outcome(passes)
    assert attempted == 9
    assert failures == ["pass 2, item 1: output differs from the first pass"]
