"""Tests of the outside-in benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import re

import pytest

import layers
import run
from workloads import SIZES

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Toy sizes: 2 service jobs, 8-lane waves, a 3-evaluation ddmin.
TOY = {
    "mom6-ddmin": {"max_evaluations": 4},
    "mom6-wide": {"samples": 8, "batch_size": 8},
    "mom6-pool": {"samples": 8, "batch_size": 8, "workers": 2},
    "service-funarc": {"jobs": 2, "max_evaluations": 20},
}


def test_metric_names_are_valid():
    names = [n for n, _, _ in run.END_TO_END + layers.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_benchmark_json_matches_run_py_tables():
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(layers.LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    pinned = json.loads((run.HERE / "digests.json").read_text())
    assert sorted(pinned) == sorted(run.WORKLOADS)
    assert sorted(TOY) == sorted(SIZES)


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a: union 1..6
        _span("a.leaf", 1.5, 2.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the root's end
    ]
    assert layers.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 1.0, 3.0 - 0.5, 3.0, 0.5, 3.0])
    assert layers.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_wrappers_restore_the_original_callables():
    from repro.core import JournalState, ResultCache
    from repro.models import ModelCase

    recorder = layers.SpanRecorder()
    layers.install(recorder)
    patched = list(recorder._patches)
    assert patched
    try:
        assert all(vars(owner)[attr] is not raw
                   for owner, attr, raw in patched)
        assert isinstance(vars(JournalState)["load"], classmethod)
    finally:
        recorder.restore()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patched)
    assert ModelCase.run.__name__ == "run" and not hasattr(
        ModelCase.run, "__wrapped__")
    assert not hasattr(ResultCache.get, "__wrapped__")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_at_toy_size_passes_its_checks(workload):
    report = run.measure([workload], seed=7, trace=True, sizes=TOY,
                         repeats=1)
    entry = report["workloads"][workload]
    assert entry["failed"] == 0, entry["errors"]
    assert entry["attempted"] > 0
    for trace in (False, True):
        line = run.contract_line(report, trace)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert sorted(line["metrics"]) == sorted(m["name"] for m in wanted)
        assert line["correct"]
    metrics = run.contract_line(report, False)["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


def _record(**medians):
    return {"workloads": {"w": {"metrics": {
        name: {"best": m, "median": m, "min": m * 0.99, "max": m * 1.01,
               "n": 3}
        for name, m in medians.items()}}}}


def test_compare_verdicts(tmp_path, capsys):
    base = dict(setup_s=1.0, peak_rss_mb=50.0, campaign_s=2.0)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_record(**base)))
    new.write_text(json.dumps(_record(**base)))
    assert run.compare(str(old), str(new)) == 0
    new.write_text(json.dumps(_record(**dict(base, campaign_s=4.0))))
    assert run.compare(str(old), str(new)) == 1
    assert "regressed" in capsys.readouterr().out
    noisy = _record(**base)
    noisy["workloads"]["w"]["metrics"]["campaign_s"]["max"] = 3.0
    new.write_text(json.dumps(noisy))
    assert run.compare(str(old), str(new)) == 0
    assert "unresolved" in capsys.readouterr().out
