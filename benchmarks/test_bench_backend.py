"""Bench: tree vs compiled vs batched execution backends.

Four claims worth numbers (see ``repro.fortran.compile``,
``repro.fortran.batch`` and the "Execution backends" section of the
README):

* the compiled acceptance number — the full MOM6 bench campaign runs
  at least 3x faster under the compiled backend than tree, with a
  byte-identical ``CampaignResult.to_json()``; the same ddmin campaign
  under the batched backend must be no slower than compiled (waves
  narrower than ``MIN_SWEEP_LANES`` run on the compiled path, and only
  the wider ones sweep);
* the batched acceptance number — a wide-wave (256-lane random-search)
  MOM6 campaign runs at least 5x faster under the batched backend than
  compiled, byte-identical JSON again;
* the per-model picture — baseline executions of all four models under
  tree and compiled, with observables and ledger charges checked
  identical (the EXPERIMENTS.md appendix table is regenerated from
  this dump);
* campaign-level equivalence everywhere — small-workload campaigns on
  all four models produce byte-identical result JSON per backend,
  all three backends.

Raw timings land in ``benchmarks/out/backend_speedup.json``,
``benchmarks/out/backend_batched.json`` and
``benchmarks/out/backend_models.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.core.search.random_search import RandomSearch
from repro.fortran import CompiledInterpreter
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase
from repro.models.registry import MODEL_CLASSES, get_model
from repro.perf import ledger_fingerprint

OUT_DIR = Path(__file__).resolve().parent / "out"

pytestmark = pytest.mark.bench


def test_mom6_campaign_speedup(bench_config):
    """The compiled acceptance gate: >= 3x on the full MOM6 bench
    campaign.  The batched backend runs the same ddmin campaign and
    must not be slower than compiled: its waves narrower than
    ``MIN_SWEEP_LANES`` run on the compiled scalar path, and only the
    wider ones sweep (see ``test_mom6_wide_wave_batched_speedup`` for
    the wide-wave gate)."""
    # Force a cold variant cache: serving records from --cache-dir
    # would time cache lookups, not the execution backend.
    config = bench_config.overriding(cache_dir=None)
    walls: dict[str, float] = {}
    payloads: dict[str, str] = {}
    for backend in ("tree", "compiled", "batched"):
        started = time.perf_counter()
        result = run_campaign(Mom6Case(),
                              config.overriding(backend=backend))
        walls[backend] = time.perf_counter() - started
        payloads[backend] = result.to_json()

    assert payloads["compiled"] == payloads["tree"]
    assert payloads["batched"] == payloads["tree"]
    speedup = walls["tree"] / walls["compiled"]
    batched_ratio = walls["compiled"] / walls["batched"]
    (OUT_DIR / "backend_speedup.json").write_text(json.dumps({
        "model": "mom6",
        "tree_wall_seconds": round(walls["tree"], 2),
        "compiled_wall_seconds": round(walls["compiled"], 2),
        "batched_wall_seconds": round(walls["batched"], 2),
        "speedup": round(speedup, 2),
        "batched_vs_compiled_ddmin": round(batched_ratio, 2),
    }, indent=2) + "\n")
    print(f"\nmom6 campaign: tree {walls['tree']:.1f}s  "
          f"compiled {walls['compiled']:.1f}s  "
          f"batched {walls['batched']:.1f}s  speedup {speedup:.2f}x")
    assert speedup >= 3.0, (
        f"compiled backend speedup {speedup:.2f}x below the 3x bar "
        f"(tree {walls['tree']:.1f}s, compiled {walls['compiled']:.1f}s)")
    assert batched_ratio >= 1.0, (
        f"batched backend slower than compiled on the ddmin campaign "
        f"({batched_ratio:.2f}x: compiled {walls['compiled']:.1f}s, "
        f"batched {walls['batched']:.1f}s)")


def test_mom6_wide_wave_batched_speedup(bench_config):
    """The batched acceptance gate: >= 5x over compiled on a wide-wave
    MOM6 campaign.

    The batched backend's cost per wave is nearly width-flat (one
    vectorized sweep regardless of lane count), so its win scales with
    wave width.  This campaign shapes the workload the way ROADMAP
    item 1 intends batching to be used — random-search waves of 256
    variants — and gates the headline number on it.  Byte-identity of
    the campaign JSON is asserted alongside, as everywhere else.
    """
    config = bench_config.overriding(cache_dir=None,
                                     max_evaluations=266)
    walls: dict[str, float] = {}
    payloads: dict[str, str] = {}
    for backend in ("compiled", "batched"):
        # A fresh algorithm per run: RandomSearch is stateless across
        # runs but cheap to rebuild, and sharing one instance would
        # hide any accidental state.
        algorithm = RandomSearch(samples=256, batch_size=256)
        started = time.perf_counter()
        result = run_campaign(Mom6Case(),
                              config.overriding(backend=backend),
                              algorithm=algorithm)
        walls[backend] = time.perf_counter() - started
        payloads[backend] = result.to_json()

    assert payloads["batched"] == payloads["compiled"]
    speedup = walls["compiled"] / walls["batched"]
    (OUT_DIR / "backend_batched.json").write_text(json.dumps({
        "model": "mom6",
        "campaign": "random-search, 256 samples, 256-lane waves",
        "compiled_wall_seconds": round(walls["compiled"], 2),
        "batched_wall_seconds": round(walls["batched"], 2),
        "speedup": round(speedup, 2),
    }, indent=2) + "\n")
    print(f"\nmom6 wide-wave campaign: compiled {walls['compiled']:.1f}s  "
          f"batched {walls['batched']:.1f}s  speedup {speedup:.2f}x")
    assert speedup >= 5.0, (
        f"batched backend speedup {speedup:.2f}x below the 5x bar "
        f"(compiled {walls['compiled']:.1f}s, "
        f"batched {walls['batched']:.1f}s)")


def test_four_model_wallclock_table():
    """Baseline execution wall-clock per model, both backends; the
    EXPERIMENTS.md appendix row is regenerated from this dump."""
    rows = []
    for name in sorted(MODEL_CLASSES):
        model = get_model(name)
        walls: dict[str, float] = {}
        artifacts: dict[str, object] = {}
        for backend, factory in (("tree", None),
                                 ("compiled", CompiledInterpreter)):
            started = time.perf_counter()
            artifacts[backend] = model.run(None,
                                           interpreter_factory=factory)
            walls[backend] = time.perf_counter() - started
        tree, comp = artifacts["tree"], artifacts["compiled"]
        assert tree.observable.tobytes() == comp.observable.tobytes()
        assert tree.observable.dtype == comp.observable.dtype
        assert tree.stdout == comp.stdout
        assert (ledger_fingerprint(tree.ledger)
                == ledger_fingerprint(comp.ledger))
        rows.append({
            "model": name,
            "tree_wall_seconds": round(walls["tree"], 3),
            "compiled_wall_seconds": round(walls["compiled"], 3),
            "speedup": round(walls["tree"] / walls["compiled"], 2),
        })
    (OUT_DIR / "backend_models.json").write_text(
        json.dumps(rows, indent=2) + "\n")
    print()
    for row in rows:
        print(f"{row['model']:8s} tree {row['tree_wall_seconds']:7.3f}s  "
              f"compiled {row['compiled_wall_seconds']:7.3f}s  "
              f"{row['speedup']:.2f}x")


@pytest.mark.parametrize("make_case", [
    lambda: FunarcCase(n=150),
    MpasCase.small,
    AdcircCase.small,
    Mom6Case.small,
], ids=["funarc", "mpas-a", "adcirc", "mom6"])
def test_campaign_json_identical_per_model(make_case):
    """Small-workload campaign on each model: result JSON is
    byte-identical across all three backends (the ``repro tune
    --backend`` equivalence contract)."""
    outputs = [
        run_campaign(make_case(),
                     CampaignConfig(backend=backend)).to_json()
        for backend in ("tree", "compiled", "batched")
    ]
    assert outputs[0] == outputs[1] == outputs[2]
