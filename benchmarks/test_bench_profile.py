"""Bench: shadow-execution profiling overhead and profile-guided
search savings.

Two numbers the numerics subsystem promises, measured for the record:

* the shadow engine's wall-clock overhead over the plain interpreter
  (every real is carried as a (primary, reference, statement-exact)
  triple, so a mid-single-digit multiplier is expected); and
* the evaluations and simulated node-seconds the profile-guided search
  saves against vanilla delta debugging on funarc — *after* charging
  the profile's own simulated cost against it.

Results land in ``benchmarks/out/profile_bench.json`` alongside the
raw-record dumps the figure benches write.
"""

from __future__ import annotations

import json
import time

from conftest import OUT_DIR

from repro.core import CampaignConfig, DeltaDebugSearch, make_oracle
from repro.core.search import ProfileGuidedSearch
from repro.fortran import Interpreter
from repro.models import FunarcCase
from repro.numerics import ShadowInterpreter, profile_model

CONFIG = CampaignConfig(nodes=20)


def _timed_run(case, factory=None):
    started = time.perf_counter()
    case.run(case.space.all_double(), interpreter_factory=factory)
    return time.perf_counter() - started


def test_profile_bench():
    case = FunarcCase(n=400)

    # -- shadow-execution overhead (median of 3, wall clock) -----------
    plain = min(_timed_run(case, Interpreter) for _ in range(3))
    shadow = min(
        _timed_run(case, lambda index, **kw: ShadowInterpreter(index, **kw))
        for _ in range(3))
    overhead = shadow / plain

    # -- search savings: profile-guided vs delta debugging -------------
    profile = profile_model(case)
    dd_oracle = make_oracle(case, CONFIG)
    dd = DeltaDebugSearch().run(case.space, dd_oracle)
    pg_oracle = make_oracle(case, CONFIG)
    pg = ProfileGuidedSearch(
        profile=profile,
        prune_above=case.error_threshold).run(case.space, pg_oracle)

    dd_sim = dd_oracle.wall_seconds_used
    pg_sim = pg_oracle.wall_seconds_used + profile.sim_seconds

    assert pg.final.key() == dd.final.key()
    assert pg.evaluations < dd.evaluations
    assert pg_sim < dd_sim

    payload = {
        "model": case.name,
        "shadow_overhead_wall": overhead,
        "profile_sim_seconds": profile.sim_seconds,
        "profile_digest": profile.digest(),
        "delta_debug": {"evaluations": dd.evaluations,
                        "batches": dd.batches,
                        "sim_seconds": dd_sim},
        "profile_guided": {"evaluations": pg.evaluations,
                           "batches": pg.batches,
                           "pruned_singletons": pg.pruned_singletons,
                           "sim_seconds_incl_profile": pg_sim},
        "evaluations_saved": dd.evaluations - pg.evaluations,
        "sim_seconds_saved": dd_sim - pg_sim,
    }
    (OUT_DIR / "profile_bench.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True))

    # The shadow engine triples the state it carries; anything beyond
    # ~15x would mean an accidental interpretive slow path.
    assert overhead < 15.0
