"""Golden-digest regression gate for backend determinism.

These digests pin the exact bytes of funarc's campaign result across
every execution configuration the engine claims is equivalent: compiled
vs batched backend, serial vs 4-worker parallel, and a 16-variant wave
that the batched backend sweeps in process and on the worker pool.
They also pin the numerical profile of each of the four models.
Future backend work (new lowering rules, cache
changes, charge reordering) that drifts **any** byte of the
deterministic artifacts fails here before it can silently invalidate
cached results, journals, or published experiment numbers.

If a change legitimately alters the artifacts (a new model workload, a
cost-model recalibration), recompute the constants with the snippet in
each test's failure message — never relax the cross-configuration
equality assertions.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import (CampaignConfig, ParallelOracle, RandomSearch,
                        run_campaign)
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase
from repro.numerics import profile_model

#: sha256 of ``CampaignResult.to_json()`` for ``FunarcCase(n=150)``
#: under the default delta-debug campaign — identical for every
#: (backend, workers) combination below by the determinism contract.
GOLDEN_CAMPAIGN_SHA256 = (
    "acbf72e3329de8c9169d1c2963858fe63bd2fa7e0c9919f8ee4a42dbb0ecc947")

#: ``NumericalProfile.digest()`` for the same case (the profile is an
#: execution artifact too: backend work must not move a single bit of
#: the shadow-run error statistics).
GOLDEN_PROFILE_DIGEST = "96c17819ca5e44ed"

_CONFIGS = [("compiled", 1), ("compiled", 4), ("batched", 1),
            ("batched", 4)]


def _case() -> FunarcCase:
    return FunarcCase(n=150)


@pytest.mark.parametrize("backend,workers", _CONFIGS,
                         ids=[f"{b}-w{w}" for b, w in _CONFIGS])
def test_campaign_json_bytes_pinned(backend, workers):
    result = run_campaign(
        _case(), CampaignConfig(backend=backend, workers=workers))
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == GOLDEN_CAMPAIGN_SHA256, (
        f"CampaignResult.to_json() drifted under backend={backend} "
        f"workers={workers} (sha256 {digest}).  If intentional, "
        f"recompute: hashlib.sha256(run_campaign(FunarcCase(n=150), "
        f"CampaignConfig()).to_json().encode()).hexdigest()")
    if backend == "batched" and workers == 1:
        # The serial batched cell must really sweep: narrow waves run
        # compiled, so a routing change could otherwise turn this cell
        # into a second compiled cell without moving a byte.  (The
        # batched-w4 cell runs scalar variants: funarc's ddmin waves
        # hold at most 8 fresh variants, below the pool's sweep width
        # of MIN_SWEEP_LANES per worker.)
        assert sum(t.vector_lanes for t in result.oracle.telemetry) > 0


#: sha256 of ``CampaignResult.to_json()`` for ``FunarcCase(n=150)``
#: under ``RandomSearch(samples=16, batch_size=16, seed=5)``: one wave
#: of 16 fresh variants, wide enough for the batched backend to sweep it
#: in process and, on two workers, as one pool task.  funarc has a
#: single hotspot procedure, so ``PYTHONHASHSEED`` cannot move it.
GOLDEN_SWEPT_WAVE_SHA256 = (
    "0efe6140be00274ffec0b44ab4a875f95fa62dce852b59f2623a5eeafc76803e")

_SWEPT_CONFIGS = [("compiled", 1), ("batched", 1), ("compiled", 2),
                  ("batched", 2)]


@pytest.mark.parametrize("backend,workers", _SWEPT_CONFIGS,
                         ids=[f"{b}-w{w}" for b, w in _SWEPT_CONFIGS])
def test_swept_wave_bytes_pinned(backend, workers):
    result = run_campaign(
        _case(), CampaignConfig(backend=backend, workers=workers),
        algorithm=RandomSearch(samples=16, batch_size=16, seed=5))
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == GOLDEN_SWEPT_WAVE_SHA256, (
        f"CampaignResult.to_json() drifted under backend={backend} "
        f"workers={workers} (sha256 {digest}).  If intentional, "
        f"recompute: hashlib.sha256(run_campaign(FunarcCase(n=150), "
        f"CampaignConfig(), algorithm=RandomSearch(samples=16, "
        f"batch_size=16, seed=5)).to_json().encode()).hexdigest()")
    # Each cell must run the path it names: the batched cells sweep the
    # whole wave, on two workers as one pool task (a ParallelOracle
    # sweeps nowhere else), and the compiled cells never sweep.
    assert isinstance(result.oracle, ParallelOracle) == (workers > 1)
    lanes = [t.vector_lanes for t in result.oracle.telemetry]
    assert lanes == ([16] if backend == "batched" else [0])


#: The pinned ``NumericalProfile.digest()`` of each model: funarc's case
#: above and the small case of the other three.  None of them depends on
#: ``PYTHONHASHSEED`` (checked under 0, 1 and 12345).
_PROFILE_CASES = [
    ("funarc", _case, GOLDEN_PROFILE_DIGEST, "FunarcCase(n=150)"),
    ("mpas-a", MpasCase.small, "8fa6511231ace827", "MpasCase.small()"),
    ("adcirc", AdcircCase.small, "557f70765414f00b", "AdcircCase.small()"),
    ("mom6", Mom6Case.small, "b999975710cd2860", "Mom6Case.small()"),
]


@pytest.mark.parametrize("build,pinned,recipe",
                         [c[1:] for c in _PROFILE_CASES],
                         ids=[c[0] for c in _PROFILE_CASES])
def test_numerical_profile_digest_pinned(build, pinned, recipe):
    profile = profile_model(build())
    assert profile.digest() == pinned, (
        f"NumericalProfile digest drifted ({profile.digest()}).  If "
        f"intentional, recompute: profile_model({recipe}).digest()")
