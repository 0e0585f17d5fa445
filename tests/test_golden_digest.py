"""Golden-digest regression gate for backend determinism.

These digests pin the exact bytes of funarc's campaign result and the
sha256 of its numerical profile across every execution configuration
the engine claims is equivalent: tree vs compiled vs batched backend,
serial vs 4-worker parallel.  Future backend work (new lowering rules, cache
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

from repro.core import CampaignConfig, run_campaign
from repro.models import FunarcCase
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

_CONFIGS = [("tree", 1), ("tree", 4), ("compiled", 1), ("compiled", 4),
            ("batched", 1), ("batched", 4)]


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
        # worker pool ships scalar variants under every backend.)
        assert sum(t.vector_lanes for t in result.oracle.telemetry) > 0


def test_numerical_profile_digest_pinned():
    profile = profile_model(_case())
    assert profile.digest() == GOLDEN_PROFILE_DIGEST, (
        f"NumericalProfile digest drifted ({profile.digest()}).  If "
        f"intentional, recompute: "
        f"profile_model(FunarcCase(n=150)).digest()")
