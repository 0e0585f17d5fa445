"""Shadow-execution numerical profiler tests (repro.numerics).

The contract under test has two halves:

* **Transparency** — the shadow engine's primary side is the plain
  interpreter: bit-identical observables and identical operation-ledger
  charges for every model case, at every assignment.  The profile is a
  pure observer.
* **Determinism** — a profile is a versioned artifact: byte-identical
  JSON across repeated runs and across campaign worker counts, so its
  digest can participate in journal fingerprints.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.fortran import (OutBox, analyze, analyze_program, make_array,
                           parse_source)
from repro.models import build_model
from repro.numerics import (CANCEL_BITS, NumericalProfile, ProfileError,
                            ShadowInterpreter, profile_model,
                            profile_sim_seconds)

ALL_MODELS = ["funarc", "mpas-a", "adcirc", "mom6"]


def shadow_factory(index, **kwargs):
    return ShadowInterpreter(index, **kwargs)


class TestShadowEquivalence:
    """The primary side of a shadow run IS the plain interpreter."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_all_double_bit_identical(self, name):
        model = build_model(name)
        assignment = model.space.all_double()
        plain = model.run(assignment)
        shadow = model.run(assignment, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops

    def test_all_single_bit_identical(self):
        model = build_model("funarc")
        assignment = model.space.all_single()
        plain = model.run(assignment)
        shadow = model.run(assignment, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops

    def test_declared_kinds_bit_identical(self):
        model = build_model("funarc")
        plain = model.run(None)
        shadow = model.run(None, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops

    def test_mixed_assignment_bit_identical(self):
        model = build_model("funarc")
        # The paper's 1-minimal variant: only the accumulator stays wide.
        assignment = model.space.baseline().lower_all(
            [q for q in model.space.atom_names()
             if q != "funarc_mod::funarc::s1"])
        plain = model.run(assignment)
        shadow = model.run(assignment, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops


CANCEL_SRC = """
subroutine cancel_demo(out)
  implicit none
  real(kind=4) :: a, b, c
  real(kind=8), intent(out) :: out
  a = 1.0 + 2.0e-6
  b = 1.0
  c = a - b
  out = c
end subroutine cancel_demo
"""


def run_shadow(src, calls, overlay=None):
    """Make *calls*, ``(procedure, args)`` pairs, in order on one shadow
    interpreter and return its recorder."""
    index = analyze(parse_source(src))
    interp = ShadowInterpreter(index, overlay=overlay,
                               vec_info=analyze_program(index))
    for proc, args in calls:
        interp.call(proc, args)
    return interp.recorder


class TestRecorder:
    def test_catastrophic_cancellation_detected(self):
        rec = run_shadow(CANCEL_SRC, [("cancel_demo", [OutBox(None)])])
        counters = rec.counters_dict()
        assert counters["cancellations"] == 1
        variables = rec.variables_dict()
        # The subtraction result carries the event; its operands do not.
        assert variables["cancel_demo::c"]["cancellations"] == 1
        assert variables["cancel_demo::a"]["cancellations"] == 0

    def test_local_vs_propagated_decomposition(self):
        rec = run_shadow(CANCEL_SRC, [("cancel_demo", [OutBox(None)])])
        variables = rec.variables_dict()
        # `a` holds a freshly rounded literal sum: pure local error.
        a = variables["cancel_demo::a"]
        assert a["max_local_error"] == pytest.approx(a["max_rel_error"])
        assert a["max_propagated_error"] == 0.0
        # `c` computes exactly on its stored operands: the cancellation
        # amplifies *inherited* rounding, so its error is propagated.
        c = variables["cancel_demo::c"]
        assert c["max_local_error"] == 0.0
        assert c["max_propagated_error"] == pytest.approx(
            c["max_rel_error"])
        # Cancellation blew a ~1e-8 operand rounding up by ~2**CANCEL_BITS.
        assert c["max_rel_error"] > a["max_rel_error"] * 2 ** (CANCEL_BITS - 2)

    def test_funarc_observations_cover_all_atoms(self):
        model = build_model("funarc")
        profile = profile_model(model)
        observed = {q for q, score in profile.blame() if score > 0.0}
        # Every atom except the dead store d1 accumulates error.
        assert observed == set(model.space.atom_names()) - {
            "funarc_mod::fun::d1"}


BOUNDARY_SRC = """
module boundary
  implicit none
contains
  function third(v) result(r)
    implicit none
    real(kind=8), intent(in) :: v
    real(kind=8) :: r
    r = v / 3.0d0
  end function third

  subroutine bump(t, w)
    implicit none
    real(kind=8), intent(inout) :: t
    real(kind=8), intent(in) :: w
    real(kind=8) :: acc = 0.1d0
    acc = acc + w / 7.0d0
    t = t + acc
  end subroutine bump

  subroutine smooth(n, a)
    implicit none
    integer, intent(in) :: n
    real(kind=8), dimension(n), intent(inout) :: a
    integer :: i
    do i = 2, n
      a(i) = a(i) + 0.3d0 * a(i - 1)
    end do
    where (a > 1.0d0)
      a = a - 1.0d0 / 3.0d0
    elsewhere
      a = a * 1.1d0
    end where
  end subroutine smooth

  subroutine step(n, x, s)
    implicit none
    integer, intent(in) :: n
    real(kind=4), dimension(n), intent(inout) :: x
    real(kind=4), intent(inout) :: s
    integer :: i
    call smooth(n, x)
    do i = 1, n
      call bump(s, x(i))
      x(i) = x(i) + third(s)
    end do
    x(1:2) = x(2:3) * 0.7
  end subroutine step
end module boundary
"""

#: sha256 of the recorder's variable, statement and counter tables after
#: :func:`_boundary_calls`, per overlay.  Pinned so any change to how a
#: shadow crosses a call (dummy binding, SAVE locals, write-back,
#: function results, kind-conversion copies) or a store (indexed,
#: section, ``where``) shows up as a moved digest.
BOUNDARY_DIGESTS = {
    "declared": (None, "cc56c9a723f7ebcbcb67fbe86a56c4c8"
                       "2179b304b873b4323254e8172d13bac7"),
    "step-double": ({"boundary::step::x": 8, "boundary::step::s": 8},
                    "423356c7ccddcb7f0ed41f4f4b5c0d43"
                    "a11494f4bdfc214620dd9fd2b770850e"),
    "callees-single": ({"boundary::bump::acc": 4, "boundary::third::v": 4,
                        "boundary::third::r": 4, "boundary::smooth::a": 4},
                       "e66fd5de6e6f24721db87a9710e86d23"
                       "4ae3fc2681b430f7204d50b8ff9aa1d6"),
}


def _boundary_calls():
    """Two rounds of ``step`` (which calls every other procedure from
    Fortran) and a direct ``bump``, then a direct ``third``.  Under the
    declared kinds, ``step`` passes its ``real(4)`` scalar to ``bump``'s
    ``real(8)`` inout dummy and its ``real(4)`` array to ``smooth``'s
    ``real(8)`` array dummy; ``bump``'s initialized local ``acc`` is
    saved and accumulates across every call."""
    x = make_array(4, kind=4)
    x.data[:] = [0.3, 1.7, -0.4, 2.9]
    s = OutBox(np.float32(0.2))
    rounds = [("step", [4, x, s]), ("bump", [s, np.float32(0.6)])] * 2
    return rounds + [("third", [s])]


class TestCallBoundary:
    @pytest.mark.parametrize("overlay_name", sorted(BOUNDARY_DIGESTS))
    def test_recorder_tables_pinned(self, overlay_name):
        overlay, pinned = BOUNDARY_DIGESTS[overlay_name]
        rec = run_shadow(BOUNDARY_SRC, _boundary_calls(), overlay=overlay)
        variables = rec.variables_dict()
        # acc is assigned once per bump: four calls from step per round,
        # one direct call per round.
        assert variables["boundary::bump::acc"]["observations"] == 10
        blob = json.dumps([variables, rec.statements_dict(),
                           rec.counters_dict()], sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == pinned, (
            f"shadow recorder tables drifted under {overlay_name} "
            f"(sha256 {digest})")


class TestProfileArtifact:
    def test_byte_identical_across_runs(self):
        model = build_model("funarc")
        first = profile_model(model)
        second = profile_model(build_model("funarc"))
        assert first.to_json() == second.to_json()
        assert first.digest() == second.digest()

    def test_sim_seconds_accounting(self):
        model = build_model("funarc")
        profile = profile_model(model)
        # compile once + shadow run at 3x the nominal runtime.
        assert profile.sim_seconds == pytest.approx(
            model.compile_seconds + 3.0 * model.nominal_runtime_seconds)
        assert profile_sim_seconds(model) == profile.sim_seconds

    def test_save_load_roundtrip(self, tmp_path):
        profile = profile_model(build_model("funarc"))
        path = tmp_path / "prof.json"
        profile.save(path)
        loaded = NumericalProfile.load(path)
        assert loaded.to_json() == profile.to_json()
        assert loaded.digest() == profile.digest()
        assert loaded.ranked_atoms() == profile.ranked_atoms()

    def test_load_missing_raises_profile_error(self, tmp_path):
        with pytest.raises(ProfileError):
            NumericalProfile.load(tmp_path / "absent.json")
        assert issubclass(ProfileError, ReproError)

    def test_load_rejects_unknown_format(self, tmp_path):
        profile = profile_model(build_model("funarc"))
        path = tmp_path / "prof.json"
        payload = profile.to_payload()
        payload["format"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ProfileError):
            NumericalProfile.load(path)


class TestBlameRanking:
    def test_funarc_blames_the_accumulator(self):
        """The paper's headline finding: the s1 accumulator carries the
        model's sensitivity, everything else is safe to demote."""
        model = build_model("funarc")
        profile = profile_model(model)
        ranked = profile.ranked_atoms()
        assert ranked[0] == "funarc_mod::funarc::s1"
        # s1's all-single error tops the ranking by a wide margin and
        # sits above the acceptance threshold — which is what lets the
        # profile-guided polish prune its singleton demotion unevaluated.
        scores = dict(profile.blame())
        s1 = scores["funarc_mod::funarc::s1"]
        assert s1 > model.error_threshold
        runner_up = max(v for q, v in scores.items()
                        if q != "funarc_mod::funarc::s1")
        assert s1 > 3 * runner_up

    def test_ranking_is_total_and_deterministic(self):
        profile = profile_model(build_model("funarc"))
        ranked = profile.ranked_atoms()
        assert sorted(ranked) == sorted(profile.atom_names)
        scores = [score for _q, score in profile.blame()]
        assert scores == sorted(scores, reverse=True)

    def test_score_of_unknown_atom_is_zero(self):
        profile = profile_model(build_model("funarc"))
        assert profile.score_of("no::such::atom") == 0.0
