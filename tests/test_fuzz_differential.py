"""Differential fuzzing: tree walker vs compiled vs batched, three ways.

The compiled execution backend (:mod:`repro.fortran.compile`) and the
variant-batched lockstep engine (:mod:`repro.fortran.batch`) are only
trustworthy because they are pinned **bit-identical** to the reference
tree walker — same observables, same stdout, same operation-ledger
charges, same errors.  This suite generates ~200 seeded random
Fortran-miniature programs covering the constructs the models exercise —
assignments, DO loops, IF/ELSE, calls with mixed-kind arguments,
intrinsics from the supported table, precision overlays — then runs each
through all three backends: every program becomes a random wave of 1–16
precision overlays (every tenth program also a 64-lane and a 256-lane
wave, the widths the batched backend's speedups are measured at), each
lane of one :class:`VariantBatch` is checked against a scalar tree run
*and* a scalar compiled run of the same overlay, bit-for-bit over the
full artifact set.

On a mismatch the offending program is shrunk (greedy statement
deletion plus control-flow flattening, then lane dropping and overlay
thinning, re-checking the divergence after every step) and the
**minimal** program, its wave of overlays, and the artifact diff are
printed — a ready-to-paste reproducer that names the divergent lane.

Seeding: every program derives from ``(--fuzz-seed, program index)``,
so a CI failure at seed S index K reproduces locally with
``pytest tests/test_fuzz_differential.py --fuzz-seed S``.  The default
seed is fixed; CI additionally runs one fresh seed per workflow run.
"""

from __future__ import annotations

import random

import pytest

from repro.fortran import (CompiledInterpreter, Interpreter, OutBox,
                           VariantBatch, analyze, analyze_program,
                           parse_source)
from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE
from repro.perf import ledger_fingerprint

pytestmark = pytest.mark.fuzz

FIXED_SEED = 20240806
DEFAULT_COUNT = 200
#: Widths of the extra waves every tenth program runs.
WIDE_WAVES = (64, 256)

# ---------------------------------------------------------------------------
# Random program model
# ---------------------------------------------------------------------------

#: Real scalar variables available to generated statements, by kind.
_DOUBLES = ("d0", "d1", "d2")
_SINGLES = ("f0", "f1")
_REALS = _DOUBLES + _SINGLES

_LITS = ("0.5d0", "1.25d0", "2.0d0", "0.125", "3.0", "1.5d0")
_UNARY_INTRINSICS = ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt",
                     "abs", "atan", "sinh", "cosh", "log10")
_BINARY_INTRINSICS = ("min", "max", "mod", "atan2", "sign")
_ARITH_OPS = ("+", "-", "*", "/")
_REL_OPS = ("<", "<=", ">", ">=", "==", "/=")

#: Mixed-kind helper functions every generated module carries.  Their
#: dummies deliberately disagree in kind so calls with the "wrong"
#: arguments charge boundary casts, and the overlay can flip any of
#: them — exactly the interface-mismatch traffic the models generate.
_HELPERS = """\
  function mix1(a, b) result(r)
    implicit none
    real(kind=4) :: a
    real(kind=8) :: b
    real(kind=8) :: r
    r = a * b + sin(a)
    acc = acc + r
  end function mix1

  function mix2(a, b) result(r)
    implicit none
    real(kind=8) :: a
    real(kind=4) :: b
    real(kind=4) :: r
    r = a - b / (abs(b) + 1.5)
    if (r > 2.0) then
      r = r * 0.5
    end if
  end function mix2
"""

#: Overlay-targetable real symbols (module::proc::var), mirroring how a
#: precision assignment addresses declared reals.
_OVERLAY_ATOMS = tuple(
    [f"fz::driver::{v}" for v in _REALS]
    + ["fz::acc",
       "fz::mix1::a", "fz::mix1::b", "fz::mix1::r",
       "fz::mix2::a", "fz::mix2::b", "fz::mix2::r"])


def _expr(rng: random.Random, depth: int) -> str:
    """A random real-valued expression over the driver's variables."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(_REALS)
        if roll < 0.85:
            return rng.choice(_LITS)
        return rng.choice(("2", "3", "1"))       # int operand: promotion
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(_ARITH_OPS)
        return (f"({_expr(rng, depth - 1)} {op} {_expr(rng, depth - 1)})")
    if roll < 0.70:
        fn = rng.choice(_UNARY_INTRINSICS)
        return f"{fn}({_expr(rng, depth - 1)})"
    if roll < 0.85:
        fn = rng.choice(_BINARY_INTRINSICS)
        return (f"{fn}({_expr(rng, depth - 1)}, {_expr(rng, depth - 1)})")
    helper = rng.choice(("mix1", "mix2"))
    return (f"{helper}({_expr(rng, depth - 1)}, {_expr(rng, depth - 1)})")


def _cond(rng: random.Random) -> str:
    left = _expr(rng, 1)
    right = _expr(rng, 1)
    cond = f"{left} {rng.choice(_REL_OPS)} {right}"
    if rng.random() < 0.25:
        junction = rng.choice((".and.", ".or."))
        cond = (f"({cond}) {junction} "
                f"({_expr(rng, 1)} {rng.choice(_REL_OPS)} {_expr(rng, 1)})")
    return cond


def _stmt(rng: random.Random, depth: int, loop_level: int):
    """One statement node: tuples render to Fortran in ``_render``."""
    roll = rng.random()
    if roll < 0.45 or depth <= 0:
        return ("assign", rng.choice(_REALS + ("acc",)), _expr(rng, 2))
    if roll < 0.60 and loop_level < 2:
        ivar = f"i{loop_level + 1}"
        body = [_stmt(rng, depth - 1, loop_level + 1)
                for _ in range(rng.randint(1, 2))]
        return ("do", ivar, rng.randint(1, 2), rng.randint(2, 6), body)
    if roll < 0.80:
        then = [_stmt(rng, depth - 1, loop_level)
                for _ in range(rng.randint(1, 2))]
        orelse = ([_stmt(rng, depth - 1, loop_level)]
                  if rng.random() < 0.6 else [])
        return ("if", _cond(rng), then, orelse)
    if roll < 0.92:
        helper = rng.choice(("mix1", "mix2"))
        return ("assign", rng.choice(_REALS),
                f"{helper}({rng.choice(_REALS)}, {rng.choice(_REALS)})")
    return ("print", rng.choice(_REALS + ("acc",)))


def make_program(rng: random.Random) -> list:
    return [_stmt(rng, 2, 0) for _ in range(rng.randint(3, 8))]


def make_overlay(rng: random.Random) -> dict[str, int]:
    return {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
            for atom in _OVERLAY_ATOMS if rng.random() < 0.5}


def make_wave(rng: random.Random) -> list[dict[str, int]]:
    """A random batch of 1–16 per-lane precision overlays."""
    return [make_overlay(rng) for _ in range(rng.randint(1, 16))]


# ---------------------------------------------------------------------------
# Rendering and execution
# ---------------------------------------------------------------------------

def _emit(stmt, lines: list[str], indent: str) -> None:
    kind = stmt[0]
    if kind == "assign":
        _, target, expr = stmt
        lines.append(f"{indent}{target} = {expr}")
    elif kind == "print":
        lines.append(f"{indent}print *, {stmt[1]}")
    elif kind == "do":
        _, ivar, lo, hi, body = stmt
        lines.append(f"{indent}do {ivar} = {lo}, {hi}")
        for inner in body:
            _emit(inner, lines, indent + "  ")
        lines.append(f"{indent}end do")
    elif kind == "if":
        _, cond, then, orelse = stmt
        lines.append(f"{indent}if ({cond}) then")
        for inner in then:
            _emit(inner, lines, indent + "  ")
        if orelse:
            lines.append(f"{indent}else")
            for inner in orelse:
                _emit(inner, lines, indent + "  ")
        lines.append(f"{indent}end if")
    else:  # pragma: no cover - generator bug
        raise AssertionError(f"unknown statement {stmt!r}")


def render(stmts: list) -> str:
    lines = [
        "module fz",
        "  implicit none",
        "  real(kind=8) :: acc",
        "contains",
        _HELPERS,
        "  subroutine driver(out)",
        "    implicit none",
        "    real(kind=8), intent(out) :: out",
        "    integer :: i1, i2",
        f"    real(kind=8) :: {', '.join(_DOUBLES)}",
        f"    real(kind=4) :: {', '.join(_SINGLES)}",
        "    acc = 0.25d0",
        "    d0 = 1.5d0",
        "    d1 = -0.75d0",
        "    d2 = 2.25d0",
        "    f0 = 0.5",
        "    f1 = 1.75",
    ]
    for stmt in stmts:
        _emit(stmt, lines, "    ")
    lines += [
        "    out = d0 + d1 + d2 + f0 + f1 + acc",
        "  end subroutine driver",
        "end module fz",
    ]
    return "\n".join(lines) + "\n"


def _drive(interp):
    """Artifacts of one run: observable bits, stdout, ledger (its
    charges and the order its keys were first charged in), error."""
    box = OutBox(None)
    error = None
    try:
        interp.call("driver", [box])
    except Exception as exc:  # noqa: BLE001 - errors must match too
        error = (type(exc).__name__, str(exc))
    value = box.value
    if value is None:
        observable = None
    elif hasattr(value, "tobytes"):
        observable = (value.tobytes(), str(value.dtype))
    else:
        observable = repr(value)
    ledger = interp.ledger
    return {
        "observable": observable,
        "stdout": tuple(interp.stdout),
        "ledger": ledger_fingerprint(ledger),
        # The cost model sums charges in insertion order, so campaign
        # bytes can differ where the sorted fingerprint agrees.
        "ledger_order": tuple(tuple(keys) for keys in (
            ledger.ops, ledger.calls, ledger.boundary_cast_elements,
            ledger.allreduce)),
        "error": error,
    }


def _analyzed(source: str):
    index = analyze(parse_source(source))
    return index, analyze_program(index)


def _execute(source: str, overlay: dict[str, int], factory):
    index, vec = _analyzed(source)
    return _drive(factory(index, overlay=dict(overlay), vec_info=vec,
                          max_ops=2_000_000))


def divergence(stmts: list, overlays: list[dict[str, int]]):
    """First three-way artifact diff across the wave, or None.

    Every lane of one :class:`VariantBatch` over *overlays* is compared
    against a scalar tree run and a scalar compiled run of the same
    overlay.  Returns ``(lane, {field: (tree, compiled, batched)})`` for
    the first divergent lane, so reproducers can name it.
    """
    source = render(stmts)
    index, vec = _analyzed(source)
    batch = VariantBatch(index, [dict(o) for o in overlays],
                         vec_info=vec, max_ops=2_000_000)
    lanes = [_drive(batch.lane(i)) for i in range(len(overlays))]
    scalar: dict[tuple, tuple[dict, dict]] = {}
    for lane, overlay in enumerate(overlays):
        key = tuple(sorted(overlay.items()))
        if key not in scalar:
            scalar[key] = (
                _drive(Interpreter(index, overlay=dict(overlay),
                                   vec_info=vec, max_ops=2_000_000)),
                _drive(CompiledInterpreter(index, overlay=dict(overlay),
                                           vec_info=vec,
                                           max_ops=2_000_000)))
        tree, compiled = scalar[key]
        batched = lanes[lane]
        diff = {field: (tree[field], compiled[field], batched[field])
                for field in tree
                if not (tree[field] == compiled[field] == batched[field])}
        if diff:
            return lane, diff
    return None


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _variants(stmts: list):
    """Smaller candidate programs: drop a statement, or replace a
    DO/IF with its (flattened) body."""
    for i, stmt in enumerate(stmts):
        yield stmts[:i] + stmts[i + 1:]
        if stmt[0] == "do":
            yield stmts[:i] + stmt[4] + stmts[i + 1:]
        elif stmt[0] == "if":
            yield stmts[:i] + stmt[2] + stmt[3] + stmts[i + 1:]


def shrink(stmts: list, overlays: list[dict[str, int]]
           ) -> tuple[list, list[dict[str, int]]]:
    """Greedily minimize a diverging program, keeping it diverging.

    Three reduction moves, cheapest first: shrink the program (drop or
    flatten statements), narrow the wave (drop lanes that are not the
    divergent one — lockstep bugs can depend on wave shape, so every
    drop is re-checked), then thin the surviving lanes' overlays.
    """
    progress = True
    while progress:
        progress = False
        for candidate in _variants(stmts):
            if divergence(candidate, overlays) is not None:
                stmts = candidate
                progress = True
                break
        if progress:
            continue
        for i in range(len(overlays)):
            if len(overlays) == 1:
                break
            narrower = overlays[:i] + overlays[i + 1:]
            if divergence(stmts, narrower) is not None:
                overlays = narrower
                progress = True
                break
        if progress:
            continue
        for i, overlay in enumerate(overlays):
            for atom in list(overlay):
                smaller = {k: v for k, v in overlay.items() if k != atom}
                thinner = overlays[:i] + [smaller] + overlays[i + 1:]
                if divergence(stmts, thinner) is not None:
                    overlays = thinner
                    progress = True
                    break
            if progress:
                break
    return stmts, overlays


def _report(index: int, seed: int, stmts: list,
            overlays: list[dict[str, int]]) -> str:
    stmts, overlays = shrink(stmts, overlays)
    lane, diff = divergence(stmts, overlays)
    lines = [
        f"backends diverge (seed {seed}, program {index}) at lane "
        f"{lane} of a {len(overlays)}-wide wave; minimal reproducer:",
        render(stmts),
        f"overlays = {overlays!r}",
        f"divergent lane = {lane}",
        "",
    ]
    for field, (tree_val, compiled_val, batched_val) in diff.items():
        lines.append(f"{field}:")
        lines.append(f"  tree:     {tree_val!r}")
        lines.append(f"  compiled: {compiled_val!r}")
        lines.append(f"  batched:  {batched_val!r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_seed(request) -> int:
    seed = request.config.getoption("--fuzz-seed")
    return FIXED_SEED if seed is None else seed


@pytest.fixture(scope="module")
def fuzz_count(request) -> int:
    count = request.config.getoption("--fuzz-count")
    return DEFAULT_COUNT if count is None else count


class TestBackendFuzz:
    def test_generated_programs_bit_identical(self, fuzz_seed, fuzz_count):
        executed = 0
        errored = 0
        widths = set()
        for i in range(fuzz_count):
            rng = random.Random(f"{fuzz_seed}:{i}")
            stmts = make_program(rng)
            overlays = make_wave(rng)
            widths.add(len(overlays))
            diff = divergence(stmts, overlays)
            if diff is not None:
                pytest.fail(_report(i, fuzz_seed, stmts, overlays))
            if i % 10 == 0:
                # Drawn after the narrow wave, so the waves above stay
                # the same for every seed.
                for width in WIDE_WAVES:
                    wide = [make_overlay(rng) for _ in range(width)]
                    if divergence(stmts, wide) is not None:
                        pytest.fail(_report(i, fuzz_seed, stmts, wide))
            executed += 1
            source = render(stmts)
            if _execute(source, overlays[0], Interpreter)["error"]:
                errored += 1
        assert executed == fuzz_count
        # The generator must exercise the error path (domain errors,
        # overflow) but not be dominated by it, and the wave widths
        # must actually vary across the 1..16 range.
        assert errored < fuzz_count
        assert len(widths) >= 4

    def test_shrinker_finds_minimal_program(self):
        # The shrinker itself is load-bearing diagnostics: feed it a
        # synthetic "divergence" (any program whose rendered source
        # contains a marker statement) and check it strips everything
        # else.
        rng = random.Random("shrinker-selftest")
        stmts = make_program(rng)
        marker = ("assign", "d0", "sin(d1)")
        stmts = stmts[:2] + [marker] + stmts[2:]

        import tests.test_fuzz_differential as mod
        original = mod.divergence
        try:
            mod.divergence = (
                lambda s, o: ((0, {"observable": ("x", "y", "z")})
                              if marker in _flatten(s) else None))
            minimal, overlays = shrink(stmts, [{"fz::acc": KIND_SINGLE}])
        finally:
            mod.divergence = original
        assert _flatten(minimal) == [marker]
        assert overlays == [{}]

    def test_shrinker_names_the_divergent_lane(self):
        # A synthetic lockstep bug that only fires for one lane's
        # overlay: the shrinker must narrow the wave to that lane and
        # the report must name it.
        poison = {"fz::acc": KIND_SINGLE, "fz::mix1::a": KIND_SINGLE}
        rng = random.Random("lane-selftest")
        stmts = make_program(rng)
        wave = [{}, {"fz::mix2::b": KIND_DOUBLE}, dict(poison), {}]

        import tests.test_fuzz_differential as mod
        original = mod.divergence

        def fake(s, overlays):
            for lane, ov in enumerate(overlays):
                if ov == poison:
                    return lane, {"stdout": (("a",), ("b",), ("c",))}
            return None

        try:
            mod.divergence = fake
            minimal, overlays = shrink(stmts, wave)
            report = _report(0, 0, stmts, wave)
        finally:
            mod.divergence = original
        assert overlays == [poison]
        assert minimal == []
        assert "at lane 0 of a 1-wide wave" in report
        assert "divergent lane = 0" in report

    def test_overlay_and_mixed_kind_calls_reach_boundary_casts(self,
                                                               fuzz_seed):
        # Sanity that the generator's mixed-kind helpers actually charge
        # boundary casts somewhere in the default corpus — otherwise the
        # differential gate would silently stop covering wrapper traffic.
        seen_casts = False
        for i in range(25):
            rng = random.Random(f"{fuzz_seed}:{i}")
            source = render(make_program(rng))
            overlay = make_overlay(random.Random(f"{fuzz_seed}:{i}"))
            artifacts = _execute(source, overlay, Interpreter)
            if artifacts["ledger"][2]:
                seen_casts = True
                break
        assert seen_casts


def _flatten(stmts: list) -> list:
    flat = []
    for stmt in stmts:
        flat.append(stmt)
        if stmt[0] == "do":
            flat.extend(_flatten(stmt[4]))
        elif stmt[0] == "if":
            flat.extend(_flatten(stmt[2]) + _flatten(stmt[3]))
    return flat
