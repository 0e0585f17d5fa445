"""Break-even wave width of the batched backend's vector sweep.

For each model and wave width *w*, time one ``VariantBatch`` sweep of
*w* variants (``Evaluator.evaluate_assigned_batch``) against the
compiled scalar path on the same *w* variants (``evaluate_assigned``
per lane), and report the sweep in units of one compiled run of that
model.  The sweep is faster where the entry is below *w*.

Every variant lowers a single atom to single precision, so all lanes
run the same length: a sweep costs as much as its longest lane, and
early-crashing lanes would flatter the compiled path.  Widths beyond a
model's atom count reuse atoms round-robin.  Each (model, width) cell
runs in a fresh child process (``PYTHONHASHSEED=0``, one BLAS thread),
so both engines start from the cold per-process caches a ``repro
tune`` run starts from, and each child checks that the two engines
produced the same records.  Cells are measured round-robin per repeat,
and the larger of a cell's ratios is reported.

The script then picks the sweep threshold ``T`` (waves with at least
``T`` fresh lanes sweep, narrower ones run compiled) that minimises the
worst slowdown, over every measured cell, against whichever engine is
faster for that cell.  That rule sets
``repro.core.campaign.MIN_SWEEP_LANES``.

    PYTHONPATH=src python benchmarks/wave_break_even.py
    PYTHONPATH=src python benchmarks/wave_break_even.py \\
        --models mom6 --widths 2,8 --repeats 1

The table goes to stdout; raw timings to
``benchmarks/out/wave_break_even.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

MODELS = ("funarc", "mom6", "adcirc", "mpas-a")
WIDTHS = (2, 4, 8, 12, 16, 32)


def measure_cell(model_name: str, width: int) -> dict:
    """Time one sweep and the compiled runs of the same *width* variants
    (run in a fresh child process)."""
    from repro.core.assignment import PrecisionAssignment
    from repro.core.evaluation import Evaluator
    from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE
    from repro.models.registry import get_model

    model = get_model(model_name)
    evaluator = Evaluator(model, backend="batched")
    baseline = model.space.baseline()
    lowerable = [i for i, kind in enumerate(baseline.kinds)
                 if kind == KIND_DOUBLE]
    tasks = []
    for lane in range(width):
        kinds = list(baseline.kinds)
        kinds[lowerable[lane % len(lowerable)]] = KIND_SINGLE
        tasks.append((PrecisionAssignment(atoms=baseline.atoms,
                                          kinds=tuple(kinds)), lane))

    started = time.perf_counter()
    swept, stats = evaluator.evaluate_assigned_batch(tasks)
    sweep_s = time.perf_counter() - started
    started = time.perf_counter()
    scalar = [evaluator.evaluate_assigned(a, vid) for a, vid in tasks]
    compiled_s = time.perf_counter() - started
    return {
        "model": model_name, "width": width,
        "sweep_s": sweep_s, "compiled_s": compiled_s,
        "ratio": sweep_s / (compiled_s / width),
        "vector_lanes": stats.vector_lanes,
        "fallback_lanes": stats.fallback_lanes,
        "identical": [repr(r) for r in swept] == [repr(r) for r in scalar],
    }


def _child(model_name: str, width: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--cell", model_name, str(width)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worst_slowdown(ratios: dict, threshold: float) -> float:
    """Worst slowdown, over all cells, of routing waves narrower than
    *threshold* to compiled (cost ``w``) and the rest to the sweep
    (cost ``ratios[model][w]``), against the faster of the two."""
    worst = 1.0
    for by_width in ratios.values():
        for width, ratio in by_width.items():
            chosen = width if width < threshold else ratio
            worst = max(worst, chosen / min(width, ratio))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--models", default=",".join(MODELS))
    parser.add_argument("--widths", default=",".join(map(str, WIDTHS)))
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--cell", nargs=2, metavar=("MODEL", "WIDTH"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        print(json.dumps(measure_cell(args.cell[0], int(args.cell[1]))))
        return 0

    models = args.models.split(",")
    widths = [int(w) for w in args.widths.split(",")]
    cells = []
    for repeat in range(args.repeats):
        for model in models:
            for width in widths:
                cell = _child(model, width)
                cell["repeat"] = repeat
                cells.append(cell)
                print(f"  {model:7s} w={width:<3d} sweep "
                      f"{cell['sweep_s']:7.2f}s  compiled "
                      f"{cell['compiled_s']:7.2f}s  ratio "
                      f"{cell['ratio']:5.1f}  fallback "
                      f"{cell['fallback_lanes']}", file=sys.stderr)
    bad = [c for c in cells if not c["identical"]]
    if bad:
        print(f"sweep and compiled records differ: {bad}", file=sys.stderr)
        return 1

    ratios = {m: {w: max(c["ratio"] for c in cells
                         if c["model"] == m and c["width"] == w)
                  for w in widths} for m in models}
    print("| model | " + " | ".join(f"w={w}" for w in widths) + " |")
    print("|---|" + "---|" * len(widths))
    for model in models:
        print(f"| {model} | " + " | ".join(
            f"{ratios[model][w]:.1f}" for w in widths) + " |")
    print()
    candidates = widths + [float("inf")]
    worst = {t: worst_slowdown(ratios, t) for t in candidates}
    for t in candidates:
        label = "never sweep" if t == float("inf") else f"T = {t}"
        print(f"{label:12s} worst slowdown {worst[t]:.2f}x")
    best = min(candidates, key=lambda t: (worst[t], t))
    print(f"chosen: T = {best} (worst slowdown {worst[best]:.2f}x)")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "wave_break_even.json").write_text(json.dumps({
        "cells": cells, "ratios": ratios,
        "worst_slowdown": {str(t): v for t, v in worst.items()},
        "chosen": best,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
