"""Outside-in benchmark of the repro precision-tuning system.

Runs four closed-loop workloads round-robin, each sample in a fresh
child process (``workloads.py``), and reports every end-to-end metric as
the best of the run's samples, with their median, min, max and count in
the run record.  ``--trace 1`` adds a traced sample after every untraced
one and reports the per-layer split (``layers.py``) plus the tracing
overhead.  Outputs are checked against pinned digests (``digests.json``,
default seed) and against each other (any seed); a mismatch or failed
operation makes the command exit 1.

    python3 benchmarks/perf/run.py                     # all workloads
    python3 benchmarks/perf/run.py --workload mom6-wide --seconds 28
    python3 benchmarks/perf/run.py --trace 1 --repeats 1
    python3 benchmarks/perf/run.py --compare OLD.json NEW.json

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("mom6-ddmin", "mom6-wide", "mom6-pool", "service-funarc")
DEFAULT_SEED = 2024

#: End-to-end metrics: (name, unit, better).  Bounds live in
#: BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("campaign_s", "s", "lower"),
)

#: A run stops starting children this long after it began, so that it
#: ends well inside the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0
#: Per-child limit when no --seconds budget applies.
CHILD_TIMEOUT_S = 900.0

#: Child environment: single-threaded BLAS (OpenBLAS here is built for
#: 64 threads), the checkout's own sources, and a fixed hash seed —
#: MOM6 sums per-procedure seconds over a set, so its result bytes
#: differ between processes with different hash seeds.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONPATH": str(SRC)}


class Runner:
    """Starts the children of one run and bounds their wall time."""

    def __init__(self, seed: int, sizes: dict, deadline: float | None):
        self.seed = seed
        self.sizes = sizes
        self.deadline = deadline
        self.env = dict(os.environ, **CHILD_ENV)
        self.pinned = json.loads((HERE / "digests.json").read_text())
        self.check_pinned = seed == DEFAULT_SEED and sizes == SIZES

    def child(self, task: dict) -> tuple[dict | None, float, str]:
        """Run one task in a fresh interpreter: (result, wall, error)."""
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        task = dict(task, src=str(SRC), seed=self.seed,
                    spawned=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(task)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The child leads its own session: this also kills its pool.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, time.monotonic() - task["spawned"], \
                f"{task['role']} child timed out after {timeout:.0f} s"
        wall = time.monotonic() - task["spawned"]
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(err.strip().splitlines()[-3:])
            return None, wall, (f"{task['role']} child exited "
                                f"{proc.returncode}: {tail}")
        return json.loads(lines[-1]), wall, ""


def _expected_ops(workload: str, size: dict) -> int:
    """Operations a child would have attempted (all fail if it dies)."""
    if workload == "service-funarc":
        return 5 * size["jobs"]
    return size.get("max_evaluations") or size["samples"]


def run_child(runner: Runner, workload: str, index: int, traced: bool,
              backend: str = "batched") -> dict:
    """One closed-loop sample: a fresh child running *workload* once."""
    size = runner.sizes[workload]
    task = {"workload": workload, "size": size, "sample": index,
            "trace": traced, "role": "campaign", "backend": backend}
    state = None
    if workload == "service-funarc":
        state = OUT / "state" / f"{os.getpid()}-{index}"
        shutil.rmtree(state, ignore_errors=True)
        task.update(role="service", state_dir=str(state))
    result, wall, error = runner.child(task)
    if state is not None:
        shutil.rmtree(state, ignore_errors=True)
    sample = {"index": index, "traced": traced, "sample_s": wall}
    if result is None:
        ops = _expected_ops(workload, size)
        return dict(sample, attempted=ops, failed=ops, errors=[error])
    sample.update(
        setup_s=result["setup_s"], rss_mb=result["rss_mb"],
        op_s=result["window"][1] - result["window"][0], ops=result["ops"],
        digest=result["digest"], attempted=result["attempted"],
        failed=result["failed"], errors=result["errors"])
    if "job0_digest" in result:
        sample["job0_digest"] = result["job0_digest"]
    if traced:
        sample["layers"] = result["layers"]
        sample["spans"] = result["spans"]
    return sample


def check_outputs(runner: Runner, workload: str, samples: list[dict],
                  trace: bool) -> dict:
    """Cross-check a workload's outputs once its samples are done.

    Every sample must serve the same bytes (same seed), the first must
    match the pinned digest at the default seed, mom6-ddmin's batched
    bytes must equal a compiled campaign's, and service job 0's served
    bytes must equal a direct ``run_campaign`` of its spec.
    """
    out = {"attempted": 0, "failed": 0, "errors": [], "phases": {}}

    def check(ok: bool, message: str) -> None:
        out["attempted"] += 1
        if not ok:
            out["failed"] += 1
            out["errors"].append(message)

    done = [s for s in samples if "digest" in s]
    if not done:
        return out
    first = done[0]["digest"]
    for s in done[1:]:
        check(s["digest"] == first, f"{workload}: sample {s['index']} "
              f"differs from sample {done[0]['index']} at the same seed")
    if runner.check_pinned:
        check(first == runner.pinned.get(workload),
              f"{workload}: result digest {first} differs from the pinned "
              f"one")
    if workload == "mom6-ddmin":
        ref = run_child(runner, workload, len(samples), trace,
                        backend="compiled")
        out["reference"] = ref
        out["attempted"] += ref["attempted"]
        out["failed"] += ref["failed"]
        out["errors"] += ref["errors"]
        check(ref.get("digest") == first,
              "mom6-ddmin: compiled and batched result JSON differ")
        if "ops" in ref:
            out["phases"]["compiled_campaign_s"] = _stat(
                [ref["ops"]["campaign_s"]])
    if workload == "service-funarc":
        result, _, error = runner.child(
            {"role": "direct", "workload": workload,
             "size": runner.sizes[workload]})
        if error:
            out["errors"].append(error)
        check(result is not None
              and result["digest"] == done[0]["job0_digest"],
              "service-funarc: job 0's served bytes differ from a direct "
              "run_campaign of the same spec")
    return out


#: In a --seconds run, at least this many rounds, so that every
#: reported time is the best of at least two repetitions.
MIN_ROUNDS = 2


def measure(workloads, seed: int, trace: bool, sizes: dict,
            repeats: int | None = None, seconds: float | None = None,
            started: float | None = None) -> dict:
    """Round-robin samples over *workloads* until *repeats* rounds are
    done, or until the next round would overrun *seconds*."""
    started = time.monotonic() if started is None else started
    runner = Runner(seed, sizes,
                    None if seconds is None else started + RUN_DEADLINE_S)
    samples: dict[str, list[dict]] = {w: [] for w in workloads}
    measuring = time.monotonic()
    rounds = 0
    while True:
        for w in workloads:
            for traced in ((False, True) if trace else (False,)):
                samples[w].append(run_child(runner, w, len(samples[w]),
                                            traced))
        rounds += 1
        if repeats is not None and rounds >= repeats:
            break
        if seconds is not None and rounds >= MIN_ROUNDS:
            elapsed = time.monotonic() - measuring
            if elapsed + elapsed / rounds > seconds:
                break
    report, spans = {}, []
    for w in workloads:
        checks = check_outputs(runner, w, samples[w], trace)
        report[w] = summarize(w, samples[w], checks)
        for s in samples[w] + [checks.get("reference", {})]:
            spans += [dict(span, id=i) for i, span in
                      enumerate(s.get("spans", ()))]
    return {"workloads": report, "spans": spans}


def _stat(values: list[float], best: float | None = None) -> dict:
    """Median, min, max and n of *values*, plus the reported ``best``.

    ``best`` is the fastest of the k repetitions of one operation in a
    run (the minimum unless given).  This machine alternates between
    fast periods and periods 1.2-1.8x slower that last from seconds to
    minutes; a repetition slowed by them measures the neighbours, not
    the code, and across ten seeds the best-of-k spread stayed within
    the bounds where the median's did not (README.md, "Calibration").
    """
    if not values:
        return {"best": None, "median": None, "min": None, "max": None,
                "n": 0, "values": []}
    return {"best": min(values) if best is None else best,
            "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def _jobs_stat(rows: list[list[float]]) -> dict:
    """Job latencies of several samples, each the same job sequence:
    ``best`` is the median over jobs of each job's fastest repetition."""
    best = (statistics.median(min(col) for col in zip(*rows))
            if rows else None)
    return _stat([t for row in rows for t in row], best)


def summarize(workload: str, samples: list[dict], checks: dict) -> dict:
    """Median/min/max/n of every metric over one workload's samples."""
    plain = [s for s in samples if not s["traced"] and "digest" in s]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    phases = dict(checks["phases"])
    if workload == "service-funarc":
        primary = _jobs_stat([s["ops"]["cold_s"] for s in plain])
        phases.update(
            cold_job_p50_s=primary,
            warm_job_p50_s=_jobs_stat([s["ops"]["warm_s"] for s in plain]),
            restart_s=_stat([s["ops"]["restart_s"] for s in plain]))
    else:
        primary = _stat([s["ops"]["campaign_s"] for s in plain])
    # Child wall from spawn to exit; reported, not bounded.
    phases["sample_s"] = _stat([s["sample_s"] for s in plain])
    metrics = {
        "setup_s": _stat([s["setup_s"] for s in plain]),
        "peak_rss_mb": _stat([s["rss_mb"] for s in plain]),
        "campaign_s": primary,
    }
    entry = {"metrics": metrics, "phases": phases,
             "attempted": checks["attempted"]
             + sum(s["attempted"] for s in samples),
             "failed": checks["failed"] + sum(s["failed"] for s in samples),
             "errors": [e for s in samples for e in s["errors"]]
             + checks["errors"]}
    if traced and plain:
        per_layer = {name: statistics.median(s["layers"][name]
                                             for s in traced)
                     for name in traced[0]["layers"]}
        plain_op = statistics.median(s["op_s"] for s in plain)
        traced_op = statistics.median(s["op_s"] for s in traced)
        per_layer["trace_overhead_pct"] = 100.0 * (traced_op / plain_op - 1)
        entry["layers"] = per_layer
    reference = checks.get("reference", {})
    if "layers" in reference:
        entry["reference_layers"] = reference["layers"]
    return entry


# ---------------------------------------------------------------------------
# Run metadata, reporting and comparison
# ---------------------------------------------------------------------------


def git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_report(report: dict, trace: bool) -> None:
    for workload, entry in report["workloads"].items():
        print(f"== {workload}: attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        rows = [(n, u, entry["metrics"][n]) for n, u, _ in END_TO_END]
        rows += [(n, "s", stat) for n, stat in entry["phases"].items()]
        for name, unit, stat in rows:
            if stat["n"]:
                print(f"  {name:<20} best {stat['best']:>9.4f} {unit:<5} "
                      f"median {stat['median']:.4f}  min {stat['min']:.4f}"
                      f"  max {stat['max']:.4f}  n={stat['n']}")
        if trace and "layers" in entry:
            for name, unit, _ in layers.LAYER_METRICS:
                print(f"  {name:<38} {entry['layers'][name]:>12.4f} {unit}")
        for error in entry["errors"]:
            print(f"  ERROR: {error}")


def contract_line(report: dict, trace: bool) -> dict:
    """The result object: end-to-end metrics, or per-layer with trace."""
    entries = report["workloads"]
    prefix = len(entries) > 1
    metrics = {}
    for workload, entry in entries.items():
        if trace:
            values = [(n, u, entry.get("layers", {}).get(n))
                      for n, u, _ in layers.LAYER_METRICS]
        else:
            values = [(n, u, entry["metrics"][n]["best"])
                      for n, u, _ in END_TO_END]
        for name, unit, value in values:
            key = f"{workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    complete = all(m["value"] is not None for m in metrics.values())
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def compare(old_path: str, new_path: str) -> int:
    """Per (workload, end-to-end metric): both reported values, the
    delta, the bound, and a verdict."""
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    regressed = False
    print(f"{'workload':<16} {'metric':<12} {'old':>10} {'new':>10} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for workload in [w for w in old if w in new]:
        for name, _, better in END_TO_END:
            a = old[workload]["metrics"][name]
            b = new[workload]["metrics"][name]
            if not a["n"] or not b["n"]:
                continue
            delta = b["best"] / a["best"] - 1.0
            worse = delta if better == "lower" else -delta
            spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
            bound = bounds[name]
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print(f"{workload:<16} {name:<12} {a['best']:>10.4f} "
                  f"{b['best']:>10.4f} {100 * delta:>+7.1f}% "
                  f"{100 * bound:>5.0f}%  {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all four, "
                             "round-robin)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long instead of "
                             "--repeats rounds")
    parser.add_argument("--repeats", type=int, default=3,
                        help="samples per workload (default 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced samples, report per-layer "
                             "metrics and write spans.json")
    parser.add_argument("--out", help="write the full run record here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two run records and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workers = max(s.get("workers", 1) for s in SIZES.values())
    if workers > (os.cpu_count() or 1):
        print(f"error: workloads use {workers} worker processes but this "
              f"machine has {os.cpu_count()} CPUs", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    runner = Runner(args.seed, SIZES, started + RUN_DEADLINE_S)
    warm, _, error = runner.child({"role": "warmup", "workload": ""})
    if warm is None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    workloads = (args.workload,) if args.workload else WORKLOADS
    report = measure(workloads, args.seed, bool(args.trace), SIZES,
                     repeats=None if args.seconds else args.repeats,
                     seconds=args.seconds, started=started)
    spans = report.pop("spans")
    report["meta"] = {
        "commit": git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": warm["numpy"],
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "seed": args.seed, "trace": args.trace, "repeats": args.repeats,
        "seconds": args.seconds, "sizes": SIZES, "child_env": CHILD_ENV,
        "wall_s": time.monotonic() - started,
    }
    print_report(report, bool(args.trace))
    if args.trace:
        (OUT / "spans.json").write_text(json.dumps({"spans": spans}))
    out = args.out
    if out is None and args.workload is None:
        out = OUT / f"perf-{time.strftime('%Y%m%d-%H%M%S')}.json"
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=1))
        print(f"run record: {out}")
    line = contract_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
