"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow stages:

``list``            available model cases
``profile MODEL``   GPTL-style timer report + hotspot share (Table I row)
``assess MODEL``    the three tunable-hotspot criteria (paper §V)
``tune MODEL``      run a precision-tuning search and report the results
``trace DIR``       summarize a campaign's span trace (per-stage time)
``transform MODEL`` apply an assignment as source-to-source transformation
``reduce MODEL``    show the taint-based program reduction (paper §III-C)
``chaos MODEL``     run a campaign under a deterministic fault plan, then
                    resume it chaos-free (and ``--verify`` byte-identity)
``doctor DIR``      triage a campaign *or service* state directory after
                    a crash (auto-detected by what the directory holds)
``serve DIR``       run the campaign job-queue service (HTTP + SSE)
``submit MODEL``    submit a campaign job to a running service
``jobs``            list a service's jobs (optionally one tenant's)
``watch JOB``       stream a job's live events (SSE) from a service

Flag conventions: directory-valued knobs are uniformly ``--cache-dir``
/ ``--journal-dir`` / ``--trace-dir``; the execution knobs
(``--workers``, ``--cache-dir``) are one shared parent parser, so they
spell and behave identically on every dynamic command.  ``tune --json``
emits the machine-readable result on stdout and keeps every human-facing
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .analysis import assess_hotspot, build_dataflow
from .errors import ReproError
from .core import (ALGORITHMS, CampaignConfig, has_journal, make_algorithm,
                   make_oracle, run_campaign, run_or_resume)
from .core.evaluation import BACKENDS
from .core.results import save_records
from .fortran import reduce_program, unparse
from .models import MODEL_FACTORIES, get_model
from .numerics import profile_model
from .obs import ConsoleRenderer, summarize_trace
from .perf import DERECHO, time_execution
from .reporting import (ascii_scatter, render_numerics_profile,
                        render_trace_summary, scatter_from_records,
                        variant_diff, variant_source)

__all__ = ["main", "build_parser"]


def _execution_parent() -> argparse.ArgumentParser:
    """Shared evaluation-engine flags (argparse parent parser)."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("evaluation engine")
    g.add_argument("--workers", type=int, default=1,
                   help="worker processes for variant evaluation "
                        "(default 1 = in-process; results are "
                        "bit-identical either way)")
    g.add_argument("--cache-dir", default=None,
                   help="directory for the persistent variant-result "
                        "cache (reruns skip already-evaluated variants)")
    g.add_argument("--backend", default="compiled", choices=BACKENDS,
                   help="Fortran execution backend (default: compiled — "
                        "closure-lowered procedures; batched sweeps wide "
                        "variant waves; results are bit-identical "
                        "either way)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated precision tuning of weather/climate model "
                    "miniatures (SC'24 case-study reproduction)",
    )
    execution = _execution_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available model cases")

    p = sub.add_parser("profile", help="profile a model (Table I row, or "
                                       "--numerics for the shadow-execution "
                                       "error profile)")
    p.add_argument("model", help="model name (see `repro list`)")
    p.add_argument("--numerics", action="store_true",
                   help="run the shadow-execution numerical profiler "
                        "instead of the performance profile: every real "
                        "is carried at its declared kind and at float64 "
                        "simultaneously, and per-variable error metrics "
                        "produce a blame ranking over the search atoms")
    p.add_argument("--out", default=None,
                   help="with --numerics: persist the profile (JSON) "
                        "here for reuse via tune --profile")
    p.add_argument("--top", type=int, default=10,
                   help="with --numerics: blame-table rows to print "
                        "(default 10; 0 = all)")

    p = sub.add_parser("assess", parents=[execution],
                       help="tunability criteria (paper section V)")
    p.add_argument("model")
    p.add_argument("--probe", action="store_true",
                   help="also evaluate the uniform-32 variant through the "
                        "evaluation engine (a dynamic supplement to the "
                        "static criteria)")

    p = sub.add_parser("tune", parents=[execution],
                       help="run a precision-tuning search")
    p.add_argument("model")
    p.add_argument("--algorithm", default="dd", choices=list(ALGORITHMS),
                   help="search strategy (default: delta debugging; "
                        "'profile' is the profile-guided search, which "
                        "computes or loads a numerical profile first)")
    p.add_argument("--profile", default=None, dest="profile_path",
                   metavar="PATH",
                   help="numerical-profile file (see `repro profile "
                        "--numerics --out`): loaded if present, else "
                        "computed and saved here; with --algorithm "
                        "dd/screened it enables profile-aware candidate "
                        "ordering")
    p.add_argument("--max-evals", type=int, default=600,
                   help="evaluation cap (default 600)")
    p.add_argument("--budget-hours", type=float, default=12.0,
                   help="simulated wall-clock budget (default 12h)")
    p.add_argument("--threshold", type=float, default=None,
                   help="override the correctness threshold")
    p.add_argument("--out", default=None,
                   help="write raw variant records (JSON) to this path")
    p.add_argument("--journal-dir", default=None,
                   help="write-ahead campaign journal: a killed or "
                        "SIGTERMed run can be continued with --resume, "
                        "replaying completed batches at ~0 cost")
    p.add_argument("--resume", action="store_true",
                   help="resume the campaign journaled in --journal-dir "
                        "(refuses a journal from a different model/"
                        "config/seed)")
    p.add_argument("--trace-dir", default=None,
                   help="write a crash-safe span trace (trace.jsonl) and "
                        "Prometheus metrics (metrics.prom) here; inspect "
                        "with `repro trace DIR`")
    p.add_argument("--progress", action="store_true",
                   help="live per-batch progress on stderr (budget spend, "
                        "ETA, current search frontier)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable campaign result on "
                        "stdout (human output moves to stderr)")

    p = sub.add_parser("trace",
                       help="summarize a campaign span trace (per-stage "
                            "time breakdown)")
    p.add_argument("trace_dir", help="directory written by tune --trace-dir")

    p = sub.add_parser("transform",
                       help="apply a precision assignment to the source")
    p.add_argument("model")
    p.add_argument("--lower", default="",
                   help="comma-separated qualified names to lower to 32-bit "
                        "('all' lowers every atom)")
    p.add_argument("--diff", action="store_true",
                   help="print a unified diff instead of full source")

    p = sub.add_parser("reduce",
                       help="taint-based program reduction for an atom set")
    p.add_argument("model")
    p.add_argument("--targets", default="all",
                   help="comma-separated qualified names (default: all atoms)")

    p = sub.add_parser("chaos", parents=[execution],
                       help="fault-injection harness: run a campaign under "
                            "a deterministic chaos plan in a child process, "
                            "then resume it chaos-free")
    p.add_argument("model", nargs="?",
                   help="model name (see `repro list`); optional with "
                        "--list-points")
    p.add_argument("--plan", default=None, metavar="FILE",
                   help="chaos-plan JSON file (repro.chaos.FaultPlan)")
    p.add_argument("--seed", type=int, default=None,
                   help="generate a deterministic plan from this seed "
                        "(same seed, same faults — reproducible chaos)")
    p.add_argument("--point", default=None, metavar="NAME[:HIT]",
                   help="SIGKILL the campaign at the HITth hit (default "
                        "first) of this crash point")
    p.add_argument("--list-points", action="store_true",
                   help="list registered crash points and exit")
    p.add_argument("--verify", action="store_true",
                   help="also run an uninterrupted campaign and require "
                        "the resumed result to be byte-identical")
    p.add_argument("--journal-dir", default=None,
                   help="journal directory for the chaos run "
                        "(default: a fresh temp directory)")
    p.add_argument("--trace-dir", default=None,
                   help="span trace / metrics directory for the chaos run")
    p.add_argument("--max-evals", type=int, default=600,
                   help="evaluation cap (default 600)")
    p.add_argument("--budget-hours", type=float, default=12.0,
                   help="simulated wall-clock budget (default 12h)")

    p = sub.add_parser("doctor",
                       help="triage a campaign or service state directory "
                            "after a crash: is it resumable, and what to "
                            "expect")
    p.add_argument("dir", help="campaign journal directory, or a service "
                               "state directory (auto-detected by its "
                               "service.jsonl)")
    p.add_argument("--cache-dir", default=None,
                   help="also check this persistent variant cache "
                        "(campaign directories only)")
    p.add_argument("--trace-dir", default=None,
                   help="also check this span-trace directory "
                        "(campaign directories only)")

    endpoint = argparse.ArgumentParser(add_help=False)
    g = endpoint.add_argument_group("service endpoint")
    g.add_argument("--host", default="127.0.0.1",
                   help="service host (default 127.0.0.1)")
    g.add_argument("--port", type=int, default=8765,
                   help="service port (default 8765)")

    p = sub.add_parser("serve",
                       help="run the campaign job-queue service: accepts "
                            "job specs over HTTP, schedules them across a "
                            "bounded worker fleet, streams live events "
                            "over SSE, and survives SIGKILL via its "
                            "write-ahead service journal")
    p.add_argument("state_dir",
                   help="durable state directory (service journal, "
                        "per-job campaign journals, results)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port (default 8765; 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent campaign slots (default 1; dispatch "
                        "order is deterministic at any width)")

    p = sub.add_parser("submit", parents=[endpoint],
                       help="submit a campaign job to a running service")
    p.add_argument("model", nargs="?",
                   help="model name (see `repro list`); omit with --spec")
    p.add_argument("--spec", default=None, metavar="FILE",
                   help="submit this JobSpec JSON file verbatim instead "
                        "of building one from flags")
    p.add_argument("--tenant", default="default",
                   help="tenant for fair-share scheduling (default: "
                        "'default')")
    p.add_argument("--priority", type=int, default=0,
                   help="higher dispatches earlier within the tenant "
                        "(default 0)")
    p.add_argument("--algorithm", default="dd", choices=list(ALGORITHMS))
    p.add_argument("--max-evals", type=int, default=600)
    p.add_argument("--budget-hours", type=float, default=12.0)
    p.add_argument("--backend", default="compiled", choices=BACKENDS)
    p.add_argument("--json", action="store_true",
                   help="emit the server's response JSON on stdout")

    p = sub.add_parser("jobs", parents=[endpoint],
                       help="list a running service's jobs")
    p.add_argument("--tenant", default=None,
                   help="only this tenant's jobs")
    p.add_argument("--json", action="store_true",
                   help="emit the raw job records as JSON")

    p = sub.add_parser("watch", parents=[endpoint],
                       help="stream a job's events (history, then live) "
                            "until it reaches a terminal state")
    p.add_argument("job_id")
    p.add_argument("--result", action="store_true",
                   help="after the job finishes, print its exact "
                        "result.json bytes on stdout")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="give up after this many idle seconds "
                        "(default 600)")

    return parser


def _resolve_lowered(case, spec: str) -> dict[str, int]:
    if not spec:
        return {}
    if spec == "all":
        return {a.qualified: 4 for a in case.atoms}
    names = [n.strip() for n in spec.split(",") if n.strip()]
    valid = {a.qualified for a in case.atoms}
    unknown = [n for n in names if n not in valid]
    if unknown:
        raise SystemExit(f"error: not search atoms: {unknown[:5]}")
    return {n: 4 for n in names}


def _cmd_list(_args) -> int:
    print("available models:")
    for name in sorted(MODEL_FACTORIES):
        case = get_model(name)
        print(f"  {name:22s} {case.paper_module:22s} "
              f"{case.atom_count():4d} atoms  {case.description}")
    return 0


def _cmd_profile(args) -> int:
    case = get_model(args.model)
    if args.numerics:
        profile = profile_model(case)
        print(render_numerics_profile(profile, top=args.top))
        if args.out:
            profile.save(args.out)
            print(f"\nprofile written to {args.out} "
                  f"(reuse with: repro tune {args.model} "
                  f"--algorithm profile --profile {args.out})")
        return 0
    print(case.describe())
    run = case.run(None)
    report, cost = time_execution(
        run.ledger, DERECHO, inlinable=case.vec_info.inlinable,
        timed_procs=case.timed_procedures)
    print(report.render())
    share = cost.share(case.hotspot_procedures)
    print(f"\nhotspot CPU share: {100 * share:.1f}% "
          f"(module {case.paper_module})")
    return 0


def _cmd_assess(args) -> int:
    case = get_model(args.model)
    flow = build_dataflow(case.index)
    report = assess_hotspot(case.index, case.vec_info, flow,
                            case.hotspot_scopes)
    print(report.render())
    print("\nvectorization report:")
    for qual in sorted(case.hotspot_procedures):
        info = case.vec_info.procs.get(qual)
        if info and info.loops:
            print(info.report())
    if args.probe or args.workers > 1 or args.cache_dir:
        config = CampaignConfig(workers=args.workers,
                                cache_dir=args.cache_dir,
                                backend=args.backend)
        oracle = make_oracle(case, config)
        try:
            records = oracle.evaluate_batch(
                [case.space.baseline(), case.space.all_single()])
        finally:
            oracle.close()
        base, low = records
        print("\ndynamic probe (uniform 32-bit vs baseline):")
        print(f"  outcome {low.outcome.name}  speedup {low.speedup:.3f}x  "
              f"error {low.error:.3e}  (threshold {case.error_threshold:.1e})")
        _print_telemetry(oracle)
    return 0


def _print_telemetry(oracle, out=None) -> None:
    t = oracle.telemetry
    if not t:
        return
    print(f"evaluation engine: {len(t)} batches  "
          f"dispatched {sum(b.dispatched for b in t)}  "
          f"cache hits {sum(b.cache_hits for b in t)} "
          f"({sum(b.disk_hits for b in t)} from disk)  "
          f"replayed {sum(b.replayed for b in t)}  "
          f"retries {sum(b.retries for b in t)}  "
          f"backoff {sum(b.backoff_seconds for b in t):.2f}s  "
          f"failures {sum(b.failures for b in t)}  "
          f"real {sum(b.wall_seconds for b in t):.2f}s",
          file=out if out is not None else sys.stdout)


def _result_payload(result) -> dict:
    """The ``tune --json`` stdout document: the deterministic search
    payload plus an explicitly separate execution section."""
    payload = json.loads(result.to_json())
    payload["execution"] = {
        "interrupted": result.interrupted,
        "resumed_from_batch": result.resumed_from_batch,
        "journal_dir": result.journal_dir,
        "trace_dir": result.trace_dir,
        "wall_hours": result.wall_hours(),
        "batches": [bt.as_dict() for bt in result.oracle.telemetry],
        "profile": {"digest": result.profile_digest,
                    "source": result.profile_source},
        "cache_warnings": list(result.cache_warnings),
    }
    return payload


def _cmd_tune(args) -> int:
    # With --json, stdout carries exactly one JSON document; everything
    # meant for humans moves to stderr.
    out = sys.stderr if args.json else sys.stdout

    def say(text: str = "") -> None:
        print(text, file=out)

    case = get_model(args.model)
    if args.threshold is not None:
        case.error_threshold = args.threshold
    say(case.describe())

    # One construction path shared with the campaign service: a job
    # submitted over HTTP must build the identical algorithm.
    algorithm = make_algorithm(args.algorithm, case, args.max_evals)

    if args.resume and not args.journal_dir:
        raise SystemExit("error: --resume requires --journal-dir")
    subscribers = []
    if args.progress:
        subscribers.append(ConsoleRenderer(stream=sys.stderr))
    config = CampaignConfig(
        wall_budget_seconds=args.budget_hours * 3600.0,
        max_evaluations=args.max_evals,
        backend=args.backend,
        workers=args.workers,
        cache_dir=args.cache_dir,
        journal_dir=args.journal_dir,
        resume=args.resume,
        trace_dir=args.trace_dir,
        profile_path=args.profile_path,
        subscribers=tuple(subscribers),
    )
    result = run_campaign(case, config, algorithm=algorithm)
    if result.resumed_from_batch is not None:
        say(f"resumed from batch {result.resumed_from_batch} "
            f"(journal: {result.journal_dir})")
    if result.preprocessing_note:
        say(f"note: {result.preprocessing_note}")
    if result.profile_source:
        say(f"numerical profile: {result.profile_source} "
            f"(digest {result.profile_digest}, "
            f"{result.charged_profiling_seconds():.1f} sim seconds charged)")
    for warning in result.cache_warnings:
        say(f"cache warning: {warning}")
    if not result.records:
        say("no variants evaluated (interrupted before the first "
            "batch completed)")
        if result.interrupted and result.journal_dir:
            say(f"resume with: repro tune {args.model} "
                f"--journal-dir {result.journal_dir} --resume")
        if args.json:
            print(json.dumps(_result_payload(result), sort_keys=True))
        return 0
    summary = result.summary()
    say(f"\nvariants: {summary.total}  pass {summary.pass_pct:.1f}%  "
        f"fail {summary.fail_pct:.1f}%  timeout {summary.timeout_pct:.1f}%  "
        f"error {summary.error_pct:.1f}%")
    say(f"best speedup (passing): {summary.best_speedup:.3f}x  "
        f"finished: {summary.finished}  "
        f"simulated wall: {result.wall_hours():.1f} h")
    _print_telemetry(result.oracle, out)
    if result.trace_dir:
        say(f"trace written to {result.trace_dir} "
            f"(inspect with: repro trace {result.trace_dir})")
    if result.interrupted:
        say(f"\ninterrupted: campaign stopped gracefully "
            f"(partial result; in-flight work journaled)")
        if result.journal_dir:
            say(f"resume with: repro tune {args.model} "
                f"--journal-dir {result.journal_dir} --resume")
        else:
            say("hint: pass --journal-dir to make interrupted runs "
                "resumable")

    final = result.search.final_record
    if final is not None:
        kept = sorted(result.search.final.high())
        say(f"1-minimal variant: {final.speedup:.3f}x, "
            f"error {final.error:.3e}")
        say(f"64-bit survivors ({len(kept)}):")
        for name in kept[:20]:
            say(f"  {name}")
        if len(kept) > 20:
            say(f"  ... and {len(kept) - 20} more")

    series = scatter_from_records(result.records, f"{case.name} search",
                                  error_threshold=case.error_threshold)
    say("\n" + ascii_scatter(series))

    if args.out:
        save_records(result.records, args.out)
        say(f"\nraw records written to {args.out}")
    if args.json:
        print(json.dumps(_result_payload(result), sort_keys=True))
    return 0


def _cmd_trace(args) -> int:
    summary = summarize_trace(args.trace_dir)
    print(render_trace_summary(summary))
    # A reconciliation gap between the stage totals and the campaign's
    # own accounting means the trace (or the charging logic behind it)
    # is wrong — make it a hard failure so CI catches drift.
    if summary.campaign_sim_seconds and summary.mismatch_pct() > 0.01:
        print(f"error: stage totals diverge from campaign accounting "
              f"by {summary.mismatch_pct():.3f}% (> 0.01%)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_transform(args) -> int:
    case = get_model(args.model)
    lowered = _resolve_lowered(case, args.lower)
    assignment = case.space.baseline().with_kinds(lowered)
    if args.diff:
        print(variant_diff(case.source, assignment), end="")
    else:
        print(variant_source(case.source, assignment))
    return 0


def _cmd_reduce(args) -> int:
    case = get_model(args.model)
    if args.targets == "all":
        targets = {a.qualified for a in case.atoms}
    else:
        targets = {n.strip() for n in args.targets.split(",") if n.strip()}
    reduced = reduce_program(case.index, targets)
    print(f"tainted symbols: {len(reduced.tainted_symbols)}")
    print(f"kept procedures: {len(reduced.kept_procedures)}")
    print(f"statement reduction: {100 * reduced.reduction_ratio:.1f}% "
          "of executable statements dropped")
    print()
    print(unparse(reduced.ast))
    return 0


def _chaos_child(model_name: str, config) -> None:  # pragma: no cover
    """Body of the forked chaos-run child.

    Runs in a ``fork`` child so a SIGKILL crash point takes down this
    process, not the operator's CLI.  Fork means the config (including
    the FaultPlan) is inherited, never pickled.
    """
    case = get_model(model_name)
    try:
        run_campaign(case, config)
    except ReproError as exc:
        print(f"chaos child: {type(exc).__name__}: {exc}", file=sys.stderr)
        os._exit(3)
    os._exit(0)


def _cmd_chaos(args) -> int:
    import multiprocessing
    import signal
    import tempfile

    from .chaos import CRASH_POINTS, FaultPlan, KillAt

    if args.list_points:
        print("registered crash points:")
        for name in sorted(CRASH_POINTS):
            print(f"  {name:26s} {CRASH_POINTS[name]}")
        return 0
    if not args.model:
        raise SystemExit("error: MODEL is required unless --list-points")
    chosen = [flag for flag, given in
              (("--plan", args.plan is not None),
               ("--point", args.point is not None),
               ("--seed", args.seed is not None)) if given]
    if len(chosen) > 1:
        raise SystemExit(f"error: {' / '.join(chosen)} are mutually "
                         f"exclusive")

    if args.plan:
        plan = FaultPlan.load(args.plan)
    elif args.point:
        name, _, hit = args.point.partition(":")
        if name not in CRASH_POINTS:
            raise SystemExit(f"error: unknown crash point {name!r} "
                             f"(see repro chaos --list-points)")
        plan = FaultPlan(kills=(KillAt(name, int(hit) if hit else 1),))
    else:
        plan = FaultPlan.random(args.seed if args.seed is not None else 0)

    get_model(args.model)                      # fail fast on a bad name
    journal_dir = args.journal_dir or tempfile.mkdtemp(
        prefix="repro-chaos-run-")
    print(f"chaos plan {plan.digest()}: {plan.describe()}")
    print(f"journal: {journal_dir}")

    base = dict(wall_budget_seconds=args.budget_hours * 3600.0,
                max_evaluations=args.max_evals,
                backend=args.backend, workers=args.workers,
                cache_dir=args.cache_dir, journal_dir=journal_dir,
                trace_dir=args.trace_dir)
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_chaos_child,
                       args=(args.model, CampaignConfig(chaos=plan, **base)))
    proc.start()
    proc.join(600)
    if proc.is_alive():
        proc.kill()
        proc.join()
        print("chaos run: child wedged past 600 s; killed", file=sys.stderr)
        return 1
    if proc.exitcode == -signal.SIGKILL:
        print("chaos run: SIGKILL delivered at a crash point")
    elif proc.exitcode == 0:
        print("chaos run: campaign survived the plan and completed")
    else:
        print(f"chaos run: child exited {proc.exitcode}", file=sys.stderr)
        return 1

    resume = has_journal(journal_dir)
    resumed = run_or_resume(get_model(args.model), CampaignConfig(**base))
    label = ("resumed" if resume else
             "restarted (empty journal or torn header: killed before "
             "the header landed)")
    summary = resumed.summary()
    print(f"{label}: {summary.total} variants  best passing speedup "
          f"{summary.best_speedup:.3f}x  finished={summary.finished}")
    if resumed.resumed_from_batch is not None:
        print(f"replayed through batch {resumed.resumed_from_batch}")

    if args.verify:
        clean_base = dict(base, journal_dir=None, cache_dir=None,
                          trace_dir=None)
        clean = run_campaign(get_model(args.model),
                             CampaignConfig(**clean_base))
        if clean.to_json() == resumed.to_json():
            print("verify: resumed result is byte-identical to an "
                  "uninterrupted run")
        else:
            print("verify: MISMATCH — resumed result diverges from the "
                  "uninterrupted run", file=sys.stderr)
            return 1
    return 0


def _cmd_doctor(args) -> int:
    from .service.doctor import diagnose_service, is_service_dir

    if is_service_dir(args.dir):
        if args.cache_dir or args.trace_dir:
            print("note: --cache-dir/--trace-dir ignored for service "
                  "state directories", file=sys.stderr)
        report = diagnose_service(args.dir)
    else:
        from .chaos.doctor import diagnose
        report = diagnose(args.dir, cache_dir=args.cache_dir,
                          trace_dir=args.trace_dir)
    print(report.render())
    return 0 if report.healthy else 1


def _cmd_serve(args) -> int:
    from .service import CampaignService, ServiceServer

    service = CampaignService(args.state_dir)
    for warning in service.load_warnings:
        print(f"recovery: {warning}", file=sys.stderr)
    server = ServiceServer(service, host=args.host, port=args.port,
                           workers=args.workers)

    import asyncio

    async def serve() -> None:
        await server.start()
        # Printed *after* the port is bound (supports --port 0), and
        # flushed so readiness loops in CI can poll for it.
        print(f"campaign service: http://{server.host}:{server.port} "
              f"(state: {args.state_dir}, workers: {args.workers})",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("campaign service: interrupted; state journaled — restart "
              "to resume", file=sys.stderr)
    return 0


def _build_spec(args):
    from .service import JobSpec

    if args.spec:
        return JobSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    if not args.model:
        raise SystemExit("error: MODEL is required unless --spec FILE")
    config = CampaignConfig(
        wall_budget_seconds=args.budget_hours * 3600.0,
        max_evaluations=args.max_evals,
        backend=args.backend)
    return JobSpec(model=args.model, tenant=args.tenant,
                   priority=args.priority, algorithm=args.algorithm,
                   config=config)


def _cmd_submit(args) -> int:
    from .service import ServiceClient

    spec = _build_spec(args)
    client = ServiceClient(args.host, args.port)
    resp = client.submit(spec)
    if args.json:
        print(json.dumps(resp, sort_keys=True))
    else:
        note = " (attached to existing job)" if resp["deduplicated"] else ""
        print(f"job {resp['job_id']} {resp['state']}{note}")
        print(f"watch with: repro watch {resp['job_id']} "
              f"--host {args.host} --port {args.port}")
    return 0


def _cmd_jobs(args) -> int:
    from .service import ServiceClient

    jobs = ServiceClient(args.host, args.port).jobs(args.tenant)
    if args.json:
        print(json.dumps({"jobs": jobs}, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'JOB':16s} {'STATE':8s} {'TENANT':12s} {'PRI':>3s} "
          f"{'MODEL':12s} {'ALGO':10s} {'EVALS':>5s}  DETAIL")
    for job in jobs:
        detail = job["error"] or (
            f"digest {job['result_digest'][:12]}" if job["result_digest"]
            else "")
        print(f"{job['job_id']:16s} {job['state']:8s} "
              f"{job['tenant']:12s} {job['priority']:3d} "
              f"{job['model']:12s} {job['algorithm']:10s} "
              f"{job['evaluations']:5d}  {detail}")
    return 0


def _scalar_fields(data: dict, prefix: str = ""):
    """Sorted ``key=value`` scalars, a nested dict's under dotted keys."""
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            yield from _scalar_fields(value, f"{prefix}{key}.")
        elif not isinstance(value, list):
            yield f"{prefix}{key}={value}"


def _cmd_watch(args) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.host, args.port)
    terminal = None
    for payload in client.watch(args.job_id, timeout=args.timeout):
        name, data = payload["event"], payload["data"]
        if name in ("JobFinished", "JobFailed"):
            terminal = name
        line = ", ".join(_scalar_fields(data))
        print(f"{name}: {line}", file=sys.stderr if args.result
              else sys.stdout)
    if args.result:
        if terminal != "JobFinished":
            print(f"error: job {args.job_id} did not finish "
                  f"({terminal or 'stream ended'})", file=sys.stderr)
            return 1
        sys.stdout.write(client.result_text(args.job_id))
        return 0
    return 0 if terminal == "JobFinished" else 1


_COMMANDS = {
    "list": _cmd_list,
    "profile": _cmd_profile,
    "assess": _cmd_assess,
    "tune": _cmd_tune,
    "trace": _cmd_trace,
    "transform": _cmd_transform,
    "reduce": _cmd_reduce,
    "chaos": _cmd_chaos,
    "doctor": _cmd_doctor,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "watch": _cmd_watch,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # Library errors (e.g. a refused journal resume) are operator
        # feedback, not stack traces.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
