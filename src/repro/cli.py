"""Command-line interface: ``python -m repro <command>``.

Commands map to the paper's artifacts and the library's experiments:

* ``catalog``    -- list the modeled FPGA devices (Table I's FPGA rows).
* ``taxonomy``   -- print the Figure 1 taxonomy tree.
* ``table2``     -- regenerate Table II from the case-study models.
* ``casestudy``  -- run the full Section V pipeline (profile -> Quipu
  -> Table II -> simulation).
* ``simulate``   -- run a synthetic DReAMSim experiment
  (``--strategy``, ``--tasks``, ``--seed``, ``--gpp-fraction``...;
  ``--trace`` writes a validated JSONL event trace, ``--faults`` injects
  a named fault scenario, ``--jobs`` / ``--cache-dir`` parallelize and
  cache ``--replications``).
* ``sweep``      -- sweep one ExperimentSpec knob across values
  through the parallel runner (``--field``, ``--values``, ``--jobs``).
* ``chaos``      -- compare scheduling strategies under a fault preset
  and report the recovery metrics (availability, MTTR, wasted work,
  goodput).  Both ``simulate`` and ``chaos`` accept the resilience
  flags ``--breaker``, ``--deadlines`` and ``--checkpoint-interval``
  (see :mod:`repro.sim.resilience`).
* ``clustalw``   -- align a FASTA file (or a generated family) and
  print the MSA; optionally profile it (Figure 10).
* ``bench``      -- run the registered benchmark cases through the
  unified harness (``--filter``, ``--repeat``, ``--quick``) and write
  a schema-versioned ``BENCH_<timestamp>.json`` (``--json``).
* ``diff``       -- compare two bench suites / report dumps /
  telemetry dumps metric-by-metric with relative tolerances; exits 1
  on regression, 2 when the runs are not comparable.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.report import ascii_bar_chart, ascii_table


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.hardware.catalog import DEVICE_CATALOG

    devices = sorted(DEVICE_CATALOG.values(), key=lambda d: (d.family, d.slices))
    rows = [
        (d.model, d.family, d.slices, d.luts, d.bram_kb, d.dsp_slices,
         f"{d.reconfig_bandwidth_mbps:.0f}")
        for d in devices
        if args.family is None or d.family == args.family
    ]
    print(
        ascii_table(
            ["model", "family", "slices", "LUTs", "BRAM KB", "DSP", "cfg MB/s"],
            rows,
            title="Device catalog",
        )
    )
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro.hardware.taxonomy import taxonomy_tree

    for depth, node in taxonomy_tree().walk():
        section = f"  [{node.section}]" if node.section else ""
        print("  " * depth + f"- {node.label}{section}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.casestudy.mappings import matches_paper, table2
    from repro.casestudy.nodes import build_case_study_nodes
    from repro.casestudy.tasks import build_case_study_tasks

    tasks = build_case_study_tasks()
    nodes = build_case_study_nodes()
    for row in table2(tasks, nodes):
        print(row.format())
    print(f"matches the published table: {matches_paper(tasks, nodes)}")
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.casestudy.pipeline import run_case_study

    outcome = run_case_study(
        family_size=args.family_size, sequence_length=args.length, seed=args.seed
    )
    print(
        ascii_bar_chart(
            [row.name for row in outcome.profile_rows],
            [row.self_pct for row in outcome.profile_rows],
            title="Figure 10: top kernels (% self time)",
            unit="%",
        )
    )
    print(f"\npairalign cumulative: {outcome.pairalign_pct:.2f}%  (paper 89.76%)")
    print(f"malign cumulative:    {outcome.malign_pct:.2f}%  (paper 7.79%)")
    print(f"\nQuipu: pairalign {outcome.pairalign_slices} / malign {outcome.malign_slices} slices")
    print("\nTable II:")
    for row in outcome.table:
        print("  " + row.format())
    print(f"  matches paper: {outcome.matches_paper_table2}")
    print("\nSimulation:")
    print("\n".join("  " + l for l in outcome.simulation.summary_lines()))
    return 0


def _default_grid_nodes():
    from repro.sim.experiment import NodeSpec

    return (
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    )


def _resilience_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
):
    """Build a ResilienceSpec from ``--breaker``/``--deadlines``/
    ``--checkpoint-interval``; None when all are off.

    Malformed values become ``parser.error`` (usage + exit code 2)
    rather than tracebacks.
    """
    from repro.grid.health import HealthPolicy
    from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec

    deadlines = None
    if args.deadlines is not None:
        soft_text, _, hard_text = args.deadlines.partition(":")
        try:
            deadlines = DeadlineSpec(
                soft_factor=float(soft_text),
                hard_factor=float(hard_text or soft_text),
            )
        except ValueError as exc:
            parser.error(
                f"--deadlines must be SOFT:HARD finite positive factors "
                f"(hard >= soft), got {args.deadlines!r}: {exc}"
            )
    checkpoint = None
    if args.checkpoint_interval is not None:
        try:
            checkpoint = CheckpointSpec(interval_s=args.checkpoint_interval)
        except ValueError as exc:
            parser.error(f"--checkpoint-interval: {exc}")
    spec = ResilienceSpec(
        breaker=HealthPolicy() if args.breaker else None,
        deadlines=deadlines,
        checkpoint=checkpoint,
    )
    return spec if spec.enabled else None


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--breaker", action="store_true",
                   help="enable node health scoring + circuit breakers")
    p.add_argument("--deadlines", nargs="?", const="4:12", metavar="SOFT:HARD",
                   help="enable task deadlines at SOFT:HARD multiples of "
                        "t_estimated (default 4:12)")
    p.add_argument("--checkpoint-interval", type=float, default=None, metavar="S",
                   help="checkpoint fabric tasks every S simulated seconds")


def _add_failover_flags(p: argparse.ArgumentParser) -> None:
    from repro.sim.failover import FAILOVER_PRESETS

    p.add_argument("--failover", choices=sorted(FAILOVER_PRESETS), default=None,
                   help="control-plane fault-tolerance preset "
                        "(see repro.sim.failover)")
    p.add_argument("--standbys", type=int, default=None, metavar="N",
                   help="override the preset's warm-standby count")


def _failover_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
):
    """Build a FailoverSpec from ``--failover``/``--standbys``; None
    when neither is given (the exact pre-failover simulator)."""
    from dataclasses import replace

    from repro.sim.failover import FAILOVER_PRESETS, FailoverSpec

    if args.failover is None and args.standbys is None:
        return None
    spec = (
        FAILOVER_PRESETS[args.failover]
        if args.failover is not None
        else FailoverSpec()
    )
    if args.standbys is not None:
        if args.standbys < 0:
            parser.error("--standbys must be non-negative")
        spec = replace(spec, standbys=args.standbys)
    return spec if spec.enabled else None


def _admission_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
):
    """Build an AdmissionSpec from ``--admission``/``--max-pending``/
    ``--rate-limit``/``--utilization-gate``/``--brownout``; None when
    everything is off.  Explicit flags override the preset's fields.
    Malformed values become ``parser.error`` (usage + exit code 2)."""
    from repro.sim.admission import (
        ADMISSION_PRESETS,
        AdmissionSpec,
        BrownoutSpec,
        QueueBoundSpec,
        TokenBucketSpec,
        UtilizationSpec,
    )

    preset = (
        ADMISSION_PRESETS[args.admission] if args.admission else AdmissionSpec()
    )
    queue = preset.queue
    rate = preset.rate
    utilization = preset.utilization
    brownout = preset.brownout
    if args.max_pending is not None:
        base = queue if queue is not None else QueueBoundSpec()
        try:
            queue = QueueBoundSpec(
                max_pending=args.max_pending,
                defer=base.defer or args.defer_submissions,
                defer_delay_s=base.defer_delay_s,
                max_defers=base.max_defers,
            )
        except ValueError as exc:
            parser.error(f"--max-pending: {exc}")
    elif args.defer_submissions and queue is not None:
        queue = QueueBoundSpec(
            max_pending=queue.max_pending,
            defer=True,
            defer_delay_s=queue.defer_delay_s,
            max_defers=queue.max_defers,
        )
    elif args.defer_submissions:
        parser.error("--defer needs a bounded queue (--max-pending or a preset)")
    if args.rate_limit is not None:
        rate_text, _, burst_text = args.rate_limit.partition(":")
        try:
            rate = TokenBucketSpec(
                rate_per_s=float(rate_text),
                burst=float(burst_text) if burst_text else 8.0,
            )
        except ValueError as exc:
            parser.error(
                f"--rate-limit must be RATE[:BURST], got {args.rate_limit!r}: {exc}"
            )
    if args.utilization_gate is not None:
        try:
            utilization = UtilizationSpec(threshold=args.utilization_gate)
        except ValueError as exc:
            parser.error(f"--utilization-gate: {exc}")
    if args.brownout is not None:
        parts = args.brownout.split(":")
        try:
            if len(parts) not in (2, 3):
                raise ValueError("expected ENTER:EXIT[:DWELL]")
            brownout = BrownoutSpec(
                enter_pending=int(parts[0]),
                exit_pending=int(parts[1]),
                dwell_s=float(parts[2]) if len(parts) == 3 else 1.0,
            )
        except ValueError as exc:
            parser.error(
                f"--brownout must be ENTER:EXIT[:DWELL] with exit < enter, "
                f"got {args.brownout!r}: {exc}"
            )
    spec = AdmissionSpec(
        queue=queue, rate=rate, utilization=utilization, brownout=brownout
    )
    return spec if spec.enabled else None


def _add_admission_flags(p: argparse.ArgumentParser) -> None:
    from repro.sim.admission import ADMISSION_PRESETS

    p.add_argument("--admission", choices=sorted(ADMISSION_PRESETS), default=None,
                   help="overload-protection preset (see repro.sim.admission)")
    p.add_argument("--max-pending", type=int, default=None, metavar="N",
                   help="bound the pending queue at N submissions")
    p.add_argument("--defer", dest="defer_submissions", action="store_true",
                   help="defer (backpressure) instead of shedding at the "
                        "queue bound")
    p.add_argument("--rate-limit", metavar="RATE[:BURST]",
                   help="token-bucket admission at RATE submissions/s "
                        "(burst default 8)")
    p.add_argument("--utilization-gate", type=float, default=None, metavar="T",
                   help="defer placements while grid occupancy >= T (0..1]")
    p.add_argument("--brownout", nargs="?", const="48:16:1.0",
                   metavar="ENTER:EXIT[:DWELL]",
                   help="staged brownout degradation: escalate after the "
                        "queue holds >= ENTER for DWELL s, recover at <= "
                        "EXIT (default 48:16:1.0)")


def _parse_flash_crowd(parser: argparse.ArgumentParser, text: str):
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError("expected START:DURATION:MULTIPLIER")
        return (float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        parser.error(
            f"--flash-crowd must be START:DURATION:MULTIPLIER, got {text!r}: {exc}"
        )


def _check_spec_fields(parser: argparse.ArgumentParser, flags: str, **fields) -> None:
    """Run ``ExperimentSpec``'s own validation of *fields* (which builds
    the arrival process and workload spec it would use) and turn a
    rejection into ``parser.error`` naming *flags*."""
    from repro.sim.experiment import ExperimentSpec

    try:
        ExperimentSpec(**fields)
    except ValueError as exc:
        parser.error(f"{flags}: {exc}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.experiment import ExperimentSpec, run_experiment
    from repro.sim.faults import FAULT_PRESETS
    from repro.sim.runner import ExperimentRunner
    from repro.sim.telemetry import TelemetryRegistry
    from repro.sim.tracing import JsonlSink, TraceInvariantChecker, Tracer

    spec = ExperimentSpec(
        strategy=args.strategy,
        tasks=args.tasks,
        nodes=_default_grid_nodes(),
        configurations=args.configurations,
        arrival_rate_per_s=args.rate,
        gpp_fraction=args.gpp_fraction,
        # Area range bounded by the smallest PR region of the grid above
        # (XC5VLX155 / 2 regions = 12,160 slices): no unplaceable tasks.
        area_range=(2_000, 12_000),
        seed=args.seed,
        faults=FAULT_PRESETS[args.faults] if args.faults else None,
        resilience=args.resilience,
        engine=args.engine,
        admission=args.admission,
        failover=args.failover,
        low_priority_fraction=args.low_priority,
        flash_crowd=args.flash_crowd,
        tenants=args.tenants,
        slo=args.slo,
    )
    tracer = None
    if args.trace:
        tracer = Tracer(TraceInvariantChecker(), JsonlSink(args.trace))
    telemetry = TelemetryRegistry() if args.telemetry else None
    result = run_experiment(
        spec, audit_energy=args.energy, tracer=tracer, telemetry=telemetry
    )
    print(f"strategy: {args.strategy}   seed: {args.seed}")
    print("\n".join(result.report.summary_lines()))
    if tracer is not None:
        tracer.close()
        checker = tracer.checker
        assert checker is not None
        print(
            f"trace                {tracer.events_emitted} events -> {args.trace} "
            f"(invariants OK: {checker.events_checked} checked)"
        )
    if telemetry is not None:
        telemetry.write_json(args.telemetry)
        print(
            f"telemetry            {len(telemetry.instruments)} instruments "
            f"-> {args.telemetry}"
        )
    if args.energy and result.energy is not None:
        print("\n".join(result.energy.summary_lines()))
    if args.report_json:
        from repro.sim.metrics import write_report_dump

        write_report_dump(
            args.report_json, spec, result.report, energy=result.energy
        )
        print(f"report dump          -> {args.report_json}")
    if args.replications > 1:
        runner = ExperimentRunner(
            jobs=args.jobs, cache_dir=args.cache_dir, progress=args.progress
        )
        summary = runner.replicate(
            spec, seeds=[args.seed + i for i in range(args.replications)]
        )
        print()
        print("\n".join(summary.summary_lines()))
        print(f"runner              {runner.last_stats.summary_line()}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Causal analysis of one or more traces.

    Exit status: 0 all analyses conserve, 1 any trace breaks the
    phases-sum-to-turnaround invariant, 2 a trace cannot be read.
    """
    from repro.sim.analysis import analyze_trace, write_analysis_json

    documents: dict[str, dict] = {}
    violated = False
    for i, path in enumerate(args.traces):
        try:
            analysis = analyze_trace(
                path, exemplars_k=args.exemplars, tenant=args.tenant
            )
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro analyze: error: {path}: {exc}", file=sys.stderr)
            return 2
        if i:
            print()
        print(f"=== {path} ===")
        print(analysis.render(top=args.top))
        documents[path] = analysis.to_json()
        if analysis.conservation_violations():
            violated = True
    if args.json:
        write_analysis_json(args.json, documents)
        print(f"\nanalysis json        -> {args.json}")
    if violated:
        print(
            "repro analyze: error: phase-ledger conservation violated "
            "(see FAIL lines above)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report_html import render_dashboard
    from repro.sim.telemetry import load_telemetry, write_chrome_trace
    from repro.sim.tracing import read_jsonl

    try:
        registry = load_telemetry(args.telemetry)
    except (OSError, ValueError) as exc:
        print(f"repro report: error: {exc}", file=sys.stderr)
        return 2
    events = None
    if args.trace:
        try:
            events = read_jsonl(args.trace)
        except (OSError, ValueError) as exc:
            print(f"repro report: error: {args.trace}: {exc}", file=sys.stderr)
            return 2
    try:
        html_text = render_dashboard(registry, events)
    except KeyError as exc:
        print(f"repro report: error: {args.trace}: event without {exc}", file=sys.stderr)
        return 2
    Path(args.output).write_text(html_text, encoding="utf-8")
    print(f"dashboard            {len(html_text)} bytes -> {args.output}")
    if args.perfetto:
        if events is None:
            print(
                "repro report: error: --perfetto needs a trace file "
                "(pass TRACE as the second positional argument)",
                file=sys.stderr,
            )
            return 2
        count = write_chrome_trace(args.perfetto, events)
        print(
            f"perfetto             {count} trace events -> {args.perfetto} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    if args.openmetrics:
        Path(args.openmetrics).write_text(
            registry.open_metrics(), encoding="ascii"
        )
        print(f"openmetrics          -> {args.openmetrics}")
    return 0


#: ExperimentSpec fields sweepable from the command line, with the
#: parser for one comma-separated value.
SWEEPABLE_FIELDS = {
    "strategy": str,
    "tasks": int,
    "configurations": int,
    "arrival_rate_per_s": float,
    "gpp_fraction": float,
    "seed": int,
    "discard_after_s": float,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scheduling import ALL_STRATEGIES
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.runner import ExperimentRunner

    parse = SWEEPABLE_FIELDS[args.field]
    if args.values:
        try:
            values = [parse(v) for v in args.values.split(",")]
        except ValueError:
            print(
                f"repro sweep: error: --values for {args.field!r} must be "
                f"comma-separated {parse.__name__} literals, got {args.values!r}",
                file=sys.stderr,
            )
            return 2
        if args.field == "strategy":
            bad = [v for v in values if v not in ALL_STRATEGIES]
            if bad:
                print(
                    f"repro sweep: error: unknown strategy values {bad}; choose "
                    "from " + ", ".join(sorted(ALL_STRATEGIES)),
                    file=sys.stderr,
                )
                return 2
    elif args.field == "strategy":
        values = sorted(ALL_STRATEGIES)
    else:
        print(f"--values is required when sweeping {args.field!r}", file=sys.stderr)
        return 2
    base = ExperimentSpec(
        strategy=args.strategy,
        tasks=args.tasks,
        nodes=_default_grid_nodes(),
        arrival_rate_per_s=args.rate,
        area_range=(2_000, 12_000),
        seed=args.seed,
    )
    for value in values:
        try:
            base.with_(**{args.field: value})
        except ValueError as exc:
            print(f"repro sweep: error: {exc}", file=sys.stderr)
            return 2
    runner = ExperimentRunner(
        jobs=args.jobs, cache_dir=args.cache_dir, progress=args.progress
    )
    results = runner.sweep(base, args.field, values)
    rows = [
        (
            str(getattr(r.spec, args.field)),
            f"{r.report.mean_wait_s:.4f}",
            f"{r.report.mean_turnaround_s:.4f}",
            f"{r.report.makespan_s:.2f}",
            str(r.report.reconfigurations),
            f"{r.report.reuse_rate:.1%}",
            f"{r.report.completed}/{r.report.discarded}/{r.report.pending}",
        )
        for r in results
    ]
    print(
        ascii_table(
            [args.field, "wait s", "turnd s", "makespan", "reconf", "reuse", "done/disc/pend"],
            rows,
            title=f"Sweep over {args.field} ({args.tasks} tasks, seed {args.seed})",
        )
    )
    print(runner.last_stats.summary_line())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.report import recovery_json, recovery_table
    from repro.scheduling import ALL_STRATEGIES
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.faults import FAULT_PRESETS
    from repro.sim.runner import ExperimentRunner

    strategies = (
        args.strategies.split(",") if args.strategies else ["fcfs", "hybrid-cost"]
    )
    bad = [s for s in strategies if s not in ALL_STRATEGIES]
    if bad:
        print(
            f"repro chaos: error: unknown strategy values {bad}; choose from "
            + ", ".join(sorted(ALL_STRATEGIES)),
            file=sys.stderr,
        )
        return 2
    faults_name = args.faults
    failover = args.failover
    if args.control_plane:
        faults_name = "control-plane"
        if failover is None:
            from repro.sim.failover import FAILOVER_PRESETS

            failover = FAILOVER_PRESETS["replicated"]
    base = ExperimentSpec(
        tasks=args.tasks,
        nodes=_default_grid_nodes(),
        arrival_rate_per_s=args.rate,
        area_range=(2_000, 12_000),
        seed=args.seed,
        faults=FAULT_PRESETS[faults_name],
        resilience=args.resilience,
        failover=failover,
    )
    runner = ExperimentRunner(jobs=args.jobs, cache_dir=args.cache_dir)
    results = runner.run([base.with_(strategy=s) for s in strategies])
    entries = [(r.spec.strategy, r.report) for r in results]
    print(
        recovery_table(
            entries,
            title=f"Chaos '{faults_name}' ({args.tasks} tasks, seed {args.seed})",
        )
    )
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(recovery_json(entries), indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        print(f"wrote {args.json}")
    print(runner.last_stats.summary_line())
    if args.max_lost is not None:
        # Conservation gate: every submitted task must be accounted for
        # (completed / failed / discarded / shed) by the horizon; tasks
        # still pending were stranded -- the failure mode orphan
        # recovery exists to prevent.  The CI failover smoke runs with
        # --max-lost 0.
        worst = max(r.report.pending for r in results)
        if worst > args.max_lost:
            print(
                f"repro chaos: FAIL: {worst} task(s) left stranded at the "
                f"horizon, exceeding --max-lost {args.max_lost}",
                file=sys.stderr,
            )
            return 1
        print(
            f"conservation         worst stranded {worst} "
            f"<= --max-lost {args.max_lost}: OK"
        )
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    """Flash-crowd overload study: the same surge, unprotected vs
    protected, side by side.  ``--max-queue`` turns the protected run's
    bounded-depth claim into an assertion (exit 1), which is what the
    CI overload smoke job checks."""
    from repro.sim.admission import ADMISSION_PRESETS
    from repro.sim.experiment import ExperimentSpec, run_experiment
    from repro.sim.telemetry import TelemetryRegistry
    from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer

    admission = args.admission
    if admission is None:
        admission = ADMISSION_PRESETS["brownout"]
    base = ExperimentSpec(
        strategy=args.strategy,
        tasks=args.tasks,
        nodes=_default_grid_nodes(),
        arrival_rate_per_s=args.rate,
        area_range=(2_000, 12_000),
        seed=args.seed,
        low_priority_fraction=args.low_priority,
        flash_crowd=(args.surge_start, args.surge_duration, args.surge),
    )

    def one(spec):
        telemetry = TelemetryRegistry()
        tracer = Tracer(TraceInvariantChecker(), InMemorySink(capacity=1))
        result = run_experiment(spec, tracer=tracer, telemetry=telemetry)
        checker = tracer.checker
        assert checker is not None
        checker.assert_no_lost_tasks()
        checker.assert_conservation()
        depth = 0.0
        for series in telemetry.series("sim_queue_depth"):
            for _, value in series.points:
                depth = max(depth, value)
        return result.report, int(depth)

    unprotected, depth0 = one(base)
    protected, depth1 = one(base.with_(admission=admission))
    surge_rate = args.rate * args.surge
    print(
        f"flash crowd: {args.rate:g}/s base, x{args.surge:g} surge "
        f"({surge_rate:g}/s) in [{args.surge_start:g}, "
        f"{args.surge_start + args.surge_duration:g}) s, seed {args.seed}"
    )
    rows = [
        ("max queue depth", str(depth0), str(depth1)),
        ("p95 wait (admitted) s", f"{unprotected.p95_wait_s:.3f}",
         f"{protected.p95_wait_s:.3f}"),
        ("completed", str(unprotected.completed), str(protected.completed)),
        ("shed", str(unprotected.shed), str(protected.shed)),
        ("deferred", str(unprotected.admission_deferrals),
         str(protected.admission_deferrals)),
        ("brownout transitions", str(unprotected.brownout_transitions),
         str(protected.brownout_transitions)),
        ("brownout residency s", f"{unprotected.brownout_time_s:.2f}",
         f"{protected.brownout_time_s:.2f}"),
        ("goodput degraded /s", f"{unprotected.overload_goodput_tasks_per_s:.3f}",
         f"{protected.overload_goodput_tasks_per_s:.3f}"),
        ("makespan s", f"{unprotected.makespan_s:.2f}",
         f"{protected.makespan_s:.2f}"),
    ]
    print(ascii_table(
        ["metric", "unprotected", "protected"], rows,
        title="Overload study (conservation verified on both runs)",
    ))
    if args.json:
        import json

        document = {
            "surge": {
                "base_rate_per_s": args.rate,
                "multiplier": args.surge,
                "start_s": args.surge_start,
                "duration_s": args.surge_duration,
            },
            "unprotected": {
                "max_queue_depth": depth0,
                "p95_wait_s": unprotected.p95_wait_s,
                "completed": unprotected.completed,
            },
            "protected": {
                "max_queue_depth": depth1,
                "p95_wait_s": protected.p95_wait_s,
                "completed": protected.completed,
                "shed": protected.shed,
                "deferred": protected.admission_deferrals,
                "brownout_transitions": protected.brownout_transitions,
                "brownout_time_s": protected.brownout_time_s,
                "goodput_tasks_per_s": protected.overload_goodput_tasks_per_s,
            },
        }
        Path(args.json).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        print(f"wrote {args.json}")
    if args.max_queue is not None and depth1 > args.max_queue:
        print(
            f"repro overload: FAIL: protected queue depth {depth1} exceeded "
            f"--max-queue {args.max_queue}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_clustalw(args: argparse.Namespace) -> int:
    from repro.bioinfo.clustalw import clustalw
    from repro.bioinfo.sequences import read_fasta, synthetic_family, write_fasta

    if args.fasta:
        try:
            sequences = read_fasta(args.fasta)
            result = clustalw(sequences, tree_method=args.tree)
        except ValueError as exc:  # malformed or unalignable input
            print(f"repro clustalw: error: {args.fasta}: {exc}", file=sys.stderr)
            return 2
    else:
        sequences = synthetic_family(args.family_size, args.length, seed=args.seed)
        result = clustalw(sequences, tree_method=args.tree)
    print(f"; {len(sequences)} sequences, alignment length {result.length}, "
          f"SP score {result.sp_score:.1f}")
    print(f"; guide tree: {result.tree.newick([s.seq_id for s in sequences])}")
    for seq in result.alignment:
        print(f">{seq.seq_id}")
        print(seq.residues)
    if args.out:
        write_fasta(result.alignment, args.out)
        print(f"; wrote {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        all_cases,
        match_cases,
        run_suite,
        suite_to_json,
        summary_table,
        write_bench_json,
    )
    from repro.bench.core import default_bench_filename

    if args.list:
        rows = [
            (c.name, c.group, "yes" if c.quick_eligible else "no", c.description)
            for c in all_cases()
        ]
        print(ascii_table(
            ["case", "group", "quick", "description"], rows,
            title=f"registered bench cases ({len(rows)})",
        ))
        return 0
    import re

    try:
        cases = match_cases(args.filter, quick=args.quick)
    except re.error as exc:
        print(
            f"repro bench: error: invalid --filter regex: {exc}",
            file=sys.stderr,
        )
        return 2
    if not cases:
        print(
            f"repro bench: error: no case matches filter {args.filter!r}"
            + (" in the quick suite" if args.quick else "")
            + "; `repro bench --list` shows all cases",
            file=sys.stderr,
        )
        return 2
    results = run_suite(
        cases, repeat=args.repeat, warmup=args.warmup, quick=args.quick,
        progress=(lambda line: print(line, file=sys.stderr)),
    )
    print(summary_table(results))
    if args.json is not None:
        import time

        path = args.json or default_bench_filename()
        document = suite_to_json(
            results, quick=args.quick,
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )
        write_bench_json(path, document)
        print(
            f"bench suite          {len(results)} case(s) -> {path} "
            f"(format {document['format']}, mode {document['mode']})"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.bench.diff import (
        DEFAULT_METRIC_TOLERANCE,
        DEFAULT_WALL_TOLERANCE,
        diff_artifacts,
    )

    metric_tol = (
        DEFAULT_METRIC_TOLERANCE if args.metric_tolerance is None
        else args.metric_tolerance
    )
    wall_tol = (
        DEFAULT_WALL_TOLERANCE if args.wall_tolerance is None
        else args.wall_tolerance
    )
    try:
        report = diff_artifacts(
            args.baseline, args.current,
            metric_tolerance=metric_tol,
            wall_tolerance=wall_tol,
            force=args.force,
        )
    except ValueError as exc:
        print(f"repro diff: error: {exc}", file=sys.stderr)
        return 2
    print(report.render(verbose=args.verbose))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        print(f"verdict json         -> {args.json}")
    return report.exit_code


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate SLO objectives against a live run or a recorded trace.

    Exit status: 0 when every objective holds its error budget, 1 when
    any objective is violated (the CI gate), 2 when the trace cannot be
    read or the objectives cannot be parsed.
    """
    import json

    from repro.provenance import run_provenance
    from repro.sim.slo import parse_slo

    if args.preset and args.objective:
        print("repro slo: error: use --preset or -o/--objective, not both",
              file=sys.stderr)
        return 2
    values = [args.preset] if args.preset else (args.objective or ["default"])
    try:
        slo_spec = parse_slo(values)
    except ValueError as exc:
        print(f"repro slo: error: {exc}", file=sys.stderr)
        return 2
    if slo_spec is None or not slo_spec.enabled:
        print("repro slo: error: no objectives to evaluate", file=sys.stderr)
        return 2

    spec = None
    if args.trace_path:
        # Offline: replay a recorded trace through the monitor.
        from repro.sim.slo import evaluate_trace
        from repro.sim.tracing import iter_jsonl

        try:
            results, _emitted = evaluate_trace(iter_jsonl(args.trace_path), slo_spec)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro slo: error: {args.trace_path}: {exc}",
                  file=sys.stderr)
            return 2
        rows = [r.to_json() for r in results]
        breaches = sum(r.breach_count for r in results)
        fired = sum(r.alerts_fired for r in results)
        resolved = sum(r.alerts_resolved for r in results)
        source = str(args.trace_path)
    else:
        # Live: arm the online monitor inside a fresh experiment.  The
        # verdict comes from the monitor itself (exact queue depths),
        # not an offline reconstruction.
        from repro.sim.experiment import ExperimentSpec, run_experiment
        from repro.sim.faults import FAULT_PRESETS

        spec = ExperimentSpec(
            strategy=args.strategy,
            tasks=args.tasks,
            nodes=_default_grid_nodes(),
            arrival_rate_per_s=args.rate,
            area_range=(2_000, 12_000),
            seed=args.seed,
            faults=FAULT_PRESETS[args.faults] if args.faults else None,
            engine=args.engine,
            tenants=args.tenants,
            low_priority_fraction=args.low_priority,
            flash_crowd=args.flash_crowd,
            slo=slo_spec,
        )
        report = run_experiment(spec).report
        rows = [
            {
                "name": o.name,
                "kind": o.kind,
                "target": o.target,
                "window_s": o.window_s,
                "attainment": report.slo_attainment.get(o.name, 1.0),
                "error_budget_remaining":
                    report.slo_error_budget_remaining.get(o.name, 1.0),
                "breach_seconds": report.slo_breach_seconds.get(o.name, 0.0),
                "violated": o.name in report.slo_violated,
            }
            for o in slo_spec.objectives
        ]
        breaches = report.slo_breaches
        fired = report.slo_alerts_fired
        resolved = report.slo_alerts_resolved
        source = f"live run (seed {args.seed}, {args.strategy})"

    violated = [r["name"] for r in rows if r["violated"]]
    width = max(len(r["name"]) for r in rows)
    print(f"SLO evaluation: {source}")
    for r in rows:
        verdict = "VIOLATED" if r["violated"] else "ok"
        print(
            f"  {r['name']:<{width}s}  attainment {r['attainment']:8.2%}"
            f"  budget left {r['error_budget_remaining']:8.2%}"
            f"  breach {r['breach_seconds']:8.2f} s  {verdict}"
        )
    print(
        f"  breaches {breaches}   alerts fired {fired} / resolved {resolved}"
    )
    if args.json:
        metrics = {"violated_objectives": float(len(violated))}
        for r in rows:
            metrics[f"attainment:{r['name']}"] = r["attainment"]
            metrics[f"error_budget_remaining:{r['name']}"] = (
                r["error_budget_remaining"]
            )
            metrics[f"breach_seconds:{r['name']}"] = r["breach_seconds"]
        document = {
            "format": 1,
            "kind": "slo-eval",
            "source": source,
            "objectives": rows,
            "violated": violated,
            "metrics": metrics,
            "provenance": run_provenance(spec),
        }
        Path(args.json).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        print(f"  slo json             -> {args.json}")
    if violated:
        print(
            "repro slo: error: objectives violated: " + ", ".join(violated),
            file=sys.stderr,
        )
        return 1
    return 0


#: Trajectory metrics `repro trend` gates on, by direction.  Metric
#: names are matched by substring; anything else is informational.
_TREND_HIGHER_BETTER = ("attainment", "error_budget", "goodput")
_TREND_LOWER_BETTER = ("violated", "breach", "shed", "failed")


def _cmd_trend(args: argparse.Namespace) -> int:
    """Summarize metric trajectories across committed bench snapshots.

    Reads the ``BENCH_*.json`` files under ``--dir`` in filename
    (timestamp) order and prints the trajectory of every watched
    metric.  Exit status: 0 healthy, 1 the latest snapshot regressed a
    gated metric (attainment/budget fell, breach/violation counts
    rose) versus the previous one, 2 nothing to summarize.
    """
    import json
    import re

    paths = sorted(Path(args.dir).glob("BENCH_*.json"))
    if not paths:
        print(f"repro trend: error: no BENCH_*.json under {args.dir}",
              file=sys.stderr)
        return 2
    suites = []
    for path in paths:
        try:
            suites.append((path.stem, json.loads(path.read_text())))
        except (OSError, ValueError) as exc:
            print(f"repro trend: error: {path}: {exc}", file=sys.stderr)
            return 2

    metric_re = re.compile(args.metric)
    case_re = re.compile(args.case) if args.case else None
    # series[(case, metric)] -> [value-or-None per snapshot]
    series: dict[tuple[str, str], list] = {}
    for i, (_label, suite) in enumerate(suites):
        for case in suite.get("cases", ()):
            name = case.get("name", "?")
            if case_re is not None and not case_re.search(name):
                continue
            for metric, value in sorted(case.get("metrics", {}).items()):
                if not metric_re.search(metric):
                    continue
                row = series.setdefault((name, metric), [None] * len(suites))
                row[i] = value

    if not series:
        print("repro trend: no watched metrics in any snapshot "
              f"(metric regex: {args.metric!r})")
        return 0
    print(f"{len(suites)} snapshots: {suites[0][0]} .. {suites[-1][0]}")
    regressions = []
    for (case, metric), row in sorted(series.items()):
        tail = row[-args.last:] if args.last else row
        shown = " -> ".join("-" if v is None else f"{v:g}" for v in tail)
        flag = ""
        known = [v for v in row if v is not None]
        if len(known) >= 2:
            prev, latest = known[-2], known[-1]
            higher = any(s in metric for s in _TREND_HIGHER_BETTER)
            lower = any(s in metric for s in _TREND_LOWER_BETTER)
            tol = args.tolerance * max(abs(prev), abs(latest))
            if higher and latest < prev - tol:
                flag = "  REGRESSED (fell)"
            elif lower and not higher and latest > prev + tol:
                flag = "  REGRESSED (rose)"
            if flag:
                regressions.append(f"{case}/{metric}: {prev:g} -> {latest:g}")
        print(f"  {case:<18s} {metric:<40s} {shown}{flag}")
    if regressions:
        print(
            "repro trend: error: trajectory regressions:\n  "
            + "\n  ".join(regressions),
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with one sub-command per artifact."""
    from repro.sim.faults import FAULT_PRESETS

    fault_presets = sorted(FAULT_PRESETS)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Virtualization of reconfigurable hardware in distributed systems "
        "(Nadeem, Nadeem & Wong, ICPP 2012) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list modeled FPGA devices")
    p.add_argument("--family", help="filter by device family (e.g. virtex-5)")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("taxonomy", help="print the Figure 1 taxonomy")
    p.set_defaults(func=_cmd_taxonomy)

    p = sub.add_parser("table2", help="regenerate Table II")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("casestudy", help="run the full Section V pipeline")
    p.add_argument("--family-size", type=int, default=12)
    p.add_argument("--length", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_casestudy)

    p = sub.add_parser("simulate", help="run a synthetic DReAMSim experiment")
    p.add_argument("--strategy", default="hybrid-cost")
    p.add_argument("--tasks", type=int, default=200)
    p.add_argument("--gpp-fraction", type=float, default=0.4)
    p.add_argument("--rate", type=float, default=2.0, help="Poisson arrivals/s")
    p.add_argument("--configurations", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=("heap", "calendar"), default="calendar",
                   help="event-queue implementation (identical behavior; "
                        "heap is the reference the tests compare against)")
    p.add_argument("--energy", action="store_true", help="print the energy audit")
    p.add_argument("--replications", type=int, default=1, help="run N seeds and report mean +/- std")
    p.add_argument("--trace", metavar="PATH",
                   help="write a JSONL event trace and validate invariants online")
    p.add_argument("--telemetry", metavar="PATH",
                   help="record sim-time telemetry series to a JSON file "
                        "(render with `repro report`)")
    p.add_argument("--report-json", metavar="PATH",
                   help="write the spec + report + provenance as a JSON "
                        "dump (compare runs with `repro diff`)")
    p.add_argument("--faults", choices=fault_presets, default=None,
                   help="inject a named fault scenario (see repro.sim.faults)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for --replications (default: CPU count)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache replication results keyed by spec hash")
    p.add_argument("--progress", action="store_true",
                   help="print live per-spec progress lines to stderr "
                        "(auto-enabled on a TTY)")
    p.add_argument("--flash-crowd", metavar="START:DURATION:MULT", default=None,
                   help="multiply the arrival rate by MULT inside the window "
                        "[START, START+DURATION) seconds")
    p.add_argument("--low-priority", type=float, default=0.0, metavar="FRAC",
                   help="fraction of tasks tagged low priority (brownout "
                        "degradation / shedding candidates)")
    p.add_argument("--tenants", type=int, default=1, metavar="N",
                   help="cycle tasks over N tenant tags (enables the "
                        "per-tenant report section; default: 1 = untagged)")
    p.add_argument("--slo", action="append", metavar="SPEC", default=None,
                   help="arm the online SLO monitor: a preset name "
                        "(default, strict) or a repeatable objective "
                        "[name=]kind:target[:window][:tenant] -- "
                        "observation-only, event order is unchanged")
    _add_resilience_flags(p)
    _add_admission_flags(p)
    _add_failover_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "analyze",
        help="causal analysis of a trace: phase ledger, tail exemplars, "
             "critical path",
    )
    p.add_argument("traces", nargs="+", metavar="TRACE",
                   help="JSONL event trace(s) written by "
                        "`repro simulate --trace`")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows in the per-task phase table, worst "
                        "turnarounds first (default: 10)")
    p.add_argument("--exemplars", type=int, default=3, metavar="K",
                   help="worst tasks kept per percentile bucket "
                        "(default: 3)")
    p.add_argument("--tenant", default="", metavar="NAME",
                   help="restrict the analysis to tasks tagged with this "
                        "tenant (default: all tasks)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the full analysis as JSON "
                        "(CI artifact format)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "report",
        help="render an HTML dashboard from telemetry (+ optional trace) files",
    )
    p.add_argument("telemetry", metavar="TELEMETRY",
                   help="telemetry JSON written by `repro simulate --telemetry`")
    p.add_argument("trace", nargs="?", metavar="TRACE",
                   help="JSONL event trace written by `--trace` (enables the "
                        "task timeline and --perfetto)")
    p.add_argument("-o", "--output", default="report.html", metavar="PATH",
                   help="output HTML file (default: report.html)")
    p.add_argument("--perfetto", metavar="PATH",
                   help="also export Chrome trace-event JSON for "
                        "chrome://tracing / ui.perfetto.dev")
    p.add_argument("--openmetrics", metavar="PATH",
                   help="also dump instrument end-states in OpenMetrics text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="sweep one experiment knob through the parallel runner")
    p.add_argument("--field", choices=sorted(SWEEPABLE_FIELDS), default="strategy",
                   help="ExperimentSpec field to sweep (default: strategy)")
    p.add_argument("--values", help="comma-separated values (default for strategy: all)")
    p.add_argument("--strategy", default="hybrid-cost", help="base strategy for non-strategy sweeps")
    p.add_argument("--tasks", type=int, default=200)
    p.add_argument("--rate", type=float, default=2.0, help="Poisson arrivals/s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: CPU count; 1 forces serial)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache results keyed by spec hash")
    p.add_argument("--progress", action="store_true",
                   help="print live per-spec progress lines to stderr "
                        "(auto-enabled on a TTY)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("chaos", help="compare strategies under a fault preset")
    p.add_argument("--faults", choices=fault_presets, default="chaos",
                   help="fault preset to inject (default: chaos)")
    p.add_argument("--strategies",
                   help="comma-separated strategy names (default: fcfs,hybrid-cost)")
    p.add_argument("--tasks", type=int, default=200)
    p.add_argument("--rate", type=float, default=2.0, help="Poisson arrivals/s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: CPU count; 1 forces serial)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache results keyed by spec hash")
    p.add_argument("--json", metavar="PATH",
                   help="also write the recovery metrics as JSON")
    p.add_argument("--control-plane", action="store_true",
                   help="control-plane chaos: the 'control-plane' fault "
                        "preset (RMS crashes, gray failures, heartbeat "
                        "loss) with replicated-RMS failover unless "
                        "--failover overrides it")
    p.add_argument("--max-lost", type=int, default=None, metavar="N",
                   help="fail (exit 1) if any run strands more than N "
                        "tasks at the horizon -- the CI smoke assertion")
    _add_resilience_flags(p)
    _add_failover_flags(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "bench",
        help="run registered benchmark cases through the unified harness",
    )
    p.add_argument("--filter", metavar="REGEX",
                   help="only cases whose name or group matches")
    p.add_argument("--repeat", type=int, default=5,
                   help="timed repetitions per case (default: 5)")
    p.add_argument("--warmup", type=int, default=1,
                   help="untimed warmup runs per case (default: 1)")
    p.add_argument("--quick", action="store_true",
                   help="reduced workloads, quick-eligible cases only "
                        "(the CI regression suite)")
    p.add_argument("--json", nargs="?", const="", metavar="PATH",
                   help="write the suite as schema-versioned JSON "
                        "(default path: BENCH_<timestamp>.json)")
    p.add_argument("--list", action="store_true",
                   help="list registered cases and exit")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "diff",
        help="compare two bench/report/telemetry JSON artifacts",
    )
    p.add_argument("baseline", help="baseline artifact (the reference run)")
    p.add_argument("current", help="current artifact (the run under test)")
    p.add_argument("--metric-tolerance", type=float,
                   default=None, metavar="REL",
                   help="two-sided relative tolerance for simulator metrics "
                        "(default: 1e-9; seeded metrics are exact)")
    p.add_argument("--wall-tolerance", type=float, default=None, metavar="REL",
                   help="one-sided relative slowdown tolerance for wall "
                        "times (default: 0.25)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the machine-readable verdict")
    p.add_argument("--force", action="store_true",
                   help="compare even when provenance says the runs are "
                        "not comparable")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="show unchanged keys too, not just changes")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "overload",
        help="flash-crowd overload study: unprotected vs protected, side "
             "by side (conservation verified)",
    )
    p.add_argument("--strategy", default="hybrid-cost")
    p.add_argument("--tasks", type=int, default=400)
    p.add_argument("--rate", type=float, default=8.0,
                   help="base Poisson arrivals/s (default: 8)")
    p.add_argument("--surge", type=float, default=6.0, metavar="MULT",
                   help="surge rate multiplier (default: 6)")
    p.add_argument("--surge-start", type=float, default=5.0, metavar="S",
                   help="surge window start, seconds (default: 5)")
    p.add_argument("--surge-duration", type=float, default=15.0, metavar="S",
                   help="surge window length, seconds (default: 15)")
    p.add_argument("--low-priority", type=float, default=0.3, metavar="FRAC",
                   help="fraction of tasks tagged low priority (default: 0.3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="fail (exit 1) if the protected run's queue depth "
                        "ever exceeds N -- the CI smoke assertion")
    p.add_argument("--json", metavar="PATH",
                   help="also write the comparison as JSON")
    _add_admission_flags(p)
    p.set_defaults(func=_cmd_overload)

    from repro.sim.slo import SLO_PRESETS

    p = sub.add_parser(
        "slo",
        help="evaluate SLO objectives against a live run or a recorded "
             "trace (exit 1 on any violated objective)",
    )
    p.add_argument("trace_path", nargs="?", metavar="TRACE",
                   help="JSONL event trace to replay offline (omit to run "
                        "a live experiment with the monitor armed)")
    p.add_argument("-o", "--objective", action="append", metavar="SPEC",
                   help="objective [name=]kind:target[:window][:tenant] "
                        "with kind latency-pNN | wait-pNN | throughput | "
                        "availability | queue; repeatable "
                        "(default: the 'default' preset)")
    p.add_argument("--preset", choices=sorted(SLO_PRESETS), default=None,
                   help="use a named objective bundle instead of -o")
    p.add_argument("--strategy", default="hybrid-cost")
    p.add_argument("--tasks", type=int, default=200)
    p.add_argument("--rate", type=float, default=2.0, help="Poisson arrivals/s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=("heap", "calendar"), default="calendar",
                   help="event-queue implementation (live mode; "
                        "identical behavior, heap is the reference)")
    p.add_argument("--faults", choices=fault_presets, default=None,
                   help="inject a named fault scenario (live mode)")
    p.add_argument("--tenants", type=int, default=1, metavar="N",
                   help="cycle tasks over N tenant tags (live mode)")
    p.add_argument("--low-priority", type=float, default=0.0, metavar="FRAC")
    p.add_argument("--flash-crowd", metavar="START:DURATION:MULT",
                   default=None,
                   help="surge the arrival rate inside a window (live mode)")
    p.add_argument("--json", metavar="PATH",
                   help="write the evaluation as a provenance-stamped JSON "
                        "artifact (compare runs with `repro diff`)")
    p.set_defaults(func=_cmd_slo)

    p = sub.add_parser(
        "trend",
        help="summarize metric trajectories across committed bench "
             "snapshots; flags attainment regressions",
    )
    p.add_argument("--dir", default="benchmarks/trajectory", metavar="DIR",
                   help="directory of BENCH_*.json snapshots "
                        "(default: benchmarks/trajectory)")
    p.add_argument("--metric",
                   default="attainment|error_budget|violated|breach|goodput",
                   metavar="REGEX",
                   help="metrics to watch (default: SLO attainment / "
                        "error-budget / breach families plus goodput)")
    p.add_argument("--case", default=None, metavar="REGEX",
                   help="only bench cases whose name matches")
    p.add_argument("--last", type=int, default=6, metavar="N",
                   help="show at most the last N snapshots per row "
                        "(default: 6; 0 = all)")
    p.add_argument("--tolerance", type=float, default=0.0, metavar="REL",
                   help="relative slack before a change counts as a "
                        "regression (default: 0 -- seeded runs are exact)")
    p.set_defaults(func=_cmd_trend)

    p = sub.add_parser("clustalw", help="align sequences (FASTA in/out)")
    p.add_argument("--fasta", help="input FASTA (default: synthetic family)")
    p.add_argument("--family-size", type=int, default=8)
    p.add_argument("--length", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tree", choices=["upgma", "nj"], default="upgma")
    p.add_argument("--out", help="write the alignment to this FASTA file")
    p.set_defaults(func=_cmd_clustalw)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Validate strategy names early for a friendly error.
    if getattr(args, "strategy", None) is not None:
        from repro.scheduling import ALL_STRATEGIES

        if args.strategy not in ALL_STRATEGIES:
            parser.error(
                f"unknown strategy {args.strategy!r}; choose from "
                + ", ".join(sorted(ALL_STRATEGIES))
            )
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if getattr(args, "repeat", None) is not None and args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if getattr(args, "warmup", None) is not None and args.warmup < 0:
        parser.error("--warmup must be >= 0")
    for tol_name in ("metric_tolerance", "wall_tolerance"):
        tol = getattr(args, tol_name, None)
        if tol is not None and tol < 0:
            parser.error(f"--{tol_name.replace('_', '-')} must be >= 0")
    # numpy's Generator rejects negative seeds with a raw ValueError
    # deep inside the run; fail at the parser instead.
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    # Likewise the experiment spec and the arrival process.
    if getattr(args, "tasks", None) is not None and args.tasks < 0:
        parser.error("--tasks must be non-negative")
    rate = getattr(args, "rate", None)
    if rate is not None and not (math.isfinite(rate) and rate > 0):
        parser.error(f"--rate must be finite and positive, got {rate:g}")
    if getattr(args, "tenants", None) is not None and args.tenants < 1:
        parser.error("--tenants must be >= 1")
    # The sequence generators and the gates would otherwise fail deep in
    # the run (a traceback) or quietly (a gate that can never pass, a
    # table that silently drops its last row).
    if getattr(args, "family_size", None) is not None and args.family_size < 2:
        parser.error("--family-size must be >= 2")
    if getattr(args, "length", None) is not None and args.length < 1:
        parser.error("--length must be >= 1")
    if getattr(args, "fasta", None) and not Path(args.fasta).is_file():
        parser.error(f"--fasta file does not exist: {args.fasta}")
    for count in ("top", "exemplars", "max_lost", "max_queue"):
        value = getattr(args, count, None)
        if value is not None and value < 0:
            parser.error(f"--{count.replace('_', '-')} must be >= 0")
    if hasattr(args, "breaker"):
        args.resilience = _resilience_from_args(parser, args)
    if hasattr(args, "admission"):
        args.admission = _admission_from_args(parser, args)
    if hasattr(args, "failover"):
        args.failover = _failover_from_args(parser, args)
    if getattr(args, "flash_crowd", None) is not None:
        args.flash_crowd = _parse_flash_crowd(parser, args.flash_crowd)
        _check_spec_fields(parser, "--flash-crowd", flash_crowd=args.flash_crowd)
    if hasattr(args, "surge"):
        _check_spec_fields(
            parser,
            "--surge-start/--surge-duration/--surge",
            flash_crowd=(args.surge_start, args.surge_duration, args.surge),
        )
    if getattr(args, "low_priority", None) is not None:
        _check_spec_fields(
            parser, "--low-priority", low_priority_fraction=args.low_priority
        )
    if getattr(args, "gpp_fraction", None) is not None:
        _check_spec_fields(parser, "--gpp-fraction", gpp_fraction=args.gpp_fraction)
    if getattr(args, "configurations", None) is not None:
        _check_spec_fields(
            parser, "--configurations", configurations=args.configurations
        )
    if getattr(args, "replications", None) is not None and args.replications < 1:
        parser.error("--replications must be >= 1")
    if getattr(args, "slo", None) is not None:
        from repro.sim.slo import parse_slo

        try:
            args.slo = parse_slo(args.slo)
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "trace", None) and args.command != "report":
        parent = Path(args.trace).resolve().parent
        if not parent.is_dir():
            parser.error(f"--trace directory does not exist: {parent}")
    if getattr(args, "telemetry", None) and args.command != "report":
        parent = Path(args.telemetry).resolve().parent
        if not parent.is_dir():
            parser.error(f"--telemetry directory does not exist: {parent}")
    if getattr(args, "cache_dir", None) is not None:
        cache_dir = Path(args.cache_dir)
        if cache_dir.exists() and not cache_dir.is_dir():
            parser.error(f"--cache-dir is not a directory: {cache_dir}")
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro catalog | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
