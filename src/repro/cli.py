"""Command-line interface: the PowerPlay workflows without a browser.

    python -m repro estimate fig3 --vdd 1.1
    python -m repro compare
    python -m repro sweep infopad VDD2 1.1 1.5 2.5
    python -m repro battery --design infopad
    python -m repro characterize adder
    python -m repro sorting -n 512
    python -m repro serve --port 8080 --state ~/.powerplay

Every command writes plain text to stdout (CSV with ``--csv`` where a
table is produced) and exits non-zero on error, so it scripts cleanly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from . import obs
from .core.estimator import compare, evaluate_power, sweep
from .core.report import (
    render_comparison,
    render_coverage,
    render_power,
    render_power_csv,
)
from .core.units import format_quantity
from .designs.infopad import build_infopad
from .designs.luminance import build_figure1_design, build_figure3_design
from .errors import PowerPlayError

DESIGN_BUILDERS: Dict[str, Callable] = {
    "fig1": build_figure1_design,
    "fig3": build_figure3_design,
    "luminance_fig1": build_figure1_design,
    "luminance_fig3": build_figure3_design,
    "infopad": build_infopad,
}


def _build_design(name: str):
    builder = DESIGN_BUILDERS.get(name)
    if builder is None:
        raise PowerPlayError(
            f"unknown design {name!r}; pick from {sorted(set(DESIGN_BUILDERS))}"
        )
    return builder()


def cmd_estimate(args: argparse.Namespace) -> int:
    design = _build_design(args.design)
    overrides = {}
    if args.vdd is not None:
        key = "VDD2" if args.design == "infopad" else "VDD"
        overrides[key] = args.vdd
    report = evaluate_power(design, overrides=overrides or None)
    if args.csv:
        print(render_power_csv(report), end="")
    else:
        print(render_power(report, max_depth=args.depth))
        print()
        print(render_coverage(report, limit=8))
    if args.trace:
        trace = obs.last_trace()
        if trace is not None:
            print()
            print("Evaluation trace:")
            print(obs.render_trace(trace))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json as _json

    design = _build_design(args.design)
    obs.clear_traces()
    for _ in range(max(1, args.repeat)):
        evaluate_power(design)
    profile = obs.aggregate(obs.recent_traces())
    if args.json:
        print(_json.dumps(obs.profile_payload(profile, top=args.top),
                          indent=1, sort_keys=True))
        return 0
    print(f"Profile of evaluate_power({args.design!r}) "
          f"over {max(1, args.repeat)} run(s):")
    print()
    print(obs.render_profile(profile, top=args.top))
    if args.flamegraph:
        print()
        print(obs.render_flamegraph(profile))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    designs = [_build_design(name) for name in args.designs]
    print(render_comparison(compare(designs)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis or args.resume:
        return _cmd_sweep_engine(args)
    if not args.parameter or not args.values:
        raise PowerPlayError(
            "give PARAMETER VALUES... for a quick single-parameter sweep, "
            "or at least one --axis for an engine sweep"
        )
    design = _build_design(args.design)
    results = sweep(design, args.parameter, args.values)
    print(f"{args.parameter},power_w")
    for value, watts in results:
        print(f"{value:g},{watts:.6e}")
    return 0


def _job_store(state: str):
    from .explore import JobStore

    return JobStore(Path(state).expanduser() / "jobs")


def _cmd_sweep_engine(args: argparse.Namespace) -> int:
    """Multi-axis sweep through :mod:`repro.explore` — optionally as a
    persistent, resumable job (``--state``)."""
    from .explore import (
        DerivedObjective,
        ParameterSpace,
        coupled_from_spec,
        parse_axis_spec,
    )
    from .explore.engine import run_job, run_sweep

    def _run(job) -> int:
        """Run the job to a terminal state and print it; --max-chunks
        stops it once that many new chunks are checkpointed."""
        stopper = None
        if args.max_chunks:
            at_start = len(job.chunks)

            def stopper() -> bool:
                return len(job.chunks) - at_start >= args.max_chunks

        run_job(job, should_stop=stopper)
        return _print_job_results(job, args)

    if args.resume:
        if not args.state:
            raise PowerPlayError("--resume needs --state (the job store)")
        store = _job_store(args.state)
        job = store.job(args.resume)
        print(
            f"resuming {job.job_id}: {job.done_points}/{job.total_points} "
            f"points already checkpointed"
        )
        return _run(job)

    design = _build_design(args.design)
    axes = [parse_axis_spec(spec) for spec in args.axis]
    coupled = [coupled_from_spec(spec) for spec in args.couple]
    derived = []
    for spec in args.derive:
        if "=" not in spec:
            raise PowerPlayError(
                f"--derive {spec!r} must look like name=expression"
            )
        name, _, source = spec.partition("=")
        derived.append(DerivedObjective(name.strip(), source.strip()))
    objectives = tuple(
        part.strip() for part in args.objectives.split(",") if part.strip()
    )
    from .explore.space import DEFAULT_POINT_CAP

    cap = DEFAULT_POINT_CAP if args.max_points is None else args.max_points
    space = ParameterSpace(axes, coupled, point_cap=cap)
    print(f"sweep {design.name}: {space!r}")

    if args.state:
        store = _job_store(args.state)
        job = store.create(
            design, space, objectives=objectives, derived=derived,
            owner="cli", workers=args.workers, mode=args.mode,
            chunk_size=args.chunk_size, prune=args.prune,
        )
        print(f"job {job.job_id} created in {store.root}")
        return _run(job)

    outcome = run_sweep(
        design, space, objectives=objectives, derived=derived,
        workers=args.workers, mode=args.mode,
        chunk_size=args.chunk_size, prune=args.prune,
    )
    report = outcome.report
    print(
        f"engine: {report.points} points in {report.chunks} chunks "
        f"({report.columnar} columnar), "
        f"{report.seconds:.3f} s, memo {report.hits} hits / "
        f"{report.misses} misses"
    )
    return _print_outcome(
        outcome.rows, outcome.axis_names, outcome.objective_names,
        report.points, report.errors, args,
    )


def _print_job_results(job, args: argparse.Namespace) -> int:
    summary = job.summary()
    print(
        f"job {summary['job_id']} state={summary['state']} "
        f"points={summary['done']}/{summary['points']} "
        f"mode={job.mode} workers={job.workers}"
    )
    if job.state != "done":
        if job.state == "cancelled":
            print(
                f"resume with: repro sweep {job.design_name} "
                f"--state <state> --resume {job.job_id}"
            )
        elif job.error:
            print(f"error: {job.error}")
        return 1
    return _print_outcome(
        job.result_rows(), job.space.axis_names, job.objective_names,
        job.done_points, job.failed_points, args,
    )


def _print_outcome(rows, axis_names, objective_names, points, failed,
                   args) -> int:
    """Print a sweep's rows (every row, or a pruned sweep's front) over
    ``points`` evaluated points, ``failed`` of which failed."""
    from .explore import export_csv, export_json, pareto_rows, sensitivity_ranking

    if failed:
        print(f"warning: {failed} point(s) failed to evaluate")
    primary = objective_names[0] if objective_names else "power"
    if len(objective_names) >= 2:
        front = pareto_rows(rows, objective_names)
        print(f"pareto front over ({', '.join(objective_names)}): "
              f"{len(front)} of {points} points")
        header = ["index"] + axis_names + objective_names
        print("  " + "  ".join(header))
        for row in front:
            cells = [str(row["index"])]
            cells += [f"{row['values'][n]:g}" for n in axis_names]
            cells += [f"{row['objectives'][n]:.4e}" for n in objective_names]
            print("  " + "  ".join(cells))
    else:
        best = sorted(
            (row for row in rows if not row["error"]),
            key=lambda row: row["objectives"][primary],
        )[:5]
        print(f"cheapest points by {primary}:")
        for row in best:
            values = ", ".join(
                f"{n}={row['values'][n]:g}" for n in axis_names
            )
            print(f"  [{row['index']}] {values}: "
                  f"{row['objectives'][primary]:.4e}")
    ranking = sensitivity_ranking(rows, axis_names, primary)
    if ranking:
        print(f"sensitivity of {primary} (mean spread per axis):")
        for entry in ranking:
            print(f"  {entry['axis']:16s} {entry['spread']:.4e} "
                  f"({entry['relative']:.1%} of mean)")
    if args.csv_out:
        Path(args.csv_out).write_text(
            export_csv(rows, axis_names, objective_names)
        )
        print(f"full results (CSV) written to {args.csv_out}")
    if args.json_out:
        Path(args.json_out).write_text(
            export_json(rows, axis_names, objective_names)
        )
        print(f"full results (JSON) written to {args.json_out}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    store = _job_store(args.state)
    if args.cancel:
        job = store.job(args.cancel)
        job.request_cancel()
        print(f"cancel requested for {job.job_id} (state={job.state})")
        return 0
    jobs = store.list_jobs()
    if not jobs:
        print(f"no jobs in {store.root}")
        return 0
    print("job        state      points       design     owner  objectives")
    for job in jobs:
        summary = job.summary()
        progress = f"{summary['done']}/{summary['points']}"
        print(
            f"{summary['job_id']:10s} {summary['state']:10s} "
            f"{progress:>11s}  {summary['design']:10s} "
            f"{summary['owner']:6s} {summary['objectives']}"
        )
        if summary["error"]:
            print(f"           error: {summary['error']}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from .core.model import VoltageScaledTimingModel
    from .core.optimize import optimize_voltage

    design = _build_design(args.design)
    if args.design == "infopad":
        supply = "VDD2"
        chip = design.row("custom_hardware").design
        default_frequency = (
            chip.row("luminance_chip").design.scope["f_pixel"] / 4
        )
    else:
        supply = "VDD"
        default_frequency = design.scope["f_pixel"] / 4
    frequency = args.frequency or default_frequency
    timing = VoltageScaledTimingModel(
        "critical_path", args.delay_ref, v_ref=args.v_ref
    )
    result = optimize_voltage(
        design, timing, frequency=frequency,
        v_low=args.v_low, v_high=args.v_high, supply=supply,
    )
    print(f"{args.design}: optimizing {supply} for "
          f"{format_quantity(frequency, 'Hz')} "
          f"(critical path {format_quantity(args.delay_ref, 's')} "
          f"@ {args.v_ref:g} V)")
    print(f"  minimum feasible {supply}: {result.vdd:.3f} V "
          f"(nominal {result.nominal_vdd:g} V)")
    print(f"  power at optimum:  {format_quantity(result.power, 'W')}")
    print(f"  power at nominal:  {format_quantity(result.nominal_power, 'W')}")
    print(f"  saving: {result.saving:.1%}")
    return 0


def cmd_battery(args: argparse.Namespace) -> int:
    from .models.battery import NICD_6V, NIMH_6V, battery_life

    design = _build_design(args.design)
    watts = evaluate_power(design).power
    print(f"{args.design}: {format_quantity(watts, 'W')} system input power")
    for pack in (NIMH_6V, NICD_6V):
        hours = battery_life(watts, pack)
        print(
            f"  {pack.name:10s} {pack.voltage:.0f} V / {pack.capacity_ah:.1f} Ah"
            f" -> {hours:5.2f} h"
        )
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from .library.characterize import (
        characterize_adder,
        characterize_memory,
        characterize_multiplier,
    )

    if args.cell == "adder":
        _model, fit = characterize_adder(cycles=args.cycles)
    elif args.cell == "memory":
        _model, fit = characterize_memory(cycles=args.cycles)
    else:
        _model, fit = characterize_multiplier(cycles=args.cycles)
    print(f"model form: {fit.model_form}")
    for name, value in fit.coefficients.items():
        print(f"  {name} = {format_quantity(value, 'F')}")
    print(f"R^2 = {fit.r_squared:.5f}; "
          f"max relative error = {fit.max_relative_error:.2%}; "
          f"within octave: {fit.within_octave}")
    return 0


def cmd_sorting(args: argparse.Namespace) -> int:
    from .models.processor import algorithm_energy
    from .sim.sorting import ALGORITHMS, profile_sort, random_data

    data = random_data(args.count, seed=args.seed)
    rows = []
    for algorithm in sorted(ALGORITHMS):
        _out, profile = profile_sort(algorithm, data)
        rows.append((algorithm, profile.total_instructions,
                     algorithm_energy(profile)))
    rows.sort(key=lambda row: row[2])
    best = rows[0][2]
    print(f"n = {args.count}")
    for algorithm, instructions, energy in rows:
        print(f"  {algorithm:10s} {instructions:>9} instrs "
              f"{energy * 1e6:>10.2f} uJ  ({energy / best:5.1f}x)")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import tempfile

    from .loadgen import (
        HttpTarget,
        InProcessTarget,
        generate_workload,
        replay_serial,
        run_script,
        summarize_latencies,
        verify,
    )
    from .loadgen.stats import histogram_summary
    from .web.app import Application

    script = generate_workload(args.seed, users=args.users, ops=args.ops)
    if args.script_out:
        Path(args.script_out).write_text(script.to_json())
        print(f"workload script written to {args.script_out}")
    mode = "http" if args.http else "in-process"
    print(
        f"workload: seed={args.seed} users={args.users} "
        f"ops={len(script)} threads={args.threads} target={mode}"
    )

    with tempfile.TemporaryDirectory(prefix="powerplay-loadgen-") as tmp:
        root = Path(tmp)
        if args.http:
            from .web.server import PowerPlayServer

            with PowerPlayServer(root / "state") as server:
                application = server.application
                result = run_script(
                    script, HttpTarget(server.base_url), threads=args.threads
                )
        else:
            application = Application(root / "state")
            result = run_script(
                script, InProcessTarget(application), threads=args.threads
            )
        serial_app, serial_result = replay_serial(script, root / "serial")
        report = verify(script, application, serial_app)

    print(
        f"run: {len(result.results)} ops in {result.wall_seconds:.3f} s "
        f"on {result.threads} thread(s) -> {result.throughput:.1f} ops/s"
    )
    classes = result.status_classes()
    print("status: " + " ".join(
        f"{key}={classes[key]}" for key in sorted(classes)
    ))
    latency = summarize_latencies(result.latencies)
    print(
        "latency (driver):  "
        f"p50={latency['p50'] * 1e3:.2f} ms  "
        f"p95={latency['p95'] * 1e3:.2f} ms  "
        f"p99={latency['p99'] * 1e3:.2f} ms  "
        f"max={latency['max'] * 1e3:.2f} ms"
    )
    histogram = application.registry.get("powerplay_http_request_seconds")
    if histogram is not None:
        estimate = histogram_summary(histogram)
        print(
            "latency (server histogram estimate):  "
            + "  ".join(
                f"{key}={value * 1e3:.2f} ms"
                for key, value in estimate.items()
            )
        )
    cache = application.eval_cache.stats()
    lookups = cache["hits"] + cache["misses"]
    rate = cache["hits"] / lookups if lookups else 0.0
    print(
        f"eval cache: hits={cache['hits']} misses={cache['misses']} "
        f"evictions={cache['evictions']} hit_rate={rate:.1%}"
    )
    print(report.summary())

    failed = False
    if result.server_errors:
        failed = True
        print(f"FAIL: {len(result.server_errors)} server errors (5xx/exception)")
        for bad in result.server_errors[:5]:
            print(f"  op {bad.index} {bad.user} {bad.kind}: "
                  f"status {bad.status} {bad.error}")
    if serial_result.server_errors:
        failed = True
        print(
            f"FAIL: serial replay hit "
            f"{len(serial_result.server_errors)} server errors"
        )
    if not report.matches:
        failed = True
        print("FAIL: concurrent end state diverged from serial replay:")
        for difference in report.differences:
            print(f"  {difference}")
    return 1 if failed else 0


def _open_registry(args: argparse.Namespace):
    from .registry import MirrorStore, ModelRegistry

    state = Path(args.state).expanduser()
    store = MirrorStore(state / "registry")
    return ModelRegistry(store, publisher=args.publisher)


def cmd_registry_list(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    rows = registry.catalog()
    if not rows:
        print("(mirror is empty)")
        return 0
    print(f"{'REF':36} {'PUBLISHER':16} {'DIGEST':14} AGE")
    corrupt = 0
    for row in rows:
        ref = f"{row['kind']}:{row['name']}@v{row['version']}"
        if row.get("corrupt"):
            corrupt += 1
            print(f"{ref:36} {'-':16} {'CORRUPT':14} -")
            continue
        pin = " [pinned]" if row.get("pinned") else ""
        print(
            f"{ref:36} {row['publisher']:16} "
            f"{row['digest'][:12]:14} {row['age_s']:.0f}s{pin}"
        )
    return 1 if corrupt else 0


def cmd_registry_publish(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    if args.design:
        artifact = registry.publish_design(_build_design(args.design))
    else:
        from .designs.macros import build_macro_library
        from .library.cells import build_default_library
        from .library.datasheet import build_system_library

        entry = None
        for library in (
            build_default_library(),
            build_system_library(),
            build_macro_library(),
        ):
            if args.entry in library:
                entry = library.get(args.entry)
                break
        if entry is None:
            raise PowerPlayError(f"no shared library entry {args.entry!r}")
        artifact = registry.publish_entry(entry)
    print(f"published {artifact.ref} digest {artifact.digest}")
    return 0


def cmd_registry_sync(args: argparse.Namespace) -> int:
    from .registry import RegistrySyncClient, sync_from

    registry = _open_registry(args)
    report = sync_from(registry, RegistrySyncClient(args.peer))
    summary = report.summary()
    print(
        f"sync from {args.peer}: "
        + " ".join(f"{key}={summary[key]}" for key in sorted(summary))
    )
    for ref, reason in sorted(report.integrity_rejected.items()):
        print(f"  REJECTED {ref}: {reason}")
    for ref, reason in sorted(report.conflicts.items()):
        print(f"  CONFLICT {ref}: {reason}")
    for ref, reason in sorted(report.failed.items()):
        print(f"  FAILED {ref}: {reason}")
    return 0 if report.complete else 1


def cmd_registry_verify(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    result = registry.verify_all()
    for ref in result["ok"]:
        print(f"ok      {ref}")
    for ref in result["corrupt"]:
        print(f"CORRUPT {ref} (quarantined)")
    print(
        f"verified {len(result['ok'])} artifact(s), "
        f"{len(result['corrupt'])} quarantined"
    )
    return 1 if result["corrupt"] else 0


def cmd_registry_pin(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    registry.store.pin(args.kind, args.name, args.version)
    print(f"pinned {args.kind}:{args.name}@v{args.version}")
    return 0


def cmd_registry_unpin(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    registry.store.unpin(args.kind, args.name)
    print(f"unpinned {args.kind}:{args.name}")
    return 0


def cmd_registry_gc(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    evicted = registry.store.gc(args.max_artifacts)
    for ref in evicted:
        print(f"evicted {ref}")
    print(f"gc: {len(evicted)} evicted, {len(registry.store)} kept")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .web.server import PowerPlayServer

    state = Path(args.state).expanduser()
    # validate peers before binding the socket: a typo'd --peer must
    # fail the command, not trip the scrape breaker mid-soak
    peers = [_parse_peer(spec) for spec in args.peer]
    if args.workers > 1:
        return _serve_multiworker(args, state)
    server = PowerPlayServer(state, host=args.host, port=args.port,
                             server_name=args.name,
                             backend=args.backend,
                             telemetry_tick_s=args.telemetry_tick)
    if args.access_log:
        # size-bounded rotating access log — a soak cannot fill the disk
        sink = obs.RotatingFileSink(
            Path(args.access_log).expanduser(),
            max_bytes=args.access_log_bytes,
            keep=args.access_log_keep,
        )
        obs.enable(level=obs.parse_level(args.log_level or "info"),
                   json_logs=args.log_json, sink=sink)
    if peers:
        server.application.configure_fleet(peers)
        print(f"fleet peers: {', '.join(url for _, url in peers)}")
    if args.history_dir:
        history_dir = Path(args.history_dir).expanduser()
        server.application.attach_history(
            history_dir, interval_s=args.history_interval
        )
        stats = server.application.history.stats()
        segments = sum(stats["segments"].values())
        print(f"telemetry history in {history_dir} "
              f"(every {args.history_interval:g}s, "
              f"{segments} segment(s) on disk)")
    print(f"PowerPlay serving at {server.base_url} (state in {state})")
    print("Ctrl-C to stop.")
    import time as _time

    server.start()
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


def _serve_multiworker(args: argparse.Namespace, state: Path) -> int:
    """``serve --workers N`` — the pre-fork sharded front."""
    from .web.prefork import MultiWorkerFront

    front = MultiWorkerFront(
        state,
        workers=args.workers,
        backend=args.backend,
        host=args.host,
        port=args.port,
        server_name=args.name,
    )
    front.start()
    front.install_signal_handlers()
    print(f"PowerPlay serving at {front.base_url} "
          f"({args.workers} workers, {args.backend} backend, "
          f"state in {state})")
    print("worker /metrics for fleet scraping: "
          + ", ".join(url for _, url in front.internal_peers()))
    print("Ctrl-C to stop.")
    import time as _time

    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        front.stop()
    return 0


def cmd_serve_worker(args: argparse.Namespace) -> int:
    """Hidden: one pre-fork worker (spawned by ``serve --workers``)."""
    from .web.prefork import worker_main

    return worker_main(
        Path(args.state).expanduser(),
        host=args.host,
        port=args.port,
        index=args.index,
        workers=args.workers,
        backend=args.backend,
        server_name=args.name,
    )


def _parse_peer(spec: str) -> tuple:
    """``name=http://host:port`` or a bare URL (name derived).

    The URL is validated here, at parse time, so a typo like
    ``--peer localhost:9090`` (no scheme) fails the command with a clear
    message instead of tripping the scrape breaker on first use.
    """
    from .obs.fleet import validate_peer_url

    if "=" in spec.split("://", 1)[0]:
        name, url = spec.split("=", 1)
        if not name:
            raise PowerPlayError(f"peer {spec!r}: empty name before '='")
    else:
        url = spec
        name = None
    try:
        url = validate_peer_url(url)
    except ValueError as exc:
        raise PowerPlayError(f"peer {spec!r}: {exc}") from exc
    if name is None:
        name = url.split("://", 1)[-1].replace(":", "-").replace("/", "-")
    return name, url


def cmd_fleet(args: argparse.Namespace) -> int:
    """Scrape a set of PowerPlay servers and print fleet state."""
    from .obs.fleet import FleetScraper

    peers = [_parse_peer(spec) for spec in args.peers]
    scraper = FleetScraper(peers, timeout=args.timeout)
    report = scraper.scrape()
    if args.json:
        print(report.to_json())
        return 0 if report.reachable == len(report.nodes) else 1
    print(f"fleet: {report.reachable}/{len(report.nodes)} reachable, "
          f"worst SLO state {report.fleet_state!r} "
          f"(scraped in {report.duration_s * 1e3:.1f} ms)")
    header = f"{'node':16} {'scrape':8} {'health':12} {'slo':6} " \
             f"{'breaker':9} {'requests':>9}"
    print(header)
    print("-" * len(header))
    for node in report.nodes:
        print(f"{node.name:16} {'up' if node.ok else 'down':8} "
              f"{node.health_state:12} {node.slo_state:6} "
              f"{node.breaker_state:9} {int(node.requests_total()):>9}"
              + (f"  {node.error}" if node.error else ""))
    quantiles = report.latency_quantiles()
    quantile_text = "  ".join(
        f"{name}={value * 1e3:.2f}ms" if value else f"{name}=—"
        for name, value in quantiles.items()
    )
    print(f"aggregate: {int(report.aggregate_requests_total())} requests, "
          f"{quantile_text}")
    if report.skipped:
        print("skipped (unmergeable): " + ", ".join(report.skipped))
    return 0 if report.reachable == len(report.nodes) else 1


def cmd_flight(args: argparse.Namespace) -> int:
    """Inspect flight-recorder snapshots (offline) or a live server."""
    import json as _json

    if args.limit < 1:
        raise PowerPlayError("--limit must be at least 1")
    if args.url:
        from .web.client import Browser

        payload = Browser(args.url).get_json("/debug/flight?fmt=json")
        if args.action == "dump":
            print(_json.dumps(payload, indent=1, sort_keys=True))
            return 0
        records = payload.get("records", [])
        print(f"live ring on {payload.get('server', args.url)!r}: "
              f"{payload.get('recorded_total', 0)} recorded, "
              f"{len(records)} in ring")
        _print_flight_records(records[-args.limit:])
        return 0

    from .obs.recorder import load_snapshots

    flight_dir = Path(args.state).expanduser() / "flight"
    snapshots = load_snapshots(flight_dir)
    if args.action == "dump":
        print(_json.dumps(
            [
                {
                    "file": snap.path.name,
                    "reason": snap.reason,
                    "trigger": snap.trigger,
                    "written_at": snap.written_at,
                    "slo": snap.slo,
                    "records": snap.records,
                }
                for snap in snapshots
            ],
            indent=1, sort_keys=True,
        ))
        return 0
    if not snapshots:
        print(f"no flight snapshots under {flight_dir}")
        return 1
    for snap in snapshots:
        print(f"{snap.path.name}: {snap.trigger} — {snap.reason} "
              f"({len(snap.records)} records)")
    latest = snapshots[-1]
    print(f"\nlatest snapshot {latest.path.name!r}:")
    _print_flight_records(latest.records[-args.limit:])
    return 0


def _print_flight_records(records) -> None:
    header = f"{'seq':>6} {'route':24} {'meth':5} {'status':6} " \
             f"{'ms':>9}  {'trace':34} alerts"
    print(header)
    print("-" * len(header))
    for record in records:
        print(f"{record.get('seq', 0):>6} {record.get('route', ''):24} "
              f"{record.get('method', ''):5} {record.get('status', 0):6} "
              f"{record.get('duration_ms', 0.0):>9.2f}  "
              f"{record.get('trace_id', ''):34} "
              f"{','.join(record.get('alerts', []))}")


def _open_history(args: argparse.Namespace):
    """Open a history store read-only-ish from ``--dir`` for offline use."""
    from .obs.history import HistoryConfig, HistoryStore

    root = Path(args.dir).expanduser()
    if not root.exists():
        raise PowerPlayError(f"no history store at {root}")
    return HistoryStore(root, HistoryConfig(fsync_journal=False))


def _history_labels(specs) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    for spec in specs or ():
        if "=" not in spec:
            raise PowerPlayError(
                f"label {spec!r} must look like name=value"
            )
        key, value = spec.split("=", 1)
        labels[key] = value
    return labels


def cmd_history(args: argparse.Namespace) -> int:
    """Inspect an on-disk telemetry history store."""
    import json as _json

    from .obs.history import HistoryError, render_sparkline

    store = _open_history(args)
    try:
        if args.action == "info":
            stats = store.stats()
            if args.json:
                print(_json.dumps(stats, indent=1, sort_keys=True))
                return 0
            segments = stats["segments"]
            print(f"history store {stats['root']}")
            print(f"  segments: raw={segments['raw']} m1={segments['m1']} "
                  f"m15={segments['m15']} "
                  f"(+{stats['active_rounds']} journal round(s))")
            print(f"  on disk:  {stats['bytes']} bytes")
            print(f"  span:     {stats['oldest']} .. {stats['newest']}")
            for name, reason in stats["quarantined"]:
                print(f"  QUARANTINED {name}: {reason}")
            families = store.families()
            print(f"  families: {len(families)}")
            for name in sorted(families):
                print(f"    {name} ({families[name]})")
            return 1 if stats["quarantined"] else 0

        if args.action == "compact":
            done = store.compact()
            print(f"compacted: m1={done['m1']} m15={done['m15']} "
                  f"expired={done['expired']}")
            return 0

        # query
        try:
            result = store.query(
                args.name,
                labels=_history_labels(args.label),
                op=args.op,
                since=args.since,
                until=args.until,
                q=args.q,
            )
        except HistoryError as exc:
            raise PowerPlayError(str(exc)) from exc
        if args.json:
            print(result.to_json())
            return 0
        payload = result.payload()
        print(f"{args.op} {args.name} — {len(payload['series'])} series")
        for entry in payload["series"]:
            points = entry["points"]
            values = [value for _, value in points if value is not None]
            spark = render_sparkline(values, width=32)
            latest = f"{values[-1]:g}" if values else "—"
            print(f"  {entry['key']}")
            print(f"    {len(points):>4} pts  latest={latest:>12}  {spark}")
        return 0
    finally:
        store.close()


def cmd_capacity(args: argparse.Namespace) -> int:
    """Fit throughput/latency trends and project worker needs."""
    from .obs.capacity import build_capacity_report

    store = _open_history(args)
    try:
        report = build_capacity_report(
            store,
            since=args.since,
            until=args.until,
            horizon_s=args.horizon_hours * 3600.0,
            threads_per_worker=args.threads_per_worker,
            utilization=args.utilization,
            quantile=args.quantile,
        )
    except ValueError as exc:
        raise PowerPlayError(str(exc)) from None
    finally:
        store.close()
    if args.json:
        print(report.to_json())
        return 0
    print(report.render_text())
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Normalize bench artifacts, print the trajectory, gate regressions."""
    import importlib.util

    bench_dir = Path(args.bench_dir).expanduser()
    module_path = bench_dir / "trajectory.py"
    if not module_path.is_file():
        print(f"error: {module_path} not found "
              "(point --bench-dir at the benchmarks directory)",
              file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location(
        "powerplay_trajectory", module_path
    )
    assert spec is not None and spec.loader is not None
    trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajectory)
    baseline = (Path(args.baseline).expanduser() if args.baseline
                else bench_dir / trajectory.BASELINE_NAME)
    return trajectory.report(
        bench_dir=bench_dir,
        baseline_path=baseline,
        threshold=args.threshold,
        write=args.write,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PowerPlay — early power exploration (DAC 1996 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(obs.config.LEVELS_BY_NAME),
        default=None,
        help="enable structured observability logging at this level "
        "(key=value lines on stderr; give before the subcommand)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON objects instead of key=value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="evaluate a built-in design")
    estimate.add_argument("design", choices=sorted(set(DESIGN_BUILDERS)))
    estimate.add_argument("--vdd", type=float, default=None,
                          help="override the (custom) supply voltage")
    estimate.add_argument("--depth", type=int, default=None,
                          help="limit hierarchy depth in the table")
    estimate.add_argument("--csv", action="store_true",
                          help="flat CSV instead of the table")
    estimate.add_argument("--trace", action="store_true",
                          help="print the span timing tree of the "
                          "evaluation (enables tracing)")
    estimate.set_defaults(func=cmd_estimate)

    profiler = sub.add_parser(
        "profile", help="span-based hot-path profile of a design evaluation"
    )
    profiler.add_argument("design", choices=sorted(set(DESIGN_BUILDERS)))
    profiler.add_argument("--repeat", type=int, default=5,
                          help="evaluations to aggregate (default 5)")
    profiler.add_argument("--top", type=int, default=10,
                          help="hot paths to list (default 10)")
    profiler.add_argument("--flamegraph", action="store_true",
                          help="append the text flamegraph")
    profiler.add_argument("--json", action="store_true",
                          help="emit the profile as JSON instead of text")
    # tracing must be on for spans to be recorded at all
    profiler.set_defaults(func=cmd_profile, trace=True)

    comparison = sub.add_parser("compare", help="compare designs side by side")
    comparison.add_argument("designs", nargs="*", default=["fig1", "fig3"])
    comparison.set_defaults(func=cmd_compare)

    sweeper = sub.add_parser(
        "sweep",
        help="sweep parameters: quick single-parameter form "
        "(PARAMETER VALUES...) or the multi-axis exploration engine "
        "(--axis ...)",
    )
    sweeper.add_argument("design", choices=sorted(set(DESIGN_BUILDERS)))
    sweeper.add_argument("parameter", nargs="?", default=None)
    sweeper.add_argument("values", nargs="*", type=float)
    sweeper.add_argument(
        "--axis", action="append", default=[], metavar="SPEC",
        help="swept axis: name=start:stop:step, name=v1,v2,..., "
        "name=log:start:stop:count; name@dotted.target=... writes a "
        "row-local parameter (repeatable)",
    )
    sweeper.add_argument(
        "--couple", action="append", default=[], metavar="TARGET=EXPR",
        help="drive another parameter from the axis values (repeatable)",
    )
    sweeper.add_argument(
        "--derive", action="append", default=[], metavar="NAME=EXPR",
        help="derived objective over axis values and built-in "
        "objectives (repeatable)",
    )
    sweeper.add_argument(
        "--objectives", default="power",
        help="comma-separated built-in objectives: power, area, delay "
        "(default power)",
    )
    sweeper.add_argument("--workers", type=int, default=1,
                         help="worker processes for process mode (capped "
                         "at the CPU count)")
    sweeper.add_argument("--mode", choices=["serial", "process"],
                         default="serial", help="engine mode (default serial)")
    sweeper.add_argument("--chunk-size", type=int, default=64,
                         help="points per chunk / checkpoint granule")
    sweeper.add_argument("--max-points", "--point-cap", dest="max_points",
                         type=int, default=None,
                         help="refuse spaces larger than this many points "
                         "(default 100000, absolute ceiling 16777216; "
                         "past 1000000 points a sweep must --prune)")
    sweeper.add_argument("--prune", action="store_true",
                         help="keep only Pareto-optimal rows in the output "
                         "(and in memory: any space up to the ceiling)")
    sweeper.add_argument("--state", default=None,
                         help="persist the sweep as a resumable job under "
                         "STATE/jobs")
    sweeper.add_argument("--resume", default=None, metavar="JOB_ID",
                         help="resume a checkpointed job (needs --state)")
    sweeper.add_argument("--max-chunks", type=int, default=0,
                         help="stop after N chunks (testing/CI; the job "
                         "stays resumable)")
    sweeper.add_argument("--csv-out", default=None,
                         help="write the full result rows as CSV here")
    sweeper.add_argument("--json-out", default=None,
                         help="write the full result rows as JSON here")
    sweeper.set_defaults(func=cmd_sweep)

    jobs = sub.add_parser("jobs", help="list or cancel persisted sweep jobs")
    jobs.add_argument("--state", required=True,
                      help="server/CLI state directory (jobs live under "
                      "STATE/jobs)")
    jobs.add_argument("--cancel", default=None, metavar="JOB_ID",
                      help="request cancellation of a job")
    jobs.set_defaults(func=cmd_jobs)

    optimizer = sub.add_parser(
        "optimize",
        help="minimum-power supply voltage meeting a timing constraint",
    )
    optimizer.add_argument("design", choices=sorted(set(DESIGN_BUILDERS)))
    optimizer.add_argument("--frequency", type=float, default=None,
                           help="required operating frequency in Hz "
                           "(default: the design's pixel rate / 4)")
    optimizer.add_argument("--delay-ref", type=float, default=500e-9,
                           help="critical-path delay at v-ref, seconds "
                           "(default 500 ns)")
    optimizer.add_argument("--v-ref", type=float, default=1.5,
                           help="reference voltage of the delay model")
    optimizer.add_argument("--v-low", type=float, default=0.8)
    optimizer.add_argument("--v-high", type=float, default=5.0)
    optimizer.set_defaults(func=cmd_optimize)

    battery = sub.add_parser("battery", help="battery life at the design's draw")
    battery.add_argument("--design", default="infopad",
                         choices=sorted(set(DESIGN_BUILDERS)))
    battery.set_defaults(func=cmd_battery)

    characterize = sub.add_parser(
        "characterize", help="run the Landman characterization flow"
    )
    characterize.add_argument("cell", choices=["adder", "memory", "multiplier"])
    characterize.add_argument("--cycles", type=int, default=200)
    characterize.set_defaults(func=cmd_characterize)

    sorting = sub.add_parser("sorting", help="EQ 12 sorting-energy study")
    sorting.add_argument("-n", "--count", type=int, default=256)
    sorting.add_argument("--seed", type=int, default=13)
    sorting.set_defaults(func=cmd_sorting)

    loadgen = sub.add_parser(
        "loadgen",
        help="deterministic multi-user load test with serial-replay oracle",
    )
    loadgen.add_argument("--seed", type=int, default=1996,
                         help="workload seed (same seed -> same script)")
    loadgen.add_argument("--users", type=int, default=4,
                         help="simulated users (default 4)")
    loadgen.add_argument("--ops", type=int, default=200,
                         help="total operations across users (default 200)")
    loadgen.add_argument("--threads", type=int, default=4,
                         help="driver threads (default 4)")
    loadgen.add_argument("--http", action="store_true",
                         help="drive a live HTTP server instead of the "
                         "in-process application")
    loadgen.add_argument("--script-out", default=None,
                         help="also write the generated workload JSON here")
    loadgen.set_defaults(func=cmd_loadgen)

    registry = sub.add_parser(
        "registry",
        help="inspect and operate the federated model registry mirror",
    )
    registry.add_argument("--state", default="~/.powerplay",
                          help="server state directory (same as `serve`)")
    registry.add_argument("--publisher", default="cli",
                          help="publisher name stamped on new artifacts")
    raction = registry.add_subparsers(dest="action", required=True)

    rlist = raction.add_parser("list", help="list mirrored artifacts")
    rlist.set_defaults(func=cmd_registry_list)

    rpublish = raction.add_parser(
        "publish", help="publish a shared entry or a built-in design"
    )
    group = rpublish.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", help="shared library entry name")
    group.add_argument("--design", choices=sorted(set(DESIGN_BUILDERS)),
                       help="built-in design to publish whole")
    rpublish.set_defaults(func=cmd_registry_publish)

    rsync = raction.add_parser(
        "sync", help="mirror everything a peer server publishes"
    )
    rsync.add_argument("peer", help="peer base URL, e.g. http://host:8080")
    rsync.set_defaults(func=cmd_registry_sync)

    rverify = raction.add_parser(
        "verify", help="re-verify every mirrored artifact's digest"
    )
    rverify.set_defaults(func=cmd_registry_verify)

    rpin = raction.add_parser("pin", help="protect one version from gc")
    rpin.add_argument("kind", choices=("entry", "design"))
    rpin.add_argument("name")
    rpin.add_argument("version", type=int)
    rpin.set_defaults(func=cmd_registry_pin)

    runpin = raction.add_parser("unpin", help="remove a pin")
    runpin.add_argument("kind", choices=("entry", "design"))
    runpin.add_argument("name")
    runpin.set_defaults(func=cmd_registry_unpin)

    rgc = raction.add_parser(
        "gc", help="evict oldest unpinned, non-latest versions over the bound"
    )
    rgc.add_argument("--max-artifacts", type=int, default=None,
                     help="override the store's size bound for this pass")
    rgc.set_defaults(func=cmd_registry_gc)

    serve = sub.add_parser("serve", help="run the PowerPlay web server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--state", default="~/.powerplay")
    serve.add_argument("--name", default="powerplay")
    serve.add_argument("--peer", action="append", default=[],
                       metavar="NAME=URL",
                       help="fleet peer to scrape on /fleet "
                       "(repeatable; bare URLs get a derived name)")
    serve.add_argument("--telemetry-tick", type=float, default=5.0,
                       metavar="SECONDS",
                       help="background SLO evaluation interval so alerts "
                       "clear during zero traffic (0 disables; default 5)")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="write structured logs to a size-bounded "
                       "rotating file instead of stderr")
    serve.add_argument("--access-log-bytes", type=int, default=1 << 20,
                       help="rotate the access log beyond this size "
                       "(default 1 MiB)")
    serve.add_argument("--access-log-keep", type=int, default=3,
                       help="rotated access-log files to keep (default 3)")
    serve.add_argument("--history-dir", default=None, metavar="PATH",
                       help="record telemetry history into this directory "
                       "(crash-safe segments; enables /history)")
    serve.add_argument("--history-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="history sampling interval (default 5)")
    serve.add_argument("--workers", type=int, default=1,
                       help="pre-fork worker processes sharing the port "
                       "with user-keyed sharding (default 1: in-process "
                       "threading only)")
    serve.add_argument("--backend", default="file",
                       choices=("file", "sqlite"),
                       help="durable state backend (default file: one "
                       "JSON document per user/job/artifact; sqlite: one "
                       "WAL-mode database)")
    serve.set_defaults(func=cmd_serve)

    # hidden plumbing: one pre-fork worker, spawned by `serve --workers`
    worker = sub.add_parser("serve-worker")
    worker.add_argument("--state", required=True)
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, required=True)
    worker.add_argument("--index", type=int, required=True)
    worker.add_argument("--workers", type=int, required=True)
    worker.add_argument("--backend", default="file")
    worker.add_argument("--name", default="powerplay")
    worker.set_defaults(func=cmd_serve_worker)

    fleet = sub.add_parser(
        "fleet",
        help="scrape a set of PowerPlay servers and print fleet SLO state",
    )
    fleet.add_argument("peers", nargs="+", metavar="NAME=URL",
                       help="servers to scrape (bare URLs get derived names)")
    fleet.add_argument("--timeout", type=float, default=5.0,
                       help="per-peer scrape timeout, seconds (default 5)")
    fleet.add_argument("--json", action="store_true",
                       help="print the deterministic aggregate JSON")
    fleet.set_defaults(func=cmd_fleet)

    flight = sub.add_parser(
        "flight", help="inspect flight-recorder rings and snapshots"
    )
    flight.add_argument("--state", default="~/.powerplay",
                        help="server state directory (snapshots live under "
                        "STATE/flight)")
    flight.add_argument("--url", default=None,
                        help="read the live ring from a running server "
                        "instead of on-disk snapshots")
    flight.add_argument("--limit", type=int, default=20,
                        help="records to show (default 20)")
    faction = flight.add_subparsers(dest="action", required=True)
    faction.add_parser("show", help="human-readable record tables")
    faction.add_parser("dump", help="raw snapshot JSON")
    flight.set_defaults(func=cmd_flight)

    history = sub.add_parser(
        "history", help="inspect an on-disk telemetry history store"
    )
    history.add_argument("--dir", default="~/.powerplay-history",
                         help="history store directory "
                         "(default ~/.powerplay-history)")
    history.add_argument("--json", action="store_true",
                         help="print deterministic JSON instead of tables")
    haction = history.add_subparsers(dest="action", required=True)
    haction.add_parser("info", help="store stats, families, quarantine")
    hquery = haction.add_parser(
        "query", help="range / rate / quantile over recorded series"
    )
    hquery.add_argument("name", help="metric family, e.g. "
                        "powerplay_http_requests_total")
    hquery.add_argument("--label", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="series label filter (repeatable)")
    hquery.add_argument("--op", choices=("range", "rate", "quantile"),
                        default="range")
    hquery.add_argument("--since", type=float, default=None,
                        help="unix start time (default: everything)")
    hquery.add_argument("--until", type=float, default=None,
                        help="unix end time (default: newest stored "
                        "sample, so replays are byte-identical)")
    hquery.add_argument("--q", type=float, default=0.95,
                        help="quantile for --op quantile (default 0.95)")
    haction.add_parser(
        "compact", help="run one rollup + retention pass now"
    )
    history.set_defaults(func=cmd_history)

    capacity = sub.add_parser(
        "capacity",
        help="fit recorded traffic trends and project worker counts",
    )
    capacity.add_argument("--dir", default="~/.powerplay-history",
                          help="history store directory "
                          "(default ~/.powerplay-history)")
    capacity.add_argument("--since", type=float, default=None,
                          help="unix start time (default: everything)")
    capacity.add_argument("--until", type=float, default=None,
                          help="unix end time (default: newest sample)")
    capacity.add_argument("--horizon-hours", type=float, default=168.0,
                          help="projection horizon (default 168 = 7 days)")
    capacity.add_argument("--threads-per-worker", type=int, default=8,
                          help="threads each worker serves (default 8)")
    capacity.add_argument("--utilization", type=float, default=0.6,
                          help="target worker utilization (default 0.6)")
    capacity.add_argument("--quantile", type=float, default=0.95,
                          help="latency quantile for the table "
                          "(default 0.95)")
    capacity.add_argument("--json", action="store_true",
                          help="print the deterministic report JSON")
    capacity.set_defaults(func=cmd_capacity)

    bench_report = sub.add_parser(
        "bench-report",
        help="normalize bench_*.json artifacts into the benchmark "
        "trajectory and gate regressions against the committed baseline",
    )
    bench_report.add_argument("--bench-dir", default="benchmarks",
                              help="directory holding bench_*.json and "
                              "trajectory.py (default benchmarks)")
    bench_report.add_argument("--baseline", default=None,
                              help="committed baseline to compare against "
                              "(default BENCH_DIR/BENCH_TRAJECTORY.json)")
    bench_report.add_argument("--threshold", type=float, default=0.20,
                              help="relative time regression that fails the "
                              "gate (default 0.20 = 20%%)")
    bench_report.add_argument("--write", action="store_true",
                              help="rewrite the baseline from the current "
                              "artifacts instead of gating")
    bench_report.set_defaults(func=cmd_bench_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = None
    if args.log_level or args.log_json or getattr(args, "trace", False):
        # --trace without --log-level keeps the log stream quiet (OFF)
        # while still enabling span collection
        level = obs.parse_level(args.log_level or "off")
        previous = obs.enable(level=level, json_logs=args.log_json)
    try:
        return args.func(args)
    except BrokenPipeError:  # `repro ... | head` is not an error
        return 0
    except PowerPlayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            obs.restore(previous)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
