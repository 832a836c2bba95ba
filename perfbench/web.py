"""The HTTP workloads: ``play_edit`` (closed loop) and ``browse_mix``
(open loop), both against a ``python -m repro serve`` child."""

from __future__ import annotations

import functools
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.core.estimator import evaluate_power
from repro.library.cells import build_default_library

from . import oracles, script, tracing
from .common import (NPROC, REFERENCE_CALL_S, ServerChild, percentile,
                     reference_seconds)
from .loadgen import Client, Outcome, closed_loop, open_loop

#: set-ups per timing run (setup_s is their median)
SETUPS = 9
#: untimed lead-in before the measured window
WARMUP_S = 1.0
#: throughput and p50 are medians over slices of the window this long,
#: so a stall on a shared machine moves them less than it moves a mean
SLICE_S = 1.0
#: browse_mix is invalid when its median send ran later than this: a
#: generator that cannot keep its schedule (host stalls still show in
#: the printed p99 lag)
LAG_BOUND_MS = 5.0


@functools.lru_cache(maxsize=None)
def _library():
    return build_default_library()


@functools.lru_cache(maxsize=None)
def _nominal_total(design: str) -> str:
    return oracles.total_text(
        evaluate_power(oracles.build_paper_design(design)).power)


def _render(op: Dict) -> Tuple[str, str, Optional[Dict[str, str]]]:
    kind, user = op["kind"], op["user"]
    if kind == "play":
        return "POST", "/design", {"user": user, "name": op["design"],
                                   op["key"]: op["value"]}
    if kind == "sheet":
        return "GET", f"/design?user={user}&name={op['design']}", None
    if kind == "analysis":
        return "GET", f"/design/analysis?user={user}&name={op['design']}", None
    if kind == "menu":
        return "GET", f"/menu?user={user}", None
    if kind == "library":
        return "GET", f"/library?user={user}", None
    if kind == "cell_form":
        return "GET", f"/cell?user={user}&name={op['cell']}", None
    form = {"user": user, "name": op["cell"]}
    form.update({f"p:{k}": v for k, v in op["values"].items()})
    if kind == "cell_compute":
        return "POST", "/cell", form
    form.update({"design": script.SCRATCH_DESIGN, "row": op["row"]})
    return "POST", "/cell/save", form


def _check(op: Dict, status: int, headers: Dict[str, str], body: str
           ) -> Tuple[str, str]:
    """Inline checks; PLAY totals are kept as evidence for the mirror."""
    kind = op["kind"]
    if kind == "cell_save":
        ok = status == 303 and f"name={script.SCRATCH_DESIGN}" in headers.get(
            "Location", "")
        return ("" if ok else f"cell save answered {status}"), ""
    if status != 200:
        return f"HTTP {status}", ""
    if 'class="error"' in body:
        return "page reports an error", ""
    if kind == "play":
        total = oracles.rendered_total(body)
        return ("" if total else "no total on the sheet"), total or ""
    if kind == "sheet":
        ok = oracles.rendered_total(body) == _nominal_total(op["design"])
        return ("" if ok else "sheet total differs from nominal"), ""
    markers = {
        "analysis": "Active area",
        "menu": "Main Menu",
        "library": "multiplier",
        "cell_form": op.get("cell", ""),
    }
    if kind in markers:
        ok = markers[kind] in body
        return ("" if ok else f"{kind} page lacks {markers[kind]!r}"), ""
    expected = oracles.cell_power_text(_library().get(op["cell"]), op["values"])
    return ("" if expected in body else "cell power differs"), ""


def _expect(client: Client, method: str, path: str, form: Dict[str, str],
            status: int) -> None:
    got, _headers, _body = client.request(method, path, form)
    if got != status:
        raise RuntimeError(f"set-up {method} {path} answered {got}")


class Session:
    """One server child set up for a workload, with its client."""

    def __init__(self, workload: str, state_dir: Path,
                 spans_path: Optional[Path] = None):
        started = time.perf_counter()
        self.server = ServerChild(state_dir, spans_path)
        try:
            self.server.wait_ready()
            self.client = Client(self.server.host, self.server.port, NPROC)
            self.setup_ops = 0
            for user in self.users(workload):
                _expect(self.client, "POST", "/login", {"user": user}, 303)
                for design in script.PAPER_DESIGNS:
                    _expect(self.client, "POST", "/design/load_example",
                            {"user": user, "example": design}, 303)
                self.setup_ops += 1 + len(script.PAPER_DESIGNS)
                if workload == "browse_mix":
                    _expect(self.client, "POST", "/design/new",
                            {"user": user, "name": script.SCRATCH_DESIGN}, 303)
                    self.setup_ops += 1
        except BaseException:
            self.server.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @staticmethod
    def users(workload: str) -> List[str]:
        if workload == "play_edit":
            return [u for group in script.designers(NPROC) for u in group]
        return [f"v{i}" for i in range(script.VISITORS)]


def _drive(workload: str, session: Session, seed: int, seconds: float,
           calibrate: bool = False) -> Tuple[List[Outcome], float, float]:
    """Warm up, then run the measured window.

    With ``calibrate``, each ``play_edit`` sender times a reference-kernel
    call after every PLAY (see :func:`_summary`).  Returns every outcome
    and the window's start and end (perf_counter times).
    """
    start = time.perf_counter()
    window_start = start + WARMUP_S
    window_end = window_start + seconds
    if workload == "play_edit":
        streams = [script.play_ops(seed, c, users)
                   for c, users in enumerate(script.designers(NPROC))]
        per_stream = closed_loop(
            session.client, streams, _render, _check, until=window_end,
            reference=reference_seconds if calibrate else None)
        outcomes = [o for stream in per_stream for o in stream]
    else:
        schedule = script.browse_ops(seed, WARMUP_S + seconds)
        outcomes = open_loop(session.client, schedule, _render, _check,
                             start=start, threads=NPROC)
    return outcomes, window_start, window_end


def _mirror_check(outcomes: List[Outcome]) -> int:
    """Replay every PLAY on the designers' mirrors; returns mismatches.

    Each designer is driven by one connection, so outcome order within
    a designer is the order the server applied the edits.
    """
    mirror = oracles.Mirror()
    wrong = 0
    for outcome in sorted(outcomes, key=lambda o: o.sent):
        op = outcome.op
        if op["kind"] != "play" or outcome.status == 0:
            continue
        expected = mirror.play(op["user"], op["design"], op["key"], op["value"])
        if not outcome.error and outcome.evidence != expected:
            outcome.error = "PLAY total differs from the mirror"
            wrong += 1
    return wrong


def _window(outcomes: List[Outcome], start: float, end: float) -> List[Outcome]:
    return [o for o in outcomes if start <= o.due < end]


def _summary(workload: str, outcomes: List[Outcome], start: float,
             end: float) -> Dict[str, float]:
    """Window figures.  ``ops_s`` and ``p50_ms`` are medians over slices;
    a slice whose outcomes carry reference-kernel times is scaled to the
    nominal host speed by their mean, the ``wall_`` figures are not.
    """
    measured = _window(outcomes, start, end)
    seconds = end - start
    # a failed operation misses every latency limit: it counts as
    # taking the whole window
    latencies = [o.latency if not o.error else seconds for o in measured]
    count = max(1, int(seconds / SLICE_S))
    done = [0] * count
    slice_latencies: List[List[float]] = [[] for _ in range(count)]
    slice_references: List[List[float]] = [[] for _ in range(count)]
    for o, latency in zip(measured, latencies):
        k = min(count - 1, int((o.due - start) / SLICE_S))
        slice_latencies[k].append(latency)
        done[k] += 0 if o.error else 1
        if o.reference_s:
            slice_references[k].append(o.reference_s)
    scales = [REFERENCE_CALL_S * len(refs) / sum(refs) if refs else 1.0
              for refs in slice_references]
    busy = [k for k in range(count) if slice_latencies[k]]
    summary = {
        "ops_s": median(done[k] / scales[k] for k in range(count)) / SLICE_S,
        "p50_ms": 1e3 * median(median(slice_latencies[k]) * scales[k]
                               for k in busy),
        "wall_ops_s": median(done) / SLICE_S,
        "wall_p50_ms": 1e3 * median(median(slice_latencies[k]) for k in busy),
        "host_speed": median(scales),
        "p90_ms": 1e3 * percentile(latencies, 90),
        "p99_ms": 1e3 * percentile(latencies, 99),
        "measured": len(measured),
        "mean_ms": 1e3 * sum(o.latency for o in measured) / len(measured),
    }
    if workload == "browse_mix":
        lags = [1e3 * (o.sent - o.due) for o in measured]
        summary["lag_p50_ms"] = percentile(lags, 50)
        summary["lag_p99_ms"] = percentile(lags, 99)
    return summary


def run(workload: str, seed: int, seconds: float, run_path: Path,
        report) -> None:
    """The timing run: end-to-end metrics, tracing off."""
    setups: List[float] = []
    for k in range(SETUPS):
        session = Session(workload, run_path / f"state-{k}")
        setups.append(session.setup_s)
        report.phase("setup", session.setup_ops, 0)
        if k < SETUPS - 1:
            session.server.stop()
    report.state_dir = run_path / f"state-{SETUPS - 1}"
    try:
        outcomes, start, end = _drive(workload, session, seed, seconds,
                                      calibrate=True)
        rss = session.server.peak_rss_mb()
    finally:
        session.server.stop()
    _mirror_check(outcomes)
    _account(report, outcomes, start, end)
    summary = _summary(workload, outcomes, start, end)
    report.note("connections", {"peak_open": session.client.peak_open,
                                "opened": session.client.opened,
                                "limit": NPROC})
    report.note("latency", summary)
    if workload == "browse_mix" and summary["lag_p50_ms"] > LAG_BOUND_MS:
        report.invalid(f"generator ran {summary['lag_p50_ms']:.1f} ms late "
                       f"at the median (bound {LAG_BOUND_MS} ms)")
    report.metric("setup_s", median(setups), "s")
    report.metric("ops_s", summary["ops_s"], "1/s")
    report.metric("p50_ms", summary["p50_ms"], "ms")
    report.metric("rss_mb", rss, "MB")


def _account(report, outcomes: List[Outcome], start: float, end: float) -> None:
    for phase, chosen in (
        ("warmup", [o for o in outcomes if o.due < start]),
        ("measure", _window(outcomes, start, end)),
    ):
        report.phase(phase, len(chosen), sum(1 for o in chosen if o.error))


def run_traced(workload: str, seed: int, seconds: float, run_path: Path,
               report) -> None:
    """Untraced then traced replay of the same script; per-layer metrics."""
    untraced = Session(workload, run_path / "state-untraced")
    report.phase("setup", untraced.setup_ops, 0)
    try:
        plain, p_start, p_end = _drive(workload, untraced, seed, seconds)
    finally:
        untraced.server.stop()
    _mirror_check(plain)
    _account(report, plain, p_start, p_end)

    spans_path = run_path / "spans.json"
    traced = Session(workload, run_path / "state-traced", spans_path)
    report.phase("setup", traced.setup_ops, 0)
    report.state_dir = run_path / "state-traced"
    try:
        outcomes, start, end = _drive(workload, traced, seed, seconds)
    finally:
        traced.server.stop()
    _mirror_check(outcomes)
    _account(report, outcomes, start, end)
    recorder = tracing.Recorder.load(spans_path)

    measured = _window(outcomes, start, end)
    by_request = {o.request_id: o for o in measured if o.request_id}
    roots: Dict[int, Outcome] = {
        root: by_request[rid] for root, rid in recorder.request_ids.items()
        if rid in by_request
    }
    handle_s = {span[0]: span[4] - span[3] for span in recorder.spans
                if span[0] in roots}
    client = {
        root: {"web.server.transport": (o.done - o.sent) - handle_s[root],
               "other": o.sent - o.due}
        for root, o in roots.items()
    }
    per_root = tracing.self_times(recorder.spans, set(roots))
    total = sum(o.latency for o in measured)
    metrics = tracing.layer_report(per_root, recorder.root_counts, client,
                                   len(measured), total)
    plain_mean = _summary(workload, plain, p_start, p_end)["mean_ms"]
    traced_mean = 1e3 * total / len(measured)
    metrics["trace_overhead_pct"] = 100.0 * (traced_mean - plain_mean) / plain_mean
    report.note("trace", {"untraced_mean_ms": plain_mean,
                          "traced_mean_ms": traced_mean,
                          "matched_requests": len(roots),
                          "measured": len(measured)})
    problem = tracing.layer_sum_problem(metrics)
    if problem:
        report.invalid(problem)
    if workload == "play_edit" and metrics["core.evalcache.hit_ratio"] != 0:
        report.invalid("play_edit saw eval-cache hits; every PLAY must miss")
    for name, value in metrics.items():
        report.metric(name, value, tracing.unit_of(name))
