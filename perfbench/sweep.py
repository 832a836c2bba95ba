"""``sweep_exact``: the paper's design-space exploration, in-process.

``explore.run_sweep`` (serial engine) over a seeded subsample of the
InfoPad VDD2 x VDD1 x ``read_bank.bits`` space from the surrogate bench,
with the derived ``access_time`` objective, then ``pareto_rows`` over
(power, access_time).  No web tier, session, render or eval cache.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List

from repro.designs.infopad import build_infopad
from repro.explore import Axis, DerivedObjective, ParameterSpace, run_sweep
from repro.explore.batcheval import BatchEvaluator
from repro.explore.results import pareto_rows

from . import oracles, script, tracing
from .common import (REFERENCE_CALL_S, percentile, reference_seconds,
                     self_peak_rss_mb)

BITS_TARGET = "custom_hardware.luminance_chip.read_bank.bits"
BITS_VALUES = tuple(float(b) for b in range(8, 17))
ACCESS_TIME = DerivedObjective(
    "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
)
OBJECTIVES = ("power", "access_time")
#: 40 x 11 x 9 = 3,960 points per pass; a run sweeps the space
#: repeatedly, a few tens of thousands of points in all, and reports the
#: median pass rate
VDD2_COUNT, VDD1_COUNT = 40, 11
CHUNK = 64
#: set-ups are milliseconds each, so take the median of many
SETUPS = 100
#: reference-kernel calls timed after each set-up to scale it
SETUP_REFERENCE_CALLS = 4
#: seeded points per pass re-evaluated by the exact oracle
ORACLE_SAMPLE = 12


def make_space(seed: int) -> ParameterSpace:
    vdd2, vdd1 = script.sweep_axes(seed, VDD2_COUNT, VDD1_COUNT)
    return ParameterSpace([
        Axis("VDD2", tuple(vdd2)),
        Axis("VDD1", tuple(vdd1)),
        Axis("bits", BITS_VALUES, target=BITS_TARGET),
    ])


def _setup(seed: int):
    """Design and space, up to the first evaluated point."""
    design = build_infopad()
    space = make_space(seed)
    BatchEvaluator(design, ("power",)).evaluate(space.point(0)["overrides"])
    return design, space


class _Pass:
    """One sweep over the whole space plus its Pareto front.

    With ``calibrate`` a reference-kernel call follows every engine
    chunk; the pass's times are then scaled to the nominal host speed
    (see :data:`common.REFERENCE_CALL_S`) and the kernel's own time is
    kept out of them.
    """

    def __init__(self, design, space, recorder=None, calibrate=False):
        self.design, self.space = design, space
        self.calibrate = calibrate
        #: per-point time of every chunk so far, scaled to nominal speed
        self.chunk_s: List[float] = []
        #: the last pass's reference-kernel time and speed scale
        self.reference_s = 0.0
        self.scale = 1.0
        self.recorder = recorder
        self.pareto: Callable = pareto_rows
        if recorder is not None:
            self.pareto = recorder.timed("explore.results.pareto", pareto_rows)

    def __call__(self):
        chunks: List[float] = []
        reference = [0.0, 0]
        last = [time.perf_counter()]

        def on_chunk(start, stop, rows, seconds):
            chunks.append((time.perf_counter() - last[0]) / (stop - start))
            if self.calibrate:
                reference[0] += reference_seconds()
                reference[1] += 1
            last[0] = time.perf_counter()

        outcome = run_sweep(self.design, self.space, objectives=("power",),
                            derived=(ACCESS_TIME,), mode="serial",
                            chunk_size=CHUNK, on_chunk=on_chunk)
        front = self.pareto(outcome.rows, OBJECTIVES)
        self.reference_s = reference[0]
        self.scale = (REFERENCE_CALL_S * reference[1] / reference[0]
                      if reference[1] else 1.0)
        self.chunk_s.extend(s * self.scale for s in chunks)
        if self.recorder is not None:
            report = outcome.report
            self.recorder.add("rows", report.misses)
            self.recorder.add("memo_hits", report.hits)
            self.recorder.add("memo_misses", report.misses)
        return outcome, front


def _passes(design, space, seed: int, seconds: float, report,
            recorder=None, calibrate=False) -> Dict[str, object]:
    """Sweep passes until ``seconds`` of sweeping; oracles between them.

    ``busy`` and ``raw_rates`` are wall-clock; ``rates`` are scaled to
    the nominal host speed when ``calibrate`` is set.
    """
    sweep = _Pass(design, space, recorder, calibrate)
    run_pass: Callable = sweep
    if recorder is not None:
        run_pass = recorder.timed("explore.pass", sweep)
    oracle_design = build_infopad()
    rng = random.Random(f"{seed}:sweep-oracle")
    busy = 0.0
    points = 0
    rates: List[float] = []
    raw_rates: List[float] = []
    while busy < seconds:
        began = time.perf_counter()
        outcome, front = run_pass()
        elapsed = time.perf_counter() - began - sweep.reference_s
        busy += elapsed
        points += len(outcome.rows)
        raw_rates.append(len(outcome.rows) / elapsed)
        rates.append(len(outcome.rows) / (elapsed * sweep.scale))
        if recorder is not None:
            recorder.enabled = False
        sample = rng.sample(range(len(outcome.rows)), ORACLE_SAMPLE)
        problems = oracles.check_points(oracle_design, outcome.rows, sample)
        problems += oracles.check_front(outcome.rows, front, OBJECTIVES)
        failed = sum(1 for row in outcome.rows if row["error"])
        if recorder is not None:
            recorder.enabled = True
        for problem in problems[:5]:
            report.problem(problem)
        report.phase("measure", len(outcome.rows),
                     failed + (len(outcome.rows) if problems else 0))
    return {"busy": busy, "points": points, "rates": rates,
            "raw_rates": raw_rates, "chunk_s": sweep.chunk_s}


def run(seed: int, seconds: float, run_path: Path, report) -> None:
    _setup(seed)  # first-use costs of the interpreter, not of set-up
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        began = time.perf_counter()
        design, space = _setup(seed)
        took = time.perf_counter() - began
        reference = reference_seconds(SETUP_REFERENCE_CALLS)
        raw_setups.append(took)
        setups.append(took * SETUP_REFERENCE_CALLS * REFERENCE_CALL_S / reference)
    report.phase("setup", SETUPS, 0)
    done = _passes(design, space, seed, seconds, report, calibrate=True)
    chunk_ms = [1e3 * s for s in done["chunk_s"]]
    report.note("sweep", {"points": done["points"], "space": len(space),
                          "pass_rates": done["rates"],
                          "wall_pass_rates": done["raw_rates"],
                          "wall_ops_s": median(done["raw_rates"]),
                          "wall_setup_s": median(raw_setups),
                          "chunks": len(chunk_ms),
                          "p90_ms": percentile(chunk_ms, 90),
                          "p99_ms": percentile(chunk_ms, 99)})
    report.metric("setup_s", median(setups), "s")
    report.metric("ops_s", median(done["rates"]), "1/s")
    report.metric("p50_ms", percentile(chunk_ms, 50), "ms")
    report.metric("rss_mb", self_peak_rss_mb(), "MB")


def run_traced(seed: int, seconds: float, run_path: Path, report) -> None:
    design, space = _setup(seed)
    report.phase("setup", 1, 0)
    plain = _passes(design, space, seed, seconds, report)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    traced = _passes(design, space, seed, seconds, report, recorder)
    recorder.dump(run_path / "spans.json")

    roots = {span[0] for span in recorder.spans
             if span[1] == 0 and span[2] == "explore.pass"}
    foreign = sorted({span[2] for span in recorder.spans
                      if span[5] in roots and span[2].startswith(
                          ("web.", "state.", "core.evalcache"))})
    if foreign:
        report.invalid(f"sweep_exact reached {', '.join(foreign)}")
    per_root = tracing.self_times(recorder.spans, roots)
    metrics = tracing.layer_report(per_root, recorder.root_counts, {},
                                   traced["points"], traced["busy"])
    plain_point = plain["busy"] / plain["points"]
    traced_point = traced["busy"] / traced["points"]
    metrics["trace_overhead_pct"] = 100.0 * (traced_point - plain_point) / plain_point
    report.note("trace", {"untraced_point_ms": 1e3 * plain_point,
                          "traced_point_ms": 1e3 * traced_point})
    problem = tracing.layer_sum_problem(metrics)
    if problem:
        report.invalid(problem)
    for name, value in metrics.items():
        report.metric(name, value, tracing.unit_of(name))
