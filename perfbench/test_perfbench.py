"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

import math
import time

import pytest
from repro.core.estimator import evaluate_power

from perfbench import oracles, script, sweep, tracing, web
from perfbench.common import NPROC, REFERENCE_CALL_S
from perfbench.loadgen import Client, Outcome, closed_loop, open_loop

WORKLOADS = ("play_edit", "browse_mix", "sweep_exact")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_script_other_seed_other_script(workload):
    first = script.script_bytes(workload, 7)
    assert first == script.script_bytes(workload, 7)
    assert first != script.script_bytes(workload, 8)


def test_play_edits_stay_inside_declared_ranges():
    for design_name, edits in script.PLAY_EDITS.items():
        design = oracles.build_paper_design(design_name)
        for key, low, high in edits:
            oracles.apply_edit(design, key, f"{low:.6f}")
            oracles.apply_edit(design, key, f"{high:.6f}")
        assert evaluate_power(design).power > 0


# -- correctness oracles, with negative controls ------------------------------


def test_golden_totals_pass_and_a_doctored_golden_fails(monkeypatch):
    assert oracles.check_golden() == []
    monkeypatch.setitem(oracles.GOLDEN_TOTALS, "infopad", "3.7215e+00")
    assert len(oracles.check_golden()) == 1


def _play_outcome(op, evidence):
    return Outcome(op=op, due=0.0, sent=0.0, done=0.001, status=200,
                   request_id="req-1", error="", evidence=evidence)


def test_mirror_accepts_true_totals_and_flags_a_doctored_one():
    stream = script.play_ops(3, 0, ["alice"])
    ops = [next(stream) for _ in range(6)]
    mirror = oracles.Mirror()
    truthful = [_play_outcome(op, mirror.play(op["user"], op["design"],
                                              op["key"], op["value"]))
                for op in ops]
    for index, outcome in enumerate(truthful):
        outcome.sent = float(index)
    assert web._mirror_check(truthful) == 0

    doctored = [_play_outcome(o.op, o.evidence) for o in truthful]
    for index, outcome in enumerate(doctored):
        outcome.sent = float(index)
    doctored[3].evidence = doctored[3].evidence.replace("e", "E", 1)
    assert web._mirror_check(doctored) == 1
    assert doctored[3].error


@pytest.fixture(scope="module")
def small_sweep():
    from repro.designs.infopad import build_infopad
    from repro.explore import Axis, ParameterSpace, run_sweep
    from repro.explore.results import pareto_rows

    vdd2, vdd1 = script.sweep_axes(5, 6, 2)
    space = ParameterSpace([
        Axis("VDD2", tuple(vdd2)), Axis("VDD1", tuple(vdd1)),
        Axis("bits", (8.0, 12.0), target=sweep.BITS_TARGET),
    ])
    design = build_infopad()
    outcome = run_sweep(design, space, derived=(sweep.ACCESS_TIME,))
    return design, outcome.rows, pareto_rows(outcome.rows, sweep.OBJECTIVES)


def test_sweep_points_match_and_a_doctored_point_is_flagged(small_sweep):
    design, rows, _front = small_sweep
    indices = range(len(rows))
    assert oracles.check_points(design, rows, indices) == []
    doctored = [dict(row, objectives=dict(row["objectives"])) for row in rows]
    power = doctored[4]["objectives"]["power"]
    doctored[4]["objectives"]["power"] = math.nextafter(power, math.inf)
    assert len(oracles.check_points(design, doctored, indices)) == 1


def test_front_check_passes_and_flags_doctored_fronts(small_sweep):
    _design, rows, front = small_sweep
    assert oracles.check_front(rows, front, sweep.OBJECTIVES) == []
    assert oracles.check_front(rows, front[1:], sweep.OBJECTIVES)
    dominated = [row for row in rows if all(row is not f for f in front)]
    assert oracles.check_front(rows, front + dominated[:1], sweep.OBJECTIVES)


# -- the load generator ---------------------------------------------------------


def test_load_generator_never_exceeds_nproc_connections(tmp_path):
    from repro.web.server import PowerPlayServer

    with PowerPlayServer(tmp_path) as server:
        host, port = server.address
        client = Client(host, port, NPROC)
        users = script.designers(NPROC)
        for group in users:
            for user in group:
                client.request("POST", "/login", {"user": user})
                for design in script.PAPER_DESIGNS:
                    client.request("POST", "/design/load_example",
                                   {"user": user, "example": design})
        streams = [script.play_ops(1, c, group) for c, group in enumerate(users)]
        per_stream = closed_loop(client, streams, web._render, web._check,
                                 until=time.perf_counter() + 0.5)
        schedule = [(0.0, {"kind": "menu", "user": users[0][0]})] * 20
        burst = open_loop(client, schedule, web._render, web._check,
                          start=time.perf_counter(), threads=NPROC)
    outcomes = [o for stream in per_stream for o in stream] + burst
    assert outcomes and not [o.error for o in outcomes if o.error]
    assert client.peak_open <= NPROC
    assert client.opened == len(outcomes) + len(users[0]) * 3 * len(users)


def test_client_refuses_a_connection_past_its_limit():
    client = Client("127.0.0.1", 9, limit=1)
    client._acquire()
    with pytest.raises(RuntimeError):
        client._acquire()


# -- host-speed scaling ------------------------------------------------------------


def test_slices_scale_to_nominal_host_speed():
    """A slice whose reference calls ran at half the nominal speed
    reports twice the throughput and half the latency of its wall
    figures; a slice without reference calls is not scaled."""
    def outcomes(reference_s):
        return [Outcome(op={"kind": "play"}, due=k / 10, sent=k / 10,
                        done=k / 10 + 0.01, status=200, request_id="",
                        error="", reference_s=reference_s)
                for k in range(10)]

    slow = web._summary("play_edit", outcomes(2 * REFERENCE_CALL_S), 0.0, 1.0)
    assert slow["wall_ops_s"] == 10 and slow["ops_s"] == pytest.approx(20)
    assert slow["wall_p50_ms"] == pytest.approx(10)
    assert slow["p50_ms"] == pytest.approx(5)
    plain = web._summary("play_edit", outcomes(0.0), 0.0, 1.0)
    assert plain["ops_s"] == plain["wall_ops_s"] == 10
    assert plain["p50_ms"] == pytest.approx(plain["wall_p50_ms"])


# -- span arithmetic --------------------------------------------------------------


def test_self_time_subtracts_children_and_layers_sum_to_the_root():
    spans = [
        # id, parent, name, start, end, root, value
        (1, 0, "web.app.handle", 0.0, 10.0, 1, 0),
        (2, 1, "web.session.save", 2.0, 8.0, 1, 0),
        (3, 2, "state.backend.save", 3.0, 7.0, 1, 500),
        (4, 1, "web.pages.render", 8.0, 9.0, 1, 2000),
        (5, 0, "web.app.handle", 20.0, 30.0, 5, 0),  # not measured
    ]
    per_root = tracing.self_times(spans, {1})
    layers = per_root[1]
    assert layers["web.app.handle_self"] == pytest.approx(3.0)
    assert layers["web.session.save_self"] == pytest.approx(2.0)
    assert layers["state.backend.save"] == pytest.approx(4.0)
    client = {1: {"web.server.transport": 1.0, "other": 0.5}}
    metrics = tracing.layer_report(per_root, {}, client, ops=1, total_s=11.5)
    assert metrics["layer_sum_error_pct"] == pytest.approx(0.0)
    assert metrics["state.backend.save_pct"] == pytest.approx(400 / 11.5)
    assert metrics["web.session.save_bytes"] == 500
    assert metrics["web.pages.bytes"] == 2000
    short = tracing.layer_report(per_root, {}, {}, ops=1, total_s=11.5)
    assert tracing.layer_sum_problem(short)
