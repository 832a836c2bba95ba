"""Seeded operation scripts: the inputs each workload replays.

Everything a workload sends is drawn here from ``random.Random`` seeded
with a string built from ``--seed``, so the same seed gives the same
operations byte for byte (see :func:`script_bytes`) and the program
under test receives only the generated inputs.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Tuple

#: the paper's two worked examples (Fig 2 and Fig 5)
PAPER_DESIGNS = ("luminance_fig1", "infopad")

#: PLAY edits per design: (form key, low, high), values drawn uniformly,
#: every value inside the parameter's declared range
PLAY_EDITS = {
    "luminance_fig1": (
        ("g:VDD", 1.1, 3.3),
        ("g:f_pixel", 0.5e6, 4.0e6),
        ("p:output_register:data_activity", 0.05, 1.0),
    ),
    "infopad": (
        ("g:VDD2", 1.1, 3.3),
        ("g:VDD1", 3.0, 5.0),
        ("p:radio_subsystem:tx_duty", 0.01, 1.0),
        ("p:radio_subsystem:rx_duty", 0.01, 1.0),
        ("p:display_lcds:backlight_duty", 0.01, 1.0),
        ("p:voltage_converters:eta", 0.5, 0.99),
        ("p:microprocessor_subsystem:alpha", 0.1, 1.0),
    ),
}

#: designers per load connection in play_edit; each owns both designs
DESIGNERS_PER_CONNECTION = 2

#: browse_mix visitors; 8 users x 2 designs x 3 report kinds stays far
#: inside the 128-entry evaluation cache
VISITORS = 8
#: fixed open-loop arrival rate (requests/s), well below saturation
#: (the server alone answers these pages at several hundred per second)
BROWSE_RATE = 75.0
#: browse_mix operation mix; cell computes and saves are the writes
BROWSE_MIX = (
    ("sheet", 0.34),
    ("analysis", 0.20),
    ("menu", 0.12),
    ("library", 0.08),
    ("cell_form", 0.16),
    ("cell_compute", 0.08),
    ("cell_save", 0.02),
)
SCRATCH_DESIGN = "scratch"

#: cells a visitor computes, with parameter generators
CELLS = ("multiplier", "sram", "register", "cla_adder")


def _rng(seed: int, *labels: object) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def designers(connections: int) -> List[List[str]]:
    """Designer user names, grouped by the connection that drives them."""
    return [
        [f"d{c}x{i}" for i in range(DESIGNERS_PER_CONNECTION)]
        for c in range(connections)
    ]


def play_ops(seed: int, connection: int, users: List[str]) -> Iterator[Dict]:
    """Endless PLAY edits for one connection's designers, round-robin."""
    rng = _rng(seed, "play", connection)
    turn = 0
    while True:
        user = users[turn % len(users)]
        turn += 1
        design = rng.choice(PAPER_DESIGNS)
        key, low, high = rng.choice(PLAY_EDITS[design])
        yield {
            "kind": "play",
            "user": user,
            "design": design,
            "key": key,
            "value": f"{rng.uniform(low, high):.6f}",
        }


def _cell_values(rng: random.Random, cell: str) -> Dict[str, str]:
    if cell == "multiplier":
        return {"bitwidthA": str(rng.randint(4, 32)),
                "bitwidthB": str(rng.randint(4, 32)),
                "VDD": f"{rng.uniform(1.1, 3.3):.4f}"}
    if cell == "sram":
        return {"words": str(rng.choice((256, 512, 1024, 2048, 4096))),
                "bits": str(rng.randint(4, 32)),
                "VDD": f"{rng.uniform(1.1, 3.3):.4f}"}
    if cell == "register":
        return {"bits": str(rng.randint(1, 32)),
                "data_activity": f"{rng.uniform(0.0, 1.0):.4f}"}
    return {"bitwidth": str(rng.randint(4, 64))}


def browse_ops(seed: int, seconds: float, rate: float = BROWSE_RATE
               ) -> List[Tuple[float, Dict]]:
    """``(due offset in seconds, op)`` for Poisson arrivals over ``seconds``."""
    rng = _rng(seed, "browse")
    kinds = [kind for kind, _ in BROWSE_MIX]
    weights = [weight for _, weight in BROWSE_MIX]
    schedule: List[Tuple[float, Dict]] = []
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            return schedule
        kind = rng.choices(kinds, weights)[0]
        op: Dict = {"kind": kind, "user": f"v{rng.randrange(VISITORS)}"}
        if kind in ("sheet", "analysis"):
            op["design"] = rng.choice(PAPER_DESIGNS)
        elif kind == "cell_form":
            op["cell"] = rng.choice(CELLS)
        elif kind in ("cell_compute", "cell_save"):
            op["cell"] = rng.choice(CELLS)
            op["values"] = _cell_values(rng, op["cell"])
            if kind == "cell_save":
                op["row"] = f"r{len(schedule)}"
        schedule.append((due, op))


def _stratified(rng: random.Random, grid: List[float], count: int
                ) -> List[float]:
    """One seeded value from each of ``count`` equal slices of ``grid``,
    so every seed covers the whole range alike."""
    edges = [round(i * len(grid) / count) for i in range(count + 1)]
    return [grid[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]


def sweep_axes(seed: int, vdd2_count: int, vdd1_count: int
               ) -> Tuple[List[float], List[float]]:
    """Seeded subsample of the surrogate bench's VDD2 x VDD1 grid."""
    rng = _rng(seed, "sweep")
    vdd2 = [1.1 + i * 0.002 for i in range(1101)]
    vdd1 = [0.9 + i * 0.009 for i in range(101)]
    return (_stratified(rng, vdd2, vdd2_count),
            _stratified(rng, vdd1, vdd1_count))


def script_bytes(workload: str, seed: int, count: int = 200) -> bytes:
    """The first ``count`` operations of a workload, canonically encoded."""
    if workload == "play_edit":
        ops = []
        for connection, users in enumerate(designers(2)):
            stream = play_ops(seed, connection, users)
            ops.extend(next(stream) for _ in range(count // 2))
    elif workload == "browse_mix":
        ops = browse_ops(seed, seconds=count / BROWSE_RATE)
    elif workload == "sweep_exact":
        ops = list(sweep_axes(seed, 40, 11))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(ops, sort_keys=True).encode("utf-8")
