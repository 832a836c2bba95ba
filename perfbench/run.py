"""PowerPlay paper-path benchmark.

    python3 perfbench/run.py --workload play_edit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Prints an environment fingerprint, per-phase operation counts, every
metric with its unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` replays the same seeded operations
untraced and then traced and reports the per-layer metrics.  Exits 1
when an oracle or a validity check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import common  # noqa: E402

WORKLOADS = ("play_edit", "browse_mix", "sweep_exact")


class Report:
    """What one run found: metrics, per-phase counts, problems."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.phases: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.problems: List[str] = []
        self.invalid_reasons: List[str] = []
        self.notes: Dict[str, object] = {}
        self.state_dir: Optional[Path] = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def phase(self, name: str, attempted: int, failed: int) -> None:
        self.phases[name][0] += attempted
        self.phases[name][1] += failed

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def invalid(self, reason: str) -> None:
        self.invalid_reasons.append(reason)

    def note(self, key: str, value: object) -> None:
        self.notes[key] = value

    def emit(self, env: Dict[str, object]) -> int:
        attempted = sum(a for a, _ in self.phases.values())
        failed = sum(f for _, f in self.phases.values())
        correct = not (failed or self.problems or self.invalid_reasons)
        print("environment: " + json.dumps(env, sort_keys=True))
        for name, (tried, bad) in self.phases.items():
            print(f"phase {name}: attempted {tried}, succeeded {tried - bad}, "
                  f"failed {bad}")
        for key, value in self.notes.items():
            print(f"{key}: " + json.dumps(value, sort_keys=True))
        for text in self.problems:
            print(f"ORACLE: {text}")
        for text in self.invalid_reasons:
            print(f"INVALID: {text}")
        for name, entry in self.metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": self.metrics}))
        return 0 if correct else 1


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    common.require_program()
    from perfbench import oracles, sweep, web

    report = Report()
    for problem in oracles.check_golden():
        report.problem(problem)
    path = common.run_dir()
    try:
        if workload == "sweep_exact":
            (sweep.run_traced if trace else sweep.run)(
                seed, seconds, path, report)
        else:
            (web.run_traced if trace else web.run)(
                workload, seed, seconds, path, report)
        env = common.environment(report.state_dir)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass
    return report.emit(env)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: {workload} did not produce a result")
        result = json.loads(lines[-1])
        status = status or done.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
