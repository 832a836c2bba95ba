"""Serial-replay oracle: did concurrency change the answer?

The workload generator guarantees that distinct users touch disjoint
server state (their own session, designs, defaults and user library),
and the driver guarantees every user's operations execute in script
order regardless of thread count.  Under those two invariants a correct
server is *linearizable per user*: executing the script with 8 threads
must leave exactly the end state that executing it serially does.

So the oracle is brutally simple — replay the identical script on a
fresh single-threaded server, then compare, per user:

* the in-memory session payload (designs, defaults, models, password
  state) between the concurrent run and the serial run — any mismatch
  is a lost or phantom update;
* the on-disk state file against the in-memory payload within each run
  — any mismatch is a torn or stale save;
* the store's quarantine log — a quarantined file means a reader saw
  corrupt bytes.

No tolerance, no fuzz: equality is byte-level on canonicalized JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import SessionError
from ..web.app import Application
from .driver import InProcessTarget, RunResult, run_script
from .workload import WorkloadScript


def replay_serial(
    script: WorkloadScript, state_dir: Path
) -> Tuple[Application, RunResult]:
    """Execute ``script`` serially on a fresh server rooted at ``state_dir``.

    One thread ⇒ total script order ⇒ the reference end state.
    """
    application = Application(Path(state_dir), server_name="oracle")
    result = run_script(script, InProcessTarget(application), threads=1)
    return application, result


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


def capture_state(
    application: Application, script: WorkloadScript
) -> Dict[str, dict]:
    """Snapshot everything the oracle compares, per user.

    ``session`` is the user's in-memory payload; ``disk`` is the parsed
    state file with its journal folded in (or an ``error`` marker when
    missing, unreadable or unfoldable — which the verifier reports as a
    torn-file finding).
    """
    state: Dict[str, dict] = {}
    for user in script.users:
        session = application.users.session(user)
        with session.lock:
            payload = session.to_payload()
        disk: object
        try:
            text = application.users.read_disk(user)
        except SessionError as exc:
            state[user] = {"session": payload, "disk": {"error": str(exc)}}
            continue
        if text is None:
            disk = {"error": "state file missing"}
        else:
            try:
                disk = json.loads(text)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                disk = {"error": f"unreadable state file: {exc}"}
        state[user] = {"session": payload, "disk": disk}
    return state


def _diff(prefix: str, left: object, right: object, out: List[str]) -> None:
    """Recursive structural diff; appends human-readable findings."""
    if type(left) is not type(right):
        out.append(
            f"{prefix}: type {type(left).__name__} != {type(right).__name__}"
        )
        return
    if isinstance(left, dict):
        for key in sorted(set(left) - set(right)):
            out.append(f"{prefix}.{key}: only in concurrent run")
        for key in sorted(set(right) - set(left)):
            out.append(f"{prefix}.{key}: only in serial run")
        for key in sorted(set(left) & set(right)):
            _diff(f"{prefix}.{key}", left[key], right[key], out)
        return
    if isinstance(left, list):
        if len(left) != len(right):
            out.append(
                f"{prefix}: length {len(left)} != {len(right)}"
            )
            return
        for index, (a, b) in enumerate(zip(left, right)):
            _diff(f"{prefix}[{index}]", a, b, out)
        return
    if left != right:
        out.append(f"{prefix}: {left!r} != {right!r}")


@dataclass
class OracleReport:
    """Verdict of one concurrent-vs-serial comparison."""

    matches: bool
    differences: List[str] = field(default_factory=list)
    users: List[str] = field(default_factory=list)
    designs_checked: int = 0
    models_checked: int = 0

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.matches else "DIVERGED"
        return (
            f"oracle: {verdict} — {len(self.users)} users, "
            f"{self.designs_checked} designs, {self.models_checked} models"
            + ("" if self.matches else f", {len(self.differences)} differences")
        )


def verify(
    script: WorkloadScript,
    concurrent_app: Application,
    serial_app: Application,
    max_reported: int = 20,
) -> OracleReport:
    """Compare a concurrent run's end state against the serial replay."""
    concurrent_state = capture_state(concurrent_app, script)
    serial_state = capture_state(serial_app, script)
    differences: List[str] = []
    designs = 0
    models = 0

    for application, run_name in (
        (concurrent_app, "concurrent"),
        (serial_app, "serial"),
    ):
        for user, target, reason in application.users.quarantined:
            differences.append(
                f"{run_name} run quarantined {user!r} "
                f"({target.name}): {reason}"
            )

    for user in script.users:
        concurrent_user = concurrent_state[user]
        serial_user = serial_state[user]
        designs += len(concurrent_user["session"].get("designs", {}))
        models += len(concurrent_user["session"].get("models", []))

        # lost/phantom updates: concurrent end state vs serial end state
        if _canonical(concurrent_user["session"]) != _canonical(
            serial_user["session"]
        ):
            _diff(
                f"user[{user}]",
                concurrent_user["session"],
                serial_user["session"],
                differences,
            )

        # torn/stale saves: disk vs memory *within* each run
        for run_name, snapshot in (
            ("concurrent", concurrent_user),
            ("serial", serial_user),
        ):
            if _canonical(snapshot["disk"]) != _canonical(
                snapshot["session"]
            ):
                local: List[str] = []
                _diff(
                    f"{run_name} disk[{user}]",
                    snapshot["disk"],
                    snapshot["session"],
                    local,
                )
                differences.extend(
                    local or [f"{run_name} disk[{user}]: differs from memory"]
                )

    if len(differences) > max_reported:
        overflow = len(differences) - max_reported
        differences = differences[:max_reported] + [
            f"... and {overflow} more differences"
        ]
    return OracleReport(
        matches=not differences,
        differences=differences,
        users=list(script.users),
        designs_checked=designs,
        models_checked=models,
    )
