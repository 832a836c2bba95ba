"""Shared plumbing: paths, the server child, statistics, environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for state dirs and span files, inside the checkout
WORK = ROOT / ".perfbench"

NPROC = os.cpu_count() or 1
STATE_BACKEND = "file"  # `repro serve`'s default


def require_program() -> None:
    """Fail fast (no result printed) when the program is not present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {SRC}; nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_dir() -> Path:
    path = WORK / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- host speed ------------------------------------------------------------------

#: nominal time of one :func:`reference_kernel` call.  An in-process time
#: scaled by ``REFERENCE_CALL_S / measured call time`` reads as it would
#: on a host that runs the kernel exactly this fast
REFERENCE_CALL_S = 250e-6


def reference_kernel(rounds: int = 300) -> float:
    """A fixed pure-Python loop of dict lookups, float arithmetic and
    power operations, independent of the program under test.  A shared
    host's interpreter speed swings by up to 2x within seconds; this
    kernel slows and speeds with it."""
    env = {"a": 1.5, "b": 2.25, "c": 0.75, "d": 3.0}
    total = 0.0
    for i in range(rounds):
        for key in ("a", "b", "c", "d"):
            value = env[key]
            total += (value * 1.0001 + i) / (value + 1.0) ** 1.3
        env["a"] = total % 7.0 + 1.0
    return total


def reference_seconds(calls: int = 1) -> float:
    """CPU time of ``calls`` reference-kernel calls, run now on this
    thread: the speed of the CPU it runs on, without the time it waits
    for the GIL or another thread."""
    began = time.thread_time()
    for _ in range(calls):
        reference_kernel()
    return time.thread_time() - began


# -- environment --------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    path = Path(path).resolve()
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1].replace("\\040", " ")
                inside = str(path) == point or str(path).startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Content hash of the program's sources — identifies the commit
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fsync_ms(directory: Path, rounds: int = 20) -> float:
    """Median time of a small write + fsync in ``directory``: the disk
    behaviour every durable session save pays."""
    probe = Path(directory) / ".fsync-probe"
    times: List[float] = []
    try:
        for _ in range(rounds):
            began = time.perf_counter()
            with open(probe, "wb") as handle:
                handle.write(b"x" * 4096)
                handle.flush()
                os.fsync(handle.fileno())
            times.append(time.perf_counter() - began)
    finally:
        probe.unlink(missing_ok=True)
    return 1e3 * median(times)


def environment(state_dir: Optional[Path]) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "source_sha": _source_digest(),
        "state_backend": STATE_BACKEND if state_dir is not None else "none",
        "state_fs": filesystem_of(state_dir) if state_dir is not None else "none",
        "state_fsync_ms": round(fsync_ms(state_dir), 3) if state_dir is not None else None,
    }


# -- the server child -----------------------------------------------------------


class ServerChild:
    """``python -m repro serve`` (or the tracing bootstrap) as a child.

    The child binds an ephemeral port and prints its base URL; the
    benchmark reads it, then polls ``/healthz`` until the first healthy
    response.  :meth:`stop` sends SIGINT (the CLI's graceful drain) and
    waits; a child that does not exit in time is killed.
    """

    def __init__(self, state_dir: Path, spans_path: Optional[Path] = None):
        serve = ["serve", "--port", "0", "--state", str(state_dir)]
        if spans_path is None:
            argv = [sys.executable, "-u", "-m", "repro", *serve]
        else:
            argv = [sys.executable, "-u", str(ROOT / "perfbench" / "trace_serve.py"),
                    str(spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.base_url = ""
        self.host = ""
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        line = self.process.stdout.readline()
        match = re.search(r"serving at (http://([\d.]+):(\d+))", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.base_url, self.host = match.group(1), match.group(2)
        self.port = int(match.group(3))
        while True:
            try:
                with urllib.request.urlopen(self.base_url + "/healthz", timeout=5) as r:
                    if r.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """VmHWM of the child: the peak resident set so far."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def self_peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
