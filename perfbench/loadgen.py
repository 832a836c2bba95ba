"""The load generator: one process, at most ``nproc`` threads/connections.

The server speaks HTTP/1.0, so every request opens its own connection;
:class:`Client` counts how many are open at once and refuses to exceed
its limit, which the self-tests check.
"""

from __future__ import annotations

import http.client
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

REQUEST_HEADER = "X-PowerPlay-Request"


@dataclass
class Outcome:
    """One operation as the client saw it."""

    op: Dict
    due: float
    sent: float
    done: float
    status: int
    request_id: str
    #: "" when the operation succeeded, else why it failed
    error: str
    #: what the post-run oracle needs from the response (may be "")
    evidence: str = ""
    #: time of the reference-kernel call the sender ran right after this
    #: operation (0.0 when it ran none)
    reference_s: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from when the operation was due to its response."""
        return self.done - self.due


class Client:
    def __init__(self, host: str, port: int, limit: int):
        self.host, self.port, self.limit = host, port, limit
        self._lock = threading.Lock()
        self.open_now = 0
        self.peak_open = 0
        self.opened = 0

    def _acquire(self) -> None:
        with self._lock:
            if self.open_now >= self.limit:
                raise RuntimeError(
                    f"load generator would exceed {self.limit} connections")
            self.open_now += 1
            self.opened += 1
            self.peak_open = max(self.peak_open, self.open_now)

    def _release(self) -> None:
        with self._lock:
            self.open_now -= 1

    def request(self, method: str, path: str,
                form: Optional[Dict[str, str]] = None
                ) -> Tuple[int, Dict[str, str], str]:
        body = urllib.parse.urlencode(form) if form is not None else None
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/x-www-form-urlencoded"
        self._acquire()
        try:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                text = response.read().decode("utf-8", "replace")
                return response.status, dict(response.getheaders()), text
            finally:
                conn.close()
        finally:
            self._release()


#: (op) -> (method, path, form)
Render = Callable[[Dict], Tuple[str, str, Optional[Dict[str, str]]]]
#: (op, status, headers, body) -> (error or "", evidence)
Check = Callable[[Dict, int, Dict[str, str], str], Tuple[str, str]]


def send(client: Client, op: Dict, render: Render, check: Check,
         due: Optional[float] = None) -> Outcome:
    method, path, form = render(op)
    sent = time.perf_counter()
    try:
        status, headers, body = client.request(method, path, form)
    except (OSError, http.client.HTTPException) as exc:
        done = time.perf_counter()
        return Outcome(op, sent if due is None else due, sent, done, 0, "",
                       f"transport: {exc!r}")
    done = time.perf_counter()
    if status >= 500:
        error, evidence = f"HTTP {status}", ""
    else:
        error, evidence = check(op, status, headers, body)
    return Outcome(op, sent if due is None else due, sent, done, status,
                   headers.get(REQUEST_HEADER, ""), error, evidence)


def closed_loop(client: Client, streams: Sequence[Iterator[Dict]],
                render: Render, check: Check, until: float,
                reference: Optional[Callable[[], float]] = None
                ) -> List[List[Outcome]]:
    """One thread per stream; each sends its next op only when the
    previous one returned, until ``until`` (a perf_counter time).

    With ``reference``, each sender calls it after every operation, before
    the next send, and keeps its result on the outcome.
    """
    results: List[List[Outcome]] = [[] for _ in streams]

    def worker(index: int) -> None:
        for op in streams[index]:
            if time.perf_counter() >= until:
                return
            outcome = send(client, op, render, check)
            if reference is not None:
                outcome.reference_s = reference()
            results[index].append(outcome)

    _run_threads(worker, len(streams))
    return results


def open_loop(client: Client, schedule: Sequence[Tuple[float, Dict]],
              render: Render, check: Check, start: float, threads: int
              ) -> List[Outcome]:
    """Send each op at ``start + offset`` from a pool of ``threads``
    senders; an op whose sender is busy goes out late, and its latency
    still counts from when it was due."""
    results: List[Optional[Outcome]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def worker(_index: int) -> None:
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            offset, op = schedule[position]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            results[position] = send(client, op, render, check, due=due)

    _run_threads(worker, threads)
    return [outcome for outcome in results if outcome is not None]


def _run_threads(target: Callable[[int], None], count: int) -> None:
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,), daemon=True)
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
