"""Per-user sessions and server-side state.

"Since WWW browsers do not supply user names, when PowerPlay is
initially accessed the user must identify her/himself.  The username is
passed to a Perl script which retrieves the individual user's defaults
from the PowerPlay server's local file system.  These user defaults
include the relevant hardware libraries and any previously generated
designs."

:class:`UserStore` reproduces exactly that: one JSON file per user under
a server-local directory, holding

* ``defaults`` — per-model parameter defaults remembered across visits
  ("A Perl script updates the user defaults ...");
* ``designs`` — serialized designs (via :mod:`repro.library.designio`);
* ``models`` — the user's self-defined primitives (library payloads).

A PLAY does not rewrite that document.  It appends its edit,
``{"name", "path", "items"}``, to the document's journal
(:meth:`~repro.state.backend.StateBackend.append`, durable before the
PLAY evaluates), and loading replays the records through the same
:meth:`UserSession.apply_play` the PLAY used.  Every other mutation, a
drain, and every :data:`FOLD_EVERY`-th record write the full snapshot,
which folds the journal into it.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import math
import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design, SubDesign
from ..core.parameters import check_name
from ..errors import DesignError, ParameterError, PowerPlayError, SessionError, WebError
from ..state import open_backend
from ..library.catalog import Library, LibraryEntry
from ..library.designio import design_from_payload, design_to_payload
from ..obs import get_logger, get_registry

_LOG = get_logger("session")

#: a session writes a full snapshot (folding its journal) after this
#: many journaled PLAYs
FOLD_EVERY = 64

#: one PLAY edit: (``g:<name>`` or ``p:<row>:<param>``, value text)
PlayItem = Tuple[str, str]


def _check_finite(name: str, text: str) -> None:
    """Refuse a PLAY value that parses to NaN or an infinity."""
    try:
        number = float(text.strip())
    except ValueError:
        return
    if not math.isfinite(number):
        raise ParameterError(f"{name}: {text.strip()!r} is not a finite number")


def _metric_sessions():
    return get_registry().counter(
        "powerplay_session_ops_total",
        "Session store operations (save, append, load, create, quarantine).",
        ("op",),
    )


#: what a snapshot or journal that cannot be restored raises; anything
#: else (an I/O error, say) propagates instead of quarantining the user
_CORRUPT = (PowerPlayError, ValueError, TypeError, AttributeError, KeyError)

# \Z, not $: "$" also matches before a trailing newline, which would
# let "alice\n" through and put a newline in a file name
_USERNAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]{0,31}\Z")


def validate_username(username: str) -> str:
    """Usernames become file names — keep them strictly boring."""
    if not isinstance(username, str) or not _USERNAME_RE.match(username):
        raise SessionError(
            f"invalid username {username!r}: use 1-32 letters, digits, "
            "'_', '.', '-', starting with a letter"
        )
    return username


class UserSession:
    """One user's mutable server-side state.

    The server is threaded, so one user's browser (or several tabs, or
    a scripted client) can hit the server concurrently.  :attr:`lock`
    serializes this session's mutations *and* its persistence: every
    mutator holds it through ``save()``, so the JSON snapshot written to
    disk is always internally consistent and saves for one user land in
    mutation order — no lost updates from an older payload racing past
    a newer one.  Re-entrant, because mutators call ``save()`` which
    re-acquires it.
    """

    def __init__(self, username: str, store: "UserStore"):
        self.username = validate_username(username)
        self._store = store
        self.lock = threading.RLock()
        self.defaults: Dict[str, Dict[str, float]] = {}
        self.designs: Dict[str, Design] = {}
        self.user_library = Library(
            f"{username}_models", f"models defined by {username}"
        )
        #: optional password protection — "PowerPlay can provide
        #: password-restricted access".  Stored as salted SHA-256.
        self._password_salt: str = ""
        self._password_hash: str = ""
        #: PLAY records journaled since the last snapshot
        self.journaled = 0

    # -- password protection ---------------------------------------------

    @property
    def has_password(self) -> bool:
        return bool(self._password_hash)

    @staticmethod
    def _digest(salt: str, password: str) -> str:
        return hashlib.sha256((salt + password).encode("utf-8")).hexdigest()

    def set_password(self, password: str) -> None:
        """Protect this user's designs with a password."""
        if not password or len(password) < 4:
            raise SessionError("password must be at least 4 characters")
        with self.lock:
            self._password_salt = os.urandom(8).hex()
            self._password_hash = self._digest(self._password_salt, password)
            self.save()

    def clear_password(self, current: str) -> None:
        if not self.check_password(current):
            raise SessionError("wrong password")
        with self.lock:
            self._password_salt = ""
            self._password_hash = ""
            self.save()

    def check_password(self, password: str) -> bool:
        """True when access should be granted."""
        if not self.has_password:
            return True
        candidate = self._digest(self._password_salt, password or "")
        return hmac.compare_digest(candidate, self._password_hash)

    # -- defaults ---------------------------------------------------------

    def defaults_for(self, model_name: str) -> Dict[str, float]:
        with self.lock:
            return dict(self.defaults.get(model_name, {}))

    def remember_defaults(self, model_name: str, values: Mapping[str, float]) -> None:
        with self.lock:
            merged = self.defaults.setdefault(model_name, {})
            for key, value in values.items():
                merged[key] = float(value)
            self.save()

    # -- designs ------------------------------------------------------------

    def design(self, name: str) -> Design:
        design = self.designs.get(name)
        if design is None:
            raise SessionError(
                f"user {self.username!r} has no design {name!r}"
            )
        return design

    def put_design(self, design: Design) -> None:
        with self.lock:
            self.designs[design.name] = design
            self.save()

    def delete_design(self, name: str) -> None:
        with self.lock:
            if name not in self.designs:
                raise SessionError(
                    f"user {self.username!r} has no design {name!r}"
                )
            del self.designs[name]
            self.save()

    def resolve(self, name: str, path: str = "") -> Design:
        """The design ``name``, or its sub-design at ``a/b/...``."""
        design = self.design(name)
        if path:
            for segment in path.split("/"):
                row = design.row(segment)
                if not isinstance(row, SubDesign):
                    raise WebError(f"row {segment!r} is not a sub-design")
                design = row.design
        return design

    def apply_play(
        self, name: str, path: str, items: Sequence[PlayItem]
    ) -> Tuple[Design, str]:
        """Apply one PLAY's edits in order to the resolved design.

        Returns the design and the first edit's error ("" when every
        edit applied).  An edit that fails stops the PLAY; the edits
        before it stay.  A name no formula could read (see
        :func:`~repro.core.parameters.check_name`) and a number that is
        not finite are that edit's error.  Resolution errors raise.  A
        live PLAY and a journal replay both come through here, so they
        agree.
        """
        design = self.resolve(name, path)
        try:
            for key, text in items:
                if key.startswith("g:"):
                    scope, parameter = design.scope, key[2:]
                else:
                    parts = key.split(":", 2)
                    if len(parts) != 3:
                        raise DesignError(
                            f"edit {key!r} must look like p:<row>:<parameter>"
                        )
                    scope, parameter = design.row(parts[1]).scope, parts[2]
                check_name(parameter)
                _check_finite(parameter, text)
                scope.set(parameter, text)
        except PowerPlayError as exc:
            return design, str(exc)
        return design, ""

    def play(
        self, name: str, path: str, items: Sequence[PlayItem]
    ) -> Tuple[Design, str]:
        """Apply a PLAY's edits and journal them; see :meth:`apply_play`.

        The record is durable before this returns, so memory and disk
        agree whether or not the edited design then evaluates.
        """
        with self.lock:
            design, error = self.apply_play(name, path, items)
            if items:
                self._store.append_play(
                    self.username, {"name": name, "path": path, "items": items}
                )
                self.journaled += 1
                if self.journaled >= FOLD_EVERY:
                    self.save()
        return design, error

    def replay(self, line: str) -> None:
        """Re-apply one journaled PLAY record (see :meth:`play`)."""
        record = json.loads(line)
        name, path, items = record["name"], record["path"], record["items"]
        if not (
            isinstance(name, str) and isinstance(path, str)
            and isinstance(items, list)
            and all(
                isinstance(item, list) and len(item) == 2
                and all(isinstance(part, str) for part in item)
                for item in items
            )
        ):
            raise SessionError(f"malformed PLAY record {line[:80]!r}")
        self.apply_play(name, path, [tuple(item) for item in items])

    # -- persistence ----------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": "powerplay-user/1",
            "username": self.username,
            "password_salt": self._password_salt,
            "password_hash": self._password_hash,
            "defaults": self.defaults,
            "designs": {
                name: design_to_payload(design)
                for name, design in self.designs.items()
            },
            "models": [entry.to_payload() for entry in self.user_library],
        }

    def load_payload(self, payload: Mapping) -> None:
        if payload.get("format") != "powerplay-user/1":
            raise SessionError(
                f"corrupt state for user {self.username!r}: "
                f"format {payload.get('format')!r}"
            )
        self._password_salt = payload.get("password_salt", "")
        self._password_hash = payload.get("password_hash", "")
        self.defaults = {
            model: {k: float(v) for k, v in values.items()}
            for model, values in payload.get("defaults", {}).items()
        }
        self.designs = {}
        for name, design_payload in payload.get("designs", {}).items():
            self.designs[name] = design_from_payload(design_payload)
        self.user_library = Library(
            f"{self.username}_models", f"models defined by {self.username}"
        )
        for entry_payload in payload.get("models", []):
            self.user_library.add(LibraryEntry.from_payload(entry_payload))

    def save(self) -> None:
        # hold this session's lock across serialize-and-write so (a) the
        # payload is a consistent snapshot and (b) two threads saving the
        # same user cannot persist their snapshots out of order
        with self.lock:
            self._store.save_session(self)
            self.journaled = 0


class UserStore:
    """Backend-backed session registry: one JSON document per user.

    Durable storage is delegated to a
    :class:`~repro.state.backend.StateBackend` (namespace ``"users"``).
    The default is the historical file layout — one ``<user>.json``
    under ``root``, written with the mkstemp + fsync + atomic-rename
    ritual — so a store created by any earlier version opens unchanged;
    ``serve --backend sqlite`` swaps in WAL-mode SQLite without this
    class changing shape.

    A state document that is unreadable (disk damage, manual edits, a
    foreign format), or a journal record that does not parse or apply
    (other than with the PLAY's own edit error), is **quarantined**,
    not fatal: the backend moves the snapshot and its journal aside
    together (file: ``<user>.json.corrupt[-N]`` and
    ``<user>.journal.corrupt[-N]``; SQLite: quarantine rows), the event
    is recorded in :attr:`quarantined`, and the user gets a fresh
    session — the web service keeps running and the damaged bytes are
    preserved for inspection.
    """

    NAMESPACE = "users"

    def __init__(self, root: Path, backend=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.backend = open_backend(backend, self.root)
        self._sessions: Dict[str, UserSession] = {}
        self._lock = threading.Lock()
        #: ``[(username, quarantine location, reason), ...]`` — every
        #: corrupt state document set aside since this store was created
        self.quarantined: List[tuple] = []

    def known_users(self) -> List[str]:
        return self.backend.keys(self.NAMESPACE)

    def read_disk(self, username: str) -> Optional[str]:
        """The durable (backend) copy of one user's state, folded.

        The snapshot with its journal replayed, as JSON text; the
        snapshot's own text when there is no journal (``None`` when
        there is neither).  The oracle's torn-file check compares this
        against the in-memory session, whichever backend is in play.
        Raises :class:`SessionError` when the journal cannot be folded.
        """
        username = validate_username(username)
        text = self.backend.load(self.NAMESPACE, username)
        records = self.backend.journal(self.NAMESPACE, username)
        if not records:
            return text
        scratch = UserSession(username, self)
        try:
            self._restore(scratch, text, records)
        except _CORRUPT as exc:
            raise SessionError(
                f"cannot fold {username!r}'s journal: {exc}"
            ) from exc
        return json.dumps(scratch.to_payload())

    def flush(self) -> int:
        """Persist every loaded session; returns how many were saved.

        The graceful-drain hook: every mutation is already durable (a
        snapshot, or a PLAY's journal record), so this folds each
        journal into its snapshot — and re-saves the rest, because a
        drain must not depend on "already".
        """
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.save()
        return len(sessions)

    def _quarantine(self, username: str, reason: str) -> str:
        target = self.backend.quarantine(self.NAMESPACE, username, reason)
        self.quarantined.append((username, Path(target), reason))
        _metric_sessions().inc(op="quarantine")
        _LOG.warning(
            "quarantine", user=username, moved_to=str(target), reason=reason
        )
        return target

    @staticmethod
    def _restore(
        session: UserSession, text: Optional[str], records: List[str]
    ) -> None:
        """Load a snapshot into a fresh session and replay its journal."""
        if text is not None:
            session.load_payload(json.loads(text))
        for line in records:
            session.replay(line)
        session.journaled = len(records)

    def session(self, username: str) -> UserSession:
        """Fetch (or lazily create) a user's session."""
        username = validate_username(username)
        with self._lock:
            session = self._sessions.get(username)
            if session is not None:
                return session
            session = UserSession(username, self)
            try:
                text = self.backend.load(self.NAMESPACE, username)
                records = self.backend.journal(self.NAMESPACE, username)
                if text is None and not records:
                    _metric_sessions().inc(op="create")
                    _LOG.debug("create", user=username)
                else:
                    self._restore(session, text, records)
                    _metric_sessions().inc(op="load")
                    _LOG.debug("load", user=username, replayed=len(records))
            except _CORRUPT as exc:
                self._quarantine(username, str(exc))
                # the restore may have half-populated the session
                # before failing — start over from a clean one
                session = UserSession(username, self)
            self._sessions[username] = session
            return session

    def save_session(self, session: UserSession) -> None:
        """Atomically persist one user's state (crash- and race-safe).

        The payload is fully serialized *before* the backend is
        touched, and the backend's save is atomic and durable (file:
        unique mkstemp temp + fsync + atomic rename; SQLite: one
        fsynced row transaction) — a crash at any instant leaves either
        the previous complete document or the new complete one, never a
        torn or interleaved one.  The save folds the user's journal:
        the snapshot holds every journaled PLAY.  The backend's per-key
        lock keeps two threads saving the same user from landing out of
        order.
        """
        payload = json.dumps(session.to_payload())
        with self.backend.lock(self.NAMESPACE, session.username):
            self.backend.save(self.NAMESPACE, session.username, payload)
        _metric_sessions().inc(op="save")
        _LOG.debug("save", user=session.username, bytes=len(payload))

    def append_play(self, username: str, record: dict) -> None:
        """Durably journal one PLAY record (see :meth:`UserSession.play`)."""
        with self.backend.lock(self.NAMESPACE, username):
            self.backend.append(self.NAMESPACE, username, json.dumps(record))
        _metric_sessions().inc(op="append")

    def forget(self, username: str) -> None:
        """Drop the in-memory session (state file remains)."""
        with self._lock:
            self._sessions.pop(username, None)
