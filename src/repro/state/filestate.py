"""The file backend: the historical on-disk layout.

One ``<key>.json`` per document.  The layout is what the stores wrote
before the :class:`~repro.state.backend.StateBackend` interface
existed, so a state directory created by any earlier version opens
unchanged under this backend.  The encoding is not kept: user
documents and job checkpoints are now written compact (no indent),
which every version's ``json.loads`` reads.

* ``users``    -> ``<root>/<user>.json`` (sessions live at the root,
  as they have since PR 1);
* ``jobs``     -> ``<root>/jobs/<job-id>.json``;
* ``registry`` -> ``<root>/registry/<kind>--<name>--vN.json`` and
  ``<root>/registry/pins.json``.

Durability is :mod:`repro.state.fsio`'s atomic-write ritual (mkstemp +
fsync + atomic rename + directory fsync); quarantine is the historical
``<key>.json.corrupt[-N]`` rename.  Nothing here takes a global lock
around file IO: ``os.replace`` is atomic per key, so concurrent saves
of *different* keys proceed in parallel, and concurrent saves of the
*same* key are last-writer-wins with no interleaving — the old global
store lock only ever protected Python dict state, which now lives in
the stores, not the backend.

A document's journal is ``<key>.journal`` beside it, an
:func:`~repro.state.fsio.append_line` file.  Its first line names the
SHA-256 of the snapshot it extends (``{"extends": "<hex>"}``; empty
when there is none).  :meth:`FileBackend.save` replaces the snapshot,
then unlinks the journal.  A crash between the two leaves a journal
whose header names the old snapshot: :meth:`FileBackend.journal`
ignores it and the next append replaces it, so a folded record is
never replayed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import StateError
from . import fsio
from .backend import StateBackend

#: document keys become file names — keep them strictly boring.  The
#: callers already validate (usernames, job ids, artifact refs); this
#: is the backend's own defense in depth.
_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.@-]{0,127}\Z")

#: namespace -> subdirectory relative to the root.  ``.`` means the
#: root itself (the sessions' historical home).
DEFAULT_LAYOUT: Mapping[str, str] = {"users": "."}


def _log():
    # imported on use: repro.obs imports this package
    from ..obs.logs import get_logger

    return get_logger("state")


def validate_doc_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise StateError(f"invalid document key {key!r}")
    return key


class FileBackend(StateBackend):
    """Document store over one JSON file per key (see module docstring).

    ``layout`` maps namespaces to subdirectories; unlisted namespaces
    live in a subdirectory named after the namespace.  A store that
    roots its own private backend (``JobStore(path)`` with no shared
    backend) passes ``layout={"jobs": "."}`` so the historical paths
    are preserved exactly.
    """

    kind = "file"

    def __init__(
        self, root: Path, layout: Optional[Mapping[str, str]] = None
    ):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._layout: Dict[str, str] = dict(
            DEFAULT_LAYOUT if layout is None else layout
        )
        #: (namespace, key) -> the header of a journal this backend has
        #: checked against the current snapshot (absent, or extends it)
        self._headers: Dict[Tuple[str, str], str] = {}

    # -- paths -------------------------------------------------------------

    def _dir(self, namespace: str) -> Path:
        relative = self._layout.get(namespace, namespace)
        directory = (
            self.root if relative in ("", ".") else self.root / relative
        )
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def doc_path(self, namespace: str, key: str) -> Path:
        """Where one document lives (file backend only — tests and the
        oracle use this to corrupt/inspect raw bytes)."""
        return self._dir(namespace) / f"{validate_doc_key(key)}.json"

    def journal_path(self, namespace: str, key: str) -> Path:
        """Where one document's journal lives (file backend only)."""
        return self._dir(namespace) / f"{validate_doc_key(key)}.journal"

    # -- documents ---------------------------------------------------------

    def save(self, namespace: str, key: str, text: str) -> None:
        fsio.atomic_write_text(self.doc_path(namespace, key), text)
        self._drop_journal(namespace, key)

    def load(self, namespace: str, key: str) -> Optional[str]:
        try:
            return self.doc_path(namespace, key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def delete(self, namespace: str, key: str) -> bool:
        existed = self._drop_journal(namespace, key)
        try:
            self.doc_path(namespace, key).unlink()
            return True
        except FileNotFoundError:
            return existed

    # -- journal -----------------------------------------------------------

    def _header(self, namespace: str, key: str) -> str:
        """The first line of a journal extending the current snapshot."""
        text = self.load(namespace, key)
        digest = (
            "" if text is None
            else hashlib.sha256(text.encode("utf-8")).hexdigest()
        )
        return json.dumps({"extends": digest})

    def _drop_journal(self, namespace: str, key: str) -> bool:
        self._headers.pop((namespace, key), None)
        try:
            self.journal_path(namespace, key).unlink()
            return True
        except FileNotFoundError:
            return False

    def append(self, namespace: str, key: str, text: str) -> None:
        if "\n" in text:
            raise StateError("a journal record must be a single line")
        ref = (namespace, key)
        path = self.journal_path(namespace, key)
        header = self._headers.get(ref)
        if header is None:
            header = self._header(namespace, key)
            lines, _torn = fsio.read_lines(path)
            if lines and lines[0] != header.encode("utf-8"):
                path.unlink()  # stale: extends a snapshot since replaced
            self._headers[ref] = header
        try:
            fsio.append_line(path, text, header=header)
        except BaseException:
            # re-check the file before the next append
            self._headers.pop(ref, None)
            raise

    def journal(self, namespace: str, key: str) -> List[str]:
        lines, torn = fsio.read_lines(self.journal_path(namespace, key))
        if torn:
            _log().warning(
                "journal_torn_tail", namespace=namespace, key=key,
                kept_records=max(0, len(lines) - 1),
            )
        if not lines:
            return []
        header = self._header(namespace, key)
        if lines[0] != header.encode("utf-8"):
            _log().warning(
                "journal_stale", namespace=namespace, key=key,
                ignored_records=len(lines) - 1,
            )
            return []
        self._headers[(namespace, key)] = header
        try:
            return [line.decode("utf-8") for line in lines[1:]]
        except UnicodeDecodeError as exc:
            raise StateError(
                f"journal of {namespace}/{key} is not UTF-8: {exc}"
            ) from None

    def keys(self, namespace: str) -> List[str]:
        return sorted(
            path.stem
            for path in self._dir(namespace).glob("*.json")
            if not path.name.startswith(".") and _KEY_RE.match(path.stem)
        )

    def mtime(self, namespace: str, key: str) -> Optional[float]:
        try:
            return self.doc_path(namespace, key).stat().st_mtime
        except OSError:
            return None

    def quarantine(self, namespace: str, key: str, reason: str) -> str:
        self._headers.pop((namespace, key), None)
        moved = []
        for path in (
            self.doc_path(namespace, key), self.journal_path(namespace, key)
        ):
            try:
                moved.append(str(fsio.quarantine_file(path)))
            except OSError:
                pass
        if not moved:
            return ""
        self.quarantined.append((namespace, key, moved[0], reason))
        return moved[0]

    # -- lifecycle / health ------------------------------------------------

    def writable(self) -> bool:
        return fsio.probe_writable(self.root)
