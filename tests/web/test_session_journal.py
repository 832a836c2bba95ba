"""A PLAY persists its edit, not the session.

Each PLAY appends one ``{name, path, items}`` record to the user's
journal before it evaluates; loading replays the records through the
same :meth:`UserSession.apply_play`; every other mutation, a drain and
every ``FOLD_EVERY``-th record write the full snapshot.  These tests
hold the one property that matters, on both backends: the state a
reopened store rebuilds from disk is the state in memory.
"""

import json
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import SessionError
from repro.state import BACKEND_KINDS, FileBackend, open_backend
from repro.web.app import Application
from repro.web.session import FOLD_EVERY, UserStore

USER = "dana"


def make_app(root: Path, kind: str) -> Application:
    return Application(root, server_name="journal-test", backend=kind)


def reopened_payload(root: Path, kind: str, user: str = USER) -> dict:
    """What a restarted server rebuilds for ``user`` from disk alone."""
    backend = open_backend(kind, root)
    try:
        store = UserStore(root, backend=backend)
        payload = store.session(user).to_payload()
        assert store.quarantined == []
        return payload
    finally:
        backend.close()


def memory(app: Application, user: str = USER) -> dict:
    return app.users.session(user).to_payload()


def disk(app: Application, user: str = USER) -> dict:
    return json.loads(app.users.read_disk(user))


def play(app: Application, name: str = "infopad", path: str = "",
         user: str = USER, auth: str = "", **items: str):
    form = {"user": user, "name": name, **items}
    if path:
        form["path"] = path
    if auth:
        form["auth"] = auth
    return app.handle("POST", "/design", form)


@pytest.fixture(params=BACKEND_KINDS)
def kind(request):
    return request.param


@pytest.fixture
def app(tmp_path, kind):
    application = make_app(tmp_path / "state", kind)
    assert application.handle(
        "POST", "/design/load_example", {"user": USER, "example": "infopad"}
    ).status == 303
    yield application
    application.state_backend.close()


class TestFailedEvaluation:
    """A PLAY whose design then fails to evaluate answers 422 — and the
    edit it applied is on disk, so a restart does not revert it."""

    @pytest.mark.parametrize("value", ["VDD2 + 1", "1/0", "nope_name"])
    def test_edit_is_durable_although_evaluation_fails(
        self, app, kind, tmp_path, value
    ):
        response = play(app, **{"g:VDD2": value})
        assert response.status == 422
        scope = memory(app)["designs"]["infopad"]["scope"]
        assert scope["VDD2"] == {"expr": value}
        assert disk(app) == memory(app)
        assert reopened_payload(tmp_path / "state", kind) == memory(app)

    @pytest.mark.parametrize("value", ["(-2) ^ 0.5", "pow(-2, 0.5)"])
    def test_a_complex_power_is_a_form_error_also_after_a_restart(
        self, app, kind, tmp_path, value
    ):
        """Both spellings fail with ``complex result``: a 422, never a
        500, for the PLAY and for every later view of the sheet."""
        view = {"user": USER, "name": "infopad"}
        response = play(app, **{"g:VDD2": value})
        assert response.status == 422
        assert "complex result" in response.body
        assert app.handle("GET", "/design", view).status == 422
        restarted = make_app(tmp_path / "state", kind)
        try:
            assert restarted.handle("GET", "/design", view).status == 422
        finally:
            restarted.state_backend.close()


class TestJournal:
    def test_play_appends_one_record_and_keeps_the_snapshot(
        self, app, kind
    ):
        before = app.state_backend.load("users", USER)
        assert play(app, **{"g:VDD2": "1.25"}).status == 200
        assert app.state_backend.load("users", USER) == before
        (record,) = app.state_backend.journal("users", USER)
        assert json.loads(record) == {
            "name": "infopad", "path": "",
            "items": [["g:VDD2", "1.25"]],
        }

    def test_play_without_edits_appends_nothing(self, app):
        assert play(app).status == 200
        assert app.state_backend.journal("users", USER) == []

    def test_fold_threshold_writes_a_snapshot(self, app, kind, tmp_path):
        for n in range(FOLD_EVERY - 1):
            play(app, **{"g:VDD2": f"1.{n:03d}"})
        assert len(app.state_backend.journal("users", USER)) == FOLD_EVERY - 1
        play(app, **{"g:VDD2": "2.5"})
        assert app.state_backend.journal("users", USER) == []
        snapshot = json.loads(app.state_backend.load("users", USER))
        assert snapshot["designs"]["infopad"]["scope"]["VDD2"] == 2.5
        play(app, **{"g:VDD2": "2.75"})
        assert len(app.state_backend.journal("users", USER)) == 1
        assert reopened_payload(tmp_path / "state", kind) == memory(app)

    def test_other_mutations_and_drain_fold(self, app):
        play(app, **{"g:VDD2": "1.75"})
        app.handle("POST", "/design/new", {"user": USER, "name": "blank"})
        assert app.state_backend.journal("users", USER) == []
        play(app, **{"g:VDD2": "1.8"})
        assert app.flush()["sessions"] == 1
        assert app.state_backend.journal("users", USER) == []
        assert disk(app) == memory(app)

    def test_compact_snapshot(self, app):
        text = app.state_backend.load("users", USER)
        assert "\n" not in text
        assert json.loads(text) == memory(app)

    def test_indented_snapshot_of_older_versions_still_loads(
        self, app, kind, tmp_path
    ):
        payload = memory(app)
        app.state_backend.save("users", USER, json.dumps(payload, indent=1))
        assert reopened_payload(tmp_path / "state", kind) == payload

    def test_replay_after_forget_matches(self, app):
        play(app, path="custom_hardware/luminance_chip",
             **{"p:read_bank:bits": "16"})
        play(app, **{"g:VDD1": "VDD2 * 2"})
        before = memory(app)
        app.users.forget(USER)
        assert memory(app) == before
        assert app.users.quarantined == []

    def test_edit_error_stops_the_play_and_replays_the_same(
        self, app, kind, tmp_path
    ):
        response = play(app, **{
            "g:VDD1": "4.5", "p:ghost_row:bits": "3", "g:VDD2": "1.1",
        })
        assert response.status == 200
        assert "ghost_row" in response.body
        scope = memory(app)["designs"]["infopad"]["scope"]
        assert scope["VDD1"] == 4.5 and scope["VDD2"] == 1.5
        assert reopened_payload(tmp_path / "state", kind) == memory(app)

    def test_malformed_row_key_is_an_edit_error_not_a_500(self, app):
        response = play(app, **{"p:no_parameter": "3"})
        assert response.status == 200
        assert "p:&lt;row&gt;:&lt;parameter&gt;" in response.body

    def test_unresolvable_play_journals_nothing(self, app):
        assert play(app, path="radio_subsystem",
                    **{"g:VDD": "1"}).status == 400
        assert play(app, path="no_such_row", **{"g:VDD": "1"}).status == 422
        assert play(app, name="ghost", **{"g:VDD": "1"}).status == 400
        assert app.state_backend.journal("users", USER) == []

    def test_server_start_reads_no_journal(self, tmp_path, monkeypatch):
        root = tmp_path / "state"
        first = make_app(root, "file")
        first.handle("POST", "/design/load_example",
                     {"user": USER, "example": "infopad"})
        play(first, **{"g:VDD2": "1.3"})

        def refuse(*_args):
            raise AssertionError("journal read at start-up")

        monkeypatch.setattr(FileBackend, "journal", refuse)
        make_app(root, "file")  # start-up only: no session is loaded


class TestRefusedEdits:
    """A value that parses to no finite number, or a name no formula can
    read, is that edit's error: the PLAY answers 200 with the error on
    the sheet, the edits before it stay, and disk equals memory."""

    @pytest.fixture
    def fig1(self, tmp_path, kind):
        application = make_app(tmp_path / "state", kind)
        assert application.handle(
            "POST", "/design/load_example",
            {"user": USER, "example": "luminance_fig1"},
        ).status == 303
        yield application
        application.state_backend.close()

    @staticmethod
    def assert_durable(app, kind, tmp_path):
        assert disk(app) == memory(app)
        assert reopened_payload(tmp_path / "state", kind) == memory(app)

    @staticmethod
    def scopes(app):
        design = memory(app)["designs"]["luminance_fig1"]
        rows = {row["name"]: row["params"] for row in design["rows"]}
        return design["scope"], rows["output_register"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", " NaN "])
    def test_non_finite_value_in_one_item_play(self, fig1, kind, tmp_path, value):
        before = self.scopes(fig1)
        for key in ("p:output_register:bits", "g:VDD"):
            response = play(fig1, name="luminance_fig1", **{key: value})
            assert response.status == 200
            assert "is not a finite number" in response.body
        assert self.scopes(fig1) == before
        self.assert_durable(fig1, kind, tmp_path)

    def test_non_finite_value_after_a_valid_one(self, fig1, kind, tmp_path):
        response = play(fig1, name="luminance_fig1", **{
            "g:VDD": "2.0", "p:output_register:bits": "nan",
        })
        assert response.status == 200
        assert "is not a finite number" in response.body
        design_scope, register = self.scopes(fig1)
        assert design_scope["VDD"] == 2.0 and register["bits"] == 6.0
        self.assert_durable(fig1, kind, tmp_path)

    @pytest.mark.parametrize("item", [
        ["g:VDD", "nan"],                      # applied by older servers
        ["p:output_register:bits", "inf"],     # crashed the replay before
    ])
    def test_a_journaled_non_finite_value_replays_as_its_edit_error(
        self, fig1, kind, tmp_path, item
    ):
        before = memory(fig1)
        fig1.state_backend.append("users", USER, json.dumps(
            {"name": "luminance_fig1", "path": "", "items": [item]}))
        assert reopened_payload(tmp_path / "state", kind) == before

    @pytest.mark.parametrize("key", [
        "g:", "g: VDD", "g:a b", "g:1abc", "p:output_register:",
    ])
    def test_a_name_no_formula_can_read_is_refused(
        self, fig1, kind, tmp_path, key
    ):
        before = self.scopes(fig1)
        response = play(fig1, name="luminance_fig1", **{key: "3"})
        assert response.status == 200
        assert "parameter name" in response.body
        assert self.scopes(fig1) == before
        self.assert_durable(fig1, kind, tmp_path)


class TestCorruptJournal:
    def damage_last_record(self, app, kind, text):
        backend = app.state_backend
        if isinstance(backend, FileBackend):
            path = backend.journal_path("users", USER)
            lines = path.read_bytes().split(b"\n")
            lines[-2] = text.encode("utf-8")
            path.write_bytes(b"\n".join(lines))
        else:
            connection = backend._connection()
            connection.execute(
                "UPDATE journal SET body = ? WHERE seq = "
                "(SELECT MAX(seq) FROM journal)", (text,))

    @pytest.mark.parametrize("damage", [
        '{"name": "infopad", "path": "", "ite',       # does not parse
        '{"name": "infopad", "path": ""}',            # no items
        '{"name": 5, "path": "", "items": []}',       # wrong type
        '{"name": "infopad", "path": "", "items": [["g:VDD2"]]}',
        '{"name": "ghost", "path": "", "items": [["g:VDD", "1"]]}',
        '{"name": "infopad", "path": "radio_subsystem", "items": []}',
        '[1, 2, 3]',
    ])
    def test_complete_damaged_record_quarantines_snapshot_and_journal(
        self, app, kind, tmp_path, damage
    ):
        play(app, **{"g:VDD2": "1.2"})
        play(app, **{"g:VDD2": "1.3"})
        self.damage_last_record(app, kind, damage)
        with pytest.raises(SessionError):
            app.users.read_disk(USER)

        restarted = make_app(tmp_path / "state", kind)
        try:
            assert restarted.users.session(USER).designs == {}
            ((user, _where, reason),) = restarted.users.quarantined
            assert user == USER and reason
            assert restarted.state_backend.load("users", USER) is None
            assert restarted.state_backend.journal("users", USER) == []
        finally:
            restarted.state_backend.close()

    def test_a_records_own_edit_error_is_not_corruption(
        self, app, kind, tmp_path
    ):
        play(app, **{"g:VDD2": "(("})  # the PLAY's own ParseError
        assert reopened_payload(tmp_path / "state", kind) == memory(app)

    def test_torn_tail_is_dropped_without_quarantine(self, tmp_path):
        root = tmp_path / "state"
        app = make_app(root, "file")
        app.handle("POST", "/design/load_example",
                   {"user": USER, "example": "infopad"})
        play(app, **{"g:VDD2": "1.2"})
        expected = memory(app)
        with open(app.state_backend.journal_path("users", USER), "ab") as f:
            f.write(b'{"name": "infopad", "pa')  # killed mid-append
        assert reopened_payload(root, "file") == expected
        restarted = make_app(root, "file")
        play(restarted, **{"g:VDD2": "1.4"})
        assert reopened_payload(root, "file") == memory(restarted)


def _random_value(rng: random.Random, name: str) -> str:
    return rng.choice([
        f"{rng.uniform(0.5, 5.0):.6g}",
        f"{rng.uniform(0.5, 5.0):.6g}",
        "-3",                 # below a declared minimum, where declared
        "VDD2 * 0.9",
        f"{name} + 1",        # a cycle: evaluation fails (422)
        "1/0",                # evaluation fails (422)
        "nope_name",          # unknown name: evaluation fails (422)
        "((",                 # parse error: the PLAY's own error
        "2e6",
    ])


def _random_play(rng: random.Random, session) -> dict:
    name = rng.choice(sorted(session.designs))
    paths = [""]
    if "custom_hardware" in session.designs[name]:
        paths += ["custom_hardware", "custom_hardware/luminance_chip",
                  "custom_hardware/chroma_chips"]
    path = rng.choice(paths)
    if rng.random() < 0.03:
        path = rng.choice(["radio_subsystem", "no_such_row"])
    design = session.resolve(name, "" if path not in paths else path)
    items = {}
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            key = rng.choice(["VDD", "VDD1", "VDD2", "f_pixel", "k"])
            items[f"g:{key}"] = _random_value(rng, key)
        else:
            row = rng.choice(design.row_names() + ["ghost"])
            parameter = rng.choice(["bits", "words", "f", "tx_duty"])
            key = rng.choice([f"p:{row}:{parameter}", f"p:{row}"])
            items[key] = _random_value(rng, parameter)
    return {"name": name, "path": path, **items}


@pytest.mark.parametrize("seed", [11, 12])
def test_random_play_sequences_replay_to_memory(tmp_path, kind, seed):
    """Seeded random PLAYs — rejected values, failing evaluations,
    formulas, sub-design paths — interleaved with every other kind of
    mutation, with a burst that crosses the fold threshold.  Every 4
    steps the folded disk state equals memory; every 40 steps, and at
    the end, so does a reopened store's."""
    rng = random.Random(seed)
    root = tmp_path / "state"
    app = make_app(root, kind)
    auth = ""

    def send(route, **form):
        form["user"] = USER
        if auth:
            form["auth"] = auth
        response = app.handle("POST", route, form)
        assert response.status < 500, (route, form, response.status)
        return response

    send("/design/load_example", example="infopad")
    steps = 260
    burst_at = rng.randrange(20, steps - FOLD_EVERY - 30)
    folds_seen = 0
    for step in range(steps):
        session = app.users.session(USER)
        in_burst = burst_at <= step < burst_at + FOLD_EVERY + 20
        roll = 1.0 if in_burst else rng.random()
        if roll < 0.04:
            send("/design/load_example",
                 example=rng.choice(["infopad", "luminance_fig1"]))
        elif roll < 0.07:
            send("/cell/save", name="multiplier",
                 design=rng.choice(sorted(session.designs)),
                 row=f"mult{step}",
                 **{"p:bitwidthA": "16", "p:bitwidthB": "8"})
        elif roll < 0.09:
            send("/define", name=f"model{step}",
                 equation="taps * 12f * VDD^2 * f", parameters="taps=64")
        elif roll < 0.10 and not auth:
            location = send("/password", password="secret").headers[
                "Location"]
            auth = location.split("auth=", 1)[1]
        elif roll < 0.13:
            app.users.forget(USER)
        else:
            before = session.journaled
            form = _random_play(rng, session)
            send("/design", **form)
            if before == FOLD_EVERY - 1 and session.journaled == 0:
                folds_seen += 1
        if step % 4 == 3:
            assert disk(app) == memory(app), f"step {step}"
        if step % 40 == 39:
            assert reopened_payload(root, kind) == memory(app), f"step {step}"
    assert folds_seen >= 1
    assert reopened_payload(root, kind) == memory(app)
    assert app.users.quarantined == []
    app.state_backend.close()


def test_concurrent_plays_keep_disk_equal_to_memory(tmp_path, kind):
    """More threads than cores, a short switch interval: PLAYs on six
    users, two threads per user, crossing the fold threshold.  Every
    journal must replay to the in-memory state."""
    root = tmp_path / "state"
    app = make_app(root, kind)
    users = [f"u{n}" for n in range(6)]
    for user in users:
        app.handle("POST", "/design/load_example",
                   {"user": user, "example": "luminance_fig1"})
    errors = []

    def worker(user, offset):
        try:
            for n in range(FOLD_EVERY // 2 + 8):
                response = play(app, name="luminance_fig1", user=user, **{
                    "g:VDD": f"{1.0 + (n * 2 + offset) / 1000:.4f}",
                    "p:lut:bits": str(4 + (n + offset) % 8),
                })
                if response.status != 200:
                    errors.append((user, response.status))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(user, offset))
               for user in users for offset in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for user in users:
        assert disk(app, user) == memory(app, user), user
        assert reopened_payload(root, kind, user) == memory(app, user), user
    app.state_backend.close()
