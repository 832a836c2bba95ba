"""Properties of the user-keyed shard function.

The pre-fork front's correctness argument rests on three properties of
``shard_for``: it is a *function* of (user, workers) alone (no process
salt — workers must all agree), it always lands in range, and it covers
the whole worker set (no starved worker for a realistic population).
Hypothesis drives the key space; a subprocess check proves the
cross-process stability that ``hash()`` would silently break.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.web.prefork import request_user, shard_for

#: the username grammar UserStore accepts (session.validate_username)
usernames = st.from_regex(r"[A-Za-z][A-Za-z0-9_.-]{0,31}", fullmatch=True)

worker_counts = st.integers(min_value=1, max_value=16)


class TestShardFunction:
    @given(usernames, worker_counts)
    def test_in_range(self, user, workers):
        assert 0 <= shard_for(user, workers) < workers

    @given(usernames, worker_counts)
    def test_deterministic(self, user, workers):
        assert shard_for(user, workers) == shard_for(user, workers)

    @given(usernames)
    def test_single_worker_owns_everything(self, user):
        assert shard_for(user, 1) == 0

    @given(usernames, worker_counts)
    def test_exactly_one_owner(self, user, workers):
        """A user's mutations land on exactly one worker: the owner
        set over the whole worker range is a single index."""
        owners = {
            index
            for index in range(workers)
            if shard_for(user, workers) == index
        }
        assert len(owners) == 1

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_full_coverage_of_worker_set(self, workers):
        """The loadgen population (load_user0..N) exercises every
        worker — no shard is structurally starved."""
        population = [f"load_user{i}" for i in range(64)]
        owners = {shard_for(user, workers) for user in population}
        assert owners == set(range(workers))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_roughly_uniform(self, workers):
        counts = [0] * workers
        for i in range(400):
            counts[shard_for(f"user{i}", workers)] += 1
        expected = 400 / workers
        for count in counts:
            assert expected * 0.5 <= count <= expected * 1.5

    def test_stable_across_processes(self):
        """The reason it's blake2b and not hash(): a different process
        must compute the very same owners."""
        users = [f"load_user{i}" for i in range(20)] + ["alice", "Bob.X-1"]
        script = (
            "from repro.web.prefork import shard_for\n"
            "import sys\n"
            "for user in sys.argv[1:]:\n"
            "    print(user, shard_for(user, 4))\n"
        )
        output = subprocess.check_output(
            [sys.executable, "-c", script, *users],
            text=True,
            env={**os.environ, "PYTHONPATH": "src",
                 "PYTHONHASHSEED": "random"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        for line in output.strip().splitlines():
            user, owner = line.rsplit(" ", 1)
            assert shard_for(user, 4) == int(owner), user


class TestRequestUser:
    @given(usernames)
    def test_query_user_extracted(self, user):
        assert request_user(f"/menu?user={user}") == user

    @given(usernames)
    def test_form_overrides_query(self, user):
        assert (
            request_user("/menu?user=somebodyelse", {"user": user}) == user
        )

    @given(usernames, worker_counts)
    def test_shard_decision_matches_application_lock_key(
        self, user, workers
    ):
        """The worker that handles the request serializes on the same
        (validated) name the shard decision used."""
        extracted = request_user(f"/design/play?user={user}&design=d")
        assert extracted == user
        assert shard_for(extracted, workers) == shard_for(user, workers)

    def test_invalid_or_missing_user_handled_anywhere(self):
        assert request_user("/metrics") == ""
        assert request_user("/menu?user=3bad") == ""
        assert request_user("/menu?user=") == ""
        assert request_user("/menu", {"user": "has space"}) == ""

    def test_query_percent_encoding_decoded(self):
        # %41 is "A": the decision must see the decoded name, as the
        # Application's parser does
        assert request_user("/menu?user=%41lice") == "Alice"


class TestFrontPlatform:
    def test_front_without_reuseport_fails_before_spawning(
        self, monkeypatch, tmp_path
    ):
        import socket

        from repro.errors import StateError
        from repro.web.prefork import MultiWorkerFront

        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        front = MultiWorkerFront(tmp_path / "state", workers=2)
        with pytest.raises(StateError, match="SO_REUSEPORT"):
            front.start()
        assert front.exit_codes() == {}
