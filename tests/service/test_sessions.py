"""Tests for the session store: scheduler, TTL, rate limiting, persistence."""

import json
import logging
import os
import time
from dataclasses import replace

import pytest

from repro import Example, Table
from repro.api import SynthesisRequest, create_session
from repro.service import (
    RateLimited,
    ServiceSession,
    SessionStore,
    TokenBucket,
    UnknownSession,
)

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
#: A second example that rules out the first program found for STUDENTS -> ADULTS.
DISTINGUISHER = Example.make(
    [Table(["name", "age", "gpa"], [["Zoe", 8, 3.5], ["Max", 20, 2.0]])],
    Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
)


def filter_request(**knobs):
    knobs.setdefault("timeout", 20)
    return SynthesisRequest.from_tables([STUDENTS], ADULTS, **knobs)


def wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture
def store():
    store = SessionStore(ttl=None, rate=1000, burst=1000)
    yield store
    store.close()


@pytest.fixture
def manual_store():
    """A store whose scheduler thread is stopped: tests drive ``_rotate``."""
    store = SessionStore(ttl=None, rate=1000, burst=1000)
    store._stop.set()
    store._wake.set()
    store._scheduler.join(timeout=5)
    yield store
    store.close()


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=0.001, burst=3)
        assert [bucket.allow() for _ in range(4)] == [True, True, True, False]
        assert bucket.denied == 1

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=1000, burst=1)
        assert bucket.allow()
        assert not bucket.allow()
        time.sleep(0.01)
        assert bucket.allow()

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(burst=0)


class TestSessionStore:
    def test_scheduler_drives_sessions_to_completion(self, store):
        session = store.create(filter_request())
        assert wait_until(lambda: session.session.finished)
        assert session.session.status == "done"
        assert session.session.candidates

    def test_round_robin_serves_concurrent_sessions(self, store):
        sessions = [store.create(filter_request()) for _ in range(3)]
        assert wait_until(lambda: all(s.session.finished for s in sessions))
        programs = {s.session.candidates[0].program for s in sessions}
        assert len(programs) == 1  # identical tasks, identical programs

    def test_get_unknown_session_raises(self, store):
        with pytest.raises(UnknownSession):
            store.get("not-a-session")

    def test_add_example_resumes_and_reenrolls(self, store):
        session = store.create(filter_request())
        assert wait_until(lambda: session.session.finished)
        steps_before = session.session.steps
        store.add_example(
            session.id,
            Example.make(
                [Table(["name", "age", "gpa"], [["Zoe", 8, 3.5], ["Max", 20, 2.0]])],
                Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
            ),
        )
        assert session.session.resumes == 1
        assert wait_until(lambda: session.session.finished, timeout=40.0)
        assert session.session.steps > steps_before
        assert any(c.validated for c in session.session.candidates)

    def test_finished_sessions_release_their_scheduler_slot(self, store):
        session = store.create(filter_request())
        assert wait_until(lambda: session.session.finished)
        # The rotation holds no reference to a finished session: it must not
        # keep finished (and later expired) sessions reachable forever.
        assert wait_until(lambda: len(store._rotation) == 0)
        assert not session._enrolled

    def test_metrics_aggregate_counters(self, store):
        session = store.create(filter_request())
        assert wait_until(lambda: session.session.finished)
        metrics = store.metrics()
        assert metrics["sessions_live"] == 1
        assert metrics["sessions_created_total"] == 1
        assert metrics["kernel_steps_total"] > 0

    def test_rate_limited_create_raises(self):
        store = SessionStore(ttl=None, rate=0.001, burst=1)
        try:
            store.create(filter_request())
            with pytest.raises(RateLimited):
                store.create(filter_request())
            assert store.metrics()["rate_limited_total"] == 1
        finally:
            store.close()


class TestRotation:
    def test_each_pass_grants_every_enrolled_session_one_slice(
        self, manual_store, monkeypatch
    ):
        # The rotation calls ServiceSession.advance through the class
        # attribute, so a class-level wrapper (the perfbench tracer's
        # ``service.advance`` span) sees every slice.
        slices = []
        original = ServiceSession.advance

        def counted(session, max_steps):
            slices.append((session.id, max_steps))
            return original(session, max_steps)

        monkeypatch.setattr(ServiceSession, "advance", counted)
        sessions = [manual_store.create(filter_request()) for _ in range(3)]
        manual_store._rotate()
        assert slices == [(session.id, 64) for session in sessions]
        late = manual_store.create(filter_request())
        slices.clear()
        while manual_store._rotate():
            pass
        assert late.id in {session_id for session_id, _ in slices}
        assert all(s.session.finished for s in sessions + [late])
        assert len(manual_store._rotation) == 0

    def test_raising_session_fails_alone(self, manual_store, monkeypatch):
        broken = manual_store.create(filter_request())
        healthy = manual_store.create(filter_request())

        def raising(max_steps=64):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(broken.session, "advance", raising)
        while manual_store._rotate():
            pass
        assert broken.status == "failed"
        assert broken.error == "RuntimeError: injected fault"
        assert healthy.session.status == "done" and healthy.error is None
        assert len(manual_store._rotation) == 0

    def test_expired_sessions_leave_the_rotation_unstepped(self, manual_store):
        session = manual_store.create(filter_request())
        session.expired = True
        assert manual_store._rotate() == 0
        assert session.session.steps == 0
        assert not session._enrolled


class TestRelease:
    def test_settled_sessions_hold_no_kernel(self, manual_store):
        sessions = [manual_store.create(filter_request()) for _ in range(2)]
        assert manual_store.metrics()["kernels_live"] == 2
        while manual_store._rotate():
            pass
        assert all(s.session.status == "done" for s in sessions)
        assert manual_store.metrics()["kernels_live"] == 0

        # The example reopens the quota: the session's next slice rebuilds
        # its kernel, which replays to where it stopped, searches on, and
        # is released again when the session settles.
        reopened = sessions[0]
        manual_store.add_example(reopened.id, DISTINGUISHER)
        assert reopened.session.status == "searching"
        manual_store._rotate()
        assert manual_store.metrics()["kernels_live"] == 1
        while manual_store._rotate():
            pass
        assert reopened.session.finished
        assert any(c.validated for c in reopened.session.candidates)
        assert manual_store.metrics()["kernels_live"] == 0

    def test_a_failed_session_holds_no_kernel(self, manual_store, monkeypatch):
        broken = manual_store.create(filter_request())

        def raising(max_steps=64):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(broken.session, "advance", raising)
        manual_store._rotate()
        assert broken.status == "failed"
        assert broken.session.released
        assert manual_store.metrics()["kernels_live"] == 0


class TestEnrollmentRace:
    def test_resume_in_the_unenroll_gap_is_not_lost(self, manual_store):
        """A client adding an example right as the final slice ends must not
        strand the resumed session outside the scheduler rotation.

        The race window is after the slice releases the work lock (the
        post-slice ``notify_all``) and before the scheduler decides whether
        the session leaves the rotation.  The store is driven by hand so the
        window is hit deterministically: a proxy condition injects the
        ``add_example`` exactly there.  Before the registry-lock fix the
        session stayed ``searching`` forever (``_enrolled`` still true when
        ``_enroll`` checked, then dropped by the scheduler).
        """
        store = manual_store
        session = store.create(filter_request())
        real_changed = session.changed
        injected = []

        class InjectingCondition:
            def __enter__(self):
                return real_changed.__enter__()

            def __exit__(self, *args):
                return real_changed.__exit__(*args)

            def wait(self, timeout=None):
                return real_changed.wait(timeout)

            def notify_all(self):
                real_changed.notify_all()
                if session.session.finished and not injected:
                    injected.append(True)
                    store.add_example(
                        session.id,
                        Example.make(
                            [Table(["name", "age", "gpa"],
                                   [["Zoe", 8, 3.5], ["Max", 20, 2.0]])],
                            Table(["name", "age", "gpa"],
                                  [["Max", 20, 2.0]]),
                        ),
                    )

        session.changed = InjectingCondition()
        while store._rotate():
            pass
        session.changed = real_changed
        assert injected
        assert session.session.resumes == 1
        # The resumed search kept its rotation slot (or was re-enrolled)
        # and ran to completion instead of hanging in 'searching'.
        assert session.session.finished
        assert any(c.validated for c in session.session.candidates)


    def test_resume_in_the_release_gap_keeps_its_kernel(self, manual_store):
        """An example added after the final slice woke the readers, but
        before the scheduler releases the settled session, reopens the
        kernel it still holds: the release must not drop it."""
        store = manual_store
        session = store.create(filter_request())
        real_changed = session.changed
        kernels = []

        class InjectingCondition:
            def __enter__(self):
                return real_changed.__enter__()

            def __exit__(self, *args):
                return real_changed.__exit__(*args)

            def notify_all(self):
                real_changed.notify_all()
                if session.session.finished and not kernels:
                    kernels.append(session.session._kernel)
                    store.add_example(session.id, DISTINGUISHER)

        session.changed = InjectingCondition()
        while not kernels:
            store._rotate()
        session.changed = real_changed
        assert session.session._kernel is kernels[0]
        assert session._enrolled and session.session.status == "searching"
        while store._rotate():
            pass
        assert session.session.released
        assert any(c.validated for c in session.session.candidates)


class TestTTL:
    def test_idle_sessions_expire(self):
        store = SessionStore(ttl=0.05, rate=1000, burst=1000)
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.expired, timeout=10.0)
            assert session.status == "expired"
            with pytest.raises(UnknownSession):
                store.get(session.id)
            assert store.metrics()["sessions_expired_total"] == 1
        finally:
            store.close()


    def test_totals_survive_expiry(self):
        # /metrics used to sum only live sessions, so a TTL expiry took the
        # expired session's work out of every *_total counter.
        store = SessionStore(ttl=None, rate=1000, burst=1000)
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.session.finished)
            before = store.metrics()
            assert before["kernel_steps_total"] > 0
            assert before["exec_cache_hits_total"] > 0
            store.ttl = 0.05
            assert wait_until(lambda: session.expired, timeout=10.0)
            after = store.metrics()
            assert after["sessions_live"] == 0
            for name, value in before.items():
                if name.endswith("_total"):
                    assert after[name] >= value, (name, value, after[name])
        finally:
            store.close()

    def test_expiry_deletes_the_persisted_file(self, tmp_path):
        # The TTL sweep used to drop expired sessions from memory but leave
        # <persist_dir>/<id>.json behind forever; expiry must remove it.
        store = SessionStore(
            ttl=0.05, rate=1000, burst=1000, persist_dir=str(tmp_path)
        )
        try:
            session = store.create(filter_request())
            path = tmp_path / f"{session.id}.json"
            assert wait_until(path.exists)
            assert wait_until(lambda: session.expired, timeout=10.0)
            assert wait_until(lambda: not path.exists(), timeout=10.0)
            assert not os.path.exists(str(path) + ".tmp")
        finally:
            store.close()


class TestPersistExpireRace:
    """A sweep that runs between a session's change and its file write."""

    @pytest.fixture
    def store(self, tmp_path):
        # Sessions expire only when a test calls _sweep.
        store = SessionStore(ttl=3600, rate=1000, burst=1000, persist_dir=str(tmp_path))
        store._stop.set()
        store._wake.set()
        store._scheduler.join(timeout=5)
        yield store
        store.close()

    @staticmethod
    def sweep_before_each_write(store, monkeypatch):
        persist = store._persist

        def sweep_then_persist(session):
            session.last_access -= 2 * store.ttl
            store._sweep()
            persist(session)

        monkeypatch.setattr(store, "_persist", sweep_then_persist)

    def test_create_writes_the_file_before_a_sweep_can_see_the_session(
        self, store, tmp_path, monkeypatch
    ):
        self.sweep_before_each_write(store, monkeypatch)
        session = store.create(filter_request())
        assert not session.expired
        assert store.get(session.id) is session
        assert persisted(tmp_path, session.id)["id"] == session.id
        # A later expiry still removes the file.
        session.last_access -= 2 * store.ttl
        store._sweep()
        assert session.expired
        assert os.listdir(tmp_path) == []

    def test_an_example_added_to_an_expiring_session_writes_no_file(
        self, store, tmp_path, monkeypatch
    ):
        session = store.create(filter_request())
        self.sweep_before_each_write(store, monkeypatch)
        store.add_example(session.id, DISTINGUISHER)
        assert session.expired
        assert os.listdir(tmp_path) == []


class TestKnowledgeBase:
    def test_store_opens_a_shared_kb_and_reports_metrics(self, tmp_path):
        kb_path = str(tmp_path / "service.kb")
        store = SessionStore(ttl=None, rate=1000, burst=1000, kb_path=kb_path)
        try:
            first = store.create(filter_request())
            assert wait_until(lambda: first.session.finished)
            metrics = store.metrics()
            assert metrics["kb_entries"] > 0
            assert metrics["kb_stores_total"] > 0
            # A second session over the same example warm-starts from the
            # facts the first one persisted.
            second = store.create(filter_request())
            assert wait_until(lambda: second.session.finished)
            assert store.metrics()["kb_hits_total"] > 0
            assert [c.program for c in second.session.candidates] == [
                c.program for c in first.session.candidates
            ]
        finally:
            store.close()

    def test_a_repeated_task_reads_its_verdicts(self, tmp_path):
        store = SessionStore(
            ttl=None, rate=1000, burst=1000, kb_path=str(tmp_path / "service.kb")
        )
        try:
            counters = []
            for _ in range(2):
                session = store.create(filter_request())
                assert wait_until(lambda: session.session.finished)
                counters.append(session.session.counters())
            assert store.metrics()["kb_verdict_hits_total"] > 0
            first, second = counters
            for name in ("steps", "smt_calls", "prescreen_decided"):
                assert second[name] == first[name], name
            assert first["smt_calls"] + first["prescreen_decided"] > 0
        finally:
            store.close()

    def test_metrics_run_no_sql(self, tmp_path):
        store = SessionStore(
            ttl=None, rate=1000, burst=1000, kb_path=str(tmp_path / "service.kb")
        )
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.session.finished)
            statements = []
            store.kb._conn.set_trace_callback(statements.append)
            entries = [store.metrics()["kb_entries"] for _ in range(3)]
            assert entries[0] > 0 and len(set(entries)) == 1
            assert statements == []
            assert entries[0] == len(store.kb)
        finally:
            store.close()

    def test_kb_survives_store_restarts(self, tmp_path):
        kb_path = str(tmp_path / "service.kb")
        store = SessionStore(ttl=None, rate=1000, burst=1000, kb_path=kb_path)
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.session.finished)
        finally:
            store.close()
        reopened = SessionStore(ttl=None, rate=1000, burst=1000, kb_path=kb_path)
        try:
            session = reopened.create(filter_request())
            assert wait_until(lambda: session.session.finished)
            assert reopened.metrics()["kb_hits_total"] > 0
        finally:
            reopened.close()


def persisted(tmp_path, session_id):
    """The persisted file of *session_id*, parsed."""
    return json.loads((tmp_path / f"{session_id}.json").read_text())


def drive_to_finish(session):
    while not session.finished:
        session.advance(max_steps=64)
    return session


class TestPersistence:
    def test_create_writes_the_file(self, tmp_path):
        # Written before the session takes a step: a store killed right
        # after answering the create still has the file.
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        store._stop.set()
        store._wake.set()
        store._scheduler.join(timeout=5)
        try:
            session = store.create(filter_request())
            assert session.session.steps == 0
            assert persisted(tmp_path, session.id)["id"] == session.id
        finally:
            store.close()
        assert os.path.exists(tmp_path / f"{session.id}.json")

    def test_the_file_is_the_request(self, tmp_path):
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.session.finished)
            payload = persisted(tmp_path, session.id)
            assert sorted(payload) == ["id", "request"]
            assert SynthesisRequest.from_json(payload["request"]) == session.session.request
        finally:
            store.close()

    def test_finishing_does_not_rewrite_the_file(self, tmp_path):
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            session = store.create(filter_request())
            path = tmp_path / f"{session.id}.json"
            written = path.stat().st_mtime_ns, path.read_bytes()
            assert wait_until(lambda: session.session.finished)
        finally:
            store.close()
        assert (path.stat().st_mtime_ns, path.read_bytes()) == written

    def test_the_persisted_request_holds_every_example(self, tmp_path):
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.session.finished)
            store.add_example(session.id, DISTINGUISHER)
            request = SynthesisRequest.from_json(persisted(tmp_path, session.id)["request"])
            assert len(request.examples) == 2
            assert request.examples == session.session.examples
            assert request.config == session.session.request.config
        finally:
            store.close()

    def test_the_persisted_request_rebuilds_the_session(self, tmp_path):
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            session = store.create(filter_request())
            assert wait_until(lambda: session.session.finished)
            store.add_example(session.id, DISTINGUISHER)
            assert wait_until(lambda: session.session.finished, timeout=40.0)
            request = SynthesisRequest.from_json(persisted(tmp_path, session.id)["request"])
        finally:
            store.close()
        # The search is deterministic: the file's request alone re-creates
        # the session's validated program.
        rebuilt = create_session(request).solve()
        live = [c.program for c in session.session.candidates if c.validated]
        assert rebuilt.render() == live[0]

    def test_a_restarted_store_replays_every_session_under_its_id(self, tmp_path):
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            plain = store.create(filter_request())
            extended = store.create(filter_request())
            assert wait_until(lambda: extended.session.finished)
            store.add_example(extended.id, DISTINGUISHER)
            requests = {
                session.id: replace(session.session.request, examples=session.session.examples)
                for session in (plain, extended)
            }
        finally:
            store.close()
        restarted = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            assert sorted(s["id"] for s in restarted.list_sessions()) == sorted(requests)
            assert restarted.metrics()["sessions_created_total"] == 2
            for session_id, request in requests.items():
                replayed = restarted.get(session_id)
                assert wait_until(lambda: replayed.session.finished, timeout=40.0)
                cold = drive_to_finish(create_session(request))
                assert replayed.session.candidates == cold.candidates
                assert replayed.session.examples == request.examples
        finally:
            restarted.close()

    def test_unknown_id_after_a_restart_raises(self, tmp_path):
        store = SessionStore(ttl=None, persist_dir=str(tmp_path / "never-written"))
        try:
            assert store.list_sessions() == []
            with pytest.raises(UnknownSession):
                store.get("missing")
        finally:
            store.close()

    def test_replay_skips_unreadable_files_with_a_warning(self, tmp_path, caplog):
        store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(tmp_path))
        try:
            good = store.create(filter_request())
        finally:
            store.close()
        (tmp_path / "0bad.json").write_text("{not json")
        (tmp_path / "1bad.json").write_text(json.dumps({"id": "1bad", "request": {}}))
        (tmp_path / "2bad.json").write_text(json.dumps({"id": "other", "request": {}}))
        (tmp_path / f"{good.id}.json.tmp").write_text("{cut short")
        with caplog.at_level(logging.WARNING, logger="repro.service.sessions"):
            restarted = SessionStore(ttl=None, persist_dir=str(tmp_path))
        try:
            assert [s["id"] for s in restarted.list_sessions()] == [good.id]
            skipped = " ".join(record.getMessage() for record in caplog.records)
            for name in ("0bad.json", "1bad.json", "2bad.json", f"{good.id}.json.tmp"):
                assert name in skipped
        finally:
            restarted.close()

    def test_a_failed_write_is_logged_and_the_session_lives_on(self, tmp_path, caplog):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        with caplog.at_level(logging.WARNING, logger="repro.service.sessions"):
            store = SessionStore(ttl=None, rate=1000, burst=1000, persist_dir=str(blocker))
            try:
                session = store.create(filter_request())
                assert wait_until(lambda: session.session.finished)
                assert session.session.candidates
            finally:
                store.close()
        assert any(session.id in record.getMessage() for record in caplog.records)
