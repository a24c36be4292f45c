"""End-to-end tests of the HTTP service: sessions, streaming, resume, 429s.

The concurrency test reuses the determinism invariant established for the
interleaved benchmark scheduler: a session's final counters depend only on
its own request, never on what else the process ran -- so per-session
counters from a threaded server must be byte-identical to serial runs.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Table
from repro.api import SynthesisRequest, SynthesisSession
from repro.service import SessionStore, make_server

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
EMPLOYEES = Table(
    ["name", "dept", "salary"],
    [["ann", "eng", 100], ["bob", "eng", 90], ["cal", "ops", 80]],
)
HEADCOUNT = Table(["dept", "n"], [["eng", 2], ["ops", 1]])

FILTER_REQUEST = {
    "examples": [
        {
            "inputs": [{"columns": ["name", "age", "gpa"],
                        "rows": [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]]}],
            "output": {"columns": ["name", "age", "gpa"],
                       "rows": [["Bob", 18, 3.2], ["Tom", 12, 3.0]]},
        }
    ],
    "config": {"timeout": 20},
}

DISTINGUISHER = {
    "inputs": [{"columns": ["name", "age", "gpa"],
                "rows": [["Zoe", 8, 3.5], ["Max", 20, 2.0]]}],
    "output": {"columns": ["name", "age", "gpa"], "rows": [["Max", 20, 2.0]]},
}

#: Timing counters excluded from byte-identity comparisons.
NONDETERMINISTIC = ("active_seconds",)


@pytest.fixture
def server():
    server = make_server(host="127.0.0.1", port=0, ttl=None, rate=1000, burst=1000)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def get(server, path, timeout=30):
    with urllib.request.urlopen(base_url(server) + path, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def post(server, path, payload, timeout=60):
    request = urllib.request.Request(
        base_url(server) + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_for_status(server, session_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, state = get(server, f"/v1/sessions/{session_id}")
        if state["status"] in ("done", "exhausted", "timeout", "failed"):
            return state
        time.sleep(0.05)
    return state


def drop_timing(counters):
    return {k: v for k, v in counters.items() if k not in NONDETERMINISTIC}


class TestEndpoints:
    def test_healthz(self, server):
        assert get(server, "/healthz") == (200, {"status": "ok"})

    def test_metrics_is_non_empty(self, server):
        status, metrics = get(server, "/metrics")
        assert status == 200
        assert metrics["sessions_live"] == 0
        assert "kernel_steps_total" in metrics

    def test_unknown_session_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/sessions/deadbeef")
        assert excinfo.value.code == 404

    def test_malformed_request_is_400(self, server):
        status, body = post(server, "/v1/sessions", {"examples": []})
        assert status == 400
        assert "error" in body

    def test_removed_distributed_knobs_are_400(self, server):
        # distributed/workers configured the removed distributed search,
        # backend the removed numpy execution backend.
        for knob, value in (("distributed", True), ("workers", 2), ("backend", "numpy")):
            payload = dict(FILTER_REQUEST, config={"timeout": 20, knob: value})
            status, body = post(server, "/v1/sessions", payload)
            assert status == 400
            assert "unknown config knobs" in body["error"]
            assert knob in body["error"]

    def test_bad_knob_values_are_400(self, server):
        # NaN passes json.loads; the strings used to fail inside the scheduler.
        for knob, value in (
            ("timeout", float("nan")),
            ("timeout", "x"),
            ("max_steps", "7"),
            ("max_size", "3"),
            ("deduction", "no"),
        ):
            payload = dict(FILTER_REQUEST, config={knob: value})
            status, body = post(server, "/v1/sessions", payload)
            assert status == 400, (knob, value)
            assert knob in body["error"]

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            base_url(server) + "/v1/sessions",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_body_is_413(self, server):
        from repro.service.api.http import MAX_BODY_BYTES

        request = urllib.request.Request(
            base_url(server) + "/v1/sessions",
            data=b"{}",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413

    def test_session_round_trip(self, server):
        status, created = post(server, "/v1/sessions", FILTER_REQUEST)
        assert status == 201
        state = wait_for_status(server, created["id"])
        assert state["status"] == "done"
        assert state["candidates"][0]["validated"]
        _, metrics = get(server, "/metrics")
        assert metrics["kernel_steps_total"] > 0


class TestStreaming:
    def test_chunked_stream_yields_candidates_then_status(self, server):
        _, created = post(server, "/v1/sessions", FILTER_REQUEST)
        url = base_url(server) + f"/v1/sessions/{created['id']}/programs?stream=1&count=1&wait=20"
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in response.read().splitlines() if line.strip()]
        assert len(lines) == 2
        assert lines[0]["rank"] == 1 and lines[0]["program"]
        assert lines[1]["candidates_sent"] == 1
        assert lines[1]["counters"]["steps"] > 0

    def test_negative_or_malformed_count_is_400(self, server):
        # A negative count used to slice the list from the end (-1 dropped
        # the last candidate and answered 200), and a malformed one closed
        # the connection without a response.
        _, created = post(server, "/v1/sessions", dict(FILTER_REQUEST, config={"top_k": 2}))
        for count in ("-1", "-5", "abc"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, f"/v1/sessions/{created['id']}/programs?count={count}")
            assert excinfo.value.code == 400
            assert "count" in json.loads(excinfo.value.read())["error"]
        status, state = get(server, f"/v1/sessions/{created['id']}/programs?count=0")
        assert status == 200 and state["candidates"] == []

    def test_polling_with_wait_blocks_until_candidates(self, server):
        _, created = post(server, "/v1/sessions", FILTER_REQUEST)
        status, state = get(
            server, f"/v1/sessions/{created['id']}/programs?count=1&wait=20"
        )
        assert status == 200
        assert state["candidates"]


class TestResume:
    def test_distinguishing_example_resumes_without_restarting(self, server):
        _, created = post(server, "/v1/sessions", FILTER_REQUEST)
        sid = created["id"]
        first = wait_for_status(server, sid)
        assert first["candidates"][0]["validated"]
        steps_before = first["counters"]["steps"]
        oe_before = first["counters"]["oe_merged"]

        status, resumed = post(server, f"/v1/sessions/{sid}/examples", DISTINGUISHER)
        assert status == 200
        # Counters continue instead of resetting: the frontier was resumed.
        assert resumed["counters"]["resumes"] == 1
        assert resumed["counters"]["steps"] >= steps_before
        assert resumed["counters"]["oe_merged"] >= oe_before
        assert not resumed["candidates"][0]["validated"]  # revalidated and overfit

        final = wait_for_status(server, sid, timeout=40.0)
        assert final["counters"]["steps"] > steps_before
        validated = [c["program"] for c in final["candidates"] if c["validated"]]
        assert validated

        # The resumed search agrees with a cold run given both examples.
        cold_payload = dict(FILTER_REQUEST)
        cold_payload["examples"] = FILTER_REQUEST["examples"] + [DISTINGUISHER]
        cold = SynthesisSession(SynthesisRequest.from_json(cold_payload))
        while not cold.finished and not cold.validated_count:
            cold.advance(max_steps=64)
        cold_validated = [c.program for c in cold.candidates if c.validated]
        assert validated[0] == cold_validated[0]


class TestInputCounts:
    JOIN = SynthesisRequest.from_tables([EMPLOYEES, HEADCOUNT], EMPLOYEES, timeout=20)

    def test_create_with_mismatched_examples_is_400(self, server):
        payload = dict(FILTER_REQUEST)
        payload["examples"] = FILTER_REQUEST["examples"] + self.JOIN.to_json()["examples"]
        status, body = post(server, "/v1/sessions", payload)
        assert status == 400
        assert "input tables" in body["error"]

    def test_adding_a_mismatched_example_is_400_and_changes_nothing(self, server):
        # It used to close the connection with no response and keep the
        # example, so every later revalidation failed too.
        _, created = post(server, "/v1/sessions", self.JOIN.to_json())
        before = wait_for_status(server, created["id"])
        assert before["status"] == "done"
        status, body = post(server, f"/v1/sessions/{created['id']}/examples", DISTINGUISHER)
        assert status == 400
        assert "input tables" in body["error"]
        _, after = get(server, f"/v1/sessions/{created['id']}")
        assert after["examples"] == 1
        assert after["candidates"] == before["candidates"]


class TestSchedulerFaults:
    def test_failing_session_does_not_stop_the_others(self, server, monkeypatch):
        original = SynthesisSession.advance

        def advance(session, max_steps=64):
            if session.request.examples[0].output.columns == HEADCOUNT.columns:
                raise RuntimeError("injected fault")
            return original(session, max_steps=max_steps)

        monkeypatch.setattr(SynthesisSession, "advance", advance)
        broken_payload = SynthesisRequest.from_tables(
            [EMPLOYEES], HEADCOUNT, timeout=20
        ).to_json()
        _, broken = post(server, "/v1/sessions", broken_payload)
        _, healthy = post(server, "/v1/sessions", FILTER_REQUEST)
        failed = wait_for_status(server, broken["id"])
        assert failed["status"] == "failed"
        assert failed["error"] == "RuntimeError: injected fault"
        assert wait_for_status(server, healthy["id"])["status"] == "done"
        assert get(server, "/healthz") == (200, {"status": "ok"})
        # Readers of the failed session are not left waiting for candidates.
        started = time.monotonic()
        status, _ = get(server, f"/v1/sessions/{broken['id']}/programs?wait=10&count=1")
        assert status == 200 and time.monotonic() - started < 5

    def test_healthz_is_503_once_the_scheduler_is_gone(self, server):
        store = server.store
        store._stop.set()
        store._wake.set()
        store._scheduler.join(timeout=5)
        assert not store._scheduler.is_alive()
        try:
            get(server, "/healthz")
        except urllib.error.HTTPError as error:
            assert error.code == 503
            assert json.loads(error.read()) == {"status": "scheduler-down"}
        else:
            pytest.fail("/healthz answered 200 without a scheduler")


class TestRateLimiting:
    def test_burst_gets_429(self):
        server = make_server(
            host="127.0.0.1", port=0,
            store=SessionStore(ttl=None, rate=0.001, burst=2),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            codes = [post(server, "/v1/sessions", FILTER_REQUEST)[0] for _ in range(3)]
            assert codes == [201, 201, 429]
            _, metrics = get(server, "/metrics")
            assert metrics["rate_limited_total"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestConcurrencyDeterminism:
    """N threads against one server: counters byte-identical to serial runs."""

    TASKS = {
        "filter": ([STUDENTS], ADULTS),
        "headcount": ([EMPLOYEES], HEADCOUNT),
    }

    def serial_counters(self, inputs, output):
        session = SynthesisSession(
            SynthesisRequest.from_tables(inputs, output, timeout=20)
        )
        while not session.finished:
            session.advance(max_steps=64)
        return drop_timing(session.counters())

    def test_threaded_sessions_match_serial_counters(self, server):
        reference = {
            name: self.serial_counters(inputs, output)
            for name, (inputs, output) in self.TASKS.items()
        }

        results = {}
        errors = []

        def drive(thread_id, name):
            try:
                inputs, output = self.TASKS[name]
                payload = SynthesisRequest.from_tables(inputs, output, timeout=20).to_json()
                _, created = post(server, "/v1/sessions", payload)
                state = wait_for_status(server, created["id"])
                results[thread_id] = (name, drop_timing(state["counters"]))
            except Exception as error:  # pragma: no cover - surfaced via assert
                errors.append((thread_id, error))

        names = ["filter", "headcount"] * 3
        threads = [
            threading.Thread(target=drive, args=(i, name))
            for i, name in enumerate(names)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == len(names)
        for thread_id, (name, counters) in results.items():
            assert counters == reference[name], f"thread {thread_id} ({name}) diverged"
