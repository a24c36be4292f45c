"""Restart recovery: a server killed with SIGKILL replays its persisted sessions.

``serve --persist-dir DIR`` writes each session's request (with every
example) when the session is created and when it gains an example.  A new
server on the same directory re-creates every session under its old id, and
the search is deterministic, so each one reports what a cold session of its
request reports.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro import Table
from repro.api import CLOCK_COUNTERS, SynthesisRequest, create_session
from repro.benchmarks import r_benchmark_suite

SRC = Path(__file__).resolve().parents[2] / "src"

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
DISTINGUISHER = {
    "inputs": [{"columns": ["name", "age", "gpa"],
                "rows": [["Zoe", 8, 3.5], ["Max", 20, 2.0]]}],
    "output": {"columns": ["name", "age", "gpa"], "rows": [["Max", 20, 2.0]]},
}

#: Counters a replay may legitimately change: clocks, and the examples
#: added after creation (a replayed session is created with all of them).
IGNORED = {"resumes", *CLOCK_COUNTERS}


def start_server(persist_dir, log_path):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.benchmarks.cli", "serve", "--port", "0",
             "--persist-dir", str(persist_dir)],
            stdout=subprocess.PIPE, stderr=log, env=env,
        )
    line = process.stdout.readline().decode()
    assert "listening on" in line, (line, Path(log_path).read_text())
    return process, line.split()[-1]


def stop(server):
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=10)
    server.stdout.close()


def call(url, path, payload=None, timeout=60):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def settled(url, session_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        state = call(url, f"/v1/sessions/{session_id}")
        if state["status"] not in ("created", "searching") or time.monotonic() > deadline:
            return state
        time.sleep(0.05)


def test_sessions_survive_a_sigkill_restart(tmp_path):
    # The slow task searches for about a second, so the kill usually
    # lands while it is still searching.
    benchmark = r_benchmark_suite().get("c4_gather_then_count_large")
    requests = {
        "slow": SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, timeout=60),
        "extended": SynthesisRequest.from_tables([STUDENTS], ADULTS, timeout=60),
    }
    persist_dir, log = tmp_path / "sessions", tmp_path / "server.log"
    server, url = start_server(persist_dir, log)
    try:
        ids = {
            name: call(url, "/v1/sessions", request.to_json())["id"]
            for name, request in requests.items()
        }
        call(url, f"/v1/sessions/{ids['extended']}/programs?count=1&wait=60")
        state = call(url, f"/v1/sessions/{ids['extended']}/examples", DISTINGUISHER)
        assert state["examples"] == 2
    finally:
        stop(server)
    payload = requests["extended"].to_json()
    payload["examples"].append(DISTINGUISHER)
    requests["extended"] = SynthesisRequest.from_json(payload)

    server, url = start_server(persist_dir, log)
    try:
        assert call(url, "/healthz") == {"status": "ok"}
        for name, request in requests.items():
            cold = create_session(request)
            cold.solve()
            first = call(url, f"/v1/sessions/{ids[name]}/programs?count=1&wait=60")
            assert first["candidates"] == [cold.candidates[0].to_json()], name
            state = settled(url, ids[name])
            assert state["status"] == cold.status, name
            assert state["examples"] == len(request.examples), name
            assert state["candidates"] == [c.to_json() for c in cold.candidates], name
            replayed, fresh = (
                {key: value for key, value in counters.items() if key not in IGNORED}
                for counters in (state["counters"], cold.counters())
            )
            assert replayed == fresh, name
    finally:
        stop(server)
