"""Clean shutdown: ``serve --kb`` stopped with SIGTERM closes its knowledge base.

A warm session's hits only stamp its facts in memory; the stamps reach the
file with the next write of a fact or when the KB is closed.  SIGTERM must
therefore stop the server the way Ctrl-C does, through ``server_close``.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.api import SynthesisRequest
from repro.benchmarks import r_benchmark_suite

SRC = Path(__file__).resolve().parents[2] / "src"


def call(url, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def solve(url, request):
    """Create a session for *request* and return its state once it settles."""
    session_id = call(url, "/v1/sessions", request.to_json())["id"]
    call(url, f"/v1/sessions/{session_id}/programs?count=1&wait=60")
    deadline = time.monotonic() + 60
    while True:
        state = call(url, f"/v1/sessions/{session_id}")
        if state["status"] not in ("created", "searching") or time.monotonic() > deadline:
            return state
        time.sleep(0.05)


def newest_stamp(path):
    with sqlite3.connect(path) as conn:
        return conn.execute("SELECT COUNT(*), MAX(last_used) FROM facts").fetchone()


def test_sigterm_closes_the_kb_and_exits_zero(tmp_path):
    kb_path = str(tmp_path / "warm.kb")
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.benchmarks.cli", "serve", "--port", "0",
         "--kb", kb_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        line = server.stdout.readline().decode()
        assert "listening on" in line, line
        url = line.split()[-1]
        benchmark = r_benchmark_suite().get("c1_prices_long_to_wide")
        request = SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, timeout=20)
        cold = solve(url, request)
        assert cold["status"] == "done"
        # The finished search's facts land in one transaction, right after
        # the status turns final.
        deadline = time.monotonic() + 30
        while newest_stamp(kb_path)[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        facts, cold_stamp = newest_stamp(kb_path)
        assert facts > 0
        # The same task again only reads: its hit stamps wait in memory.
        time.sleep(0.01)
        warm = solve(url, request)
        assert warm["counters"]["steps"] == cold["counters"]["steps"]
        assert newest_stamp(kb_path) == (facts, cold_stamp)
        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, stderr.decode()
    count, stamp = newest_stamp(kb_path)
    assert count == facts and stamp > cold_stamp
