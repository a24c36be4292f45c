"""The perfbench tracer still finds every name it wraps in ``src/``.

``perfbench/tracer.py`` patches functions and methods by attribute name, so
deleting or renaming one breaks ``install`` with an ``AttributeError``.
Running ``install(Tracer())`` here makes that fail in the fast suite, not
only in the slow traced benchmark run.  Two of the wrapped names are inert
stubs that nothing in ``src/`` calls, ``repro.core.lemmas.LemmaStore.blocks``
and ``repro.smt.solver.Solver.check_assumptions``, kept until the benchmark
change of ROADMAP item 1a drops their tracer lines (as are the ``KBView``
lemma and OE accessors).

The install runs in a subprocess because it patches the modules for good.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_tracer_installs_against_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer, install; install(Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
