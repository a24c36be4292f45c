"""Golden resume-state payloads: ``SearchKernel.snapshot()`` at fixed steps.

The payloads in ``data/kernel_snapshots.json.gz`` were recorded with the
search kernel that built every refinement tree when it was enqueued.  The
kernel that enqueues refinement recipes and builds trees on pop must
reproduce them byte for byte -- pending lane, visited signatures, tiebreak
and node-id counters included -- because the snapshot is both the service's
resume format and a complete description of the search position.

Regenerate (only for a deliberate change of search order) with::

    PYTHONPATH=src python tests/core/test_snapshot_golden.py
"""

import gzip
import json
from pathlib import Path

import pytest

from repro.benchmarks import r_benchmark_suite
from repro.core import Example, SearchKernel, SynthesisConfig, standard_library
from repro.smt.solver import clear_formula_cache

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_snapshots.json.gz"

#: task -> cumulative step counts at which the snapshot is taken.  The last
#: c2 count lies past the first solution, so the solved payload (remaining
#: quota 0, the found program's text) is pinned too.
CHECKPOINTS = {
    "c4_summary_then_spread": (40, 400, 1500),
    "c2_orders_count_by_region": (10, 25, 60),
}


def encode(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def record_snapshots(name):
    """``{steps: encoded snapshot}`` for one task's checkpoints."""
    benchmark = r_benchmark_suite().get(name)
    clear_formula_cache()
    kernel = SearchKernel(
        Example.make(benchmark.inputs, benchmark.output),
        SynthesisConfig(timeout=30),
        standard_library(),
    )
    taken = 0
    snapshots = {}
    for steps in CHECKPOINTS[name]:
        kernel.run(max_steps=steps - taken)
        taken = steps
        snapshots[str(steps)] = encode(kernel.snapshot())
    return snapshots


def load_golden():
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_snapshots_match_the_recorded_payloads(name):
    golden = load_golden()[name]
    actual = record_snapshots(name)
    assert sorted(actual) == sorted(golden)
    for steps, expected in golden.items():
        got = actual[steps]
        if got != expected:
            # Name the first diverging field before failing on the bytes.
            want, have = json.loads(expected), json.loads(got)
            for key in sorted(want):
                assert have.get(key) == want[key], f"{name} @ {steps} steps: {key!r}"
        assert got == expected, f"{name} @ {steps} steps"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    recorded = {name: record_snapshots(name) for name in sorted(CHECKPOINTS)}
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as handle:
        handle.write(json.dumps(recorded, sort_keys=True, indent=1).encode("utf-8"))
    print(f"wrote {GOLDEN_PATH}")
