"""Record the Figure-17 perf trajectory as machine-readable JSON.

Runs the representative subset under the five Figure-17 configurations
(deduction x partial-evaluation grid) and writes ``BENCH_figure17.json``
with per-task wall times and the deterministic counters, including the
batched sibling-evaluation and residual-SMT session counters the
partial-evaluation curves exercise.  Re-record the checked-in copy with::

    PYTHONPATH=src python benchmarks/record_figure17.py --timeout 20 --out BENCH_figure17.json

(Absolute numbers depend on the machine; the counters are deterministic.)
"""

import argparse
import json
import platform
import sys

from repro.baselines.configurations import ALL_FIGURE17_CONFIGS
from repro.benchmarks import r_benchmark_suite, run_suite, suite_runs_json

from conftest import REPRESENTATIVE_BENCHMARKS


def record(timeout: float, full: bool = False) -> dict:
    suite = r_benchmark_suite()
    if not full:
        suite = suite.subset(names=REPRESENTATIVE_BENCHMARKS)
    runs = {
        label: run_suite(suite, factory, timeout=timeout, label=label)
        for label, factory in ALL_FIGURE17_CONFIGS.items()
    }
    payload = suite_runs_json(runs)
    pe = payload["spec2-pe"]
    no_pe = payload["spec2-no-pe"]
    return {
        "suite": "figure17-full" if full else "figure17-representative",
        "timeout_s": timeout,
        "python": platform.python_version(),
        "runs": payload,
        # The partial-evaluation differential the figure plots, plus the
        # counters the batched evaluator and residual sessions add: both
        # are exclusive to the -pe configurations, so the -no-pe row pins
        # them at zero.
        "partial_evaluation_comparison": {
            "wall_total_s": pe["wall_total_s"],
            "wall_total_no_pe_s": no_pe["wall_total_s"],
            "solved": pe["solved"],
            "solved_no_pe": no_pe["solved"],
            "sibling_batches": pe["sibling_batches"],
            "batched_fills": pe["batched_fills"],
            "smt_sessions": pe["smt_sessions"],
            "smt_session_reuse": pe["smt_session_reuse"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=20.0)
    parser.add_argument("--out", default="BENCH_figure17.json")
    parser.add_argument(
        "--full", action="store_true",
        help="run all 80 r-suite benchmarks instead of the representative subset",
    )
    args = parser.parse_args(argv)
    payload = record(args.timeout, full=args.full)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    pe = payload["partial_evaluation_comparison"]
    print(
        f"spec2-pe wall {pe['wall_total_s']}s ({pe['solved']} solved) vs "
        f"no-pe {pe['wall_total_no_pe_s']}s ({pe['solved_no_pe']} solved); "
        f"sibling batches {pe['sibling_batches']} ({pe['batched_fills']} fills), "
        f"smt sessions {pe['smt_sessions']} (+{pe['smt_session_reuse']} reused)",
        file=sys.stderr,
    )
    # The batched evaluator and the residual sessions must actually engage
    # on the -pe configurations (nonzero deterministic counters).
    if not pe["sibling_batches"] or not pe["smt_sessions"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
