"""Record the Figure-16 perf trajectory as machine-readable JSON.

Runs the representative Figure-16 subset under the full spec2 configuration
and its ``--no-prescreen`` and ``--no-oe`` ablations, and writes
``BENCH_figure16.json`` with per-task wall times, prune counts and the
prescreen / OE / exec-cache counters, plus A/B comparison blocks quantifying
the tier-1 prescreen's end-to-end wall-clock win, the
observational-equivalence store's completion-work dedup, and the warm-start
knowledge base's cold-vs-warm differential (byte-identical programs and
trajectory, nonzero hit rate).  CI runs this on
every push and uploads the file as an artifact; re-record the checked-in
copy with::

    PYTHONPATH=src python benchmarks/record_figure16.py --timeout 20 --out BENCH_figure16.json

(Absolute numbers depend on the machine; the counters are deterministic.)
"""

import argparse
import json
import os
import platform
import sys
import tempfile

from repro.baselines import spec2_config, spec2_no_oe_config, spec2_no_prescreen_config
from repro.benchmarks import r_benchmark_suite, run_suite, suite_runs_json
from repro.benchmarks.kb_differential import run_kb_differential

from conftest import REPRESENTATIVE_BENCHMARKS


def kb_comparison(suite, timeout: float) -> dict:
    """Run the warm-start differential against a fresh temporary KB.

    Cold run populates the knowledge base, warm run replays the same tasks
    against it; the block records both wall times, the warm hit rate and
    the byte-identical gates (see ``repro.benchmarks.kb_differential``).
    """
    handle, kb_path = tempfile.mkstemp(prefix="repro-kb-", suffix=".sqlite")
    os.close(handle)
    os.unlink(kb_path)  # let sqlite create the file itself
    try:
        comparison = run_kb_differential(suite, timeout=timeout, kb_path=kb_path)
    finally:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(kb_path + suffix)
            except OSError:
                pass
    comparison["kb_path"] = "<temporary>"
    return comparison


def record(timeout: float, full: bool = False) -> dict:
    """Run the prescreen and OE A/Bs on the Figure-16 subset and build the payload."""
    suite = r_benchmark_suite()
    if not full:
        suite = suite.subset(names=REPRESENTATIVE_BENCHMARKS)
    runs = {
        "spec2": run_suite(suite, spec2_config, timeout=timeout, label="spec2"),
        "spec2-no-prescreen": run_suite(
            suite, spec2_no_prescreen_config, timeout=timeout,
            label="spec2-no-prescreen",
        ),
        "spec2-no-oe": run_suite(
            suite, spec2_no_oe_config, timeout=timeout, label="spec2-no-oe",
        ),
    }
    # The per-run aggregates come from the shared reporting serialiser; the
    # comparison blocks only pair them up, so the two can never disagree.
    payload = suite_runs_json(runs)
    tiered, plain = payload["spec2"], payload["spec2-no-prescreen"]
    unmerged = payload["spec2-no-oe"]
    programs = lambda label: [  # noqa: E731
        (o.benchmark, o.solved, o.program) for o in runs[label].outcomes
    ]
    return {
        "suite": "figure16-full" if full else "figure16-representative",
        "timeout_s": timeout,
        "python": platform.python_version(),
        "runs": payload,
        "prescreen_comparison": {
            "wall_total_s": tiered["wall_total_s"],
            "wall_total_no_prescreen_s": plain["wall_total_s"],
            "speedup": (
                round(plain["wall_total_s"] / tiered["wall_total_s"], 3)
                if tiered["wall_total_s"] else None
            ),
            "smt_calls": tiered["smt_calls"],
            "smt_calls_no_prescreen": plain["smt_calls"],
            "prescreen_decided": tiered["prescreen_decided"],
            "prescreen_fallback": tiered["prescreen_fallback"],
            "prescreen_hit_rate": tiered["prescreen_hit_rate"],
            "programs_identical": programs("spec2") == programs("spec2-no-prescreen"),
        },
        "oe_comparison": {
            "wall_total_s": tiered["wall_total_s"],
            "wall_total_no_oe_s": unmerged["wall_total_s"],
            "oe_candidates": tiered["oe_candidates"],
            "oe_merged": tiered["oe_merged"],
            "oe_merge_rate": tiered["oe_merge_rate"],
            "partial_programs": tiered["partial_programs"],
            "partial_programs_no_oe": unmerged["partial_programs"],
            "partial_programs_saved": (
                unmerged["partial_programs"] - tiered["partial_programs"]
            ),
            "programs_identical": programs("spec2") == programs("spec2-no-oe"),
        },
        "kb_comparison": kb_comparison(suite, timeout),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=20.0)
    parser.add_argument("--out", default="BENCH_figure16.json")
    parser.add_argument(
        "--full", action="store_true",
        help="run all 80 r-suite benchmarks instead of the representative subset",
    )
    args = parser.parse_args(argv)
    payload = record(args.timeout, full=args.full)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    comparison = payload["prescreen_comparison"]
    oe = payload["oe_comparison"]
    print(
        f"wall {comparison['wall_total_s']}s vs {comparison['wall_total_no_prescreen_s']}s "
        f"no-prescreen (speedup {comparison['speedup']}x), "
        f"prescreen hit-rate {comparison['prescreen_hit_rate']}, "
        f"programs identical: {comparison['programs_identical']}",
        file=sys.stderr,
    )
    print(
        f"oe merged {oe['oe_merged']}/{oe['oe_candidates']} states, "
        f"partial programs {oe['partial_programs']} vs "
        f"{oe['partial_programs_no_oe']} no-oe "
        f"({oe['partial_programs_saved']} saved), "
        f"programs identical: {oe['programs_identical']}",
        file=sys.stderr,
    )
    kb = payload["kb_comparison"]
    print(
        f"kb warm-start: cold {kb['cold_wall_s']}s vs warm {kb['warm_wall_s']}s "
        f"(speedup {kb['speedup']}x), warm hit-rate {kb['warm_kb']['hit_rate']}, "
        f"programs identical: {kb['programs_identical']}, "
        f"counters identical: {kb['counters_identical']}",
        file=sys.stderr,
    )
    # The acceptance gates (also enforced by CI): byte-identical programs
    # under both ablations, a tier-1 hit rate of at least 50%, and a live
    # OE store (merges > 0, never more completion work than the ablation).
    if not comparison["programs_identical"]:
        return 1
    if not comparison["prescreen_hit_rate"] or comparison["prescreen_hit_rate"] < 0.5:
        return 1
    if not oe["programs_identical"]:
        return 1
    if not oe["oe_merged"] or oe["partial_programs_saved"] < 0:
        return 1
    # Warm-start gates: the warm run must synthesize byte-identical programs
    # with an identical search trajectory, and must actually hit the KB.
    if not kb["programs_identical"] or not kb["counters_identical"]:
        return 1
    if not kb["warm_kb"]["hits"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
