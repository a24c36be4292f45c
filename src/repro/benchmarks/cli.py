"""Command-line entry point for regenerating the paper's tables and figures.

Examples::

    python -m repro.benchmarks.cli figure16 --timeout 20
    python -m repro.benchmarks.cli figure16 --timeout 20 --jobs 4
    python -m repro.benchmarks.cli figure16 --timeout 20 --no-oe --stats
    python -m repro.benchmarks.cli figure16 --timeout 20 --json figure16.json
    python -m repro.benchmarks.cli figure16 --tasks 'c[12]_' --timeout 10
    python -m repro.benchmarks.cli figure16 --list-tasks
    python -m repro.benchmarks.cli figure17 --timeout 10 --categories C1 C2
    python -m repro.benchmarks.cli figure18 --timeout 15
    python -m repro.benchmarks.cli pruning
    python -m repro.benchmarks.cli serve --port 8642

``--jobs N`` fans the benchmark x configuration pairs over ``N`` worker
processes, each running one whole task at a time exactly as the serial run
does (the ``repro-bench`` console script installed by the package accepts
the same arguments).  ``--tasks REGEX`` restricts the suite to benchmarks whose
name matches the regex (combinable with ``--categories``/``--names``), and
``--list-tasks`` prints the selected benchmark names without running
anything -- the single-task iteration loop.

``--no-oe`` disables the observational-equivalence store in every Morpheus
configuration (an ablation baseline; the first synthesized program is
unchanged, only the amount of duplicated completion work moves).
``--top-k K`` keeps each task's search running until ``K`` distinct
programs are found (the reported tables still describe the first).

``serve`` boots the synthesis HTTP service (``repro.service``) instead of
running a benchmark: submit input-output examples over ``POST
/v1/sessions``, stream candidate programs, and add distinguishing examples
that continue the running search.  ``--port``/``--host`` pick the bind
address, ``--ttl`` the idle-session expiry, ``--rate``/``--burst`` the
token-bucket rate limit, ``--persist-dir DIR`` keeps each session's
request (every example included) as a JSON file under ``DIR`` and replays
those sessions under their ids when the server restarts, and ``--kb PATH``
warm-starts every new session from the shared knowledge base of past
requests (a sqlite file, see ``repro.engine.kb``: persisted executions and
attribute vectors are reused, new facts are written back, and a library
change invalidates stale entries via the version-hash keying).  ``--kb`` is
a ``serve`` option only.  SIGTERM stops the server as SIGINT does: the
knowledge base is flushed and closed, and the exit status is 0.

``--stats`` appends the per-configuration deduction counter table (SMT
calls, prescreen decisions, lemma prunes, lemmas learned), the
concrete-execution counter table (tables built, cells interned, cache and
comparison fast-path hits) and the search-kernel counter table (partial
programs, OE candidates/merged, frontier peak), and ``--json FILE``
additionally writes the per-task outcomes (wall time, prune rate and
every counter of ``SynthesisSession.counters()``) as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys

from ..baselines.configurations import (
    ALL_FIGURE17_CONFIGS,
    FIGURE16_CONFIGS,
    override_config,
    with_top_k,
    without_oe,
)
from .r_suite import r_benchmark_suite
from .reporting import (
    category_legend,
    deduction_summary_table,
    execution_summary_table,
    figure16_table,
    figure17_table,
    figure18_table,
    search_summary_table,
    suite_runs_json,
)
from .runner import run_figure16, run_figure17, run_figure18, run_pruning_statistics


def _progress(outcome) -> None:
    status = "ok" if outcome.solved else "--"
    print(
        f"  [{status}] {outcome.configuration:<14} {outcome.benchmark:<40} {outcome.elapsed:6.2f}s",
        file=sys.stderr,
    )


def _subset(args, parser):
    suite = r_benchmark_suite()
    for option, requested, known in (
        ("--names", args.names, suite.names()),
        ("--categories", args.categories, [benchmark.category for benchmark in suite]),
    ):
        unknown = [value for value in requested or () if value not in known]
        if unknown:
            parser.error(f"{option}: unknown value(s): {' '.join(unknown)}")
    if args.categories or args.names:
        suite = suite.subset(names=args.names or None, categories=args.categories or None)
    if args.tasks:
        try:
            pattern = re.compile(args.tasks)
        except re.error as error:
            parser.error(f"--tasks is not a valid regex: {error}")
        suite = suite.subset(
            names=[name for name in suite.names() if pattern.search(name)]
        )
    return suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figure", nargs="?", default="figure16",
        choices=["figure16", "figure17", "figure18", "pruning", "legend", "serve"],
    )
    parser.add_argument("--timeout", type=float, default=20.0, help="per-benchmark timeout in seconds")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="fan benchmark x configuration pairs over N worker processes, "
             "each running one whole task at a time "
             "(1 = serial; solve/fail outcomes match the serial run unless "
             "per-task solve times approach --timeout while workers "
             "oversubscribe the CPUs)",
    )
    parser.add_argument(
        "--no-oe", action="store_true",
        help="disable the observational-equivalence store in every Morpheus "
             "configuration, exploring every duplicate completion state "
             "(ablation; synthesized programs are identical either way)",
    )
    parser.add_argument(
        "--top-k", type=int, default=1, metavar="K",
        help="keep each task's search running until K distinct programs are "
             "found (the tables still report the first program; K > 1 "
             "costs extra search time; combine with --no-oe for "
             "exhaustive enumeration of coincident alternatives)",
    )
    parser.add_argument(
        "--tasks", metavar="REGEX", default=None,
        help="restrict the r-suite to benchmarks whose name matches REGEX "
             "(applied after --categories/--names)",
    )
    parser.add_argument(
        "--list-tasks", action="store_true",
        help="print the selected benchmark names (one per line, with "
             "category) and exit without running anything",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="append the per-configuration deduction counters (SMT calls, "
             "prescreen decisions, lemma prunes, lemmas learned), "
             "concrete-execution counters (tables built, cells interned, "
             "cache hits, comparison fast-path hits) and search-kernel "
             "counters (partial programs, OE candidates/merged, frontier "
             "peak) to the figure output",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the per-task outcomes (wall time, prune rate and "
             "every session counter) as machine-readable JSON "
             "(figure16 and figure17 only)",
    )
    parser.add_argument("--categories", nargs="*", default=None, help="restrict to these categories")
    parser.add_argument("--names", nargs="*", default=None, help="restrict to these benchmark names")
    parser.add_argument("--quiet", action="store_true", help="suppress per-benchmark progress output")
    service = parser.add_argument_group("serve", "synthesis service options (the 'serve' command)")
    service.add_argument("--host", default="127.0.0.1", help="serve: bind address")
    service.add_argument("--port", type=int, default=8642, help="serve: bind port (0 = ephemeral)")
    service.add_argument(
        "--ttl", type=float, default=600.0, metavar="SECONDS",
        help="serve: expire sessions idle longer than this (0 disables expiry)",
    )
    service.add_argument(
        "--rate", type=float, default=10.0, metavar="PER_SECOND",
        help="serve: sustained mutating-request rate before 429s",
    )
    service.add_argument(
        "--burst", type=int, default=20, metavar="N",
        help="serve: request burst absorbed before rate limiting kicks in",
    )
    service.add_argument(
        "--persist-dir", default=None, metavar="DIR",
        help="serve: keep each session's request as a JSON file under DIR "
             "and re-create those sessions when the server restarts",
    )
    service.add_argument(
        "--kb", metavar="PATH", default=None,
        help="serve: warm-start every session from the knowledge base at PATH "
             "(a sqlite file, created on first use) and write new facts back "
             "(outcomes are unchanged, only repeated work is skipped)",
    )
    service.add_argument(
        "--verbose", action="store_true", help="serve: log every HTTP request"
    )
    args = parser.parse_args(argv)
    if args.figure == "serve":
        from ..service import serve

        # serve() shuts down cleanly (closing the knowledge base) on
        # KeyboardInterrupt; raise it on SIGTERM too, so `kill` is clean.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        return serve(
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            ttl=args.ttl if args.ttl > 0 else None,
            rate=args.rate,
            burst=args.burst,
            persist_dir=args.persist_dir,
            kb_path=args.kb,
        )
    if args.kb:
        parser.error("--kb is only available for serve")
    progress = None if args.quiet else _progress
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if not math.isfinite(args.timeout) or args.timeout <= 0:
        parser.error(f"--timeout must be a finite number > 0, got {args.timeout}")
    if args.top_k < 1:
        parser.error(f"--top-k must be >= 1, got {args.top_k}")
    if args.list_tasks:
        for benchmark in _subset(args, parser):
            print(f"{benchmark.name}\t{benchmark.category}\t{benchmark.description}")
        return 0
    if args.top_k != 1 and args.figure not in ("figure16", "figure17"):
        parser.error("--top-k is only available for figure16 and figure17")
    if args.stats and args.figure not in ("figure16", "figure17"):
        parser.error("--stats is only available for figure16 and figure17")
    if args.json and args.figure not in ("figure16", "figure17"):
        parser.error("--json is only available for figure16 and figure17")
    if args.figure == "legend" and args.no_oe:
        parser.error("ablation flags do not apply to the legend")

    def configured(configurations):
        if args.no_oe:
            configurations = without_oe(configurations)
        if args.top_k != 1:
            configurations = with_top_k(configurations, args.top_k)
        return configurations

    def emit(runs) -> int:
        if args.stats:
            print(deduction_summary_table(runs))
            print(execution_summary_table(runs))
            print(search_summary_table(runs))
        if args.json:
            payload = {
                "figure": args.figure,
                "timeout_s": args.timeout,
                "jobs": args.jobs,
                "oe": not args.no_oe,
                "top_k": args.top_k,
                "runs": suite_runs_json(runs),
            }
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 0

    if args.figure == "legend":
        print(category_legend())
        return 0
    if args.figure == "figure16":
        runs = run_figure16(
            timeout=args.timeout, suite=_subset(args, parser), progress=progress,
            jobs=args.jobs, configurations=configured(FIGURE16_CONFIGS),
        )
        print(figure16_table(runs))
        return emit(runs)
    if args.figure == "figure17":
        runs = run_figure17(
            timeout=args.timeout, suite=_subset(args, parser), progress=progress,
            jobs=args.jobs, configurations=configured(ALL_FIGURE17_CONFIGS),
        )
        print(figure17_table(runs))
        return emit(runs)
    if args.figure == "figure18":
        morpheus_config = None
        if args.no_oe:
            from .runner import _morpheus_config

            morpheus_config = override_config(_morpheus_config, oe=False)
        rows = run_figure18(
            timeout=args.timeout, r_suite=_subset(args, parser), jobs=args.jobs,
            morpheus_config=morpheus_config,
        )
        print(figure18_table(rows))
        return 0
    if args.figure == "pruning":
        statistics = run_pruning_statistics(
            timeout=args.timeout, suite=_subset(args, parser), jobs=args.jobs,
            oe=not args.no_oe,
        )
        print(statistics)
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
