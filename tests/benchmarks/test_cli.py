"""CLI surface tests: the help text advertises every entry point."""

import contextlib
import io

import pytest

from repro.benchmarks import cli


def render_help():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    return buffer.getvalue()


class TestHelp:
    def test_serve_is_a_figure_choice(self):
        help_text = render_help()
        assert "serve" in help_text
        assert "--port" in help_text

    def test_serve_knobs_are_documented(self):
        help_text = render_help()
        for flag in ("--host", "--ttl", "--rate", "--burst", "--persist-dir"):
            assert flag in help_text, flag

    def test_benchmark_figures_still_listed(self):
        help_text = render_help()
        for figure in ("figure16", "figure17", "figure18", "pruning"):
            assert figure in help_text, figure


class TestRemovedFlags:
    def test_distributed_flags_are_rejected(self):
        assert "--distributed" not in render_help()
        assert "--workers" not in render_help()
        for argv in (["figure16", "--distributed"], ["figure16", "--workers", "2"]):
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2, argv
