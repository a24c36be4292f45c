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

    def test_backend_and_stress_flags_are_rejected(self):
        # --backend picked the removed numpy execution backend; --stress ran
        # its large-table A/B suite.
        for flag in ("--backend", "--stress"):
            assert flag not in render_help()
        for argv in (["figure16", "--backend", "numpy"], ["figure16", "--stress"]):
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2, argv

    def test_deduction_ablation_flags_are_rejected(self):
        # --no-cdcl / --no-prescreen switched off lemma learning and the
        # interval prescreen; both now always run.
        help_text = render_help()
        for flag in ("--no-cdcl", "--no-prescreen"):
            assert flag not in help_text
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as excinfo:
                cli.main(["figure16", flag])
            assert excinfo.value.code == 2, flag


class TestKnowledgeBaseFlag:
    @pytest.mark.parametrize("figure", ["figure16", "figure17"])
    def test_kb_is_a_serve_option_only(self, figure, tmp_path):
        # The warm-start knowledge base is attached by the service alone; a
        # benchmark run given --kb is a usage error and opens no file.
        path = tmp_path / "x.kb"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([
                    figure, "--kb", str(path), "--quiet", "--timeout", "5",
                    "--names", "c1_prices_long_to_wide",
                ])
            except SystemExit as exit_:
                code = exit_.code
        assert code == 2
        assert "--kb" in stderr.getvalue()
        assert not path.exists()


class TestSubsetSelection:
    def run_list_tasks(self, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["figure16", "--list-tasks", *argv])
            except SystemExit as exit_:
                code = exit_.code
        return code, stdout.getvalue(), stderr.getvalue()

    def test_known_names_and_categories_are_listed(self):
        code, stdout, _ = self.run_list_tasks(
            "--categories", "C1", "--names", "c1_prices_long_to_wide"
        )
        assert code == 0
        assert stdout.split("\t")[0] == "c1_prices_long_to_wide"

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (("--names", "c1_prices_long_to_wide", "no_such_task"), "no_such_task"),
            (("--categories", "C99"), "C99"),
            (("--categories", "C1", "C98", "--names", "c1_prices_long_to_wide"), "C98"),
        ],
    )
    def test_unknown_values_are_usage_errors(self, argv, unknown):
        code, stdout, stderr = self.run_list_tasks(*argv)
        assert code == 2
        assert stdout == ""
        assert unknown in stderr
