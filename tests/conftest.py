"""Shared pytest configuration."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running synthesis integration tests (deselect with '-m \"not slow\"')"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("-m"):
        return
    skip_slow = pytest.mark.skip(reason="slow synthesis test; run with -m slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def no_prescreen(monkeypatch):
    """Send every deduction query past the tier-1 prescreen.

    The prescreen only decides queries the SMT tier would reject anyway, so
    patching it out changes how much solver work runs, never a verdict;
    tests of the SMT tier and the lemma store use this to reach them.
    """
    from repro.core import deduction

    monkeypatch.setattr(deduction, "prescreen_infeasible", lambda *args: False)


@pytest.fixture
def no_lemma_mining(monkeypatch):
    """Learn no lemmas: every engine runs plain Algorithm 2."""
    from repro.core.deduction import DeductionEngine

    monkeypatch.setattr(DeductionEngine, "_mine_lemma", lambda *args: None)
