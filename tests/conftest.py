"""Shared fixtures, hypothesis profiles and the acceptance-summary reporting hook."""

import sys

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # tests/test_fuzz_cli.py skips itself
    settings = None

if settings is not None:
    # The fuzz tests run a few dozen derandomized examples in tier-1; CI runs
    # them again with ``--hypothesis-profile=ci``, which the hypothesis plugin
    # loads after this module.  Neither profile keeps an example database, so
    # a failing CI run prints a ``@reproduce_failure`` line that replays it.
    settings.register_profile("tier1", max_examples=30, deadline=None, database=None, derandomize=True)
    settings.register_profile("ci", max_examples=500, deadline=None, database=None, print_blob=True)
    settings.load_profile("tier1")


@pytest.fixture
def hilbert4():
    return np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
