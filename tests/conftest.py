"""Tier-1 settings: every Hypothesis test draws the same examples on every run.

The ``deterministic`` profile derandomizes example generation, so a pass or
a failure is a function of the code under test, and it prints the blob that
reproduces a failure.  Each test keeps its own ``max_examples``.  A run given
``--hypothesis-seed=<n>`` (or another ``--hypothesis-profile``) explores
fresh examples instead, as Hypothesis ignores the seed under ``derandomize``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, print_blob=True)


def pytest_configure(config):
    if config.getoption("hypothesis_seed") is None and config.getoption("hypothesis_profile") is None:
        settings.load_profile("deterministic")
