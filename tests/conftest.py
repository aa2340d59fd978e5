"""Keep Hypothesis's files out of the working tree.

With no example database Hypothesis still caches the constants it reads
from the source under its home directory, `.hypothesis/` by default, as
soon as a property-based test is collected.
"""

import tempfile

import pytest

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only tests/test_malformed.py needs Hypothesis
    set_hypothesis_home_dir = None

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    if set_hypothesis_home_dir is not None:
        config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
        set_hypothesis_home_dir(config.stash[_HOME].name)


def pytest_unconfigure(config):
    if _HOME in config.stash:
        set_hypothesis_home_dir(None)
        config.stash[_HOME].cleanup()
