import pytest
from hypothesis import settings

from binagg.spaces import builtin_space, builtin_space_names

# Property tests draw the same examples on every run, so run-to-run time
# and verdicts do not move with fresh draws; each test keeps its own
# max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def pref3():
    return builtin_space("pref3")


@pytest.fixture(scope="session")
def pref4():
    return builtin_space("pref4")


@pytest.fixture(scope="session")
def doctrinal():
    return builtin_space("doctrinal")


@pytest.fixture(scope="session")
def classifier4():
    return builtin_space("classifier4")


@pytest.fixture(scope="session")
def all_builtin_spaces():
    return [(name, builtin_space(name)) for name in builtin_space_names()]
