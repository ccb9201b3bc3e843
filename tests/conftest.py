import functools

import pytest

from vortexdiagrams.atlas import enumerate_diagrams


@pytest.fixture(scope="session")
def enumerated():
    """`enumerate_diagrams(n)`, run at most once per n in a session.

    The reports are shared, so a test must not change one.  A test that
    times an enumeration, counts what it calls or patches what it runs
    makes its own.
    """
    return functools.lru_cache(maxsize=None)(enumerate_diagrams)
