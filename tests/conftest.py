"""Fixtures shared by the test files under ``tests``."""

import pytest


@pytest.fixture(autouse=True, scope="module")
def empty_root_store_after_each_file():
    # the root store lives as long as the process; each file leaves it
    # empty, so a later file, or the bench tests run in the same process,
    # sees only the roots it stored itself
    yield
    from circtrees import chebyshev
    chebyshev._root_setup.cache_clear()
