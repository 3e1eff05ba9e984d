"""Root conftest.

``src/`` is put on ``sys.path`` by ``pythonpath = ["src"]`` in
``pyproject.toml`` — the single source of truth for test path setup
(scripts use ``scripts/_bootstrap.py``).  This file anchors pytest's
rootdir here when it is invoked from subdirectories, and holds the one
fixture every test gets.
"""

import pytest


@pytest.fixture(autouse=True)
def _fresh_partition_store():
    """No test starts with another test's partitions in the store."""
    from repro.partition import multilevel_kway

    multilevel_kway.cache_clear()
