"""Shared fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run the process pools of denes, search and verify in process instead.

    The pool is imported in one place: ``arith.ordered_map`` imports
    ``concurrent.futures.ProcessPoolExecutor`` only when it starts a
    pool, so the fake replaces it there.  The returned list collects the
    ``max_workers`` each pool was asked for, so pool sizing can be tested
    without starting any process.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes
