"""Shared fixtures."""

import concurrent.futures
import os
import resource
import subprocess
import sys

import pytest

import freycheck.denes as denes_mod
import freycheck.search as search_mod


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


@pytest.fixture
def cpus(monkeypatch):
    """A function that sets the CPUs ``arith.pool_size`` may use.

    ``cpus(n)`` gives this process an affinity mask of ``n`` CPUs on a
    machine of ``n``, and ``cpus(n, count)`` on a machine whose
    ``os.cpu_count()`` is ``count``.  ``n = None`` stands for a platform
    without affinity masks, where ``cpus(None)`` leaves the count unknown.
    """

    def set_cpus(n, count=None):
        if n is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n if count is None else count)

    return set_cpus


@pytest.fixture
def force_pools(monkeypatch, cpus):
    """A function that sets the pool size of every later scan and search.

    Each process's share of work becomes 1, so ``arith.pool_size`` gives
    every scan or search one process per usable CPU, and the function
    sets that number to its argument; 1 runs everything in this process.
    """
    monkeypatch.setattr(denes_mod, "PRIME_SUM_PER_PROCESS", 1)
    monkeypatch.setattr(search_mod, "LOOKUPS_PER_PROCESS", 1)
    return cpus


@pytest.fixture
def bounded_cli():
    """A function that runs ``python -m freycheck`` on its arguments in a
    child process and returns the finished process, text in and out.

    The child gets about 1 GB of address space and 60 s, so a command that
    regresses into building a huge number fails fast with a MemoryError or
    a timeout instead of taking the machine's memory or stalling the suite.
    """

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "freycheck", *args],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory, check=False,
        )

    return run
