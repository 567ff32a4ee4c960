"""Names other code relies on: every name the package exports, and every
function the benchmark's tracer wraps (``bench/spans.py`` ``TARGETS``),
must exist, so a deletion fails here rather than in a traced benchmark run.
"""

import importlib.util
import pkgutil
from pathlib import Path

import pytest

import freycheck

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(freycheck.__path__) if info.name != "__main__"
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("freycheck_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    for target in targets:
        module_name, attr = target.split(".")
        module = importlib.import_module("freycheck." + module_name)
        assert callable(getattr(module, attr, None)), target


def test_package_exports_exist():
    missing = [name for name in freycheck.__all__ if not hasattr(freycheck, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_exist(name):
    module = importlib.import_module("freycheck." + name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, "freycheck.%s has no __all__" % name
    assert [item for item in exported if not hasattr(module, item)] == []
