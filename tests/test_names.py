"""Names other code relies on: every name the package exports, and every
function the benchmark's tracer wraps (``bench/spans.py`` ``TARGETS``),
must exist, and the tracer must find them all after ``import
freycheck.cli``, so a deletion or a module the CLI stops registering fails
here rather than in a traced benchmark run.
"""

import importlib.util
import pkgutil
import subprocess
import sys
import textwrap
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


def test_tracer_wraps_and_restores_every_target_after_importing_the_cli():
    # Tracer.install imports freycheck.cli and then finds every module it
    # wraps in sys.modules, so importing the CLI must register them all,
    # including the ones a conductor call never runs.
    code = textwrap.dedent(
        """\
        import contextlib, importlib.util, io, sys
        import freycheck.cli
        spec = importlib.util.spec_from_file_location("freycheck_bench_spans", sys.argv[1])
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        targets = [t.split(".") for t in spans.TARGETS]
        wrappers = [getattr(sys.modules["freycheck." + m], a) for m, a in targets]
        with contextlib.redirect_stdout(io.StringIO()):
            code = freycheck.cli.main(["conductor", "--model", "0,-1,1,-10,-20"])
        tracer.uninstall()
        restored = [getattr(sys.modules["freycheck." + m], a) for m, a in targets]
        print(code, all(w.__wrapped__ is r for w, r in zip(wrappers, restored)))
        print(tracer.layer_metrics()["tate.local_data_with_model.calls"] > 0)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SPANS)], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True\nTrue\n"
