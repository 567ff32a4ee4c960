"""The package's source keeps the toolkit's standing rules: it imports
only the standard library, it uses no floating-point arithmetic, one
module, ``arith``, owns every process pool, one, ``cli``, owns
standard error (no module logs), and no module reads ``sys.argv``.

Each module under ``src/freycheck`` is parsed, not imported, and every
node is checked: absolute imports must name a stdlib module; float and
complex literals, true division (``/``, ``/=``), ``float(...)`` and
``complex(...)`` calls are refused; of ``math`` only the exact integer
functions may be used.
"""

import ast
import sys
from pathlib import Path
from typing import List, Set

import pytest

import freycheck

SOURCES = sorted(Path(freycheck.__file__).parent.glob("*.py"))
EXACT_MATH = {"gcd", "isqrt", "prod", "comb", "lcm", "factorial"}


def violations(source: str) -> List[str]:
    """One line per breach of the rules in ``source``, in line order."""
    tree = ast.parse(source)
    math_names = set()  # what "import math [as m]" binds
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append((line, "imports non-stdlib %s" % alias.name))
                if alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in sys.stdlib_module_names:
                found.append((line, "imports non-stdlib %s" % node.module))
            if node.module == "math":
                found.extend(
                    (line, "uses math.%s" % alias.name)
                    for alias in node.names
                    if alias.name not in EXACT_MATH
                )
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((line, "has the inexact literal %r" % node.value))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((line, "divides with /"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            found.append((line, "calls %s" % node.func.id))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in EXACT_MATH
        ):
            found.append((node.lineno, "uses math.%s" % node.attr))
    return ["line %d: %s" % item for item in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_source_is_stdlib_only_and_exact(path):
    assert violations(path.read_text()) == []


def test_every_rule_fires():
    source = "\n".join(
        [
            "import numpy",
            "from sympy import factorint",
            "import math as m",
            "from math import sqrt, isqrt",
            "x = 0.5",
            "z = 2j",
            "y = 3 / 2",
            "y /= 2",
            "w = float(3)",
            "v = complex(1, 2)",
            "u = m.log(2) + m.gcd(4, 6)",
        ]
    )
    assert [line.split(": ", 1)[1] for line in violations(source)] == [
        "imports non-stdlib numpy",
        "imports non-stdlib sympy",
        "uses math.sqrt",
        "has the inexact literal 0.5",
        "has the inexact literal 2j",
        "divides with /",
        "divides with /",
        "calls float",
        "calls complex",
        "uses math.log",
    ]


def imported_modules(tree: ast.AST) -> Set[str]:
    """The top-level module of every absolute import in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def touches_stderr(tree: ast.AST) -> bool:
    """Whether ``tree`` reads ``sys.stderr`` (or ``__stderr__``) or imports ``stderr``."""
    return any(
        isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__")
        or isinstance(node, ast.alias) and node.name == "stderr"
        for node in ast.walk(tree)
    )


def reads_argv(tree: ast.AST) -> bool:
    """Whether ``tree`` reads ``sys.argv`` (any ``.argv``) or imports ``argv``."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "argv"
        or isinstance(node, ast.alias) and node.name == "argv"
        for node in ast.walk(tree)
    )


def test_only_arith_imports_a_process_pool():
    importers = {
        path.name
        for path in SOURCES
        if imported_modules(ast.parse(path.read_text())) & {"concurrent", "multiprocessing"}
    }
    assert importers == {"arith.py"}


def test_only_cli_touches_stderr_and_no_module_imports_logging():
    # A diagnostic or a finding reaches stderr through cli.main alone.
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert {name for name, tree in trees.items() if touches_stderr(tree)} == {"cli.py"}
    assert {name for name, tree in trees.items() if "logging" in imported_modules(tree)} == set()


@pytest.mark.parametrize(
    "source, touches",
    [
        ("import sys\nsys.stderr.write('x')", True),
        ("import sys\nprint('x', file=sys.__stderr__)", True),
        ("from sys import stderr as err", True),
        ("import sys\nsys.stdout.write('x')", False),
    ],
)
def test_stderr_rule_fires(source, touches):
    assert touches_stderr(ast.parse(source)) is touches


def test_no_module_reads_sys_argv():
    # argparse is the only reader of the command line: cli.main passes it
    # its argv, or None for sys.argv[1:].
    assert [path.name for path in SOURCES if reads_argv(ast.parse(path.read_text()))] == []


@pytest.mark.parametrize(
    "source, reads",
    [
        ("import sys\nargs = sys.argv[1:]", True),
        ("from sys import argv", True),
        ("import sys as s\nn = len(s.argv)", True),
        ("import sys\nsys.stdout.write('argv')", False),
    ],
)
def test_argv_rule_fires(source, reads):
    assert reads_argv(ast.parse(source)) is reads
