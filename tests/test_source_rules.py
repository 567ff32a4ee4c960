"""The package's source keeps the toolkit's standing rules: it imports
only the standard library, it uses no floating-point arithmetic, one
module, ``arith``, owns every process pool, the CPU count that sizes
them and every primality test, one, ``cli``, owns standard error (no
module logs), and no module reads ``sys.argv``.  A non-prime is refused
by ``arith.require_prime`` alone and a value outside its range by
``arith.require_range`` (or ``require_prime``, for a prime's upper bound)
alone, and ``cli``'s parser reads integers only: the library function
that owns a value's rule calls one of them.  Every name a module imports
is used in that module.

Each module under ``src/freycheck`` is parsed, not imported, and every
node is checked: absolute imports must name a stdlib module; float and
complex literals, true division (``/``, ``/=``), ``float(...)`` and
``complex(...)`` calls are refused; of ``math`` only the exact integer
functions may be used; no ``raise ValueError(...)`` outside a function
named ``require_prime`` may name a prime in its message, and none outside
``require_prime`` and ``require_range`` may say "must be >=", "exceeds" or
"non-negative".
"""

import ast
import re
import sys
from pathlib import Path
from typing import List, Set

import pytest

import freycheck

SOURCES = sorted(Path(freycheck.__file__).parent.glob("*.py"))
EXACT_MATH = {"gcd", "isqrt", "prod", "comb", "lcm", "factorial"}
PRIME_WORD = re.compile(r"\bprime\b", re.IGNORECASE)
RANGE_WORDS = re.compile(r"must be >=|\bexceeds\b|non-negative", re.IGNORECASE)


def value_error_says(exc: ast.AST, words: "re.Pattern[str]") -> bool:
    """Whether ``exc`` is a ``ValueError(...)`` whose message matches ``words``."""
    return (
        isinstance(exc, ast.Call)
        and isinstance(exc.func, ast.Name)
        and exc.func.id == "ValueError"
        and any(
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and words.search(node.value)
            for node in ast.walk(exc)
        )
    )


def violations(source: str) -> List[str]:
    """One line per breach of the rules in ``source``, in line order."""
    tree = ast.parse(source)
    math_names = set()  # what "import math [as m]" binds
    # arith's refusal helpers may raise them: require_prime a non-prime,
    # require_range (and require_prime) a value outside its range.
    inside = {
        node.name: {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("require_prime", "require_range")
    }
    prime_refusal = inside.get("require_prime", set())
    range_refusal = prime_refusal | inside.get("require_range", set())
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
        elif (
            isinstance(node, ast.Raise)
            and id(node) not in prime_refusal
            and value_error_says(node.exc, PRIME_WORD)
        ):
            found.append((line, "refuses a non-prime outside require_prime"))
        elif (
            isinstance(node, ast.Raise)
            and id(node) not in range_refusal
            and value_error_says(node.exc, RANGE_WORDS)
        ):
            found.append((line, "refuses a range outside require_range"))
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
            "raise ValueError('p must be an odd prime')",
            "raise ValueError(f'{n} is not PRIME')",
            "raise ValueError('triple must be coprime')",
            "raise ArithmeticError('p must be prime')",
            "def require_prime(n):",
            "    raise ValueError('n must be a prime')",
            "raise ValueError('height must be >= 1')",
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
        "refuses a non-prime outside require_prime",
        "refuses a non-prime outside require_prime",
        "refuses a range outside require_range",
    ]


@pytest.mark.parametrize(
    "source, fires",
    [
        ("raise ValueError('height must be >= 1')", True),
        ("raise ValueError('lmax exceeds MAX_ELL = %d' % MAX_ELL)", True),
        ("raise ValueError(f'alpha must be non-negative, got {alpha}')", True),
        ("def _check_height(h):\n    if h < 1:\n        raise ValueError('height must be >= 1')",
         True),
        ("def require_range(n, name, least):\n"
         "    raise ValueError('%s must be >= %d, got %d' % (name, least, n))", False),
        ("def require_prime(n, name, most):\n"
         "    raise ValueError('%s exceeds %s' % (name, most))", False),
        ("require_range(height, 'height', 1, 'MAX_HEIGHT')", False),
        ("raise FactorizationError('factorization bound exceeded')", False),
        ("raise ArithmeticError('the order exceeds the Hasse bound')", False),
    ],
    ids=["least", "exceeds", "non-negative", "wrapper", "require-range", "require-prime",
         "call", "exceeded", "not-value-error"],
)
def test_range_rule_fires(source, fires):
    breach = "refuses a range outside require_range"
    assert any(line.endswith(breach) for line in violations(source)) is fires


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


def names_any(tree: ast.AST, names: Set[str]) -> bool:
    """Whether ``tree`` imports, calls or otherwise names one of ``names``."""
    return any(
        isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
        for node in ast.walk(tree)
    )


def naming(names: Set[str]) -> Set[str]:
    """The modules under ``src/freycheck`` whose source names one of ``names``."""
    return {path.name for path in SOURCES if names_any(ast.parse(path.read_text()), names)}


def test_only_arith_tests_primality():
    # Every other module refuses a non-prime through arith.require_prime.
    assert naming({"is_prime"}) == {"arith.py"}


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .arith import is_prime as prime", True),
        ("from . import arith\nok = arith.is_prime(7)", True),
        ("ok = is_prime(7)", True),
        ("from .arith import require_prime\nrequire_prime(7, 'is_prime')", False),
    ],
)
def test_is_prime_rule_fires(source, names):
    assert names_any(ast.parse(source), {"is_prime"}) is names


def test_only_arith_imports_a_process_pool():
    importers = {
        path.name
        for path in SOURCES
        if imported_modules(ast.parse(path.read_text())) & {"concurrent", "multiprocessing"}
    }
    assert importers == {"arith.py"}


CPU_COUNTS = {"cpu_count", "sched_getaffinity"}


def test_only_arith_counts_cpus():
    # arith.pool_size alone decides how many CPUs a pool may use.
    assert naming(CPU_COUNTS) == {"arith.py"}


@pytest.mark.parametrize(
    "source, names",
    [
        ("import os\nn = os.cpu_count()", True),
        ("import os\nn = len(os.sched_getaffinity(0))", True),
        ("from os import sched_getaffinity as mask", True),
        ("import multiprocessing as mp\nn = mp.cpu_count()", True),
        ("from .arith import pool_size\nn = pool_size(10, 1)", False),
    ],
    ids=["cpu-count", "affinity", "import-as", "multiprocessing", "pool-size"],
)
def test_cpu_count_rule_fires(source, names):
    assert names_any(ast.parse(source), CPU_COUNTS) is names


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


def parser_breaches(tree: ast.AST) -> List[str]:
    """Where ``tree`` lets the parser refuse a value by its range.

    ``argparse.ArgumentTypeError`` may be raised only inside
    ``_comma_ints`` (a list of the wrong length cannot be read), every
    ``type=`` is ``int``, ``_comma_ints(...)`` or ``_model``, and no option
    with a ``type=`` lists ``choices=``.
    """
    shape_check = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_comma_ints"
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Raise)
            and id(node) not in shape_check
            and any(
                isinstance(name, ast.Name) and name.id == "ArgumentTypeError"
                or isinstance(name, ast.Attribute) and name.attr == "ArgumentTypeError"
                for name in ast.walk(node)
            )
        ):
            found.append("line %d: raises ArgumentTypeError" % node.lineno)
        elif isinstance(node, ast.keyword) and node.arg == "type":
            value = node.value
            if not (
                isinstance(value, ast.Name) and value.id in ("int", "_model")
                or isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "_comma_ints"
            ):
                found.append("line %d: type=%s" % (node.lineno, ast.unparse(value)))
        elif isinstance(node, ast.Call) and {"type", "choices"} <= {k.arg for k in node.keywords}:
            found.append("line %d: choices of a typed option" % node.lineno)
    return found


def test_cli_parses_integers_only():
    cli_source = next(path for path in SOURCES if path.name == "cli.py").read_text()
    assert parser_breaches(ast.parse(cli_source)) == []


@pytest.mark.parametrize(
    "source, breaches",
    [
        (
            "def _positive(text):\n"
            "    if int(text) < 1:\n"
            "        raise argparse.ArgumentTypeError('expected a positive integer')\n"
            "    return int(text)",
            ["line 3: raises ArgumentTypeError"],
        ),
        ("from argparse import ArgumentTypeError\nraise ArgumentTypeError('x')",
         ["line 2: raises ArgumentTypeError"]),
        ("parser.add_argument('--p', type=_positive)", ["line 1: type=_positive"]),
        ("bound = dict(type=lambda text: max(2, int(text)))",
         ["line 1: type=lambda text: max(2, int(text))"]),
        ("parser.add_argument('--k', type=int, choices=(3, 4))",
         ["line 1: choices of a typed option"]),
        ("parser.add_argument('--format', choices=('json', 'csv'))", []),
        (
            "def _comma_ints(count=None):\n"
            "    def parse(text):\n"
            "        raise argparse.ArgumentTypeError('expected %d integers' % count)\n"
            "    return parse\n"
            "model = dict(type=_model)\n"
            "parser.add_argument('--p-list', type=_comma_ints())",
            [],
        ),
    ],
    ids=["raise", "raise-imported", "type", "type-lambda", "choices", "string-choices", "allowed"],
)
def test_parser_rule_fires(source, breaches):
    assert parser_breaches(ast.parse(source)) == breaches


def unused_imports(tree: ast.AST) -> List[str]:
    """The names that ``tree``'s imports bind and nothing in ``tree`` reads.

    A read is a name in the code or in a string annotation; ``from
    __future__`` imports bind nothing.
    """
    bound = []  # (line, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    notes = [
        ast.parse(note.value, mode="eval")
        for node in ast.walk(tree)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(note, ast.Constant) and isinstance(note.value, str)
    ]
    read = {node.id for part in [tree, *notes] for node in ast.walk(part) if isinstance(node, ast.Name)}
    return ["line %d: %s" % item for item in sorted(bound) if item[1] not in read]


def test_every_imported_name_is_used():
    assert {path.name: unused_imports(ast.parse(path.read_text())) for path in SOURCES} == {
        path.name: [] for path in SOURCES
    }


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from math import isqrt\nfrom typing import List\ndef f() -> List[int]:\n    return []",
         ["line 1: isqrt"]),
        ("import importlib.util\nimport os.path as osp\nspec = importlib.util.find_spec('x')",
         ["line 2: osp"]),
        ("from __future__ import annotations\nimport math\nx = math.gcd(4, 6)", []),
        ("from typing import Sequence\ndef f(xs: 'Sequence[int]') -> None:\n    pass", []),
        ("import sys as s, json\nprint(json.dumps(s.path))", []),
    ],
    ids=["from", "dotted-as", "future", "string-annotation", "as"],
)
def test_unused_import_rule_fires(source, unused):
    assert unused_imports(ast.parse(source)) == unused
