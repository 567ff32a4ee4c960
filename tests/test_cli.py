"""Command-line contract: exit codes, output shapes, determinism,
golden stdout, JSON that matches the in-process objects field for field,
the record types' contract, and what importing the CLI loads.
"""

import argparse
import ast
import hashlib
import inspect
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import freycheck.arith as arith
import freycheck.cli as cli
import freycheck.denes as denes_mod
import freycheck.search as search_mod
import freycheck.tate as tate_mod
import freycheck.traces as traces_mod
from freycheck import __version__
from freycheck.arith import MAX_ELL, MAX_HEIGHT, MAX_P, MAX_SCAN, pool_size, primes_up_to
from freycheck.cli import jsonable
from freycheck.denes import denes_criterion
from freycheck.frey import CurveInvariants, build_frey, invariants, normalize
from freycheck.search import (
    CaseResult,
    SearchSpec,
    SolutionRecord,
    classify_search_outcome,
    search_star,
)
from freycheck.tate import all_local_data
from freycheck.traces import mod_p_congruent, trace_table
from freycheck.weierstrass import WeierstrassModel

from oracles import count_points_legendre


#: Pinned stdout of each TestDeterminism case in each format, one file per
#: subcommand and format (``<subcommand>.<format>``).  A change to the
#: bytes of any report shows up here first.
GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv", "human")

#: The benchmark's pinned seed-0 calls: each command line (joined by
#: spaces), its exit code and the sha256 of its stdout.
DIGESTS = Path(__file__).parents[1] / "bench" / "digests.json"


@pytest.fixture
def no_sieve(monkeypatch):
    """Fail the test if a trace table sieves its primes."""

    def sieve(limit):
        raise AssertionError("sieved up to %d" % limit)

    monkeypatch.setattr(traces_mod, "primes_up_to", sieve)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def finding(err):
    """The message of the one ``ERROR freycheck:`` line that is all of ``err``."""
    prefix = "ERROR freycheck: "
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    return err[len(prefix) : -1]


def conductor_free_local_data(model, bound):
    """Tate's local data with every conductor exponent set to 0: an oracle
    that sees good reduction everywhere, to provoke a disagreement."""
    return [data._replace(conductor_exponent=0) for data in all_local_data(model, bound)]


#: The integer-list options, each given a list with a leading minus:
#: (arguments before it, option, value, arguments after it, exit code).
NEGATIVE_LISTS = {
    "triple": (["analyze", "--p", "5", "--alpha", "1"], "--triple", "-1,1,-1", [], 0),
    "model": (["traces"], "--model", "-1,0,0,-1,0", ["--lmax", "30"], 0),
    "model1": (["congruence"], "--model1", "-1,0,0,-1,0",
               ["--model2", "0,0,0,-1,0", "--p", "5", "--lmax", "30"], 0),
    "model2": (["congruence", "--model1", "0,0,0,-1,0"], "--model2", "-1,0,0,-1,0",
               ["--p", "5", "--lmax", "30"], 0),
    "p-list": (["verify"], "--p-list", "-5,7", ["--alpha-list", "1", "--height", "3"], 2),
    "alpha-list": (["verify", "--p-list", "5"], "--alpha-list", "-1,2", ["--height", "3"], 2),
}

#: Every integer option of every subcommand, given values below its
#: least (0, a negative value and the value just below the least):
#: (the other arguments, option, values, the library's refusal, in which
#: "{}" stands for the value).  search's --alpha may be 0, and analyze's
#: --alpha 0 is the Fermat case.
FERMAT = (
    "not a solution (Fermat case: alpha reduces to 0 mod p, and "
    "a^p + b^p + c^p = 0 has no solutions in non-zero integers)"
)
OUT_OF_RANGE = [
    ("analyze --alpha 1 --triple=-1,1,-1", "--p", (0, -5, 2), "p must be a prime >= 3, got {}"),
    ("analyze --p 5 --triple=-1,1,-1", "--alpha", (0,), FERMAT),
    ("analyze --p 5 --triple=-1,1,-1", "--alpha", (-5, -1), "alpha must be >= 0, got {}"),
    ("analyze --p 5 --alpha 1 --triple=-1,1,-1", "--factor-bound", (0, -5, 1),
     "factor bound must be >= 2, got {}"),
    ("denes", "--p", (0, -5, 4), "p must be a prime >= 5, got {}"),
    ("denes", "--scan", (0, -5, 4), "p_max must be >= 5, got {}"),
    ("search --alpha 1 --height 5", "--p", (0, -5, 2), "p must be a prime >= 3, got {}"),
    ("search --p 5 --height 5", "--alpha", (-5, -1), "alpha must be >= 0, got {}"),
    ("search --p 5 --alpha 1 --height 5", "--L", (0, -5, 1), "L must be a prime >= 2, got {}"),
    ("search --p 5 --alpha 1", "--height", (0, -5), "height must be >= 1, got {}"),
    ("ap-search --k 3 --height 5", "--n", (0, -5, 1), "exponent n must be >= 2, got {}"),
    ("ap-search --n 2 --height 5", "--k", (0, -5, 2, 5),
     "only 3- and 4-term progressions are supported"),
    ("ap-search --n 2 --k 3", "--height", (0, -5), "height must be >= 1, got {}"),
    ("verify --p-list 5 --alpha-list 1", "--height", (0, -5), "height must be >= 1, got {}"),
    ("traces --model 0,0,0,-1,0", "--lmax", (0, -5, 2), "lmax must be >= 3, got {}"),
    ("congruence --model1 0,0,0,-1,0 --model2 0,0,0,1,0 --lmax 30", "--p", (0, -5, 1),
     "p must be a prime >= 2, got {}"),
    ("congruence --model1 0,0,0,-1,0 --model2 0,0,0,1,0 --p 5", "--lmax", (0, -5, 2),
     "lmax must be >= 3, got {}"),
    ("conductor --model 0,0,0,-1,0", "--factor-bound", (0, -5, 1),
     "factor bound must be >= 2, got {}"),
]

#: Runs each NEGATIVE_LISTS case (a JSON list in argv[1]) through
#: ``cli.main`` in the spaced and the equals form, and prints the exit
#: code, stdout and stderr of both as JSON.
NEGATIVE_LIST_RUNNER = """
import contextlib, io, json, sys
from freycheck import cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]

print(json.dumps([
    [run(before + [option, value] + after), run(before + [option + "=" + value] + after)]
    for before, option, value, after, _ in json.loads(sys.argv[1])
]))
"""


def _other_pythons():
    """{version: path} of every CPython >= 3.10 other than this one that starts.

    Candidates are each ``python3.N`` on PATH and each ``bin/python3`` of
    pyenv's versions; a pyenv shim of a version not selected fails ``-c``
    and is dropped.
    """
    candidates = [
        Path(folder) / ("python3.%d" % minor)
        for folder in os.get_exec_path() for minor in range(10, 20)
    ]
    candidates += sorted(Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")).glob(
        "versions/*/bin/python3"
    ))
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:3])"
    found = {}
    for python in filter(Path.is_file, candidates):
        try:
            child = subprocess.run(
                [str(python), "-c", probe], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if child.returncode != 0:
            continue
        name, *version = child.stdout.split()
        version = tuple(map(int, version))
        if name == "cpython" and version >= (3, 10) and version != sys.version_info[:3]:
            found.setdefault(version, str(python))
    return found


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "bogus")
        assert code == 1 and out == "" and "error" in err

    def test_usage_error_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--p", "5")
        assert code == 1 and "--alpha" in err

    def test_usage_error_bad_integer(self, capsys):
        code, _, err = run_cli(capsys, "search", "--p", "five", "--alpha", "1")
        assert code == 1 and "invalid int value: 'five'" in err

    def test_usage_error_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_usage_error_triple_not_integers(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple", "1,x,3"
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            "freycheck analyze: error: argument --triple: "
            "expected comma-separated integers, got '1,x,3'"
        )

    def test_usage_error_wrong_triple_length(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple", "1,2"
        )
        assert code == 1 and "3" in err

    def test_domain_error_composite_p(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--p", "9", "--alpha", "1", "--height", "5"
        )
        assert (code, out, err) == (2, "", "freycheck search: error: p must be a prime >= 3, got 9\n")

    @pytest.mark.parametrize(
        "p_list, alpha_list",
        [("9", "11"), ("-5", "1"), ("1", "1"), ("4", "1"), ("5,9", "1"), ("2", "1")],
    )
    def test_domain_error_verify_p_not_an_odd_prime(self, capsys, monkeypatch, p_list, alpha_list):
        # Every p is checked, also where no alpha < p leaves a case to search.
        # The last p of each list is the one refused.
        monkeypatch.setattr(search_mod, "_search_specs", lambda *a: pytest.fail("searched"))
        code, out, err = run_cli(
            capsys, "verify", "--p-list=" + p_list, "--alpha-list", alpha_list
        )
        refused = "freycheck verify: error: p must be a prime >= 3, got %s\n" % p_list.split(",")[-1]
        assert (code, out, err) == (2, "", refused)

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            ("analyze --p 9 --alpha 1 --triple -1,1,-1", "p must be a prime >= 3, got 9"),
            ("search --p 5 --alpha 1 --L 4 --height 5", "L must be a prime >= 2, got 4"),
            ("verify --p-list 2 --alpha-list 1", "p must be a prime >= 3, got 2"),
            ("denes --p 3", "p must be a prime >= 5, got 3"),
            ("congruence --model1 0,0,0,-1,0 --model2 0,0,0,1,0 --p 4", "p must be a prime >= 2, got 4"),
        ],
        ids=["analyze", "search", "verify", "denes", "congruence"],
    )
    def test_domain_error_not_a_prime(self, capsys, argv, refusal):
        args = argv.split()
        code, out, err = run_cli(capsys, *args)
        assert (code, out, err) == (2, "", "freycheck %s: error: %s\n" % (args[0], refusal))

    @pytest.mark.parametrize(
        "argv, option, value, refusal",
        [
            pytest.param(
                argv, option, value, refusal.format(value),
                id="%s%s=%d" % (argv.split()[0], option, value),
            )
            for argv, option, values, refusal in OUT_OF_RANGE
            for value in values
        ],
    )
    def test_domain_error_integer_below_its_least(self, capsys, argv, option, value, refusal):
        # The parser reads integers only; the library function that owns
        # the rule refuses the value.
        args = argv.split()
        code, out, err = run_cli(capsys, *args, option, str(value))
        assert (code, out, err) == (2, "", "freycheck %s: error: %s\n" % (args[0], refusal))

    def test_out_of_range_cases_cover_every_integer_option(self):
        options = {
            (name, action.option_strings[0])
            for name, command in _subcommands().items()
            for action in command._actions
            if action.type is int
        }
        assert options == {(argv.split()[0], option) for argv, option, *_ in OUT_OF_RANGE}

    def test_domain_error_singular_model(self, capsys):
        code, _, err = run_cli(capsys, "conductor", "--model", "0,0,0,0,0")
        assert code == 2 and "singular" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("traces", "--model", "0,0,0,-1,0"),
            ("congruence", "--model1", "0,0,0,-1,0", "--model2", "0,0,0,1,0", "--p", "5"),
        ],
        ids=["traces", "congruence"],
    )
    def test_domain_error_lmax_above_max_ell(self, capsys, no_sieve, args):
        code, out, err = run_cli(capsys, *args, "--lmax", str(MAX_ELL + 1))
        assert code == 2 and out == ""
        assert err == "freycheck %s: error: lmax exceeds MAX_ELL = %d\n" % (args[0], MAX_ELL)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--p", "3000017"), "p exceeds MAX_P = %d" % MAX_P),
            (("--scan", str(10**12)), "p_max exceeds MAX_SCAN = %d" % MAX_SCAN),
        ],
        ids=["p", "scan"],
    )
    def test_domain_error_above_max_p(self, capsys, monkeypatch, args, message):
        monkeypatch.setattr(denes_mod, "primes_up_to", lambda n: pytest.fail("sieved to %d" % n))
        code, out, err = run_cli(capsys, "denes", *args)
        assert code == 2 and out == ""
        assert err == "freycheck denes: error: %s\n" % message

    @pytest.mark.parametrize(
        "args",
        [
            ("search", "--p", "5", "--alpha", "1"),
            ("verify", "--p-list", "5", "--alpha-list", "1"),
            ("ap-search", "--n", "2", "--k", "3"),
        ],
        ids=["search", "verify", "ap-search"],
    )
    def test_domain_error_height_above_max_height(self, capsys, monkeypatch, args):
        for name in ("_search_specs", "_square_progressions", "_power_progressions"):
            monkeypatch.setattr(search_mod, name, lambda *a: pytest.fail("searched"))
        code, out, err = run_cli(capsys, *args, "--height", str(MAX_HEIGHT + 1))
        assert code == 2 and out == ""
        assert err == "freycheck %s: error: height exceeds MAX_HEIGHT = %d\n" % (
            args[0], MAX_HEIGHT
        )

    def test_domain_error_ap_search_above_the_sweep_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(search_mod, "_power_progressions", lambda *a: pytest.fail("swept"))
        code, out, err = run_cli(capsys, "ap-search", "--n", "3", "--k", "3", "--height", "40000")
        assert code == 2 and out == ""
        assert err == (
            "freycheck ap-search: error: n = 3 at height 40000 needs about 358393344000 "
            "units of work, above MAX_AP_WORK = %d\n" % search_mod.MAX_AP_WORK
        )

    def test_domain_error_denes_scan_above_the_work_budget(self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(denes_mod, "primes_up_to", lambda n: pytest.fail("sieved to %d" % n))
        code, out, err = run_cli(capsys, "denes", "--scan", str(MAX_P))
        assert code == 2 and out == "" and pool_sizes == []
        assert err == "freycheck denes: error: p_max exceeds MAX_SCAN = 30840\n"

    def test_singular_second_model_is_refused_before_the_sieve(self, capsys, no_sieve):
        code, out, err = run_cli(
            capsys,
            "congruence", "--model1", "0,0,0,-1,0", "--model2", "0,0,0,0,0", "--p", "5",
        )
        assert code == 2 and out == "" and "singular" in err

    def test_domain_error_fermat_case(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "10", "--triple=-1,1,-1"
        )
        assert code == 2 and "Fermat case" in err

    def test_domain_error_not_a_solution(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "2", "--triple", "1,1,1"
        )
        assert code == 2 and "not a solution" in err

    def test_domain_error_factor_bound(self, capsys):
        code, _, err = run_cli(
            capsys,
            "conductor",
            "--model",
            "0,0,0,0,%d" % (10**9 + 7),
            "--factor-bound",
            "1000",
        )
        assert code == 2 and "factorization bound exceeded" in err

    def test_domain_error_discriminant_beyond_certification(self, capsys):
        # Delta = -2^6 * 157 * 3779 * R, R = 4675926601 * 16273230731 *
        # 149515342841813843: R is above MILLER_RABIN_BOUND, so no answer
        # is given, however the primes below the bound are found.
        code, out, err = run_cli(
            capsys, "conductor", "--model", "0,0,0,-1,%d" % 10**21
        )
        assert code == 2 and out == ""
        assert err == (
            "freycheck conductor: error: factorization bound exceeded "
            "(cofactor too large to certify)\n"
        )

    def test_domain_error_factor_bound_below_2(self, capsys):
        code, out, err = run_cli(
            capsys, "conductor", "--model", "0,0,0,-1,0", "--factor-bound", "1"
        )
        refusal = "freycheck conductor: error: factor bound must be >= 2, got 1\n"
        assert (code, out, err) == (2, "", refusal)

    def test_environment_does_not_set_the_factor_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("FREYCHECK_FACTOR_BOUND", "not-a-number")
        code, out, _ = run_cli(capsys, "conductor", "--model", "0,0,0,-1,0")
        assert code == 0 and json.loads(out)["conductor"] == 32

    def test_counterexample_exit_search(self, capsys, monkeypatch):
        fake = [
            SolutionRecord(a=3, b=2, c=7, normalized_form=(3, 2, 7), trivial=False)
        ]
        monkeypatch.setattr(search_mod, "search_star", lambda spec: fake)
        code, out, err = run_cli(
            capsys, "search", "--p", "5", "--alpha", "1", "--height", "5"
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["conforms"] is False
        assert doc["counterexamples"][0]["a"] == 3
        assert finding(err) == "1 record(s) contradict the expected verdict 'trivial-only'"

    def test_counterexample_exit_ap_search(self, capsys, monkeypatch):
        monkeypatch.setattr(
            search_mod, "search_ap_powers", lambda n, k, h, distinct_only: [(1, 2, 3, 4)]
        )
        code, out, err = run_cli(capsys, "ap-search", "--n", "2", "--k", "4")
        assert code == 3 and json.loads(out)["conforms"] is False
        assert finding(err) == "1 progression(s) contradict an established non-existence result"

    def test_counterexample_exit_verify(self, capsys, monkeypatch):
        spec = SearchSpec(p=5, alpha=1, height=5)
        fake = [SolutionRecord(a=3, b=2, c=7, normalized_form=(3, 2, 7), trivial=False)]
        case = CaseResult(spec, fake, classify_search_outcome(spec, fake))
        monkeypatch.setattr(search_mod, "verify_theorem_claims", lambda p, alpha, h: [case])
        code, out, err = run_cli(
            capsys, "verify", "--p-list", "5", "--alpha-list", "1", "--height", "5"
        )
        doc = json.loads(out)
        assert code == 3 and doc["all_conform"] is False and doc["cases"][0]["conforms"] is False
        assert finding(err) == "at least one (p, alpha) case contradicts the expected verdict"

    def test_counterexample_exit_analyze_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(tate_mod, "all_local_data", conductor_free_local_data)
        code, out, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple=-1,1,-1"
        )
        assert code == 3 and json.loads(out)["cross_check"]["agree"] is False
        assert finding(err) == (
            "closed-form table disagrees with the oracle's (conductor, t, u) = (1, 0, 4)"
        )

    def test_counterexample_exit_analyze_u_disagreement(self, capsys, monkeypatch):
        # Tate's conductor and t stay right; only its u moves off the table's.
        def shifted(model, bound):
            return [
                data._replace(min_disc_valuation=data.min_disc_valuation + 12)
                if data.prime == 2
                else data
                for data in all_local_data(model, bound)
            ]

        monkeypatch.setattr(tate_mod, "all_local_data", shifted)
        code, out, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple=-1,1,-1"
        )
        cross = json.loads(out)["cross_check"]
        assert code == 3 and cross["agree"] is False
        assert finding(err).startswith("closed-form table disagrees")
        assert cross["conductor_oracle"] == cross["conductor_table"] == 32
        assert cross["t_oracle"] == cross["t_table"] == 5

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and __version__ in out


def _subcommands():
    """Each subcommand's name and parser."""
    (sub,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices


class TestOptions:
    """Each subcommand takes exactly the options its handler reads."""

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_options_are_the_args_the_handler_reads(self, name):
        command = _subcommands()[name]
        tree = ast.parse(textwrap.dedent(inspect.getsource(command.get_default("handler"))))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        options = {action.dest for action in command._actions} - {"help"}
        # main reads --format to render the report.
        assert options == read | {"format"}

    def test_format_defaults(self):
        defaults = {name: cmd.get_default("format") for name, cmd in _subcommands().items()}
        assert defaults.pop("traces") == "csv"
        assert set(defaults.values()) == {"json"}

    def test_help_prints_each_limit_at_its_value(self, capsys):
        # argparse wraps help lines, so whitespace is collapsed before matching.
        printed = {}
        for name in sorted(_subcommands()):
            code, out, _ = run_cli(capsys, name, "--help")
            assert code == 0
            for limit, value in re.findall(r"\b(MAX_[A-Z_]+) = (\d+)", " ".join(out.split())):
                printed.setdefault(limit, set()).add(int(value))
        limits = ("MAX_ELL", "MAX_HEIGHT", "MAX_P", "MAX_SCAN")
        assert printed == {limit: {getattr(arith, limit)} for limit in limits}

    @pytest.mark.parametrize(
        "args",
        [
            ("traces", "--model", "0,0,0,-1,0", "--workers", "2"),
            ("denes", "--p", "7", "--factor-bound", "10"),
            # Pools size themselves; no command takes a process count.
            ("denes", "--scan", "29", "--workers", "2"),
            ("search", "--p", "5", "--alpha", "1", "--workers", "2"),
            ("verify", "--p-list", "5", "--alpha-list", "1", "--workers", "2"),
        ],
        ids=["traces-workers", "denes-factor-bound", "denes-workers", "search-workers",
             "verify-workers"],
    )
    def test_option_the_command_does_not_read_is_a_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert "unrecognized arguments: %s %s" % args[-2:] in err

    @pytest.mark.parametrize(
        "before, option, value, after, expected",
        NEGATIVE_LISTS.values(),
        ids=list(NEGATIVE_LISTS),
    )
    def test_equals_form_for_negative_lists(self, capsys, before, option, value, after, expected):
        # A list with a leading minus is read as the option's value, not
        # as an option: "--opt -1,..." is "--opt=-1,...".
        spaced = run_cli(capsys, *before, option, value, *after)
        equals = run_cli(capsys, *before, "%s=%s" % (option, value), *after)
        assert spaced == equals
        assert spaced[0] == expected

    def test_equals_form_for_negative_lists_on_other_pythons(self):
        # _Parser overrides argparse's private _parse_optional, so each
        # CPython it may run on checks the cases above, in one process.
        pythons = _other_pythons()
        if not pythons:
            pytest.skip("no other CPython >= 3.10 found")
        cases = list(NEGATIVE_LISTS.values())
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for version, python in pythons.items():
            child = subprocess.run(
                [python, "-B", "-c", NEGATIVE_LIST_RUNNER, json.dumps(cases)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert child.returncode == 0, (version, child.stderr)
            runs = json.loads(child.stdout)
            for name, (spaced, equals), case in zip(NEGATIVE_LISTS, runs, cases):
                assert spaced == equals, (version, name)
                assert spaced[0] == case[-1], (version, name)

    @pytest.mark.parametrize(
        "args",
        [
            ("search", "--p", "5", "--alpha", "1", "--allow-imprimitive", "-1,1,-1"),
            ("ap-search", "--n", "2", "--k", "3", "--allow-constant", "-1,2"),
        ],
        ids=["allow-imprimitive", "allow-constant"],
    )
    def test_negative_list_after_a_flag_is_unrecognized(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert err.endswith("error: unrecognized arguments: %s\n" % args[-1])

    @pytest.mark.parametrize(
        "args, message",
        [
            (("search", "--p", "-1,2", "--alpha", "1"),
             "freycheck search: error: argument --p: invalid int value: '-1,2'\n"),
            (("-1,1,-1",), "freycheck: error: argument command: invalid choice: '-1,1,-1'"),
        ],
        ids=["integer-option", "command"],
    )
    def test_negative_list_in_the_wrong_place_is_a_usage_error(self, capsys, args, message):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == "" and message in err

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        args = ["analyze", "--p", "5", "--alpha", "1", "--triple", "-1,1,-1"]
        expected = run_cli(capsys, *args)
        monkeypatch.setattr(sys, "argv", ["freycheck", *args])
        assert cli.main() == expected[0] == 0
        assert capsys.readouterr() == expected[1:]


class TestAnalyze:
    def test_trivial_solution_document(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple", "-1,1,-1"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["toolkit_version"] == __version__
        assert doc["command"] == "analyze"
        assert doc["invariants"]["conductor"] == 32
        assert doc["invariants"]["t"] == 5
        assert doc["trivial_level"] is True
        assert doc["cartan_type"] == "Split"
        assert doc["cross_check"]["agree"] is True
        assert doc["params"] == {
            "p": 5,
            "alpha": 1,
            "a": -1,
            "b": 1,
            "c": -1,
            "normalized": True,
        }
        assert doc["triple"] == {"A": -1, "B": 2, "C": -1}
        triple, _ = build_frey(normalize(5, 1, -1, 1, -1))
        assert doc["invariants"] == jsonable(invariants(triple))

    def test_sign_flip_input(self, capsys):
        _, out, _ = run_cli(
            capsys, "analyze", "--p", "7", "--alpha", "1", "--triple", "1,-1,1"
        )
        doc = json.loads(out)
        assert doc["params"]["a"] == -1 and doc["cartan_type"] == "NonSplit"

    def test_alpha_reduction_reported(self, capsys):
        # alpha = 6, b = 1 reduces to alpha = 1, b = 2 for p = 5:
        # (-1)^5 + 2^6 * 1 + (-63)^5? no -- use a consistent input:
        # a^5 + 2^6 b^5 + c^5 = 0 with (a, b, c) = (-1, 1, -1) scaled?
        # Simplest: alpha = 6 = 5 + 1, so 2^6 b^5 = 2 * (2b)^5 needs b
        # adjusted; (-2)^5 + 2^6*1^5 + (-2)^5 = -32 + 64 - 32 = 0.
        code, out, _ = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "6", "--triple=-1,1,-1"
        )
        assert code == 2  # (-1, 1, -1) does not satisfy the alpha = 6 equation
        code, out, _ = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple=-2,1,-2"
        )
        assert code == 2  # not primitive


class TestDenes:
    EXPECTED_KEYS = {
        "p",
        "is_regular",
        "irregular_indices",
        "ord2",
        "order_condition",
        "wieferich_violation",
        "criterion_holds",
    }

    def test_scan_29_jsonl(self, capsys):
        code, out, err = run_cli(capsys, "denes", "--scan", "29")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 8
        reports = [json.loads(line) for line in lines]
        assert [r["p"] for r in reports] == [5, 7, 11, 13, 17, 19, 23, 29]
        for r in reports:
            assert set(r) == self.EXPECTED_KEYS
            assert r["criterion_holds"] is True
            assert r == jsonable(denes_criterion(r["p"]))

    def test_single_p(self, capsys):
        code, out, _ = run_cli(capsys, "denes", "--p", "31")
        assert code == 0
        doc = json.loads(out)
        assert doc["criterion_holds"] is False and doc["ord2"] == 5

    def test_p_and_scan_mutually_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "denes", "--p", "5", "--scan", "29")
        assert code == 1 and "not allowed" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "denes", "--scan", "40", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "p,is_regular,irregular_indices,ord2,order_condition,"
            "wieferich_violation,criterion_holds"
        )
        row37 = [line for line in lines if line.startswith("37,")][0]
        assert "32" in row37 and "False" in row37


class TestSearchCommand:
    def test_empty_result_exit_0(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--p", "5", "--alpha", "2", "--height", "25"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["records"] == [] and doc["conforms"] is True
        assert doc["expected"] == "empty" and doc["claim"] == "established"

    def test_trivial_only_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "--p", "5", "--alpha", "1", "--height", "12"
        )
        doc = json.loads(out)
        records = doc["records"]
        assert len(records) == 1 and records[0]["trivial"] is True
        assert records == jsonable(search_star(SearchSpec(p=5, alpha=1, height=12)))

    def test_csv(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "search", "--p", "3", "--alpha", "1", "--height", "4",
            "--allow-imprimitive", "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "a,b,c,content,trivial"
        assert lines[1] == "-1,1,-1,1,True"
        assert len(lines) == 5  # contents 1..4 of the trivial family

    @pytest.mark.parametrize("p,alpha", [(3, 4), (3, 7), (5, 6)])
    def test_trivial_family_when_alpha_at_least_p(self, capsys, p, alpha):
        """a = c = -2^(alpha // p) * b is the trivial solution of the reduced
        equation, not a counterexample."""
        code, out, err = run_cli(
            capsys, "search", "--p", str(p), "--alpha", str(alpha), "--height", "10"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        k = 2 ** (alpha // p)
        assert [(r["a"], r["b"], r["c"]) for r in doc["records"]] == [(-k, 1, -k)]
        assert doc["records"][0]["trivial"] is True
        assert doc["expected"] == "trivial-only" and doc["conforms"] is True

    def test_sigma_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--p", "11", "--alpha", "1", "--L", "3",
            "--height", "12",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["claim"] == "empirical" and doc["records"] == []


class TestApSearchCommand:
    def test_squares_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "ap-search", "--n", "2", "--k", "3", "--height", "20")
        assert code == 0
        doc = json.loads(out)
        assert [7, 13, 17] in doc["progressions"]
        assert doc["claim"] == "empirical"

    def test_fourth_powers_empty(self, capsys):
        code, out, _ = run_cli(capsys, "ap-search", "--n", "4", "--k", "3", "--height", "60")
        assert code == 0
        doc = json.loads(out)
        assert doc["progressions"] == [] and doc["conforms"] is True
        assert doc["claim"] == "established" and doc["expected"] == "empty"

    def test_k_choice_validated(self, capsys):
        code, out, err = run_cli(capsys, "ap-search", "--n", "2", "--k", "5")
        assert (code, out) == (2, "")
        assert err == "freycheck ap-search: error: only 3- and 4-term progressions are supported\n"

    def test_height_help_names_the_budget_at_n_3(self, capsys):
        _, out, _ = run_cli(capsys, "ap-search", "--help")
        assert "MAX_AP_WORK allows (30000 at n = 3)" in " ".join(out.split())
        work = search_mod._ap_sweep_work
        assert work(3, 30_000) <= search_mod.MAX_AP_WORK < work(3, 30_001)


class TestVerifyCommand:
    def test_conformance_run(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--p-list", "3,5", "--alpha-list", "1,2", "--height", "15",
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["all_conform"] is True
        assert len(doc["cases"]) == 4
        for case in doc["cases"]:
            assert case["conforms"] is True

    def test_csv(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "verify", "--p-list", "5", "--alpha-list", "1", "--height", "10",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "p,alpha,height,claim,expected,records,conforms"
        assert lines[1] == "5,1,10,established,trivial-only,1,True"


class TestTracesCommand:
    def test_default_csv(self, capsys):
        code, out, err = run_cli(capsys, "traces", "--model", "0,0,0,-1,0", "--lmax", "20")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "ell,a_ell,reduction"
        assert lines[1] == "3,0,Good"
        assert lines[2] == "5,-2,Good"
        assert len(lines) == 8  # header + odd primes up to 20

    def test_bad_prime_has_empty_cell(self, capsys):
        _, out, _ = run_cli(capsys, "traces", "--model", "0,-1,1,-10,-20", "--lmax", "12")
        lines = out.splitlines()
        assert "11,,Bad" in lines

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_cli(
            capsys, "traces", "--model", "0,0,0,-1,0", "--lmax", "20",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["command"] == "traces" and doc["model"] == [0, 0, 0, -1, 0]
        assert [r["ell"] for r in doc["records"]] == [3, 5, 7, 11, 13, 17, 19]
        assert doc["records"] == jsonable(trace_table(WeierstrassModel(0, 0, 0, -1, 0), 20))

    def test_csv_to_3000_on_a_frey_model_matches_the_per_x_legendre_sum(self, capsys):
        # y^2 = x(x - 3)(x + 32), 3 + 32 - 35 = 0: bad exactly at 3, 5, 7
        # among odd primes, counted by both regimes of count_points.
        model = (0, 29, 0, -96, 0)
        code, out, _ = run_cli(
            capsys, "traces", "--model", "0,29,0,-96,0", "--lmax", "3000", "--format", "csv"
        )
        expected = ["ell,a_ell,reduction"]
        for ell in range(3, 3001, 2):
            if any(ell % q == 0 for q in range(3, math.isqrt(ell) + 1, 2)):
                continue
            if (3 * 32 * 35) % ell == 0:
                expected.append("%d,,Bad" % ell)
            else:
                expected.append("%d,%d,Good" % (ell, count_points_legendre(model, ell)))
        assert code == 0 and out.splitlines() == expected


class TestCongruenceCommand:
    def test_twist_violation(self, capsys):
        code, out, err = run_cli(
            capsys,
            "congruence", "--model1", "0,0,0,-1,0", "--model2", "0,0,0,1,0",
            "--p", "5", "--lmax", "100",
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["report"]["congruent"] is False
        assert doc["report"]["first_violation"] == [13, 6, -6]
        models = WeierstrassModel(0, 0, 0, -1, 0), WeierstrassModel(0, 0, 0, 1, 0)
        assert doc["report"] == jsonable(mod_p_congruent(*models, 5, 100))

    def test_self_congruent(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "congruence", "--model1", "0,0,0,-1,0", "--model2", "0,3,0,2,0",
            "--p", "7", "--lmax", "60",
        )
        doc = json.loads(out)
        assert doc["report"]["congruent"] is True
        assert doc["report"]["first_violation"] is None
        assert "never a proof" in doc["report"]["disclaimer"]

    def test_non_prime_p_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "congruence", "--model1", "0,0,0,-1,0", "--model2", "0,0,0,1,0",
            "--p", "6", "--lmax", "30",
        )
        assert code == 2 and "prime" in err


class TestConductorCommand:
    def test_cm_curve(self, capsys):
        code, out, err = run_cli(capsys, "conductor", "--model", "0,0,0,-1,0")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["conductor"] == 32 and doc["discriminant"] == 64
        local = doc["local_data"]
        assert len(local) == 1 and local[0]["kodaira_type"] == "III"
        assert local == jsonable(all_local_data(WeierstrassModel(0, 0, 0, -1, 0)))

    def test_translated_curve_same_conductor(self, capsys):
        _, out1, _ = run_cli(capsys, "conductor", "--model", "0,0,0,-1,0")
        _, out2, _ = run_cli(capsys, "conductor", "--model", "0,3,0,2,0")
        assert json.loads(out1)["conductor"] == json.loads(out2)["conductor"] == 32

    def test_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "conductor", "--model", "0,0,0,0,3125", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == (
            "prime,conductor_exponent,min_disc_valuation,kodaira_type,reduction"
        )
        assert lines[1].startswith("2,2,") and lines[3].startswith("5,2,")


class TestDeterminism:
    CASES = [
        ("analyze", "--p", "5", "--alpha", "1", "--triple=-1,1,-1"),
        ("denes", "--scan", "29"),
        ("search", "--p", "5", "--alpha", "1", "--height", "15"),
        ("ap-search", "--n", "2", "--k", "3", "--height", "25"),
        ("verify", "--p-list", "3,5", "--alpha-list", "1,2", "--height", "10"),
        ("traces", "--model", "0,0,0,-1,0", "--lmax", "50"),
        (
            "congruence", "--model1", "0,0,0,-1,0", "--model2", "0,0,0,1,0",
            "--p", "5", "--lmax", "50",
        ),
        ("conductor", "--model", "0,33,0,32,0"),
    ]

    @pytest.mark.parametrize("args", CASES, ids=lambda args: args[0])
    def test_repeat_runs_byte_identical(self, capsys, args):
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second
        assert first[0] == 0

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("args", CASES, ids=lambda args: args[0])
    def test_stdout_matches_golden_file(self, capsys, args, fmt):
        code, out, err = run_cli(capsys, *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / ("%s.%s" % (args[0], fmt))).read_text(encoding="utf-8")

    def test_benchmark_calls_match_their_pinned_digests(self, capsys):
        pinned = json.loads(DIGESTS.read_text())
        assert len(pinned) == 46
        for line, (code, digest) in pinned.items():
            got, out, _ = run_cli(capsys, *line.split(" "))
            assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), line

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_report_is_written_as_it_is_rendered(self, capsys, monkeypatch, fmt):
        class Recorder(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        args = ("traces", "--model", "0,-1,1,-10,-20", "--lmax", "2000", "--format", fmt)
        expected = run_cli(capsys, *args)
        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(list(args)) == expected[0] == 0
        assert recorder.getvalue() == expected[1]
        assert recorder.writes > 1

    def test_json_converts_each_record_as_it_is_written(self, capsys, monkeypatch):
        converted = []

        def counting(value, jsonable=cli.jsonable):
            if isinstance(value, traces_mod.TraceRecord):
                converted.append(value.ell)
            return jsonable(value)

        class Recorder(io.StringIO):
            converted_at_first_record = None

            def write(self, text):
                if self.converted_at_first_record is None and '"a_ell"' in text:
                    self.converted_at_first_record = len(converted)
                return super().write(text)

        args = ("traces", "--model", "0,-1,1,-10,-20", "--lmax", "2000", "--format", "json")
        expected = run_cli(capsys, *args)
        recorder = Recorder()
        monkeypatch.setattr(cli, "jsonable", counting)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(list(args)) == expected[0] == 0
        assert recorder.getvalue() == expected[1]
        assert recorder.converted_at_first_record == 1
        assert converted == primes_up_to(2000)[1:]

    @pytest.mark.parametrize(
        "args",
        [
            ("search", "--p", "3", "--alpha", "1", "--height", "30"),
            ("denes", "--scan", "80"),
            ("verify", "--p-list", "3,5", "--alpha-list", "1,2", "--height", "12"),
            # Height 7 has 8 admissible sums, dealt unevenly to 3 processes.
            ("search", "--p", "3", "--alpha", "1", "--height", "7"),
            ("verify", "--p-list", "3,5", "--alpha-list", "1,2", "--height", "7"),
        ],
        ids=["search", "denes", "verify", "search-uneven", "verify-uneven"],
    )
    def test_worker_count_does_not_change_output(self, capsys, force_pools, args):
        # These runs are small enough to skip the pool; split them anyway.
        force_pools(1)
        lone = run_cli(capsys, *args)
        for cpus in (2, 3, 4):
            force_pools(cpus)
            assert run_cli(capsys, *args) == lone, cpus


class TestHumanFormat:
    def test_analyze_human(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--p", "5", "--alpha", "1", "--triple=-1,1,-1",
            "--format", "human",
        )
        assert code == 0
        assert "invariants.conductor" in out and "32" in out

    def test_traces_human(self, capsys):
        code, out, _ = run_cli(
            capsys, "traces", "--model", "0,0,0,-1,0", "--lmax", "10",
            "--format", "human",
        )
        assert code == 0 and out.startswith("ell")


class TestJsonable:
    def test_int_keys_become_strings_before_sorting(self):
        inv = CurveInvariants(
            t=1, odd_radical=33, conductor=66, semistable=True, u=-8,
            odd_disc_valuations={3: 2, 11: 2},
        )
        doc = json.dumps(jsonable(inv), sort_keys=True)
        assert '"odd_disc_valuations": {"11": 2, "3": 2}' in doc


def _sample_records():
    """One instance of each of the 12 record types, as the library makes them."""
    params = normalize(5, 1, -1, 1, -1)
    triple, model = build_frey(params)
    spec = SearchSpec(p=5, alpha=1, height=5)
    records = search_star(spec)
    case = CaseResult(spec, records, classify_search_outcome(spec, records))
    return [
        model,
        all_local_data(model)[0],
        denes_criterion(37),
        params,
        triple,
        invariants(triple),
        spec,
        records[0],
        case.outcome,
        case,
        trace_table(model, 7)[-1],
        mod_p_congruent(model, model, 5, 20),
    ]


RECORD_TYPES = [
    "CaseResult", "CongruenceReport", "CurveInvariants", "DenesReport",
    "FreyParams", "LocalData", "MonomialTriple", "SearchOutcome",
    "SearchSpec", "SolutionRecord", "TraceRecord", "WeierstrassModel",
]


@pytest.fixture(scope="module")
def sample_records():
    # Built on first use, not at import: a fault in a kernel fails these
    # tests, not the collection of the whole file.
    return _sample_records()


@pytest.fixture(params=RECORD_TYPES)
def record(request, sample_records):
    (record,) = [r for r in sample_records if type(r).__name__ == request.param]
    return record


class TestRecords:
    """Records are immutable NamedTuples; pools pickle them, jsonable maps them by field."""

    def test_every_record_type_is_covered(self, sample_records):
        assert sorted(type(record).__name__ for record in sample_records) == RECORD_TYPES

    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)
        with pytest.raises(AttributeError):
            setattr(record, "extra", 0)

    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record

    def test_jsonable_is_a_dict_by_field(self, record):
        doc = jsonable(record)
        assert isinstance(doc, dict) and list(doc) == list(record._fields)

    def test_records_compare_equal_to_plain_tuples(self):
        assert WeierstrassModel(0, 0, 0, -1, 0) == (0, 0, 0, -1, 0)


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "freycheck", "conductor", "--model", "0,0,0,-1,0"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conductor"] == 32
    assert proc.stderr == ""


def test_entry_freezes_the_import_time_heap():
    # An atexit hook registered before entry() runs after main() returns.
    code = (
        "import atexit, gc, sys; import freycheck.cli as cli; "
        "atexit.register(lambda: sys.stderr.write("
        "'%s %s' % (gc.get_freeze_count() > 0, gc.isenabled()))); "
        "cli.entry()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "conductor", "--model", "0,0,0,-1,0"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conductor"] == 32
    assert proc.stderr == "True True"


@pytest.mark.skipif(pool_size(2, 1) < 2, reason="one CPU starts no pool")
def test_frozen_heap_forks_a_real_pool():
    # 661,922, the sum of the primes 5..3200, is two shares of work, so on
    # two or more CPUs the scan forks a pool after the freeze.  The second
    # run may use one CPU and stays in one process.
    assert sum(p for p in primes_up_to(3200) if p >= 5) >= 2 * denes_mod.PRIME_SUM_PER_PROCESS
    one_cpu = (
        "import os; os.sched_getaffinity = lambda pid: {0}; "
        "import freycheck.cli as cli; cli.entry()"
    )
    outputs = [
        subprocess.run(
            [sys.executable, *start, "denes", "--scan", "3200"], capture_output=True, check=False
        )
        for start in (["-m", "freycheck"], ["-c", one_cpu])
    ]
    assert [(proc.returncode, proc.stderr) for proc in outputs] == [(0, b"")] * 2
    assert outputs[0].stdout.count(b"\n") == 450
    assert outputs[1].stdout == outputs[0].stdout


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["denes", "--p", "7", "--scan", "10"], 1, "not allowed with argument"),
        (["conductor", "--model", "0,0,0,-1,%d" % 10**21], 2, "factorization bound exceeded"),
        (["denes", "--scan", str(10**12)], 2, "p_max exceeds MAX_SCAN"),
        (["search", "--p", "5", "--alpha", "1", "--height", str(10**8)], 2, "exceeds MAX_HEIGHT"),
    ],
    ids=["usage", "refusal", "scan-above-max-p", "height-above-max-height"],
)
def test_module_exit_codes(args, code, message):
    proc = subprocess.run(
        [sys.executable, "-m", "freycheck", *args], capture_output=True, text=True, check=False
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["analyze", "--p", "5", "--alpha", str(10**12 + 1), "--triple=-1,1,-1"], 2,
         "freycheck analyze: error: not a solution\n"),
        (["analyze", "--p", str(10**9 + 7), "--alpha", "1", "--triple=3,5,7"], 2,
         "freycheck analyze: error: not a solution\n"),
        (["search", "--p", "5", "--alpha", str(10**9 + 1), "--height", "50"], 0, ""),
        (["search", "--p", str(10**9 + 7), "--alpha", "1", "--height", "3"], 2, "MAX_AP_WORK"),
    ],
    ids=["analyze-huge-alpha", "analyze-huge-p", "search-huge-alpha", "search-huge-p"],
)
def test_huge_alpha_or_p_ends_quickly(bounded_cli, args, code, message):
    # Each of these once built a power of hundreds of millions of bits or more.
    proc = bounded_cli(*args)
    assert (proc.returncode, "Traceback" in proc.stderr) == (code, False), proc.stderr
    assert message in proc.stderr
    if code:
        assert proc.stdout == ""
    else:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["records"] == []


def test_closed_stdout_exits_141_quietly():
    # About 140 KB of CSV, more than a pipe holds: the writer meets the
    # closed pipe mid-report.
    proc = subprocess.Popen(
        [sys.executable, "-m", "freycheck", "traces", "--model", "0,-1,1,-10,-20",
         "--lmax", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(16) == b"ell,a_ell,reduct"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_cli_import_loads_no_process_pool():
    # The pool is imported only by a scan or search of two shares of work.
    code = (
        "import sys, freycheck.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


#: Prints the freycheck modules whose code has run.  A lazily registered
#: module is of a subclass of ModuleType until its first attribute
#: access; ``type`` reads no attribute, so it loads nothing.
EXECUTED = (
    "print(sorted(name for name, module in sys.modules.items() "
    "if name.split('.')[0] == 'freycheck' and type(module) is types.ModuleType))"
)


def test_cli_import_registers_every_module_runs_only_arith_and_no_heavy_stdlib():
    # bench/spans.py finds each freycheck module in sys.modules, so all are
    # registered; of their code only arith's (the parser's bounds) runs.
    # The stdlib modules below are imported only by the paths that use
    # them.  The interpreter's own set (site differs between machines) is
    # subtracted.
    code = (
        "import sys, types; base = set(sys.modules); import freycheck.cli; "
        "new = set(sys.modules) - base; "
        "print(sorted({'dataclasses', 'inspect', 'logging', 'csv', 'json'} & new)); "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'freycheck')); "
        + EXECUTED
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    package = Path(cli.__file__).parent
    modules = ["freycheck"] + [
        "freycheck." + path.stem
        for path in package.glob("*.py")
        if path.stem not in ("__init__", "__main__")
    ]
    executed = ["freycheck", "freycheck.arith", "freycheck.cli"]
    assert proc.stdout == "[]\n%s\n%s\n" % (sorted(modules), executed)


#: Each command's arguments and the modules besides cli whose code it runs.
COMMAND_MODULES = [
    (["conductor", "--model", "0,-1,1,-10,-20"], "arith tate weierstrass"),
    (["analyze", "--p", "5", "--alpha", "1", "--triple=-1,1,-1"], "arith frey tate weierstrass"),
    (["traces", "--model", "0,-1,1,-10,-20", "--lmax", "20"], "arith tate traces weierstrass"),
    (
        ["congruence", "--model1", "0,-1,1,-10,-20", "--model2", "0,-1,1,0,0",
         "--p", "5", "--lmax", "20"],
        "arith tate traces weierstrass",
    ),
    (["denes", "--p", "7"], "arith denes"),
    (["search", "--p", "5", "--alpha", "1", "--height", "3"], "arith frey search weierstrass"),
    (["ap-search", "--n", "2", "--k", "3", "--height", "3"], "arith search"),
    (
        ["verify", "--p-list", "5", "--alpha-list", "1", "--height", "3"],
        "arith frey search weierstrass",
    ),
]


@pytest.mark.parametrize(
    "args, modules", COMMAND_MODULES, ids=[args[0] for args, _ in COMMAND_MODULES]
)
def test_each_command_runs_only_its_own_modules(args, modules):
    code = textwrap.dedent(
        """\
        import contextlib, io, sys, types
        import freycheck.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            print(cli.main(sys.argv[1:]), file=sys.stderr)
        """
    ) + EXECUTED
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=False
    )
    assert (proc.returncode, proc.stderr) == (0, "0\n")
    executed = ["freycheck", "freycheck.cli"] + ["freycheck." + name for name in modules.split()]
    assert proc.stdout == "%s\n" % sorted(executed)


def test_entry_logs_a_contradiction_in_the_cli_format(capsys, monkeypatch):
    # entry() writes the same bytes as main() in-process: the report, then
    # one "ERROR freycheck: message" line, and it never imports logging.
    args = ["analyze", "--p", "7", "--alpha", "1", "--triple=-1,1,-1"]
    code = textwrap.dedent(
        """\
        import sys
        import freycheck.cli as cli, freycheck.tate as tate
        real = tate.all_local_data
        tate.all_local_data = lambda m, b: [d._replace(conductor_exponent=0) for d in real(m, b)]
        try:
            cli.entry()
        finally:
            print("logging" in sys.modules)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=False,
    )
    monkeypatch.setattr(tate_mod, "all_local_data", conductor_free_local_data)
    expected = run_cli(capsys, *args)
    assert expected[0] == proc.returncode == 3
    assert finding(expected[2]).startswith("closed-form table disagrees")
    assert proc.stdout == expected[1] + expected[2] + "False\n"
