"""Command-line front end.

Exit codes: 0 clean run, 1 usage error, 2 domain error (invalid values,
factorization bound exceeded), 3 a finding that contradicts an
established result (emitted only after exact re-verification), 141
standard output closed by its reader (128 + SIGPIPE, as a shell reports
a tool that a closed pipe stopped).

Every report goes to standard output; diagnostics go to standard error,
and so does a finding, as one line ``ERROR freycheck: ...`` written by
``main`` after the report.  JSON is the contract surface: reports carry a
``schema_version`` and the toolkit version and are serialized with
sorted keys, so identical inputs give byte-identical output.  The one
exception is ``denes``, which emits one bare JSON object per report
(exactly the report's field names, no envelope) so scans stream as
JSON Lines.  CSV and human formats are provided for convenience; the
human layout carries no compatibility promise.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from . import __version__, denes, frey, search, tate, traces, weierstrass
from .arith import DEFAULT_FACTOR_BOUND, MAX_ELL, MAX_HEIGHT, MAX_P, valuation

__all__ = ["entry", "jsonable", "main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_CLOSED_PIPE = 141

#: A report table: its header and its rows.
Table = Tuple[Sequence[str], Sequence[Sequence[object]]]
#: What each handler returns: the JSON payload, the table (None for
#: key/value reports) and its finding, the one-line message of a result
#: that contradicts an established one (None if there is none).
Report = Tuple[object, Optional[Table], Optional[str]]

#: A comma list of integers with a leading minus, such as "-1,1,-1".
_NEGATIVE_LIST = re.compile(r"-\d+(?:,-?\d+)*")


class _Parser(argparse.ArgumentParser):
    """argparse parser using exit code 1 for usage errors instead of 2,
    and reading a list such as "-1,1,-1" as a value, not as an option."""

    def _parse_optional(self, arg_string: str):  # type: ignore[override]
        # None tells argparse that the token is a value.
        if _NEGATIVE_LIST.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _int_at_least(minimum: int, kind: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
        if value < minimum:
            raise argparse.ArgumentTypeError("expected %s, got %r" % (kind, text))
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")


def _comma_ints(count: Optional[int] = None):
    def parse(text: str) -> List[int]:
        try:
            values = [int(part) for part in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected comma-separated integers, got %r" % text
            )
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(
                "expected %d comma-separated integers, got %d" % (count, len(values))
            )
        return values

    return parse


def _model(text: str) -> weierstrass.WeierstrassModel:
    return weierstrass.WeierstrassModel(*_comma_ints(5)(text))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="freycheck",
        description="Conductor tables, regularity criteria, trace congruences, "
        "and exhaustive bounded-height searches for a^p + 2^alpha*b^p + c^p = 0.",
    )
    parser.add_argument("--version", action="version", version="freycheck " + __version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, handler: Callable, help: str, fmt: str = "json") -> _Parser:
        # --format is added per subcommand, not through a shared parent:
        # parents share their action objects, and with them the default.
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        cmd.add_argument(
            "--format",
            choices=("json", "csv", "human"),
            default=fmt,
            help="output format (default: %(default)s)",
        )
        return cmd

    model = dict(type=_model, required=True, metavar="a1,a2,a3,a4,a6")
    height = dict(
        type=_positive_int,
        default=25,
        help="largest absolute value searched, at most MAX_HEIGHT = %d "
        "(default: %%(default)s)" % MAX_HEIGHT,
    )
    lmax_help = "largest ell counted, at most MAX_ELL = %d (default: %%(default)s)" % MAX_ELL
    factor_bound = dict(
        type=_int_at_least(2, "an integer >= 2"),
        default=DEFAULT_FACTOR_BOUND,
        help="a conductor factorization is accepted only if its part above "
        "this bound is one certified prime (default: %(default)s)",
    )

    analyze = command(
        "analyze",
        _cmd_analyze,
        "normalize a solution, build its Frey curve, cross-check invariants",
    )
    analyze.add_argument("--p", type=_positive_int, required=True)
    analyze.add_argument("--alpha", type=_nonnegative_int, required=True)
    analyze.add_argument("--triple", type=_comma_ints(3), required=True, metavar="a,b,c")
    analyze.add_argument("--factor-bound", **factor_bound)

    denes_cmd = command(
        "denes", _cmd_denes, "evaluate the regularity/order-of-2/Wieferich criterion"
    )
    group = denes_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_positive_int, help="a prime 5 <= p <= MAX_P = %d" % MAX_P)
    group.add_argument(
        "--scan", type=_positive_int, metavar="MAX", help="every prime 5 <= p <= MAX <= MAX_P"
    )

    search_cmd = command(
        "search", _cmd_search, "exhaustive bounded-height search for a^p + L^alpha*b^p + c^p = 0"
    )
    search_cmd.add_argument("--p", type=_positive_int, required=True)
    search_cmd.add_argument("--alpha", type=_nonnegative_int, required=True)
    search_cmd.add_argument("--L", type=_positive_int, default=2)
    search_cmd.add_argument("--height", **height)
    search_cmd.add_argument(
        "--allow-imprimitive",
        action="store_true",
        help="also report solutions with gcd(a, b, c) > 1, tagged with their content",
    )

    ap_search = command(
        "ap-search",
        _cmd_ap_search,
        "arithmetic progressions of perfect n-th powers with positive bases",
    )
    ap_search.add_argument("--n", type=_positive_int, required=True)
    ap_search.add_argument("--k", type=_positive_int, required=True, choices=(3, 4))
    ap_search.add_argument("--height", **height)
    ap_search.add_argument(
        "--allow-constant",
        action="store_true",
        help="include constant progressions (equal bases)",
    )

    verify = command(
        "verify",
        _cmd_verify,
        "batch search over (p, alpha) grids and classify against known results",
    )
    verify.add_argument("--p-list", type=_comma_ints(), required=True, metavar="p1,p2,...")
    verify.add_argument("--alpha-list", type=_comma_ints(), required=True, metavar="a1,a2,...")
    verify.add_argument("--height", **height)

    traces_cmd = command(
        "traces", _cmd_traces, "trace-of-Frobenius table for a Weierstrass model", fmt="csv"
    )
    traces_cmd.add_argument("--model", **model)
    traces_cmd.add_argument("--lmax", type=_positive_int, default=100, help=lmax_help)

    congruence = command(
        "congruence", _cmd_congruence, "compare traces of two curves mod p over good primes"
    )
    congruence.add_argument("--model1", **model)
    congruence.add_argument("--model2", **model)
    congruence.add_argument("--p", type=_positive_int, required=True)
    congruence.add_argument("--lmax", type=_positive_int, default=100, help=lmax_help)

    conductor = command(
        "conductor",
        _cmd_conductor,
        "global conductor and per-prime local data via minimal-model reduction",
    )
    conductor.add_argument("--model", **model)
    conductor.add_argument("--factor-bound", **factor_bound)

    return parser


# ---------------------------------------------------------------------------
# rendering


def jsonable(value: object) -> object:
    """Plain JSON data for a report value.

    Records (NamedTuples) become dicts by field, other tuples become lists
    and dict keys become strings.  Records are tuples too, so they are
    tested first.  Keys are converted here rather than by ``json.dumps``
    so that ``sort_keys`` orders them as strings ("11" before "3") and the
    key/value listings see the same keys as the JSON.
    """
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def _key_value_rows(payload: Dict[str, object], prefix: str = "") -> List[Tuple[str, object]]:
    rows: List[Tuple[str, object]] = []
    for key in sorted(payload):
        value = payload[key]
        name = prefix + key
        if isinstance(value, dict):
            rows.extend(_key_value_rows(value, name + "."))
        elif isinstance(value, list) and all(not isinstance(v, (dict, list)) for v in value):
            rows.append((name, " ".join(str(v) for v in value)))
        elif isinstance(value, list):
            import json

            rows.append((name, json.dumps(value, sort_keys=True)))
        else:
            rows.append((name, value))
    return rows


def _write(out: TextIO, command: str, fmt: str, payload: object, table: Optional[Table]) -> None:
    """Write one report to ``out`` as json, csv or human text, as it is rendered.

    JSON is the payload in the versioned envelope.  CSV is the table, or
    the payload's key/value listing for commands without one; human text
    is that key/value listing.  Two layouts differ: ``denes`` streams one
    bare JSON object per report (JSON Lines) and prints its table as
    human text, and ``traces`` prints its table padded into columns.
    """
    if fmt == "json":
        import json

        payload = jsonable(payload)
        if command == "denes":
            out.writelines(json.dumps(report, sort_keys=True) + "\n" for report in payload)
            return
        doc = dict(schema_version=SCHEMA_VERSION, toolkit_version=__version__, command=command)
        json.dump({**doc, **payload}, out, sort_keys=True, indent=2)
        out.write("\n")
        return
    if table is None or fmt == "human" and command not in ("denes", "traces"):
        table = ("key", "value"), _key_value_rows(jsonable(payload))
    header, rows = table
    if fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows([header, *rows])
    elif command == "denes":
        out.writelines("  ".join(map(str, row)) + "\n" for row in [header, *rows])
    elif command == "traces":
        out.writelines("%-4s %-6s %s\n" % tuple(row) for row in [header, *rows])
    else:
        width = max(len(name) for name, _ in rows)
        out.writelines("%-*s  %s\n" % (width, name, value) for name, value in rows)


def _cell(value: object) -> object:
    """A table cell: None is left blank and a list is joined with ";"."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    return value


def _table(items: Sequence[object], header: Sequence[str]) -> Table:
    """One row of the attributes named in ``header`` per item."""
    return header, [[_cell(getattr(item, name)) for name in header] for item in items]


def _case_payload(case: search.CaseResult) -> Dict[str, object]:
    """Report body of one search, shared by ``search`` and each ``verify`` case."""
    return {
        "spec": case.spec,
        "records": case.records,
        "claim": case.outcome.claim,
        "expected": case.outcome.expected,
        "counterexamples": case.outcome.counterexamples,
        "conforms": case.conforms,
    }


# ---------------------------------------------------------------------------
# handlers (each returns a Report)


def _cmd_analyze(args: argparse.Namespace) -> Report:
    a, b, c = args.triple
    alpha_red, b_red = frey.reduce_alpha(args.alpha, b, args.p)
    if alpha_red == 0:
        raise ValueError(
            "not a solution (Fermat case: alpha reduces to 0 mod p, and "
            "a^p + b^p + c^p = 0 has no solutions in non-zero integers)"
        )
    params = frey.normalize(args.p, alpha_red, a, b_red, c)
    triple, model = frey.build_frey(params)
    inv = frey.invariants(triple, args.factor_bound)
    local = tate.all_local_data(model, args.factor_bound)
    conductor_oracle = tate.global_conductor(local)
    at_2 = next((item for item in local if item.prime == 2), None)
    t_oracle = at_2.conductor_exponent if at_2 else 0
    u_oracle = at_2.min_disc_valuation - 2 * valuation(triple.B, 2) if at_2 else None
    oracle = (conductor_oracle, t_oracle, u_oracle)
    agree = oracle == (inv.conductor, inv.t, inv.u)
    payload: Dict[str, object] = {
        "alpha_input": args.alpha,
        "params": params,
        "triple": triple,
        "model": list(model),
        "invariants": inv,
        "trivial_level": frey.is_trivial_level(inv),
        "cartan_type": frey.cartan_type(args.p),
        "cross_check": {
            "conductor_table": inv.conductor,
            "conductor_oracle": conductor_oracle,
            "t_table": inv.t,
            "t_oracle": t_oracle,
            "agree": agree,
        },
    }
    finding = "closed-form table disagrees with the oracle's (conductor, t, u) = %s" % (oracle,)
    return payload, None, None if agree else finding


def _cmd_denes(args: argparse.Namespace) -> Report:
    if args.p is not None:
        reports = [denes.denes_criterion(args.p)]
    else:
        reports = denes.denes_scan(args.scan)
    return reports, _table(reports, denes.DenesReport._fields), None


def _cmd_search(args: argparse.Namespace) -> Report:
    spec = search.SearchSpec(
        args.p, args.alpha, args.height, args.L, require_primitive=not args.allow_imprimitive
    )
    records = search.search_star(spec)
    case = search.CaseResult(spec, records, search.classify_search_outcome(spec, records))
    finding = "%d record(s) contradict the expected verdict %r" % (
        len(case.outcome.counterexamples),
        case.outcome.expected,
    )
    table = _table(records, ("a", "b", "c", "content", "trivial"))
    return _case_payload(case), table, None if case.conforms else finding


def _cmd_ap_search(args: argparse.Namespace) -> Report:
    distinct_only = not args.allow_constant
    tuples = search.search_ap_powers(args.n, args.k, args.height, distinct_only=distinct_only)
    outcome = search.classify_ap_outcome(args.n, args.k, distinct_only, tuples)
    finding = "%d progression(s) contradict an established non-existence result" % len(
        outcome.counterexamples
    )
    payload: Dict[str, object] = {
        "n": args.n,
        "k": args.k,
        "height": args.height,
        "distinct_only": distinct_only,
        "progressions": tuples,
        "claim": outcome.claim,
        "expected": outcome.expected,
        "conforms": outcome.conforms,
    }
    header = tuple("x%d" % (i + 1) for i in range(args.k))
    return payload, (header, tuples), None if outcome.conforms else finding


def _cmd_verify(args: argparse.Namespace) -> Report:
    cases = search.verify_theorem_claims(args.p_list, args.alpha_list, args.height)
    all_conform = all(case.conforms for case in cases)
    payload: Dict[str, object] = {
        "p_list": args.p_list,
        "alpha_list": args.alpha_list,
        "height": args.height,
        "cases": [_case_payload(case) for case in cases],
        "all_conform": all_conform,
    }
    header = ("p", "alpha", "height", "claim", "expected", "records", "conforms")
    rows = [
        (case.spec.p, case.spec.alpha, case.spec.height, case.outcome.claim,
         case.outcome.expected, len(case.records), case.conforms)
        for case in cases
    ]
    finding = "at least one (p, alpha) case contradicts the expected verdict"
    return payload, (header, rows), None if all_conform else finding


def _cmd_traces(args: argparse.Namespace) -> Report:
    records = traces.trace_table(args.model, args.lmax)
    payload: Dict[str, object] = {
        "model": list(args.model),
        "lmax": args.lmax,
        "records": records,
    }
    return payload, _table(records, ("ell", "a_ell", "reduction")), None


def _cmd_congruence(args: argparse.Namespace) -> Report:
    payload: Dict[str, object] = {
        "model1": list(args.model1),
        "model2": list(args.model2),
        "report": traces.mod_p_congruent(args.model1, args.model2, args.p, args.lmax),
    }
    return payload, None, None


def _cmd_conductor(args: argparse.Namespace) -> Report:
    local = tate.all_local_data(args.model, args.factor_bound)
    payload: Dict[str, object] = {
        "model": list(args.model),
        "discriminant": args.model.discriminant(),
        "conductor": tate.global_conductor(local),
        "local_data": local,
    }
    header = (
        "prime",
        "conductor_exponent",
        "min_disc_valuation",
        "kodaira_type",
        "reduction",
    )
    return payload, _table(local, header), None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, table, finding = args.handler(args)
    except ValueError as exc:
        sys.stderr.write("freycheck %s: error: %s\n" % (args.command, exc))
        return EXIT_DOMAIN
    _write(sys.stdout, args.command, args.format, payload, table)
    if finding is None:
        return EXIT_OK
    sys.stdout.flush()  # so the line follows the report where the two streams meet
    sys.stderr.write("ERROR freycheck: %s\n" % finding)
    return EXIT_COUNTEREXAMPLE


def entry() -> None:
    # The objects made by start-up and imports live until exit, and the
    # interpreter's last collection at shutdown walks them all: 7 to 12 ms
    # of a 120 to 140 ms ``conductor`` call (medians of 41 interleaved
    # runs with and without the freeze, 2-core x86_64, Python 3.11.7).
    # Frozen, they are skipped by every collection; collection stays
    # enabled for what ``main`` allocates.
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Send what is still buffered to devnull, so
        # the flush at shutdown does not fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)
