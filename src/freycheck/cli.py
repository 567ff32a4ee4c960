"""Command-line front end.

Exit codes: 0 clean run, 1 usage error, 2 domain error (invalid values,
factorization bound exceeded), 3 a finding that contradicts an
established result (emitted only after exact re-verification).

Every report goes to standard output; diagnostics and logs go to
standard error.  JSON is the contract surface: reports carry a
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
import io
import re
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .arith import DEFAULT_FACTOR_BOUND, valuation
from .denes import DenesReport, denes_criterion, denes_scan
from .frey import (
    build_frey,
    cartan_type,
    invariants,
    is_trivial_level,
    normalize,
    reduce_alpha,
)
from .search import (
    CaseResult,
    SearchSpec,
    classify_ap_outcome,
    classify_search_outcome,
    search_ap_powers,
    search_star,
    verify_theorem_claims,
)
from .tate import all_local_data, global_conductor
from .traces import mod_p_congruent, trace_table
from .weierstrass import WeierstrassModel

__all__ = ["entry", "jsonable", "main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_COUNTEREXAMPLE = 3

#: Set by ``entry``: how ``_log_error`` configures logging in the CLI process.
_LOG_FORMAT: Optional[str] = None

#: A report table: its header and its rows.
Table = Tuple[Sequence[str], Sequence[Sequence[object]]]
#: What each handler returns: the JSON payload, the table (None for
#: key/value reports) and the exit code.
Report = Tuple[object, Optional[Table], int]

# Options taking comma-separated integer lists.  A value such as
# "-1,1,-1" looks like an option string to argparse, so `--triple
# -1,1,-1` is pre-merged into `--triple=-1,1,-1` before parsing.
_COMMA_OPTIONS = {"--triple", "--model", "--model1", "--model2", "--p-list", "--alpha-list"}
_NEGATIVE_LIST = re.compile(r"-\d+(?:,-?\d+)*")


class _Parser(argparse.ArgumentParser):
    """argparse parser using exit code 1 for usage errors instead of 2."""

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


def _merge_negative_list_values(argv: Sequence[str]) -> List[str]:
    merged: List[str] = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if (
            token in _COMMA_OPTIONS
            and index + 1 < len(argv)
            and _NEGATIVE_LIST.fullmatch(argv[index + 1])
        ):
            merged.append(token + "=" + argv[index + 1])
            index += 2
        else:
            merged.append(token)
            index += 1
    return merged


def build_parser() -> _Parser:
    parser = _Parser(
        prog="freycheck",
        description="Conductor tables, regularity criteria, trace congruences, "
        "and exhaustive bounded-height searches for a^p + 2^alpha*b^p + c^p = 0.",
    )
    parser.add_argument("--version", action="version", version="freycheck " + __version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "human"),
        default=None,
        help="output format (default: csv for traces, json elsewhere)",
    )
    common.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for search and scan subcommands (default: 1)",
    )
    common.add_argument(
        "--factor-bound",
        type=_int_at_least(2, "an integer >= 2"),
        default=DEFAULT_FACTOR_BOUND,
        help="a conductor factorization is accepted only if its part above "
        "this bound is one certified prime (default: %(default)s)",
    )

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=help)

    model = dict(type=_comma_ints(5), required=True, metavar="a1,a2,a3,a4,a6")

    analyze = command(
        "analyze", "normalize a solution, build its Frey curve, cross-check invariants"
    )
    analyze.add_argument("--p", type=_positive_int, required=True)
    analyze.add_argument("--alpha", type=_nonnegative_int, required=True)
    analyze.add_argument("--triple", type=_comma_ints(3), required=True, metavar="a,b,c")

    denes = command("denes", "evaluate the regularity/order-of-2/Wieferich criterion")
    group = denes.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_positive_int)
    group.add_argument("--scan", type=_positive_int, metavar="MAX")

    search = command(
        "search", "exhaustive bounded-height search for a^p + L^alpha*b^p + c^p = 0"
    )
    search.add_argument("--p", type=_positive_int, required=True)
    search.add_argument("--alpha", type=_nonnegative_int, required=True)
    search.add_argument("--L", type=_positive_int, default=2)
    search.add_argument("--height", type=_positive_int, default=25)
    search.add_argument(
        "--allow-imprimitive",
        action="store_true",
        help="also report solutions with gcd(a, b, c) > 1, tagged with their content",
    )

    ap_search = command(
        "ap-search", "arithmetic progressions of perfect n-th powers with positive bases"
    )
    ap_search.add_argument("--n", type=_positive_int, required=True)
    ap_search.add_argument("--k", type=_positive_int, required=True, choices=(3, 4))
    ap_search.add_argument("--height", type=_positive_int, default=25)
    ap_search.add_argument(
        "--allow-constant",
        action="store_true",
        help="include constant progressions (equal bases)",
    )

    verify = command(
        "verify", "batch search over (p, alpha) grids and classify against known results"
    )
    verify.add_argument("--p-list", type=_comma_ints(), required=True, metavar="p1,p2,...")
    verify.add_argument("--alpha-list", type=_comma_ints(), required=True, metavar="a1,a2,...")
    verify.add_argument("--height", type=_positive_int, default=25)

    traces = command("traces", "trace-of-Frobenius table for a Weierstrass model")
    traces.add_argument("--model", **model)
    traces.add_argument("--lmax", type=_positive_int, default=100)

    congruence = command("congruence", "compare traces of two curves mod p over good primes")
    congruence.add_argument("--model1", **model)
    congruence.add_argument("--model2", **model)
    congruence.add_argument("--p", type=_positive_int, required=True)
    congruence.add_argument("--lmax", type=_positive_int, default=100)

    conductor = command(
        "conductor", "global conductor and per-prime local data via minimal-model reduction"
    )
    conductor.add_argument("--model", **model)

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


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


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


def _render(command: str, fmt: str, payload: object, table: Optional[Table]) -> str:
    """One report as json, csv or human text.

    JSON is the payload in the versioned envelope.  CSV is the table, or
    the payload's key/value listing for commands without one; human text
    is that key/value listing.  Two layouts differ: ``denes`` streams one
    bare JSON object per report (JSON Lines) and prints its table as
    human text, and ``traces`` prints its table padded into columns.
    """
    payload = jsonable(payload)
    if fmt == "json":
        import json

        if command == "denes":
            return "".join(json.dumps(report, sort_keys=True) + "\n" for report in payload)
        doc = dict(schema_version=SCHEMA_VERSION, toolkit_version=__version__, command=command)
        return json.dumps({**doc, **payload}, sort_keys=True, indent=2) + "\n"
    if table is not None:
        header, rows = table
        if fmt == "csv":
            return _csv_text(header, rows)
        if command == "denes":
            return "".join("  ".join(map(str, row)) + "\n" for row in [header, *rows])
        if command == "traces":
            return "".join("%-4s %-6s %s\n" % tuple(row) for row in [header, *rows])
    rows = _key_value_rows(payload)
    if fmt == "csv":
        return _csv_text(("key", "value"), rows)
    width = max(len(name) for name, _ in rows)
    return "".join("%-*s  %s\n" % (width, name, value) for name, value in rows)


def _model_from_values(values: Sequence[int]) -> WeierstrassModel:
    model = WeierstrassModel(*values)
    model.require_nonsingular()
    return model


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


def _case_payload(case: CaseResult) -> Dict[str, object]:
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
    alpha_red, b_red = reduce_alpha(args.alpha, b, args.p)
    if alpha_red == 0:
        raise ValueError(
            "not a solution (Fermat case: alpha reduces to 0 mod p, and "
            "a^p + b^p + c^p = 0 has no solutions in non-zero integers)"
        )
    params = normalize(args.p, alpha_red, a, b_red, c)
    triple, model = build_frey(params)
    inv = invariants(triple, args.p, args.factor_bound)
    local = all_local_data(model, args.factor_bound)
    conductor_oracle = global_conductor(local)
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
        "trivial_level": is_trivial_level(inv),
        "cartan_type": cartan_type(args.p),
        "cross_check": {
            "conductor_table": inv.conductor,
            "conductor_oracle": conductor_oracle,
            "t_table": inv.t,
            "t_oracle": t_oracle,
            "agree": agree,
        },
    }
    if not agree:
        _log_error("closed-form table disagrees with the oracle's (conductor, t, u) = %s", oracle)
    return payload, None, EXIT_OK if agree else EXIT_COUNTEREXAMPLE


def _cmd_denes(args: argparse.Namespace) -> Report:
    if args.p is not None:
        reports = [denes_criterion(args.p)]
    else:
        reports = denes_scan(args.scan, workers=args.workers)
    return reports, _table(reports, DenesReport._fields), EXIT_OK


def _cmd_search(args: argparse.Namespace) -> Report:
    spec = SearchSpec(
        args.p, args.alpha, args.height, args.L, require_primitive=not args.allow_imprimitive
    )
    records = search_star(spec, workers=args.workers)
    case = CaseResult(spec, records, classify_search_outcome(spec, records))
    if not case.conforms:
        _log_error(
            "%d record(s) contradict the expected verdict %r",
            len(case.outcome.counterexamples),
            case.outcome.expected,
        )
    table = _table(records, ("a", "b", "c", "content", "trivial"))
    return _case_payload(case), table, EXIT_OK if case.conforms else EXIT_COUNTEREXAMPLE


def _cmd_ap_search(args: argparse.Namespace) -> Report:
    distinct_only = not args.allow_constant
    tuples = search_ap_powers(args.n, args.k, args.height, distinct_only=distinct_only)
    outcome = classify_ap_outcome(args.n, args.k, distinct_only, tuples)
    if not outcome.conforms:
        _log_error(
            "%d progression(s) contradict an established non-existence result",
            len(outcome.counterexamples),
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
    return payload, (header, tuples), EXIT_OK if outcome.conforms else EXIT_COUNTEREXAMPLE


def _cmd_verify(args: argparse.Namespace) -> Report:
    cases = verify_theorem_claims(
        args.p_list, args.alpha_list, args.height, workers=args.workers
    )
    all_conform = all(case.conforms for case in cases)
    if not all_conform:
        _log_error("at least one (p, alpha) case contradicts the expected verdict")
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
    return payload, (header, rows), EXIT_OK if all_conform else EXIT_COUNTEREXAMPLE


def _cmd_traces(args: argparse.Namespace) -> Report:
    model = _model_from_values(args.model)
    records = trace_table(model, args.lmax)
    payload: Dict[str, object] = {
        "model": list(model),
        "lmax": args.lmax,
        "records": records,
    }
    return payload, _table(records, ("ell", "a_ell", "reduction")), EXIT_OK


def _cmd_congruence(args: argparse.Namespace) -> Report:
    model1 = _model_from_values(args.model1)
    model2 = _model_from_values(args.model2)
    payload: Dict[str, object] = {
        "model1": list(model1),
        "model2": list(model2),
        "report": mod_p_congruent(model1, model2, args.p, args.lmax),
    }
    return payload, None, EXIT_OK


def _cmd_conductor(args: argparse.Namespace) -> Report:
    model = _model_from_values(args.model)
    local = all_local_data(model, args.factor_bound)
    payload: Dict[str, object] = {
        "model": list(model),
        "discriminant": model.discriminant(),
        "conductor": global_conductor(local),
        "local_data": local,
    }
    header = (
        "prime",
        "conductor_exponent",
        "min_disc_valuation",
        "kodaira_type",
        "reduction",
    )
    return payload, _table(local, header), EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "denes": _cmd_denes,
    "search": _cmd_search,
    "ap-search": _cmd_ap_search,
    "verify": _cmd_verify,
    "traces": _cmd_traces,
    "congruence": _cmd_congruence,
    "conductor": _cmd_conductor,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    tokens = _merge_negative_list_values(list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.command]
    try:
        payload, table, code = handler(args)
    except ValueError as exc:
        sys.stderr.write("freycheck %s: error: %s\n" % (args.command, exc))
        return EXIT_DOMAIN
    fmt = args.format or ("csv" if args.command == "traces" else "json")
    sys.stdout.write(_render(args.command, fmt, payload, table))
    return code


def _log_error(message: str, *args: object) -> None:
    """Log on the ``freycheck`` logger; only a run that logs imports ``logging``."""
    import logging

    if _LOG_FORMAT is not None:
        logging.basicConfig(stream=sys.stderr, format=_LOG_FORMAT)
    logging.getLogger("freycheck").error(message, *args)


def entry() -> None:
    global _LOG_FORMAT
    _LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"
    # The objects made by start-up and imports live until exit, and the
    # interpreter's last collection at shutdown walks them all: 7 to 12 ms
    # of a 120 to 140 ms ``conductor`` call (medians of 41 interleaved
    # runs with and without the freeze, 2-core x86_64, Python 3.11.7).
    # Frozen, they are skipped by every collection; collection stays
    # enabled for what ``main`` allocates.
    gc.freeze()
    sys.exit(main())
