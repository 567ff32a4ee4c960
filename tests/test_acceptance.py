"""Acceptance gate: one test per release criterion, each printing a
single "[acceptance] criterion N (...): PASS" or ": FAIL" line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live;
they are also emitted under normal capture and appear on failure.
Every numeric check is exact (zero tolerance); the only inequalities
are the wall-clock budgets.
"""

import io
import json
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import freycheck.cli as cli
import freycheck.denes as denes_mod
import freycheck.search as search_mod
from freycheck.cli import jsonable
from freycheck.denes import bernoulli_mod_p, denes_criterion, denes_scan
from freycheck.frey import MonomialTriple, build_frey, frey_model, invariants, normalize
from freycheck.search import search_ap_powers, verify_theorem_claims
from freycheck.tate import all_local_data
from freycheck.traces import mod_p_congruent, trace_table
from freycheck.weierstrass import WeierstrassModel

from oracles import (
    bernoulli_mod_p_oracle,
    frey_conductor_oracle,
    naive_odd_prime_factors,
    synthetic_frey_triples,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("[acceptance] criterion %d (%s): FAIL" % (num, desc), flush=True)
        raise
    print("[acceptance] criterion %d (%s): PASS" % (num, desc), flush=True)


def run_cli(*args):
    """Invoke the CLI in-process, capturing both streams explicitly.

    Plain stream redirection (not a pytest fixture) so that the
    criterion PASS/FAIL print above still reaches the real stdout.
    """
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        code = cli.main(list(args))
    return code, out_buf.getvalue(), err_buf.getvalue()


def test_criterion_1_conductor_anchors():
    with criterion(1, "conductor 32 anchors via CLI, under 1 s each"):
        for model in ("0,0,0,-1,0", "0,3,0,2,0"):
            start = time.perf_counter()
            code, out, err = run_cli("conductor", "--model", model)
            elapsed = time.perf_counter() - start
            assert code == 0 and err == ""
            assert json.loads(out)["conductor"] == 32
            assert elapsed < 1.0, "conductor on %s took %.2fs" % (model, elapsed)


def test_criterion_2_table_matches_tate_oracle():
    with criterion(2, "closed-form conductor table == Tate oracle, >= 100 triples"):
        start = time.perf_counter()
        table_at_2 = {1: 5, 2: 3, 3: 3, 4: 0}
        triples = synthetic_frey_triples()
        assert len(triples) >= 100
        for A, B, C in triples:
            triple = MonomialTriple(A=A, B=B, C=C)
            inv = invariants(triple, p=5)

            data = all_local_data(frey_model(triple))
            oracle_n = 1
            for item in data:
                oracle_n *= item.prime**item.conductor_exponent
            oracle_t = next(
                (d.conductor_exponent for d in data if d.prime == 2), 0
            )

            v2 = (B & -B).bit_length() - 1
            assert inv.t == table_at_2.get(v2, 1)
            assert inv.t == oracle_t
            assert inv.conductor == oracle_n
            # Third, fully independent route (test-local table + trial division).
            ref_t, ref_n = frey_conductor_oracle(
                A, B, C, naive_odd_prime_factors(A * B * C)
            )
            assert (inv.t, inv.conductor) == (ref_t, ref_n)
            if inv.t == 1:
                assert inv.u == -8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "table/oracle sweep took %.2fs" % elapsed


def test_criterion_3_odd_disc_valuations_mod_p():
    with criterion(3, "odd discriminant valuations divisible by p, vacuous maps reported"):
        for p in (5, 7, 11, 13):
            params = normalize(p, 1, -1, 1, -1)
            triple, model = build_frey(params)
            inv = invariants(triple, p)
            # The map must be present in the report even when empty.
            assert "odd_disc_valuations" in jsonable(inv)
            for ell, v in inv.odd_disc_valuations.items():
                assert v % p == 0, "valuation at %d not divisible by %d" % (ell, p)
            # Cross-check against the minimal-model route: no odd bad primes.
            odd_bad = [d for d in all_local_data(model) if d.prime != 2]
            assert odd_bad == [] and inv.odd_disc_valuations == {}


def test_criterion_4_denes_scan_and_bernoulli_oracle():
    with criterion(4, "Denes scan anchors; Bernoulli mod p == exact-rational oracle"):
        start = time.perf_counter()
        scan = denes_scan(29)
        assert [r.p for r in scan] == [5, 7, 11, 13, 17, 19, 23, 29]
        assert all(r.criterion_holds for r in scan)

        r31 = denes_criterion(31)
        assert not r31.order_condition and r31.ord2 == 5 and r31.is_regular

        r37 = denes_criterion(37)
        assert not r37.is_regular and r37.irregular_indices == [32]

        p = 5
        while p <= 100:
            if all(p % q for q in range(2, p)):
                assert bernoulli_mod_p(p) == bernoulli_mod_p_oracle(p)
            p += 2
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, "Denes criterion checks took %.2fs" % elapsed


def test_criterion_5_search_conformance():
    with criterion(5, "bounded searches conform: empty for alpha >= 2, trivial-only for alpha = 1"):
        start = time.perf_counter()
        cases = verify_theorem_claims([3, 5, 7, 13], [1, 2, 3], height=40)
        assert len(cases) == 11  # alpha < p drops (3, 3) only
        for case in cases:
            assert case.conforms, "nonconforming case %r" % (case.spec,)
            if case.spec.alpha == 1:
                assert case.outcome.expected == "trivial-only"
                assert [r.trivial for r in case.records] == [True]
            else:
                assert case.outcome.expected == "empty"
                assert case.records == []
        code, out, err = run_cli(
            "verify", "--p-list", "3,5,7,13", "--alpha-list", "1,2,3",
            "--height", "40",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["all_conform"] is True
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, "search conformance took %.2fs" % elapsed


def test_criterion_6_progression_anchors():
    with criterion(6, "perfect-power progression anchors and exhaustive emptiness"):
        start = time.perf_counter()
        squares3 = search_ap_powers(2, 3, 20)
        assert (7, 13, 17) in squares3
        assert search_ap_powers(2, 4, 300) == []
        assert search_ap_powers(4, 3, 200) == []
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, "progression searches took %.2fs" % elapsed


def test_criterion_7_trace_properties():
    with criterion(7, "Hasse bound, quadratic-twist vanishing, trace-table identity, congruence witness"):
        start = time.perf_counter()
        cm = (0, 0, 0, -1, 0)
        twist = (0, 0, 0, 1, 0)
        fixed = [cm, (0, 3, 0, 2, 0), twist, (0, -1, 1, -10, -20), (0, 0, 1, -1, 0)]

        tables = {m: trace_table(WeierstrassModel(*m), 1000) for m in fixed}
        for model, table in tables.items():
            for rec in table:
                if rec.reduction == "Good":
                    assert rec.a_ell * rec.a_ell <= 4 * rec.ell, (
                        "Hasse bound fails at %d for %r" % (rec.ell, model)
                    )

        for rec in tables[cm]:
            if rec.reduction == "Good" and rec.ell % 4 == 3:
                assert rec.a_ell == 0

        assert tables[(0, 3, 0, 2, 0)] == tables[cm]

        report = mod_p_congruent(WeierstrassModel(*cm), WeierstrassModel(*twist), 5, 100)
        assert not report.congruent
        assert report.first_violation == (13, 6, -6)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "trace property sweep took %.2fs" % elapsed


def test_criterion_8_cli_determinism(monkeypatch):
    # The scans and searches below are small enough to skip the pool;
    # split them anyway, so that --workers 4 really runs in a pool.
    monkeypatch.setattr(search_mod, "POOL_MIN_LOOKUPS", 0)
    monkeypatch.setattr(denes_mod, "POOL_MIN_PRIME_SUM", 0)
    with criterion(8, "byte-identical CLI output across repeat runs and worker counts 1/4"):
        invocations = [
            ("conductor", "--model", "0,0,0,-1,0"),
            ("conductor", "--model", "0,3,0,2,0"),
            ("analyze", "--p", "5", "--alpha", "1", "--triple=-1,1,-1"),
            ("denes", "--scan", "29"),
            ("search", "--p", "5", "--alpha", "1", "--height", "25"),
            ("ap-search", "--n", "2", "--k", "3", "--height", "20"),
            (
                "verify", "--p-list", "3,5,7,13", "--alpha-list", "1,2,3",
                "--height", "40",
            ),
            ("traces", "--model", "0,0,0,-1,0", "--lmax", "100"),
            (
                "congruence", "--model1", "0,0,0,-1,0", "--model2", "0,0,0,1,0",
                "--p", "5", "--lmax", "100",
            ),
        ]
        for args in invocations:
            outputs = {
                run_cli(*args, "--workers", workers)
                for workers in ("1", "4", "1", "4")
            }
            assert len(outputs) == 1, "nondeterministic output for %r" % (args,)
            code, _, err = next(iter(outputs))
            assert code == 0 and err == ""
