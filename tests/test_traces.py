"""Traces of Frobenius: both point-count regimes against full enumeration,
the per-x Legendre sum and the CM formulas of y^2 = x^3 - x and
y^2 = x^3 + 1, Shanks-Mestre against the character sum, CM structure of
the conductor-32 curve, Shanks-Mestre seeded by rational 2-torsion
against unseeded, and the mod-p comparator against two whole trace
tables compared row by row.
"""

import json
import math
import random
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from freycheck import tate, traces
from freycheck.arith import MAX_ELL, MILLER_RABIN_BOUND, is_prime, primes_up_to
from freycheck.cli import jsonable
from freycheck.frey import build_frey, normalize
from freycheck.traces import (
    CONGRUENCE_DISCLAIMER,
    SHANKS_MESTRE_MIN_ELL,
    CongruenceReport,
    TraceRecord,
    count_points,
    mod_p_congruent,
    trace_table,
)
from freycheck.weierstrass import WeierstrassModel

from oracles import (
    cm_trace_x3_minus_x,
    cm_trace_x3_plus_1,
    congruence_from_tables,
    count_points_enumerate,
    count_points_legendre,
    two_isogenous,
)

CM32 = WeierstrassModel(0, 0, 0, -1, 0)  # y^2 = x^3 - x
TWIST = WeierstrassModel(0, 0, 0, 1, 0)  # y^2 = x^3 + x
CM36 = WeierstrassModel(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
CURVE11 = WeierstrassModel(0, -1, 1, -10, -20)  # 11a1, a3 != 0
FREY = WeierstrassModel(0, 29, 0, -96, 0)  # y^2 = x(x - 3)(x + 32), 3 + 32 - 35 = 0
# y^2 = x^3 - x rescaled by u = 233 >= SHANKS_MESTRE_MIN_ELL: non-minimal
# at 233, where the curve has good reduction.
BLOWN_UP_CM32 = WeierstrassModel(0, 0, 0, -(233**4), 0)
# The quadratic twist of y^2 = x^3 - x by 233: additive reduction at 233.
TWIST233_CM32 = WeierstrassModel(0, 0, 0, -(233**2), 0)
SINGULAR = WeierstrassModel(0, 0, 0, 0, 0)


def random_frey(rng):
    """y^2 = x(x - A)(x + B) for coprime A, B below 10^6 with A + B != 0."""
    while True:
        A, B = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
        if A and B and A + B and math.gcd(A, B) == 1:
            return WeierstrassModel(0, B - A, 0, -A * B, 0)


class TestCountPoints:
    def test_cm_curve_spot_values(self):
        assert count_points(CM32, 3) == 0
        assert count_points(CM32, 5) == -2
        assert count_points(CM32, 7) == 0
        assert count_points(CM32, 13) == 6

    def test_agrees_with_full_enumeration(self):
        models = [
            CM32,
            TWIST,
            WeierstrassModel(0, 3, 0, 2, 0),
            WeierstrassModel(0, -1, 1, -10, -20),
            WeierstrassModel(1, -1, 1, -3, 3),
            WeierstrassModel(0, 0, 1, -1, 0),
        ]
        for model in models:
            disc = model.discriminant()
            for ell in primes_up_to(200):
                if ell == 2 or disc % ell == 0:
                    continue
                assert count_points(model, ell) == count_points_enumerate(
                    tuple(model), ell
                ), (model, ell)

    def test_agrees_with_per_x_legendre_sum_at_9973(self):
        for model in (CM32, WeierstrassModel(0, -1, 1, -10, -20), WeierstrassModel(1, -1, 1, -3, 3)):
            assert count_points(model, 9973) == count_points_legendre(tuple(model), 9973)

    def test_rejects_ell_2_and_composites(self):
        with pytest.raises(ValueError):
            count_points(CM32, 2)
        with pytest.raises(ValueError):
            count_points(CM32, 15)

    def test_rejects_bad_reduction(self):
        assert count_points(WeierstrassModel(0, 0, 1, -1, 0), 37) is None

    def test_rejects_ell_above_max_ell(self):
        first_above = next(n for n in count(MAX_ELL + 1) if is_prime(n))
        # The bound is checked before is_prime, which refuses MILLER_RABIN_BOUND.
        for ell in (first_above, MILLER_RABIN_BOUND):
            with pytest.raises(ValueError, match="MAX_ELL"):
                count_points(CM32, ell)

    def test_counts_up_to_max_ell_without_a_per_call_cap(self):
        below = [n for n in range(MAX_ELL, MAX_ELL - 100, -1) if is_prime(n)]
        assert any(ell % 4 == 1 for ell in below)  # not only supersingular primes
        for ell in [10007, *below]:
            assert count_points(CM32, ell) == cm_trace_x3_minus_x(ell), ell

    def test_require_nonsingular_returns_the_discriminant(self):
        for model in (CM32, CM36, CURVE11, FREY, BLOWN_UP_CM32):
            assert model.require_nonsingular() == model.discriminant() != 0
        with pytest.raises(ValueError, match="singular"):
            WeierstrassModel(0, 0, 0, 0, 0).require_nonsingular()

    def test_counts_on_ell_minimal_model_when_input_is_non_minimal(self):
        # [0,0,0,-625,0] is the 5-rescale of y^2 = x^3 - x: good at 5.
        blown = WeierstrassModel(0, 0, 0, -625, 0)
        assert blown.discriminant() % 5 == 0
        assert count_points(blown, 5) == count_points(CM32, 5)


class TestCMOracle:
    """The CM formulas are checked by enumeration before they check anything."""

    def test_formulas_agree_with_full_enumeration_below_300(self):
        for ell in primes_up_to(300)[1:]:
            assert cm_trace_x3_minus_x(ell) == count_points_enumerate(tuple(CM32), ell)
            if ell > 3:
                assert cm_trace_x3_plus_1(ell) == count_points_enumerate(tuple(CM36), ell)

    def test_formulas_agree_with_per_x_legendre_sum_below_1000(self):
        for ell in primes_up_to(1000)[2:]:
            assert cm_trace_x3_minus_x(ell) == count_points_legendre(tuple(CM32), ell)
            assert cm_trace_x3_plus_1(ell) == count_points_legendre(tuple(CM36), ell)

    def test_supersingular_primes_vanish(self):
        assert {cm_trace_x3_minus_x(ell) for ell in (10007, 999983)} == {0}  # 3 mod 4
        assert {cm_trace_x3_plus_1(ell) for ell in (10007, 999983)} == {0}  # 2 mod 3

    def test_count_points_matches_the_formulas_up_to_10_6(self):
        sample = primes_up_to(10**6)[2::250] + [999983]
        assert sample[-2] > 990000
        for ell in sample:
            assert count_points(CM32, ell) == cm_trace_x3_minus_x(ell), ell
            assert count_points(CM36, ell) == cm_trace_x3_plus_1(ell), ell


class TestShanksMestre:
    @pytest.mark.parametrize(
        "model, reference",
        [(FREY, FREY), (CM32, CM32), (CM36, CM36), (CURVE11, CURVE11), (BLOWN_UP_CM32, CM32)],
        ids=["frey", "cm32", "cm36", "11a1", "non-minimal-at-233"],
    )
    def test_agrees_with_character_sum_to_3000(self, model, reference):
        disc = reference.discriminant()
        primes = [ell for ell in primes_up_to(3000) if ell >= SHANKS_MESTRE_MIN_ELL - 30]
        assert primes[0] < SHANKS_MESTRE_MIN_ELL <= primes[4]
        for ell in primes:
            if disc % ell:
                expected = traces._character_sum(reference, ell)
                assert count_points(model, ell) == expected, ell

    def test_regime_switches_at_the_crossover(self, monkeypatch):
        summed = []
        original = traces._character_sum

        def recording(model, ell):
            summed.append(ell)
            return original(model, ell)

        monkeypatch.setattr(traces, "_character_sum", recording)
        for ell in (223, 227, 229, 233, 239, 2999):
            count_points(CURVE11, ell)
        assert summed == [223, 227, 229]

    def test_points_exhausted_raises(self, monkeypatch):
        # An order routine that never narrows the candidates makes every
        # x run out; count_points must then fail loudly, never guess.
        calls = []

        def no_progress(Q, R, K, a, p):
            calls.append(K)
            return [0, 1]

        monkeypatch.setattr(traces, "_zeros", no_progress)
        ell = 1009
        with pytest.raises(ArithmeticError, match="more than one group order at 1009"):
            count_points(CURVE11, ell)
        assert ell - 3 <= len(calls) < ell  # one per x with f(x) != 0

    def test_points_settle_the_order_on_random_curves(self):
        # Mestre's theorem: above 229 the points always leave one order.
        # Five random nonsingular short models at every prime 233..40,000;
        # the order found lies in the Hasse interval and kills the first
        # point, (d*x, d^2) on E or on its twist as d = f(x) is a square.
        rng = random.Random(32)
        primes = primes_up_to(40_000)[50:]
        assert primes[0] == 233 and 5 * len(primes) >= 20_000
        for ell in primes:
            for _ in range(5):
                A = B = 0
                while (4 * A**3 + 27 * B**2) % ell == 0:
                    A, B = rng.randrange(ell), rng.randrange(ell)
                N = traces._shanks_mestre(A, B, ell, 1)
                assert (N - ell - 1) ** 2 <= 4 * ell, (A, B, ell)
                d, x = next((d, x) for x in range(ell) if (d := (x**3 + A * x + B) % ell))
                order = N if pow(d, (ell - 1) // 2, ell) == 1 else 2 * ell + 2 - N
                P = (d * x % ell, d * d % ell)
                assert traces._mul(order, P, A * d * d % ell, ell) is None, (A, B, ell)

    @pytest.mark.parametrize(
        "model, seed",
        [(FREY, 4), (CM32, 4), (BLOWN_UP_CM32, 4), (TWIST, 2), (CM36, 1), (CURVE11, 1)],
        ids=["frey", "cm32", "non-minimal-at-233", "twist", "cm36", "11a1"],
    )
    def test_two_torsion_seed(self, model, seed):
        assert traces._two_torsion_seed(model) == seed

    def test_seeded_agrees_with_unseeded_on_frey_models(self):
        # Five seeded random Frey models, seed 4, at every good prime
        # 230..20,000: the seed leaves the order unchanged.
        rng = random.Random(34)
        primes = [ell for ell in primes_up_to(20_000) if ell >= SHANKS_MESTRE_MIN_ELL]
        for _ in range(5):
            model = random_frey(rng)
            assert traces._two_torsion_seed(model) == 4
            disc = model.discriminant()
            c4, c6 = model.c_invariants()
            for ell in primes:
                if disc % ell:
                    A, B = -27 * c4 % ell, -54 * c6 % ell
                    seeded = traces._shanks_mestre(A, B, ell, 4)
                    assert seeded == traces._shanks_mestre(A, B, ell, 1), (model, ell)


@pytest.fixture
def tate_primes(monkeypatch):
    """The primes tate.local_data_with_model is called at, in call order."""
    primes = []
    original = tate.local_data_with_model

    def recording(model, ell):
        primes.append(ell)
        return original(model, ell)

    monkeypatch.setattr(tate, "local_data_with_model", recording)
    return primes


class TestTraceTable:
    def test_cm_zero_set_up_to_20(self):
        table = trace_table(CM32, 20)
        zeros = [rec.ell for rec in table if rec.a_ell == 0]
        assert zeros == [3, 7, 11, 19]

    def test_single_record(self):
        table = trace_table(CM32, 3)
        assert len(table) == 1 and table[0].ell == 3

    def test_lmax_above_max_ell_is_refused_before_the_sieve(self, monkeypatch):
        def sieve(limit):
            raise AssertionError("sieved up to %d" % limit)

        monkeypatch.setattr(traces, "primes_up_to", sieve)
        with pytest.raises(ValueError, match="MAX_ELL"):
            trace_table(CM32, MAX_ELL + 1)

    def test_bad_primes_marked(self):
        table = trace_table(WeierstrassModel(0, -1, 1, -10, -20), 30)
        by_ell = {rec.ell: rec for rec in table}
        assert by_ell[11].reduction == "Bad" and by_ell[11].a_ell is None
        assert all(rec.reduction == "Good" for ell, rec in by_ell.items() if ell != 11)

    def test_translation_gives_identical_tables(self):
        frey_trivial = build_frey(normalize(5, 1, 1, -1, 1))[1]
        assert trace_table(frey_trivial, 100) == trace_table(CM32, 100)

    def test_hasse_bound_to_1000(self):
        for model in (CM32, TWIST, WeierstrassModel(0, -1, 1, -10, -20)):
            for rec in trace_table(model, 1000):
                if rec.reduction == "Good":
                    assert rec.a_ell * rec.a_ell <= 4 * rec.ell

    def test_cm_vanishing_to_1000(self):
        for rec in trace_table(CM32, 1000):
            if rec.reduction == "Good" and rec.ell % 4 == 3:
                assert rec.a_ell == 0

    def test_tate_runs_once_at_a_non_minimal_good_prime(self, tate_primes):
        # Both models rescale y^2 = x^3 - x, so each is non-minimal at one
        # prime where the curve is good: 5 below SHANKS_MESTRE_MIN_ELL, and
        # 233 above it.
        cases = ((WeierstrassModel(0, 0, 0, -625, 0), 5, 30), (BLOWN_UP_CM32, 233, 300))
        for model, ell, lmax in cases:
            tate_primes.clear()
            table = trace_table(model, lmax)
            assert tate_primes == [ell]
            assert table == trace_table(CM32, lmax)

    def test_bad_prime_above_the_crossover(self, tate_primes):
        table = trace_table(TWIST233_CM32, 300)
        assert tate_primes == [233]
        assert [rec for rec in table if rec.reduction == "Bad"] == [TraceRecord(233, None, "Bad")]

    def test_roundtrip(self):
        for rec in trace_table(WeierstrassModel(0, -1, 1, -10, -20), 30):
            assert TraceRecord(**json.loads(json.dumps(jsonable(rec)))) == rec

    @settings(max_examples=25, deadline=None)
    @given(
        r=st.integers(min_value=-5, max_value=5),
        s=st.integers(min_value=-5, max_value=5),
        t=st.integers(min_value=-5, max_value=5),
    )
    def test_translation_invariance_randomized(self, r, s, t):
        base = WeierstrassModel(0, -1, 1, -10, -20)
        moved = base.translated(r=r, s=s, t=t)
        assert trace_table(moved, 60) == trace_table(base, 60)


@pytest.fixture
def counted(monkeypatch):
    """The (model, ell) pairs traces.count_points is called with, in call order."""
    calls = []
    original = traces.count_points

    def recording(model, ell):
        calls.append((model, ell))
        return original(model, ell)

    monkeypatch.setattr(traces, "count_points", recording)
    return calls


def whole_table_report(model1, model2, p, lmax):
    """mod_p_congruent by the oracle: two full trace tables, then compare."""
    compared, violation = congruence_from_tables(p, trace_table(model1, lmax), trace_table(model2, lmax))
    return CongruenceReport(p, lmax, compared, violation is None, violation)


def frey_pairs():
    rng = random.Random(7)
    return [(random_frey(rng), random_frey(rng), p) for p in (3, 5, 7) for _ in range(3)]


def isogenous_pairs():
    rng = random.Random(11)
    pairs = []
    for p in (3, 5, 7):
        model = random_frey(rng)
        pairs.append((model, WeierstrassModel(*two_isogenous(model.a2, model.a4)), p))
    return pairs


class TestModPCongruent:
    @pytest.mark.parametrize("model1, model2, p", frey_pairs())
    def test_frey_pairs_match_the_whole_table_oracle(self, model1, model2, p):
        report = mod_p_congruent(model1, model2, p, 2000)
        assert not report.congruent  # the early-stop route
        assert report == whole_table_report(model1, model2, p, 2000)

    @pytest.mark.parametrize("model1, model2, p", isogenous_pairs())
    def test_isogenous_pairs_match_the_whole_table_oracle(self, model1, model2, p):
        report = mod_p_congruent(model1, model2, p, 2000)
        assert report.congruent  # every compared prime counted
        assert report == whole_table_report(model1, model2, p, 2000)

    @pytest.mark.parametrize("model", [BLOWN_UP_CM32, TWIST233_CM32], ids=["non-minimal-at-233", "twist-by-233"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_models_at_233_match_the_whole_table_oracle(self, model, p):
        report = mod_p_congruent(model, CM32, p, 300)
        assert report == whole_table_report(model, CM32, p, 300)
        assert report.congruent == (model == BLOWN_UP_CM32)

    def test_counts_only_up_to_the_first_violation(self, counted):
        report = mod_p_congruent(CM32, TWIST, 5, 1000)
        assert report.first_violation[0] == 13 and report.compared_primes[-1] > 990
        assert counted == [(m, ell) for ell in (3, 7, 11, 13) for m in (CM32, TWIST)]

    def test_congruent_pair_counts_at_every_compared_prime(self, counted):
        isogenous = WeierstrassModel(*two_isogenous(FREY.a2, FREY.a4))
        report = mod_p_congruent(FREY, isogenous, 11, 500)
        assert report.congruent and 3 not in report.compared_primes
        assert counted == [(m, ell) for ell in report.compared_primes for m in (FREY, isogenous)]

    @pytest.mark.parametrize(
        "model1, model2, p, lmax, message",
        [
            (SINGULAR, SINGULAR, 6, 2, "p must be a prime"),
            (CM32, SINGULAR, 6, 50, "p must be a prime"),
            (SINGULAR, SINGULAR, 5, MAX_ELL + 1, "singular"),
            (CM32, SINGULAR, 5, 2, "singular"),
            (SINGULAR, CM32, 5, MAX_ELL + 1, "MAX_ELL"),
            (SINGULAR, CM32, 5, 2, "lmax must be >= 3"),
            (SINGULAR, CM32, 5, 50, "singular"),
        ],
    )
    def test_refusal_order(self, model1, model2, p, lmax, message):
        # p, then model2 singular, then lmax, then model1 singular.
        with pytest.raises(ValueError, match=message):
            mod_p_congruent(model1, model2, p, lmax)

    def test_lmax_above_max_ell_is_refused_before_the_sieve(self, monkeypatch):
        def sieve(limit):
            raise AssertionError("sieved up to %d" % limit)

        monkeypatch.setattr(traces, "primes_up_to", sieve)
        with pytest.raises(ValueError, match="MAX_ELL"):
            mod_p_congruent(CM32, TWIST, 5, MAX_ELL + 1)

    def test_reflexive(self):
        report = mod_p_congruent(CM32, CM32, 7, 60)
        assert report.congruent and report.first_violation is None

    def test_symmetric_verdict(self):
        a = mod_p_congruent(CM32, TWIST, 5, 100)
        b = mod_p_congruent(TWIST, CM32, 5, 100)
        assert a.congruent == b.congruent
        assert a.compared_primes == b.compared_primes
        assert a.first_violation[0] == b.first_violation[0]

    def test_translated_model_is_congruent_and_equal(self):
        frey_trivial = build_frey(normalize(5, 1, 1, -1, 1))[1]
        report = mod_p_congruent(frey_trivial, CM32, 5, 100)
        assert report.congruent

    def test_twist_violation_witness(self):
        report = mod_p_congruent(CM32, TWIST, 5, 100)
        assert not report.congruent
        ell, a1, a2 = report.first_violation
        # Independent recomputation of the witness by enumeration.
        assert a1 == count_points_enumerate((0, 0, 0, -1, 0), ell)
        assert a2 == count_points_enumerate((0, 0, 0, 1, 0), ell)
        assert (a1 - a2) % 5 != 0
        # No smaller compared prime violates.
        for smaller in report.compared_primes:
            if smaller >= ell:
                break
            x = count_points_enumerate((0, 0, 0, -1, 0), smaller)
            y = count_points_enumerate((0, 0, 0, 1, 0), smaller)
            assert (x - y) % 5 == 0

    def test_twist_violation_is_at_13(self):
        # ell = 3, 7, 11 vanish for both curves (CM), ell = 5 is excluded
        # (it equals p), so the first witness is ell = 13 with traces 6, -6.
        report = mod_p_congruent(CM32, TWIST, 5, 100)
        assert report.first_violation == (13, 6, -6)
        assert 5 not in report.compared_primes

    def test_excludes_p_and_bad_primes(self):
        curve11 = WeierstrassModel(0, -1, 1, -10, -20)
        report = mod_p_congruent(CM32, curve11, 7, 40)
        assert 7 not in report.compared_primes
        assert 11 not in report.compared_primes  # bad for the second curve
        assert 2 not in report.compared_primes
        assert report.compared_primes == [3, 5, 13, 17, 19, 23, 29, 31, 37]
        report = mod_p_congruent(TWIST233_CM32, CM32, 7, 300)
        assert report.compared_primes == [ell for ell in primes_up_to(300)[1:] if ell not in (7, 233)]

    def test_disclaimer_present(self):
        report = mod_p_congruent(CM32, TWIST, 5, 50)
        assert report.disclaimer == CONGRUENCE_DISCLAIMER
        assert "never a proof" in report.disclaimer

    def test_roundtrip(self):
        report = mod_p_congruent(CM32, TWIST, 5, 100)
        doc = json.loads(json.dumps(jsonable(report)))
        doc["first_violation"] = tuple(doc["first_violation"])
        assert CongruenceReport(**doc) == report

    def test_requires_prime_p(self):
        with pytest.raises(ValueError):
            mod_p_congruent(CM32, TWIST, 6, 50)
