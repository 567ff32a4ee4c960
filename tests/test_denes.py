"""Regularity, order-of-2, and Wieferich criterion.

The mod-p Bernoulli computation (power-series inversion) is validated
against two oracles in tests/oracles.py: the exact-rational recurrence
over Fraction values, reduced mod p at the end, and the O(p^2) binomial
recurrence carried out in F_p.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import freycheck.denes as denes_mod
from freycheck.arith import mult_order, primes_up_to
from freycheck.cli import jsonable
from freycheck.denes import (
    DenesReport,
    _poly_mul_mod,
    bernoulli_mod_p,
    denes_criterion,
    denes_scan,
    is_regular,
    wieferich_test,
)

from oracles import (
    IRREGULAR_PRIMES_BELOW_300,
    bernoulli_fractions,
    bernoulli_mod_p_oracle,
    bernoulli_mod_p_recurrence,
    poly_mul_schoolbook,
)


class TestBernoulliModP:
    def test_p5(self):
        assert bernoulli_mod_p(5) == {2: 1}

    def test_p7(self):
        assert bernoulli_mod_p(7) == {2: 6, 4: 3}

    def test_p37_contains_irregular_index(self):
        assert bernoulli_mod_p(37)[32] == 0

    def test_rejects_p3_and_composites(self):
        for bad in (3, 4, 9, 1):
            with pytest.raises(ValueError):
                bernoulli_mod_p(bad)

    def test_agrees_with_exact_rational_oracle_below_300(self):
        bern = bernoulli_fractions(296)
        for p in primes_up_to(300):
            if p < 5:
                continue
            assert bernoulli_mod_p(p) == bernoulli_mod_p_oracle(p, bern), p

    def test_agrees_with_recurrence_oracle(self):
        for p in [q for q in primes_up_to(1000) if q >= 5] + [1499, 3001]:
            assert bernoulli_mod_p(p) == bernoulli_mod_p_recurrence(p), p

    def test_oracle_spot_values(self):
        # The oracle itself is anchored on textbook rationals.
        from fractions import Fraction

        bern = bernoulli_fractions(12)
        assert bern[1] == Fraction(-1, 2)
        assert bern[2] == Fraction(1, 6)
        assert bern[4] == Fraction(-1, 30)
        assert bern[6] == Fraction(1, 42)
        assert bern[12] == Fraction(-691, 2730)
        assert all(bern[k] == 0 for k in (3, 5, 7, 9, 11))


class TestPolyMulMod:
    def test_maximal_coefficients_fill_but_do_not_overflow_a_slot(self):
        # All coefficients p - 1 reach the slot bound len * (p - 1)^2.
        # Moduli just below 2^k and lengths at powers of two and just
        # past them put that bound next to a byte boundary.
        for p in (3, 13, 251, 257, 65521, 2**31 - 1):
            for length in (1, 2, 3, 4, 63, 64, 65, 255, 256, 257):
                a = [p - 1] * length
                for n in (1, length, 2 * length - 1):
                    assert _poly_mul_mod(a, a, p, n) == poly_mul_schoolbook(a, a, p, n), (
                        p,
                        length,
                        n,
                    )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_schoolbook(self, data):
        p = data.draw(st.sampled_from([2, 5, 7, 127, 251, 257, 8191, 65521, 2**61 - 1]))
        coeffs = st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=80)
        a, b = data.draw(coeffs), data.draw(coeffs)
        n = data.draw(st.integers(min_value=1, max_value=len(a) + len(b) + 2))
        assert _poly_mul_mod(a, b, p, n) == poly_mul_schoolbook(a, b, p, n)


class TestIsRegular:
    def test_regular_examples(self):
        assert is_regular(5) == (True, [])
        assert is_regular(7) == (True, [])
        assert is_regular(31) == (True, [])

    def test_irregular_anchors(self):
        assert is_regular(37) == (False, [32])
        assert is_regular(59) == (False, [44])
        assert is_regular(157) == (False, [62, 110])

    def test_full_table_below_300(self):
        for p in primes_up_to(300):
            if p < 5:
                continue
            regular, indices = is_regular(p)
            expected = IRREGULAR_PRIMES_BELOW_300.get(p, [])
            assert indices == expected, p
            assert regular == (not expected)


class TestWieferich:
    def test_ordinary_primes(self):
        assert wieferich_test(3) is False
        assert wieferich_test(5) is False
        for p in primes_up_to(200):
            if p > 2:
                assert wieferich_test(p) is False

    def test_known_wieferich_primes(self):
        assert wieferich_test(1093) is True
        assert wieferich_test(3511) is True

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            wieferich_test(2)
        with pytest.raises(ValueError):
            wieferich_test(15)


class TestDenesCriterion:
    def test_p5(self):
        report = denes_criterion(5)
        assert report.criterion_holds
        assert report.is_regular and report.ord2 == 4 and not report.wieferich_violation

    def test_p7_order_equals_half(self):
        report = denes_criterion(7)
        assert report.ord2 == 3 == (7 - 1) // 2
        assert report.order_condition and report.criterion_holds

    def test_p31_fails_order_condition(self):
        report = denes_criterion(31)
        assert report.ord2 == 5
        assert not report.order_condition
        assert report.is_regular and not report.wieferich_violation
        assert not report.criterion_holds

    def test_p37_fails_regularity(self):
        report = denes_criterion(37)
        assert not report.is_regular and report.irregular_indices == [32]
        assert report.order_condition
        assert not report.criterion_holds

    def test_p1093_fails_wieferich(self):
        report = denes_criterion(1093)
        assert report.wieferich_violation
        assert not report.criterion_holds

    def test_conjunction_invariant(self):
        for p in primes_up_to(200):
            if p < 5:
                continue
            r = denes_criterion(p)
            assert r.criterion_holds == (
                r.is_regular and r.order_condition and not r.wieferich_violation
            )
            assert (31 - 1) % 5 == 0  # sanity on the one failing order anchor
            assert (p - 1) % r.ord2 == 0
            assert r.ord2 == mult_order(2, p)
            assert r.is_regular == (not r.irregular_indices)

    def test_report_roundtrip(self):
        report = denes_criterion(37)
        assert DenesReport(**json.loads(json.dumps(jsonable(report)))) == report


class TestDenesScan:
    def test_scan_29_all_hold(self):
        reports = denes_scan(29)
        assert [r.p for r in reports] == [5, 7, 11, 13, 17, 19, 23, 29]
        assert all(r.criterion_holds for r in reports)

    def test_scan_5_single(self):
        reports = denes_scan(5)
        assert len(reports) == 1 and reports[0].p == 5

    def test_scan_40_failures(self):
        verdicts = {r.p: r.criterion_holds for r in denes_scan(40)}
        assert verdicts[31] is False
        assert verdicts[37] is False
        assert all(v for p, v in verdicts.items() if p not in (31, 37))

    def test_scan_below_range_is_empty(self):
        assert denes_scan(4) == []

    @pytest.fixture
    def split_small_scans(self, monkeypatch):
        """Let scans far below ``POOL_MIN_PRIME_SUM`` use a pool, so pool
        sizing can be tested on them."""
        monkeypatch.setattr(denes_mod, "POOL_MIN_PRIME_SUM", 0)

    def test_parallel_matches_sequential(self, split_small_scans):
        assert denes_scan(120, workers=4) == denes_scan(120, workers=1)

    def test_pool_starts_at_the_prime_sum_threshold(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        prime_sum = sum(p for p in primes_up_to(120) if p >= 5)
        assert prime_sum < denes_mod.POOL_MIN_PRIME_SUM
        denes_scan(120, workers=2)
        assert pool_sizes == []
        monkeypatch.setattr(denes_mod, "POOL_MIN_PRIME_SUM", prime_sum + 1)
        denes_scan(120, workers=2)
        assert pool_sizes == []
        monkeypatch.setattr(denes_mod, "POOL_MIN_PRIME_SUM", prime_sum)
        denes_scan(120, workers=2)
        assert pool_sizes == [2]

    def test_pool_bounded_by_primes_and_cores(self, pool_sizes, monkeypatch, split_small_scans):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert denes_scan(120, workers=1000) == denes_scan(120)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert denes_scan(13, workers=1000) == denes_scan(13)  # primes 5, 7, 11, 13
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        denes_scan(13, workers=4)  # one core: runs in process
        assert pool_sizes == [3, 4]

    @pytest.mark.parametrize("cores", [1, None])
    def test_no_pool_on_one_core(self, pool_sizes, monkeypatch, cores, split_small_scans):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert denes_scan(120, workers=4) == denes_scan(120)
        assert pool_sizes == []

    def test_workers_validated(self):
        for p_max in (4, 29):
            with pytest.raises(ValueError):
                denes_scan(p_max, workers=0)
