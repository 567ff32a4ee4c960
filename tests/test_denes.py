"""Regularity, order-of-2, and Wieferich criterion.

The mod-p Bernoulli computation (Voronoi's congruence as one correlation
per prime) is validated against three oracles in tests/oracles.py: the
exact-rational recurrence over Fraction values, reduced mod p at the
end, the O(p^2) binomial recurrence carried out in F_p, and Newton's
power-series inversion.  Its Kronecker packer is checked against the
schoolbook product, and its table of powers against ``pow``.  The
zeros of ``bernoulli_mod_p`` are the oracle of ``is_regular``, which
tests the folded sums for divisibility by p without solving for any B_k.
"""

import json
import os
import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import freycheck.denes as denes_mod
from freycheck.arith import MAX_P, MAX_SCAN, mult_order, primes_up_to
from freycheck.cli import jsonable
from freycheck.denes import (
    DenesReport,
    _least_primitive_root,
    _pack,
    _powers,
    _slot_width,
    _unpack,
    bernoulli_mod_p,
    denes_criterion,
    denes_scan,
    is_regular,
    wieferich_test,
)

from oracles import (
    IRREGULAR_PRIMES_BELOW_300,
    _poly_mul_mod,
    bernoulli_fractions,
    bernoulli_mod_p_newton,
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
        # The quadratic oracle is spot-checked above 300; the Newton oracle
        # covers every prime up to 2000.
        for p in [q for q in primes_up_to(300) if q >= 5] + [491, 617, 997, 1499, 3001]:
            assert bernoulli_mod_p(p) == bernoulli_mod_p_recurrence(p), p

    def test_agrees_with_newton_oracle(self):
        for p in [q for q in primes_up_to(2000) if q >= 5] + [4999, 9973, 20011]:
            assert bernoulli_mod_p(p) == bernoulli_mod_p_newton(p), p

    def test_shortest_correlations(self):
        # h = (p - 1)/2 = 2 and 3: one and two indices, a twisted (h even)
        # and a plain (h odd) cyclic correlation.
        bern = bernoulli_fractions(4)
        for p in (5, 7):
            expected = bernoulli_mod_p_oracle(p, bern)
            assert bernoulli_mod_p(p) == expected
            assert bernoulli_mod_p_newton(p) == bernoulli_mod_p_recurrence(p) == expected

    def test_large_least_primitive_roots(self):
        # Voronoi's congruence is used with c = g; a large g widens the
        # range of v_i = 2 floor(g r / p) - g + 1.
        bern = bernoulli_fractions(188)
        for p, g in ((191, 19), (409, 21), (2161, 23), (5881, 31)):
            assert _least_primitive_root(p) == g
            residues = bernoulli_mod_p(p)
            assert residues == bernoulli_mod_p_newton(p), p
            if p < 3000:
                assert residues == bernoulli_mod_p_recurrence(p), p
            if p < 300:
                assert residues == bernoulli_mod_p_oracle(p, bern), p

    def test_irregular_anchors_against_every_oracle(self):
        bern = bernoulli_fractions(154)
        for p, indices in ((37, [32]), (59, [44]), (67, [58]), (157, [62, 110])):
            residues = bernoulli_mod_p(p)
            assert sorted(k for k, v in residues.items() if v == 0) == indices
            assert residues == bernoulli_mod_p_newton(p) == bernoulli_mod_p_recurrence(p)
            assert residues == bernoulli_mod_p_oracle(p, bern)

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


def _poly_mul(a, b, p):
    """Every coefficient of a*b by the kernel's Kronecker packer."""
    width = _slot_width(min(len(a), len(b)), p)
    return _unpack(_pack(a, width) * _pack(b, width), len(a) + len(b) - 1, width)


def _check_poly_mul(a, b, p):
    n = len(a) + len(b) - 1
    assert [c % p for c in _poly_mul(a, b, p)] == poly_mul_schoolbook(a, b, p, n), (p, len(a), len(b))


class TestKroneckerPacking:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_maximal_residues_at_a_byte_boundary(self, width):
        # All residues p - 1 make the middle coefficients of a*a reach the
        # slot bound len * (p - 1)^2.  ``length`` is the longest whose
        # bound fits ``width`` bytes, and one more needs the next byte,
        # which the packer has only below 8.
        p = isqrt((256**width - 1) // 40) + 1
        length = (256**width - 1) // (p - 1) ** 2
        assert _slot_width(length, p) == width
        assert _slot_width(length + 1, p) == width + 1
        for n in (length, length + 1) if width < 8 else (length,):
            top = [p - 1] * n
            _check_poly_mul(top, top, p)
            _check_poly_mul(top, [p - 1] * (2 * n + 3), p)
        rng = random.Random(width)
        for _ in range(5):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 40))]
            b = [rng.randrange(p) for _ in range(rng.randint(1, 40))]
            _check_poly_mul(a, b, p)

    def test_largest_residues(self):
        # The largest residues whose products an 8-byte slot holds.
        for length in (1, 2, 3, 31):
            p = isqrt((2**64 - 1) // length) + 1
            assert _slot_width(length, p) == 8
            _check_poly_mul([p - 1] * length, [p - 1] * length, p)

    def test_bernoulli_slots_pass_eight_bytes_near_3_3_million(self):
        # The kernel multiplies two lists of h = (p - 1)/2 residues.  Its
        # slots outgrow one 64-bit word just above p = 3.3 million, above
        # MAX_P, so the packer needs no wider slot.
        def width(p):
            return _slot_width((p - 1) // 2, p)

        assert width(MAX_P) == width(3_300_000) == 8
        assert width(3_330_000) == 9

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_schoolbook(self, data):
        # The largest modulus is the last whose 80-term sums fit 8-byte slots.
        top = isqrt((2**64 - 1) // 80) + 1
        p = data.draw(st.sampled_from([2, 5, 7, 127, 251, 257, 8191, 65521, MAX_P, top]))
        coeffs = st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=80)
        _check_poly_mul(data.draw(coeffs), data.draw(coeffs), p)


def _primitive_roots(p, count):
    return [g for g in range(2, p) if mult_order(g, p) == p - 1][:count]


class TestPowers:
    # The first half, (p - 1)/2 powers, is odd in length at 7, 19, 31, 103
    # and 65539 and even at the rest.
    @pytest.mark.parametrize(
        "p",
        [5, 7, 13, 17, 19, 31, 37, 41, 97, 101, 103, 397, 401, 409, 65521, 65537, 65539],
    )
    def test_matches_pow(self, p):
        for g in _primitive_roots(p, 3):
            assert _powers(g, p) == [pow(g, e, p) for e in range(p - 1)], (p, g)


class TestIsRegular:
    def test_regular_examples(self):
        assert is_regular(5) == (True, [])
        assert is_regular(7) == (True, [])
        assert is_regular(31) == (True, [])

    def test_irregular_anchors(self):
        # h = (p - 1)/2 is even at 37, 157 and 617 (the correlation is
        # twisted by g) and odd at 59 and 491 (it is not).
        assert is_regular(37) == (False, [32])
        assert is_regular(59) == (False, [44])
        assert is_regular(157) == (False, [62, 110])
        assert is_regular(491) == (False, [292, 336, 338])
        assert is_regular(617) == (False, [20, 174, 338])

    def test_zeros_of_bernoulli_mod_p(self):
        # p = 5 (h = 2) and p = 7 (h = 3) are the shortest correlations of
        # each sign.
        for p in [q for q in primes_up_to(2000) if q >= 5] + [4999, 9973, 20011]:
            residues = bernoulli_mod_p(p)
            zeros = sorted(k for k, v in residues.items() if v == 0)
            assert is_regular(p) == (not zeros, zeros), p

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
    @pytest.mark.parametrize("fn", [denes_criterion, is_regular, bernoulli_mod_p])
    def test_refuses_p_above_max_p(self, fn):
        # The kernel's slots fit 8 bytes only up to MAX_P; 3000017 is prime.
        for p in (MAX_P + 1, 3_000_017):
            with pytest.raises(ValueError, match="p exceeds MAX_P = 3000000"):
                fn(p)

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

    def test_matches_bernoulli_mod_p_and_mult_order(self):
        for p in primes_up_to(3000):
            if p < 5:
                continue
            irregular = sorted(k for k, v in bernoulli_mod_p(p).items() if v == 0)
            ord2 = mult_order(2, p)
            order_condition = ord2 % 2 == 0 or ord2 == (p - 1) // 2
            wieferich = pow(2, p - 1, p * p) == 1
            assert denes_criterion(p) == DenesReport(
                p=p,
                is_regular=not irregular,
                irregular_indices=irregular,
                ord2=ord2,
                order_condition=order_condition,
                wieferich_violation=wieferich,
                criterion_holds=not irregular and order_condition and not wieferich,
            ), p

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

    def test_scan_below_5_is_refused(self, monkeypatch):
        # Refused before the sieve, so that no bound reads as an empty scan.
        monkeypatch.setattr(denes_mod, "primes_up_to", lambda n: pytest.fail("sieved to %d" % n))
        for p_max in (-MAX_SCAN, -1, 0, 1, 2, 3, 4):
            with pytest.raises(ValueError, match="^p_max must be >= 5, got %d$" % p_max):
                denes_scan(p_max)

    def test_parallel_matches_sequential(self, force_pools):
        force_pools(1)
        sequential = denes_scan(120)
        force_pools(4)
        assert denes_scan(120) == sequential

    @pytest.mark.parametrize("cores", [1, None])
    def test_no_pool_on_one_core(self, pool_sizes, force_pools, cores):
        force_pools(3)
        expected = denes_scan(120)
        force_pools(cores)
        assert denes_scan(120) == expected
        assert pool_sizes == [3]

    def test_refuses_a_scan_to_max_p_before_any_prime(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(denes_mod, "primes_up_to", lambda n: pytest.fail("sieved to %d" % n))
        monkeypatch.setattr(denes_mod, "denes_criterion", lambda p: pytest.fail("evaluated %d" % p))
        with pytest.raises(ValueError, match="^p_max exceeds MAX_SCAN = 30840$"):
            denes_scan(MAX_P)
        assert pool_sizes == []

    def test_largest_accepted_scan(self, monkeypatch, pool_sizes):
        # The scan to 30,840 ends at the prime 30,839; the next prime,
        # 30,841, is refused.
        monkeypatch.setattr(denes_mod, "denes_criterion", abs)
        assert MAX_SCAN == 30_840
        assert denes_scan(30_840)[-1] == 30_839
        with pytest.raises(ValueError, match="^p_max exceeds MAX_SCAN = 30840$"):
            denes_scan(30_841)

    def test_refuses_above_max_p_before_the_sieve(self, monkeypatch):
        monkeypatch.setattr(denes_mod, "primes_up_to", lambda n: pytest.fail("sieved to %d" % n))
        for p_max in (MAX_SCAN + 1, MAX_P + 1, 10**12):
            with pytest.raises(ValueError, match="^p_max exceeds MAX_SCAN = 30840$"):
                denes_scan(p_max)
