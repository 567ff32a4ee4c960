"""Integer and modular arithmetic primitives."""

import math
import os

import pytest
from hypothesis import assume, given, strategies as st

from freycheck.arith import (
    DEFAULT_FACTOR_BOUND,
    MILLER_RABIN_BOUND,
    FactorizationError,
    exact_root,
    factorize,
    iroot,
    is_prime,
    legendre_symbol,
    mult_order,
    ordered_map,
    primes_up_to,
    valuation,
)
from freycheck.denes import wieferich_test
from freycheck.frey import MonomialTriple, normalize

nonzero_ints = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0)


class TestIsPrime:
    def test_small_values(self):
        expected = set(primes_up_to(200))
        for n in range(200):
            assert is_prime(n) == (n in expected)

    def test_negative_and_edge(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)

    def test_large_prime_and_composite(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    def test_rejects_inputs_beyond_deterministic_bound(self):
        with pytest.raises(ValueError):
            is_prime(MILLER_RABIN_BOUND)
        with pytest.raises(ValueError):
            is_prime(MILLER_RABIN_BOUND + 12)

    def test_largest_allowed_input_is_answered(self):
        assert is_prime(MILLER_RABIN_BOUND - 1) in (True, False)

    def test_agrees_with_a_sieve_to_10_6(self):
        n = 10**6
        sieve = bytearray([1]) * n
        sieve[:2] = b"\x00\x00"
        for q in range(2, math.isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
        assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]

    # psi_k, the least strong pseudoprime to the first k prime bases, for
    # k = 1..7, 9 and 12 (psi_8 = psi_7 and psi_10 = psi_11 = psi_9).
    PSI = {
        1: 2_047,
        2: 1_373_653,
        3: 25_326_001,
        4: 3_215_031_751,
        5: 2_152_302_898_747,
        6: 3_474_749_660_383,
        7: 341_550_071_728_321,
        9: 3_825_123_056_546_413_051,
        12: 318_665_857_834_031_151_167_461,
    }

    @staticmethod
    def _strong_probable_prime(n, base):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(base, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    def test_least_strong_pseudoprimes_are_composite(self):
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        for k, psi in self.PSI.items():
            # psi fools the first k bases, so is_prime must use more of
            # them once n reaches psi.
            assert all(self._strong_probable_prime(psi, b) for b in bases[:k]), psi
            assert psi < MILLER_RABIN_BOUND
            assert not is_prime(psi), psi


class TestValuation:
    def test_examples(self):
        assert valuation(32, 2) == 5
        assert valuation(-1, 2) == 0
        assert valuation(2**4 * 3**7, 3) == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="valuation of 0"):
            valuation(0, 2)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            valuation(12, 4)

    def test_sign_invariance(self):
        assert valuation(-96, 2) == valuation(96, 2) == 5

    @given(
        m=nonzero_ints,
        n=nonzero_ints,
        ell=st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_multiplicativity(self, m, n, ell):
        assert valuation(m * n, ell) == valuation(m, ell) + valuation(n, ell)

    @given(n=nonzero_ints, ell=st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_defining_property(self, n, ell):
        e = valuation(n, ell)
        assert n % ell**e == 0
        assert n % ell ** (e + 1) != 0


class TestPowmod:
    """Modular powers, now taken with the builtin pow inside their callers."""

    def test_examples(self):
        # wieferich_test(p) is pow(2, p - 1, p * p) == 1.
        assert pow(2, 4, 25) == 16
        assert wieferich_test(5) is False
        assert pow(2, 1092, 1093**2) == 1  # Wieferich property of 1093
        assert wieferich_test(1093) is True
        assert pow(7, 0, 13) == 1
        assert mult_order(1, 13) == 1

    @given(p=st.sampled_from(primes_up_to(2000)[1:]))
    def test_matches_naive_repeated_multiplication(self, p):
        naive = 1
        for _ in range(p - 1):
            naive = naive * 2 % (p * p)
        assert wieferich_test(p) is (naive == 1)


class TestMultOrder:
    def test_examples(self):
        assert mult_order(2, 7) == 3
        assert mult_order(2, 5) == 4
        assert mult_order(1, 11) == 1

    def test_not_a_unit(self):
        with pytest.raises(ValueError, match="unit"):
            mult_order(14, 7)

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            mult_order(3, 10)

    @given(
        g=st.integers(min_value=1, max_value=10**6),
        p=st.sampled_from(primes_up_to(500)[2:]),
    )
    def test_divides_p_minus_1_and_is_minimal(self, g, p):
        if g % p == 0:
            g += 1
        d = mult_order(g, p)
        assert (p - 1) % d == 0
        assert pow(g, d, p) == 1
        for q in factorize(d):
            assert pow(g, d // q, p) != 1


class TestGcdAll:
    """The three-way gcd, now math.gcd(a, b, c) inside frey and search."""

    def test_examples(self):
        assert math.gcd(-1, 1, -1) == 1
        assert math.gcd(6, 10, 15) == 1
        assert math.gcd(4, 8) == 4
        MonomialTriple(-1, 2, -1).validate()
        assert normalize(5, 1, 1, -1, 1).normalized
        with pytest.raises(ValueError, match="coprime"):
            MonomialTriple(4, -8, 4).validate()
        with pytest.raises(ValueError, match="not primitive"):
            normalize(5, 1, -2, 2, -2)

    @given(
        a=st.integers(min_value=-1000, max_value=1000).filter(lambda n: n != 0),
        b=st.integers(min_value=-1000, max_value=1000).filter(lambda n: n != 0),
    )
    def test_matches_math_gcd(self, a, b):
        # MonomialTriple.validate checks the gcd right after the zero and sum checks.
        c = -(a + b)
        assume(c != 0)
        expected = 0
        for v in (a, b, c):
            expected = math.gcd(expected, v)
        if expected == 1:
            try:
                MonomialTriple(a, b, c).validate()
            except ValueError as exc:
                assert "coprime" not in str(exc)
        else:
            with pytest.raises(ValueError, match="coprime"):
                MonomialTriple(a, b, c).validate()


class TestLegendreSymbol:
    def test_examples(self):
        assert legendre_symbol(1, 7) == 1
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(14, 7) == 0

    def test_squares_mod_7(self):
        squares = {x * x % 7 for x in range(1, 7)}
        for a in range(1, 7):
            assert legendre_symbol(a, 7) == (1 if a in squares else -1)

    def test_ell_2_rejected(self):
        with pytest.raises(ValueError):
            legendre_symbol(3, 2)

    @given(
        a=st.integers(min_value=-500, max_value=500),
        b=st.integers(min_value=-500, max_value=500),
        ell=st.sampled_from(primes_up_to(100)[1:]),
    )
    def test_multiplicative_in_first_argument(self, a, b, ell):
        assert legendre_symbol(a * b, ell) == legendre_symbol(a, ell) * legendre_symbol(
            b, ell
        )


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_counts(self):
        assert len(primes_up_to(1000)) == 168
        assert len(primes_up_to(10**4)) == 1229

    def test_agrees_with_is_prime(self):
        listed = set(primes_up_to(2000))
        for n in range(2001):
            assert (n in listed) == is_prime(n)


class TestOrderedMap:
    def test_keeps_task_order(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ordered_map(abs, [-3, 1, -2], 1000) == [3, 1, 2]
        assert ordered_map(abs, [], 4) == []
        assert pool_sizes == [3]  # no pool for the empty task list


class TestFactorize:
    def test_roundtrip_small(self):
        for n in list(range(1, 400)) + [2**10 * 3**5 * 7**2, 10**12 + 39]:
            factors = factorize(n)
            product = 1
            for prime, exponent in factors.items():
                assert is_prime(prime)
                product *= prime**exponent
            assert product == n

    def test_sign_ignored(self):
        assert factorize(-12) == {2: 2, 3: 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_prime_cofactor_is_certified(self):
        p = 10**9 + 7  # prime beyond the default trial-division bound
        assert factorize(4 * p) == {2: 2, p: 1}
        assert factorize(p * DEFAULT_FACTOR_BOUND) == {
            2: 6,
            5: 6,
            p: 1,
        }

    def test_composite_cofactor_fails_loudly(self):
        n = (10**9 + 7) * (10**9 + 9)
        with pytest.raises(FactorizationError, match="factorization bound exceeded"):
            factorize(n, bound=10**4)

    def test_error_is_a_value_error(self):
        assert issubclass(FactorizationError, ValueError)

    def test_custom_bound_behaviour(self):
        assert factorize(97 * 101, bound=101) == {97: 1, 101: 1}
        # 10403 = 101 * 103; with bound 10 the cofactor square exceeds the
        # last trial divisor's square, but it is composite -> loud failure.
        with pytest.raises(FactorizationError):
            factorize(101 * 103 * 107 * 109, bound=10)


class TestRoots:
    def test_iroot_examples(self):
        assert iroot(0, 3) == 0
        assert iroot(1, 7) == 1
        assert iroot(63, 2) == 7
        assert iroot(64, 2) == 8
        assert iroot(2**60 - 1, 5) == 2**12 - 1

    def test_iroot_rejects_negative(self):
        with pytest.raises(ValueError):
            iroot(-8, 3)

    def test_exact_root_examples(self):
        assert exact_root(32, 5) == 2
        assert exact_root(-32, 5) == -2
        assert exact_root(-4, 2) is None
        assert exact_root(31, 5) is None
        assert exact_root(0, 3) == 0

    @given(
        base=st.integers(min_value=-300, max_value=300),
        k=st.integers(min_value=1, max_value=11),
    )
    def test_exact_root_roundtrip(self, base, k):
        n = base**k
        if n < 0 and k % 2 == 0:
            return
        root = exact_root(n, k)
        assert root is not None
        assert root**k == n

    @given(n=st.integers(min_value=0, max_value=10**18), k=st.integers(min_value=1, max_value=10))
    def test_iroot_is_floor(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
