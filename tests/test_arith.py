"""Integer and modular arithmetic primitives."""

import math
import os
import random

import pytest
from hypothesis import assume, given, strategies as st

import freycheck.denes as denes_mod
import freycheck.search as search_mod
from freycheck import arith
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
    pool_size,
    primes_up_to,
    valuation,
)
from freycheck.denes import wieferich_test
from freycheck.frey import MonomialTriple, normalize
from oracles import factorize_trial

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


def _work(work, share, tasks=100):
    return lambda: ordered_map(abs, range(tasks), pool_size(work, share))


def _scan(p_max):
    return lambda: denes_mod.denes_scan(p_max)


def _search(p, height):
    return lambda: search_mod.search_star(search_mod.SearchSpec(p=p, alpha=1, height=height))


#: (CPUs, job, the sizes of the pools it starts).  The scans' and
#: searches' kernels are stubbed, so only their work estimates and the
#: pools run.
POOLS = {
    # Below two shares no pool starts, whatever the CPU count; on 2 CPUs
    # one starts at prime sum 625,000 and at 3,000,000 lookups.
    "prime-sum-624999": (64, _work(624_999, denes_mod.PRIME_SUM_PER_PROCESS), []),
    "prime-sum-625000": (2, _work(625_000, denes_mod.PRIME_SUM_PER_PROCESS), [2]),
    "scan-prime-sum-624206": (64, _scan(3079), []),
    "scan-prime-sum-627289": (2, _scan(3083), [2]),
    "search-lookups-2999950": (64, _search(13, 59_999), []),  # 50 sums
    "search-lookups-3000000": (2, _search(13, 60_000), [2]),
    # One process per share (prime sum 5,736,391), at most one per CPU
    # and per task.
    "one-per-share": (64, _scan(10_000), [18]),
    "bounded-by-cores": (3, _scan(10_000), [3]),
    "bounded-by-tasks": (8, _work(10**12, 1, tasks=7), [7]),
    "one-core": (1, _scan(10_000), []),
    "unknown-cores": (None, _scan(10_000), []),
}


class TestOrderedMap:
    def test_keeps_task_order(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ordered_map(abs, [-3, 1, -2], 1000) == [3, 1, 2]
        assert ordered_map(abs, [], 4) == []
        assert pool_sizes == [3]  # no pool for the empty task list

    @pytest.mark.parametrize("cpus, job, started", POOLS.values(), ids=list(POOLS))
    def test_pool_size(self, pool_sizes, monkeypatch, cpus, job, started):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(denes_mod, "denes_criterion", abs)
        monkeypatch.setattr(search_mod, "_search_chunk", lambda args: [])
        job()
        assert pool_sizes == started


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


def _outcome(fn, n, bound):
    """What fn(n, bound) gives: its items in order, or its exception."""
    try:
        return list(fn(n, bound).items())
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_matches_trial_division(cases):
    for n, bound in cases:
        assert _outcome(factorize, n, bound) == _outcome(factorize_trial, n, bound), (
            n,
            bound,
        )


#: Primes just above and just below 10^6, the default factor bound.
ABOVE_10_6 = (1000003, 1050011, 1120001, 1200007, 1300021, 1400017, 1450019)
BELOW_10_6 = (999983, 979987, 959969, 939997, 919979, 904999)
#: Mersenne primes above MILLER_RABIN_BOUND.
M89, M107 = 2**89 - 1, 2**107 - 1


def _frey_discriminants():
    """48 discriminants 16(ABC)^2 of Frey curves y^2 = x(x - A)(x + B),
    C = -A - B, shaped like the conductor calls of the curve-batch
    benchmark: in each of three rounds, 2 where A is a multiple of a prime
    just above 10^6, 4 where it is a multiple of one just below, and 10
    where every prime of ABC is below 10^6."""
    rng = random.Random(20)

    def largest_prime(x):
        return max(factorize_trial(x, math.isqrt(abs(x)) + 1), default=1)

    discs = []
    for _ in range(3):
        tops = rng.sample(ABOVE_10_6, 2) + rng.sample(BELOW_10_6, 4) + [0] * 10
        for top in tops:
            while True:
                if top:
                    A = top * rng.randrange(1, 2 * 10**9 // top) * rng.choice((1, -1))
                else:
                    A = rng.randrange(-(10**9), 10**9)
                B = 2 * rng.randrange(1, 10**9 // 2) * rng.choice((1, -1))
                C = -A - B
                if A % 4 != 3 or C == 0 or math.gcd(A, B) != 1:
                    continue
                if all(largest_prime(x) < 10**6 for x in (A // (top or 1), B, C)):
                    discs.append(16 * (A * B * C) ** 2)
                    break
    return discs


class TestFactorizeMatchesTrialDivision:
    """factorize against tests/oracles.py's factorize_trial: the same items
    in the same order, or the same exception with the same message."""

    BOUNDS = (2, 3, 10, 11, 100, 101, 997, 1000, 1001, 5000, 20000)

    def test_random_products_of_small_primes(self):
        rng = random.Random(12)
        primes = primes_up_to(20000)
        cases = []
        for _ in range(3000):
            n = rng.choice((1, -1)) << rng.randint(0, 5)
            for _ in range(rng.randint(1, 5)):
                n *= rng.choice(primes) ** rng.randint(1, 3)
            cases.append((n, rng.choice(self.BOUNDS)))
        _assert_matches_trial_division(cases)

    def test_units_powers_of_two_and_invalid_input(self):
        cases = [(n, b) for n in (1, -1, 2, -2, 2**64, -(2**200)) for b in self.BOUNDS]
        cases += [(0, 10), (0, 10**6), (12, 1), (12, 0), (12, -5)]
        _assert_matches_trial_division(cases)

    def test_primes_just_above_and_below_the_bound(self):
        cases = []
        for bound in (1000, 1009, 1013, 10**4):
            near = [p for p in range(bound - 60, bound + 60) if is_prime(p)]
            for p in near:
                for q in near:
                    cases += [(p * q, bound), (9 * p * p * q, bound)]
                cases += [(p, bound), (p * p, bound), (p**3, bound)]
        # Each of these costs trial division to 10^6 in the oracle.
        cases += [(p**k, 10**6) for p in (999983, 1000003) for k in (1, 2, 3)]
        cases += [(p * q, 10**6) for p in ABOVE_10_6[:3] for q in ABOVE_10_6[:3]]
        cases += [(p * q * q, 10**6) for p in BELOW_10_6[:3] for q in ABOVE_10_6[:2]]
        # 1093^2 and 3511^2 pass Fermat's test to base 2.
        cases += [(1093**2, b) for b in (1000, 1093, 1100)]
        cases += [(3511**2 * 1093, b) for b in (2000, 4000)]
        _assert_matches_trial_division(cases)

    def test_cofactors_at_and_beyond_the_certification_bound(self):
        below = next(n for n in range(MILLER_RABIN_BOUND - 2, 0, -2) if is_prime(n))
        cases = [(m * k, 10**4) for m in (below, M89) for k in (1, 3, 1009, 2**5 * 999983)]
        cases += [(M89 * M107, 5000), (M89**2, 5000), (M89 * 1009 * 1013, 1013)]
        # MILLER_RABIN_BOUND itself is a strong pseudoprime to 13 bases.
        cases += [(MILLER_RABIN_BOUND * k, 10**4) for k in (1, 9, 1009)]
        cases += [(below * 2**3, 10**6), (3 * M89, 10**6)]
        _assert_matches_trial_division(cases)

    def test_frey_discriminants(self):
        assert all(is_prime(p) for p in ABOVE_10_6 + BELOW_10_6)
        _assert_matches_trial_division((d, DEFAULT_FACTOR_BOUND) for d in _frey_discriminants())

    def test_trial_division_alone_gives_the_same_answers(self, monkeypatch):
        # No rho steps: every piece past 1000 goes to trial division.
        monkeypatch.setattr(arith, "RHO_STEPS_PER_ROOT", 0)
        rng = random.Random(13)
        primes = primes_up_to(20000)
        cases = []
        for _ in range(300):
            n = 1
            for _ in range(rng.randint(1, 4)):
                n *= rng.choice(primes) ** rng.randint(1, 2)
            cases.append((n, rng.choice((1001, 5000, 20000))))
        _assert_matches_trial_division(cases)

    def test_rho_starts_only_from_rho_min_bound(self, monkeypatch):
        # Below it, trial division runs to the bound with the same answers.
        rng = random.Random(15)
        primes = primes_up_to(3 * arith.RHO_MIN_BOUND)
        cases = [
            (rng.choice(primes) * rng.choice(primes) * rng.choice(primes), bound)
            for bound in (1001, 5000, arith.RHO_MIN_BOUND - 1) for _ in range(100)
        ]
        calls = []
        rho = arith._rho_divisor
        monkeypatch.setattr(arith, "_rho_divisor", lambda n, steps: calls.append(n) or rho(n, steps))
        _assert_matches_trial_division(cases)
        assert calls == []
        n = 1009 * 1013 * 9973
        assert factorize(n, arith.RHO_MIN_BOUND) == {1009: 1, 1013: 1, 9973: 1}
        assert calls[0] == n

    def test_agrees_with_sympy_on_smooth_numbers(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(14)
        for _ in range(20):
            n = rng.choice((1, -1))
            digits = rng.randint(40, 60)
            while len(str(abs(n))) < digits:
                n *= sympy.prevprime(rng.randrange(3, 10**6 + 1))
            expected = {p: e for p, e in sympy.factorint(abs(n)).items()}
            result = factorize(n)
            assert result == expected and list(result) == sorted(expected)


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
