"""Exact integer and modular arithmetic primitives.

Everything operates on Python's arbitrary-precision integers.  No function
in this module (or anywhere else in the package) touches floating point,
so results stay exact at any magnitude.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "DEFAULT_FACTOR_BOUND",
    "MAX_ELL",
    "MAX_HEIGHT",
    "MAX_P",
    "MAX_SCAN",
    "MILLER_RABIN_BOUND",
    "FactorizationError",
    "exact_root",
    "factorize",
    "is_prime",
    "legendre_symbol",
    "mult_order",
    "ordered_map",
    "pool_size",
    "primes_up_to",
    "require_prime",
    "require_range",
    "valuation",
]

#: Default ``bound`` of ``factorize``: the prime factors up to it are
#: always found, and what lies above it must be one certified prime.
DEFAULT_FACTOR_BOUND = 10**6

#: Largest ell that traces.count_points counts at and traces.trace_table
#: tabulates to; it lives here so the CLI's help can name it without
#: loading traces.  A table's time and memory grow linearly with lmax:
#: traces --lmax 10**7 --format json took 268 s at 304 MB peak RSS
#: (2-core x86_64, Python 3.11.7, 8 GB).
MAX_ELL = 10**7

#: Largest p that denes evaluates, here so the CLI's help can name it
#: without loading denes.  The Bernoulli kernel's Kronecker slots fit in
#: 8 bytes up to about p = 3.3 million.
MAX_P = 3 * 10**6

#: Largest p_max that denes scans to, here so the CLI's help can name it
#: without loading denes.  It is the largest p_max whose per-prime
#: estimates b * isqrt(b) + 4,000 p, with b the bits of the Kronecker
#: product, sum to at most the estimate for one prime at MAX_P.  That
#: scan took 55.1 s, against 195.7 s and 348 MB for denes --p 2999999
#: (2-core x86_64, Python 3.11.7).
MAX_SCAN = 30_840

#: Largest height that search, verify and ap-search accept, here so the
#: CLI's help can name it without loading search.  Each search process
#: builds tables of O(height) exact powers: at height 10**6, search --p 13
#: --alpha 2 took 7.2 s at 222 MB peak RSS and ap-search --n 2 --k 3
#: 33.6 s at 416 MB (2-core x86_64, Python 3.11.7); search --height 10**8
#: ran past a 1 GB memory limit.
MAX_HEIGHT = 10**6

#: Brent's rho takes at most this many steps times isqrt(bound) per
#: constant c before a piece goes to trial division up to the bound.
#: Measured at the default bound (2-core x86_64, Python 3.11.7): on the
#: 320 Frey discriminants of the curve-batch benchmark's seeds 0-19, rho
#: leaves 9 pieces to trial division at 2 and none at 4 or 8; 9 times two
#: 30-digit primes, which rho cannot split, takes 0.115 s at 4, 0.120 s
#: at 8 and 0.134 s at 16, against 0.117 s by trial division alone.
RHO_STEPS_PER_ROOT = 8

#: Trial division runs to this bound, or to a smaller ``bound``, before rho starts.
_TRIAL_TO = 1000

#: Rho steps between two gcds.
_RHO_BATCH = 64

#: Miller-Rabin with the witnesses 2..41 is deterministic below this bound
#: (Sorenson & Webster).  Larger inputs are rejected, never guessed at.
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: (psi, k): the first k witnesses decide every n < psi, where psi is the
#: least strong pseudoprime to those k bases (Jaeschke, Math. Comp. 61,
#: 1993; Jiang & Deng, Math. Comp. 83, 2014; Sorenson & Webster, Math.
#: Comp. 86, 2017).  psi_8 = psi_7 and psi_10 = psi_11 = psi_9, so 8, 10
#: or 11 witnesses would decide no more n than 7 or 9 do.
_MR_PLAN = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (MILLER_RABIN_BOUND, 13),
)


class FactorizationError(ValueError):
    """The prime powers above the factor bound are not one certified prime."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < MILLER_RABIN_BOUND.

    Strong-probable-prime tests to the first k prime bases, with k the
    fewest that are proven to decide n (see _MR_PLAN).  Raises
    ValueError for inputs at or above the bound instead of returning a
    probabilistic answer.
    """
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            "primality test is deterministic only below %d" % MILLER_RABIN_BOUND
        )
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    k = next(k for psi, k in _MR_PLAN if n < psi)
    for w in _MR_WITNESSES[:k]:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_range(n: int, name: str, least: int, most: str = "") -> None:
    """Refuse ``n`` below ``least`` or above the constant of this module
    named ``most`` (no upper bound when it is empty); ``name`` names ``n``.

    The lower bound is checked first.
    """
    if n < least:
        raise ValueError("%s must be >= %d, got %d" % (name, least, n))
    if most and n > globals()[most]:
        raise ValueError("%s exceeds %s = %d" % (name, most, globals()[most]))


def require_prime(n: int, name: str, least: int = 2, most: str = "") -> None:
    """Refuse ``n`` unless it is a prime >= ``least`` and at most the
    constant named ``most``, which is checked before primality."""
    if most and n > globals()[most]:
        require_range(n, name, least, most)
    if n < least or not is_prime(n):
        raise ValueError("%s must be a prime >= %d, got %d" % (name, least, n))


def valuation(n: int, ell: int) -> int:
    """Largest e such that ell**e divides n.  Requires n != 0 and ell prime."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    require_prime(ell, "ell")
    n = abs(n)
    if ell == 2:
        return (n & -n).bit_length() - 1
    e = 0
    q, r = divmod(n, ell)
    while r == 0:
        n = q
        e += 1
        q, r = divmod(n, ell)
    return e


def mult_order(g: int, p: int) -> int:
    """Multiplicative order of g modulo the prime p."""
    require_prime(p, "p")
    if g % p == 0:
        raise ValueError("g must be a unit modulo p")
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(g, order // q, p) == 1:
            order //= q
    return order


def legendre_symbol(a: int, ell: int) -> int:
    """Legendre symbol (a | ell) in {-1, 0, 1} for an odd prime ell, by
    Euler's criterion."""
    require_prime(ell, "ell", 3)
    a %= ell
    if a == 0:
        return 0
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


def primes_up_to(n: int) -> List[int]:
    """All primes <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> Dict[int, int]:
    """Prime factorization of |n|, as {prime: exponent} in ascending order.

    Every prime factor up to ``bound`` is found.  Let R be the product of
    the prime powers above it: the factorization is accepted when R is 1,
    below the square of the least odd number above ``bound``, or a prime
    that ``is_prime`` certifies; otherwise a FactorizationError says why.
    This is exactly the answer of trial division up to ``bound``.  It is
    reached by trial division to min(bound, 1000) and Brent's rho, and
    trial division past 1000 runs only on a piece rho cannot split.  The
    result is never silently wrong.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    require_range(bound, "factor bound", 2)
    n = abs(n)
    factors: Dict[int, int] = {}
    e2 = (n & -n).bit_length() - 1
    if e2 > 0:
        factors[2] = e2
        n >>= e2
    n, f = _trial_divide(n, 3, min(bound, _TRIAL_TO), factors, 1)
    if f * f > n:
        if n > 1:
            factors[n] = 1
        return factors
    square = ((bound + 1) | 1) ** 2  # the least odd number above bound, squared
    too_large = max(square, MILLER_RABIN_BOUND)
    steps = RHO_STEPS_PER_ROOT * math.isqrt(bound)
    # rest: the prime powers above bound, multiplied; (q, e): q**e divides n.
    # After trial division past bound, n is all of rest.
    rest, pieces = (n, []) if f > bound else (1, [(n, 1)])
    # A piece's prime factors are all >= f, so a piece below f*f is prime.
    # Once rest reaches too_large, no piece left can change the answer.
    while pieces and rest < too_large:
        q, e = pieces.pop()
        if not (q < f * f or (q < MILLER_RABIN_BOUND and is_prime(q))):
            # What trial division leaves of a Frey discriminant 16(ABC)^2
            # is a square: rho then runs on its root, once.
            root = math.isqrt(q)
            if root * root == q:
                pieces.append((root, 2 * e))
                continue
            d = _rho_divisor(q, steps)
            if d:
                pieces += ((d, e), (q // d, e))
                continue
            q = _trial_divide(q, f, bound, factors, e)[0]
        # q is now 1, a prime, or has no prime factor <= bound.
        if 1 < q <= bound:
            factors[q] = factors.get(q, 0) + e
        else:
            rest *= q**e
    if rest >= square:
        if rest >= MILLER_RABIN_BOUND:
            raise FactorizationError(
                "factorization bound exceeded (cofactor too large to certify)"
            )
        if not is_prime(rest):
            raise FactorizationError(
                "factorization bound exceeded (composite cofactor %d)" % rest
            )
    if rest > 1:
        factors[rest] = 1
    return dict(sorted(factors.items()))


def _trial_divide(
    n: int, f: int, stop: int, factors: Dict[int, int], times: int
) -> Tuple[int, int]:
    """Divide the odd n by f, f + 2, ... while f <= stop and f*f <= n.

    Adds the divisors of n**times found to ``factors`` and returns what is
    left of n and the next divisor; n's prime factors are all >= it.
    """
    while f <= stop and f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            factors[f] = factors.get(f, 0) + e * times
        f += 2
    return n, f


def _rho_divisor(n: int, steps: int) -> int:
    """A divisor 1 < d < n of the odd n > 1, or 0 if none was found.

    Brent's cycle-finding rho on x -> x^2 + c (Brent, BIT 20, 1980),
    multiplying the differences ``_RHO_BATCH`` at a time before each gcd,
    with at most ``steps`` steps per c.  It gives up as soon as a c spends
    them with gcd 1, and moves on from c = 1 to 3, then 5, only when a
    batch overshot and stepping back one gcd a step still gives n.
    """
    for c in (1, 3, 5):
        y, r, q, g, left = 2, 1, 1, 1, steps
        while g == 1 and 2 * r <= left:
            left -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == 1:
            return 0
        if g == n:
            # The batch overshot: step again from its start, one gcd a step.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g
    return 0


def exact_root(n: int, k: int) -> Optional[int]:
    """The integer r with r**k == n, or None if no such integer exists.

    Odd k supports negative n; even k returns None for negative n; a
    root index k < 1 is refused.  An integer binary search finds the root.
    """
    require_range(k, "root index", 1)
    if n < 0:
        if k % 2 == 0:
            return None
        r = exact_root(-n, k)
        return None if r is None else -r
    if n < 2 or k == 1:
        return n
    lo, hi = 1, 1 << (-(-n.bit_length() // k))  # lo**k <= n < hi**k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo**k == n else None


T = TypeVar("T")
R = TypeVar("R")


def pool_size(work: int, share: int) -> int:
    """Processes worth starting for ``work``: one per ``share`` of it, at
    most one per CPU this process may run on, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, work // share))


def ordered_map(fn: Callable[[T], R], tasks: Sequence[T], size: int) -> List[R]:
    """[fn(t) for t in tasks], spread over up to ``size`` processes.

    A fork-based pool starts all of its processes up front, so the pool
    is sized min(size, len(tasks)); when that is below two, the tasks run
    in this process and no pool starts.  Results come back in task order,
    so output never depends on ``size``.
    """
    size = min(size, len(tasks))
    if size < 2:
        return [fn(t) for t in tasks]
    # Imported here: the pool pulls in multiprocessing, which every
    # single-process call would otherwise pay for at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks))
