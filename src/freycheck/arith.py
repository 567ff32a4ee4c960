"""Exact integer and modular arithmetic primitives.

Everything operates on Python's arbitrary-precision integers.  No function
in this module (or anywhere else in the package) touches floating point,
so results stay exact at any magnitude.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

__all__ = [
    "DEFAULT_FACTOR_BOUND",
    "MILLER_RABIN_BOUND",
    "FactorizationError",
    "exact_root",
    "factorize",
    "iroot",
    "is_prime",
    "legendre_symbol",
    "mult_order",
    "ordered_map",
    "primes_up_to",
    "process_count",
    "valuation",
]

#: Default ceiling for trial-division factorization.
DEFAULT_FACTOR_BOUND = 10**6

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
    """Trial division hit its bound while a composite cofactor remained."""


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


def valuation(n: int, ell: int) -> int:
    """Largest e such that ell**e divides n.  Requires n != 0 and ell prime."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(ell):
        raise ValueError("valuation requires a prime ell, got %d" % ell)
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
    if not is_prime(p):
        raise ValueError("mult_order requires a prime modulus")
    if g % p == 0:
        raise ValueError("g must be a unit modulo p")
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(g, order // q, p) == 1:
            order //= q
    return order


def legendre_symbol(a: int, ell: int) -> int:
    """Legendre symbol (a | ell) in {-1, 0, 1} for an odd prime ell.

    Computed by Euler's criterion.  Primality of ell is the caller's
    responsibility (this sits inside point-counting loops); ell = 2 and
    even moduli are rejected outright.
    """
    if ell == 2 or ell % 2 == 0 or ell < 3:
        raise ValueError("legendre_symbol requires an odd prime modulus")
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
    """Prime factorization of |n| by trial division up to ``bound``.

    A cofactor that survives trial division is kept only when it is
    certifiably prime (below the square of the last trial divisor, or
    passing the deterministic primality test); otherwise a
    FactorizationError is raised.  The result is never silently wrong.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if bound < 2:
        raise ValueError("factor bound must be >= 2")
    n = abs(n)
    factors: Dict[int, int] = {}
    e2 = (n & -n).bit_length() - 1
    if e2 > 0:
        factors[2] = e2
        n >>= e2
    f = 3
    while f <= bound and f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            factors[f] = e
        f += 2
    if n > 1:
        if f * f > n:
            factors[n] = 1
        else:
            try:
                cofactor_is_prime = is_prime(n)
            except ValueError as exc:
                raise FactorizationError(
                    "factorization bound exceeded (cofactor too large to certify)"
                ) from exc
            if cofactor_is_prime:
                factors[n] = 1
            else:
                raise FactorizationError(
                    "factorization bound exceeded (composite cofactor %d)" % n
                )
    return factors


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by pure-integer binary search."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if n < 2 or k == 1:
        return n
    hi = 1 << (-(-n.bit_length() // k))  # hi**k > n by construction
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def exact_root(n: int, k: int) -> Optional[int]:
    """The integer r with r**k == n, or None if no such integer exists.

    Odd k supports negative n; even k returns None for negative n.
    """
    if n < 0:
        if k % 2 == 0:
            return None
        r = exact_root(-n, k)
        return None if r is None else -r
    r = iroot(n, k)
    return r if r**k == n else None


T = TypeVar("T")
R = TypeVar("R")


def process_count(workers: int) -> int:
    """min(workers, os.cpu_count()): the most processes, or parts of work, worth having."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return min(workers, os.cpu_count() or 1)


def ordered_map(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> List[R]:
    """[fn(t) for t in tasks], spread over up to ``workers`` processes.

    A fork-based pool starts all of its processes up front, so the pool
    is sized min(process_count(workers), len(tasks)); when that is below
    two, the tasks run in this process and no pool starts.  Results come
    back in task order, so output never depends on ``workers``.
    """
    size = min(process_count(workers), len(tasks))
    if size < 2:
        return [fn(t) for t in tasks]
    # Imported here: the pool pulls in multiprocessing, which every
    # single-process call would otherwise pay for at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks))
