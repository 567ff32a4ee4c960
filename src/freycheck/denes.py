"""The Denes criterion for three p-th powers in arithmetic progression.

For an odd prime p >= 5 the criterion evaluated here is the conjunction
of three classical hypotheses:

* p is regular: no Bernoulli numerator B_k (even k <= p - 3) vanishes
  mod p;
* the multiplicative order of 2 mod p is even, or equals (p - 1)/2
  (the two readings of the classical order condition are both recorded
  via the ``ord2`` field so either can be audited);
* 2 is not a Wieferich base: 2^(p-1) is not 1 modulo p^2.

When all three hold, non-trivial progressions x^p, y^p, z^p (equivalently
non-trivial solutions of a^p + 2*b^p + c^p = 0) are ruled out for p.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List

from .arith import is_prime, mult_order, primes_up_to

__all__ = [
    "DenesReport",
    "bernoulli_mod_p",
    "denes_criterion",
    "denes_scan",
    "is_regular",
    "wieferich_test",
]


@dataclass(frozen=True)
class DenesReport:
    p: int
    is_regular: bool
    irregular_indices: List[int]
    ord2: int
    order_condition: bool
    wieferich_violation: bool
    criterion_holds: bool


def _require_criterion_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5 (p = 2, 3 are out of scope)")


def bernoulli_mod_p(p: int) -> Dict[int, int]:
    """Residues of B_k mod p for even 2 <= k <= p - 3 (B_1 = -1/2 convention).

    Uses the binomial recurrence sum(C(m+1, j) * B_j, j = 0..m) = 0 carried
    out entirely in F_p; denominators m + 1 <= p - 2 are invertible.
    O(p^2) field operations, O(p) memory.
    """
    _require_criterion_prime(p)
    inv = [0, 1]
    for i in range(2, p):
        inv.append((-(p // i) * inv[p % i]) % p)
    b = [0] * max(p - 2, 2)
    b[0] = 1
    b[1] = (-inv[2]) % p
    out: Dict[int, int] = {}
    for m in range(2, p - 2):
        if m % 2 == 1:
            continue  # B_m = 0 for odd m >= 3
        s = 0
        c_mj = 1  # C(m+1, 0)
        for j in range(m):
            if b[j]:
                s = (s + c_mj * b[j]) % p
            c_mj = c_mj * ((m + 1 - j) % p) % p * inv[j + 1] % p
        b[m] = (-s) * inv[m + 1] % p
        out[m] = b[m]
    return out


def is_regular(p: int) -> "tuple[bool, List[int]]":
    """(regularity of p, ascending list of even k <= p - 3 with B_k = 0 mod p)."""
    residues = bernoulli_mod_p(p)
    irregular = sorted(k for k, v in residues.items() if v == 0)
    return (not irregular), irregular


def wieferich_test(p: int) -> bool:
    """True when 2^(p-1) = 1 mod p^2 (the rare violating case)."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return pow(2, p - 1, p * p) == 1


def denes_criterion(p: int) -> DenesReport:
    """Evaluate all three hypotheses at p and combine them."""
    _require_criterion_prime(p)
    regular, irregular = is_regular(p)
    ord2 = mult_order(2, p)
    order_condition = (ord2 % 2 == 0) or (ord2 == (p - 1) // 2)
    wieferich_violation = wieferich_test(p)
    return DenesReport(
        p=p,
        is_regular=regular,
        irregular_indices=irregular,
        ord2=ord2,
        order_condition=order_condition,
        wieferich_violation=wieferich_violation,
        criterion_holds=regular and order_condition and not wieferich_violation,
    )


def denes_scan(p_max: int, workers: int = 1) -> List[DenesReport]:
    """Reports for every prime 5 <= p <= p_max, ascending.

    Distinct primes may be evaluated concurrently; the merge order is
    always ascending in p, so results are deterministic.
    """
    if p_max < 5:
        return []
    if workers < 1:
        raise ValueError("workers must be >= 1")
    primes = [p for p in primes_up_to(p_max) if p >= 5]
    if workers > 1 and len(primes) > 1:
        # A fork-based pool starts all max_workers processes up front.
        size = min(workers, len(primes), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            reports = list(pool.map(denes_criterion, primes))
    else:
        reports = [denes_criterion(p) for p in primes]
    return sorted(reports, key=lambda rep: rep.p)
