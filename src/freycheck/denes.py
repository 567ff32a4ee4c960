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

from typing import Dict, List, NamedTuple

from .arith import is_prime, mult_order, ordered_map, primes_up_to

__all__ = [
    "DenesReport",
    "bernoulli_mod_p",
    "denes_criterion",
    "denes_scan",
    "is_regular",
    "wieferich_test",
]


class DenesReport(NamedTuple):
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


def _poly_mul_mod(a: List[int], b: List[int], p: int, n: int) -> List[int]:
    """First n coefficients of a*b mod p, by Kronecker substitution.

    Coefficients in [0, p) are packed into one int, one byte-aligned slot
    each; a slot holds any product coefficient, a sum of at most
    min(len(a), len(b)) terms below p^2, so no slot carries into the
    next.  One big-int multiply then replaces the schoolbook double loop.
    """
    a, b = a[:n], b[:n]
    width = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8

    def pack(coeffs: List[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    size = min(n, len(a) + len(b) - 1)
    raw = (pack(a) * pack(b)).to_bytes((len(a) + len(b) - 1) * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") % p for i in range(0, size * width, width)]


def bernoulli_mod_p(p: int) -> Dict[int, int]:
    """Residues of B_k mod p for even 2 <= k <= p - 3 (B_1 = -1/2 convention).

    x/(e^x - 1) = sum B_k x^k/k!, so B_k/k! are the coefficients of the
    inverse of f = (e^x - 1)/x = sum x^k/(k+1)! mod x^(p-2); over F_p
    these need only (p-2)! and smaller factorials, all invertible.  The
    inverse comes from Newton iteration g <- g*(2 - f*g), doubling the
    precision each step, with products by Kronecker substitution
    (Buhler, Crandall, Ernvall, Metsankyla and Shokrollahi, J. Symb.
    Comput. 31, 2001).  That is O(log p) products of big ints of
    O(p log p) bits, which CPython multiplies by Karatsuba, in place of
    the O(p^2) field operations of the binomial recurrence; O(p) memory.
    """
    _require_criterion_prime(p)
    n = p - 2
    fact = [1] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * (n + 1)
    inv_fact[n] = pow(fact[n], -1, p)
    for k in range(n, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    f = inv_fact[1:]  # f_k = 1/(k+1)!
    precisions = []  # n, ceil(n/2), ..., down to 2
    m = n
    while m > 1:
        precisions.append(m)
        m = (m + 1) // 2
    g = [1]
    for m in reversed(precisions):
        t = [(-c) % p for c in _poly_mul_mod(f, g, p, m)]
        t[0] = (t[0] + 2) % p
        g = _poly_mul_mod(g, t, p, m)
    return {k: g[k] * fact[k] % p for k in range(2, p - 2, 2)}


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
    primes = [p for p in primes_up_to(p_max) if p >= 5]
    return ordered_map(denes_criterion, primes, workers)
