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

Regularity needs B_k mod p for every even k <= p - 3.
``bernoulli_mod_p`` gets all of them from Voronoi's congruence, summed
over the powers of a primitive root and turned into one polynomial
product of length (p - 1)/2 by a chirp identity of exponents, as
Buhler, Crandall, Ernvall, Metsankyla and Shokrollahi (J. Symb. Comput.
31, 2001) and Hart, Harvey and Ong (Math. Comp. 86, 2017) do; the
product is one big-int multiply by Kronecker substitution, and memory
is O(p).  Its docstring gives the identities.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, NamedTuple, Sequence

from .arith import factorize, is_prime, mult_order, ordered_map, primes_up_to, process_count

__all__ = [
    "DenesReport",
    "bernoulli_mod_p",
    "denes_criterion",
    "denes_scan",
    "is_regular",
    "wieferich_test",
]

#: Below this sum of the primes scanned, a scan runs in this process
#: whatever ``workers`` says.  A prime's cost grows about linearly with
#: it, and a pool of two starts paying for itself between p_max = 2200
#: (sum 327,193) and 2800 (sum 527,243), and wins every run from 3000
#: (sum 593,818): medians of 9 interleaved CLI runs with ``--workers 2``
#: against in-process, on 2-core x86_64, Python 3.11.7.
POOL_MIN_PRIME_SUM = 450_000

#: array("Q") words are in the host's byte order; slots are little-endian.
_BIG_ENDIAN = sys.byteorder == "big"


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


def _slot_width(terms: int, p: int) -> int:
    """Bytes in a Kronecker slot that holds a sum of ``terms`` products of
    residues mod p, each at most (p - 1)^2."""
    return ((terms * (p - 1) ** 2).bit_length() + 7) // 8


def _pack(coeffs: Sequence[int], width: int) -> int:
    """Residues below 2^64 as one int, ``width`` little-endian bytes each
    (bytes past the eighth stay zero)."""
    words = array("Q", coeffs)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = words.tobytes()
    slots = bytearray(len(coeffs) * width)
    for k in range(min(width, 8)):
        slots[k::width] = raw[k::8]
    return int.from_bytes(slots, "little")


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> Sequence[int]:
    """Every coefficient of a*b, exactly, by Kronecker substitution.

    Needs 2 <= p <= 2^64 and coefficients in [0, p).  A product
    coefficient is a sum of at most min(len(a), len(b)) terms below p^2,
    so slots of ``_slot_width`` bytes never carry into each other, and
    one big-int multiply replaces the double loop.  Packing and unpacking
    are strided byte-slice copies between the slots and ``array("Q")``
    words.  A slot wider than 8 bytes (p above about 3.3 million in the
    Bernoulli kernel) is read in 64-bit limbs, most significant first.
    """
    width = _slot_width(min(len(a), len(b)), p)
    count = len(a) + len(b) - 1
    raw = (_pack(a, width) * _pack(b, width)).to_bytes(count * width, "little")
    coeffs: Sequence[int] = []
    for base in reversed(range(0, width, 8)):
        limb = bytearray(count * 8)
        for k in range(min(8, width - base)):
            limb[k::8] = raw[base + k :: width]
        words = array("Q", limb)
        if _BIG_ENDIAN:
            words.byteswap()
        coeffs = [(c << 64) | w for c, w in zip(coeffs, words)] if coeffs else words
    return coeffs


def _least_primitive_root(p: int) -> int:
    """Least g whose order mod the prime p is p - 1."""
    primes = factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in primes):
        g += 1
    return g


def bernoulli_mod_p(p: int) -> Dict[int, int]:
    """Residues of B_k mod p for even 2 <= k <= p - 3 (B_1 = -1/2 convention).

    Voronoi's congruence with c = g, the least primitive root mod p, is

        (g^k - 1) B_k = k g^(k-1) sum_{m=1}^{p-1} m^(k-1) floor(g m / p)  (mod p),

    and g^k != 1 for 2 <= k <= p - 3, so it can be solved for B_k.  For
    even k = 2t the terms at m and p - m pair up; with m = g^i, i < h =
    (p - 1)/2, the sum is

        S_2t = sum_{i<h} v_i g^(i(2t-1)),  v_i = 2 floor(g (g^i mod p) / p) - g + 1.

    The chirp identity i(2t - 1) = (i + t)(i + t - 1) - i^2 - t(t - 1)
    makes that a correlation, every exponent read mod p - 1 from one
    table of powers of g:

        S_2t = g^(-t(t-1)) sum_{i<h} a_i b_(i+t),  a_i = v_i g^(-i^2),  b_j = g^(j(j-1)).

    As g^h = -1, b_(j+h) = (-1)^(h-1) b_j, so the correlation is cyclic
    (h odd) or negacyclic (h even) of length h: with P the product of
    a reversed and b_0 .. b_(h-1), sum_i a_i b_(i+t) = P_(h-1+t) +-
    P_(t-1).  P is one big-int multiply (``_poly_mul``) in slots of
    ceil(bits(h (p - 1)^2) / 8) bytes.  Then

        B_2t = 2t g^(2t-1) S_2t / (g^(2t) - 1),

    the inverse read from a table of discrete logarithms.  Besides the
    product, O(p) operations on small ints and O(p) memory.
    """
    _require_criterion_prime(p)
    g = _least_primitive_root(p)
    n, h = p - 1, (p - 1) // 2
    power = [1] * n  # power[e] = g^e
    log = [0] * p  # log[g^e] = e
    x = 1
    for e in range(1, n):
        x = x * g % p
        power[e] = x
        log[x] = e
    a = [(2 * (g * r // p) - g + 1) * power[-i * i % n] % p for i, r in enumerate(power[:h])]
    b = [power[j * (j - 1) % n] for j in range(h)]
    prod = _poly_mul(a[::-1], b, p)
    sign = 1 if h % 2 else -1
    # The power is g^(2t-1) g^(-t(t-1)) / (g^(2t) - 1).
    return {
        2 * t: 2 * t * (hi + sign * lo) * power[(3 * t - 1 - t * t - log[power[2 * t] - 1]) % n] % p
        for t, lo, hi in zip(range(1, h), prod, prod[h:])
    }


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

    Distinct primes may be evaluated concurrently, once their sum reaches
    ``POOL_MIN_PRIME_SUM``; the merge order is always ascending in p, so
    results are deterministic.
    """
    primes = [p for p in primes_up_to(p_max) if p >= 5]
    parts = process_count(workers)
    if sum(primes) < POOL_MIN_PRIME_SUM:
        parts = 1
    return ordered_map(denes_criterion, primes, parts)
