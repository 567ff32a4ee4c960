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

Regularity asks only whether some B_2t vanishes.  B_2t is the folded
sum of that product times 2t g^(2t-1) g^(kt - t(t-1)) / (g^(2t) - 1),
with g the primitive root and k = 0 or 1, and that factor is a unit mod
p because 2t < p.  So ``is_regular`` and ``denes_criterion`` read the
irregular indices from the folded sums that p divides: no inverse and
no multiply per index (Buhler et al., ibid.).
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, NamedTuple, Sequence

from .arith import (
    factorize,
    mult_order,
    ordered_map,
    pool_size,
    primes_up_to,
    require_prime,
    require_range,
)

__all__ = [
    "DenesReport",
    "bernoulli_mod_p",
    "denes_criterion",
    "denes_scan",
    "is_regular",
    "wieferich_test",
]

#: A scan gets one process per this much of the sum of its primes, as a
#: prime's cost grows about linearly with it.  A pool of two loses at
#: p_max = 2600 (sum 448,864; 1 of 9 runs), ties at 2800 (sum 527,243; 6
#: of 9) and 3000 (sum 593,818; 3, 5 and 7 of 9 in three rounds), and
#: wins 7 to 9 of 9 from 3200 (sum 661,922): medians of 9 interleaved CLI
#: runs with two processes against one, on 2-core x86_64, Python 3.11.7.
#: So two shares, 625,000, sit between the last tie and the first steady
#: win, about ``--scan 3100``.  Pools above two processes are unmeasured.
PRIME_SUM_PER_PROCESS = 312_500

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


def _slot_width(terms: int, p: int) -> int:
    """Bytes in a Kronecker slot that holds a sum of ``terms`` products of
    residues mod p, each at most (p - 1)^2."""
    return ((terms * (p - 1) ** 2).bit_length() + 7) // 8


def _pack(coeffs: Sequence[int], width: int) -> int:
    """Values below 2^(8 width) as one int, ``width`` <= 8 little-endian
    bytes each.

    The values fill ``array("Q")`` words, and one strided byte-slice copy
    per byte moves their low ``width`` bytes into the slots.
    """
    words = array("Q", coeffs)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = words.tobytes()
    slots = bytearray(len(coeffs) * width)
    for k in range(width):
        slots[k::width] = raw[k::8]
    return int.from_bytes(slots, "little")


def _unpack(value: int, count: int, width: int) -> Sequence[int]:
    """The ``count`` slots of ``width`` <= 8 little-endian bytes in ``value``.

    Strided byte-slice copies fill ``array("Q")`` words.  Below ``MAX_P``
    the Bernoulli kernel's slots fit that width.
    """
    raw = value.to_bytes(count * width, "little")
    slots = bytearray(count * 8)
    for k in range(width):
        slots[k::8] = raw[k::width]
    words = array("Q", slots)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _least_primitive_root(p: int) -> int:
    """Least g whose order mod the prime p is p - 1."""
    primes = factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in primes):
        g += 1
    return g


def _powers(g: int, p: int) -> List[int]:
    """[g^0, g^1, ..., g^(p-2)] mod p for a primitive root g.

    The first half is one serial product, x = x * g mod p per entry.
    Since g^((p-1)/2) = -1, the second half is p minus the first.
    """
    x = 1
    power = [1] + [x := x * g % p for _ in range((p - 3) // 2)]
    return power + [p - y for y in power]


def _voronoi_sums(p: int) -> "tuple[List[int], int, Sequence[int]]":
    """(power, k, sums): Voronoi's sums at p, folded.

    g is the least primitive root mod p, ``power[e] = g^e`` and h = (p -
    1)/2.  ``sums`` has h - 1 entries; entry t - 1 is the cyclic
    correlation sum_{i<h} a_i b_(i+t) of ``bernoulli_mod_p``'s docstring,
    twisted by g^k with k = 0 (h odd) or 1 (h even), an exact integer not
    reduced mod p.  It is g^(t(t-1) - kt) S_2t mod p.
    """
    g = _least_primitive_root(p)
    n, h = p - 1, (p - 1) // 2
    k = 1 - h % 2
    power = _powers(g, p)
    # v[r] = 2 floor(g r / p) - g + 1, constant on g runs of residues r.
    edges = [-(-q * p // g) for q in range(g + 1)]
    v: List[int] = []
    for q in range(g):
        v += [2 * q - g + 1] * (edges[q + 1] - edges[q])
    a = [v[r] * power[(k - i) * i % n] % p for i, r in zip(range(h), power)]
    a.reverse()
    # b_j = b_(c-j), c = h + 1 + k: the first m are looked up, the rest mirrored.
    c = h + 1 + k
    m = min(c // 2 + 1, h)
    b = [power[j * (j - 1 - k) % n] for j in range(m)]
    b += b[c - m : k + 1 : -1]
    width = _slot_width(h, p)
    bits = 8 * width
    prod = _pack(a, width) * _pack(b, width)
    folded = (prod >> bits * h) + (prod & ((1 << bits * (h - 1)) - 1))
    return power, k, _unpack(folded, h - 1, width)


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

    As g^h = -1, b_(j+h) = (-1)^(h-1) b_j: the correlation is cyclic of
    length h when h is odd.  When h is even, a_i g^i and b_j g^(-j) make
    it cyclic, and the sum is multiplied by g^(-t).  So with k = 0 (h
    odd) or 1 (h even), a_i = v_i g^(ki - i^2), b_j = g^(j(j-1-k)) and P
    the product of a reversed and b_0 .. b_(h-1),

        g^(t(t-1) - kt) S_2t = P_(h-1+t) + P_(t-1).

    P is one big-int multiply by Kronecker substitution in slots of
    ceil(bits(h (p - 1)^2) / 8) bytes, and P_(h-1+t) + P_(t-1) fits one
    such slot: the upper half of P shifted down plus its lower half is
    every folded sum at once.  As h + 1 + k is even, (h + 1 + k - j)(h - j)
    = j(j - 1 - k) mod p - 1, so b_(h+1+k-j) = b_j: half of b is looked
    up and half mirrored.  Then

        B_2t = 2t g^(2t-1) S_2t / (g^(2t) - 1),

    with one modular inverse per t.  Besides the product, O(p) operations on
    small ints and O(p) memory.
    """
    require_prime(p, "p", 5, "MAX_P")
    power, k, sums = _voronoi_sums(p)
    n = p - 1
    # s is g^(t(t-1) - kt) S_2t, so the power is g^(2t-1) g^(kt - t(t-1)).
    return {
        2 * t: 2 * t * s * power[(3 * t - 1 + k * t - t * t) % n] * pow(power[2 * t] - 1, -1, p) % p
        for t, s in enumerate(sums, 1)
    }


def is_regular(p: int) -> "tuple[bool, List[int]]":
    """(regularity of p, ascending list of even k <= p - 3 with B_k = 0 mod p).

    B_2t = 2t g^(2t-1) g^(kt - t(t-1)) / (g^(2t) - 1) times the folded sum
    of ``_voronoi_sums``, and for 2t < p every factor but the sum is a
    unit mod p.  So B_2t = 0 exactly when p divides the folded sum: no
    inverse and no multiply per t.
    """
    require_prime(p, "p", 5, "MAX_P")
    _, _, sums = _voronoi_sums(p)
    irregular = [2 * t for t, s in enumerate(sums, 1) if s % p == 0]
    return (not irregular), irregular


def wieferich_test(p: int) -> bool:
    """True when 2^(p-1) = 1 mod p^2 (the rare violating case)."""
    require_prime(p, "p", 3)
    return pow(2, p - 1, p * p) == 1


def denes_criterion(p: int) -> DenesReport:
    """Evaluate all three hypotheses at p and combine them."""
    regular, irregular = is_regular(p)  # checks that p is a prime >= 5
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


def denes_scan(p_max: int) -> List[DenesReport]:
    """Reports for every prime 5 <= p <= p_max <= MAX_SCAN, ascending.

    Distinct primes are evaluated concurrently, in one process per
    ``PRIME_SUM_PER_PROCESS`` of their sum; the merge order is always
    ascending in p, so results are deterministic.
    """
    require_range(p_max, "p_max", 5, "MAX_SCAN")
    primes = [p for p in primes_up_to(p_max) if p >= 5]
    return ordered_map(denes_criterion, primes, pool_size(sum(primes), PRIME_SUM_PER_PROCESS))
