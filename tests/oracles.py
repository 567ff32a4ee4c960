"""Independent test oracles.

Everything here recomputes quantities the package produces, but by a
different route: exact rationals or an O(p^2) recurrence instead of
power-series inversion mod p, schoolbook products instead of Kronecker
substitution, full cubic-triple enumeration, per-candidate root
extraction or one table lookup per row instead of the searches by
admissible sum and by Pythagorean triple, explicit square-root
counting or one Euler criterion per x instead of a quadratic-character
table or Shanks-Mestre, the CM formulas of two curves, the closed-form
valuation table instead of the step-by-step reduction algorithm, and
trial division instead of Pollard-Brent rho.  The test suite treats
agreement between the two routes as the acceptance evidence, so nothing
in this module may import from the package's computation paths beyond
plain data containers.  The one exception is ``factorize_trial``: it
certifies its last cofactor with ``arith.is_prime`` and raises
``arith.FactorizationError``, so that it and ``arith.factorize`` are
compared down to the exception; ``is_prime`` is checked on its own
against a sieve and the least strong pseudoprimes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Bernoulli numbers as exact rationals


def bernoulli_fractions(max_index: int) -> List[Fraction]:
    """B_0 .. B_max_index as exact rationals (B_1 = -1/2 convention).

    Uses the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 over
    the rationals, no modular shortcuts.
    """
    bern: List[Fraction] = []
    for m in range(max_index + 1):
        if m == 0:
            bern.append(Fraction(1))
            continue
        total = Fraction(0)
        for j in range(m):
            total += math.comb(m + 1, j) * bern[j]
        bern.append(-total / (m + 1))
    return bern


def bernoulli_mod_p_oracle(
    p: int, bern: Optional[Sequence[Fraction]] = None
) -> Dict[int, int]:
    """B_k mod p for even 2 <= k <= p-3, reduced from exact rationals.

    Von Staudt-Clausen guarantees the denominator of B_k is the product
    of primes q with (q-1) | k; for k <= p-3 this excludes p, so the
    denominator is invertible mod p.  The gcd assertion checks that.
    ``bern`` may pass bernoulli_fractions(m) for some m >= p - 3, so a
    loop over many primes computes the rationals once.
    """
    if bern is None:
        bern = bernoulli_fractions(max(p - 3, 0))
    out: Dict[int, int] = {}
    for k in range(2, p - 2, 2):
        value = bern[k]
        assert value.denominator % p != 0, "von Staudt-Clausen violated"
        inv_den = pow(value.denominator, -1, p)
        out[k] = (value.numerator % p) * inv_den % p
    return out


def bernoulli_mod_p_recurrence(p: int) -> Dict[int, int]:
    """B_k mod p for even 2 <= k <= p-3 by the binomial recurrence in F_p.

    sum(C(m+1, j) * B_j, j = 0..m) = 0 solved for B_m one index at a
    time, with the denominators m + 1 <= p - 2 inverted mod p.  O(p^2)
    field operations: the package's kernel before it moved to power-series
    inversion, kept as its reference.
    """
    inv = [0, 1]
    for i in range(2, p):
        inv.append((-(p // i) * inv[p % i]) % p)
    b = [0] * max(p - 2, 2)
    b[0] = 1
    b[1] = (-inv[2]) % p
    out: Dict[int, int] = {}
    for m in range(2, p - 2, 2):  # B_m = 0 for odd m >= 3
        s = 0
        c_mj = 1  # C(m+1, 0)
        for j in range(m):
            if b[j]:
                s = (s + c_mj * b[j]) % p
            c_mj = c_mj * ((m + 1 - j) % p) % p * inv[j + 1] % p
        b[m] = (-s) * inv[m + 1] % p
        out[m] = b[m]
    return out


def poly_mul_schoolbook(
    a: Sequence[int], b: Sequence[int], p: int, n: int
) -> List[int]:
    """First n coefficients of a*b mod p by the double loop."""
    out = [0] * min(n, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < len(out):
                out[i + j] = (out[i + j] + x * y) % p
    return out


#: Irregular primes below 300 with their irregular Bernoulli indices
#: (classical table values, re-derivable from bernoulli_mod_p_oracle).
IRREGULAR_PRIMES_BELOW_300: Dict[int, List[int]] = {
    37: [32],
    59: [44],
    67: [58],
    101: [68],
    103: [24],
    131: [22],
    149: [130],
    157: [62, 110],
    233: [84],
    257: [164],
    263: [100],
    271: [84],
    283: [20],
    293: [156],
}


# ---------------------------------------------------------------------------
# Brute-force search over full (a, b, c) boxes


def brute_force_star(
    p: int, alpha: int, height: int, L: int = 2, require_primitive: bool = True
) -> List[Tuple[int, int, int]]:
    """All raw solutions of a^p + L^alpha*b^p + c^p = 0 in the box, O(H^3).

    No pruning, no root extraction: every (a, b, c) with non-zero
    entries of absolute value <= height is tested against the equation.
    """
    coeff = L**alpha
    hits: List[Tuple[int, int, int]] = []
    values = [x for x in range(-height, height + 1) if x != 0]
    for a in values:
        a_pow = a**p
        for b in values:
            partial = a_pow + coeff * b**p
            for c in values:
                if partial + c**p != 0:
                    continue
                if require_primitive and math.gcd(math.gcd(a, b), c) != 1:
                    continue
                hits.append((a, b, c))
    return hits


def brute_force_ap_powers(
    n: int, k: int, height: int, distinct_only: bool = True
) -> List[Tuple[int, ...]]:
    """k-term power progressions by full base enumeration, O(H^k)."""
    powers = [x**n for x in range(height + 1)]
    results: List[Tuple[int, ...]] = []
    for x1 in range(1, height + 1):
        start = x1 + 1 if distinct_only else x1
        for x2 in range(start, height + 1):
            diff = powers[x2] - powers[x1]
            for x3 in range(x2 if not distinct_only else x2 + 1, height + 1):
                if powers[x3] - powers[x2] != diff:
                    continue
                if k == 3:
                    results.append((x1, x2, x3))
                    continue
                for x4 in range(x3 if not distinct_only else x3 + 1, height + 1):
                    if powers[x4] - powers[x3] == diff:
                        results.append((x1, x2, x3, x4))
    return results


# ---------------------------------------------------------------------------
# Searches by per-candidate root extraction (the package's kernels before
# they moved to table lookup)


def _exact_root(n: int, k: int) -> Optional[int]:
    """The integer r with r**k == n, or None, by binary search on integers."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = _exact_root(-n, k)
        return None if r is None else -r
    lo, hi = 0, 1 << -(-n.bit_length() // k)  # lo**k <= n < hi**k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo**k == n else None


def search_star_exact_root(
    p: int, alpha: int, height: int, L: int = 2
) -> List[Tuple[int, int, int]]:
    """Raw solutions, primitive or not, with 0 < a <= height and
    0 < |b|, |c| <= height, in O(H^2) root extractions.

    For each (a, b) the target -(a^p + L^alpha*b^p) is range-checked, tested
    against the p-th power residues mod the least prime q = 1 mod p, and
    then given an exact p-th root by binary search.
    """
    coeff = L**alpha
    height_pow = height**p
    q = p + 1
    while q % p != 1 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        q += 1
    residues = {pow(x, p, q) for x in range(q)}
    b_terms = []
    for b in range(1, height + 1):
        b_terms.append((b, coeff * b**p))
        b_terms.append((-b, -coeff * b**p))
    hits: List[Tuple[int, int, int]] = []
    for a in range(1, height + 1):
        a_pow = a**p
        for b, term in b_terms:
            target = -(a_pow + term)
            if target == 0 or abs(target) > height_pow:
                continue
            if target % q not in residues:
                continue
            c = _exact_root(target, p)
            if c is not None:
                hits.append((a, b, c))
    return hits


def ap_powers_exact_root(
    n: int, k: int, height: int, distinct_only: bool = True
) -> List[Tuple[int, ...]]:
    """k-term power progressions over (x1, x2), O(H^2) root extractions.

    x3 and x4 are exact n-th roots of x2^n + d and x3^n + d, d = x2^n - x1^n.
    """
    powers = [x**n for x in range(height + 1)]
    results: List[Tuple[int, ...]] = []
    for x1 in range(1, height + 1):
        start = x1 + 1 if distinct_only else x1
        for x2 in range(start, height + 1):
            diff = powers[x2] - powers[x1]
            x3 = _exact_root(powers[x2] + diff, n)
            if x3 is None or x3 > height:
                continue
            if k == 3:
                results.append((x1, x2, x3))
                continue
            x4 = _exact_root(powers[x3] + diff, n)
            if x4 is None or x4 > height:
                continue
            results.append((x1, x2, x3, x4))
    return results


# ---------------------------------------------------------------------------
# Searches by table lookup, one set intersection per row (the package's
# kernels before they moved to sums and Pythagorean triples)


def search_star_table(
    p: int, alpha: int, height: int, L: int = 2, require_primitive: bool = True
) -> List[Tuple[int, int, int]]:
    """Raw solutions with 0 < a <= height and 0 < |b|, |c| <= height, in
    O(H^2) lookups: for each a, c^p = -(a^p + L^alpha*b^p) is looked up
    over every b in a table of exact p-th powers.
    """
    coeff = L**alpha
    roots = {c**p: c for c in range(-height, height + 1) if c}
    terms = [coeff * b_pow for b_pow in roots]
    raw: List[Tuple[int, int, int]] = []
    for a in range(1, height + 1):
        a_pow = a**p
        for target in roots.keys() & map(operator.sub, repeat(-a_pow), terms):
            c = roots[target]
            b = roots[(-target - a_pow) // coeff]
            if require_primitive and math.gcd(a, b, c) != 1:
                continue
            raw.append((a, b, c))
    return raw


def ap_powers_table(
    n: int, k: int, height: int, distinct_only: bool = True
) -> List[Tuple[int, ...]]:
    """k-term power progressions over x1, O(H^2) lookups: x3^n = 2 x2^n - x1^n
    is looked up over every x2 in a table of exact n-th powers, then x4."""
    roots = {x**n: x for x in range(1, height + 1)}
    doubled = [2 * x_pow for x_pow in roots]
    results: List[Tuple[int, ...]] = []
    for x1 in range(1, height + 1):
        x1_pow = x1**n
        x2_start = x1 + 1 if distinct_only else x1
        candidates = map(operator.sub, doubled[x2_start - 1 :], repeat(x1_pow))
        for x3_pow in roots.keys() & candidates:
            x2 = roots[(x3_pow + x1_pow) // 2]
            x3 = roots[x3_pow]
            if k == 3:
                results.append((x1, x2, x3))
                continue
            x4 = roots.get(2 * x3_pow - x2**n)
            if x4 is not None:
                results.append((x1, x2, x3, x4))
    results.sort()
    return results


# ---------------------------------------------------------------------------
# Point counting by explicit enumeration of y-values


def count_points_enumerate(
    coefficients: Sequence[int], ell: int
) -> int:
    """a_ell by counting every affine point of a long Weierstrass model.

    For each x in F_ell the quadratic y^2 + (a1*x + a3)*y = f(x) is
    solved by trying every y, so both square roots are seen explicitly.
    Intended for odd ell <= a few hundred; O(ell^2).
    """
    a1, a2, a3, a4, a6 = coefficients
    count = 1  # the point at infinity
    for x in range(ell):
        rhs = (((x + a2) * x + a4) * x + a6) % ell
        for y in range(ell):
            if (y * y + (a1 * x + a3) * y - rhs) % ell == 0:
                count += 1
    return ell + 1 - count


def count_points_legendre(coefficients: Sequence[int], ell: int) -> int:
    """a_ell = -sum_x (g(x) | ell) with one Euler-criterion power per x.

    g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6 comes from completing the square,
    valid for odd ell; the model must have good reduction at ell.  The
    package's per-x route before the quadratic-character table; O(ell)
    modular exponentiations.
    """
    a1, a2, a3, a4, a6 = coefficients
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    total = 0
    for x in range(ell):
        gx = (((4 * x + b2) * x + 2 * b4) * x + b6) % ell
        if gx:
            total += 1 if pow(gx, (ell - 1) // 2, ell) == 1 else -1
    return -total


# ---------------------------------------------------------------------------
# Exact traces of two CM curves (Ireland & Rosen, A Classical Introduction
# to Modern Number Theory, 2nd ed., ch. 18): O(log ell) per prime, so they
# check point counts far beyond any enumeration.


def cornacchia(d: int, p: int, root: int) -> Tuple[int, int]:
    """(x, y) with x^2 + d*y^2 = p for a prime p, given root^2 = -d mod p.

    Euclid's algorithm on (p, root) stops at the first remainder below
    sqrt(p) (Cohen, A Course in Computational Algebraic Number Theory,
    1.5.2); the cofactor must then be d times a square.
    """
    a, b, bound = p, root if 2 * root > p else p - root, math.isqrt(p)
    while b > bound:
        a, b = b, a % b
    c, rem = divmod(p - b * b, d)
    y = math.isqrt(c)
    if rem or y * y != c:
        raise ValueError("%d is not x^2 + %d*y^2" % (p, d))
    return b, y


def cm_trace_x3_minus_x(ell: int) -> int:
    """a_ell of y^2 = x^3 - x (conductor 32) at an odd prime ell.

    0 for ell = 3 mod 4.  Otherwise ell = a^2 + b^2 with a odd, and the
    sign makes a + bi primary, a + bi = 1 mod 2 + 2i, i.e. a = b + 1
    mod 4; then a_ell = 2a (Theorem 5 of ch. 18 with D = 1, whose
    quartic character is 1).
    """
    if ell % 4 == 3:
        return 0
    c = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) == ell - 1)
    a, b = cornacchia(1, ell, pow(c, (ell - 1) // 4, ell))
    if a % 2 == 0:
        a, b = b, a
    return 2 * a if (a - b) % 4 == 1 else -2 * a


_EISENSTEIN_UNITS = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))


def _eisenstein_mul(s: Tuple[int, int], t: Tuple[int, int]) -> Tuple[int, int]:
    """(u + v*w)(u' + v'*w) in Z[w], w^2 = -1 - w."""
    (a, b), (c, d) = s, t
    return a * c - b * d, a * d + b * c - b * d


def cm_trace_x3_plus_1(ell: int) -> int:
    """a_ell of y^2 = x^3 + 1 (conductor 36) at a prime ell >= 5.

    0 for ell = 2 mod 3.  Otherwise ell = N(pi) for the primary
    pi = u + v*w = 2 mod 3 in Z[w], and a_ell = -Tr(conj(chi) * pi) with
    chi = (4/pi)_6 = (2/pi)_3 (Theorem 4 of ch. 18 with D = 1).  pi comes
    from ell = x^2 + 3y^2 by Cornacchia, with sqrt(-3) = 2w + 1 for a
    cube root of unity w mod ell; chi is 2^((ell-1)/3) mod pi, read
    against w = -u/v mod pi.
    """
    if ell % 3 == 2:
        return 0
    w0 = next(r for r in (pow(c, (ell - 1) // 3, ell) for c in range(2, ell)) if r != 1)
    x, y = cornacchia(3, ell, (2 * w0 + 1) % ell)
    pi = (x + y, 2 * y)  # x + y*sqrt(-3)
    associates = (_eisenstein_mul(unit, pi) for unit in _EISENSTEIN_UNITS)
    u, v = next((u, v) for u, v in associates if u % 3 == 2 and v % 3 == 0)
    omega = -u * pow(v, -1, ell) % ell
    chi = {1: (1, 0), omega: (0, 1), omega * omega % ell: (-1, -1)}[pow(2, (ell - 1) // 3, ell)]
    s, t = _eisenstein_mul((chi[0] - chi[1], -chi[1]), (u, v))  # conj(chi) * pi
    return -(2 * s - t)


# ---------------------------------------------------------------------------
# Local data for ell >= 5 from the (v(c4), v(Delta)) table


def _valuation(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero undefined")
    n = abs(n)
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def local_data_table_large_prime(
    coefficients: Sequence[int], ell: int
) -> Tuple[str, int, int]:
    """(kodaira_type, conductor_exponent, min_disc_valuation) for ell >= 5.

    For residue characteristic >= 5 the reduction type of a minimal
    model is a function of (v(c4), v(Delta)) alone, and a model is
    non-minimal exactly when v(Delta) >= 12 and v(c4) >= 4 (or c4 = 0);
    this classical table is an independent cross-check of the
    step-by-step algorithm on its easiest residue characteristics.
    """
    if ell < 5:
        raise ValueError("table applies to ell >= 5 only")
    a1, a2, a3, a4, a6 = coefficients
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (
        a1 * a1 * a6
        + 4 * a2 * a6
        - a1 * a3 * a4
        + a2 * a3 * a3
        - a4 * a4
    )
    c4 = b2 * b2 - 24 * b4
    disc = (
        -(b2 * b2) * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    )
    if disc == 0:
        raise ValueError("singular model")
    v_disc = _valuation(disc, ell)
    v_c4 = None if c4 == 0 else _valuation(c4, ell)
    # Minimality: strip u = ell twists while the table says non-minimal.
    while v_disc >= 12 and (v_c4 is None or v_c4 >= 4):
        v_disc -= 12
        if v_c4 is not None:
            v_c4 -= 4
    if v_disc == 0:
        return "I0", 0, 0
    if v_c4 == 0:
        return "I%d" % v_disc, 1, v_disc
    if v_disc == 2:
        return "II", 2, 2
    if v_disc == 3:
        return "III", 2, 3
    if v_disc == 4:
        return "IV", 2, 4
    if v_disc == 6:
        return "I0*", 2, 6
    if v_c4 is not None and v_c4 == 2 and v_disc >= 7:
        return "I%d*" % (v_disc - 6), 2, v_disc
    if v_disc == 8:
        return "IV*", 2, 8
    if v_disc == 9:
        return "III*", 2, 9
    if v_disc == 10:
        return "II*", 2, 10
    raise AssertionError(
        "unreachable (v_disc, v_c4) = (%r, %r) for ell >= 5" % (v_disc, v_c4)
    )


# ---------------------------------------------------------------------------
# Closed-form Frey expectations


def frey_conductor_oracle(
    A: int, B: int, C: int, odd_primes: Sequence[int]
) -> Tuple[int, int]:
    """(t, conductor) for a Frey triple from the valuation table alone.

    ``odd_primes`` must list every odd prime dividing A*B*C; the caller
    supplies it from a factorization performed outside the package.
    """
    v2 = _valuation(B, 2)
    t = {1: 5, 2: 3, 3: 3, 4: 0}.get(v2, 1)
    radical = 1
    for q in sorted(set(odd_primes)):
        radical *= q
    return t, (1 << t) * radical


# ---------------------------------------------------------------------------
# Factorization by trial division alone


def factorize_trial(n: int, bound: int) -> Dict[int, int]:
    """Prime factorization of |n| by trial division up to ``bound``.

    ``arith.factorize`` must return the same dict, in the same key order,
    or raise the same FactorizationError with the same message.  A
    cofactor that survives trial division is kept only when it is below
    the square of the next trial divisor or ``is_prime`` certifies it.
    """
    from freycheck.arith import FactorizationError, is_prime

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


def naive_odd_prime_factors(n: int) -> List[int]:
    """Distinct odd prime factors by plain trial division (test-only)."""
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out: List[int] = []
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def synthetic_frey_triples() -> List[Tuple[int, int, int]]:
    """Deterministic coprime triples (A, B, C) shaped like Frey monomials.

    A = 3 mod 4, B even with ord_2(B) spanning 1..8, A + B + C = 0,
    gcd(A, B, C) = 1.  These need not come from genuine p-th-power
    solutions: the closed-form conductor table is a function of the
    congruence conditions only, which is exactly what the table/oracle
    comparison exercises.
    """
    triples: List[Tuple[int, int, int]] = []
    a_values = [3, 7, -1, -5, 11, -9, 15, 19, -13, 23]
    odd_parts = [1, -3, 5, 7, -1, 9]
    for v in range(1, 9):
        for A in a_values:
            for m in odd_parts:
                B = (1 << v) * m
                C = -A - B
                if C == 0:
                    continue
                if math.gcd(math.gcd(A, B), C) != 1:
                    continue
                triples.append((A, B, C))
    assert len(triples) >= 100
    seen_v2 = {(B & -B).bit_length() - 1 for _, B, _ in triples}
    assert seen_v2 == set(range(1, 9))
    return triples
