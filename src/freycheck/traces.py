"""Frobenius traces by character sums or Shanks-Mestre, and mod-p trace
congruence evidence."""

from __future__ import annotations

from math import isqrt
from typing import Dict, List, NamedTuple, Optional, Tuple

from .arith import primes_up_to, require_prime, require_range
from . import tate
from .weierstrass import WeierstrassModel

__all__ = [
    "CONGRUENCE_DISCLAIMER",
    "SHANKS_MESTRE_MIN_ELL",
    "CongruenceReport",
    "TraceRecord",
    "count_points",
    "mod_p_congruent",
    "trace_table",
]

#: count_points sums the character table below this ell and runs
#: Shanks-Mestre from it on.  Mean time per prime on seven curves (best
#: of 5, 2-core x86_64, Python 3.11.7), table against Shanks-Mestre: 22
#: vs 36 us at ell 60-100, 33 vs 37 at 100-140, 44 vs 40 at 140-180,
#: 65 vs 39 at 220-260, 571 vs 42 at 1000-3000.  The two meet near
#: ell = 150, but Mestre's theorem, which guarantees that the points
#: settle the order, needs ell > 229, so the switch sits there.
SHANKS_MESTRE_MIN_ELL = 230

CONGRUENCE_DISCLAIMER = (
    "trace agreement mod p over a finite range is evidence for congruent "
    "mod-p Galois representations, never a proof"
)


class TraceRecord(NamedTuple):
    ell: int
    a_ell: Optional[int]
    reduction: str  # "Good" | "Bad"


class CongruenceReport(NamedTuple):
    p: int
    lmax: int
    compared_primes: List[int]
    congruent: bool
    first_violation: Optional[Tuple[int, int, int]]
    disclaimer: str = CONGRUENCE_DISCLAIMER


def count_points(model: WeierstrassModel, ell: int) -> Optional[int]:
    """Trace of Frobenius a_ell = ell + 1 - #E(F_ell) at an odd prime ell <= MAX_ELL.

    Returns None where the curve has bad reduction at ell.  Where ell
    divides the discriminant, Tate's algorithm decides that, and a model
    that is non-minimal at a good ell is replaced by its ell-minimal
    model.  Then one of two exact regimes runs, chosen by ell:

    - ell < SHANKS_MESTRE_MIN_ELL: the character sum -sum_x chi(g(x))
      for the quadratic character chi of F_ell.  Completing the square
      replaces the curve by Y^2 = g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6,
      valid for odd ell (the factor 4 is a square).  chi is tabulated
      once by squaring (ell - 1)/2 residues: O(ell) multiplications and
      lookups, no exponentiation.
    - ell >= SHANKS_MESTRE_MIN_ELL: baby-step giant-step over the Hasse
      interval on the short model y^2 = x^3 - 27*c4*x - 54*c6, with the
      quadratic twist settling orders that one curve leaves ambiguous
      (Mestre; Cohen, A Course in Computational Algebraic Number Theory,
      7.4.3).  See _shanks_mestre; it costs O(ell^(1/4)) group operations
      in exact affine arithmetic per point tried, and one or two points
      almost always suffice.  Only orders divisible by the given model's
      rational 2-torsion seed (see _two_torsion_seed) are tried: 4 for
      y^2 = x(x - a)(x + b), so for every Frey model.

    The switch, 230, is the first ell where Mestre's theorem guarantees
    that the points settle the order; timed per prime, the two regimes
    already cost the same near ell = 150 (the measurements are beside
    SHANKS_MESTRE_MIN_ELL).
    """
    require_prime(ell, "ell", 3, "MAX_ELL")
    counted = _good_model(model, model.require_nonsingular(), ell)
    if counted is None:
        return None
    if ell < SHANKS_MESTRE_MIN_ELL:
        return _character_sum(counted, ell)
    c4, c6 = counted.c_invariants()
    return ell + 1 - _shanks_mestre(-27 * c4 % ell, -54 * c6 % ell, ell, _two_torsion_seed(model))


def _good_model(model: WeierstrassModel, disc: int, ell: int) -> Optional[WeierstrassModel]:
    """A model of the curve with good reduction at ell, or None where the
    curve is bad there; disc is the model's discriminant.

    The model itself unless ell divides disc; then Tate's algorithm
    decides, and a good ell gets the ell-minimal model.
    """
    if disc % ell:
        return model
    data, minimal = tate.local_data_with_model(model, ell)
    return minimal if data.reduction == tate.GOOD else None


def _two_torsion_seed(model: WeierstrassModel) -> int:
    """A divisor of #E(F_ell) at every odd ell of good reduction, read
    from the rational 2-torsion of y^2 = x(x^2 + a2*x + a4).

    4 when a1 = a3 = a6 = 0 and a2^2 - 4*a4 is a square (three rational
    2-torsion points), 2 when only a1 = a3 = a6 = 0 holds ((0, 0) is
    one), 1 otherwise.  Rational 2-torsion belongs to the curve over Q,
    so the seed holds on any model of it; it injects into E(F_ell) at a
    good odd ell, and the quadratic twist, with the same 2-division
    roots, shares it.
    """
    a1, a2, a3, a4, a6 = model
    if a1 or a3 or a6:
        return 1
    d = a2 * a2 - 4 * a4
    return 4 if d >= 0 and isqrt(d) ** 2 == d else 2


def _character_sum(model: WeierstrassModel, ell: int) -> int:
    """a_ell = -sum_x chi(g(x)) on a model with good reduction at odd ell."""
    b2, b4, b6, _ = model.b_invariants()
    r2, r4, r6 = b2 % ell, (2 * b4) % ell, b6 % ell
    chi = [-1] * ell
    chi[0] = 0
    for s in range(1, (ell + 1) // 2):
        chi[s * s % ell] = 1
    return -sum(chi[(((4 * x + r2) * x + r4) * x + r6) % ell] for x in range(ell))


_Point = Optional[Tuple[int, int]]  # affine (x, y); None is the point at infinity


def _add(P: _Point, Q: _Point, a: int, p: int) -> _Point:
    """P + Q on y^2 = x^3 + a*x + b over F_p (b does not enter the formulas)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(k: int, P: _Point, a: int, p: int) -> _Point:
    """k*P for k >= 0, by double-and-add."""
    R: _Point = None
    while k:
        if k & 1:
            R = _add(R, P, a, p)
        k >>= 1
        if k:
            P = _add(P, P, a, p)
    return R


def _zeros(Q: _Point, R: _Point, K: int, a: int, p: int) -> List[int]:
    """The smallest one or two k in 0..K with Q + k*R = O, ascending.

    These k are k0 + j*t for the order t of R, so two of them give t.
    Baby steps tabulate x(j*R) for j = 1..m and then look up (m + 1)*R.
    j*R = O, or an x seen before (j*R = -j'*R), reveals t <= 2m + 1
    directly, and k0 is then read from the table, which holds +-j*R for
    every multiple.  Otherwise t > 2m + 1, and giant steps of (2m + 1)*R
    visit windows of 2m + 1 consecutive k, each holding at most one
    solution, found by matching Q + c*R = +-j*R at the window's centre c.
    """
    m = isqrt(K // 2) + 1
    table: Dict[int, Tuple[int, int]] = {}
    S, prev = R, None
    t = 0
    for j in range(1, m + 2):
        if S is None:
            t = j
        else:
            hit = table.get(S[0])
            if hit is not None:  # S = -hit*R
                t = j + hit[0]
        if t or j > m:
            break
        table[S[0]] = (j, S[1])
        S, prev = _add(S, R, a, p), S
    if t:
        if Q is None:
            k0 = 0
        else:
            hit = table.get(Q[0])
            if hit is None:
                return []
            k0 = hit[0] if hit[1] != Q[1] else t - hit[0]
        return [k for k in (k0, k0 + t) if k <= K]
    G = _add(S, prev, a, p)  # (2m + 1)*R
    C = _add(Q, prev, a, p)  # Q + m*R
    found: List[int] = []
    c = m
    while c - m <= K and len(found) < 2:
        if C is None:
            k = c
        else:
            hit = table.get(C[0])
            k = -1 if hit is None else c - hit[0] if hit[1] == C[1] else c + hit[0]
        if 0 <= k <= K:
            found.append(k)
        C = _add(C, G, a, p)
        c += 2 * m + 1
    return found


def _shanks_mestre(A: int, B: int, ell: int, seed: int) -> int:
    """#E(F_ell) for E: y^2 = x^3 + A*x + B over F_ell, ell >= 5 prime,
    given a seed that divides #E(F_ell) and the twist's order.

    The order N lies in [ell + 1 - w, ell + 1 + w], w = isqrt(4*ell),
    and so does the twist's order 2*ell + 2 - N.  For each x with
    d = f(x) != 0, the point (d*x, d^2) lies on y^2 = X^3 + A*d^2*X + B*d^3,
    which is E when d is a square and the quadratic twist otherwise, so
    no square root is taken.  The candidates for N stay a progression
    n, n + M, ..., M the lcm of the seed and the orders of the points
    seen on E and on the twist; they start at the least multiple of the
    seed in the interval, and each point narrows them by baby-step
    giant-step over the candidates left.  x runs through 0, 1, 2, ... in
    order.  For ell > 229 the points leave one candidate before the x
    values run out (Mestre's theorem, as completed by Cremona and
    Sutherland, J. Theor. Nombres Bordeaux 22, 2010); should they ever
    not, ArithmeticError is raised.
    """
    w = isqrt(4 * ell)
    M, hi = seed, ell + 1 + w
    n = -(-(ell + 1 - w) // M) * M  # candidates n, n + M, ... <= hi
    half = (ell - 1) // 2
    for x in range(ell):
        d = ((x * x + A) * x + B) % ell
        if d == 0:
            continue
        dd = d * d % ell
        a = A * dd % ell
        P = (d * x % ell, dd)
        if pow(d, half, ell) == 1:
            Q = _mul(n, P, a, ell)
        else:  # on the twist, whose order is 2*ell + 2 - N
            Q = _mul(2 * ell + 2 - n, P, a, ell)
            P = (P[0], ell - dd)
        ks = _zeros(Q, _mul(M, P, a, ell), (hi - n) // M, a, ell)
        if not ks:
            raise ArithmeticError("no multiple of a point order in the Hasse interval at %d" % ell)
        if len(ks) == 1:
            return n + ks[0] * M
        n, M = n + ks[0] * M, M * (ks[1] - ks[0])
    raise ArithmeticError("the points leave more than one group order at %d" % ell)


def trace_table(model: WeierstrassModel, lmax: int) -> List[TraceRecord]:
    """Trace records at every odd prime ell <= lmax, one count_points call each.

    lmax runs from 3 to MAX_ELL; a larger one is refused before the sieve
    is allocated.  Bad-reduction primes are marked reduction="Bad" with
    a_ell = None; primes where only the given model (not the curve) is
    singular are counted on the ell-minimal model.
    """
    require_range(lmax, "lmax", 3, "MAX_ELL")
    model.require_nonsingular()
    records: List[TraceRecord] = []
    for ell in primes_up_to(lmax)[1:]:
        a_ell = count_points(model, ell)
        records.append(TraceRecord(ell, a_ell, "Bad" if a_ell is None else "Good"))
    return records


def mod_p_congruent(
    model1: WeierstrassModel, model2: WeierstrassModel, p: int, lmax: int
) -> CongruenceReport:
    """Compare traces of two curves mod p over odd primes ell <= lmax.

    Excluded from comparison: ell = 2 (always), ell = p, and primes of
    bad reduction for either curve, decided from each discriminant and,
    at a prime dividing it, by Tate's algorithm.  Every other ell is a
    compared prime, but count_points runs on both models only up to the
    first violation: the report names no trace after it.  The refusals
    come in this order: p not prime, model2 singular, lmax out of
    range, model1 singular.  The verdict is finite-range evidence only;
    see the report's disclaimer field.
    """
    require_prime(p, "p")
    disc2 = model2.require_nonsingular()
    require_range(lmax, "lmax", 3, "MAX_ELL")
    disc1 = model1.require_nonsingular()
    compared: List[int] = []
    first_violation: Optional[Tuple[int, int, int]] = None
    for ell in primes_up_to(lmax)[1:]:
        if ell == p:
            continue
        good1, good2 = _good_model(model1, disc1, ell), _good_model(model2, disc2, ell)
        if good1 is None or good2 is None:
            continue
        compared.append(ell)
        if first_violation is None:
            a1, a2 = count_points(good1, ell), count_points(good2, ell)
            if (a1 - a2) % p:
                first_violation = (ell, a1, a2)
    return CongruenceReport(
        p=p,
        lmax=lmax,
        compared_primes=compared,
        congruent=first_violation is None,
        first_violation=first_violation,
    )
