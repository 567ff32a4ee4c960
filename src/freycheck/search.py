"""Bounded-height exhaustive searches.

Two families are covered:

* solutions of a^p + L^alpha * b^p + c^p = 0 with non-zero entries and
  |a|, |b|, |c| <= H (L = 2 by default), found one sum s = a + c at a
  time;
* arithmetic progressions of perfect n-th powers with positive bases.

Why searching by sums finds every solution.  The equation is
homogeneous of degree p, so every solution is d times a primitive one,
d being its content gcd(a, b, c).  Orient a primitive solution by the
a<->c swap and the global sign flip so that a = max(|a|, |c|) > 0.  Then
s = a + c > 0, since s = 0 would force b = 0.  Put
Phi = (a^p + c^p) / s = sum_i a^(p-1-i) (-c)^i, so s * Phi = -L^alpha b^p;
modulo s, c = -a and Phi = p a^(p-1).  If a prime q outside {L, p}
divided both s and Phi it would divide a, hence c = s - a, hence
L^alpha b^p and so b, against primitivity.  So q divides only one of
s and Phi, and ord_q(s) = p ord_q(b) is a multiple of p.  Hence
s = L^i p^j u^p with 1 <= s <= 2H: only O(H^(1/p) log^2 H) sums are
admissible.

For each admissible s, a runs over ceil(s/2)..H and c = s - a.  As
a >= |c|, a^p + c^p > 0, so it can meet only -L^alpha b^p with b < 0.
The values a^p + c^p, read as a^p - |c|^p when c < 0, come from one
list of the exact p-th powers 0^p, ..., H^p and meet the table
{-L^alpha b^p : -H <= b < 0} in one set intersection, run in C by the
dict-keys view.  On that range a^p + (s - a)^p is strictly increasing
in a, so a hit's a is recovered by bisection.  No root is extracted and
no float is used; memory stays O(H).  Imprimitive records, when
requested, are the multiples d * (a, b, c) of the primitive hits that
stay inside the box, tagged with their content.

Three-term progressions of squares x1^2, x2^2, x3^2 are exactly the
Pythagorean triples u^2 + v^2 = x2^2 with 0 < u < v, where
x1 = v - u and x3 = v + u; they are listed from Euclid's formula in
O(H log H), and a fourth term is looked up in a table of squares.  For
n >= 3 the last terms are looked up in a table of exact n-th powers, one
set intersection per x1.

Search output is canonicalized under the a<->c swap and the global sign
flip and sorted, so results are deterministic and independent of work
partitioning.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import chain, repeat
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from . import frey
from .arith import ordered_map, pool_size, require_prime, require_range

__all__ = [
    "SIGMA_PRIMES",
    "CaseResult",
    "SearchOutcome",
    "SearchSpec",
    "SolutionRecord",
    "classify_ap_outcome",
    "classify_search_outcome",
    "search_ap_powers",
    "search_star",
    "verify_theorem_claims",
]

#: Coefficient primes L for which a^p + L^alpha*b^p + c^p = 0 is known to
#: have no non-zero solutions whenever p >= 11 is prime, p != L, alpha >= 0.
SIGMA_PRIMES = frozenset({3, 5, 7, 11, 13, 17, 19, 23, 29, 53, 59})

#: A search gets one process per this many estimated table lookups (see
#: ``_search_specs``).  A pool of two lost to one process up to 3.38M
#: lookups in ``verify`` and won from 4.24M, and won from 2.13M in
#: ``search``: medians of 5 CLI runs, 2-core x86_64, Python 3.11.7.  So
#: two shares, 3,000,000, sit at the crossover.  Pools above two
#: processes are unmeasured.
LOOKUPS_PER_PROCESS = 1_500_000

#: Most work an ap-search for n >= 3 may do, in the units of
#: ``_ap_sweep_work``, set so that n = 3 still reaches height 30,000, the
#: top that H(H - 1)/2 <= 4.5 * 10^8 lookups set for every n before the
#: work was weighted by n.  The largest accepted ap-search --k 3 took 46 s at n = 3
#: (height 30,000, 19 MB peak RSS), 35 s at n = 31 (21,515), 28 s at
#: n = 3,000 (3,280, 40 MB), 27 s at n = 200,000 (274, 113 MB) and 23 s at
#: n = 10^7 (6, 43 MB); n = 200,000 at height 300 is refused (one CLI run
#: each, 2-core x86_64, Python 3.11.7).
MAX_AP_WORK = 20025 * 10**7


class _SearchSpecFields(NamedTuple):
    p: int
    alpha: int
    height: int
    L: int = 2
    require_primitive: bool = True


class SearchSpec(_SearchSpecFields):
    """One search; every way of making one (``_replace``, unpickling) validates."""

    __slots__ = ()

    def __new__(
        cls, p: int, alpha: int, height: int, L: int = 2, require_primitive: bool = True
    ) -> "SearchSpec":
        require_prime(p, "p", 3)
        require_range(alpha, "alpha", 0)
        require_prime(L, "L")
        require_range(height, "height", 1, "MAX_HEIGHT")
        if (work := _table_work(p, height)) > MAX_AP_WORK:
            raise ValueError(
                "p = %d at height %d needs about %d units of work for its table "
                "of p-th powers, above MAX_AP_WORK = %d" % (p, height, work, MAX_AP_WORK)
            )
        return super().__new__(cls, p, alpha, height, L, require_primitive)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "SearchSpec":
        return cls(*iterable)

    @property
    def reduced_alpha(self) -> int:
        """alpha mod p; 0 marks the Fermat case."""
        return self.alpha % self.p


class SolutionRecord(NamedTuple):
    a: int
    b: int
    c: int
    normalized_form: Tuple[int, int, int]
    trivial: bool
    content: int = 1


def _admissible_sums(spec: SearchSpec) -> List[int]:
    """Every s = L^i p^j u^p with 1 <= s <= 2H, ascending (see the module docstring)."""
    if not frey.alpha_fits(spec.p, spec.alpha, spec.height, spec.L):
        return []
    bound = 2 * spec.height
    sums = set()
    u = 1
    while u**spec.p <= bound:
        l_part = u**spec.p
        while l_part <= bound:
            s = l_part
            while s <= bound:
                sums.add(s)
                s *= spec.p
            l_part *= spec.L
        u += 1
    return sorted(sums)


def _search_chunk(args: Tuple[SearchSpec, Sequence[int]]) -> List[Tuple[int, int, int]]:
    """Raw solutions with a + c in ``sums`` and a = max(|a|, |c|).

    Every primitive solution has such an orientation, and its sum
    s = a + c > 0 is admissible: s * Phi = -L^alpha b^p with
    Phi = (a^p + c^p)/s = p a^(p-1) mod s, so a prime q outside {L, p}
    dividing both s and Phi would divide a, c and b; hence ord_q(s) is a
    multiple of p (module docstring).  Scanning a over ceil(s/2)..H,
    c = s - a, for each admissible s therefore finds all of them.
    ``powers[x]`` is x^p for 0 <= x <= H.  A key of ``targets`` is
    -L^alpha b^p = L^alpha |b|^p with -H <= b < 0: a >= |c| makes
    a^p + c^p > 0, so no b > 0 can hit, and keeps |c| <= H.  Imprimitive
    hits are dropped here and, when the spec allows them, come back as
    the multiples d * (a, b, c) of the primitive ones that fit in the box.
    """
    spec, sums = args
    p, height = spec.p, spec.height
    coeff = spec.L**spec.alpha
    powers = [x**p for x in range(height + 1)]
    targets = {coeff * x_pow: -x for x, x_pow in enumerate(powers) if x}
    raw: List[Tuple[int, int, int]] = []
    for s in sums:
        a_lo = (s + 1) // 2
        hits = targets.keys() & chain(
            # c = s - a > 0: a rises from a_lo to min(s - 1, H) as c falls.
            map(operator.add, powers[a_lo:s], powers[s - a_lo : 0 : -1]),
            # c <= 0: a = s, ..., H and a^p + c^p = a^p - (a - s)^p.
            map(operator.sub, powers[s:], powers),
        )
        for value in hits:
            a = a_lo + bisect_left(
                range(a_lo, height + 1), value, key=lambda x: x**p + (s - x) ** p
            )
            b, c = targets[value], s - a
            # c = 0 meets the table only when p | alpha: not a solution here.
            if c and math.gcd(a, b, c) == 1:
                copies = 1 if spec.require_primitive else height // max(a, abs(b))
                raw.extend((d * a, d * b, d * c) for d in range(1, copies + 1))
    return raw


def _is_trivial(spec: SearchSpec, form: Tuple[int, int, int]) -> bool:
    """a = c = -L^(alpha // p) * b: the trivial family a = c = -b of the reduced equation."""
    a, b, c = form
    return a == c == -(spec.L ** (spec.alpha // spec.p)) * b


def _records_from_raw(
    spec: SearchSpec, raw: Sequence[Tuple[int, int, int]]
) -> List[SolutionRecord]:
    by_key: Dict[Tuple[Tuple[int, int, int], int], SolutionRecord] = {}
    for a, b, c in raw:
        # Exact re-verification of every candidate before it is emitted.
        if a**spec.p + spec.L**spec.alpha * b**spec.p + c**spec.p != 0:
            raise AssertionError("search emitted a non-solution")
        content = math.gcd(a, b, c)
        form = frey.canonical_triple(a // content, b // content, c // content)
        key = (form, content)
        if key not in by_key:
            by_key[key] = SolutionRecord(
                a=content * form[0],
                b=content * form[1],
                c=content * form[2],
                normalized_form=form,
                trivial=_is_trivial(spec, form),
                content=content,
            )
    return sorted(by_key.values(), key=lambda rec: (rec.normalized_form, rec.content))


def _search_specs(specs: Sequence[SearchSpec]) -> List[List[SolutionRecord]]:
    """The records of every spec, from one ordered_map over all sums.

    The work is estimated as the table lookups, (number of sums) * H per
    spec, and sizes the pool by ``pool_size``.  Each spec's sums are dealt
    round-robin into at most that many chunks, as each chunk builds its
    own O(H) table of powers.  The parts are grouped back by position in
    ``specs``, so repeated specs stay separate and the result does not
    depend on the pool's size.
    """
    all_sums = [_admissible_sums(spec) for spec in specs]
    lookups = sum(len(sums) * spec.height for spec, sums in zip(specs, all_sums))
    parts = pool_size(lookups, LOOKUPS_PER_PROCESS)
    owners: List[int] = []
    chunks: List[Tuple[SearchSpec, List[int]]] = []
    for i, (spec, sums) in enumerate(zip(specs, all_sums)):
        for k in range(min(parts, len(sums))):
            owners.append(i)
            chunks.append((spec, sums[k::parts]))
    raw: List[List[Tuple[int, int, int]]] = [[] for _ in specs]
    for i, part in zip(owners, ordered_map(_search_chunk, chunks, parts)):
        raw[i].extend(part)
    return [_records_from_raw(spec, triples) for spec, triples in zip(specs, raw)]


def search_star(spec: SearchSpec) -> List[SolutionRecord]:
    """All solutions of a^p + L^alpha*b^p + c^p = 0 with entries in [-H, H].

    One record per orbit under the a<->c swap and the global sign flip,
    sorted by canonical form; deterministic for any pool size.
    """
    return _search_specs([spec])[0]


class SearchOutcome(NamedTuple):
    """How solution records, or progression base tuples, relate to the known results."""

    claim: str  # "established" | "empirical"
    expected: str  # "empty" | "trivial-only" | "none"
    counterexamples: Union[List[SolutionRecord], List[Tuple[int, ...]]]

    @property
    def conforms(self) -> bool:
        return not self.counterexamples


def classify_search_outcome(
    spec: SearchSpec, records: Sequence[SolutionRecord]
) -> SearchOutcome:
    """Label findings against the known results for (p, alpha, L).

    L = 2: reduced alpha 0 expects nothing (Fermat), 1 expects only the
    trivial family, >= 2 expects nothing; these are established results.
    Odd L in SIGMA_PRIMES with p >= 11, p != L expects nothing, but the
    claim label stays "empirical" for the whole odd-L family (an empty
    scan cannot distinguish a theorem from an accident of the height).
    Everything else is an empirical scan with no expected verdict.
    """
    alpha_red = spec.reduced_alpha
    if spec.L == 2:
        if alpha_red == 1:
            return SearchOutcome(
                claim="established",
                expected="trivial-only",
                counterexamples=[rec for rec in records if not rec.trivial],
            )
        return SearchOutcome(
            claim="established", expected="empty", counterexamples=list(records)
        )
    if spec.L in SIGMA_PRIMES and spec.p >= 11 and spec.p != spec.L:
        return SearchOutcome(
            claim="empirical", expected="empty", counterexamples=list(records)
        )
    return SearchOutcome(claim="empirical", expected="none", counterexamples=[])


class CaseResult(NamedTuple):
    spec: SearchSpec
    records: List[SolutionRecord]
    outcome: SearchOutcome

    @property
    def conforms(self) -> bool:
        return self.outcome.conforms


def verify_theorem_claims(
    p_list: Sequence[int],
    alpha_list: Sequence[int],
    height: int,
) -> List[CaseResult]:
    """Search every (p, alpha) with alpha < p over L = 2 and classify results.

    Every p must be an odd prime, also one that no alpha < p searches.
    The whole grid shares one ordered_map, so at most one pool starts.
    """
    require_range(height, "height", 1, "MAX_HEIGHT")
    for p in p_list:
        require_prime(p, "p", 3)
    specs = [
        SearchSpec(p=p, alpha=alpha, height=height)
        for p in p_list for alpha in alpha_list if alpha < p
    ]
    return [
        CaseResult(spec=spec, records=records, outcome=classify_search_outcome(spec, records))
        for spec, records in zip(specs, _search_specs(specs))
    ]


def search_ap_powers(
    n: int, k: int, height: int, distinct_only: bool = True
) -> List[Tuple[int, ...]]:
    """k-term arithmetic progressions x_1^n <= ... <= x_k^n of n-th powers.

    Bases are positive and at most ``height``; progressions are emitted
    as non-decreasing base tuples in lexicographic order.  With
    ``distinct_only`` the common difference must be non-zero (constant
    progressions are excluded).
    """
    require_range(n, "exponent n", 2)
    if k not in (3, 4):
        raise ValueError("only 3- and 4-term progressions are supported")
    require_range(height, "height", 1, "MAX_HEIGHT")
    if n > 2 and (work := _ap_sweep_work(n, height)) > MAX_AP_WORK:
        raise ValueError(
            "n = %d at height %d needs about %d units of work, above MAX_AP_WORK = %d"
            % (n, height, work, MAX_AP_WORK)
        )
    roots = {x**n: x for x in range(1, height + 1)} if n > 2 or k == 4 else {}
    results = _square_progressions(height) if n == 2 else _power_progressions(roots)
    if k == 4:
        # x4^n = 2 x3^n - x2^n extends each three-term progression, one lookup each.
        results = [
            (x1, x2, x3, x4) for x1, x2, x3 in results
            if (x4 := roots.get(2 * x3**n - x2**n)) is not None
        ]
    if not distinct_only:
        results += [(x,) * k for x in range(1, height + 1)]
    results.sort()
    _check_progressions(n, height, distinct_only, results)
    return results


def _ap_sweep_work(n: int, height: int) -> int:
    """Estimated cost of ``search_ap_powers`` for n >= 3, in units of 0.1 to 0.4 ns.

    With b = n * bit_length(H), the most bits of an n-th power of a base
    <= H, the sweep makes H(H - 1)/2 lookups of b + 400 units each and
    builds one table of H powers of b * isqrt(b) / 5 units each, as
    squaring by Karatsuba grows about as b^1.5.  A unit took 0.12-0.15
    ns in sweeps and tables from b = 3,600 to 300,000, 0.19-0.23 ns at
    n = 3 and 0.4 ns in the sweep at b = 1.6 million (2-core x86_64).
    """
    bits = n * height.bit_length()
    return height * (height - 1) // 2 * (bits + 400) + _table_work(n, height)


def _table_work(n: int, height: int) -> int:
    """The table term of ``_ap_sweep_work``: H n-th powers of bases <= H.

    ``SearchSpec`` bounds its table of p-th powers by it, under ``MAX_AP_WORK``.
    """
    bits = n * height.bit_length()
    return height * bits * math.isqrt(bits) // 5


def _square_progressions(height: int) -> List[Tuple[int, ...]]:
    """Non-constant three-term progressions of squares, from Pythagorean triples.

    x1^2 + x3^2 = 2 x2^2 with x1 < x3 holds exactly when u = (x3 - x1)/2
    and v = (x3 + x1)/2 satisfy u^2 + v^2 = x2^2, 0 < u < v.  Every such
    triple is d * (m^2 - n^2, 2mn, m^2 + n^2) up to the order of the legs,
    for coprime m > n > 0 of opposite parity; x3 = u + v <= H bounds all
    three.
    """
    results: List[Tuple[int, ...]] = []
    m = 2
    while m * m + 2 * m - 1 <= height:  # the leg sum at n = 1, the least for this m
        for n in range(m % 2 + 1, m, 2):
            leg_sum = m * m - n * n + 2 * m * n
            if leg_sum > height:
                break
            if math.gcd(m, n) != 1:
                continue
            u, v = sorted((m * m - n * n, 2 * m * n))
            w = m * m + n * n
            results.extend(
                (d * (v - u), d * w, d * (v + u)) for d in range(1, height // leg_sum + 1)
            )
        m += 1
    return results


def _power_progressions(roots: Dict[int, int]) -> List[Tuple[int, ...]]:
    """Non-constant three-term progressions of n-th powers, x3 looked up in a table.

    ``roots`` maps x**n to x for x = 1, ..., H, in that order.
    """
    doubled = [2 * x_pow for x_pow in roots]
    results: List[Tuple[int, ...]] = []
    for x1, x1_pow in enumerate(roots, 1):
        # x3^n = 2 x2^n - x1^n over every x2 > x1, one lookup each.
        candidates = map(operator.sub, doubled[x1:], repeat(x1_pow))
        for x3_pow in roots.keys() & candidates:
            results.append((x1, roots[(x3_pow + x1_pow) // 2], roots[x3_pow]))
    return results


def _check_progressions(
    n: int, height: int, distinct_only: bool, tuples: Sequence[Tuple[int, ...]]
) -> None:
    """Exact re-verification of every progression before it is emitted."""
    for bases in tuples:
        if not all(1 <= x <= height for x in bases) or list(bases) != sorted(bases):
            raise AssertionError("ap-search emitted bases out of range or order")
        diffs = {y**n - x**n for x, y in zip(bases, bases[1:])}
        if len(diffs) != 1 or (distinct_only and 0 in diffs):
            raise AssertionError("ap-search emitted a non-progression")


def classify_ap_outcome(
    n: int, k: int, distinct_only: bool, tuples: Sequence[Tuple[int, ...]]
) -> SearchOutcome:
    """Label progression findings against established non-existence results.

    Non-constant progressions are ruled out for four squares, three
    fourth powers, and three n-th powers for every n >= 3 (any n >= 3 is
    divisible by 4 or by an odd prime, reducing to a settled or
    conjectured three-power case; a hit is reportable either way).
    Three squares are expected to exist, so k = 3, n = 2 carries no claim.
    """
    none_expected = distinct_only and (k == 4 or n >= 3)
    if none_expected:
        return SearchOutcome(
            claim="established", expected="empty", counterexamples=list(tuples)
        )
    return SearchOutcome(claim="empirical", expected="none", counterexamples=[])
