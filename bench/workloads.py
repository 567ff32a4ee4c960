"""Seeded workloads: the freycheck command lines one pass of a run makes.

The seed only feeds the generator here; freycheck sees nothing but the
argv it produces.  Each call carries a check of its own output, written
against the benchmark's independent arithmetic in ``checks``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import checks

#: freycheck's default trial-division ceiling (``arith.DEFAULT_FACTOR_BOUND``).
FACTOR_BOUND = 10**6

#: Traces at ell up to this bound are recounted by enumerating every point.
RECOUNT_TO = 40


@dataclass(frozen=True)
class Call:
    args: Tuple[str, ...]
    check: Callable[[str], None]
    #: The model has a prime above the factor bound: exit 2 with the
    #: factor-bound message is an allowed, documented refusal.
    may_refuse: bool = False
    #: Work the call does, computed from its inputs, as (unit, amount):
    #: primes scanned, ells tabulated or candidate pairs examined.
    work: Tuple[str, int] = ("calls", 1)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: List[Call]
    #: Fewest calls a timed run makes, so the tail percentile has ten
    #: samples beyond it.
    min_calls: int = 1


@dataclass(frozen=True)
class FreyModel:
    """y^2 = x(x - A)(x + B) with A = -1 mod 4, B even, gcd(A, B) = 1."""

    A: int
    B: int
    abc_factors: Dict[int, int] = field(compare=False)

    @property
    def coefficients(self) -> checks.Model:
        return (0, self.B - self.A, 0, -self.A * self.B, 0)

    @property
    def arg(self) -> str:
        return ",".join(str(a) for a in self.coefficients)

    @property
    def disc_factors(self) -> Dict[int, int]:
        """disc = 16 (ABC)^2."""
        out = {ell: 2 * e for ell, e in self.abc_factors.items()}
        out[2] = out.get(2, 0) + 4
        return out


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo | 1, hi, 2)
        if checks.factor(n) == {n: 1}:
            return n


def frey_model(rng: random.Random, limit: int, top_prime: int = 0) -> FreyModel:
    """Rejection-sample A, B up to ``limit`` until every prime of ABC is
    below the factor bound.  With ``top_prime`` set, A is a multiple of it,
    so that prime is the largest of ABC (above the bound for a refusal)."""
    while True:
        if top_prime:
            m = rng.randrange(1, limit // top_prime)
            A = top_prime * m * rng.choice((1, -1))
        else:
            A = rng.randrange(-limit, limit)
        B = 2 * rng.randrange(1, limit // 2) * rng.choice((1, -1))
        C = -A - B
        if A % 4 != 3 or C == 0 or math.gcd(A, B) != 1:
            continue
        factors: Dict[int, int] = {}
        for n in (A, B, C):
            for ell, e in checks.factor(n).items():
                factors[ell] = factors.get(ell, 0) + e
        if all(ell < FACTOR_BOUND or ell == top_prime for ell in factors):
            return FreyModel(A, B, factors)


# ---------------------------------------------------------------------------
# one Call per freycheck command


def _denes_scan(n: int) -> Call:
    primes = len([p for p in checks.primes_to(n) if p >= 5])
    return Call(("denes", "--scan", str(n)), lambda out: checks.check_denes(out, n),
                work=("primes", primes))


def _traces(model: FreyModel, lmax: int, fmt: str) -> Call:
    def check(out: str) -> None:
        rows = checks.parse_traces(out, fmt)
        checks.check_trace_rows(rows, model.coefficients, lmax, RECOUNT_TO)

    return Call(("traces", "--model", model.arg, "--lmax", str(lmax), "--format", fmt), check,
                work=("ells", _odd_primes(lmax)))


def _congruence(m1: FreyModel, m2: FreyModel, p: int, lmax: int, fmt: str) -> Call:
    args = ("congruence", "--model1", m1.arg, "--model2", m2.arg, "--p", str(p),
            "--lmax", str(lmax), "--format", fmt)
    pair = (m1.coefficients, m2.coefficients)
    return Call(args, lambda out: checks.check_congruence(out, fmt, pair, p, lmax, RECOUNT_TO),
                work=("ells", 2 * _odd_primes(lmax)))


def _conductor(model: FreyModel, fmt: str, may_refuse: bool) -> Call:
    return Call(
        ("conductor", "--model", model.arg, "--format", fmt),
        lambda out: checks.check_conductor(out, fmt, model.coefficients, model.disc_factors),
        may_refuse,
    )


def _analyze(p: int, fmt: str) -> Call:
    args = ("analyze", "--p", str(p), "--alpha", "1", "--triple=-1,1,-1", "--format", fmt)
    return Call(args, lambda out: checks.check_analyze(out, fmt))


def _search(p: int, alpha: int, height: int) -> Call:
    args = ("search", "--p", str(p), "--alpha", str(alpha), "--height", str(height))
    return Call(args, lambda out: checks.check_search(out, p, alpha, height),
                work=("pairs", 2 * height * height))


def _ap_search(n: int, k: int, height: int) -> Call:
    args = ("ap-search", "--n", str(n), "--k", str(k), "--height", str(height))
    return Call(args, lambda out: checks.check_ap(out, n, k, height),
                work=("pairs", height * (height - 1) // 2))


def _odd_primes(lmax: int) -> int:
    return len(checks.primes_to(lmax)) - 1


# ---------------------------------------------------------------------------
# workloads

DENES_N = 1000
TRACE_LMAX, CONGRUENCE_LMAX = 5000, 2000
SEARCH_P5_HEIGHT, SEARCH_P13_HEIGHT, AP_HEIGHT = 500, 1000, 1000
BATCH_LMAX = 200
FORMATS = ("json", "csv", "human")


def kernels(seed: int) -> Workload:
    """The long calls, each bound by one kernel: the denes scan (its output
    depends only on N, so every seed runs the same scan), a trace table and
    a congruence on seeded Frey models, and three height-bounded searches.

    p = 13 with 2 <= alpha <= 6 keeps the cost of the seeded search flat:
    at alpha = 7 the p-th-power residue filter mod 53 passes about five
    times as many candidates, which would make the seed, not the code,
    set the wall time."""
    rng = random.Random(seed)
    model = frey_model(rng, 10**9)
    m1, m2 = frey_model(rng, 10**9), frey_model(rng, 10**9)
    calls = [
        _denes_scan(DENES_N),
        _traces(model, TRACE_LMAX, "csv"),
        _congruence(m1, m2, rng.choice((3, 5, 7)), CONGRUENCE_LMAX, "json"),
        _search(5, 1, SEARCH_P5_HEIGHT),
        _search(13, rng.randint(2, 6), SEARCH_P13_HEIGHT),
        _ap_search(2, 4, AP_HEIGHT),
    ]
    return Workload("kernels", calls)


def curve_batch(seed: int) -> Workload:
    """40 short calls with a fixed mix, so the percentiles of one seed are
    comparable with another's: 16 conductor (2 with a prime above the factor
    bound, 4 with one just below it), 8 traces, 8 congruence, 8 analyze."""
    rng = random.Random(seed)
    over = [frey_model(rng, 2 * 10**9, _random_prime(rng, FACTOR_BOUND, 3 * FACTOR_BOUND // 2))
            for _ in range(2)]
    near = [frey_model(rng, 2 * 10**9, _random_prime(rng, 9 * FACTOR_BOUND // 10, FACTOR_BOUND))
            for _ in range(4)]
    plain = [frey_model(rng, 10**9) for _ in range(10)]
    shapes = ([("conductor", m, m in over) for m in over + near + plain]
              + [("traces", m, False) for m in rng.sample(plain, 8)]
              + [("congruence", m, False) for m in rng.sample(plain, 8)]
              + [("analyze", None, False)] * 8)
    rng.shuffle(shapes)
    calls = []
    for i, (kind, model, refusable) in enumerate(shapes):
        fmt = FORMATS[i % 3]
        if kind == "conductor":
            calls.append(_conductor(model, fmt, refusable))
        elif kind == "traces":
            calls.append(_traces(model, BATCH_LMAX, fmt))
        elif kind == "congruence":
            other = rng.choice([m for m in plain if m != model])
            calls.append(_congruence(model, other, rng.choice((3, 5, 7)), BATCH_LMAX, fmt))
        else:
            calls.append(_analyze(rng.choice(checks.primes_to(100)[1:]), fmt))
    return Workload("curve-batch", calls, min_calls=100)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "kernels": kernels,
    "curve-batch": curve_batch,
}
