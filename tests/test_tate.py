"""Local reduction data: anchors, structural invariants, and the
independent (v(c4), v(discriminant)) table for residue characteristic >= 5.
"""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freycheck.arith import FactorizationError, primes_up_to, valuation
from freycheck.cli import jsonable
from freycheck.tate import (
    ADDITIVE,
    GOOD,
    MULT_NONSPLIT,
    MULT_SPLIT,
    LocalData,
    all_local_data,
    global_conductor,
    local_data,
    local_data_with_model,
)
from freycheck.weierstrass import WeierstrassModel

from oracles import change_of_variables, local_data_table_large_prime, short_model, two_isogenous

# Hand-checked anchors spanning every branch of the algorithm:
# (coefficients, prime, kodaira type, conductor exponent,
#  minimal-discriminant valuation, reduction class).
ANCHORS = [
    ([0, 0, 0, -1, 0], 2, "III", 5, 6, ADDITIVE),
    ([0, 3, 0, 2, 0], 2, "III", 5, 6, ADDITIVE),
    ([0, -1, 1, -10, -20], 11, "I5", 1, 5, MULT_SPLIT),
    ([0, 0, 1, -1, 0], 37, "I1", 1, 1, MULT_NONSPLIT),
    ([0, 0, 0, 0, 1], 2, "IV", 2, 4, ADDITIVE),
    ([0, 0, 0, 0, 1], 3, "III", 2, 3, ADDITIVE),
    ([0, 0, 0, 1, 0], 2, "II", 6, 6, ADDITIVE),
    ([0, -1, 0, -4, 4], 2, "I1*", 3, 8, ADDITIVE),
    ([0, -1, 0, -4, 4], 3, "I2", 1, 2, MULT_NONSPLIT),
    ([0, 0, 1, 0, -7], 3, "IV*", 3, 9, ADDITIVE),
    ([0, 33, 0, 32, 0], 2, "I2", 1, 2, MULT_SPLIT),
    ([0, 33, 0, 32, 0], 31, "I2", 1, 2, MULT_NONSPLIT),
    ([0, 0, 0, -1, 0], 5, "I0", 0, 0, GOOD),
    ([0, 0, 0, -25, 0], 5, "I0*", 2, 6, ADDITIVE),
    ([0, 0, 0, 0, 5], 5, "II", 2, 2, ADDITIVE),
    ([0, 0, 0, 5, 0], 5, "III", 2, 3, ADDITIVE),
    ([0, 0, 0, 0, 25], 5, "IV", 2, 4, ADDITIVE),
    ([0, 0, 0, 75, 125], 5, "I1*", 2, 7, ADDITIVE),
    ([0, 0, 0, 0, 625], 5, "IV*", 2, 8, ADDITIVE),
    ([0, 0, 0, 125, 0], 5, "III*", 2, 9, ADDITIVE),
    ([0, 0, 0, 0, 3125], 5, "II*", 2, 10, ADDITIVE),
    # Cremona's 14a1, a_2 = -1: the only nonsplit node at 2.
    ([1, 0, 1, 4, -6], 2, "I6", 1, 6, MULT_NONSPLIT),
]

CONDUCTOR_ANCHORS = [
    ([0, 0, 0, -1, 0], 32),
    ([0, 3, 0, 2, 0], 32),
    ([0, -1, 1, -10, -20], 11),
    ([0, 0, 1, -1, 0], 37),
    ([0, 0, 0, 0, 1], 36),
    ([0, 0, 0, 1, 0], 64),
    ([0, -1, 0, -4, 4], 24),
    ([0, 0, 1, 0, -7], 27),
    ([0, 33, 0, 32, 0], 62),  # frozen regression value, first computed here
    ([0, 0, 0, -16, 0], 32),  # non-minimal model of the conductor-32 curve
    ([0, 0, 0, -25, 0], 800),
]


@pytest.mark.parametrize("coeffs,prime,ktype,f,v,reduction", ANCHORS)
def test_local_anchor(coeffs, prime, ktype, f, v, reduction):
    data = local_data(WeierstrassModel(*coeffs), prime)
    assert data.kodaira_type == ktype
    assert data.conductor_exponent == f
    assert data.min_disc_valuation == v
    assert data.reduction == reduction


@pytest.mark.parametrize("coeffs,conductor", CONDUCTOR_ANCHORS)
def test_global_conductor_anchor(coeffs, conductor):
    assert global_conductor(all_local_data(WeierstrassModel(*coeffs))) == conductor


class TestStructuralInvariants:
    def collect(self):
        for coeffs, *_ in ANCHORS:
            model = WeierstrassModel(*coeffs)
            for prime in (2, 3, 5, 7, 11, 31, 37):
                yield local_data(model, prime)

    def test_good_iff_f0_iff_v0(self):
        for data in self.collect():
            assert (data.reduction == GOOD) == (data.conductor_exponent == 0)
            assert (data.reduction == GOOD) == (data.min_disc_valuation == 0)
            assert (data.reduction == GOOD) == (data.kodaira_type == "I0")

    def test_multiplicative_shape(self):
        for data in self.collect():
            if data.reduction in (MULT_SPLIT, MULT_NONSPLIT):
                assert data.conductor_exponent == 1
                assert data.min_disc_valuation >= 1
                assert data.kodaira_type == "I%d" % data.min_disc_valuation

    def test_conductor_exponent_bounds(self):
        for data in self.collect():
            if data.prime >= 5:
                assert data.conductor_exponent <= 2
            elif data.prime == 3:
                assert data.conductor_exponent <= 5
            else:
                assert data.conductor_exponent <= 8

    def test_additive_means_f_at_least_2(self):
        for data in self.collect():
            if data.reduction == ADDITIVE:
                assert data.conductor_exponent >= 2

    def test_roundtrip(self):
        for data in self.collect():
            assert LocalData(**json.loads(json.dumps(jsonable(data)))) == data


class TestMinimization:
    def test_rescaled_model_recovers_minimal_data(self):
        small = WeierstrassModel(0, 0, 0, -1, 0)
        blown = WeierstrassModel(0, 0, 0, -16, 0)  # scaled by u = 2
        a = local_data(small, 2)
        b = local_data(blown, 2)
        assert b.scalings == 1 and a.scalings == 0
        assert (a.kodaira_type, a.conductor_exponent, a.min_disc_valuation) == (
            b.kodaira_type,
            b.conductor_exponent,
            b.min_disc_valuation,
        )

    def test_double_rescale(self):
        base = WeierstrassModel(0, -1, 0, -4, 4)
        blown = WeierstrassModel(0, -4, 0, -64, 256)  # scaled by u = 2
        a = local_data(base, 2)
        b = local_data(blown, 2)
        assert b.scalings == a.scalings + 1
        assert b.min_disc_valuation == a.min_disc_valuation

    def test_minimal_model_is_returned_and_consistent(self):
        data, minimal = local_data_with_model(WeierstrassModel(0, 0, 0, -16, 0), 2)
        assert valuation(minimal.discriminant(), 2) == data.min_disc_valuation
        redata, _ = local_data_with_model(minimal, 2)
        assert redata.scalings == 0
        assert redata.kodaira_type == data.kodaira_type

    def test_minimal_disc_valuation_at_2_frey_anchors(self):
        # ord_2(B) = 1 (trivial solution): valuation 6, so u = 6 - 2 = 4.
        assert local_data(WeierstrassModel(0, 3, 0, 2, 0), 2).min_disc_valuation == 6
        # ord_2(B) = 5: valuation 2, so u = 2 - 10 = -8.
        assert local_data(WeierstrassModel(0, 33, 0, 32, 0), 2).min_disc_valuation == 2
        # ord_2(B) = 4 (A = -1, B = 16, C = -15): good reduction at 2.
        assert local_data(WeierstrassModel(0, 17, 0, 16, 0), 2).min_disc_valuation == 0


def _nonsingular_models(draw_ints):
    return (
        st.tuples(draw_ints, draw_ints, draw_ints, draw_ints, draw_ints)
        .map(lambda c: WeierstrassModel(*c))
        .filter(lambda m: m.discriminant() != 0)
    )


class TestTranslationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        model=_nonsingular_models(st.integers(min_value=-6, max_value=6)),
        r=st.integers(min_value=-3, max_value=3),
        s=st.integers(min_value=-3, max_value=3),
        t=st.integers(min_value=-3, max_value=3),
        prime=st.sampled_from([2, 3, 5]),
    )
    def test_local_data_unchanged(self, model, r, s, t, prime):
        moved = model.translated(r=r, s=s, t=t)
        a = local_data(model, prime)
        b = local_data(moved, prime)
        assert (a.kodaira_type, a.conductor_exponent, a.min_disc_valuation, a.reduction) == (
            b.kodaira_type,
            b.conductor_exponent,
            b.min_disc_valuation,
            b.reduction,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        model=_nonsingular_models(st.integers(min_value=-5, max_value=5)),
        r=st.integers(min_value=-4, max_value=4),
        s=st.integers(min_value=-4, max_value=4),
        t=st.integers(min_value=-4, max_value=4),
    )
    def test_conductor_unchanged(self, model, r, s, t):
        translated = model.translated(r, s, t)
        assert global_conductor(all_local_data(model)) == global_conductor(
            all_local_data(translated)
        )


class TestLargePrimeTable:
    """The step-by-step algorithm against the closed-form valuation table."""

    def models(self):
        out = []
        for ell in (5, 7):
            for e4 in range(0, 5):
                for e6 in range(0, 8):
                    for m4, m6 in ((1, 1), (1, 2), (2, 1), (3, 2), (0, 1), (1, 0)):
                        a4 = m4 * ell**e4
                        a6 = m6 * ell**e6
                        model = WeierstrassModel(0, 0, 0, a4, a6)
                        if model.discriminant() != 0:
                            out.append((model, ell))
        # A few long-form models, translated so reduction is non-obvious.
        for coeffs in ([1, -1, 1, -3, 3], [0, -1, 1, -10, -20], [1, 0, 0, -45, 81]):
            for ell in (5, 7, 11, 13):
                out.append((WeierstrassModel(*coeffs).translated(r=ell, t=ell), ell))
        return out

    def test_agreement(self):
        checked = 0
        seen_types = set()
        for model, ell in self.models():
            expected = local_data_table_large_prime(tuple(model), ell)
            data = local_data(model, ell)
            got = (data.kodaira_type, data.conductor_exponent, data.min_disc_valuation)
            assert got == expected, (model, ell, got, expected)
            seen_types.add(data.kodaira_type)
            checked += 1
        assert checked >= 300
        # The grid genuinely exercises the table:
        assert {"I0", "II", "III", "IV", "I0*", "IV*", "III*", "II*"} <= seen_types
        assert any(k.startswith("I") and k.endswith("*") and k not in ("I0*",)
                   for k in seen_types)

    @settings(max_examples=80, deadline=None)
    @given(
        model=_nonsingular_models(st.integers(min_value=-20, max_value=20)),
        ell=st.sampled_from([5, 7, 11, 13, 17]),
    )
    def test_agreement_on_random_models(self, model, ell):
        expected = local_data_table_large_prime(tuple(model), ell)
        data = local_data(model, ell)
        assert (
            data.kodaira_type,
            data.conductor_exponent,
            data.min_disc_valuation,
        ) == expected


def _reduction_data(data):
    return data.conductor_exponent, data.min_disc_valuation, data.kodaira_type, data.reduction


def _models_at_2_and_3(seed, count):
    """``count`` nonsingular models whose a_i are m * ell^k, ell = 2 or 3.

    Exponents up to i + 1 make every Kodaira type occur at both primes.
    """
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        ell = rng.choice((2, 3))
        coeffs = tuple(
            rng.choice((0, 1, -1, 2, -3, 5)) * ell ** rng.randrange(weight + 2)
            for weight in (1, 2, 3, 4, 6)
        )
        if WeierstrassModel(*coeffs).discriminant() != 0:
            models.append(coeffs)
    return models


class TestSecondRouteAt2And3:
    """At 2 and 3 no closed-form table gives the local data, so Tate's
    algorithm is checked against itself on other models of the same
    curve, built by the standard formulas of ``oracles``, on unramified
    quadratic twists, and against a 2-isogenous curve, which has the same
    conductor."""

    def test_other_models_of_the_same_curve(self):
        rng = random.Random(1)

        def shift():
            return [rng.randrange(-6, 7) for _ in "rst"]

        seen = {2: set(), 3: set()}
        for coeffs in _models_at_2_and_3(0, 900):
            integral = [change_of_variables(coeffs, 1, *shift()) for _ in range(2)]
            scaled = {k: change_of_variables(coeffs, Fraction(1, k), *shift()) for k in (2, 3, 6)}
            for ell in (2, 3):
                data = local_data(WeierstrassModel(*coeffs), ell)
                assert data.conductor_exponent <= (8 if ell == 2 else 5), (coeffs, data)
                seen[ell].add(re.sub(r"^I[1-9]\d*", "In", data.kodaira_type))
                for other in integral + list(scaled.values()) + [short_model(coeffs)]:
                    moved = local_data(WeierstrassModel(*other), ell)
                    assert _reduction_data(moved) == _reduction_data(data), (coeffs, other, ell)
                for k, other in scaled.items():
                    if k % ell == 0:
                        assert local_data(WeierstrassModel(*other), ell).scalings > data.scalings
        families = {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}
        assert seen == {2: families, 3: families}

    def test_unramified_quadratic_twists(self):
        # 2 is inert in Q(sqrt 5) and Q(sqrt -3), and 3 in Q(i) and
        # Q(sqrt 2): at ell the twist by d becomes the same curve over the
        # unramified quadratic extension, so f, the minimal v(Delta) and the
        # Kodaira type stay, good and additive reduction stay, and the
        # twist swaps split and nonsplit nodes, whose tangents are conjugate
        # over F_ell^2.
        swapped = {
            GOOD: GOOD, ADDITIVE: ADDITIVE, MULT_SPLIT: MULT_NONSPLIT, MULT_NONSPLIT: MULT_SPLIT
        }
        seen = set()
        for coeffs in _models_at_2_and_3(0, 900):
            for ell, twists in ((2, (5, -3)), (3, (-1, 2))):
                data = local_data(WeierstrassModel(*coeffs), ell)
                expected = _reduction_data(data._replace(reduction=swapped[data.reduction]))
                for d in twists:
                    twist = local_data(WeierstrassModel(*short_model(coeffs, d)), ell)
                    assert _reduction_data(twist) == expected, (coeffs, d, ell)
                seen.add((ell, data.reduction))
        assert seen == {(ell, kind) for ell in (2, 3) for kind in swapped}

    def test_two_isogenous_curves_share_the_conductor(self):
        def exponents(coeffs):
            return {
                data.prime: data.conductor_exponent
                for data in all_local_data(WeierstrassModel(*coeffs))
                if data.conductor_exponent
            }

        rng = random.Random(2)
        pairs = 0
        while pairs < 400:
            a2 = rng.choice((0, 1, -1, 3, -5)) * rng.choice((1, 2, 3, 4, 8, 9, 16, 27))
            a4 = rng.choice((1, -1, 2, -3, 5, 7)) * rng.choice((1, 2, 3, 4, 8, 9, 16, 32, 81))
            if WeierstrassModel(0, a2, 0, a4, 0).discriminant() == 0:
                continue
            pairs += 1
            assert exponents((0, a2, 0, a4, 0)) == exponents(two_isogenous(a2, a4)), (a2, a4)


def _points_mod(coeffs, ell):
    """Points of the model's reduction mod ell over F_ell, singular ones and
    the point at infinity included, by trying every (x, y)."""
    a1, a2, a3, a4, a6 = coeffs
    return 1 + sum(
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % ell == 0
        for x in range(ell)
        for y in range(ell)
    )


def test_split_and_nonsplit_by_counting_points():
    # A nodal cubic over F_ell has ell - 1 nonsingular points when the
    # node's tangents are rational (split) and ell + 1 when they are not,
    # plus the node: ell points against ell + 2.
    rng = random.Random(3)
    seen = set()
    for _ in range(1500):
        model = WeierstrassModel(*(rng.randrange(-20, 21) for _ in range(5)))
        if model.discriminant() == 0:
            continue
        for ell in (2, 3, 5, 7):
            data, minimal = local_data_with_model(model, ell)
            if data.reduction in (MULT_SPLIT, MULT_NONSPLIT):
                split = data.reduction == MULT_SPLIT
                assert _points_mod(minimal, ell) == (ell if split else ell + 2), (model, ell)
                seen.add((ell, data.reduction))
    assert seen == {(ell, kind) for ell in (2, 3, 5, 7) for kind in (MULT_SPLIT, MULT_NONSPLIT)}


def _seeded_runs(count=6000, seed=1):
    """(p, coefficients, local data, returned model) of Tate's algorithm on
    seeded models with every a_i = k*p^j, k in -9..9 and j in 0..6, each run
    at its own prime p, which is 3 twice as often as 2, 5, 7, 11 or 13."""
    rng = random.Random(seed)
    runs = []
    while len(runs) < count:
        p = rng.choice((2, 3, 3, 5, 7, 11, 13))
        model = WeierstrassModel(*(rng.randint(-9, 9) * p ** rng.randint(0, 6) for _ in range(5)))
        if model.discriminant():
            data, minimal = local_data_with_model(model, p)
            runs.append((p, tuple(model), tuple(data), tuple(minimal)))
    return runs


class TestPinnedOutput:
    """Tate's algorithm returns the integers it returned when SHA256 was
    taken, on models that reach every Kodaira type at 2, at 3 and above."""

    SHA256 = "2d773f6933cf19f10bac6ea181c9e86426955b057ed67b9fa1e04d69e493b7b1"

    @pytest.fixture(scope="class")
    def runs(self):
        return _seeded_runs()

    def test_digest(self, runs):
        assert hashlib.sha256(repr(runs).encode()).hexdigest() == self.SHA256

    def test_every_kodaira_type_at_2_3_and_above(self, runs):
        families = {"I0", "In", "I0*", "In*", "II", "III", "IV", "IV*", "III*", "II*"}
        seen = {2: set(), 3: set(), 5: set()}
        for p, _, data, _ in runs:
            seen[min(p, 5)].add(re.sub(r"[1-9][0-9]*", "n", LocalData(*data).kodaira_type))
        assert seen == {2: families, 3: families, 5: families}

    def test_translating_the_input_changes_no_local_data(self, runs):
        # A wrong closed form still finds the root 0 when the singular point
        # already lies at x = 0 (mod p), as nearly every seeded cusp does.
        rng = random.Random(2)
        for p, coeffs, data, _ in runs:
            r, s, t = (rng.randrange(-p * p, p * p + 1) for _ in range(3))
            moved = WeierstrassModel(*coeffs).translated(r=r, s=s, t=t)
            assert tuple(local_data(moved, p)) == data, (coeffs, p, r, s, t)

    def test_a_node_is_moved_to_the_origin(self, runs):
        # a3, a4 and a6 are the partial derivatives and the value of the
        # equation at (0, 0), so all three vanish at the singular point.
        nodes = [run for run in runs if LocalData(*run[2]).reduction in (MULT_SPLIT, MULT_NONSPLIT)]
        assert {p for p, *_ in nodes} == {2, 3, 5, 7, 11, 13}
        for p, coeffs, _, (_, _, a3, a4, a6) in nodes:
            assert a3 % p == a4 % p == a6 % p == 0, (coeffs, p)


class TestSemistableFreyModels:
    def test_conductor_exponent_at_most_1_when_16_divides_B(self):
        # Frey-shaped triples with ord_2(B) >= 4 are semistable everywhere.
        cases = [(-1, 16), (-1, 32), (-9, 16 * 5), (-25, 32 * 3), (-1, 48), (3, 16 * 7)]
        for A, B in cases:
            C = -A - B
            model = WeierstrassModel(0, B - A, 0, -A * B, 0)
            for data in all_local_data(model):
                assert data.conductor_exponent <= 1, (A, B, data)


class TestErrorPaths:
    def test_singular_model_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            local_data(WeierstrassModel(0, 0, 0, 0, 0), 2)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            local_data(WeierstrassModel(0, 0, 0, -1, 0), 6)

    def test_factor_bound_exceeded_is_loud(self):
        # discriminant = -432 * (10^9 + 7)^2: composite cofactor beyond bound.
        model = WeierstrassModel(0, 0, 0, 0, 10**9 + 7)
        with pytest.raises(FactorizationError, match="factorization bound exceeded"):
            all_local_data(model, factor_bound=10**4)

    def test_global_conductor_multiplies_over_primes(self):
        for coeffs, conductor in CONDUCTOR_ANCHORS:
            local = all_local_data(WeierstrassModel(*coeffs))
            product = 1
            for data in local:
                product *= data.prime**data.conductor_exponent
            assert global_conductor(local) == product == conductor


def test_all_local_data_sorted_and_complete():
    model = WeierstrassModel(0, 0, 0, 0, 3125)  # conductor 2700 = 2^2 3^3 5^2
    data = all_local_data(model)
    assert [d.prime for d in data] == [2, 3, 5]
    assert global_conductor(data) == 2700
    disc_primes = {2, 3, 5}
    assert {d.prime for d in data} == disc_primes
    for d in data:
        assert valuation(model.discriminant(), d.prime) >= d.min_disc_valuation
