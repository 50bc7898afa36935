"""Exact arithmetic in Z3[theta]: ring identities, valuations, digits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicloop.eisenstein import (
    INFINITE,
    ONE,
    PI,
    THETA,
    ZERO,
    DigitVector,
    NonIntegralQuotient,
    NonUnitInverse,
    RingElt,
    div_exact,
    divide_by_pi,
    from_digits,
    invert,
    nu,
    to_digits,
)

coeffs = st.integers(min_value=-(10**6), max_value=10**6)
elements = st.builds(RingElt, coeffs, coeffs)
digit_lists = st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=24)


class TestRingIdentities:
    def test_theta_minimal_polynomial(self):
        assert (THETA**2 + THETA + ONE).is_zero()

    def test_theta_is_a_cube_root_of_unity(self):
        assert THETA**3 == ONE

    def test_pi_squared(self):
        assert PI * PI == -3 * THETA

    def test_three_is_a_unit_times_pi_squared(self):
        assert RingElt(3) == -(THETA**2) * PI**2

    @given(elements)
    def test_norm_is_product_with_conjugate(self, x):
        assert x * x.conj() == RingElt(x.norm())

    @given(elements, elements)
    def test_conjugation_is_multiplicative(self, x, y):
        assert (x * y).conj() == x.conj() * y.conj()

    @given(elements, elements, elements)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z


class TestValuation:
    def test_ramification(self):
        assert nu(RingElt(3)) == 2
        assert nu(PI) == 1
        assert nu(ZERO) == INFINITE

    @settings(max_examples=300)
    @given(elements, elements)
    def test_multiplicative(self, x, y):
        if not (x.is_zero() or y.is_zero()):
            assert nu(x * y) == nu(x) + nu(y)

    def test_multiplicative_bulk(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            x = RingElt(rng.randrange(-999, 1000), rng.randrange(-999, 1000))
            y = RingElt(rng.randrange(-999, 1000), rng.randrange(-999, 1000))
            if x.is_zero() or y.is_zero():
                continue
            assert nu(x * y) == nu(x) + nu(y)

    @given(elements, elements)
    def test_ultrametric(self, x, y):
        if not (x + y).is_zero():
            assert nu(x + y) >= min(nu(x), nu(y))


class TestDigits:
    def test_theta_digits(self):
        assert to_digits(THETA, 3) == (1, -1, 0)

    def test_two_digits(self):
        # cross-checked via the norm valuation: nu(2 - (-1 - pi^2)) >= 3
        assert nu(RingElt(2) - (-ONE - PI * PI)) >= 3
        assert to_digits(RingElt(2), 3) == (-1, 0, -1)

    def test_pi_squared_digits(self):
        assert to_digits(PI * PI, 3) == (0, 0, 1)

    @given(elements, st.integers(min_value=1, max_value=24))
    def test_round_trip(self, x, n):
        back = from_digits(to_digits(x, n))
        assert nu(x - back) >= n

    @given(digit_lists)
    def test_digits_are_canonical(self, digits):
        d = DigitVector(tuple(digits))
        assert to_digits(from_digits(d), len(digits)) == tuple(digits)

    def test_first_nonzero_digit_matches_norm_valuation(self):
        rng = random.Random(7)
        depth = 20
        for _ in range(500):
            x = RingElt(rng.randrange(-10**7, 10**7), rng.randrange(-10**7, 10**7))
            v = nu(x)
            if v >= depth:
                continue
            digits = to_digits(x, depth)
            first = next(i for i, d in enumerate(digits) if d != 0)
            assert first == v

    def test_divide_by_pi_rejects_units(self):
        with pytest.raises(NonIntegralQuotient):
            divide_by_pi(ONE)


class TestInversion:
    def test_theta_inverse_is_exact(self):
        assert invert(THETA, 6) == -ONE - THETA  # theta^2

    def test_one_plus_pi(self):
        y = invert(ONE + PI, 3)
        assert nu(y - (ONE - PI + PI * PI)) >= 3
        assert nu((ONE + PI) * y - ONE) >= 3

    def test_non_unit(self):
        with pytest.raises(NonUnitInverse):
            invert(PI, 5)

    @given(elements, st.integers(min_value=1, max_value=16))
    def test_contract(self, x, n):
        if x.is_zero() or nu(x) != 0:
            return
        y = invert(x, n)
        assert nu(x * y - ONE) >= n


class TestDivision:
    def test_three_over_pi(self):
        q = div_exact(RingElt(3), PI, 8)
        assert q == RingElt(2, 1)  # 2 + theta = -theta^2 * pi

    def test_valuation_shift(self):
        q = div_exact(PI**5 * RingElt(4, 1), PI**2, 10)
        assert nu(q) == 3

    def test_rejects_non_integral(self):
        with pytest.raises(NonIntegralQuotient):
            div_exact(ONE, PI, 5)

    def test_rejects_zero_divisor(self):
        with pytest.raises(NonIntegralQuotient):
            div_exact(ONE, ZERO, 5)

    @given(elements, elements, st.integers(min_value=2, max_value=12))
    def test_contract(self, x, y, n):
        if x.is_zero() or y.is_zero() or nu(x) < nu(y):
            return
        q = div_exact(x, y, n)
        assert nu(x - q * y) >= nu(y) + min(n, 1)


class TestEqualMod:
    def test_basic(self):
        assert nu(RingElt(2) - (-ONE - PI * PI)) >= 3
        assert nu(ONE - -ONE) < 1
