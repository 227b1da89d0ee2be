import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.errors import DomainError, OrderError, RangeError
from padicprob.padic import falling_binomial
from padicprob.series import (
    FormalSeries,
    constant,
    cosh_scaled_sq,
    cosh_series,
    exp_scaled,
    exp_series,
    identity,
    log1p_series,
    one,
    sinh_series,
)


def test_exp_coefficients():
    e = exp_series(6)
    assert e.coeffs == tuple(Fraction(1, math.factorial(k)) for k in range(7))


def test_order_mismatch_raises():
    with pytest.raises(OrderError):
        exp_series(4) + exp_series(5)
    with pytest.raises(OrderError):
        exp_series(4) * one(6)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        FormalSeries([])


def test_mul_truncates():
    z = identity(4)
    assert (z * z).coeffs == (0, 0, 1, 0, 0)
    assert ((z * z) * (z * z)).coeffs == (0, 0, 0, 0, 1)


def test_cosh_sinh_decompose_exp():
    d = 8
    assert cosh_series(d) + sinh_series(d) == exp_series(d)
    # parity
    assert all(c == 0 for k, c in enumerate(cosh_series(d).coeffs) if k % 2 == 1)
    assert all(c == 0 for k, c in enumerate(sinh_series(d).coeffs) if k % 2 == 0)


def test_cosh_sq_identity():
    d = 10
    c, s = cosh_series(d), sinh_series(d)
    assert c * c - s * s == one(d)


def test_compose_exp_log_is_identity():
    d = 9
    lhs = (exp_series(d) - one(d)).compose(log1p_series(d))
    assert lhs == identity(d)
    rhs = log1p_series(d).compose(exp_series(d) - one(d))
    assert rhs == identity(d)


def test_compose_needs_zero_constant():
    with pytest.raises(DomainError):
        exp_series(4).compose(one(4))


def test_integer_power_matches_repeated_mul():
    b = one(6) + identity(6)
    assert b.integer_power(3) == b * b * b
    assert b.integer_power(0) == one(6)
    with pytest.raises(ValueError):
        b.integer_power(-1)


def test_exp_scaled_is_substitution():
    d = 7
    assert exp_scaled(Fraction(3), d).coeffs == tuple(
        Fraction(3**k, math.factorial(k)) for k in range(d + 1)
    )


def test_padic_power_integer_agrees():
    b = one(6) + identity(6)
    assert b.padic_power(4) == b.integer_power(4)


def test_padic_power_inverse():
    b = one(8) + identity(8)
    inv = b.padic_power(-1)
    assert inv * b == one(8)
    # alternating geometric series
    assert inv.coeffs == tuple(Fraction((-1) ** k) for k in range(9))


def test_padic_power_half_squares_back():
    b = one(8) + identity(8)
    h = b.padic_power(Fraction(1, 2))
    assert h * h == b


def binomial_series_power(base, a):
    """sum_m C(a, m) (B - 1)**m, the O(order**3) brute-force route."""
    d = base.order
    u = base - one(d)
    out = upow = one(d)
    for m in range(1, d + 1):
        upow = upow * u
        out = out + upow.scale(falling_binomial(Fraction(a), m))
    return out


EXPONENTS = st.one_of(
    st.integers(-6, 20),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(9, 2), Fraction(-25, 3)]),
    st.fractions(-12, 12, max_denominator=30),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 14).flatmap(
        lambda d: st.lists(st.fractions(-6, 6, max_denominator=8), min_size=d, max_size=d)
    ),
    EXPONENTS,
)
def test_padic_power_matches_binomial_series(tail, a):
    base = FormalSeries([1, *tail])
    power = base.padic_power(a)
    assert power == binomial_series_power(base, a)
    a = Fraction(a)
    if a.denominator == 1 and a >= 0:
        assert power == base.integer_power(int(a))


def test_padic_power_needs_unit_constant():
    with pytest.raises(DomainError):
        identity(4).padic_power(Fraction(1, 2))


def test_scale_and_neg():
    z = identity(3)
    assert z.scale(5).coeffs == (0, 5, 0, 0)
    assert (-z).coeffs == (0, -1, 0, 0)
    assert (z - z) == constant(0, 3)


def test_coefficient_bounds():
    with pytest.raises(IndexError):
        one(3).coefficient(4)


def test_cosh_scaled_sq_even_expansion():
    # coefficient of z^(2k) is 1 / (n^k (2k)!)
    s = cosh_scaled_sq(4, 8)
    for k in range(5):
        assert s.coefficient(2 * k) == Fraction(1, 4**k * math.factorial(2 * k))
    assert all(s.coefficient(j) == 0 for j in range(9) if j % 2 == 1)


def test_cosh_scaled_sq_at_one_is_cosh():
    assert cosh_scaled_sq(1, 10) == cosh_series(10)


def test_cosh_scaled_sq_rejects_zero():
    with pytest.raises(DomainError):
        cosh_scaled_sq(0, 4)


def _exp_scaled_loop(c, order):
    # the former exp_scaled coefficient loop
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / k)
    return coeffs


def _cosh_scaled_sq_loop(n, order):
    # the former cosh_scaled_sq coefficient loop
    coeffs = [Fraction(0)] * (order + 1)
    c = Fraction(1)
    k = 0
    while 2 * k <= order:
        coeffs[2 * k] = c
        k += 1
        c = c / (n * (2 * k - 1) * (2 * k))
    return coeffs


RATIOS = st.fractions(-30, 30, max_denominator=11)


@given(RATIOS, st.integers(-3, 30))
def test_exp_scaled_matches_loop(c, order):
    if order < 0:
        with pytest.raises(RangeError, match="truncation order must be a natural"):
            exp_scaled(c, order)
        return
    assert exp_scaled(c, order).coeffs == tuple(_exp_scaled_loop(c, order))


NEGATIVE_ORDER_BUILDS = {
    "one": one,
    "constant": lambda order: constant(2, order),
    "exp_series": exp_series,
    "exp_scaled": lambda order: exp_scaled(1, order),
    "cosh_series": cosh_series,
    "sinh_series": sinh_series,
    "log1p_series": log1p_series,
    "cosh_scaled_sq": lambda order: cosh_scaled_sq(1, order),
}


@pytest.mark.parametrize("build", NEGATIVE_ORDER_BUILDS.values(), ids=NEGATIVE_ORDER_BUILDS.keys())
@pytest.mark.parametrize("order", [-1, -3])
def test_negative_order_refused(build, order):
    with pytest.raises(RangeError, match="truncation order must be a natural"):
        build(order)


@given(RATIOS.filter(bool), st.integers(0, 30))
def test_cosh_scaled_sq_matches_loop(n, order):
    assert cosh_scaled_sq(n, order).coeffs == tuple(_cosh_scaled_sq_loop(n, order))
