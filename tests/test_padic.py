import math
from fractions import Fraction

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.errors import DomainError, PrecisionExhausted, RangeError
from padicprob.padic import (
    DEFAULT_PRECISION,
    Ball,
    PadicAbs,
    PadicApprox,
    Prime,
    Sphere,
    abs_p,
    as_fraction,
    binomial_terms,
    digit_count,
    dist_p,
    factorial_vp,
    falling_binomial,
    from_digits,
    in_ball,
    in_sphere,
    ratio_terms,
    series_eval,
    to_approx,
    to_digits,
    vp,
)
from padicprob.padic import _DIGITS_CUTOFF, _exp_stop

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
RATIONALS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


class TestPrime:
    def test_accepts_primes(self):
        for n in (2, 3, 5, 7, 97, 2**61 - 1):
            assert Prime(n) == n

    def test_rejects_composites_and_small(self):
        for n in (0, 1, 4, 9, 561, 2**61 - 2):
            with pytest.raises(ValueError):
                Prime(n)

    def test_rejects_beyond_limit(self):
        with pytest.raises(ValueError):
            Prime(2**64 + 13)

    def test_idempotent(self):
        p = Prime(7)
        assert Prime(p) is p

    def test_is_an_int(self):
        assert isinstance(Prime(5), int)
        assert Prime(5) + 1 == 6

    # int() would truncate a float, parse a string and read a bool as 1
    @pytest.mark.parametrize("value", [3.9, 7.0, "7", True, Fraction(7), None])
    def test_non_integers_refused(self, value):
        with pytest.raises(RangeError, match="prime must be an int"):
            Prime(value)

    def test_vp_refuses_a_non_integer_prime(self):
        with pytest.raises(RangeError):
            vp(12, 3.9)


class TestValuation:
    def test_spot_values(self):
        assert vp(12, 3) == 1
        assert vp(Fraction(5, 16), 2) == -4
        assert vp(0, 5) == math.inf
        assert vp(Fraction(-27, 7), 3) == 3

    def test_as_fraction_rejects_floats(self):
        with pytest.raises(RangeError):
            as_fraction(0.5)

    @pytest.mark.parametrize("x", [True, False, None, [1], (1, 2), 1j])
    def test_as_fraction_rejects_other_types(self, x):
        with pytest.raises(RangeError, match="expected int, Fraction or rational string"):
            as_fraction(x)

    def test_as_fraction_parses_strings(self):
        assert as_fraction("5/16") == Fraction(5, 16)
        assert as_fraction("-3") == -3
        assert as_fraction("1.5") == Fraction(3, 2)

    @pytest.mark.parametrize("text", ["1e3", "1E-3", "1.5e2", ".5e1", "1.e5"])
    def test_as_fraction_refuses_exponent_notation(self, text):
        # Fraction itself would expand the power of ten, however large
        with pytest.raises(RangeError, match="exponent notation"):
            as_fraction(text)

    @pytest.mark.parametrize("text", ["twelve", "1/0", "", "inf"])
    def test_as_fraction_unreadable_string_keeps_fractions_message(self, text):
        try:
            Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            expected = str(exc)
        with pytest.raises(RangeError) as caught:
            as_fraction(text)
        assert str(caught.value) == expected

    @given(RATIONALS, RATIONALS, PRIMES)
    def test_multiplicative(self, x, y, p):
        if x == 0 or y == 0:
            return
        assert vp(x * y, p) == vp(x, p) + vp(y, p)

    @given(RATIONALS, RATIONALS, PRIMES)
    def test_additive_lower_bound(self, x, y, p):
        s = x + y
        if s == 0:
            return
        assert vp(s, p) >= min(vp(x, p), vp(y, p))


class TestPadicAbs:
    def test_values(self):
        assert abs_p(12, 3).as_fraction() == Fraction(1, 3)
        assert abs_p(Fraction(5, 16), 2).as_fraction() == 16
        assert abs_p(0, 7).as_fraction() == 0
        assert abs_p(Fraction(1, 2), 3).as_fraction() == 1

    def test_ordering_and_product(self):
        a = abs_p(3, 3)
        b = abs_p(9, 3)
        assert b < a < PadicAbs.one(3)
        assert (a * b).exponent == -3
        assert PadicAbs.zero(3).is_zero

    def test_mismatched_primes_rejected(self):
        with pytest.raises(ValueError):
            abs_p(3, 3) < abs_p(3, 5)
        a, b = abs_p(3, 3), abs_p(3, 5)
        for compare in (a.__lt__, a.__le__, a.__gt__, a.__ge__):
            with pytest.raises(RangeError):
                compare(b)
            with pytest.raises(TypeError):
                compare(Fraction(1, 3))

    def test_exponent_is_an_int_or_minus_inf(self):
        # test_errors reads the exponent's other refusals
        assert PadicAbs(3, -math.inf).is_zero
        with pytest.raises(RangeError, match="^exponent must be an int, got float"):
            PadicAbs(3, math.inf)

    @given(PRIMES, st.integers(-5, 5) | st.just(-math.inf), st.integers(-5, 5) | st.just(-math.inf))
    def test_comparisons_follow_exponents(self, p, e, f):
        a, b = PadicAbs(p, e), PadicAbs(p, f)
        assert (a < b, a <= b, a > b, a >= b) == (e < f, e <= f, e > f, e >= f)

    @given(RATIONALS, RATIONALS, PRIMES)
    def test_ultrametric(self, x, y, p):
        lhs = dist_p(x, y, p)
        bound = max(dist_p(x, 0, p), dist_p(0, y, p))
        assert lhs <= bound


class TestBallsAndSpheres:
    def test_ball_membership(self):
        b = Ball(3, 0, 1)
        assert in_ball(3, b) and in_ball(0, b) and in_ball(Fraction(3, 4), b)
        assert not in_ball(1, b) and not in_ball(Fraction(1, 3), b)

    def test_negative_radius_exponent(self):
        big = Ball(3, 0, -2)
        assert in_ball(Fraction(1, 9), big)
        assert not in_ball(Fraction(1, 27), big)

    def test_sphere_membership(self):
        s = Sphere(3, 1, 2)
        assert in_sphere(10, s)  # v3(9) = 2
        assert not in_sphere(28, s)  # v3(27) = 3
        assert not in_sphere(1, s)  # exact center: v = inf

    @pytest.mark.parametrize("cls", [Ball, Sphere])
    @pytest.mark.parametrize("radius", [1.7, 2.0, "2", True])
    def test_non_integer_radius_refused(self, cls, radius):
        with pytest.raises(RangeError, match="radius exponent must be an int"):
            cls(3, 0, radius)

    @pytest.mark.parametrize("cls", [Ball, Sphere])
    def test_compares_by_value(self, cls):
        assert cls(3, 0, 1) == cls(3, Fraction(0), 1)
        assert len({cls(3, 0, 1), cls(3, 0, 1)}) == 1
        assert cls(3, 0, 1) != cls(3, 0, 2) and cls(3, 0, 1) != cls(5, 0, 1)
        other = Sphere if cls is Ball else Ball
        assert cls(3, 0, 1) != other(3, 0, 1)

    def test_sphere_is_ball_difference(self):
        p, c, l = 5, 2, 1
        for x in range(-30, 30):
            member = in_sphere(x, Sphere(p, c, l))
            alt = in_ball(x, Ball(p, c, l)) and not in_ball(x, Ball(p, c, l + 1))
            assert member == alt


class TestPadicApprox:
    def test_digit_expansion(self):
        x = to_approx(Fraction(1, 2), 3, 4)
        assert x.valuation == 0
        assert x.digits == (2, 1, 1, 1)
        assert str(x) == "3^0 * (2,1,1,1) base 3 prec 4"

    def test_valuation_factored_out(self):
        assert to_approx(9, 3, 3).valuation == 2
        assert to_approx(Fraction(1, 9), 3, 3).valuation == -2

    def test_exact_zero(self):
        z = PadicApprox.zero(3)
        assert z.exact_zero and z.abs_precision == math.inf
        assert z.abs_p().is_zero
        assert str(z) == "0 base 3 (exact)"

    @given(RATIONALS.filter(bool), PRIMES, st.integers(1, 12))
    def test_from_rational_matches_unit_digit_route(self, x, p, digits):
        # the former direct construction: v_p, then the unit's digits mod p**digits
        v = vp(x, p)
        unit = x / Fraction(p) ** v
        mod = p**digits
        u = unit.numerator % mod * pow(unit.denominator, -1, mod) % mod
        a = PadicApprox.from_rational(x, p, digits)
        assert (a.valuation, a.digits, a.exact_zero) == (v, to_digits(u, p, digits), False)

    def test_congruent_to(self):
        x = to_approx(Fraction(1, 2), 3, 4)
        assert x.congruent_to(Fraction(1, 2))
        assert x.congruent_to(Fraction(1, 2) + 81)
        assert not x.congruent_to(Fraction(1, 2) + 27)

    def test_rational_rep_is_congruent(self):
        x = to_approx(Fraction(22, 7), 5, 6)
        assert vp(x.rational_rep() - Fraction(22, 7), 5) >= x.abs_precision

    def test_add_precision_is_min(self):
        a = to_approx(1, 3, 6)  # known mod 3^6
        b = to_approx(3, 3, 2)  # known mod 3^3
        assert (a + b).abs_precision == 3

    def test_cancellation_gives_inexact_zero(self):
        a = to_approx(7, 3, 4)
        d = a - to_approx(7, 3, 4)
        assert d.is_zero_to_precision and not d.exact_zero
        assert d.abs_precision == 4
        assert str(d) == "O(3^4) base 3"
        with pytest.raises(PrecisionExhausted):
            d.abs_p()

    def test_near_cancellation_keeps_tail(self):
        a = to_approx(1, 3, 5)
        b = to_approx(1 + 27, 3, 5)
        d = b - a
        assert d.valuation == 3 and d.precision == 2

    def test_mul_precision_rule(self):
        a = to_approx(3, 3, 4)  # v=1, M=5
        b = to_approx(1, 3, 2)  # v=0, M=2
        # min(v_a + M_b, v_b + M_a) = min(3, 5) = 3
        assert (a * b).abs_precision == 3

    def test_mul_rational_only_shifts(self):
        a = to_approx(2, 3, 4)
        assert a.mul_rational(Fraction(1, 3)).abs_precision == 3
        assert a.mul_rational(9).abs_precision == 6
        assert a.div_rational(2).congruent_to(1)

    def test_pow_matches_repeated_mul(self):
        a = to_approx(Fraction(2, 5), 3, 5)
        assert (a**3).agrees_with(a * a * a)
        assert (a**1) == a
        assert (a**0).congruent_to(1)

    @settings(max_examples=300)
    @given(st.data())
    def test_pow_matches_binary_powering(self, data):
        # oracle: binary powering over __mul__, which applies the product rule step by step
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
        shape = data.draw(st.sampled_from(["digits", "exact zero", "inexact zero", "cancelled"]))
        v = data.draw(st.integers(-3, 4))
        if shape == "exact zero":
            x = PadicApprox.zero(p)
        elif shape == "inexact zero":
            x = PadicApprox(p, v, ())
        else:
            unit = data.draw(RATIONALS.filter(lambda u: u and vp(u, p) == 0))
            x = PadicApprox.from_rational(unit * Fraction(p) ** v, p, data.draw(st.integers(1, 12)))
            if shape == "cancelled":  # a difference that loses leading digits, or all of them
                near = x.rational_rep() + Fraction(p) ** (v + data.draw(st.integers(0, 14)))
                x = x - PadicApprox.from_rational_abs(near, p, data.draw(st.integers(v, v + 14)))
        n = data.draw(st.integers(0, 12))
        expected = PadicApprox.from_rational(1, p) if n == 0 else None
        base, k = x, n
        while k:
            if k & 1:
                expected = base if expected is None else expected * base
            k >>= 1
            if k:
                base = base * base
        assert x**n == expected

    def test_agrees_with_uses_smaller_window(self):
        a = to_approx(1, 3, 2)
        b = to_approx(1 + 27, 3, 6)
        assert a.agrees_with(b)
        assert not b.agrees_with(to_approx(2, 3, 6))

    def test_mixed_prime_rejected(self):
        with pytest.raises(ValueError):
            to_approx(1, 3, 4) + to_approx(1, 5, 4)

    @given(RATIONALS, PRIMES, st.integers(min_value=1, max_value=12))
    def test_window_roundtrip(self, x, p, n):
        a = PadicApprox.from_rational(x, p, n)
        assert a.congruent_to(x)

    @given(RATIONALS, RATIONALS, PRIMES)
    def test_sum_window_contains_exact_sum(self, x, y, p):
        a = PadicApprox.from_rational(x, p, 8)
        b = PadicApprox.from_rational(y, p, 8)
        assert (a + b).congruent_to(x + y)

    @given(RATIONALS, RATIONALS, PRIMES)
    def test_product_window_contains_exact_product(self, x, y, p):
        a = PadicApprox.from_rational(x, p, 8)
        b = PadicApprox.from_rational(y, p, 8)
        assert (a * b).congruent_to(x * y)


# -- the arithmetic against the Fraction route: the exact rational result of
# the representatives, cut to the precision rule by from_rational_abs

ARITH_PRIMES = st.sampled_from([2, 3, 5, 7, 11])


@st.composite
def _approx(draw, p):
    shape = draw(st.sampled_from(["digits", "digits", "digits", "exact zero", "inexact zero"]))
    v = draw(st.integers(-4, 6))
    if shape == "exact zero":
        return PadicApprox.zero(p)
    if shape == "inexact zero":  # O(p**v), also for v < 0
        return PadicApprox(p, v, ())
    unit = draw(RATIONALS.filter(lambda u: u and vp(u, p) == 0))
    return PadicApprox.from_rational(unit * Fraction(p) ** v, p, draw(st.integers(1, 14)))


@st.composite
def _operands(draw):
    # (p, a, b); b may cancel a's leading digits under + (near = -a) or - (near = a)
    p = draw(ARITH_PRIMES)
    a = draw(_approx(p))
    shape = draw(st.sampled_from(["independent", "near -a", "near a"]))
    if shape == "independent" or a.exact_zero:
        return p, a, draw(_approx(p))
    sign = -1 if shape == "near -a" else 1
    near = sign * a.rational_rep() + Fraction(p) ** (a.valuation + draw(st.integers(0, 16)))
    m = draw(st.integers(a.valuation - 2, a.valuation + 16))
    return p, a, PadicApprox.from_rational_abs(near, p, m)


SCALARS = st.fractions(-(10**4), 10**4, max_denominator=10**3)


def _scalar(draw, p):
    return draw(SCALARS) * Fraction(p) ** draw(st.integers(-3, 3))


class TestArithmeticMatchesFractionRoute:
    @settings(max_examples=400)
    @given(_operands())
    def test_add(self, ops):
        p, a, b = ops
        if a.exact_zero or b.exact_zero:
            expected = b if a.exact_zero else a
        else:
            expected = PadicApprox.from_rational_abs(
                a.rational_rep() + b.rational_rep(), p, min(a.abs_precision, b.abs_precision))
        assert a + b == expected

    @settings(max_examples=400)
    @given(_operands())
    def test_sub(self, ops):
        p, a, b = ops
        if b.exact_zero:
            expected = a
        elif a.exact_zero:
            expected = PadicApprox.from_rational_abs(-b.rational_rep(), p, b.abs_precision)
        else:
            expected = PadicApprox.from_rational_abs(
                a.rational_rep() - b.rational_rep(), p, min(a.abs_precision, b.abs_precision))
        assert a - b == expected

    @settings(max_examples=300)
    @given(st.data())
    def test_neg(self, data):
        p = data.draw(ARITH_PRIMES)
        a = data.draw(_approx(p))
        expected = a if a.exact_zero else PadicApprox.from_rational_abs(
            -a.rational_rep(), p, a.abs_precision)
        assert -a == expected
        assert -(-a) == a

    @settings(max_examples=400)
    @given(_operands())
    def test_mul(self, ops):
        p, a, b = ops
        if a.exact_zero or b.exact_zero:
            expected = PadicApprox.zero(p)
        else:
            m = min(a.valuation + b.abs_precision, b.valuation + a.abs_precision)
            expected = PadicApprox.from_rational_abs(a.rational_rep() * b.rational_rep(), p, m)
        assert a * b == expected

    @settings(max_examples=300)
    @given(st.data())
    def test_pow(self, data):
        p = data.draw(ARITH_PRIMES)
        a = data.draw(_approx(p))
        n = data.draw(st.integers(0, 6))
        if n == 0:
            expected = PadicApprox.from_rational_abs(1, p, DEFAULT_PRECISION)
        elif a.exact_zero:
            expected = a
        else:
            m = (n - 1) * a.valuation + a.abs_precision
            expected = PadicApprox.from_rational_abs(a.rational_rep() ** n, p, m)
        assert a**n == expected

    @settings(max_examples=300)
    @given(st.data())
    def test_mul_rational(self, data):
        p = data.draw(ARITH_PRIMES)
        a = data.draw(_approx(p))
        c = _scalar(data.draw, p)
        if a.exact_zero or c == 0:
            expected = PadicApprox.zero(p)
        else:
            m = a.abs_precision + vp(c, p)
            expected = PadicApprox.from_rational_abs(a.rational_rep() * c, p, m)
        assert a.mul_rational(c) == expected

    @settings(max_examples=300)
    @given(st.data())
    def test_div_rational(self, data):
        p = data.draw(ARITH_PRIMES)
        a = data.draw(_approx(p))
        c = _scalar(data.draw, p)
        if c == 0:
            with pytest.raises(ZeroDivisionError):
                a.div_rational(c)
            return
        if a.exact_zero:
            expected = PadicApprox.zero(p)
        else:
            m = a.abs_precision - vp(c, p)
            expected = PadicApprox.from_rational_abs(a.rational_rep() / c, p, m)
        assert a.div_rational(c) == expected

    @settings(max_examples=400)
    @given(RATIONALS, PRIMES, st.integers(-12, 16))
    def test_from_rational_abs_matches_unit_digit_route(self, x, p, m):
        # the former construction: v_p, then the unit's digits mod p**(m - v_p)
        if x == 0 or m - vp(x, p) <= 0:
            expected = (m, (), False)
        else:
            v = vp(x, p)
            unit = x / Fraction(p) ** v
            mod = p ** (m - v)
            u = unit.numerator % mod * pow(unit.denominator, -1, mod) % mod
            expected = (v, to_digits(u, p, m - v), False)
        a = PadicApprox.from_rational_abs(x, p, m)
        assert (a.valuation, a.digits, a.exact_zero) == expected


@st.composite
def _digit_form(draw, primes=st.sampled_from([2, 3, 5, 7])):
    # (p, v, digits) for the public constructor: a nonzero leading digit, or none
    p = draw(primes)
    digits = draw(st.lists(st.integers(0, p - 1), max_size=12))
    if digits:
        digits[0] = draw(st.integers(1, p - 1))
    return p, draw(st.integers(-6, 6)), tuple(digits)


class TestUnitForm:
    @given(_digit_form())
    def test_digits_are_a_view_of_the_unit(self, form):
        p, v, digits = form
        x = PadicApprox(p, v, digits)
        assert x.digits == digits
        assert x.unit == from_digits(digits, p)
        assert x.precision == len(digits)
        assert x.unit % p != 0 if digits else x.unit == 0

    @settings(max_examples=300)
    @given(st.data())
    def test_results_are_in_normal_form(self, data):
        p, v, digits = data.draw(_digit_form())
        a = PadicApprox(p, v, digits)
        if data.draw(st.booleans()):
            b = PadicApprox(*data.draw(_digit_form(st.just(p))))
        else:
            b = PadicApprox.zero(p)
        results = [a + b, b + a, a - b, b - a, a * b, a ** data.draw(st.integers(0, 5)),
                   a.mul_rational(_scalar(data.draw, p))]
        for r in results:
            again = PadicApprox(p, r.valuation, r.digits, r.exact_zero)
            assert r == again and hash(r) == hash(again)
            assert 0 <= r.unit < p**r.precision
            assert r.unit % p != 0 if r.precision else r.unit == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PadicApprox(3, 0, (1.9, 2)),
            lambda: PadicApprox(3, 0, ("1",)),
            lambda: PadicApprox(3, 0, (True, 1)),
            lambda: PadicApprox(3, 0.5, (1,)),
            lambda: PadicApprox(3, "0", (1,)),
            lambda: PadicApprox(3, False, (1,)),
            lambda: to_approx(Fraction(1, 2), 3, 2.5),
            lambda: to_approx(Fraction(1, 2), 3, "4"),
            lambda: to_approx(Fraction(1, 2), 3, True),
            lambda: PadicApprox.from_rational(0, 3, 2.0),
            lambda: PadicApprox.from_rational_abs(Fraction(1, 2), 3, 2.5),
            lambda: PadicApprox.from_rational_abs(Fraction(1, 2), 3, "2"),
            lambda: PadicApprox.from_rational_abs(Fraction(1, 2), 3, True),
        ],
        ids=[
            "float-digit", "str-digit", "bool-digit", "float-valuation", "str-valuation",
            "bool-valuation", "float-count", "str-count", "bool-count", "float-count-of-zero",
            "float-abs-precision", "str-abs-precision", "bool-abs-precision",
        ],
    )
    def test_non_integers_refused(self, build):
        with pytest.raises(RangeError, match="must be an int"):
            build()


class TestExpStop:
    def test_first_index_past_the_bound(self):
        # every (p, v) on the exp disc: v >= 1, and v >= 2 at p = 2
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for v in range(2 if p == 2 else 1, 7):
                m = 2
                for target in range(1, 201):
                    while m * v - Fraction(m - 1, p - 1) < target:
                        m += 1
                    assert _exp_stop(p, v, target) == m, (p, v, target)


class TestSeriesEval:
    def test_exp_log_roundtrip(self):
        x = to_approx(3, 3, 8)
        y = series_eval("exp", x) - to_approx(1, 3, 30)
        back = series_eval("log1p", y)
        assert back.agrees_with(x)

    def test_exp_is_homomorphism(self):
        x = to_approx(3, 3, 7)
        y = to_approx(6, 3, 7)
        lhs = series_eval("exp", x + y)
        rhs = series_eval("exp", x) * series_eval("exp", y)
        assert lhs.agrees_with(rhs)

    def test_cosh_sinh_pythagoras(self):
        x = to_approx(5, 5, 6)
        c = series_eval("cosh", x)
        s = series_eval("sinh", x)
        one = to_approx(1, 5, 30)
        assert (c * c - s * s).agrees_with(one)

    def test_exp_diverges_outside_disc(self):
        with pytest.raises(DomainError):
            series_eval("exp", to_approx(1, 3, 6))
        with pytest.raises(DomainError):
            series_eval("exp", to_approx(2, 2, 6))  # p=2 needs v >= 2

    def test_exp_2adic_inner_disc(self):
        x = to_approx(4, 2, 8)
        out = series_eval("exp", x)
        assert out.congruent_to(sum(Fraction(4) ** m / math.factorial(m) for m in range(12)))

    def test_log1p_domain(self):
        with pytest.raises(DomainError):
            series_eval("log1p", to_approx(1, 3, 6))

    def test_exp_at_exact_zero(self):
        assert series_eval("exp", PadicApprox.zero(3)).congruent_to(1)
        assert series_eval("sinh", PadicApprox.zero(3)).exact_zero

    def test_binomial_matches_integer_power(self):
        x = to_approx(3, 3, 8)
        direct = (to_approx(1, 3, 30) + x) ** 4
        viaseries = series_eval("binomial", x, a=4)
        assert viaseries.agrees_with(direct)

    def test_binomial_negative_exponent_inverts(self):
        x = to_approx(3, 3, 8)
        inv = series_eval("binomial", x, a=-1)
        prod = inv * (to_approx(1, 3, 30) + x)
        assert prod.congruent_to(1)

    def test_binomial_rational_exponent_squares_back(self):
        # (1+x)^(1/2) squared recovers 1+x on the window
        x = to_approx(3, 3, 8)
        half = series_eval("binomial", x, a=Fraction(1, 2))
        assert (half * half).agrees_with(to_approx(1, 3, 30) + x)

    def test_binomial_rejects_non_integer_exponent(self):
        x = to_approx(3, 3, 6)
        with pytest.raises(DomainError):
            series_eval("binomial", x, a=Fraction(1, 3))

    def test_binomial_approx_exponent_tracks_loss(self):
        x = to_approx(3, 3, 12)
        a = to_approx(Fraction(1, 2), 3, 4)
        out = series_eval("binomial", x, a=a)
        exact = series_eval("binomial", x, a=Fraction(1, 2))
        assert out.agrees_with(exact)
        assert out.abs_precision <= exact.abs_precision

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            series_eval("tanh", to_approx(3, 3, 4))


# -- the summation loops series_eval used before the ratio-term kernel, as oracles

def _exp_like_sum(kind, rep, v, p, target):
    total = Fraction(0)
    term = Fraction(1)
    m = 0
    while True:
        bound = Fraction(m) * v - Fraction(m - 1, p - 1) if m else Fraction(0)
        if m and bound >= target:
            break
        if kind == "exp" or (kind == "cosh" and m % 2 == 0) or (kind == "sinh" and m % 2 == 1):
            total += term
        m += 1
        term = term * rep / m
    return total


def _log1p_sum(rep, v, p, target):
    total = Fraction(0)
    power = Fraction(1)
    m = 0
    while True:
        m += 1
        power *= rep
        if m > 1 and m * v - (digit_count(m, p) - 1) >= target:
            break
        total += power / m if m % 2 == 1 else -power / m
    return total


def _binomial_loop(rep, v, p, target, a_rep, a_prec):
    total = Fraction(0)
    coeff = Fraction(1)
    power = Fraction(1)
    m = 0
    a_err = math.inf
    while m * v < target:
        total += coeff * power
        if m >= 1 and a_prec != math.inf:
            a_err = min(a_err, a_prec - factorial_vp(m, p) + m * v)
        coeff = coeff * (a_rep - m) / (m + 1)
        power *= rep
        m += 1
    out_prec = min(target, a_err)
    if out_prec <= 0:
        raise PrecisionExhausted("binomial series result retains no precision")
    return PadicApprox.from_rational_abs(total, p, out_prec)


def _series_eval_loops(kind, x, a=None):
    """series_eval as it was written with one loop per kind."""
    p = x.prime
    if kind in ("exp", "cosh", "sinh"):
        need = 2 if p == 2 else 1
        if x.exact_zero:
            return PadicApprox.zero(p) if kind == "sinh" else PadicApprox.from_rational(1, p)
        if x.valuation < need or not x.digits:
            raise DomainError(kind)
        total = _exp_like_sum(kind, x.rational_rep(), x.valuation, p, x.abs_precision)
        return PadicApprox.from_rational_abs(total, p, x.abs_precision)
    if kind == "log1p":
        if x.exact_zero:
            return PadicApprox.zero(p)
        if x.valuation < 1 or not x.digits:
            raise DomainError(kind)
        total = _log1p_sum(x.rational_rep(), x.valuation, p, x.abs_precision)
        return PadicApprox.from_rational_abs(total, p, x.abs_precision)
    if a is None:
        raise RangeError("binomial series needs the exponent a")
    if isinstance(a, PadicApprox):
        if a.exact_zero:
            a_rep, a_prec = Fraction(0), math.inf
        else:
            if a.valuation < 0:
                raise DomainError(kind)
            a_rep, a_prec = a.rational_rep(), a.abs_precision
    else:
        a_rep, a_prec = as_fraction(a), math.inf
        if vp(a_rep, p) < 0:
            raise DomainError(kind)
    if x.exact_zero:
        return PadicApprox.from_rational(1, p)
    if x.valuation < 1 or not x.digits:
        raise DomainError(kind)
    return _binomial_loop(x.rational_rep(), x.valuation, p, x.abs_precision, a_rep, a_prec)


@st.composite
def _series_calls(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    kind = draw(st.sampled_from(["exp", "cosh", "sinh", "log1p", "binomial"]))
    shape = draw(st.sampled_from(["digits", "digits", "digits", "exact zero", "inexact zero"]))
    v = draw(st.integers(0, 4))
    if shape == "exact zero":
        x = PadicApprox.zero(p)
    elif shape == "inexact zero":
        x = PadicApprox(p, v, ())
    else:
        unit = draw(st.fractions(-(10**6), 10**6, max_denominator=10**3).filter(
            lambda u: u and vp(u, p) == 0))
        x = PadicApprox.from_rational(unit * Fraction(p) ** v, p, draw(st.integers(1, 45)))
    a = None
    if kind == "binomial":
        exact = draw(st.fractions(-50, 50, max_denominator=12))
        a = draw(st.sampled_from([
            exact,
            PadicApprox.zero(p),
            PadicApprox(p, draw(st.integers(-1, 6)), ()),
            to_approx(exact, p, draw(st.integers(1, 12))) if exact else PadicApprox.zero(p),
        ]))
    return kind, x, a


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # the error class is part of the contract
        return type(exc)
    return out.prime, out.valuation, out.digits, out.exact_zero


class TestRatioTerms:
    def test_running_product(self):
        assert list(islice(ratio_terms(lambda m: m), 5)) == [1, 1, 2, 6, 24]
        assert list(islice(binomial_terms(5, 2), 7)) == [math.comb(5, m) * 2**m for m in range(7)]

    @given(st.fractions(-20, 20, max_denominator=9), st.integers(0, 25))
    def test_binomial_terms_match_per_m_loop(self, a, m):
        # the former falling_binomial loop, one product per m
        direct = Fraction(1)
        for j in range(m):
            direct = direct * (a - j) / (j + 1)
        assert falling_binomial(a, m) == direct
        assert list(islice(binomial_terms(a), m + 1))[m] == direct

    def test_falling_binomial_refuses_negative_m(self):
        with pytest.raises(RangeError):
            falling_binomial(Fraction(1, 2), -1)

    @settings(max_examples=400, deadline=None)
    @given(_series_calls())
    def test_series_eval_matches_loops(self, call):
        kind, x, a = call
        assert _outcome(series_eval, kind, x, a) == _outcome(_series_eval_loops, kind, x, a)

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 30))
    def test_least_known_exponent_keeps_a_digit(self, p, v, digits):
        # a = O(p**0) is the least precise p-adic integer; since
        # m*v - v_p(m!) >= 1, the sum still keeps the first digit, so the
        # loops' PrecisionExhausted branch is never reached
        x = to_approx(Fraction(p) ** v, p, digits)
        a = PadicApprox(p, 0, ())
        out = series_eval("binomial", x, a)
        assert out.abs_precision >= 1
        assert v > 1 or out.abs_precision == 1  # at v = 1 the m = 1 term keeps one digit
        assert _outcome(series_eval, "binomial", x, a) == _outcome(_series_eval_loops, "binomial", x, a)


class TestDigits:
    def test_spot_values(self):
        assert to_digits(19, 3, 3) == (1, 0, 2)
        assert to_digits(19, 3, 0) == ()
        assert to_digits(5, 2, 5) == (1, 0, 1, 0, 0)
        assert from_digits((), 7) == 0
        assert from_digits([1, 0, 1, 0, 0], 2) == 5

    @given(st.integers(2, 40), st.integers(0, 12), st.data())
    def test_roundtrip(self, base, count, data):
        n = data.draw(st.integers(0, base**count - 1))
        digits = to_digits(n, base, count)
        assert len(digits) == count
        assert all(0 <= d < base for d in digits)
        assert from_digits(digits, base) == n
        assert to_digits(from_digits(digits, base), base, count) == digits

    # the split above the cutoff against the one-divmod-per-digit loop
    @settings(max_examples=200)
    @given(
        st.integers(2, 11),
        st.one_of(
            st.integers(0, 3 * _DIGITS_CUTOFF),
            st.integers(-2, 2).map(lambda d: _DIGITS_CUTOFF + d),
            st.integers(-2, 2).map(lambda d: 2 * _DIGITS_CUTOFF + d),
        ),
        st.data(),
    )
    def test_split_matches_the_loop(self, base, count, data):
        top = base**count
        n = data.draw(st.one_of(st.integers(0, top - 1), st.integers(top, top * base**5)))
        digits, m = [], n
        for _ in range(count):
            m, d = divmod(m, base)
            digits.append(d)
        assert to_digits(n, base, count) == tuple(digits)

    # digits beyond `count` are dropped: to_digits reduces mod base**count
    @given(st.integers(2, 40), st.integers(0, 12), st.integers(0, 10**30))
    def test_truncates_mod_base_power(self, base, count, n):
        assert from_digits(to_digits(n, base, count), base) == n % base**count


def _digits_loop(m, p):
    # the former padic._digits_base_p, kept as the oracle for digit_count
    n = 0
    while m:
        m //= p
        n += 1
    return n


class TestDigitCount:
    @given(st.sampled_from([2, 3, 5, 7, 97]), st.integers(0, 4999))
    def test_matches_division_loop(self, p, m):
        assert digit_count(m, p) == _digits_loop(m, p)

    @given(st.integers(2, 40), st.integers(0, 10**60))
    def test_least_power_above(self, base, n):
        s = digit_count(n, base)
        assert n < base**s
        assert s == 0 or base ** (s - 1) <= n

    def test_powers_of_the_base(self):
        assert [digit_count(10**e, 10) for e in range(4)] == [1, 2, 3, 4]
        assert [digit_count(10**e - 1, 10) for e in range(4)] == [0, 1, 2, 3]


class TestFactorialHelpers:
    def test_factorial_vp_matches_direct(self):
        for p in (2, 3, 5, 7):
            for m in range(0, 60):
                direct = vp(math.factorial(m), p) if m else 0
                assert factorial_vp(m, p) == direct

    def test_falling_binomial(self):
        assert falling_binomial(Fraction(-1), 3) == -1
        assert falling_binomial(Fraction(4), 2) == 6
        assert falling_binomial(Fraction(2), 5) == 0
        assert falling_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
