"""Exact p-adic arithmetic on rationals.

Values are plain ints or fractions.Fraction; nothing here ever rounds in
the real sense. The p-adic valuation, absolute value and distance are
exact, balls and spheres are decided exactly, and PadicApprox carries a
finite window of p-adic digits with explicit precision bookkeeping.

Conventions:
    * v_p(0) = +infinity (math.inf), |0|_p = 0.
    * |x|_p = p**(-v_p(x)); a PadicAbs stores the exponent of p, with a
      -infinity exponent encoding |0|_p = 0.
    * A ball U(center, l) is {x : v_p(x - center) >= l}, radius p**-l.
      A sphere S(center, l) is {x : v_p(x - center) == l}.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Union

from .errors import DomainError, PrecisionExhausted, RangeError

Rat = Union[int, Fraction]

#: default number of significant p-adic digits carried by approximations
DEFAULT_PRECISION = 32

# composite-free below 3.3e24, hence deterministic for anything < 2**64
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 2**64


def _is_prime_u64(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """An int certified prime at construction.

    The check is a deterministic Miller-Rabin, valid for any input below
    2**64; larger candidates are rejected outright rather than tested
    probabilistically.

    Examples:
        >>> Prime(3)
        3
        >>> Prime(9)
        Traceback (most recent call last):
            ...
        padicprob.errors.RangeError: 9 is not prime
    """

    def __new__(cls, value):
        if isinstance(value, Prime):
            return value
        n = _as_int(value, "prime")
        if n >= _PRIME_LIMIT:
            raise RangeError(f"primality check limited to inputs < 2**64, got {n}")
        if not _is_prime_u64(n):
            raise RangeError(f"{n} is not prime")
        return super().__new__(cls, n)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or 'num/den' string to an exact Fraction.

    Anything else raises RangeError. Floats carry binary rounding error
    and this library promises exact arithmetic; a bool is a flag, not a
    number. A string Fraction cannot read, or one in exponent notation
    (which Fraction expands however large), also raises RangeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if re.search(r"[\d.][eE]", x):  # 1e5, 1.E5, .5e-3
            raise RangeError(f"exponent notation is not accepted: {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise RangeError(str(exc)) from None
    raise RangeError(f"expected int, Fraction or rational string, got {type(x).__name__}")


def _numerators(xs) -> tuple[list[int], int]:
    """Integer numerators of Fractions over their least common denominator;
    xs is read twice, so it is a sequence or a view, not an iterator."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _as_int(x, what: str, least: int | None = None) -> int:
    """The integer argument `what` as a plain int: the one read of every
    integer argument in the library. Like as_fraction, it refuses what
    int() would truncate or parse, and a bool, which is a flag; it also
    refuses a value below `least`, a natural. Each refusal is a RangeError.

    >>> _as_int(3, "depth", 0)
    3
    >>> _as_int(0, "kmax", 1)
    Traceback (most recent call last):
        ...
    padicprob.errors.RangeError: kmax must be a natural >= 1
    >>> _as_int(2.5, "n")
    Traceback (most recent call last):
        ...
    padicprob.errors.RangeError: n must be an int, got float
    """
    if not isinstance(x, int) or isinstance(x, bool):
        raise RangeError(f"{what} must be an int, got {type(x).__name__}")
    if least is not None and x < least:
        raise RangeError(f"{what} must be a natural" + (f" >= {least}" if least else ""))
    return int(x)


def _as_pair(x, what: str) -> tuple:
    """The two items of a pair argument; anything else raises RangeError."""
    try:
        first, second = x
    except (TypeError, ValueError):
        raise RangeError(f"{what} must be a pair, got {x!r}") from None
    return first, second


def _int_vp(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p) -> int | float:
    """p-adic valuation of a rational; math.inf for zero.

    Examples:
        >>> vp(12, 3)
        1
        >>> vp(Fraction(5, 16), 2)
        -4
        >>> vp(0, 5)
        inf
    """
    p = Prime(p)
    x = as_fraction(x)
    if x == 0:
        return math.inf
    return _int_vp(x.numerator, p) - _int_vp(x.denominator, p)


@functools.total_ordering
class PadicAbs:
    """A p-adic absolute value p**exponent; exponent -inf encodes 0.

    Instances are totally ordered (same prime required) and multiply by
    adding exponents.
    """

    __slots__ = ("prime", "exponent")

    def __init__(self, prime, exponent):
        self.prime = Prime(prime)
        if exponent != -math.inf and not isinstance(exponent, int):
            raise TypeError("exponent must be an int or -inf")
        self.exponent = exponent

    @classmethod
    def zero(cls, p) -> "PadicAbs":
        return cls(p, -math.inf)

    @classmethod
    def one(cls, p) -> "PadicAbs":
        return cls(p, 0)

    @classmethod
    def from_valuation(cls, p, v) -> "PadicAbs":
        return cls(p, -math.inf) if v == math.inf else cls(p, -v)

    @property
    def is_zero(self) -> bool:
        return self.exponent == -math.inf

    def as_fraction(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if self.exponent >= 0:
            return Fraction(self.prime**self.exponent)
        return Fraction(1, self.prime ** (-self.exponent))

    def _check(self, other) -> "PadicAbs":
        if not isinstance(other, PadicAbs):
            raise TypeError("can only combine PadicAbs with PadicAbs")
        if other.prime != self.prime:
            raise RangeError("mismatched primes")
        return other

    def __mul__(self, other):
        other = self._check(other)
        return PadicAbs(self.prime, self.exponent + other.exponent)

    def __eq__(self, other):
        if not isinstance(other, PadicAbs):
            return NotImplemented
        return self.prime == other.prime and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.prime, self.exponent))

    def __lt__(self, other):
        other = self._check(other)
        return self.exponent < other.exponent

    def __le__(self, other):
        other = self._check(other)
        return self.exponent <= other.exponent

    def __repr__(self):
        return f"PadicAbs({self.prime}, {self.exponent})"

    def __str__(self):
        return str(self.as_fraction())


def abs_p(x, p) -> PadicAbs:
    """|x|_p as a PadicAbs.

    Examples:
        >>> str(abs_p(Fraction(1, 2), 3))
        '1'
    """
    return PadicAbs.from_valuation(Prime(p), vp(x, p))


def dist_p(x, y, p) -> PadicAbs:
    """p-adic distance |x - y|_p.

    Examples:
        >>> str(dist_p(Fraction(5, 16), Fraction(1, 2), 3))
        '1/3'
    """
    return abs_p(as_fraction(x) - as_fraction(y), p)


class _Region:
    """A ball or sphere around a rational center; compares by value, and
    only with its own kind."""

    __slots__ = ("prime", "center", "radius_exponent")

    def __init__(self, prime, center, radius_exponent: int):
        self.prime = Prime(prime)
        self.center = as_fraction(center)
        self.radius_exponent = _as_int(radius_exponent, "radius exponent")

    def _key(self):
        return (self.prime, self.center, self.radius_exponent)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(p={self.prime}, center={self.center}, radius_exponent={self.radius_exponent})"


class Ball(_Region):
    """Closed-open ball U(center, l) = {x : v_p(x - center) >= l}.

    The radius is p**-l; l may be negative (balls larger than Z_p).
    Balls are clopen: membership is an exact valuation comparison.
    """

    __slots__ = ()

    def contains(self, x) -> bool:
        return vp(as_fraction(x) - self.center, self.prime) >= self.radius_exponent


class Sphere(_Region):
    """Sphere S(center, l) = {x : v_p(x - center) == l}."""

    __slots__ = ()

    def contains(self, x) -> bool:
        return vp(as_fraction(x) - self.center, self.prime) == self.radius_exponent


def in_ball(x, ball: Ball) -> bool:
    return ball.contains(x)


def in_sphere(x, sphere: Sphere) -> bool:
    return sphere.contains(x)


#: digit counts up to this take one divmod per digit; longer ones split first
_DIGITS_CUTOFF = 64


def to_digits(n: int, base: int, count: int) -> tuple[int, ...]:
    """The lowest `count` base-`base` digits of a natural n, least significant first.

    Above _DIGITS_CUTOFF digits n is split by base**(count // 2) and each
    half converted on its own, so a long string takes a few divisions of
    large integers instead of one division of the whole n per digit.

    Examples:
        >>> to_digits(19, 3, 4)
        (1, 0, 2, 0)
    """
    if count > _DIGITS_CUTOFF:
        half = count // 2
        high, low = divmod(n, base**half)
        return to_digits(low, base, half) + to_digits(high, base, count - half)
    digits = []
    for _ in range(count):
        n, d = divmod(n, base)
        digits.append(d)
    return tuple(digits)


def digit_count(n: int, base: int) -> int:
    """The least s with n < base**s: how many base-`base` digits a natural n has.

    Examples:
        >>> digit_count(19, 3), digit_count(27, 3), digit_count(0, 10)
        (3, 4, 0)
    """
    s = 0
    while n > 0:
        n //= base
        s += 1
    return s


def from_digits(digits, base: int) -> int:
    """The natural sum of digit_j * base**j: the inverse of to_digits.

    Examples:
        >>> from_digits((1, 0, 2), 3)
        19
    """
    n = 0
    for d in reversed(digits):
        n = n * base + d
    return n


class PadicApprox:
    """A p-adic number known modulo p**(valuation + precision).

    Fields:
        prime: the p.
        valuation: v_p of the leading digit; for an inexact zero (all
            digits cancelled) it is the known absolute precision, i.e.
            the value is O(p**valuation) and v_p >= valuation.
        unit: the value over p**valuation modulo p**precision, an int
            prime to p; 0 for both zeros.
        precision: the count of known significant digits; 0 for zeros.
        exact_zero: True only for the exact zero of Q_p.
        digits (derived): the unit's `precision` base-p digits (d0, d1,
            ...), d0 != 0 unless empty.

    Arithmetic tracks worst-case precision: absolute precision of a sum
    is the min of the operands', of a product min(v1+M2, v2+M1). The
    arithmetic works on the integer units modulo p**n.

    Examples:
        >>> to_approx(Fraction(1, 2), 3, 4) + to_approx(Fraction(-1, 2), 3, 6)
        PadicApprox(O(3^4) base 3)
        >>> to_approx(3, 3, 4) * to_approx(Fraction(1, 2), 3, 2)
        PadicApprox(3^1 * (2,1) base 3 prec 2)
    """

    __slots__ = ("prime", "valuation", "unit", "precision", "exact_zero")

    def __init__(self, prime, valuation: int, digits: tuple[int, ...], exact_zero: bool = False):
        p = Prime(prime)
        valuation = _as_int(valuation, "valuation")
        digits = tuple(_as_int(d, "digit") for d in digits)
        if exact_zero and (digits or valuation != 0):
            raise RangeError("exact zero carries no digits and valuation 0")
        if digits:
            if digits[0] == 0:
                raise RangeError("leading digit must be nonzero")
            if min(digits) < 0 or max(digits) >= p:
                raise RangeError("digit outside 0..p-1")
        self._set(p, valuation, from_digits(digits, p), len(digits), bool(exact_zero))

    def _set(self, p, v: int, u: int, n: int, exact_zero: bool = False) -> "PadicApprox":
        self.prime, self.valuation, self.unit, self.precision, self.exact_zero = p, v, u, n, exact_zero
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p) -> "PadicApprox":
        return cls(p, 0, (), exact_zero=True)

    @classmethod
    def from_rational(cls, x, p, digits: int = DEFAULT_PRECISION) -> "PadicApprox":
        """Approximate a rational with the given count of significant digits."""
        x = as_fraction(x)
        digits = _as_int(digits, "digit count", 1)
        if x == 0:
            return cls.zero(p)
        return cls.from_rational_abs(x, p, vp(x, p) + digits)

    @classmethod
    def from_rational_abs(cls, x, p, abs_precision: int) -> "PadicApprox":
        """Approximate a rational known modulo p**abs_precision.

        A zero representative yields the inexact zero O(p**abs_precision),
        not the exact zero: cancellation to 0 at finite precision only
        proves v_p >= abs_precision.
        """
        p = Prime(p)
        x = as_fraction(x)
        abs_precision = _as_int(abs_precision, "absolute precision")
        # x = p**-e * num / den with den prime to p, and the unit needs
        # num / den mod p**(abs_precision + e); nothing survives if that is <= 0
        e = _int_vp(x.denominator, p)
        n = abs_precision + e
        u = x.numerator * pow(x.denominator // p**e, -1, p**n) if n > 0 else 0
        return cls._window(p, -e, u, abs_precision)

    @classmethod
    def _window(cls, p, v: int, u: int, m: int) -> "PadicApprox":
        # p**v * u known modulo p**m, for an int u; a u that vanishes modulo
        # p**(m - v) gives the inexact zero O(p**m)
        n = m - v
        u = u % p**n if n > 0 else 0
        if not u:
            return cls.__new__(cls)._set(p, m, 0, 0)
        k = _int_vp(u, p)
        return cls.__new__(cls)._set(p, v + k, u // p**k, n - k)

    # -- bookkeeping ----------------------------------------------------

    @property
    def digits(self) -> tuple[int, ...]:
        return to_digits(self.unit, self.prime, self.precision)

    @property
    def abs_precision(self) -> int | float:
        """Exponent M such that the value is known modulo p**M."""
        if self.exact_zero:
            return math.inf
        return self.valuation + self.precision

    @property
    def is_zero_to_precision(self) -> bool:
        return not self.unit

    def rational_rep(self) -> Fraction:
        """The canonical rational representative of the known window."""
        return Fraction(self.prime) ** self.valuation * self.unit

    def abs_p(self) -> PadicAbs:
        if self.exact_zero:
            return PadicAbs.zero(self.prime)
        if not self.unit:
            raise PrecisionExhausted(
                f"value is O({self.prime}^{self.valuation}); absolute value undetermined"
            )
        return PadicAbs(self.prime, -self.valuation)

    def congruent_to(self, x) -> bool:
        """Does the exact rational x lie in this approximation's window?"""
        x = as_fraction(x)
        if self.exact_zero:
            return x == 0
        return vp(x - self.rational_rep(), self.prime) >= self.abs_precision

    def agrees_with(self, other: "PadicApprox") -> bool:
        """Congruence modulo the smaller of the two absolute precisions."""
        return (self - other).is_zero_to_precision

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "PadicApprox":
        if isinstance(other, PadicApprox):
            if other.prime != self.prime:
                raise RangeError("mismatched primes")
            return other
        raise TypeError("expected PadicApprox; use mul_rational/add for exact scalars")

    def __neg__(self):
        if self.exact_zero:
            return self
        return PadicApprox._window(self.prime, self.valuation, -self.unit, self.abs_precision)

    def __add__(self, other):
        other = self._coerce(other)
        if self.exact_zero:
            return other
        if other.exact_zero:
            return self
        p, v = self.prime, min(self.valuation, other.valuation)
        u = self.unit * p ** (self.valuation - v) + other.unit * p ** (other.valuation - v)
        return PadicApprox._window(p, v, u, min(self.abs_precision, other.abs_precision))

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if self.exact_zero or other.exact_zero:
            return PadicApprox.zero(self.prime)
        m = min(self.valuation + other.abs_precision, other.valuation + self.abs_precision)
        return PadicApprox._window(
            self.prime, self.valuation + other.valuation, self.unit * other.unit, m
        )

    def mul_rational(self, c) -> "PadicApprox":
        """Multiply by an exact rational (no precision lost beyond shift)."""
        c = as_fraction(c)
        if self.exact_zero or c == 0:
            return PadicApprox.zero(self.prime)
        p = self.prime
        # c = p**-e * num / den with den prime to p; the unit needs den's
        # inverse only modulo p**precision (pow(den, -1, 1) is 0: no digits)
        e = _int_vp(c.denominator, p)
        den = c.denominator // p**e
        u = self.unit * c.numerator * pow(den, -1, p**self.precision)
        return PadicApprox._window(p, self.valuation - e, u, self.abs_precision + vp(c, p))

    def div_rational(self, c) -> "PadicApprox":
        c = as_fraction(c)
        if c == 0:
            raise ZeroDivisionError("division by exact zero")
        return self.mul_rational(1 / c)

    def __pow__(self, n: int):
        n = _as_int(n, "exponent", 0)
        p = self.prime
        if n == 0:
            return PadicApprox._window(p, 0, 1, DEFAULT_PRECISION)
        if self.exact_zero:
            return self
        # the product rule min(v1+M2, v2+M1), applied n - 1 times; the unit
        # is needed modulo p**(m - n*v) = p**precision
        m = (n - 1) * self.valuation + self.abs_precision
        u = pow(self.unit, n, p**self.precision)
        return PadicApprox._window(p, n * self.valuation, u, m)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return f"PadicApprox({self!s})"

    def __str__(self):
        if self.exact_zero:
            return f"0 base {self.prime} (exact)"
        if not self.unit:
            return f"O({self.prime}^{self.valuation}) base {self.prime}"
        ds = ",".join(str(d) for d in self.digits)
        return f"{self.prime}^{self.valuation} * ({ds}) base {self.prime} prec {self.precision}"

    def _key(self) -> tuple:
        return (self.prime, self.valuation, self.unit, self.precision, self.exact_zero)

    def __eq__(self, other):
        if not isinstance(other, PadicApprox):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def to_approx(x, p, digits: int = DEFAULT_PRECISION) -> PadicApprox:
    """Expand a rational into p-adic digits.

    Examples:
        >>> to_approx(Fraction(1, 2), 3, 4).digits
        (2, 1, 1, 1)
        >>> to_approx(9, 3, 3).valuation
        2
    """
    return PadicApprox.from_rational(x, p, digits)


# -- one-variable analytic functions on their discs of convergence -------

_EXP_KINDS = ("exp", "cosh", "sinh")
SERIES_KINDS = _EXP_KINDS + ("log1p", "binomial")


def ratio_terms(ratio):
    """Yield t_0 = 1 and t_m = t_{m-1} * ratio(m) for m = 1, 2, ...: the one
    running product behind the exp, log, binomial and Mahler sequences.

    Examples:
        >>> [str(t) for t in itertools.islice(ratio_terms(lambda m: Fraction(2, m)), 4)]
        ['1', '2', '2', '4/3']
    """
    term = Fraction(1)
    m = 0
    while True:
        yield term
        m += 1
        term = term * ratio(m)


def binomial_terms(a, scale=1):
    """Yield C(a, m) * scale**m for m = 0, 1, ...; the ratio is scale * (a - m + 1) / m.

    Examples:
        >>> [str(t) for t in itertools.islice(binomial_terms(Fraction(1, 2)), 4)]
        ['1', '1/2', '-1/8', '1/16']
    """
    a, scale = as_fraction(a), as_fraction(scale)
    # scale * (a - m + 1) / m over integers: one normalisation per term
    num, den = scale.numerator, scale.denominator * a.denominator
    return ratio_terms(lambda m: Fraction(num * (a.numerator - (m - 1) * a.denominator), den * m))


def falling_binomial(a: Fraction, m: int) -> Fraction:
    """Exact generalized binomial coefficient a(a-1)...(a-m+1)/m!."""
    return next(itertools.islice(binomial_terms(a), _as_int(m, "m", 0), None))


def _binomial_exponent(a, p) -> tuple[int, int, int | float]:
    # a p-integral exponent as num / den (den prime to p) and its absolute precision
    if a is None:
        raise RangeError("binomial series needs the exponent a")
    if isinstance(a, PadicApprox):
        if a.prime != p:
            raise RangeError("mismatched primes between x and a")
        if a.valuation < 0:  # exact zero: valuation 0, unit 0, precision inf
            raise DomainError("binomial exponent must be a p-adic integer")
        return p**a.valuation * a.unit, 1, a.abs_precision
    a = as_fraction(a)
    if vp(a, p) < 0:
        raise DomainError("binomial exponent must be a p-adic integer")
    return a.numerator, a.denominator, math.inf


def _residue_terms(p, mod: int, ratio):
    # t_0 = 1 and t_m = t_{m-1} * num / den for (num, den) = ratio(m), each
    # yielded as (e, u): its exact valuation and its unit modulo mod, a power
    # of p; the sequence ends at the first zero ratio
    e, u = 0, 1
    for m in itertools.count(1):
        yield e, u
        num, den = ratio(m)
        if not num:
            return
        a, b = _int_vp(num, p), _int_vp(den, p)
        e += a - b
        u = u * (num // p**a) * pow(den // p**b, -1, mod) % mod


def _exp_stop(p, v: int, target: int) -> int:
    # the first m >= 2 with m*v - (m - 1)/(p - 1) >= target, a lower bound on
    # v_p(x**m / m!) for v_p(x) = v since v_p(m!) <= (m - 1)/(p - 1); on the
    # exp disc v*(p - 1) > 1, and the inequality reads
    # m >= (target*(p - 1) - 1) / (v*(p - 1) - 1)
    return max(2, -(-(target * (p - 1) - 1) // (v * (p - 1) - 1)))


def series_eval(kind: str, x: PadicApprox, a=None) -> PadicApprox:
    """Evaluate exp/cosh/sinh/log1p or the binomial series (1+x)**a at a
    p-adic argument, to the argument's own absolute precision.

    exp, cosh, sinh need |x|_p <= 1/p (p odd) or |x|_2 <= 1/4; log1p and
    binomial need |x|_p < 1, and binomial additionally a p-adic integer
    exponent a (int, Fraction, or PadicApprox). Outside those discs the
    series diverge and DomainError is raised.

    Examples:
        >>> x = to_approx(3, 3, 6)
        >>> series_eval("exp", x).valuation
        0
    """
    if kind not in SERIES_KINDS:
        raise RangeError(f"unknown series {kind!r}; choose from {SERIES_KINDS}")
    if not isinstance(x, PadicApprox):
        raise TypeError("series_eval expects a PadicApprox argument")
    p = x.prime
    a_num, a_den, a_prec = _binomial_exponent(a, p) if kind == "binomial" else (0, 1, math.inf)
    if x.exact_zero:  # at x = 0 each series is its constant term
        if kind in ("sinh", "log1p"):
            return PadicApprox.zero(p)
        return PadicApprox._window(p, 0, 1, DEFAULT_PRECISION)
    # v_p(x) >= 1 suffices, except that exp, cosh and sinh at p = 2 need v_2(x) >= 2
    need = 2 if p == 2 and kind in _EXP_KINDS else 1
    if x.valuation < need or not x.unit:
        raise DomainError(f"{kind} converges only for v_{p}(x) >= {need}; argument has {x!s}")
    v, target = x.valuation, x.abs_precision
    rep = p**v * x.unit
    # Terms m < stop are summed: from m = stop on, a lower bound on v_p(term m)
    # reaches the target. target = v + precision exceeds v >= 1 and each
    # bound is at most v at m = 0 and m = 1, so stop >= 2. Every summed term
    # is p-integral, so its residue modulo p**target is all the sum needs.
    first, step = 0, 1  # the summed terms are m = first, first + step, ... below stop
    if kind in _EXP_KINDS:
        # rep**m / m!
        stop = _exp_stop(p, v, target)
        ratio = lambda m: (rep, m)
        first, step = {"exp": (0, 1), "cosh": (0, 2), "sinh": (1, 2)}[kind]
    elif kind == "log1p":
        # -(-rep)**m / m for m >= 1, and v_p(m) <= digit_count(m, p) - 1; the
        # ratio is -rep * (m - 1) / m from m = 2 on
        stop = 2
        while stop * v - (digit_count(stop, p) - 1) < target:
            stop += 1
        ratio = lambda m: (rep if m == 1 else -rep * (m - 1), m)
        first = 1
    else:
        # C(a, m) * rep**m, and v_p(C(a, m)) >= 0 for a p-integral a
        stop = -(-target // v)
        ratio = lambda m: (rep * (a_num - (m - 1) * a_den), a_den * m)
    terms = itertools.islice(_residue_terms(p, p**target, ratio), first, stop, step)
    total = sum(u * p**e for e, u in terms)
    out_prec = target
    if a_prec != math.inf:
        # C(a, m) differs from C(a_num/a_den, m) by at most p**-(a_prec - v_p(m!)), so
        # each summed term m >= 1 (m*v < target) is known to a_prec - v_p(m!) + m*v;
        # that is >= 1, as a_prec >= 0 and m*v - v_p(m!) >= m - (m-1)/(p-1) >= 1
        out_prec = min([target] + [a_prec - factorial_vp(m, p) + m * v for m in range(1, stop)])
    return PadicApprox._window(p, 0, total, out_prec)


def factorial_vp(m: int, p: int) -> int:
    # v_p(m!) = (m - s_p(m)) / (p - 1); m has at most m.bit_length() base-p digits
    return (m - sum(to_digits(m, p, m.bit_length()))) // (p - 1)
