"""Truncated formal power series with exact rational coefficients.

A FormalSeries holds coefficients c_0..c_D of a series truncated at
order D. Binary operations demand equal truncation orders (OrderError
otherwise) so precision never silently degrades. Every constructor
refuses a negative truncation order with RangeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import DomainError, OrderError, RangeError
from .padic import _as_int, as_fraction, ratio_terms


@dataclass(frozen=True, repr=False)
class FormalSeries:
    """The series c_0 + c_1 z + ... + c_D z**D truncated at order D."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise RangeError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        k = _as_int(k, "k", 0)
        if k > self.order:
            raise RangeError(f"coefficient k={k} is past the truncation order {self.order}")
        return self.coeffs[k]

    def _check(self, other: "FormalSeries") -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            raise TypeError("expected FormalSeries")
        if other.order != self.order:
            raise OrderError(f"truncation orders differ: {self.order} vs {other.order}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FormalSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return FormalSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return FormalSeries(-a for a in self.coeffs)

    def __mul__(self, other):
        other = self._check(other)
        d = self.order
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return FormalSeries(out)

    def scale(self, c) -> "FormalSeries":
        c = as_fraction(c)
        return FormalSeries(c * a for a in self.coeffs)

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(z)); inner must have zero constant term."""
        inner = self._check(inner)
        if inner.coeffs[0] != 0:
            raise DomainError("composition needs inner constant term zero")
        d = self.order
        out = constant(self.coeffs[d], d)
        for k in range(d - 1, -1, -1):
            out = out * inner + constant(self.coeffs[k], d)
        return out

    def integer_power(self, n: int) -> "FormalSeries":
        n = _as_int(n, "n", 0)
        out = one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def padic_power(self, a) -> "FormalSeries":
        """Power B**a for a base B with constant term 1.

        a may be any exact rational (or int); the result is the formal
        expansion sum_m C(a, m) (B - 1)**m, exact through the order. The
        coefficients come from J.C.P. Miller's recurrence
        n p_n = sum_{k=1..n} ((a + 1) k - n) b_k p_{n-k}, O(order**2).
        """
        if self.coeffs[0] != 1:
            raise DomainError("padic_power needs base constant term 1")
        a = as_fraction(a)
        if a == 1:  # B**1 = B, the a = 1 series of clt and --clt-check
            return self
        # a + 1 = r/s, so n s p_n = sum_k (r k - n s) b_k p_{n-k}
        r, s = a.numerator + a.denominator, a.denominator
        b = self.coeffs
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = sum((r * k - n * s) * b[k] * out[n - k] for k in range(1, n + 1) if b[k])
            out.append(Fraction(acc, n * s))
        return FormalSeries(out)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"FormalSeries([{shown}{tail}], order={self.order})"


def constant(c, order: int) -> FormalSeries:
    order = _as_int(order, "truncation order", 0)
    return FormalSeries([as_fraction(c)] + [Fraction(0)] * order)


def one(order: int) -> FormalSeries:
    return constant(1, order)


def identity(order: int) -> FormalSeries:
    order = _as_int(order, "truncation order", 1)
    return FormalSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))


def exp_series(order: int) -> FormalSeries:
    return exp_scaled(1, order)


def exp_scaled(c, order: int) -> FormalSeries:
    """exp(c*z) truncated: coefficients c**k / k!."""
    order = _as_int(order, "truncation order", 0)
    c = as_fraction(c)
    return FormalSeries(islice(ratio_terms(lambda k: c / k), order + 1))


def cosh_series(order: int) -> FormalSeries:
    e = exp_series(order)
    return (e + exp_scaled(-1, order)).scale(Fraction(1, 2))


def sinh_series(order: int) -> FormalSeries:
    e = exp_series(order)
    return (e - exp_scaled(-1, order)).scale(Fraction(1, 2))


def log1p_series(order: int) -> FormalSeries:
    order = _as_int(order, "truncation order", 0)
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        coeffs.append(Fraction(1, k) if k % 2 == 1 else Fraction(-1, k))
    return FormalSeries(coeffs)


def cosh_scaled_sq(n, order: int) -> FormalSeries:
    """cosh(z/sqrt(n)) written through even powers only: the coefficient
    of z**(2k) is 1/(n**k (2k)!), so no square root is ever taken."""
    order = _as_int(order, "truncation order", 0)
    n = as_fraction(n)
    if n == 0:
        raise DomainError("scaling by 1/sqrt(0)")
    even = ratio_terms(lambda k: 1 / (n * (2 * k - 1) * (2 * k)))
    return FormalSeries(next(even) if j % 2 == 0 else 0 for j in range(order + 1))
