"""p-adic limit laws for sums of exact Bernoulli trials.

The sum S_n of n two-valued trials has exact rational distribution
C(n,j) q'**j q**(n-j). When the sample sizes N_k are chosen to converge
p-adically to a target m, the probability that S lands in a residue
ball converges p-adically to the binomial weight C(m,r)/2**m (symmetric
case); the law of large numbers holds coefficientwise in the Mahler
basis; and the central-limit series (cosh(z/sqrt(n)))**n keeps bounded
Mahler coefficients at n = 1. Everything here is finite, exact and
traceable: verifiers return valuation traces, never asymptotic claims.

The sphere-membership randomness test rejects a bit sequence when its
checkpoint sums keep hitting an event whose exact probability is
p-adically below a significance threshold.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from math import comb, factorial
from operator import mul
from types import SimpleNamespace
from typing import NamedTuple

from .errors import (
    MAX_CHAIN_COST,
    MAX_LAW_BITS,
    MAX_LAW_WIDTH,
    DomainError,
    HypothesisViolation,
    InsufficientData,
    OrderError,
    PrecisionExhausted,
    RangeError,
    refuse_over,
)
from .frequency import Collective, SequenceSelector, _checkpoints, event_residues
from .padic import (
    PadicAbs,
    PadicApprox,
    Prime,
    _as_int,
    _numerators,
    as_fraction,
    binomial_terms,
    digit_count,
    factorial_vp,
    falling_binomial,
    vp,
)
from .reports import EXPONENT, FLAG, INT, RATIONAL, format_rational, json_exponent, table_lines
from .series import FormalSeries, cosh_scaled_sq, exp_series, one

LOGGER = logging.getLogger(__name__)


def binom(n: int, r: int) -> int:
    """Exact C(n, r); RangeError outside 0 <= r <= n."""
    r = _as_int(r, "r", 0)
    return comb(_as_int(n, "n", r), r)


def binom_vp(n: int, r: int, p) -> int:
    """v_p(C(n, r)) = v_p(n!) - v_p(r!) - v_p((n-r)!) by Legendre's formula, which Kummer's
    theorem equates with the carries when adding r and n-r in base p."""
    r = _as_int(r, "r", 0)
    n, p = _as_int(n, "n", r), Prime(p)
    return factorial_vp(n, p) - factorial_vp(r, p) - factorial_vp(n - r, p)


def padic_binomial_coeff(a, m: int, prime=None) -> PadicApprox:
    """C(a, m) for a p-adic integer a, with the precision loss of the
    division by m! tracked through v_p(m!).

    a may be a PadicApprox or an exact int/Fraction (then no precision
    is lost). The result always satisfies |C(a, m)|_p <= 1.
    """
    m = _as_int(m, "m", 0)
    if isinstance(a, PadicApprox):
        p = a.prime
        if m == 0:
            return PadicApprox.from_rational(1, p)
        if a.exact_zero:
            return PadicApprox.zero(p)
        if a.valuation < 0:
            raise DomainError("binomial coefficient needs a p-adic integer argument")
        out_prec = a.abs_precision - factorial_vp(m, p)
        if out_prec <= 0:
            raise PrecisionExhausted(
                f"C(a, {m}) loses {factorial_vp(m, p)} digits; argument has only "
                f"{a.abs_precision}"
            )
        return PadicApprox.from_rational_abs(falling_binomial(a.rational_rep(), m), p, out_prec)
    if prime is None:
        raise RangeError("exact arguments need the prime passed explicitly")
    p = Prime(prime)
    a = as_fraction(a)
    if vp(a, p) < 0:
        raise DomainError("binomial coefficient needs a p-adic integer argument")
    return PadicApprox.from_rational(falling_binomial(a, m), p)  # exact zero for C = 0


# -- the exact sum distribution ------------------------------------------


@dataclass(frozen=True)
class BernoulliParams:
    """One two-valued trial: symbol 0 with probability q, symbol 1 with
    probability q' = 1 - q; both must be p-adic integers."""

    prime: Prime
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        object.__setattr__(self, "q", as_fraction(self.q))
        if vp(self.q, self.prime) < 0 or vp(1 - self.q, self.prime) < 0:
            raise DomainError(
                f"q and 1-q must be {self.prime}-adic integers, got q={self.q}"
            )

    @property
    def q_prime(self) -> Fraction:
        return 1 - self.q


def symmetric_params(prime) -> BernoulliParams:
    return BernoulliParams(Prime(prime), Fraction(1, 2))


class SumDistribution:
    """Distribution of S_n = number of 1s among n trials."""

    def __init__(self, n: int, params: BernoulliParams):
        self.n = _as_int(n, "n", 0)
        self.params = params

    def weight(self, j: int) -> Fraction:
        if not 0 <= _as_int(j, "j") <= self.n:
            return Fraction(0)
        q, qp = self.params.q, self.params.q_prime
        return comb(self.n, j) * qp**j * q ** (self.n - j)

    def weights(self) -> list[Fraction]:
        a, b = self.params.q.numerator, self.params.q.denominator
        den = b**self.n
        return [Fraction(w, den) for w in _residue_law(a, b, self.n, self.n + 1)]


def _residue_law(a: int, b: int, n: int, mod: int) -> list[int]:
    """Numerators N_r with P(S_n = r mod `mod`) = N_r / b**n, q = a/b.

    Residues above n carry no mass, so a modulus above n + 1 is lowered
    to n + 1, which keeps every j apart. The law is (a + (b-a)x)**n in
    Z[x]/(x**mod - 1). When mod**3 <= n it comes from `_split_law`, which
    powers one prime factor of mod at a time. Otherwise it is one walk
    over the n + 1 exact terms C(n,j) (b-a)**j a**(n-j), each derived from
    the last by one small multiplication and one exact small division,
    folded mod `mod`. The route depends only on n and mod; both give the
    same integers. A law that may hold more than MAX_LAW_BITS bits, which
    also caps its width at 92,682 entries, raises RangeError before any work.
    """
    mod = min(mod, n + 1)
    c = b - a
    bits = mod * n * (abs(a) + abs(c)).bit_length()
    refuse_over(bits, MAX_LAW_BITS, f"residue law mod {mod} over n={n} trials may hold {bits} bits")
    if mod**3 <= n:
        route, law = "split", _split_law(a, c, n, mod)
    else:
        route, law = "walk", _walk_law(a, c, n, mod)
    if LOGGER.isEnabledFor(logging.DEBUG):
        LOGGER.debug(
            "residue law mod %d over n=%d by %s: largest entry %d bits",
            mod, n, route, max(abs(v).bit_length() for v in law),
        )
    return law


def _walk_law(a: int, c: int, n: int, mod: int) -> list[int]:
    """(a + c x)**n mod x**mod - 1 by one walk over its n + 1 terms."""
    law = [0] * mod
    if a == 0:  # every trial gives 1: point mass at j = n
        law[n % mod] = c**n
        return law
    term = a**n
    for j in range(n + 1):
        law[j % mod] += term
        term = term * ((n - j) * c) // ((j + 1) * a)
    return law


def _split_law(a: int, c: int, n: int, mod: int) -> list[int]:
    """(a + c x)**n mod x**mod - 1, one prime factor of mod at a time.

    The law mod x - 1 is [(a + c)**n]. From the law F mod x**m - 1 to the
    law mod x**(pm) - 1: write x**(pm) - 1 = (x**m - 1) Psi with
    Psi = 1 + x**m + ... + x**((p-1)m), and power G = (a + c x)**n mod Psi.
    Psi's roots are the pm-th roots of unity zeta with zeta**m != 1, so
    G's entries grow like |a + c zeta|**n, at most (|a| + |c|)**n and
    often far less. Psi = p mod x**m - 1, so by CRT the law is G + u Psi,
    where u is F minus G folded mod x**m - 1, divided exactly by p.
    Larger primes go first, so the costliest step has the smallest degree.
    """
    law, m = [(a + c) ** n], 1
    for p in _prime_factors(mod):
        g = _power_mod_psi(a, c, n, p, m)
        u = [(law[r] - sum(g[r::m])) // p for r in range(m)]
        law = [v + u[k % m] for k, v in enumerate(g)] + u
        m *= p
    return law


def _power_mod_psi(a: int, c: int, n: int, p: int, m: int) -> list[int]:
    """(a + c x)**n mod Psi = 1 + x**m + ... + x**((p-1)m), by binary
    powering: O(((p-1)m)**2 log n) products."""
    deg, pm = (p - 1) * m, p * m
    g = [1] + [0] * (deg - 1)
    for bit in bin(n)[2:]:
        square = [0] * (pm + deg)
        for i, v in enumerate(g):
            if v:
                square[2 * i] += v * v
                v2 = v << 1
                for j in range(i + 1, deg):
                    square[i + j] += v2 * g[j]
        for k in range(pm, pm + deg):  # x**(pm) = 1
            square[k - pm] += square[k]
        for r in range(m):  # x**(deg + r) = -(x**r + x**(m + r) + ... )
            top = square[deg + r]
            for k in range(r, deg, m):
                square[k] -= top
        g = square[:deg]
        if bit == "1":
            top = c * g[-1]
            g = [a * g[0]] + [a * g[i] + c * g[i - 1] for i in range(1, deg)]
            for k in range(0, deg, m):
                g[k] -= top
    return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n with multiplicity, largest first."""
    factors, d = [], 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors[::-1]


def _residue_probability(params: BernoulliParams, n: int, mod: int, residues) -> Fraction:
    """P(S_n mod `mod` lies in `residues`), residues reduced mod `mod`,
    from one residue law (which is shorter when the modulus exceeds n + 1)."""
    a, b = params.q.numerator, params.q.denominator
    law = _residue_law(a, b, n, mod)
    return Fraction(sum(law[r] for r in residues if r < len(law)), b**n)


def ball_probability(params: BernoulliParams, n: int, depth: int, center: int) -> Fraction:
    """P(S_n in the ball of radius p**-depth around center): one entry of
    the residue law mod p**depth. That law comes from powering modulo
    the cyclotomic factors of x**(p**depth) - 1, one at a time, when
    p**(3 depth) <= n, and from one walk over the terms otherwise. The
    depth is cut as in event_residues, which keeps the ball on [0, n]."""
    return _residue_probability(params, n, *event_residues(params.prime, depth, center, "ball", n))


def sphere_probability(params: BernoulliParams, n: int, depth: int, center: int) -> Fraction:
    """P(v_p(S_n - center) == depth exactly): the depth-ball minus its
    child ball, i.e. the p - 1 other lifts of center mod p**(depth+1),
    read off one residue law."""
    return _residue_probability(params, n, *event_residues(params.prime, depth, center, "sphere", n))


def binomial_limit_weights(m: int) -> dict[int, Fraction]:
    """The limit distribution along N_k -> m: point masses C(m,r)/2**m
    at the atoms r = 0..m."""
    m = _as_int(m, "m", 0)
    return {r: Fraction(comb(m, r), 2**m) for r in range(m + 1)}


# -- convergence traces ---------------------------------------------------

VERDICT_CONVERGING = "Converging"
VERDICT_INCONCLUSIVE = "Inconclusive"


class TraceRow(NamedTuple):
    k: int
    n: int
    value: Fraction
    distance_exponent: object  # v_p(value - target); math.inf when exact


_TRACE_COLUMNS = (("k", INT), ("N_k", INT), ("value", RATIONAL), ("vp_to_limit", EXPONENT))


@dataclass
class ConvergenceTrace:
    tag: str
    rows: tuple[TraceRow, ...]
    target: Fraction
    verdict: str
    params: dict = field(default_factory=dict)

    @property
    def final_valuation(self):
        return self.rows[-1].distance_exponent

    def report_lines(self, fmt: str) -> list[str]:
        """The trace rows; in JSON then {theorem, params, verdict, final_valuation}."""
        summary = {
            "theorem": self.tag,
            "params": self.params,
            "verdict": self.verdict,
            "final_valuation": json_exponent(self.final_valuation),
        }
        return table_lines(_TRACE_COLUMNS, self.rows, fmt, summary)


def _distance_trace(tag, selector, terms, value_of, target, threshold, **params) -> ConvergenceTrace:
    """value_of(N) against target along the selector's terms, at the selector's prime. It
    converges when the distances never fall over the second half of the rows (at least the
    last two) and end at threshold or above. The params are that prime, the selector, the
    threshold and the caller's own keys."""
    if not terms:
        raise InsufficientData("the selector yields no usable terms")
    p, threshold = selector.prime, _as_int(threshold, "threshold")
    rows = []
    for k, n in enumerate(terms, start=1):
        value = value_of(n)
        rows.append(TraceRow(k, n, value, vp(value - target, p)))
    tail = [r.distance_exponent for r in rows[min(len(rows) - 2, len(rows) // 2):]]
    converging = len(rows) >= 2 and all(x <= y for x, y in zip(tail, tail[1:])) and tail[-1] >= threshold
    verdict = VERDICT_CONVERGING if converging else VERDICT_INCONCLUSIVE
    params = dict(prime=int(p), selector=selector.describe(), threshold=threshold, **params)
    return ConvergenceTrace(tag, tuple(rows), target, verdict, params)


def _check_selector_prime(selector: SequenceSelector, p) -> None:
    if selector.prime != p:
        raise RangeError(f"the selector runs over {selector.prime}, the trace over {p}")


def check_ball_window(p, m: int, r: int, depth: int) -> None:
    """Side conditions for the binomial ball limit: r must be one of the
    atoms 0..m and the ball depth must separate them, i.e. depth >= s
    for some s with m <= p**s - 1. The edge case m == p additionally
    allows depth 1 at the interior atoms 1..p-1."""
    p = Prime(p)
    m, r, depth = _as_int(m, "m"), _as_int(r, "r"), _as_int(depth, "depth")
    if m < 0 or not 0 <= r <= m:
        raise HypothesisViolation(f"center r={r} is not an atom of the limit (0..{m})")
    s_min = digit_count(m, p)  # least s with m <= p**s - 1; m = 0 admits depth 0
    if depth >= s_min:
        return
    if m == p and 1 <= r <= p - 1 and depth >= 1:
        return
    raise HypothesisViolation(
        f"ball depth {depth} cannot separate the atoms 0..{m} (need >= {s_min})"
    )


def binomial_ball_trace(
    prime,
    m: int,
    r: int,
    depth: int,
    *,
    kmax: int = 6,
    t: int = 1,
    selector: SequenceSelector | None = None,
    threshold: int = 4,
) -> ConvergenceTrace:
    """Exact trace of P(S_{N_k} in ball(r, depth)) against the limit
    C(m, r)/2**m along N_k -> m (default affine selector m + t*p**k).

    The standard window requires m <= p**s - 1 with depth >= s; anything
    else raises HypothesisViolation before any computation. A selector
    over another prime raises RangeError before any law is built.
    """
    p = Prime(prime)
    check_ball_window(p, m, r, depth)
    t = _as_int(t, "t", 1)
    if selector is None:
        selector = SequenceSelector(p, "affine", target=Fraction(m), t=t)
    _check_selector_prime(selector, p)
    params = symmetric_params(p)
    terms = selector.terms(kmax)
    # the rows come first, so a law too wide for them is refused before 2**m is built
    values = {n: ball_probability(params, n, depth, r) for n in terms}
    return _distance_trace(
        "binomial-ball-limit", selector, terms, values.__getitem__,
        Fraction(comb(m, r), 2**m), threshold, m=m, r=r, l=depth,
    )


def prime_edge_trace(
    prime,
    r: int,
    depth: int,
    *,
    kmax: int = 6,
    t: int = 1,
    threshold: int = 4,
) -> ConvergenceTrace:
    """The m = p edge of the ball limit: N_k -> p, limit C(p, r)/2**p
    for r = 0..p. The boundary atoms r = 0 and r = p need ball depth
    >= 2; the interior atoms work at depth 1 (see check_ball_window)."""
    p = int(Prime(prime))
    trace = binomial_ball_trace(p, p, r, depth, kmax=kmax, t=t, threshold=threshold)
    return replace(trace, tag="prime-edge-ball-limit")


def divisibility_balance_traces(
    prime, *, kmax: int = 5, t: int = 1, threshold: int = 4
) -> tuple[ConvergenceTrace, ConvergenceTrace]:
    """Along N_k = 1 + t*p**k, both P(p divides S) and its complement
    converge to 1/2. P(p divides S) is the ball of radius 1/p around 0,
    one ball probability per N_k, and the complement is 1 minus it."""
    p = Prime(prime)
    selector = SequenceSelector(p, "affine", target=Fraction(1), t=t)
    terms = selector.terms(kmax)
    # not BernoulliParams, which refuses q = 1/2 at p = 2, where P(2 divides S) is exactly 1/2
    params = SimpleNamespace(prime=p, q=Fraction(1, 2))
    divisible = {n: ball_probability(params, n, 1, 0) for n in terms}
    return tuple(
        _distance_trace("divisibility-balance", selector, terms, value_of, Fraction(1, 2), threshold, event=event)
        for event, value_of in (("divisible", divisible.__getitem__), ("not-divisible", lambda n: 1 - divisible[n]))
    )


# -- Mahler coefficients and the law of large numbers ---------------------


def charfun_series(params: BernoulliParams, a, order: int) -> FormalSeries:
    """The moment series E exp(z*S) = (1 + q'(e**z - 1))**a, exact
    through the truncation order; a is a natural count of trials or any
    p-adic integer exponent."""
    base = one(order) + (exp_series(order) - one(order)).scale(params.q_prime)
    a = as_fraction(a)
    if vp(a, params.prime) < 0:
        raise DomainError("exponent must be a p-adic integer")
    return base.padic_power(a)


def mahler_lambda(params: BernoulliParams, a, m: int):
    """The m-th Mahler coefficient (1-q)**m * C(a, m) of the limit law;
    exact Fraction for exact a, PadicApprox for approximate a."""
    m = _as_int(m, "m", 0)
    if isinstance(a, PadicApprox):
        return padic_binomial_coeff(a, m).mul_rational(params.q_prime**m)
    return mahler_row(params, a, m)[m]


def mahler_row(params: BernoulliParams, a, mmax: int) -> list[Fraction]:
    """The Mahler coefficients (1-q)**m * C(a, m) of the law of S_a for
    m = 0..mmax, exact a, as one running product."""
    return _mahler_rows(params, [a], mmax)[0]


def _mahler_rows(params: BernoulliParams, exponents, mmax: int) -> list[list[Fraction]]:
    """mahler_row of each exponent. Rows that together may hold more than
    MAX_LAW_BITS bits are refused before any is built: for q' = u/w and
    a = s/d, term m is u**m s(s - d)...(s - (m-1)d) / (w**m d**m m!), at most
    m times the bits of u, w, |s| + d M and d M, where M = mmax, or
    min(mmax, a) for a natural a, whose later terms vanish."""
    mmax, qp = _as_int(mmax, "mmax", 0), params.q_prime
    exponents = [as_fraction(a) for a in exponents]
    if any(vp(a, params.prime) < 0 for a in exponents):
        raise DomainError("exponent must be a p-adic integer")
    bits, uw = 0, qp.numerator.bit_length() + qp.denominator.bit_length()
    for a in exponents:
        s, d = a.numerator, a.denominator
        top = min(mmax, s) if d == 1 and s >= 0 else mmax
        bits += top * (top + 1) // 2 * (uw + (abs(s) + d * top).bit_length() + (d * top).bit_length())
    refuse_over(bits, MAX_LAW_BITS, f"Mahler rows through m={mmax} may hold {bits} bits")
    return [list(islice(binomial_terms(a, qp), mmax + 1)) for a in exponents]


def empirical_mahler_row(params: BernoulliParams, n: int, mmax: int) -> list[Fraction]:
    """E[C(S_n, m)] for m = 0..mmax by the closed form (1-q)**m C(n, m):
    C(S_n, m) counts the m-subsets of trials that all give 1."""
    return mahler_row(params, _as_int(n, "n", 0), mmax)


def empirical_mahler(params: BernoulliParams, n: int, m: int) -> Fraction:
    """E[C(S_n, m)], exact; equals (1-q)**m C(n, m)."""
    m = _as_int(m, "m", 0)
    return empirical_mahler_row(params, n, m)[m]


def mahler_lln_traces(
    params: BernoulliParams,
    selector: SequenceSelector,
    mmax: int,
    kmax: int,
    *,
    threshold: int = 4,
) -> dict[int, ConvergenceTrace]:
    """Law of large numbers in Mahler coordinates: for each m the
    empirical coefficient along N_k converges p-adically to
    (1-q)**m C(a, m), a the selector's target. Rows that together may hold
    more than MAX_LAW_BITS bits are refused before any is built."""
    if selector.target is None:
        raise RangeError("the selector must carry the limit target a")
    _check_selector_prime(selector, params.prime)
    a = selector.target
    terms = selector.terms(kmax)
    targets, *rows = _mahler_rows(params, [a, *terms], mmax)
    rows = dict(zip(terms, rows))
    q, a = format_rational(params.q), format_rational(a)
    return {
        m: _distance_trace(
            "mahler-lln", selector, terms, lambda n, m=m: rows[n][m], targets[m], threshold, q=q, a=a, m=m
        )
        for m in range(len(targets))
    }


# -- central-limit series --------------------------------------------------


def clt_series(a, order: int, prime=None) -> FormalSeries:
    """(cosh(z/sqrt(a)))**a through the truncation order, built from the
    even-power expansion so no square root is ever taken. Natural a >= 1
    needs no prime; other exponents must be p-adic units (the even
    coefficients divide by a**k)."""
    order = _as_int(order, "truncation order", 0)
    if order % 2 != 0:
        raise RangeError("truncation order must be even")
    a = as_fraction(a)
    if prime is not None:
        prime = Prime(prime)
    if a.denominator != 1 or a < 1:
        if prime is None:
            raise RangeError("non-natural exponents need the prime for the unit check")
        if a == 0 or vp(a, prime) != 0:
            raise DomainError("exponent must be a p-adic unit")
    return cosh_scaled_sq(a, order).padic_power(a)


@dataclass(frozen=True)
class MahlerSeq:
    """Mahler coefficients lambda_0..lambda_M of a characteristic
    series, from the substitution z = log(1 + w)."""

    coefficients: tuple[Fraction, ...]

    def max_abs(self, prime) -> PadicAbs:
        p = Prime(prime)
        best = PadicAbs.zero(p)
        for c in self.coefficients:
            cand = PadicAbs.from_valuation(p, vp(c, p))
            if cand > best:
                best = cand
        return best


def stirling_first_rows(nmax: int):
    """Yield the rows [s(n, 0), ..., s(n, n)] of the signed Stirling
    numbers of the first kind for n = 0..nmax, as exact integers:
    s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)."""
    row = [1]
    yield row
    for n in range(1, nmax + 1):
        row = [left - (n - 1) * right for left, right in zip([0] + row, row + [0])]
        yield row


def charfun_to_mahler(phi: FormalSeries, count: int) -> MahlerSeq:
    """Invert a characteristic series phi(z) (phi(0) = 1) into Mahler
    coefficients: the w-expansion of phi(log(1 + w)).

    Since z**k/k! = sum_n s(n, k) w**n/n! for z = log(1 + w), the n-th
    coefficient is sum_k s(n, k) k! c_k / n!, O(count**2) integer work
    over one common denominator."""
    if phi.coefficient(0) != 1:
        raise DomainError("characteristic series must have constant term 1")
    count = _as_int(count, "count", 0)
    if count > phi.order:
        raise OrderError(f"asked for {count} coefficients from order {phi.order}")
    scaled = [c * factorial(k) for k, c in enumerate(phi.coeffs[: count + 1])]
    nums, den = _numerators(scaled)
    return MahlerSeq(tuple(
        Fraction(sum(map(mul, row, nums)), den * factorial(n))
        for n, row in enumerate(stirling_first_rows(count))
    ))


BOUND_CHECK_NOTE = "finite coefficient check; evidence on [0, count], not a proof"


@dataclass
class MahlerBoundReport:
    bounded: bool
    max_abs: PadicAbs
    seq: MahlerSeq
    prime: Prime
    count: int
    note: str = BOUND_CHECK_NOTE


def clt_mahler_bound_check(prime, count: int = 30) -> MahlerBoundReport:
    """Finite desk check that the n = 1 central-limit series cosh z has
    Mahler coefficients of p-adic absolute value <= 1 (they are 1, 0 and
    +-1/2). A bounded report is evidence on [0, count], not a theorem
    about the whole tail."""
    p, count = Prime(prime), _as_int(count, "count", 0)
    if p == 2:
        raise DomainError("the half-integer coefficients are unbounded 2-adically")
    order = count if count % 2 == 0 else count + 1
    seq = charfun_to_mahler(clt_series(1, order), count)
    max_abs = seq.max_abs(p)
    return MahlerBoundReport(max_abs <= PadicAbs.one(p), max_abs, seq, p, count)


# -- sphere randomness test -------------------------------------------------


class CheckpointRow(NamedTuple):
    k: int
    n: int
    sum_value: int
    hit: bool
    event_prob: Fraction
    prob_exponent: object  # v_p of the event probability


_CHECKPOINT_COLUMNS = (
    ("k", INT), ("N_k", INT), ("S", INT), ("hit", FLAG), ("prob", RATIONAL), ("vp_prob", EXPONENT)
)


@dataclass
class RandomnessResult:
    verdict: str  # PersistentHit | Rejected | NotRejected
    k_eps: int
    first_hit_k: int | None
    rows: tuple[CheckpointRow, ...]
    eps_exponent: int
    mode: str
    params: dict = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        return self.verdict in ("PersistentHit", "Rejected")

    def report_lines(self, fmt: str) -> list[str]:
        """The checkpoint rows; in JSON then {verdict, k_eps, first_hit_k, params}."""
        summary = dict(
            verdict=self.verdict, k_eps=self.k_eps, first_hit_k=self.first_hit_k, params=self.params
        )
        return table_lines(_CHECKPOINT_COLUMNS, self.rows, fmt, summary)


def check_tested_depth(depth: int) -> None:
    """Side condition of the sphere randomness test (depth >= 1)."""
    if _as_int(depth, "depth") < 1:
        raise HypothesisViolation("the tested event needs depth >= 1")


def sphere_randomness_test(
    collective: Collective,
    prime,
    depth: int,
    center: int,
    selector: SequenceSelector,
    eps_exponent: int,
    kmax: int,
    *,
    kmin: int = 1,
    mode: str = "sphere",
) -> RandomnessResult:
    """Reject a bit sequence whose checkpoint sums keep realizing an
    exactly-small event.

    At each checkpoint N_k the tested event is, in "sphere" mode,
    v_p(S - center) == depth exactly, or in "residue" mode a nonzero
    residue below p of S - center mod p**depth. k_eps is the first k
    from which every computed event probability has |P|_p < p**-E;
    hits at k >= k_eps reject (every k hitting upgrades the verdict to
    PersistentHit). A selector with fewer than kmax terms raises
    InsufficientData. If the window never reaches the significance level,
    DomainError: the test cannot run at this eps.
    """
    p = Prime(prime)
    check_tested_depth(depth)
    if not set(collective.alphabet) <= {"0", "1"}:
        raise RangeError("the sum test runs on 0/1 sequences")
    kmin = _as_int(kmin, "kmin", 1)
    kmax, eps_exponent = _as_int(kmax, "kmax", kmin), _as_int(eps_exponent, "eps_exponent")
    params = symmetric_params(p)
    all_terms = selector.terms(kmax)
    mod, residues = event_residues(p, depth, center, mode, max(all_terms, default=0))
    if len(all_terms) < kmax:
        raise InsufficientData("selector yields fewer usable terms than kmax")
    rows = []
    for k in range(kmin, kmax + 1):
        n = all_terms[k - 1]
        s = collective.count("1", n)
        prob = _residue_probability(params, n, mod, residues)
        rows.append(CheckpointRow(k, n, s, s % mod in residues, prob, vp(prob, p)))
    k_eps = None
    for i, row in enumerate(rows):
        if all(r.prob_exponent > eps_exponent for r in rows[i:]):
            k_eps = row.k
            break
    if k_eps is None:
        raise DomainError(
            f"significance p**-{eps_exponent} never reached on k in [{kmin}, {kmax}]"
        )
    late = [r for r in rows if r.k >= k_eps]
    late_hits = [r.k for r in late if r.hit]
    if late_hits and len(late_hits) == len(late):
        verdict = "PersistentHit"
    elif late_hits:
        verdict = "Rejected"
    else:
        verdict = "NotRejected"
    meta = {
        "prime": int(p),
        "l": depth,
        "r": center,
        "selector": selector.describe(),
        "eps_exponent": eps_exponent,
        "mode": mode,
        "kmin": kmin,
        "kmax": kmax,
    }
    return RandomnessResult(
        verdict,
        k_eps,
        late_hits[0] if late_hits else None,
        tuple(rows),
        eps_exponent,
        mode,
        meta,
    )


def _checkpoint_chain(prime, depth, center, terms, mode, step, start) -> tuple[dict, int]:
    """Numerators of a tagged chain over the checkpoints: (tag -> numerator
    over 2**N, N), N the last checkpoint.

    A state is (partial sum mod the event's modulus, tag). The tag starts
    at `start`, and `step(tag, i, hit)` gives it after checkpoint i, where
    `hit` says whether that checkpoint's sum lies in the event. The sums
    only matter modulo the event's modulus, so the residues stay few
    whatever the checkpoint sizes; the tags decide the chain's width. The
    event is cut for the last checkpoint (see event_residues). A step raises
    RangeError before it runs if it could make more than MAX_LAW_WIDTH
    states (at most the states times the increments its gap can add, and
    at most the modulus times the tags it can give), or cost more than
    MAX_CHAIN_COST: the states times the increments times the products'
    bit length, n at a middle checkpoint and the gap at the last one,
    which only adds up the increments that hit.
    """
    terms = _checkpoints(terms)
    mod, residues = event_residues(prime, depth, center, mode, max(terms, default=0))
    chain: dict = {start: {0: 1}}  # tag -> residue -> numerator
    pos = 0
    for i, n in enumerate(terms):
        gap = n - pos
        last = i == len(terms) - 1
        after = {tag: (step(tag, i, False), step(tag, i, True)) for tag in chain}
        states, increments = sum(map(len, chain.values())), min(mod, gap + 1)
        width = min(states * increments, mod * len({t for pair in after.values() for t in pair}))
        refuse_over(width, MAX_LAW_WIDTH, f"checkpoint {i + 1} may reach {width} chain states")
        cost = states * increments * (gap if last else n)
        refuse_over(cost, MAX_CHAIN_COST, f"checkpoint {i + 1} may take {cost} bit operations")
        moves = [(c, cnt) for c, cnt in enumerate(_residue_law(1, 2, gap, mod)) if cnt]
        nxt: dict = defaultdict(lambda: defaultdict(int))
        if last:
            # after the last checkpoint only the tag matters, so each
            # residue needs just the mass of the increments that hit
            hit_mass: dict[int, int] = {}
            for tag, law in chain.items():
                miss, hit = (nxt[t] for t in after[tag])
                for res, val in law.items():
                    if res not in hit_mass:
                        hit_mass[res] = sum(cnt for c, cnt in moves if (res + c) % mod in residues)
                    mass = val * hit_mass[res]
                    hit[0] += mass
                    miss[0] += (val << gap) - mass
        else:
            for tag, law in chain.items():
                miss, hit = (nxt[t] for t in after[tag])
                for res, val in law.items():
                    for c, cnt in moves:
                        nres = (res + c) % mod
                        (hit if nres in residues else miss)[nres] += val * cnt
        chain = {tag: law for tag, law in nxt.items() if law}
        pos = n
    return {tag: sum(law.values()) for tag, law in chain.items()}, pos


def checkpoint_pattern_distribution(
    prime, depth: int, center: int, terms, mode: str = "sphere"
) -> dict[tuple[bool, ...], Fraction]:
    """Exact joint law of the hit indicators at the checkpoints, under
    the symmetric null: the checkpoint chain tagged with the pattern so
    far. It has up to 2**K patterns for K checkpoints, so a chain over
    the limits of _checkpoint_chain raises RangeError."""
    numerators, n = _checkpoint_chain(
        prime, depth, center, terms, mode, lambda pat, i, hit: pat + (hit,), ()
    )
    den = 2**n
    return {pat: Fraction(val, den) for pat, val in numerators.items() if val}


def hit_union_probability(
    prime, depth: int, center: int, terms, from_index: int = 0, mode: str = "sphere"
) -> Fraction:
    """P(some checkpoint at position >= from_index hits), exactly: the
    checkpoint chain tagged only with whether such a hit has happened, so
    it holds at most two states per residue and costs O(K mod**2)
    products for K checkpoints, within MAX_CHAIN_COST per step. A
    from_index past the last checkpoint gives 0, the probability of an
    empty union."""
    from_index = _as_int(from_index, "from_index", 0)
    numerators, n = _checkpoint_chain(
        prime, depth, center, terms, mode,
        lambda seen, i, hit: seen or (hit and i >= from_index), False,
    )
    return Fraction(numerators.get(True, 0), 2**n)
