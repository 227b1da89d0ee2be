"""Exact Bernoulli-sum laws, convergence traces, Mahler coefficients,
and the checkpoint randomness test."""

import json
import logging
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicprob import limits
from padicprob.errors import (
    MAX_LAW_BITS,
    DomainError,
    HypothesisViolation,
    InsufficientData,
    OrderError,
    PrecisionExhausted,
    RangeError,
)
from padicprob.frequency import (
    Collective,
    SequenceSelector,
    checkpoint_forcing_bits,
    event_residues,
)
from padicprob.limits import (
    BOUND_CHECK_NOTE,
    VERDICT_CONVERGING,
    VERDICT_INCONCLUSIVE,
    BernoulliParams,
    SumDistribution,
    _residue_law,
    _residue_probability,
    ball_probability,
    binom,
    binom_vp,
    binomial_ball_trace,
    binomial_limit_weights,
    charfun_series,
    charfun_to_mahler,
    check_ball_window,
    checkpoint_pattern_distribution,
    clt_mahler_bound_check,
    clt_series,
    divisibility_balance_traces,
    empirical_mahler,
    empirical_mahler_row,
    hit_union_probability,
    mahler_lambda,
    mahler_lln_traces,
    mahler_row,
    padic_binomial_coeff,
    prime_edge_trace,
    sphere_probability,
    sphere_randomness_test,
    stirling_first_rows,
    symmetric_params,
)
from padicprob.padic import PadicAbs, PadicApprox, abs_p, factorial_vp, falling_binomial, vp
from padicprob.series import FormalSeries, cosh_scaled_sq, exp_series, log1p_series

SYM3 = symmetric_params(3)
WIDE = 18446744073709551557  # the largest prime below 2**64


def _no_law(*args):
    raise AssertionError("a law was built")


def _carry_count(n, r, p):
    """Kummer's theorem: v_p(C(n, r)) is the number of carries when
    adding r and n - r in base p."""
    a, b = r, n - r
    carries = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


class TestBinom:
    def test_spots(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1

    def test_range(self):
        for n, r in ((3, 5), (3, -1), (-1, 0)):
            with pytest.raises(RangeError):
                binom(n, r)
            with pytest.raises(RangeError):
                binom_vp(n, r, 3)

    @given(st.sampled_from([2, 3, 5, 7, 97]), st.integers(0, 10**40), st.data())
    def test_legendre_matches_carry_count(self, p, n, data):
        r = data.draw(st.integers(0, n))
        assert binom_vp(n, r, p) == _carry_count(n, r, p)

    def test_carry_count_matches_factorization(self):
        for p in (2, 3, 5):
            for n in range(61):
                for r in range(n + 1):
                    assert binom_vp(n, r, p) == vp(Fraction(comb(n, r)), p)


class TestPadicBinomialCoeff:
    def test_exact_arguments(self):
        for m in range(6):
            assert padic_binomial_coeff(-1, m, prime=3).congruent_to((-1) ** m)
        assert padic_binomial_coeff(Fraction(7), 0, prime=5).rational_rep() == 1
        assert padic_binomial_coeff(2, 5, prime=3).exact_zero
        assert padic_binomial_coeff(PadicApprox.zero(3), 5).exact_zero

    def test_integrality(self):
        rng = random.Random(2)
        for _ in range(120):
            num = rng.randint(-50, 50)
            den = rng.choice([1, 2, 4, 5, 7, 8])
            m = rng.randint(0, 8)
            c = padic_binomial_coeff(Fraction(num, den), m, prime=3)
            if not c.exact_zero:
                assert vp(c.rational_rep(), 3) >= 0

    def test_precision_loss_through_factorial(self):
        a = PadicApprox.from_rational_abs(Fraction(1, 2), 3, 6)
        c = padic_binomial_coeff(a, 9)
        assert c.abs_precision == 6 - factorial_vp(9, 3)
        assert c.congruent_to(falling_binomial(Fraction(1, 2), 9))
        with pytest.raises(PrecisionExhausted):
            padic_binomial_coeff(PadicApprox.from_rational_abs(Fraction(1, 2), 3, 4), 9)

    def test_rejects(self):
        with pytest.raises(DomainError):
            padic_binomial_coeff(Fraction(1, 3), 2, prime=3)
        with pytest.raises(DomainError):
            padic_binomial_coeff(PadicApprox.from_rational(Fraction(1, 3), 3), 2)
        with pytest.raises(ValueError):
            padic_binomial_coeff(Fraction(1, 2), 2)
        with pytest.raises(RangeError):
            padic_binomial_coeff(1, -1, prime=3)


class TestSumDistribution:
    def test_symmetric_n4(self):
        d = SumDistribution(4, SYM3)
        assert d.weights() == [Fraction(c, 16) for c in (1, 4, 6, 4, 1)]
        assert d.weight(5) == 0
        assert d.weight(-1) == 0

    def test_weights_consistent_and_normalized(self):
        for q in (Fraction(1, 2), Fraction(2, 5), Fraction(0), Fraction(1), Fraction(3)):
            params = BernoulliParams(3, q)
            for n in (0, 1, 5, 9):
                d = SumDistribution(n, params)
                ws = d.weights()
                assert ws == [d.weight(j) for j in range(n + 1)]
                assert sum(ws) == 1

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            BernoulliParams(3, Fraction(1, 3))
        with pytest.raises(ValueError):
            SumDistribution(-1, SYM3)


def _direct_law(a, b, n, mod):
    """The residue law numerators straight from C(n, j), no recurrence."""
    law = [0] * mod
    for j in range(n + 1):
        law[j % mod] += comb(n, j) * (b - a) ** j * a ** (n - j)
    return law


@st.composite
def _law_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    b = draw(st.integers(1, 12).filter(lambda b: b % p))
    q = Fraction(draw(st.integers(-b, 2 * b)), b)  # p-integral, 0 and 1 included
    n = draw(st.integers(0, 200))
    mod = p ** draw(st.integers(0, 3))
    return p, q, n, mod


class TestResidueLaw:
    @settings(max_examples=150, deadline=None)
    @given(_law_cases())
    def test_folds_the_sum_distribution(self, case):
        p, q, n, mod = case
        a, b = q.numerator, q.denominator
        law = _residue_law(a, b, n, mod)
        folded = [0] * mod
        for j, w in enumerate(SumDistribution(n, BernoulliParams(p, q)).weights()):
            folded[j % mod] += w * b**n
        # residues above n carry no mass, so the law lists at most n + 1 of them
        assert law == folded[: n + 1]
        assert not any(folded[n + 1 :])
        assert sum(law) == b**n

    # the route is the split by prime factors when mod**3 <= n and the walk
    # otherwise; each pair sits on both sides of that rule
    @pytest.mark.parametrize(
        "a, b, n, mod",
        [
            (1, 2, 27, 3), (1, 2, 26, 3),
            (1, 3, 125, 5), (1, 3, 124, 5),
            (2, 5, 343, 7), (2, 5, 342, 7),
            (-1, 2, 64, 4), (3, 2, 63, 4),
            (0, 1, 729, 9), (0, 1, 728, 9),
            (1, 1, 729, 9), (1, 1, 728, 9),
            (1, 2, 1000, 1), (1, 2, 0, 1),
            (1, 2, 216, 6), (1, 2, 215, 6),
            (2, 3, 1000, 10), (2, 3, 999, 10),
            (-1, 4, 1728, 12), (5, 4, 1727, 12),
        ],
    )
    def test_both_routes_match_binomials(self, a, b, n, mod):
        assert _residue_law(a, b, n, mod) == _direct_law(a, b, n, mod)

    # n at or above mod**3, so the split runs: prime powers and composites
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 12)),
        st.integers(1, 12).flatmap(lambda b: st.tuples(st.integers(-b, 2 * b), st.just(b))),
        st.integers(0, 40),
    )
    def test_split_matches_binomials(self, mod, q, extra):
        a, b = q  # q = a/b in [-1, 2], 0 and 1 included
        n = mod**3 + extra
        assert _residue_law(a, b, n, mod) == _direct_law(a, b, n, mod)

    def test_debug_log_names_the_route(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="padicprob.limits"):
            assert _residue_law(1, 2, 27, 3) == [44739242, 44739243, 44739243]
            _residue_law(1, 2, 26, 3)
        assert [r.getMessage() for r in caplog.records] == [
            "residue law mod 3 over n=27 by split: largest entry 26 bits",
            "residue law mod 3 over n=26 by walk: largest entry 25 bits",
        ]

    def test_bit_budget(self):
        # mod * n * bit_length(|a| + |b - a|) may reach MAX_LAW_BITS but not pass
        # it; a = 0, b = 1 is a point mass of 1, cheap at any n
        assert MAX_LAW_BITS == 2**33
        assert _residue_law(0, 1, MAX_LAW_BITS // 2, 2) == [1, 0]
        with pytest.raises(RangeError, match="more than the limit of 8589934592"):
            _residue_law(0, 1, MAX_LAW_BITS // 2 + 1, 2)
        with pytest.raises(RangeError, match=r"mod 1 over n=4294967297 trials may hold 8589934594 bits"):
            _residue_law(1, 2, 2**32 + 1, 1)


class TestBallProbability:
    # independent route: enumerate every bit string outright
    def test_against_exhaustive_enumeration(self):
        for n in (1, 4, 7, 10):
            counts = Counter(bin(x).count("1") for x in range(2**n))
            for depth in (0, 1, 2):
                mod = 3**depth
                for c in range(mod):
                    expected = Fraction(
                        sum(v for j, v in counts.items() if j % mod == c), 2**n
                    )
                    assert ball_probability(SYM3, n, depth, c) == expected

    def test_against_weight_sums(self):
        params = BernoulliParams(3, Fraction(2, 5))
        for n in (3, 6, 11):
            d = SumDistribution(n, params)
            for depth in (1, 2):
                mod = 3**depth
                for c in range(mod):
                    expected = sum(
                        (d.weight(j) for j in range(c, n + 1, mod)), Fraction(0)
                    )
                    assert ball_probability(params, n, depth, c) == expected

    def test_hand_values(self):
        assert ball_probability(SYM3, 4, 1, 1) == Fraction(5, 16)
        assert ball_probability(SYM3, 4, 1, 0) == Fraction(5, 16)
        assert ball_probability(SYM3, 4, 1, 2) == Fraction(3, 8)
        assert ball_probability(SYM3, 4, 0, 0) == 1
        assert sphere_probability(SYM3, 4, 1, 0) == Fraction(1, 4)

    def test_point_masses(self):
        allones = BernoulliParams(3, Fraction(0))
        assert ball_probability(allones, 7, 2, 7) == 1
        assert ball_probability(allones, 7, 2, 6) == 0
        allzeros = BernoulliParams(3, Fraction(1))
        assert ball_probability(allzeros, 7, 2, 0) == 1
        assert ball_probability(allzeros, 7, 2, 3) == 0

    def test_residues_partition(self):
        for depth in (1, 2):
            mod = 3**depth
            total = sum(ball_probability(SYM3, 9, depth, c) for c in range(mod))
            assert total == 1

    def test_depth_check(self):
        with pytest.raises(ValueError):
            ball_probability(SYM3, 4, -1, 0)

    # a ball far narrower than the spread of S holds at most one atom
    def test_balls_deeper_than_n(self):
        assert ball_probability(SYM3, 10, 40, 3) == Fraction(comb(10, 3), 2**10)
        assert ball_probability(SYM3, 10, 40, 11) == 0
        assert sphere_probability(SYM3, 10, 40, 3) == 0
        assert sphere_probability(SYM3, 10, 39, 3 - 2 * 3**39) == Fraction(comb(10, 3), 2**10)


class TestLimitWeights:
    def test_spots(self):
        assert binomial_limit_weights(0) == {0: Fraction(1)}
        assert binomial_limit_weights(2) == {
            0: Fraction(1, 4),
            1: Fraction(1, 2),
            2: Fraction(1, 4),
        }
        assert sum(binomial_limit_weights(7).values()) == 1
        with pytest.raises(RangeError):
            binomial_limit_weights(-1)


def _looped_ball_window(p, m, r, depth):
    # the former s_min loop of check_ball_window, kept as its oracle: the
    # refusal message (carrying s_min), or None where the window is accepted
    if m < 0 or not 0 <= r <= m:
        return f"center r={r} is not an atom of the limit (0..{m})"
    s_min = 0
    while p**s_min - 1 < m:
        s_min += 1
    if depth >= s_min or (m == p and 1 <= r <= p - 1 and depth >= 1):
        return None
    return f"ball depth {depth} cannot separate the atoms 0..{m} (need >= {s_min})"


class TestBallWindow:
    def test_accepts(self):
        check_ball_window(3, 2, 1, 1)
        check_ball_window(3, 0, 0, 0)
        check_ball_window(3, 10, 4, 3)  # 10 <= 3**3 - 1
        check_ball_window(3, 3, 1, 1)  # m == p interior edge

    def test_rejects(self):
        with pytest.raises(HypothesisViolation):
            check_ball_window(3, 2, 1, 0)
        with pytest.raises(HypothesisViolation):
            check_ball_window(3, 2, 3, 1)  # r beyond the atoms
        with pytest.raises(HypothesisViolation):
            check_ball_window(3, 10, 4, 2)  # 3**2 - 1 < 10
        with pytest.raises(HypothesisViolation):
            check_ball_window(3, 3, 0, 1)  # boundary atom of m == p

    @given(st.sampled_from([2, 3, 5, 7, 97]), st.integers(-1, 400), st.data())
    def test_matches_loop(self, p, m, data):
        r = data.draw(st.integers(-1, m + 1))
        depth = data.draw(st.integers(0, 10))
        try:
            check_ball_window(p, m, r, depth)
            message = None
        except HypothesisViolation as exc:
            message = str(exc)
        assert message == _looped_ball_window(p, m, r, depth)


class TestBallTraces:
    def test_frozen_depth1(self):
        t = binomial_ball_trace(3, 2, 1, 1, kmax=6)
        assert t.target == Fraction(1, 2)
        assert [r.n for r in t.rows] == [2 + 3**k for k in range(1, 7)]
        assert t.rows[0].value == Fraction(5, 16)
        assert t.rows[1].value == Fraction(341, 1024)
        assert [r.distance_exponent for r in t.rows] == [1, 2, 3, 4, 5, 6]
        assert t.verdict == VERDICT_CONVERGING
        assert t.final_valuation == 6

    def test_frozen_depth2_and_r0(self):
        t2 = binomial_ball_trace(3, 2, 1, 2, kmax=6)
        assert [r.distance_exponent for r in t2.rows] == [0, 1, 2, 3, 4, 5]
        assert t2.verdict == VERDICT_CONVERGING
        t0 = binomial_ball_trace(3, 2, 0, 1, kmax=6)
        assert t0.target == Fraction(1, 4)
        assert [r.distance_exponent for r in t0.rows] == [1, 2, 3, 4, 5, 6]

    def test_trivial_target(self):
        t = binomial_ball_trace(3, 0, 0, 0, kmax=4)
        assert all(r.value == 1 for r in t.rows)
        assert all(r.distance_exponent == math.inf for r in t.rows)
        assert t.verdict == VERDICT_CONVERGING

    def test_t_below_one_refused_with_any_selector(self):
        given_selector = SequenceSelector(3, "affine", target=Fraction(2), t=1)
        for selector in (None, given_selector):
            with pytest.raises(RangeError, match="t must be a natural"):
                binomial_ball_trace(3, 2, 1, 1, t=0, selector=selector)
            # the window's hypothesis is checked first
            with pytest.raises(HypothesisViolation):
                binomial_ball_trace(3, 2, 1, 0, t=0, selector=selector)

    def test_short_trace_inconclusive(self):
        t = binomial_ball_trace(3, 2, 1, 1, kmax=2)
        assert t.verdict == VERDICT_INCONCLUSIVE  # final valuation 2 < threshold

    def test_guard_runs_first(self):
        with pytest.raises(HypothesisViolation):
            binomial_ball_trace(3, 2, 1, 0)

    def test_selector_without_terms(self):
        # trunc(0) skips every representative: a trace of no rows has no verdict
        sel = SequenceSelector(3, "truncation", target=0)
        assert sel.terms(6) == []
        with pytest.raises(InsufficientData, match="no usable terms"):
            binomial_ball_trace(3, 2, 1, 1, selector=sel)

    def test_selector_over_another_prime(self):
        # its N_k = 7, 27, 127 converge 5-adically, not 3-adically, to 2
        sel = SequenceSelector(5, "affine", target=Fraction(2))
        with pytest.raises(RangeError, match=r"^the selector runs over 5, the trace over 3$"):
            binomial_ball_trace(3, 2, 1, 1, kmax=3, selector=sel)

    def test_wide_selector_refused_before_any_law(self, monkeypatch):
        monkeypatch.setattr(limits, "_residue_law", _no_law)
        sel = SequenceSelector(WIDE, "affine", target=Fraction(2))
        with pytest.raises(RangeError, match=rf"^the selector runs over {WIDE}, the trace over 3$"):
            binomial_ball_trace(3, 2, 1, 1, kmax=3, selector=sel)

    def test_custom_selector(self):
        sel = SequenceSelector(3, "affine", target=Fraction(2), t=2)
        t = binomial_ball_trace(3, 2, 1, 1, kmax=4, selector=sel)
        assert [r.n for r in t.rows] == [2 + 2 * 3**k for k in range(1, 5)]
        assert t.params["selector"] == sel.describe()

    def test_csv_and_json_shapes(self):
        t = binomial_ball_trace(3, 2, 1, 1, kmax=2)
        lines = t.report_lines("csv")
        assert lines[0] == "k,N_k,value_num,value_den,vp_to_limit"
        assert lines[1] == "1,5,5,16,1"
        assert lines[2] == "2,11,341,1024,2"
        json_lines = t.report_lines("json")
        assert json_lines[0] == '{"N_k": 5, "k": 1, "value": "5/16", "vp_to_limit": 1}'
        assert len(json_lines) == 3
        v = json_lines[-1]
        assert '"theorem": "binomial-ball-limit"' in v
        assert '"verdict": "Inconclusive"' in v
        assert '"final_valuation": 2' in v


class TestPrimeEdgeTraces:
    def test_interior_atom(self):
        t = prime_edge_trace(3, 1, 1, kmax=5)
        assert t.target == Fraction(3, 8)
        assert [r.distance_exponent for r in t.rows] == [1, 2, 3, 4, 5]
        assert t.verdict == VERDICT_CONVERGING

    def test_boundary_atom_needs_deeper_ball(self):
        t = prime_edge_trace(3, 0, 2, kmax=5)
        assert [r.distance_exponent for r in t.rows] == [0, 1, 2, 3, 4]
        assert t.verdict == VERDICT_CONVERGING
        with pytest.raises(HypothesisViolation):
            prime_edge_trace(3, 0, 1)
        with pytest.raises(HypothesisViolation):
            prime_edge_trace(3, 3, 1)
        with pytest.raises(HypothesisViolation):
            prime_edge_trace(3, 4, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_guard_matches_edge_rule(self, p):
        # r must be an atom 0..p; the boundary atoms need depth >= 2, the
        # interior ones depth >= 1
        for r in range(-1, p + 2):
            for depth in range(4):
                allowed = 0 <= r <= p and depth >= (2 if r in (0, p) else 1)
                if not allowed:
                    with pytest.raises(HypothesisViolation):
                        prime_edge_trace(p, r, depth, kmax=2)
                    continue
                if p == 2:  # the guard passes; q = 1/2 is not a 2-adic integer
                    with pytest.raises(DomainError):
                        prime_edge_trace(p, r, depth, kmax=2)
                    continue
                t = prime_edge_trace(p, r, depth, kmax=2)
                assert t.tag == "prime-edge-ball-limit"
                assert t.rows == binomial_ball_trace(p, p, r, depth, kmax=2).rows
                assert t.target == Fraction(comb(p, r), 2**p)


class TestDivisibilityBalance:
    def test_both_routes_converge(self):
        divisible, rest = divisibility_balance_traces(3, kmax=5)
        assert divisible.rows[0].value == Fraction(5, 16)
        assert rest.rows[0].value == Fraction(11, 16)
        for t in (divisible, rest):
            assert t.target == Fraction(1, 2)
            assert [r.distance_exponent for r in t.rows] == [1, 2, 3, 4, 5]
            assert t.verdict == VERDICT_CONVERGING
        for a, b in zip(divisible.rows, rest.rows):
            assert a.value + b.value == 1

    def test_complement_is_the_nonzero_residue_sum(self):
        for p in (3, 5, 7):
            divisible, rest = divisibility_balance_traces(p, kmax=4)
            for a, b in zip(divisible.rows, rest.rows):
                n = a.n
                others = sum(comb(n, j) for j in range(n + 1) if j % p)
                assert b.value == 1 - a.value == 1 - ball_probability(symmetric_params(p), n, 1, 0)
                assert b.value == Fraction(others, 2**n)

    def test_prime_two(self):
        # q = 1/2 is no 2-adic integer, but P(2 divides S_N) = 1/2 exactly for N >= 1
        for t in divisibility_balance_traces(2, kmax=3):
            assert [(r.n, r.value, r.distance_exponent) for r in t.rows] == [
                (3, Fraction(1, 2), math.inf), (5, Fraction(1, 2), math.inf), (9, Fraction(1, 2), math.inf)
            ]
            assert t.params["prime"] == 2


class TestCharfun:
    def test_single_trial(self):
        phi = charfun_series(SYM3, 1, 6)
        assert phi.coefficient(0) == 1
        for k in range(1, 7):
            assert phi.coefficient(k) == Fraction(1, 2 * math.factorial(k))

    # the moment series of S_n is the weighted sum of e**(j z)
    def test_matches_weighted_exponentials(self):
        from padicprob.series import exp_scaled

        for n in range(0, 8):
            phi = charfun_series(SYM3, n, 8)
            d = SumDistribution(n, SYM3)
            acc = None
            for j in range(n + 1):
                term = exp_scaled(Fraction(j), 8).scale(d.weight(j))
                acc = term if acc is None else acc + term
            assert phi.coeffs == acc.coeffs

    def test_padic_exponent_inverts(self):
        phi = charfun_series(SYM3, 1, 8)
        inv = charfun_series(SYM3, Fraction(-1), 8)
        assert (phi * inv).coeffs == (Fraction(1),) + (Fraction(0),) * 8

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            charfun_series(SYM3, Fraction(1, 3), 6)

    # phi(log(1 + w)) = (1 + q' w)**a, whose w-coefficients are the Mahler row
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.fractions(-20, 20, max_denominator=30), st.data())
    def test_mahler_transform_is_mahler_row(self, p, a, data):
        assume(vp(a, p) >= 0)
        q = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]))
        assume(vp(q, p) >= 0 and vp(1 - q, p) >= 0)
        params = BernoulliParams(p, q)
        order = data.draw(st.integers(0, 14))
        seq = charfun_to_mahler(charfun_series(params, a, order), order)
        assert list(seq.coefficients) == mahler_row(params, a, order)


class TestMahlerLambda:
    def test_single_trial_cutoff(self):
        assert mahler_lambda(SYM3, 1, 0) == 1
        assert mahler_lambda(SYM3, 1, 1) == Fraction(1, 2)
        assert mahler_lambda(SYM3, 1, 5) == 0

    def test_geometric_at_minus_one(self):
        for m in range(6):
            assert mahler_lambda(SYM3, -1, m) == Fraction(-1, 2) ** m

    def test_approximate_argument(self):
        a = PadicApprox.from_rational_abs(Fraction(-1), 3, 8)
        lam = mahler_lambda(SYM3, a, 2)
        assert lam.congruent_to(Fraction(1, 4))
        with pytest.raises(RangeError):
            mahler_lambda(SYM3, 1, -1)


def _comb_row(params, n, mmax):
    # the former closed-form row, one power and one comb per m
    return [params.q_prime**m * comb(n, m) for m in range(mmax + 1)]


class TestMahlerRow:
    @given(st.sampled_from([2, 3, 5]), st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(5)]),
           st.integers(0, 300), st.integers(0, 40))
    def test_matches_comb_row(self, p, q, n, mmax):
        assume(vp(q, p) >= 0 and vp(1 - q, p) >= 0)
        params = BernoulliParams(p, q)
        assert mahler_row(params, n, mmax) == _comb_row(params, n, mmax)
        assert empirical_mahler_row(params, n, mmax) == _comb_row(params, n, mmax)

    @given(st.fractions(-9, 9, max_denominator=8), st.integers(0, 30))
    def test_matches_per_m_lambda(self, a, mmax):
        # the former lambda column: (1-q)**m times C(a, m) rebuilt for each m
        def per_m(m):
            c = Fraction(1)
            for j in range(m):
                c = c * (a - j) / (j + 1)
            return SYM3.q_prime**m * c

        if vp(a, 3) < 0:
            with pytest.raises(DomainError, match="exponent must be a p-adic integer"):
                mahler_row(SYM3, a, mmax)
            return
        row = mahler_row(SYM3, a, mmax)
        assert row == [per_m(m) for m in range(mmax + 1)]
        assert row == [mahler_lambda(SYM3, a, m) for m in range(mmax + 1)]

    def test_non_integer_exponent_refused(self):
        # (1-q)**m C(a, m) is no law's Mahler coefficient when v_p(a) < 0
        with pytest.raises(DomainError, match="exponent must be a p-adic integer"):
            mahler_row(BernoulliParams(3, "1/2"), "1/3", 3)
        with pytest.raises(DomainError, match="exponent must be a p-adic integer"):
            mahler_lambda(SYM3, Fraction(1, 3), 2)
        assert mahler_row(SYM3, Fraction(1, 2), 1) == [1, Fraction(1, 4)]

    def test_negative_mmax_refused(self):
        with pytest.raises(RangeError, match="mmax must be a natural"):
            mahler_row(SYM3, 2, -1)


class TestEmpiricalMahler:
    def test_hand_value(self):
        assert empirical_mahler(SYM3, 4, 2) == Fraction(3, 2)

    # enumerate all bit strings and average the binomial of the sum
    def test_against_exhaustive_enumeration(self):
        for n in (4, 6):
            row = empirical_mahler_row(SYM3, n, 3)
            for m in range(4):
                total = sum(comb(bin(x).count("1"), m) for x in range(2**n))
                assert row[m] == Fraction(total, 2**n)

    def test_frozen_row(self):
        assert empirical_mahler_row(SYM3, 6, 3) == [
            Fraction(1),
            Fraction(3),
            Fraction(15, 4),
            Fraction(5, 2),
        ]

    # the closed form against a brute pass over the sum distribution
    def test_closed_form_against_distribution(self):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            params = BernoulliParams(7, q)
            for n in range(61):
                weights = SumDistribution(n, params).weights()
                brute = [
                    sum(comb(j, m) * w for j, w in enumerate(weights))
                    for m in range(8)
                ]
                assert empirical_mahler_row(params, n, 7) == brute

    def test_asymmetric(self):
        params = BernoulliParams(3, Fraction(2, 5))
        assert empirical_mahler(params, 5, 2) == Fraction(3, 5) ** 2 * comb(5, 2)
        with pytest.raises(RangeError):
            empirical_mahler_row(SYM3, 4, -1)

    def test_negative_n_refused(self):
        # math.comb would raise a bare ValueError here
        with pytest.raises(RangeError, match="n must be a natural"):
            empirical_mahler_row(SYM3, -1, 3)
        with pytest.raises(RangeError, match="n must be a natural"):
            empirical_mahler(SYM3, -1, 0)


class TestMahlerLln:
    def test_frozen_traces(self):
        sel = SequenceSelector(3, "truncation", target=Fraction(-1))
        traces = mahler_lln_traces(SYM3, sel, 3, 6)
        assert [t.target for t in traces.values()] == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 4),
            Fraction(-1, 8),
        ]
        assert [r.n for r in traces[0].rows] == [3**k - 1 for k in range(1, 7)]
        assert [r.distance_exponent for r in traces[1].rows] == [1, 2, 3, 4, 5, 6]
        assert [r.distance_exponent for r in traces[3].rows] == [0, 1, 2, 3, 4, 5]
        for m, t in traces.items():
            assert t.verdict == VERDICT_CONVERGING
            for r in t.rows:
                assert r.distance_exponent >= r.k - 1

    def test_small_checkpoints_match_enumeration(self):
        sel = SequenceSelector(3, "truncation", target=Fraction(-1))
        traces = mahler_lln_traces(SYM3, sel, 2, 2)
        for m, t in traces.items():
            for r in t.rows:
                total = sum(comb(bin(x).count("1"), m) for x in range(2**r.n))
                assert r.value == Fraction(total, 2**r.n)

    def test_power_selector_targets_zero(self):
        traces = mahler_lln_traces(SYM3, SequenceSelector(3, "power"), 2, 4)
        assert traces[0].target == 1
        assert traces[1].target == 0
        assert traces[2].target == 0

    def test_matches_empirical_coefficients(self):
        sel = SequenceSelector(5, "affine", target=Fraction(2))
        params = BernoulliParams(5, Fraction(1, 3))
        traces = mahler_lln_traces(params, sel, 3, 4)
        for m, t in traces.items():
            assert [r.value for r in t.rows] == [empirical_mahler(params, n, m) for n in sel.terms(4)]
            assert t.params["m"] == m

    # the former per-(m, n) route: mahler_lambda targets and comb values
    @pytest.mark.parametrize("target", [Fraction(-1), Fraction(1, 2), Fraction(7, 4), Fraction(5)])
    def test_matches_per_m_route(self, target):
        params = BernoulliParams(5, Fraction(1, 3))
        sel = SequenceSelector(5, "truncation", target=target)
        traces = mahler_lln_traces(params, sel, 6, 5)
        for m, t in traces.items():
            assert t.target == mahler_lambda(params, target, m)
            assert [r.value for r in t.rows] == [_comb_row(params, n, m)[m] for n in sel.terms(5)]

    def test_no_terms_is_insufficient_data(self):
        with pytest.raises(InsufficientData):
            mahler_lln_traces(SYM3, SequenceSelector(3, "truncation", target=0), 2, 4)

    def test_negative_mmax_refused(self):
        with pytest.raises(RangeError, match="mmax must be a natural"):
            mahler_lln_traces(SYM3, SequenceSelector(3, "affine", target=2), -1, 4)

    def test_selector_checks(self):
        bare = SequenceSelector(3, "explicit", explicit_terms=(4, 10))
        with pytest.raises(ValueError):
            mahler_lln_traces(SYM3, bare, 2, 2)
        with pytest.raises(ValueError):
            mahler_lln_traces(
                SYM3, SequenceSelector(5, "truncation", target=Fraction(-1)), 2, 4
            )

    def test_selector_over_another_prime(self, monkeypatch):
        # the ball trace's message; refused before any Mahler row is built
        monkeypatch.setattr(limits, "mahler_row", _no_law)
        for p in (5, WIDE):
            with pytest.raises(RangeError, match=rf"^the selector runs over {p}, the trace over 3$"):
                mahler_lln_traces(SYM3, SequenceSelector(p, "affine", target=Fraction(2)), 2, 3)


class TestCltSeries:
    def test_single_trial_is_cosh(self):
        s = clt_series(1, 8)
        for k in range(9):
            expected = Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0)
            assert s.coefficient(k) == expected

    def test_variance_normalization(self):
        for a in (1, 2, 3, 5):
            s = clt_series(a, 8)
            assert s.coefficient(1) == 0
            assert s.coefficient(2) == Fraction(1, 2)
            assert s.coefficient(3) == 0
            assert s.coefficient(4) == Fraction(3 * a - 2, 24 * a)

    def test_frozen_two_trials(self):
        s = clt_series(2, 8)
        assert [s.coefficient(k) for k in range(9)] == [
            Fraction(1),
            Fraction(0),
            Fraction(1, 2),
            Fraction(0),
            Fraction(1, 12),
            Fraction(0),
            Fraction(1, 180),
            Fraction(0),
            Fraction(1, 5040),
        ]
        assert s.coeffs == cosh_scaled_sq(2, 8).integer_power(2).coeffs

    def test_unit_exponent(self):
        s = clt_series(Fraction(1, 2), 8, prime=3)
        a = Fraction(1, 2)
        assert s.coefficient(2) == Fraction(1, 2)
        assert s.coefficient(4) == (3 * a - 2) / (24 * a)

    def test_rejects(self):
        with pytest.raises(ValueError):
            clt_series(1, 7)
        with pytest.raises(ValueError):
            clt_series(Fraction(1, 2), 8)
        with pytest.raises(DomainError):
            clt_series(Fraction(1, 3), 8, prime=3)
        with pytest.raises(DomainError):
            clt_series(Fraction(3, 2), 8, prime=3)
        with pytest.raises(DomainError):
            clt_series(0, 8, prime=3)

    @pytest.mark.parametrize("a", [1, 2, 0, Fraction(1, 2)])
    @pytest.mark.parametrize("prime", [0, 1, 4])
    def test_given_prime_checked_for_every_exponent(self, a, prime):
        with pytest.raises(RangeError, match="is not prime"):
            clt_series(a, 8, prime=prime)


class TestCharfunToMahler:
    # cosh(log(1+w)) = ((1+w) + 1/(1+w))/2, so the tail alternates +-1/2
    def test_cosh_coefficients(self):
        seq = charfun_to_mahler(clt_series(1, 12), 10)
        expected = [Fraction(1), Fraction(0)] + [
            Fraction((-1) ** m, 2) for m in range(2, 11)
        ]
        assert list(seq.coefficients) == expected

    def test_exponential_is_shift(self):
        seq = charfun_to_mahler(exp_series(8), 6)
        assert list(seq.coefficients) == [Fraction(1), Fraction(1)] + [Fraction(0)] * 5

    def test_roundtrip_with_direct_lambda(self):
        for n in range(1, 5):
            seq = charfun_to_mahler(charfun_series(SYM3, n, 10), 6)
            assert list(seq.coefficients) == [mahler_lambda(SYM3, n, m) for m in range(7)]

    def test_rejects(self):
        with pytest.raises(DomainError):
            charfun_to_mahler(exp_series(6).scale(2), 4)
        with pytest.raises(OrderError):
            charfun_to_mahler(exp_series(6), 7)
        with pytest.raises(RangeError):
            charfun_to_mahler(exp_series(6), -1)

    # the composition phi(log(1 + w)) is the O(order**3) brute-force route
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_composition_with_log1p(self, data):
        order = data.draw(st.integers(0, 24))
        tail = data.draw(
            st.lists(st.fractions(-9, 9, max_denominator=12), min_size=order, max_size=order)
        )
        count = data.draw(st.one_of(st.just(order), st.integers(0, order)))
        phi = FormalSeries([1, *tail])
        expected = phi.compose(log1p_series(order)).coeffs[: count + 1]
        assert charfun_to_mahler(phi, count).coefficients == expected

    @pytest.mark.parametrize(
        "phi",
        [
            clt_series(1, 24),
            clt_series(Fraction(1, 2), 24, prime=3),
            clt_series(Fraction(-7, 2), 24, prime=5),
            charfun_series(SYM3, Fraction(-1, 2), 24),
            charfun_series(BernoulliParams(5, Fraction(1, 3)), 7, 24),
        ],
    )
    def test_matches_composition_at_order_24(self, phi):
        expected = phi.compose(log1p_series(24)).coeffs
        assert charfun_to_mahler(phi, 24).coefficients == expected


class TestStirlingRows:
    ROWS = list(stirling_first_rows(12))

    def test_small_rows(self):
        assert self.ROWS[:5] == [[1], [0, 1], [0, -1, 1], [0, 2, -3, 1], [0, -6, 11, -6, 1]]

    def test_row_identities(self):
        for n, row in enumerate(self.ROWS):
            assert len(row) == n + 1
            assert row[n] == 1
            assert sum(abs(s) for s in row) == math.factorial(n)
            if n >= 2:
                assert sum(row) == 0

    def test_abs_exponents(self):
        seq = charfun_to_mahler(clt_series(1, 8), 6)
        exps = [vp(c, 3) for c in seq.coefficients]
        assert exps[0] == 0
        assert exps[1] == math.inf
        assert all(e == 0 for e in exps[2:])
        assert seq.max_abs(3) == PadicAbs.one(3)


class TestCltBoundCheck:
    def test_odd_primes_bounded(self):
        for p in (3, 5, 7):
            rep = clt_mahler_bound_check(p)
            assert rep.bounded
            assert rep.max_abs == PadicAbs.one(p)
            assert rep.count == 30
            assert rep.note == BOUND_CHECK_NOTE
            assert rep.seq.coefficients[1] == 0

    def test_two_adically_unbounded(self):
        with pytest.raises(DomainError):
            clt_mahler_bound_check(2)

    def test_odd_count_padding(self):
        rep = clt_mahler_bound_check(3, count=7)
        assert len(rep.seq.coefficients) == 8


AFFINE1 = SequenceSelector(3, "affine", target=Fraction(1), t=1)


class TestRandomnessTest:
    def test_adversarial_sphere(self):
        terms = AFFINE1.terms(6)
        bits = checkpoint_forcing_bits(3, 1, 0, terms)
        c = Collective("01", symbols=bits)
        res = sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6)
        assert res.verdict == "PersistentHit"
        assert res.rejected
        assert res.k_eps == 4
        assert res.first_hit_k == 4
        assert [r.prob_exponent for r in res.rows] == [0, 1, 2, 3, 4, 5]
        assert res.rows[0].event_prob == Fraction(1, 4)
        assert res.rows[1].event_prob == Fraction(165, 512)
        assert all(r.hit for r in res.rows)

    def test_report_lines(self):
        c = Collective("01", symbols=checkpoint_forcing_bits(3, 1, 0, AFFINE1.terms(6)))
        res = sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6)
        csv = res.report_lines("csv")
        assert csv[:2] == ["k,N_k,S,hit,prob_num,prob_den,vp_prob", "1,4,3,1,1,4,0"]
        assert len(csv) == 7
        rows = res.report_lines("json")
        assert len(rows) == 7
        assert json.loads(rows[0])["prob"] == "1/4"
        assert json.loads(rows[-1]) == {
            "verdict": "PersistentHit", "k_eps": 4, "first_hit_k": 4, "params": res.params
        }

    def test_constant_zeros_not_rejected(self):
        c = Collective.periodic("0", alphabet="01")
        res = sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6)
        assert res.verdict == "NotRejected"
        assert not res.rejected
        assert res.first_hit_k is None
        assert all(not r.hit for r in res.rows)

    def test_single_late_hit_rejects(self):
        # S stays 0 through N_4, equals 3 at N_5 (a hit), 9 at N_6 (not)
        terms = AFFINE1.terms(6)
        bits = ["0"] * terms[-1]
        for i in range(3):
            bits[terms[3] + i] = "1"
        for i in range(6):
            bits[terms[4] + i] = "1"
        res = sphere_randomness_test(Collective("01", symbols=bits), 3, 1, 0, AFFINE1, 2, 6)
        assert res.verdict == "Rejected"
        assert res.rejected
        assert res.first_hit_k == 5
        assert [r.hit for r in res.rows] == [False, False, False, False, True, False]

    def test_residue_mode_forced(self):
        terms = AFFINE1.terms(4)
        bits = checkpoint_forcing_bits(3, 2, 1, terms, mode="residue")
        c = Collective("01", symbols=bits)
        res = sphere_randomness_test(c, 3, 2, 1, AFFINE1, 1, 4, mode="residue")
        assert res.verdict == "PersistentHit"
        assert res.k_eps == 3
        assert [r.prob_exponent for r in res.rows] == [0, 1, 2, 3]
        assert res.rows[0].event_prob == Fraction(5, 8)

    def test_residue_mode_wraparound_never_significant(self):
        # center 1, depth 1: the event keeps probability near 1/2
        c = Collective.periodic("0", alphabet="01")
        with pytest.raises(DomainError):
            sphere_randomness_test(c, 3, 1, 1, AFFINE1, 1, 4, mode="residue")

    def test_eps_unreachable(self):
        c = Collective.periodic("0", alphabet="01")
        with pytest.raises(DomainError):
            sphere_randomness_test(c, 3, 1, 0, AFFINE1, 10, 6)

    def test_kmin_window(self):
        c = Collective.periodic("0", alphabet="01")
        res = sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6, kmin=3)
        assert [r.k for r in res.rows] == [3, 4, 5, 6]
        assert res.k_eps == 4

    def test_short_source(self):
        c = Collective("01", symbols="0101")
        with pytest.raises(InsufficientData):
            sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6)

    def test_argument_checks(self):
        c = Collective.periodic("0", alphabet="01")
        with pytest.raises(HypothesisViolation):
            sphere_randomness_test(c, 3, 0, 0, AFFINE1, 2, 6)
        with pytest.raises(ValueError):
            sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6, mode="digits")
        with pytest.raises(ValueError):
            sphere_randomness_test(c, 3, 1, 0, AFFINE1, 2, 6, kmin=0)
        with pytest.raises(ValueError):
            sphere_randomness_test(Collective.periodic("ab"), 3, 1, 0, AFFINE1, 2, 6)

    def test_sparse_selector_rejected(self):
        # too few checkpoints is missing data (exit 4), as for the trace commands
        c = Collective.periodic("0", alphabet="01")
        sparse = SequenceSelector(5, "truncation", target=Fraction(7))
        with pytest.raises(InsufficientData):
            sphere_randomness_test(c, 5, 1, 0, sparse, 2, 6)


def _hit_closure(p, depth, center, mode):
    """The tested event as a hit predicate, written out per mode."""
    small = p**depth
    big = small * p

    def sphere_hit(s):
        d = (s - center) % big
        return d != 0 and d % small == 0

    def residue_hit(s):
        return 0 < (s - center) % small < p

    def ball_hit(s):
        return (s - center) % small == 0

    return {"ball": ball_hit, "sphere": sphere_hit, "residue": residue_hit}[mode]


def _forcing_targets(p, depth, center, mode):
    """The modulus and sorted targets to steer the forcing sequence to, per mode."""
    if mode == "ball":
        return p**depth, [center % p**depth]
    if mode == "sphere":
        work_mod = p ** (depth + 1)
        return work_mod, sorted((center + u * p**depth) % work_mod for u in range(1, p))
    work_mod = p**depth
    return work_mod, sorted((center + a) % work_mod for a in range(1, p))


EVENTS = (
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 3),
    st.integers(-60, 60),
    st.sampled_from(["ball", "sphere", "residue"]),
)


class TestEventResidues:
    # at depth 0 every residue mod 1 is 0: the residue predicate never
    # holds there, while the residue classes hold for every sum; the
    # tested event needs depth >= 1. Sums up to n = p**depth leave the
    # depth uncut
    @given(*EVENTS)
    def test_against_hit_closures_and_forcing_targets(self, p, depth, center, mode):
        assume(depth >= 1 or mode != "residue")
        mod, residues = event_residues(p, depth, center, mode, p**depth)
        hit = _hit_closure(p, depth, center, mode)
        for s in range(-mod, 2 * mod):
            assert (s % mod in residues) == hit(s)
        assert (mod, sorted(residues)) == _forcing_targets(p, depth, center, mode)

    @settings(max_examples=60)
    @given(st.sampled_from([3, 5, 7]), *EVENTS[1:], st.integers(0, 40))
    def test_probability_is_the_mass_of_the_hits(self, p, depth, center, mode, n):
        assume(depth >= 1 or mode != "residue")
        mod, residues = event_residues(p, depth, center, mode, n)
        hit = _hit_closure(p, depth, center, mode)
        expected = Fraction(sum(comb(n, j) for j in range(n + 1) if hit(j)), 2**n)
        assert _residue_probability(symmetric_params(p), n, mod, residues) == expected
        if mode == "ball":
            assert ball_probability(symmetric_params(p), n, depth, center) == expected
        if mode == "sphere":
            assert sphere_probability(symmetric_params(p), n, depth, center) == expected

    # past the cut depth d, the least with n + |center| + p < p**d, the
    # ball, the sphere and the residue event are the same on every sum in
    # [0, n], so the cut modulus gives the same hits as the uncut one
    @settings(max_examples=200)
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 60),
        st.integers(-60, 60),
        st.sampled_from(["ball", "sphere", "residue"]),
        st.integers(-3, 3),
    )
    def test_depth_cut_keeps_every_sum(self, p, n, center, mode, offset):
        sphere = mode == "sphere"
        d = next(k for k in range(1, 10) if n + abs(center) + p < p**k)
        assert event_residues(p, 10**9, center, mode, n)[0] == p ** (d + sphere)
        depth = max(d + offset, 0)
        mod, residues = event_residues(p, depth, center, mode, n)
        assert mod == p ** (min(depth, d) + sphere)
        full_mod, full = event_residues(p, depth, center, mode, p**depth)
        assert full_mod == p ** (depth + sphere)
        hits = [s % full_mod in full for s in range(n + 1)]
        assert [s % mod in residues for s in range(n + 1)] == hits
        if mode == "ball" and p != 2:  # the symmetric law needs 2 to be a p-adic unit
            expected = Fraction(sum(comb(n, s) for s, hit in enumerate(hits) if hit), 2**n)
            assert ball_probability(symmetric_params(p), n, depth, center) == expected

    def test_depth_zero_and_argument_checks(self):
        assert event_residues(3, 0, 1, "ball", 5) == (1, frozenset({0}))
        assert event_residues(3, 0, 1, "sphere", 5) == (3, frozenset({0, 2}))
        assert event_residues(3, 0, 1, "residue", 5) == (1, frozenset({0}))
        with pytest.raises(ValueError):
            event_residues(3, -1, 0, "sphere", 5)
        with pytest.raises(ValueError):
            event_residues(3, 1, 0, "digits", 5)


class TestCheckpointPatterns:
    def test_single_checkpoint_marginal(self):
        for n in (4, 10, 28):
            dist = checkpoint_pattern_distribution(3, 1, 0, [n])
            assert dist[(True,)] == sphere_probability(SYM3, n, 1, 0)
            assert sum(dist.values()) == 1

    # the residue chain against a full enumeration of 2**8 strings
    def test_joint_law_against_enumeration(self):
        terms = [3, 5, 8]

        def sphere_hit(s):
            d = s % 9
            return d != 0 and d % 3 == 0

        counts = Counter()
        for x in range(2**8):
            sums = [bin(x & ((1 << n) - 1)).count("1") for n in terms]
            counts[tuple(sphere_hit(s) for s in sums)] += 1
        expected = {pat: Fraction(v, 2**8) for pat, v in counts.items()}
        assert checkpoint_pattern_distribution(3, 1, 0, terms) == expected

    def test_residue_mode_against_enumeration(self):
        terms = [2, 5, 7]
        counts = Counter()
        for x in range(2**7):
            sums = [bin(x & ((1 << n) - 1)).count("1") for n in terms]
            counts[tuple(0 < (s % 9) < 3 for s in sums)] += 1
        expected = {pat: Fraction(v, 2**7) for pat, v in counts.items()}
        got = checkpoint_pattern_distribution(3, 2, 0, terms, mode="residue")
        assert got == expected

    def test_checkpoints_must_increase(self):
        with pytest.raises(ValueError):
            checkpoint_pattern_distribution(3, 1, 0, [3, 3])

    def test_union_probability(self):
        terms = [3, 5, 8]
        dist = checkpoint_pattern_distribution(3, 1, 0, terms)
        assert hit_union_probability(3, 1, 0, terms) == Fraction(159, 256)
        assert hit_union_probability(3, 1, 0, terms, from_index=1) == Fraction(9, 16)
        marginals = [
            sum(p for pat, p in dist.items() if pat[i]) for i in range(len(terms))
        ]
        union = hit_union_probability(3, 1, 0, terms)
        assert max(marginals) <= union <= sum(marginals)

    def test_union_from_index_bounds(self):
        terms = [1 + 3**k for k in range(1, 5)]
        with pytest.raises(RangeError, match="from_index must be a natural"):
            hit_union_probability(3, 1, 0, terms, from_index=-1)
        # past the last checkpoint the union is empty
        assert hit_union_probability(3, 1, 0, terms, from_index=len(terms)) == 0


def _union_from_patterns(dist, from_index):
    return sum((pr for pat, pr in dist.items() if any(pat[from_index:])), Fraction(0))


def _enumerated_patterns(hit, terms):
    """The hit-pattern law counted over every one of the 2**N strings, N the last checkpoint."""
    n = terms[-1]
    counts = Counter()
    for x in range(2**n):
        counts[tuple(hit(bin(x & ((1 << t) - 1)).count("1")) for t in terms)] += 1
    return {pat: Fraction(v, 2**n) for pat, v in counts.items()}


CHECKPOINTS = st.lists(st.integers(1, 12), min_size=1, max_size=6).map(
    lambda gaps: [sum(gaps[: i + 1]) for i in range(len(gaps))]
)


class TestCheckpointChain:
    # the union's two-tag chain against the full pattern law as the oracle
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 2),
        st.integers(-20, 20),
        st.sampled_from(["sphere", "residue"]),
        CHECKPOINTS,
        st.data(),
    )
    def test_union_is_the_pattern_mass_with_a_late_hit(self, p, depth, center, mode, terms, data):
        from_index = data.draw(st.integers(0, len(terms) + 1))
        dist = checkpoint_pattern_distribution(p, depth, center, terms, mode)
        union = hit_union_probability(p, depth, center, terms, from_index, mode)
        assert union == _union_from_patterns(dist, from_index)

    # both laws against every string up to the last checkpoint
    @settings(max_examples=60, deadline=None)
    @given(
        *EVENTS,
        st.lists(st.integers(1, 10), min_size=1, max_size=5, unique=True).map(sorted),
        st.data(),
    )
    def test_against_all_strings(self, p, depth, center, mode, terms, data):
        assume(depth >= 1 or mode != "residue")
        from_index = data.draw(st.integers(0, len(terms)))
        expected = _enumerated_patterns(_hit_closure(p, depth, center, mode), terms)
        assert checkpoint_pattern_distribution(p, depth, center, terms, mode) == expected
        union = hit_union_probability(p, depth, center, terms, from_index, mode)
        assert union == _union_from_patterns(expected, from_index)

    def test_many_checkpoints(self):
        terms = [9 * k for k in range(1, 41)]
        # P(no hit) by a walk over single bits that drops the mass of each hit
        mod, residues = event_residues(3, 1, 0, "sphere", terms[-1])
        miss = [1] + [0] * (mod - 1)
        for t in range(1, terms[-1] + 1):
            miss = [miss[r] + miss[r - 1] for r in range(mod)]
            if t % 9 == 0:
                miss = [0 if r in residues else m for r, m in enumerate(miss)]
        expected = 1 - Fraction(sum(miss), 2 ** terms[-1])
        assert hit_union_probability(3, 1, 0, terms) == expected
        with pytest.raises(RangeError, match="more than the limit of 1048576"):
            checkpoint_pattern_distribution(3, 1, 0, terms)

    def test_empty_terms_and_refusals(self):
        assert hit_union_probability(3, 1, 0, []) == 0
        assert checkpoint_pattern_distribution(3, 1, 0, []) == {(): 1}
        with pytest.raises(RangeError, match="strictly increasing"):
            hit_union_probability(3, 1, 0, [4, 2], from_index=5)
        with pytest.raises(RangeError, match="residues, more than the limit"):
            hit_union_probability(1048583, 1, 0, [3])

    # the modulus 1031**2 is wider than MAX_LAW_WIDTH, but gaps of at most
    # 3 add at most 4 increments, so the chain stays small
    def test_wide_modulus_short_gaps(self):
        terms = [2, 5]
        expected = _enumerated_patterns(_hit_closure(1031, 1, 1033, "sphere"), terms)
        assert checkpoint_pattern_distribution(1031, 1, 1033, terms) == expected
        assert hit_union_probability(1031, 1, 1033, terms) == _union_from_patterns(expected, 0) > 0
