"""Library ops: calls into the public API of padicprob.

Each op takes the inputs `plan` generated for it and returns its raw
result; `CANONICAL[name]` turns that result into the plain structure
whose digest the benchmark checks. Functions are looked up on the
`padicprob` package at call time, so the traced run's wrappers apply.
"""

from __future__ import annotations

from fractions import Fraction

import padicprob as pp
from plan import CLOPEN_PRIME, CLOPEN_Q, CLOPEN_TABLE_DEPTH, PRODUCT_PRIME


def ball_trace_k10(_inputs):
    return pp.binomial_ball_trace(3, 2, 1, 1, kmax=10)


def hit_union(_inputs):
    return pp.hit_union_probability(3, 1, 0, [1 + 3**k for k in range(1, 9)], from_index=3)


def clopen_algebra(inputs):
    q = CLOPEN_Q
    sets = [pp.Clopen(q, ws) for ws in inputs["sets"]]
    out = []
    for a, b in zip(sets, sets[1:]):
        out += [a | b, a & b, a.complement(), a - b]
    f = pp.StepFunction(q, [(pp.Clopen(q, ws), Fraction(v)) for ws, v in inputs["pieces"]])
    mu = pp.CylinderMeasure(q, CLOPEN_PRIME, CLOPEN_TABLE_DEPTH, inputs["table"])
    return out, pp.integrate_step(mu, f)


_APPROX_ARGS = ((1, 2), (5, 7), (-4, 11), (9, 13), (2, 5), (27, 4), (1, 10), (-7, 8))
# p * a/b with b prime to 3, 5 and 7 lies in every series' disc of convergence
_SERIES_ARGS = ((1, 2), (-4, 11), (9, 13), (27, 4), (1, 8), (-2, 17), (13, 22), (5, 32))


def padic_approx(_inputs):
    out = []
    for p in (3, 5, 7):
        xs = [pp.to_approx(Fraction(a, b), p, 60) for a, b in _APPROX_ARGS]
        for x in xs:
            for y in xs:
                out += [x + y, x - y, x * y]
            out += [x**5, x.mul_rational(Fraction(p, 7)), x.div_rational(Fraction(7, p))]
    return out


def series_eval(_inputs):
    out = []
    for p in (3, 5, 7):
        for a, b in _SERIES_ARGS:
            x = pp.to_approx(Fraction(p * a, b), p, 60)
            for kind in ("exp", "cosh", "sinh", "log1p"):
                out.append(pp.series_eval(kind, x))
            out.append(pp.series_eval("binomial", x, Fraction(1, 2)))
    return out


def _outcomes(n):
    return [f"o{i}" for i in range(n)]


def gvalued_axioms(inputs):
    oms = _outcomes(len(inputs["weights"]))
    d = pp.GDistribution(pp.RationalRealContext(), dict(zip(oms, map(Fraction, inputs["weights"]))))
    family = pp.powerset_field(oms)
    return pp.additivity_check(d, family), pp.unit_axiom_check(d, family)


def gvalued_convolve(inputs):
    ctx = pp.RationalRealContext()
    acc = pp.dirac(ctx, 0)
    for ws in inputs["steps"]:
        acc = pp.convolve(acc, pp.GDistribution(ctx, {i: Fraction(w) for i, w in enumerate(ws)}))
    return acc


def gvalued_product(inputs):
    ctx = pp.ProductContext(pp.RationalRealContext(), pp.RationalPadicContext(PRODUCT_PRIME))
    oms = _outcomes(len(inputs["weights"]))
    d = pp.GDistribution(ctx, {om: tuple(map(Fraction, w)) for om, w in zip(oms, inputs["weights"])})
    family = pp.powerset_field(oms)
    conds = [pp.conditional(d, [oms[i] for i in a], [oms[i] for i in b]) for a, b in inputs["events"]]
    return pp.additivity_check(d, family), pp.unit_axiom_check(d, family), conds


OPS = {f.__name__: f for f in (
    ball_trace_k10, hit_union, clopen_algebra, padic_approx, series_eval,
    gvalued_axioms, gvalued_convolve, gvalued_product,
)}


def _approx(x):
    return [int(x.prime), x.valuation, list(x.digits), x.exact_zero]


def _axioms(add, unit):
    return [add.ok, add.pairs_checked, unit.holds, unit.sup, unit.expected]


CANONICAL = {
    "ball_trace_k10": lambda t: [[r.k, r.n, r.value, r.distance_exponent] for r in t.rows],
    "hit_union": lambda x: x,
    "clopen_algebra": lambda r: [[[list(w) for w in c.words] for c in r[0]], r[1]],
    "padic_approx": lambda xs: [_approx(x) for x in xs],
    "series_eval": lambda xs: [_approx(x) for x in xs],
    "gvalued_axioms": lambda r: _axioms(*r),
    "gvalued_convolve": lambda d: [[s, d.weight(s)] for s in d.outcomes],
    "gvalued_product": lambda r: _axioms(r[0], r[1]) + [[list(c) for c in r[2]]],
}
