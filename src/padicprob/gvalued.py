"""Probabilities valued in a metrized abelian group.

A GroupContext fixes the carrier (exact rationals under the usual or a
p-adic absolute value, or a finite product of such), the group law and
the distance to the neutral element. A GDistribution assigns a group
element to each outcome of a finite experiment; "probabilities" may be
negative, larger than one, or p-adic, and the classical calculus of
events survives verbatim as long as every identity is checked exactly.

Significance is a neighborhood of the neutral element: an event whose
probability falls inside is practically impossible, and a critical
region is an event whose probability is practically impossible under
the null, so observing it rejects the null at that level.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import MAX_POWERSET_OUTCOMES, NoRingStructure, NotInvertible, RangeError, RegionNotSignificant, refuse_over
from .padic import Prime, _as_pair, _numerators, abs_p, as_fraction

PRACTICALLY_IMPOSSIBLE = "PracticallyImpossible"
SIGNIFICANT = "Significant"


class _Ints(tuple):
    """A product's integers, one per component, added and multiplied componentwise."""

    def __add__(self, other):
        return _Ints(map(operator.add, self, other))

    def __mul__(self, other):
        return _Ints(map(operator.mul, self, other))


class GroupContext:
    """Carrier + group law + exact metric to the neutral element.

    Subclasses fix element coercion, add/negate/neutral and rho, and may
    expose a ring structure (mul, one, inverses). rho returns an exact
    Fraction, so every comparison against a significance radius is exact.
    """

    tag: str = "abstract"
    is_ring = False

    def coerce(self, x):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def negate(self, x):
        raise NotImplementedError

    @property
    def neutral(self):
        raise NotImplementedError

    def rho(self, x) -> Fraction:
        """Distance from the neutral element, as an exact Fraction."""
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.negate(y))

    def _ints(self, xs):
        """The integer form (numerators, denominator) of the elements xs, on
        which + and * are the context's; None: GDistribution's generic route."""
        return None

    # -- optional ring structure -----------------------------------------

    def _no_ring(self):
        raise NoRingStructure(f"context {self.tag} has no ring multiplication")

    def mul(self, x, y):
        self._no_ring()

    @property
    def one(self):
        self._no_ring()

    def is_invertible(self, x) -> bool:
        self._no_ring()

    def inverse(self, x):
        self._no_ring()

    def __repr__(self):
        return f"{type(self).__name__}({self.tag!r})"


class _RationalContext(GroupContext):
    """(Q, +) on exact Fractions, a ring; subclasses fix tag and rho."""

    is_ring = True
    _ints = staticmethod(_numerators)
    _fraction = staticmethod(Fraction)  # the element n / den

    def coerce(self, x):
        return as_fraction(x)

    def add(self, x, y):
        return x + y

    def negate(self, x):
        return -x

    @property
    def neutral(self):
        return Fraction(0)

    def mul(self, x, y):
        return x * y

    @property
    def one(self):
        return Fraction(1)

    def is_invertible(self, x) -> bool:
        return x != 0

    def inverse(self, x):
        if x == 0:
            raise NotInvertible("0 has no inverse")
        return 1 / as_fraction(x)


class RationalRealContext(_RationalContext):
    """(Q, +) with rho(0, x) = |x|."""

    tag = "real"

    def rho(self, x) -> Fraction:
        return abs(as_fraction(x))


class RationalPadicContext(_RationalContext):
    """(Q, +) with rho(0, x) = |x|_p."""

    def __init__(self, prime):
        self.prime = Prime(prime)
        self.tag = f"padic:{self.prime}"

    def rho(self, x) -> Fraction:
        return abs_p(x, self.prime).as_fraction()


class ProductContext(GroupContext):
    """Finite product of contexts; elements are tuples, the metric is
    the max of the component metrics. A ring exactly when every
    component is one (componentwise multiplication).

    Examples:
        >>> ctx = ProductContext(RationalRealContext(), RationalPadicContext(3))
        >>> d = GDistribution(ctx, {"a": (Fraction(1, 2), 9), "b": (Fraction(1, 4), Fraction(1, 3))})
        >>> [str(x) for x in d.probability({"a", "b"})]
        ['3/4', '28/3']
        >>> report = unit_axiom_check(d, powerset_field(d.outcomes))
        >>> report.holds, str(report.sup), sorted(report.witness)
        (True, '3', ['b'])
    """

    def __init__(self, *components: GroupContext):
        if not components:
            raise RangeError("product of zero contexts")
        self.components = tuple(components)
        self.tag = "product(" + ",".join(c.tag for c in self.components) + ")"
        self.is_ring = all(c.is_ring for c in self.components)

    def coerce(self, x):
        xs = tuple(x)
        if len(xs) != len(self.components):
            raise RangeError(
                f"{self.tag} elements have {len(self.components)} components, got {len(xs)}"
            )
        return tuple(c.coerce(v) for c, v in zip(self.components, xs))

    def add(self, x, y):
        return tuple(c.add(a, b) for c, a, b in zip(self.components, x, y))

    def negate(self, x):
        return tuple(c.negate(a) for c, a in zip(self.components, x))

    @property
    def neutral(self):
        return tuple(c.neutral for c in self.components)

    def rho(self, x) -> Fraction:
        return max(c.rho(a) for c, a in zip(self.components, x))

    def mul(self, x, y):
        if not self.is_ring:
            self._no_ring()
        return tuple(c.mul(a, b) for c, a, b in zip(self.components, x, y))

    @property
    def one(self):
        if not self.is_ring:
            self._no_ring()
        return tuple(c.one for c in self.components)

    def is_invertible(self, x) -> bool:
        if not self.is_ring:
            self._no_ring()
        return all(c.is_invertible(a) for c, a in zip(self.components, x))

    def inverse(self, x):
        if not self.is_ring:
            self._no_ring()
        return tuple(c.inverse(a) for c, a in zip(self.components, x))

    def _ints(self, xs):
        """The components' integer forms, where each has one; an _Ints per element."""
        cols = [c._ints(col) for c, col in zip(self.components, zip(*xs))]
        if not cols or None in cols:
            return None
        return list(map(_Ints, zip(*(nums for nums, _ in cols)))), _Ints(den for _, den in cols)

    def _fraction(self, n, den):
        return tuple(c._fraction(a, d) for c, a, d in zip(self.components, n, den))


def context_from_tag(tag: str) -> GroupContext:
    if tag == "real":
        return RationalRealContext()
    if isinstance(tag, str) and tag.startswith("padic:"):
        try:
            prime = int(tag[len("padic:"):])
        except ValueError:
            pass
        else:
            return RationalPadicContext(prime)
    raise RangeError(f"unknown context tag {tag!r}")


class GDistribution:
    """A finite experiment whose event weights live in a group.

    weights maps each outcome label to a group element; the measure of
    an event is the exact group sum of its outcome weights, and E is the
    measure of the whole outcome set. An optional range_check predicate
    declares the admissible weight set and is enforced at construction.
    """

    def __init__(self, context: GroupContext, weights, range_check=None):
        self.context = context
        items = list(weights.items() if hasattr(weights, "items") else weights)
        if not items:
            raise RangeError("distribution needs at least one outcome")
        self.outcomes = tuple(om for om, _ in items)
        self._weights = {om: context.coerce(w) for om, w in items}
        if len(self._weights) != len(items):
            raise RangeError("repeated outcome")
        form = context._ints(self._weights.values())
        self._form = form and (dict(zip(self._weights, form[0])), form[1])  # see GroupContext._ints
        if range_check is not None:
            bad = [om for om in self.outcomes if not range_check(self._w[om])]
            if bad:
                raise RangeError(f"weights at {bad} outside the declared range set")

    @classmethod
    def _from_ints(cls, context: GroupContext, form) -> "GDistribution":
        """The distribution of integer form ({outcome: n}, den), weights built on first read."""
        d = cls.__new__(cls)
        d.context, d.outcomes, d._form, d._weights = context, tuple(form[0]), form, None
        return d

    @property
    def _w(self) -> dict:
        if self._weights is None:
            nums, den = self._form
            self._weights = {om: self.context._fraction(n, den) for om, n in nums.items()}
        return self._weights

    def weight(self, outcome):
        try:
            return self._w[outcome]
        except KeyError:
            raise RangeError(f"outcome {outcome!r} outside the experiment") from None

    def probability(self, event):
        """Group measure of a subset of the outcomes; on a rational context
        or a product of them, a sum of integer forms (see GroupContext._ints)."""
        ctx = self.context
        if self._form:
            nums, den = self._form
            picked = self._pick(nums, event)
            return ctx._fraction(sum(picked[1:], picked[0]), den) if picked else ctx.neutral
        return functools.reduce(ctx.add, self._pick(self._w, event), ctx.neutral)

    @staticmethod
    def _pick(weights: dict, event) -> list:
        """weights[om] for each outcome of the event, which may not
        repeat an outcome or name one outside the experiment."""
        seen = set()
        out = []
        for om in event:
            if om in seen:
                raise RangeError(f"repeated outcome {om!r} in event")
            seen.add(om)
            try:
                out.append(weights[om])
            except KeyError:
                raise RangeError(f"outcome {om!r} outside the experiment") from None
        return out

    @property
    def total(self):
        """E, the measure of the full outcome set."""
        return self.probability(self.outcomes)

    def to_json(self) -> str:
        if isinstance(self.context, ProductContext):
            raise RangeError("JSON form covers rational-weight contexts only")
        for om in self.outcomes:  # from_json reads scalar outcomes only; a bool is an int
            if om is not None and not isinstance(om, (str, int, float)):
                raise RangeError(f"outcome {om!r} is not a JSON scalar")
        return json.dumps(
            {
                "context": self.context.tag,
                "outcomes": list(self.outcomes),
                "weights": [
                    f"{self._w[om].numerator}/{self._w[om].denominator}"
                    for om in self.outcomes
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GDistribution":
        """Read the form to_json writes. Each weight is a rational string
        or an integer, read exactly by the context; a malformed document
        raises RangeError."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise RangeError(f"distribution JSON does not parse: {exc}") from None
        if not isinstance(data, dict) or not {"context", "outcomes", "weights"} <= data.keys():
            raise RangeError("distribution JSON is an object with context, outcomes and weights")
        ctx = context_from_tag(data["context"])
        outcomes, weights = data["outcomes"], data["weights"]
        if not isinstance(outcomes, list) or not isinstance(weights, list):
            raise RangeError("outcomes and weights are JSON arrays")
        if len(outcomes) != len(weights):
            raise RangeError("outcomes and weights differ in length")
        for om in outcomes:
            if isinstance(om, (list, dict)):
                raise RangeError(f"outcome {om!r} is not a JSON scalar")
        return cls(ctx, list(zip(outcomes, weights)))

    def __repr__(self):
        pairs = ", ".join(f"{om!r}: {self._w[om]}" for om in self.outcomes)
        return f"GDistribution({self.context.tag}, {{{pairs}}})"


def powerset_field(outcomes) -> tuple[frozenset, ...]:
    """All subsets of a small outcome set, smallest first."""
    oms = tuple(outcomes)
    refuse_over(len(oms), MAX_POWERSET_OUTCOMES, f"a power set of {len(oms)} outcomes")
    out = []
    for mask in range(1 << len(oms)):
        out.append(frozenset(om for i, om in enumerate(oms) if mask >> i & 1))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(map(repr, s)))))


@dataclass(frozen=True)
class AdditivityReport:
    ok: bool
    pairs_checked: int
    failures: tuple = ()


def additivity_check(d: GDistribution, family) -> AdditivityReport:
    """P(A u B) = P(A) + P(B) over every disjoint pair of the family,
    all sums exact. Pointwise-defined measures pass structurally; the
    check exists to pin the additivity contract down, not to surprise.
    Each distinct member's measure is summed once.

    Events are compared as bitmasks over the outcomes, and measures in
    their integer form where the context has one, so on a product a pair
    passes when it passes in every component."""
    ctx = d.context
    sets = [frozenset(a) for a in family]
    table = {a: d.probability(a) for a in dict.fromkeys(sets)}
    bit = {om: 1 << i for i, om in enumerate(d.outcomes)}
    mask = {a: sum(map(bit.__getitem__, a)) for a in table}
    form = ctx._ints(table.values())
    values, add = (form[0], operator.add) if form else (table.values(), ctx.add)
    value = dict(zip(mask.values(), values))
    member = {m: a for a, m in mask.items()}
    masks = [mask[a] for a in sets]
    checked = 0
    failures = []
    for i, ma in enumerate(masks):
        for mb in masks[i:]:
            if ma & mb:
                continue
            checked += 1
            mu = ma | mb
            if mu in value and value[mu] == add(value[ma], value[mb]):
                continue
            a, b = member[ma], member[mb]
            lhs = table[member[mu]] if mu in value else d.probability(a | b)
            rhs = ctx.add(table[a], table[b])
            if lhs != rhs:
                failures.append((a, b, lhs, rhs))
    return AdditivityReport(not failures, checked, tuple(failures))


@dataclass(frozen=True)
class UnitAxiomReport:
    holds: bool
    sup: Fraction
    expected: Fraction
    witness: frozenset


def unit_axiom_check(d: GDistribution, family) -> UnitAxiomReport:
    """Does max_{A in family} rho(0, P(A)) equal rho(0, E)?

    Classical probabilities satisfy this with the sup attained at the
    whole space; signed weights can overshoot (a set can outweigh E),
    and the report then carries the witnessing event.
    """
    events = list(dict.fromkeys(map(frozenset, family)))
    if not events:
        raise RangeError("empty family")
    rho = [d.context.rho(x) for x in [d.total] + [d.probability(a) for a in events]]
    i = max(range(1, len(rho)), key=rho.__getitem__)  # the first maximal event
    return UnitAxiomReport(rho[i] == rho[0], rho[i], rho[0], events[i - 1])


def convolve(m1: GDistribution, m2: GDistribution) -> GDistribution:
    """M1 * M2: the law of a sum of independent experiments whose
    outcomes are themselves elements of a ring context. Weight at s is
    sum over x1 + x2 = s of w1(x1) w2(x2); totals multiply.

    Where the context has an integer form (see GroupContext._ints) the
    sums run on it: outcomes over their common denominators, each
    operand's weights over its own. The result keeps its weights in that
    form and builds their Fractions on first read.

    Examples:
        >>> bernoulli = GDistribution(RationalRealContext(), {0: Fraction(1, 3), 1: Fraction(2, 3)})
        >>> square = convolve(bernoulli, bernoulli)
        >>> [f"{s}: {square.weight(s)}" for s in square.outcomes]
        ['0: 1/9', '1: 4/9', '2: 4/9']
    """
    ctx = m1.context
    if m2.context.tag != ctx.tag:
        raise RangeError(f"mismatched contexts {ctx.tag} vs {m2.context.tag}")
    if not ctx.is_ring:
        raise NoRingStructure(f"convolution needs ring weights; context {ctx.tag}")
    if m1._form and m2._form:
        (w1, e1), (w2, e2) = m1._form, m2._form
        n1 = len(m1.outcomes)
        ks, den = ctx._ints([ctx.coerce(x) for x in m1.outcomes + m2.outcomes])
        right = list(zip(ks[n1:], w2.values()))
        acc: dict = {}
        for k1, v1 in zip(ks[:n1], w1.values()):
            for k2, v2 in right:
                k = k1 + k2
                if k in acc:
                    acc[k] += v1 * v2
                else:
                    acc[k] = v1 * v2
        return GDistribution._from_ints(ctx, ({ctx._fraction(k, den): acc[k] for k in sorted(acc)}, e1 * e2))
    right = [(ctx.coerce(x2), m2.weight(x2)) for x2 in m2.outcomes]
    acc = {}
    for x1 in m1.outcomes:
        c1 = ctx.coerce(x1)
        w1 = m1.weight(x1)
        for c2, w2 in right:
            s = ctx.add(c1, c2)
            w = ctx.mul(w1, w2)
            acc[s] = ctx.add(acc[s], w) if s in acc else w
    return GDistribution(ctx, [(s, acc[s]) for s in sorted(acc)])


def dirac(context: GroupContext, point) -> GDistribution:
    """The unit of convolution: all weight at one point."""
    if not context.is_ring:
        raise NoRingStructure(f"dirac unit needs ring weights; context {context.tag}")
    return GDistribution(context, [(context.coerce(point), context.one)])


def conditional(d: GDistribution, a, b):
    """Bayes quotient P(A n B) P(A)**-1 in the context's ring."""
    ctx = d.context
    if not ctx.is_ring:
        raise NoRingStructure(f"conditioning needs a ring; context {ctx.tag}")
    a = frozenset(a)
    b = frozenset(b)
    pa = d.probability(a)
    if not ctx.is_invertible(pa):
        raise NotInvertible(f"P(A) = {pa} is not invertible")
    return ctx.mul(d.probability(a & b), ctx.inverse(pa))


class SignificanceNeighborhood:
    """V_eps = {x : rho(0, x) < eps}: the events deemed practically
    impossible. Always contains the neutral element."""

    def __init__(self, context: GroupContext, epsilon):
        self.context = context
        self.epsilon = as_fraction(epsilon)
        if self.epsilon <= 0:
            raise RangeError("significance radius must be positive")

    def contains(self, value) -> bool:
        return self.context.rho(value) < self.epsilon

    def __repr__(self):
        return f"SignificanceNeighborhood({self.context.tag}, eps={self.epsilon})"


def significance_classify(value, v: SignificanceNeighborhood) -> str:
    return PRACTICALLY_IMPOSSIBLE if v.contains(value) else SIGNIFICANT


@dataclass(frozen=True)
class CriticalRegion:
    event: frozenset
    level: SignificanceNeighborhood


@dataclass(frozen=True)
class RegionTestResult:
    rejected: bool
    strongest_epsilon: Fraction | None
    triggered: tuple[CriticalRegion, ...]


class CriticalRegionTest:
    """Hypothesis test from critical regions: each region must have a
    practically impossible probability at its level (checked at setup;
    RegionNotSignificant otherwise), and an observed outcome rejects at
    every level whose region contains it. The report carries the
    strongest (smallest-radius) rejecting level."""

    def __init__(self, d: GDistribution, regions):
        self.distribution = d
        checked = []
        for region in regions:
            if not isinstance(region, CriticalRegion):
                event, level = _as_pair(region, "critical region")
                region = CriticalRegion(frozenset(event), level)
            p = d.probability(region.event)
            if not region.level.contains(p):
                raise RegionNotSignificant(
                    f"P(region) = {p} is outside the level (eps={region.level.epsilon})"
                )
            checked.append(region)
        self.regions = tuple(checked)

    def run(self, outcome) -> RegionTestResult:
        if outcome not in self.distribution.outcomes:
            raise RangeError(f"outcome {outcome!r} outside the experiment")
        hit = tuple(r for r in self.regions if outcome in r.event)
        if not hit:
            return RegionTestResult(False, None, ())
        strongest = min(r.level.epsilon for r in hit)
        return RegionTestResult(True, strongest, hit)
