"""Group-valued probabilities: contexts, axioms, convolution, and
critical-region tests."""

import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.errors import NoRingStructure, NotInvertible, RangeError, RegionNotSignificant
from padicprob.frequency import Collective, SequenceSelector, checkpoint_forcing_bits
from padicprob.gvalued import (
    PRACTICALLY_IMPOSSIBLE,
    SIGNIFICANT,
    AdditivityReport,
    CriticalRegion,
    CriticalRegionTest,
    GDistribution,
    GroupContext,
    ProductContext,
    RationalPadicContext,
    RationalRealContext,
    SignificanceNeighborhood,
    UnitAxiomReport,
    additivity_check,
    conditional,
    context_from_tag,
    convolve,
    dirac,
    powerset_field,
    significance_classify,
    unit_axiom_check,
)
from padicprob.limits import (
    ball_probability,
    sphere_probability,
    sphere_randomness_test,
    symmetric_params,
)
from padicprob.padic import as_fraction

REAL = RationalRealContext()
PADIC3 = RationalPadicContext(3)


class AdditiveOnly(GroupContext):
    """Rationals under addition with no declared multiplication."""

    tag = "additive"

    def coerce(self, x):
        return as_fraction(x)

    def add(self, x, y):
        return x + y

    def negate(self, x):
        return -x

    @property
    def neutral(self):
        return Fraction(0)

    def rho(self, x) -> Fraction:
        return abs(as_fraction(x))


def same_distribution(a: GDistribution, b: GDistribution) -> bool:
    return (
        a.context.tag == b.context.tag
        and sorted(a.outcomes) == sorted(b.outcomes)
        and all(a.weight(om) == b.weight(om) for om in a.outcomes)
    )


class TestContexts:
    def test_rho_values(self):
        assert REAL.rho(Fraction(-3, 2)) == Fraction(3, 2)
        assert REAL.rho(0) == 0
        assert PADIC3.rho(Fraction(27, 2)) == Fraction(1, 27)
        assert PADIC3.rho(Fraction(1, 3)) == 3
        assert PADIC3.rho(0) == 0

    def test_group_axioms(self):
        rng = random.Random(9)
        for ctx in (REAL, PADIC3):
            for _ in range(80):
                x, y, z = (
                    Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3)
                )
                assert ctx.add(x, y) == ctx.add(y, x)
                assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
                assert ctx.add(x, ctx.neutral) == x
                assert ctx.add(x, ctx.negate(x)) == ctx.neutral
                assert ctx.sub(x, y) == x - y
                assert (ctx.rho(x) == 0) == (x == ctx.neutral)
                assert ctx.rho(ctx.negate(x)) == ctx.rho(x)

    def test_metric_inequalities(self):
        rng = random.Random(13)
        for _ in range(100):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            y = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert REAL.rho(x + y) <= REAL.rho(x) + REAL.rho(y)
            assert PADIC3.rho(x + y) <= max(PADIC3.rho(x), PADIC3.rho(y))

    def test_ring_operations(self):
        assert REAL.mul(Fraction(2), Fraction(3, 4)) == Fraction(3, 2)
        assert REAL.one == 1
        assert PADIC3.inverse(Fraction(2)) == Fraction(1, 2)
        assert not REAL.is_invertible(Fraction(0))
        with pytest.raises(NotInvertible):
            REAL.inverse(Fraction(0))

    def test_additive_only_has_no_ring(self):
        ctx = AdditiveOnly()
        with pytest.raises(NoRingStructure):
            ctx.mul(1, 1)
        with pytest.raises(NoRingStructure):
            ctx.one

    def test_product(self):
        prod = ProductContext(REAL, PADIC3)
        x = prod.coerce((Fraction(1, 2), Fraction(9)))
        assert prod.rho(x) == Fraction(1, 2)  # max(1/2, 1/9)
        assert prod.neutral == (0, 0)
        assert prod.add(x, prod.negate(x)) == (0, 0)
        assert prod.is_ring
        assert prod.one == (1, 1)
        assert prod.tag == "product(real,padic:3)"
        with pytest.raises(ValueError):
            prod.coerce((1,))
        with pytest.raises(ValueError):
            ProductContext()

    def test_from_tag(self):
        assert context_from_tag("real").tag == "real"
        assert context_from_tag("padic:5").prime == 5
        with pytest.raises(ValueError):
            context_from_tag("complex")

    @pytest.mark.parametrize("tag", ["padic:abc", "padic:", "padic:3.0", 3, None])
    def test_from_malformed_tag(self, tag):
        with pytest.raises(RangeError, match="unknown context tag"):
            context_from_tag(tag)


CLASSICAL = GDistribution(
    REAL, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)}
)
SIGNED = GDistribution(REAL, {"w1": Fraction(3, 2), "w2": Fraction(-1, 2)})
PADIC_D = GDistribution(PADIC3, {"x": Fraction(2), "y": Fraction(-1)})


class TestGDistribution:
    def test_basic(self):
        assert CLASSICAL.weight("b") == Fraction(1, 3)
        assert CLASSICAL.probability({"a", "c"}) == Fraction(2, 3)
        assert CLASSICAL.total == 1
        assert SIGNED.total == 1
        assert PADIC_D.total == 1

    def test_construction_checks(self):
        with pytest.raises(ValueError):
            GDistribution(REAL, {})
        with pytest.raises(ValueError):
            GDistribution(REAL, [("a", 1), ("a", 2)])
        with pytest.raises(ValueError):
            CLASSICAL.probability(["a", "a"])

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: d.weight("z"),
            lambda d: d.probability({"z"}),
            lambda d: d.probability(["a", "z"]),
            lambda d: additivity_check(d, [{"z"}]),
            lambda d: additivity_check(d, [{"a"}, {"z"}]),
            lambda d: unit_axiom_check(d, [{"z"}]),
            lambda d: CriticalRegionTest(d, [({"z"}, SignificanceNeighborhood(d.context, 1))]),
        ],
        ids=["weight", "probability", "probability-mixed", "additivity", "additivity-mixed", "unit-axiom",
             "critical-region"],
    )
    def test_unknown_outcome_in_event(self, call):
        # a RangeError, like CriticalRegionTest.run, and no bare KeyError
        for d in (CLASSICAL, PADIC_D):
            with pytest.raises(RangeError, match="outside the experiment") as caught:
                call(d)
            assert not isinstance(caught.value, KeyError)

    @pytest.mark.parametrize("weights", [{"a": 0.1}, {"a": True, "b": False}, {"a": None}])
    def test_weight_types_refused(self, weights):
        with pytest.raises(RangeError):
            GDistribution(REAL, weights)

    def test_range_check(self):
        ok = GDistribution(
            REAL,
            {"a": Fraction(1, 2), "b": Fraction(1, 2)},
            range_check=lambda w: 0 <= w <= 1,
        )
        assert ok.total == 1
        with pytest.raises(ValueError):
            GDistribution(
                REAL,
                {"a": Fraction(3, 2), "b": Fraction(-1, 2)},
                range_check=lambda w: 0 <= w <= 1,
            )

    def test_json_roundtrip(self):
        d = GDistribution(REAL, [("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        text = d.to_json()
        assert text == '{"context": "real", "outcomes": ["a", "b"], "weights": ["1/2", "1/2"]}'
        back = GDistribution.from_json(text)
        assert same_distribution(d, back)
        p = GDistribution(PADIC3, [("x", Fraction(2)), ("y", Fraction(-1))])
        assert same_distribution(p, GDistribution.from_json(p.to_json()))
        assert GDistribution.from_json(p.to_json()).context.prime == 3
        n = GDistribution(PADIC3, [(0, Fraction(1, 3)), (-2, Fraction(2, 3))])
        back = GDistribution.from_json(n.to_json())
        assert same_distribution(n, back)
        assert back.outcomes == (0, -2) and all(type(om) is int for om in back.outcomes)
        assert GDistribution.from_json(GDistribution(REAL, [(None, 1)]).to_json()).outcomes == (None,)

    @pytest.mark.parametrize(
        "text",
        [
            '{"context": "real", "outcomes": ["a"], "weights": [0.1]}',
            '{"context": "real", "outcomes": ["a"], "weights": [true]}',
            '{"context": "real", "outcomes": ["a"], "weights": [null]}',
            '{"context": "real", "outcomes": ["a"], "weights": ["1/0"]}',
            '{"context": "real", "outcomes": ["a"], "weights": ["1e400"]}',
            '{"context": "real", "outcomes": ["a"], "weights": ["x"]}',
            '{"context": "real", "outcomes": ["a"]}',
            '{"context": "real", "weights": ["1"]}',
            '{"outcomes": ["a"], "weights": ["1"]}',
            '{"context": "padic:abc", "outcomes": ["a"], "weights": ["1"]}',
            '{"context": ["real"], "outcomes": ["a"], "weights": ["1"]}',
            '{"context": "real", "outcomes": "a", "weights": ["1"]}',
            '{"context": "real", "outcomes": ["a", "b"], "weights": ["1"]}',
            '{"context": "real", "outcomes": [["a"]], "weights": ["1"]}',
            '{"context": "real", "outcomes": ["a", "a"], "weights": ["1", "1"]}',
            '{"context": "real", "outcomes": [], "weights": []}',
            '["real", ["a"], ["1"]]',
            '"real"',
            "3",
            "{",
            "",
        ],
    )
    def test_json_malformed(self, text):
        with pytest.raises(RangeError):
            GDistribution.from_json(text)

    def test_json_exact_weights(self):
        d = GDistribution.from_json('{"context": "padic:3", "outcomes": [0, 1], "weights": ["-1/10", 2]}')
        assert [d.weight(0), d.weight(1)] == [Fraction(-1, 10), Fraction(2)]
        assert all(type(d.weight(om)) is Fraction for om in d.outcomes)

    @pytest.mark.parametrize(
        "law, outcome",
        [
            # a convolution's outcomes are Fractions, which JSON cannot hold
            (convolve(dirac(REAL, 0), GDistribution(REAL, {0: Fraction(1, 2), 1: Fraction(1, 2)})), "Fraction(0, 1)"),
            # JSON would write a tuple as an array, which from_json refuses
            (GDistribution(REAL, [("a", Fraction(1, 2)), ((0, 1), Fraction(1, 2))]), "(0, 1)"),
        ],
        ids=["convolution", "tuple"],
    )
    def test_json_refuses_non_scalar_outcomes(self, law, outcome):
        with pytest.raises(RangeError) as exc:
            law.to_json()
        assert str(exc.value) == f"outcome {outcome} is not a JSON scalar"

    def test_json_excludes_products(self):
        prod = ProductContext(REAL, PADIC3)
        d = GDistribution(prod, [((Fraction(1), Fraction(1)), (1, 1))])
        with pytest.raises(ValueError):
            d.to_json()


class TestAdditivity:
    def test_three_flavors(self):
        for d in (CLASSICAL, SIGNED, PADIC_D):
            report = additivity_check(d, powerset_field(d.outcomes))
            assert isinstance(report, AdditivityReport)
            assert report.ok
            assert report.failures == ()
            assert report.pairs_checked > 0

    def test_difference_identity(self):
        # P(A - B) = P(A) - P(A n B) for every pair, in all three contexts
        for d in (CLASSICAL, SIGNED, PADIC_D):
            family = powerset_field(d.outcomes)
            for a in family:
                for b in family:
                    lhs = d.probability(a - b)
                    rhs = d.context.sub(d.probability(a), d.probability(a & b))
                    assert lhs == rhs


class TestUnitAxiom:
    def test_classical_holds_at_whole(self):
        rep = unit_axiom_check(CLASSICAL, powerset_field(CLASSICAL.outcomes))
        assert rep.holds
        assert rep.sup == 1
        assert rep.expected == 1
        assert rep.witness == frozenset({"a", "b", "c"})

    def test_signed_overshoots(self):
        rep = unit_axiom_check(SIGNED, powerset_field(SIGNED.outcomes))
        assert not rep.holds
        assert rep.sup == Fraction(3, 2)
        assert rep.expected == 1
        assert rep.witness == frozenset({"w1"})

    def test_padic_holds(self):
        rep = unit_axiom_check(PADIC_D, powerset_field(PADIC_D.outcomes))
        assert rep.holds
        assert rep.sup == 1
        assert PADIC_D.context.rho(PADIC_D.probability(rep.witness)) == rep.sup

    def test_empty_family(self):
        with pytest.raises(ValueError):
            unit_axiom_check(CLASSICAL, [])


class Skewed(AdditiveOnly):
    """x + 2y: not associative, yet a sum over an event does not depend on
    the order of its outcomes, so additivity fails the same way each run."""

    tag = "skewed"

    def add(self, x, y):
        return x + 2 * y


class Counting(GDistribution):
    calls = 0

    def probability(self, event):
        self.calls += 1
        return super().probability(event)


def additivity_by_pairs(d, family):
    """The per-pair route: every measure of every disjoint pair summed again."""
    sets = [frozenset(a) for a in family]
    checked, failures = 0, []
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if not a & b:
                checked += 1
                lhs = d.probability(a | b)
                rhs = d.context.add(d.probability(a), d.probability(b))
                if lhs != rhs:
                    failures.append((a, b, lhs, rhs))
    return AdditivityReport(not failures, checked, tuple(failures))


def unit_axiom_by_loop(d, family):
    """The sup over the family by hand; a strict > keeps the first maximal event."""
    sup = witness = None
    for a in map(frozenset, family):
        r = d.context.rho(d.probability(a))
        if sup is None or r > sup:
            sup, witness = r, a
    expected = d.context.rho(d.total)
    return UnitAxiomReport(sup == expected, sup, expected, witness)


SMALL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
AXIOM_CONTEXTS = {
    "real": (REAL, SMALL),
    "padic": (RationalPadicContext(2), SMALL),
    "product": (ProductContext(REAL, PADIC3), st.tuples(SMALL, SMALL)),
    "skewed": (Skewed(), SMALL),
}


def families(field):
    # random sub-families repeat sets and are seldom closed under union
    return st.one_of(
        st.just(field),
        st.lists(st.sampled_from(field), max_size=24),
        st.lists(st.sampled_from(field), min_size=1, max_size=6).map(lambda f: f + f[::-1]),
    )


@st.composite
def axiom_cases(draw):
    ctx, weight = AXIOM_CONTEXTS[draw(st.sampled_from(sorted(AXIOM_CONTEXTS)))]
    n = draw(st.integers(1, 6))
    d = Counting(ctx, [(f"o{i}", draw(weight)) for i in range(n)])
    return d, draw(families(powerset_field(d.outcomes)))


class TestAxiomChecksAgainstPairs:
    @settings(max_examples=300, deadline=None)
    @given(axiom_cases())
    def test_same_reports_one_measure_per_event(self, case):
        d, family = case
        expected = additivity_by_pairs(d, family)
        d.calls = 0
        assert additivity_check(d, family) == expected
        members = set(family)
        outside = sum(
            1 for i, a in enumerate(family) for b in family[i:] if not a & b and a | b not in members
        )
        assert d.calls == len(members) + outside
        if not family:
            with pytest.raises(RangeError):
                unit_axiom_check(d, family)
            return
        expected = unit_axiom_by_loop(d, family)
        d.calls = 0
        assert unit_axiom_check(d, family) == expected
        assert d.calls == len(members) + 1  # the members and E

    def test_skewed_failures_in_order(self):
        d = GDistribution(Skewed(), {"x": Fraction(1), "y": Fraction(2)})
        family = [frozenset(), frozenset("x"), frozenset("y"), frozenset("xy")]
        report = additivity_check(d, family)
        assert report == additivity_by_pairs(d, family)
        # P(A u B) against P(A) + 2 P(B), pair by pair in family order
        assert [(set(a), set(b), lhs, rhs) for a, b, lhs, rhs in report.failures] == [
            (set(), {"x"}, 2, 4), (set(), {"y"}, 4, 8), (set(), {"x", "y"}, 6, 12), ({"x"}, {"y"}, 6, 10),
        ]


class FractionRing(GroupContext):
    """Q as a ring on plain Fraction operations, with rho |x|, or |x|_p
    given a prime. It subclasses GroupContext directly, so every function
    takes its generic route: the oracle for the integer route of the
    rational contexts and their products."""

    is_ring = True

    def __init__(self, tag, prime=None):
        self.tag, self.prime = tag, prime

    def coerce(self, x):
        return as_fraction(x)

    def add(self, x, y):
        return x + y

    def negate(self, x):
        return -x

    @property
    def neutral(self):
        return Fraction(0)

    def rho(self, x) -> Fraction:
        if self.prime is None or x == 0:
            return abs(x)
        v = 0  # the p-adic valuation, counted one factor at a time
        while x.numerator % self.prime == 0:
            x, v = x / self.prime, v + 1
        while x.denominator % self.prime == 0:
            x, v = x * self.prime, v - 1
        return Fraction(self.prime) ** -v

    def mul(self, x, y):
        return x * y

    @property
    def one(self):
        return Fraction(1)

    def is_invertible(self, x) -> bool:
        return x != 0

    def inverse(self, x):
        return 1 / x


def contexts(which):
    """A context with an integer route and its generic-route oracle."""
    if which == "product":
        return ProductContext(REAL, PADIC3), ProductContext(FractionRing("real"), FractionRing("padic:3", 3))
    ctx = REAL if which == "real" else RationalPadicContext(which)
    return ctx, FractionRing(ctx.tag, None if which == "real" else which)


def typed(x):
    """x with the type of every value beside it, through tuples and reports."""
    if isinstance(x, (AdditivityReport, UnitAxiomReport)):
        x = astuple(x)
    return type(x), tuple(map(typed, x)) if isinstance(x, tuple) else x


def read(f, d):
    """typed(f(d)), or the type of what f(d) raises. (to_json raises
    RangeError on Fraction outcomes, which JSON cannot hold.)"""
    try:
        return typed(f(d))
    except (RangeError, NotInvertible, TypeError) as exc:
        return type(exc)


class Lopsided(GDistribution):
    """Adds 1 to one component of the measure of every two-outcome event,
    so that, as with Skewed, additivity fails, here in that component alone."""

    skew = 0

    def probability(self, event):
        x = super().probability(event)
        if len(set(event)) != 2:
            return x
        return tuple(v + (i == self.skew) for i, v in enumerate(x))


@st.composite
def product_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    ctx, oracle = ProductContext(REAL, RationalPadicContext(p)), ProductContext(
        FractionRing("real"), FractionRing(f"padic:{p}", p)
    )
    kind = draw(st.sampled_from([GDistribution, Lopsided]))
    weights = [(f"o{i}", w) for i, w in enumerate(draw(st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=5)))]
    got, want = kind(ctx, weights), kind(oracle, weights)
    got.skew = want.skew = draw(st.integers(0, 1))
    return got, want, draw(families(powerset_field(got.outcomes)))


class TestProductIntegerRoute:
    @settings(max_examples=300, deadline=None)
    @given(product_cases())
    def test_same_as_generic_route(self, case):
        got, want, family = case
        assert read(lambda d: d.total, got) == read(lambda d: d.total, want)
        for a in family:
            assert read(lambda d: d.probability(a), got) == read(lambda d: d.probability(a), want)
        assert typed(additivity_check(got, family)) == typed(additivity_check(want, family))
        assert read(lambda d: unit_axiom_check(d, family), got) == read(lambda d: unit_axiom_check(d, family), want)
        for a, b in zip(family[:8], family[::-1]):
            assert read(lambda d: conditional(d, a, b), got) == read(lambda d: conditional(d, a, b), want)

    def test_nested_product(self):
        # a product of products has an integer form too, component by component
        ctx = ProductContext(ProductContext(REAL, PADIC3), RationalPadicContext(2))
        oracle = ProductContext(
            ProductContext(FractionRing("real"), FractionRing("padic:3", 3)), FractionRing("padic:2", 2)
        )
        rng = random.Random(5)

        def element():
            x, y, z = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
            return (x, y), z

        laws = [[(element(), element()) for _ in range(n)] for n in (4, 3)]  # (outcome, weight) pairs
        got = [GDistribution(ctx, law) for law in laws]
        want = [GDistribution(oracle, law) for law in laws]
        family = powerset_field(got[0].outcomes)
        assert typed(additivity_check(got[0], family)) == typed(additivity_check(want[0], family))
        assert typed(unit_axiom_check(got[0], family)) == typed(unit_axiom_check(want[0], family))
        for a in family:
            assert typed(got[0].probability(a)) == typed(want[0].probability(a))
        law, oracle_law = convolve(*got), convolve(*want)
        assert typed(law.outcomes) == typed(oracle_law.outcomes)
        assert typed(READS["weight"](law)) == typed(READS["weight"](oracle_law))

    def test_lopsided_failures_in_order(self):
        d = Lopsided(ProductContext(REAL, PADIC3), {"x": (1, 1), "y": (2, Fraction(1, 3)), "z": (4, 9)})
        x, y, z, xy, yz = map(frozenset, ["x", "y", "z", "xy", "yz"])
        report = additivity_check(d, [x, y, z, xy, yz])
        assert report == additivity_by_pairs(d, [x, y, z, xy, yz])
        # the two-outcome measures are 1 too large in the first component;
        # pair by pair in family order, P(A u B) against P(A) + P(B)
        third = Fraction(1, 3)
        assert report.failures == (
            (x, y, (4, 1 + third), (3, 1 + third)),
            (x, z, (6, 10), (5, 10)),
            (x, yz, (7, 10 + third), (8, 10 + third)),
            (y, z, (7, 9 + third), (6, 9 + third)),
            (z, xy, (7, 10 + third), (8, 10 + third)),
        )


OUTCOME = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
# few small weights, so that sums at one outcome often cancel to 0
WEIGHT = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6, 9]))


def laws(outcome, weight):
    """Recipes for an operand: a Dirac point, or up to 3 outcomes with weights."""
    weighted = st.lists(st.tuples(outcome, weight), min_size=1, max_size=3, unique_by=lambda ow: ow[0])
    return st.one_of(outcome, weighted, weighted)


# up to 8 laws of up to 3 outcomes: at most 3**8 outcomes in the result
CHAINS = st.one_of(
    st.tuples(st.sampled_from(["real", 2, 3, 5]), st.lists(laws(OUTCOME, WEIGHT), min_size=2, max_size=8)),
    st.tuples(st.just("product"), st.lists(
        laws(st.tuples(OUTCOME, OUTCOME), st.tuples(WEIGHT, WEIGHT)), min_size=2, max_size=8
    )),
)


READS = {
    "weight": lambda d: tuple(d.weight(s) for s in d.outcomes),
    "probability": lambda d: tuple(d.probability(e) for e in (d.outcomes, d.outcomes[::2], d.outcomes[1::3], ())),
    "to_json": GDistribution.to_json,
    "repr": repr,
    "total": lambda d: d.total,
}


def build_law(ctx, recipe):
    return GDistribution(ctx, recipe) if isinstance(recipe, list) else dirac(ctx, recipe)


class TestConvolveIntegerRoute:
    # the result of a chain builds its weights on first read: each read, in
    # any order, gives the generic route's values with their types
    @settings(max_examples=300, deadline=None)
    @given(CHAINS, st.permutations(sorted(READS)))
    def test_same_law_as_generic_route(self, chain, order):
        which, recipes = chain
        ctx, oracle = contexts(which)
        got, want = build_law(ctx, recipes[0]), build_law(oracle, recipes[0])
        for recipe in recipes[1:]:
            got = convolve(got, build_law(ctx, recipe))
            want = convolve(want, build_law(oracle, recipe))
        assert typed(got.outcomes) == typed(want.outcomes)  # the same outcomes in the same order
        for name in order:
            assert read(READS[name], got) == read(READS[name], want)


class TestConvolve:
    def test_bernoulli_square(self):
        q = Fraction(1, 3)
        d = GDistribution(REAL, {0: q, 1: 1 - q})
        dd = convolve(d, d)
        assert dd.outcomes == (0, 1, 2)
        assert dd.weight(0) == q**2
        assert dd.weight(1) == 2 * q * (1 - q)
        assert dd.weight(2) == (1 - q) ** 2
        assert dd.total == 1

    def test_padic_weights(self):
        d = GDistribution(PADIC3, {0: Fraction(2), 1: Fraction(-1)})
        dd = convolve(d, d)
        assert dd.weight(0) == 4
        assert dd.weight(1) == -4
        assert dd.weight(2) == 1
        assert dd.total == 1

    def test_dirac_is_unit(self):
        d = GDistribution(REAL, {0: Fraction(1, 3), 2: Fraction(2, 3)})
        assert same_distribution(convolve(d, dirac(REAL, 0)), d)
        assert same_distribution(convolve(dirac(REAL, 0), d), d)

    def test_totals_multiply(self):
        d1 = GDistribution(REAL, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
        d2 = GDistribution(REAL, {0: Fraction(2), 3: Fraction(5)})
        assert convolve(d1, d2).total == d1.total * d2.total

    # pairing oracle: accumulate the product law by hand
    def test_against_pairing_enumeration(self):
        rng = random.Random(17)
        for _ in range(60):
            def draw():
                outs = rng.sample(range(-5, 9), rng.randint(1, 6))
                return GDistribution(
                    REAL,
                    {o: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for o in outs},
                )

            d1, d2 = draw(), draw()
            expected = {}
            for x1 in d1.outcomes:
                for x2 in d2.outcomes:
                    expected[x1 + x2] = (
                        expected.get(x1 + x2, Fraction(0)) + d1.weight(x1) * d2.weight(x2)
                    )
            got = convolve(d1, d2)
            assert {om: got.weight(om) for om in got.outcomes} == expected
            assert same_distribution(convolve(d1, d2), convolve(d2, d1))

    def test_associative(self):
        rng = random.Random(23)
        ds = [
            GDistribution(
                REAL, {o: Fraction(rng.randint(-5, 5), 3) for o in rng.sample(range(6), 3)}
            )
            for _ in range(3)
        ]
        left = convolve(convolve(ds[0], ds[1]), ds[2])
        right = convolve(ds[0], convolve(ds[1], ds[2]))
        assert same_distribution(left, right)

    def test_needs_ring_and_matching_contexts(self):
        plain = GDistribution(AdditiveOnly(), {0: Fraction(1)})
        with pytest.raises(NoRingStructure):
            convolve(plain, plain)
        with pytest.raises(NoRingStructure):
            dirac(AdditiveOnly(), 0)
        r = GDistribution(REAL, {0: Fraction(1)})
        p = GDistribution(PADIC3, {0: Fraction(1)})
        with pytest.raises(ValueError):
            convolve(r, p)


class TestConditional:
    def test_classical(self):
        assert conditional(CLASSICAL, {"a", "b"}, {"b", "c"}) == Fraction(2, 5)
        assert conditional(CLASSICAL, {"a"}, {"a", "b"}) == 1
        assert conditional(CLASSICAL, {"a"}, {"b"}) == 0

    def test_padic_exceeds_one(self):
        assert conditional(PADIC_D, {"x", "y"}, {"x"}) == 2

    def test_rejects(self):
        with pytest.raises(NotInvertible):
            conditional(CLASSICAL, set(), {"a"})
        plain = GDistribution(AdditiveOnly(), {"a": Fraction(1)})
        with pytest.raises(NoRingStructure):
            conditional(plain, {"a"}, {"a"})


class TestSignificance:
    def test_padic_classification(self):
        v = SignificanceNeighborhood(PADIC3, Fraction(1, 9))
        assert significance_classify(Fraction(27), v) == PRACTICALLY_IMPOSSIBLE
        assert significance_classify(Fraction(1, 2), v) == SIGNIFICANT
        assert significance_classify(Fraction(9), v) == SIGNIFICANT  # rho = 1/9, not <
        assert significance_classify(Fraction(0), v) == PRACTICALLY_IMPOSSIBLE

    def test_real_classification(self):
        v = SignificanceNeighborhood(REAL, Fraction(1, 20))
        assert significance_classify(Fraction(1, 2), v) == SIGNIFICANT
        assert significance_classify(Fraction(1, 100), v) == PRACTICALLY_IMPOSSIBLE

    def test_monotone_in_radius(self):
        small = SignificanceNeighborhood(PADIC3, Fraction(1, 27))
        large = SignificanceNeighborhood(PADIC3, Fraction(1, 3))
        for x in (Fraction(27), Fraction(81, 2), Fraction(9), Fraction(1)):
            if small.contains(x):
                assert large.contains(x)

    def test_valuation_only_dependence(self):
        v = SignificanceNeighborhood(PADIC3, Fraction(1, 9))
        assert v.contains(Fraction(27)) == v.contains(Fraction(2 * 27, 5))

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            SignificanceNeighborhood(REAL, 0)

    @pytest.mark.parametrize("eps", [0.5, True])
    def test_radius_type_refused(self, eps):
        with pytest.raises(RangeError):
            SignificanceNeighborhood(REAL, eps)


class TestCriticalRegionTest:
    def test_classical(self):
        level = SignificanceNeighborhood(REAL, Fraction(1, 5))
        test = CriticalRegionTest(CLASSICAL, [({"c"}, level)])
        hit = test.run("c")
        assert hit.rejected
        assert hit.strongest_epsilon == Fraction(1, 5)
        assert hit.triggered[0].event == frozenset({"c"})
        miss = test.run("a")
        assert not miss.rejected
        assert miss.strongest_epsilon is None

    def test_insignificant_region_rejected_at_setup(self):
        level = SignificanceNeighborhood(REAL, Fraction(1, 5))
        with pytest.raises(RegionNotSignificant):
            CriticalRegionTest(CLASSICAL, [({"a"}, level)])

    def test_strongest_level_reported(self):
        tight = SignificanceNeighborhood(REAL, Fraction(1, 5))
        loose = SignificanceNeighborhood(REAL, Fraction(1, 2))
        looser = SignificanceNeighborhood(REAL, Fraction(3, 5))
        test = CriticalRegionTest(
            CLASSICAL, [CriticalRegion(frozenset({"c"}), loose), ({"b", "c"}, looser), ({"c"}, tight)]
        )
        assert test.run("c").strongest_epsilon == Fraction(1, 5)
        assert test.run("b").strongest_epsilon == Fraction(3, 5)

    def test_unknown_outcome(self):
        level = SignificanceNeighborhood(REAL, Fraction(1, 5))
        test = CriticalRegionTest(CLASSICAL, [({"c"}, level)])
        with pytest.raises(ValueError):
            test.run("zebra")

    # the sphere randomness test, replayed through group-valued regions
    def test_reproduces_randomness_verdicts(self):
        sym = symmetric_params(3)
        sel = SequenceSelector(3, "affine", target=Fraction(1), t=1)
        terms = sel.terms(6)
        bits = checkpoint_forcing_bits(3, 1, 0, terms)
        res = sphere_randomness_test(Collective("01", symbols=bits), 3, 1, 0, sel, 2, 6)
        level = SignificanceNeighborhood(PADIC3, Fraction(1, 9))
        sphere_event = frozenset(c for c in range(9) if c % 9 in (3, 6))
        for row in res.rows:
            null = GDistribution(
                PADIC3, {c: ball_probability(sym, row.n, 2, c) for c in range(9)}
            )
            assert null.probability(sphere_event) == sphere_probability(sym, row.n, 1, 0)
            if row.k >= res.k_eps:
                test = CriticalRegionTest(null, [(sphere_event, level)])
                outcome = test.run(row.sum_value % 9)
                assert outcome.rejected == row.hit
            else:
                with pytest.raises(RegionNotSignificant):
                    CriticalRegionTest(null, [(sphere_event, level)])
        assert res.verdict == "PersistentHit"
