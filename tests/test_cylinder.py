"""Clopen algebra normal form, cylinder measures, and integration."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.cylinder import (
    _FULL,
    _trie,
    Clopen,
    ContinuousMap,
    Cylinder,
    CylinderMeasure,
    StepFunction,
    UniformMeasure,
    decode_jq,
    digit_weight_map,
    encode_jq,
    format_clopen,
    integrate_continuous,
    integrate_step,
    parse_clopen,
    zero_measure,
)
from padicprob.errors import (
    AlphabetMismatch,
    DigitRange,
    DomainError,
    OscillationMissing,
    RangeError,
)
from padicprob.padic import PadicAbs, PadicApprox, abs_p


def clopens(q, depth=3, width=4):
    words = st.lists(st.integers(0, q - 1), max_size=depth).map(tuple)
    return st.lists(words, max_size=width).map(lambda ws: Clopen(q, ws))


def _per_digit_weight(word, p):
    """The digit-weight map summed one Fraction per digit."""
    return sum(Fraction(d) * Fraction(p) ** j for j, d in enumerate(word))


def _uniform_norm(clopen, p):
    """The uniform measure's norm read off directly: every cylinder has
    mass q**-l, a p-adic unit, so the norm is 1 on any nonempty set."""
    return PadicAbs.zero(p) if clopen.is_empty else PadicAbs.one(p)


def _walk_norm(measure, clopen):
    """The norm by a walk over every cylinder under the set down to the
    table depth, each mass summed from the table."""
    best = PadicAbs.zero(measure.prime)
    stack = list(clopen.words)
    while stack:
        w = stack.pop()
        best = max(best, abs_p(measure.cylinder_mass(w), measure.prime))
        if len(w) < measure.depth:
            stack.extend(w + (d,) for d in range(measure.q))
    return best


#: (q, p) pairs with p != q
ALPHABET_PRIMES = st.sampled_from([(2, 3), (3, 2), (2, 5), (5, 3), (3, 7)])

SIGNED_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def marginal_cases(draw):
    """A measure, a digit-additive map and a depth the prefix walk reaches."""
    q, p = draw(ALPHABET_PRIMES)
    kind = draw(st.sampled_from(["sparse", "full", "uniform", "zero"]))
    if kind == "uniform":
        measure = UniformMeasure(q, p)
    elif kind == "zero":
        measure = zero_measure(q, p)
    else:
        t = draw(st.integers(0, 3))
        words = list(itertools.product(range(q), repeat=t))
        if kind == "sparse":
            words = draw(st.lists(st.sampled_from(words), unique=True, max_size=len(words)))
        measure = CylinderMeasure(q, p, t, {w: draw(SIGNED_RATIONALS) for w in words})
    depth = draw(st.integers(0, 6 if q < 5 else 4))
    if draw(st.booleans()):
        f = digit_weight_map(q, p)
    else:
        c = [[draw(SIGNED_RATIONALS) for _ in range(q)] for _ in range(depth)]
        f = ContinuousMap(
            lambda w: sum((c[j][d] for j, d in enumerate(w)), Fraction(0)),
            oscillation=lambda n: n,
            digit_term=lambda j, d: c[j][d],
        )
    return measure, f, depth


class TestEncoding:
    def test_spot_values(self):
        assert encode_jq((1, 2), 3) == 7
        assert encode_jq("102", 3) == 19
        assert encode_jq((), 3) == 0
        assert decode_jq(19, 3, 3) == (1, 0, 2)
        assert decode_jq(0, 2, 0) == ()

    def test_roundtrip(self):
        for q, depth in ((2, 5), (3, 4)):
            for n in range(q**depth):
                assert encode_jq(decode_jq(n, q, depth), q) == n

    def test_rejects(self):
        with pytest.raises(DigitRange):
            encode_jq((3,), 3)
        with pytest.raises(DigitRange):
            encode_jq("1a", 3)
        with pytest.raises(DigitRange):
            decode_jq(9, 3, 2)
        with pytest.raises(DigitRange):
            decode_jq(0, 3, -1)
        with pytest.raises(ValueError):
            encode_jq((0,), 4)  # alphabet size must be prime

    @pytest.mark.parametrize("word", [(1.5, 2), 5], ids=["fractional-digit", "not-a-sequence"])
    def test_rejects_non_integer_words(self, word):
        # int(1.5) would truncate to a valid digit
        with pytest.raises(DigitRange):
            Clopen(3, [word])
        with pytest.raises(DigitRange):
            encode_jq(word, 3)
        with pytest.raises(DigitRange):
            CylinderMeasure(3, 2, 2, {word: Fraction(1)})

    @pytest.mark.parametrize("words", ["01", "", "*"])
    def test_rejects_bare_string(self, words):
        # a str would be read as a list of one-digit words: "01" as the cylinders 0 and 1
        with pytest.raises(RangeError, match="sequence of words"):
            Clopen(3, words)
        with pytest.raises(RangeError, match="sequence of words"):
            StepFunction(3, [(words, 1)])

    def test_word_list_of_one_string(self):
        # the accepted spellings of the cylinder 01, matching Cylinder(3, "01")
        assert Clopen(3, ["01"]).words == Clopen(3, [(0, 1)]).words == (Cylinder(3, "01").word,)
        assert StepFunction(3, [(["01"], 1)]).value_at((0, 1, 2)) == 1


class TestCylinder:
    def test_basic(self):
        c = Cylinder(3, "012")
        assert c.word == (0, 1, 2)
        assert c.length == 3

    def test_rejects_bad_digit(self):
        with pytest.raises(DigitRange):
            Cylinder(3, (0, 3))


class TestClopenNormalForm:
    def test_complete_family_merges(self):
        assert Clopen(2, ["0", "1"]).is_whole
        assert Clopen(3, ["0", "1", "2"]).is_whole
        assert Clopen(3, ["00", "01", "02"]).words == ((0,),)

    def test_nested_absorbed_either_order(self):
        assert Clopen(3, ["0", "01"]).words == ((0,),)
        assert Clopen(3, ["01", "0"]).words == ((0,),)
        assert Clopen(3, ["01", "01"]).words == ((0, 1),)

    def test_sorted_antichain(self):
        assert Clopen(3, ["2", "0"]).words == ((0,), (2,))
        assert Clopen(3, ["00", "01"]).words == ((0, 0), (0, 1))

    def test_empty_and_whole(self):
        assert Clopen.empty(3).is_empty
        assert Clopen.whole(3).is_whole
        assert Clopen.whole(3).max_depth == 0
        assert Clopen(3, ["00", "1"]).max_depth == 2

    def test_equality_is_normal_form_equality(self):
        assert Clopen(3, ["00", "01", "02"]) == Clopen(3, ["0"])
        assert len({Clopen(2, ["0", "1"]), Clopen.whole(2)}) == 1

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Clopen.whole(3).words = ()

    @pytest.mark.parametrize("region", [Clopen(3, ["01", "2"]), Clopen.whole(2), Clopen.empty(5)])
    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle(self, region, clone):
        twin = clone(region)
        assert twin == region
        assert hash(twin) == hash(region)
        assert twin._trie == _trie(region.words, region.q)

    # canonical uniqueness: the same leaf set assembled from two unrelated
    # word families must normalize identically
    def test_uniqueness_via_leaf_subsets(self):
        rng = random.Random(11)
        q, depth = 2, 4
        leaves = [decode_jq(n, q, depth) for n in range(q**depth)]
        for _ in range(200):
            chosen = [w for w in leaves if rng.random() < 0.5]
            rest = [w for w in leaves if w not in chosen]
            a = Clopen(q, chosen)
            assert a.complement() == Clopen(q, rest)
            assert a.complement().complement() == a


def _trie_contains(clopen, prefix):
    # the former trie walk of Clopen.contains, kept as its oracle
    node = _trie(clopen.words, clopen.q)
    for d in prefix:
        if node is _FULL:
            return True
        node = node.get(d, {})
    if node is _FULL:
        return True
    if node == {}:
        return False
    raise ValueError("prefix too short")


class TestClopenAlgebra:
    def test_hand_values(self):
        a = Clopen(3, ["0"])
        b = Clopen(3, ["1"])
        assert (a | b).words == ((0,), (1,))
        assert (a & b).is_empty
        assert a.complement().words == ((1,), (2,))
        assert (Clopen(3, ["0", "1"]) - b) == a

    def test_intersection_refines(self):
        a = Clopen(3, ["0"])
        b = Clopen(3, ["01", "2"])
        assert (a & b).words == ((0, 1),)

    @settings(max_examples=150)
    @given(clopens(3), clopens(3), clopens(3))
    def test_boolean_laws(self, a, b, c):
        whole = Clopen.whole(3)
        empty = Clopen.empty(3)
        assert (a | b) == (b | a)
        assert (a & b) == (b & a)
        assert ((a | b) | c) == (a | (b | c))
        assert ((a & b) & c) == (a & (b & c))
        assert (a & (b | c)) == ((a & b) | (a & c))
        assert (a | b).complement() == (a.complement() & b.complement())
        assert (a | a.complement()) == whole
        assert (a & a.complement()) == empty
        assert (a & (a | b)) == a
        assert (a - b) == (a & b.complement())

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            Clopen(3, ["0"]) | Clopen(5, ["0"])
        with pytest.raises(TypeError):
            Clopen(3, ["0"]) & "0"

    def test_contains(self):
        a = Clopen(3, ["00", "01"])
        assert a.contains("00")
        assert a.contains("000")
        assert not a.contains("02")
        assert not a.contains("1")
        with pytest.raises(ValueError):
            a.contains("0")  # both decided children, prefix too short
        assert Clopen.whole(3).contains(())
        assert not Clopen.empty(3).contains(())

    @settings(max_examples=300)
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_contains_matches_trie_walk(self, q, data):
        region = data.draw(clopens(q, depth=4, width=6))
        prefix = tuple(data.draw(st.lists(st.integers(0, q - 1), max_size=5)))
        try:
            expected = _trie_contains(region, prefix)
        except ValueError:
            with pytest.raises(ValueError, match="too short to decide membership"):
                region.contains(prefix)
        else:
            assert region.contains(prefix) is expected


def _leaf_sets(a, b):
    """Both operands and the whole space as sets of words at the operands'
    common depth: the brute-force route of the set operations."""
    depth = max(a.max_depth, b.max_depth)

    def expand(c):
        return {w + tail for w in c.words for tail in itertools.product(range(c.q), repeat=depth - len(w))}

    return expand(a), expand(b), expand(Clopen.whole(a.q))


@st.composite
def wide_clopen_pairs(draw, q):
    words = draw(st.lists(st.lists(st.integers(0, q - 1), max_size=6).map(tuple), max_size=30))
    # whole sibling families, whose members the operands then share out, so
    # that a union has to merge them
    families = draw(st.lists(st.lists(st.integers(0, q - 1), max_size=5).map(tuple), max_size=2))
    words += [w + (d,) for w in families for d in range(q)]
    sides = draw(st.lists(st.sampled_from("ab+"), min_size=len(words), max_size=len(words)))
    a = Clopen(q, [w for w, side in zip(words, sides) if side != "b"])
    b = Clopen(q, [w for w, side in zip(words, sides) if side != "a"])
    return a, b


class TestTrieKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_against_leaf_sets(self, q, data):
        a, b = data.draw(wide_clopen_pairs(q))
        before = [(c.words, copy.deepcopy(c._trie)) for c in (a, b)]
        x, y, whole = _leaf_sets(a, b)
        for result, leaves in ((a | b, x | y), (a & b, x & y), (a.complement(), whole - x), (a - b, x - y)):
            assert result == Clopen(q, leaves)
            assert result._trie == _trie(result.words, q)
        # results may share subtrees with their operands, which stay as they were
        assert [(c.words, c._trie) for c in (a, b)] == before


class TestClopenText:
    def test_spot(self):
        assert format_clopen(Clopen.whole(3)) == "*"
        assert format_clopen(Clopen.empty(3)) == ""
        assert format_clopen(Clopen(3, ["2", "00"])) == "00;2"
        assert parse_clopen("*", 3).is_whole
        assert parse_clopen("", 3).is_empty
        assert parse_clopen("00 ; 2", 3) == Clopen(3, ["00", "2"])

    @settings(max_examples=80)
    @given(clopens(3))
    def test_roundtrip(self, a):
        assert parse_clopen(format_clopen(a), 3) == a

    def test_wide_alphabet_unsupported(self):
        with pytest.raises(ValueError):
            format_clopen(Clopen.whole(11))
        with pytest.raises(ValueError):
            parse_clopen("0", 11)


BERN = {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}


class TestCylinderMeasure:
    def test_hand_masses(self):
        m = CylinderMeasure(2, 3, 1, BERN)
        assert m.cylinder_mass((0,)) == Fraction(1, 3)
        assert m.cylinder_mass((0, 0)) == Fraction(1, 6)
        assert m.cylinder_mass(()) == 1
        assert m.measure(Clopen(2, ["1"])) == Fraction(2, 3)
        assert m.total() == 1
        assert m.is_probability

    def test_mass_above_table_depth_sums(self):
        vals = {
            (0, 0): Fraction(1, 4),
            (0, 1): Fraction(1, 8),
            (1, 0): Fraction(1, 2),
            (1, 1): Fraction(1, 8),
        }
        m = CylinderMeasure(2, 3, 2, vals)
        assert m.cylinder_mass((0,)) == Fraction(3, 8)
        assert m.total() == 1

    @pytest.mark.parametrize("depth", [1.5, "1", True])
    def test_depth_must_be_an_int(self, depth):
        # int() would read 1.5 and "1" as 1, and "1" < 0 would raise a bare TypeError
        with pytest.raises(RangeError, match="^table depth must be an int"):
            CylinderMeasure(2, 3, depth, BERN)

    def test_needs_distinct_primes(self):
        with pytest.raises(DomainError):
            CylinderMeasure(3, 3, 0, {(): Fraction(1)})
        with pytest.raises(DomainError):
            UniformMeasure(3, 3)

    def test_table_shape_checks(self):
        with pytest.raises(ValueError):
            CylinderMeasure(2, 3, 1, {(0, 0): Fraction(1)})
        with pytest.raises(ValueError):
            CylinderMeasure(2, 3, -1, {})

    def test_additive_on_clopens(self):
        m = CylinderMeasure(2, 3, 1, BERN)
        rng = random.Random(5)
        leaves = [decode_jq(n, 2, 3) for n in range(8)]
        for _ in range(100):
            a = Clopen(2, [w for w in leaves if rng.random() < 0.5])
            b = Clopen(2, [w for w in leaves if rng.random() < 0.5])
            assert m.measure(a | b) + m.measure(a & b) == m.measure(a) + m.measure(b)
            assert m.measure(a) + m.measure(a.complement()) == 1

    def test_measure_norm_hand(self):
        m = CylinderMeasure(2, 3, 1, BERN)
        assert m.measure_norm(Clopen.whole(2)) == abs_p(Fraction(1, 3), 3)
        assert m.measure_norm(Clopen.empty(2)) == PadicAbs.zero(3)
        assert m.measure_norm(Clopen(2, ["00"])) == abs_p(Fraction(1, 6), 3)

    # sup over every clopen subset, enumerated outright on a small space
    def test_measure_norm_against_subset_enumeration(self):
        vals = {
            (0, 0): Fraction(9),
            (0, 1): Fraction(1, 3),
            (1, 0): Fraction(1),
            (1, 1): Fraction(2, 3),
        }
        m = CylinderMeasure(2, 3, 2, vals)
        leaves = [decode_jq(n, 2, 2) for n in range(4)]
        for region_bits in range(1, 16):
            region = Clopen(2, [w for i, w in enumerate(leaves) if region_bits >> i & 1])
            inside = [w for w in leaves if region.contains(w)]
            best = PadicAbs.zero(3)
            for sub_bits in range(1, 2 ** len(inside)):
                sub = Clopen(2, [w for i, w in enumerate(inside) if sub_bits >> i & 1])
                a = abs_p(m.measure(sub), 3)
                if a > best:
                    best = a
            assert m.measure_norm(region) == best

    # sparse tables with zero and missing entries, and clopen words both
    # shorter and longer than the table depth
    @settings(max_examples=150)
    @given(ALPHABET_PRIMES, st.integers(0, 3), st.data())
    def test_measure_norm_against_the_cylinder_walk(self, qp, depth, data):
        q, p = qp
        words = list(itertools.product(range(q), repeat=depth))
        scaled = st.builds(lambda u, k: u * Fraction(p) ** k, SIGNED_RATIONALS, st.integers(-2, 2))
        table = data.draw(st.dictionaries(st.sampled_from(words), st.just(Fraction(0)) | scaled))
        m = CylinderMeasure(q, p, depth, table)
        region = data.draw(clopens(q, depth=depth + 2))
        assert m.measure_norm(region) == _walk_norm(m, region)

    def test_point_norm(self):
        vals = {
            (0, 0): Fraction(9),
            (0, 1): Fraction(1, 3),
            (1, 0): Fraction(1),
            (1, 1): Fraction(2, 3),
        }
        m = CylinderMeasure(2, 3, 2, vals)
        assert m.point_norm((0, 0)) == abs_p(Fraction(9), 3)
        assert m.point_norm((0, 1)) == abs_p(Fraction(1, 3), 3)
        with pytest.raises(ValueError):
            m.point_norm((0,))

    @settings(max_examples=150)
    @given(ALPHABET_PRIMES, st.integers(0, 3), st.data())
    def test_point_norm_matches_inf_over_cuts(self, qp, depth, data):
        q, p = qp
        words = [decode_jq(n, q, depth) for n in range(q**depth)]
        # masses in [-50, 50] as one list of numerators over one denominator,
        # far cheaper to draw than a Fraction per word; zero, negative and
        # p-divisible numerators all occur
        den = data.draw(st.integers(1, 50))
        nums = data.draw(st.lists(st.integers(-50 * den, 50 * den), min_size=len(words), max_size=len(words)))
        m = CylinderMeasure(q, p, depth, {w: Fraction(n, den) for w, n in zip(words, nums)})
        prefix = data.draw(st.lists(st.integers(0, q - 1), min_size=depth, max_size=depth + 3))
        # the definition: the least norm over every cylinder containing the point
        cuts = [m.measure_norm(Clopen(q, (prefix[:cut],))) for cut in range(len(prefix) + 1)]
        assert m.point_norm(prefix) == min(cuts)

    def test_alphabet_mismatch(self):
        m = CylinderMeasure(2, 3, 1, BERN)
        with pytest.raises(AlphabetMismatch):
            m.measure(Clopen.whole(3))
        with pytest.raises(AlphabetMismatch):
            m.measure_norm(Clopen.whole(3))


class TestUniformMeasure:
    def test_masses(self):
        u = UniformMeasure(2, 3)
        assert u.cylinder_mass((0, 1)) == Fraction(1, 4)
        assert u.measure(Clopen(2, ["01"])) == Fraction(1, 4)
        assert u.total() == 1
        assert u.is_probability

    def test_norms(self):
        u = UniformMeasure(2, 3)
        assert u.measure_norm(Clopen.whole(2)) == PadicAbs.one(3)
        assert u.measure_norm(Clopen.empty(2)) == PadicAbs.zero(3)
        assert u.point_norm((0, 1, 1)) == PadicAbs.one(3)

    @given(ALPHABET_PRIMES, st.data())
    def test_norms_against_constant_norms(self, qp, data):
        q, p = qp
        u = UniformMeasure(q, p)
        region = data.draw(clopens(q))
        assert u.measure_norm(region) == _uniform_norm(region, p)
        prefix = data.draw(st.lists(st.integers(0, q - 1), max_size=6))
        assert u.point_norm(prefix) == PadicAbs.one(p)

    def test_zero_measure(self):
        z = zero_measure(2, 3)
        assert z.total() == 0
        assert z.measure(Clopen(2, ["0"])) == 0
        assert z.measure_norm(Clopen.whole(2)) == PadicAbs.zero(3)
        assert not z.is_probability


class TestStepFunction:
    def test_value_at(self):
        f = StepFunction(2, [(Clopen(2, ["0"]), Fraction(5)), (Clopen(2, ["10"]), Fraction(7))])
        assert f.value_at((0,)) == 5
        assert f.value_at((1, 0)) == 7
        assert f.value_at((1, 1)) == 0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(2, [(Clopen(2, ["0"]), 1), (Clopen(2, ["00"]), 2)])

    def test_empty_pieces_dropped(self):
        f = StepFunction(2, [(Clopen.empty(2), 3), (Clopen(2, ["1"]), 2)])
        assert len(f.pieces) == 1

    def test_integrate_hand_value(self):
        u = UniformMeasure(2, 3)
        f = StepFunction(2, [(Clopen(2, ["0"]), Fraction(5)), (Clopen(2, ["10"]), Fraction(7))])
        assert integrate_step(u, f) == Fraction(5, 2) + Fraction(7, 4)

    def test_integrate_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            integrate_step(UniformMeasure(3, 2), StepFunction(2, []))

    # |integral| <= max |c_k| when the measure norm is 1
    def test_ultrametric_bound(self):
        u = UniformMeasure(2, 3)
        rng = random.Random(7)
        leaves = [decode_jq(n, 2, 3) for n in range(8)]
        for _ in range(100):
            pieces = []
            for w in leaves:
                if rng.random() < 0.6:
                    pieces.append((Clopen(2, [w]), Fraction(rng.randint(-20, 20), rng.randint(1, 9))))
            f = StepFunction(2, pieces)
            total = integrate_step(u, f)
            if not f.pieces:
                assert total == 0
                continue
            bound = max(abs_p(v, 3) for _, v in f.pieces)
            assert abs_p(total, 3) <= bound


class TestContinuousIntegration:
    def test_digit_weight_evaluator(self):
        f = digit_weight_map(2, 3)
        assert f.evaluator((1, 0, 1)) == 10
        assert f.oscillation(4) == 4

    @given(st.sampled_from([2, 3, 5]), st.sampled_from([2, 3, 7]), st.lists(st.integers(0, 4), max_size=12))
    def test_evaluator_against_per_digit_sum(self, q, p, digits):
        word = tuple(d % q for d in digits)
        f = digit_weight_map(q, p)
        assert f.evaluator(word) == _per_digit_weight(word, p)
        assert f.evaluator(word) == sum((f.digit_term(j, d) for j, d in enumerate(word)), Fraction(0))

    # the prefix walk, which a map without a per-digit form takes, is the oracle
    @settings(max_examples=150, deadline=None)
    @given(marginal_cases())
    def test_marginal_route_against_prefix_walk(self, case):
        measure, f, depth = case
        walked = ContinuousMap(f.evaluator, f.oscillation, f.name)
        fast = integrate_continuous(measure, f, depth)
        slow = integrate_continuous(measure, walked, depth)
        assert fast.riemann_sum == slow.riemann_sum
        assert fast.error_exponent == slow.error_exponent
        assert fast.value == slow.value

    # the reference route: j_q order, one Fraction per digit
    @settings(max_examples=30, deadline=None)
    @given(ALPHABET_PRIMES, st.integers(0, 5))
    def test_riemann_sum_against_per_digit_route(self, qp, depth):
        q, p = qp
        u = UniformMeasure(q, p)
        words = [decode_jq(i, q, depth) for i in range(q**depth)]
        expected = sum((_per_digit_weight(w, p) * u.cylinder_mass(w) for w in words), Fraction(0))
        assert integrate_continuous(u, digit_weight_map(q, p), depth).riemann_sum == expected

    def test_uniform_riemann_sums(self):
        u = UniformMeasure(2, 3)
        f = digit_weight_map(2, 3)
        res = integrate_continuous(u, f, 6)
        assert res.riemann_sum == Fraction(182)  # (3**6 - 1) / 4
        assert res.error_exponent == 6
        assert res.value.congruent_to(Fraction(-1, 4))
        for depth in range(1, 9):
            out = integrate_continuous(u, f, depth)
            assert out.riemann_sum == Fraction(3**depth - 1, 4)
            assert out.error_exponent == depth

    def test_sums_cauchy_within_declared_error(self):
        u = UniformMeasure(2, 3)
        f = digit_weight_map(2, 3)
        sums = [integrate_continuous(u, f, d) for d in range(1, 8)]
        for i, lo in enumerate(sums):
            for hi in sums[i + 1 :]:
                gap = abs_p(hi.riemann_sum - lo.riemann_sum, 3)
                assert gap <= PadicAbs.from_valuation(3, lo.error_exponent)

    def test_table_measure_hand_value(self):
        m = CylinderMeasure(2, 3, 1, BERN)
        res = integrate_continuous(m, digit_weight_map(2, 3), 2)
        assert res.riemann_sum == Fraction(13, 6)
        assert res.error_exponent == 1  # oscillation 2 minus norm exponent 1

    def test_to_json(self):
        res = integrate_continuous(CylinderMeasure(2, 3, 1, BERN), digit_weight_map(2, 3), 2)
        assert res.report_lines("json") == ['{"depth": 2, "error_exponent": 1, "value": "13/6"}']

    @pytest.mark.parametrize("oscillation", [lambda n: n / 2, str], ids=["half", "text"])
    def test_oscillation_must_be_an_int(self, oscillation):
        # int() would truncate 5 / 2 to an error exponent of 2, and parse "5"
        f = ContinuousMap(digit_weight_map(2, 3).evaluator, oscillation, "loose")
        with pytest.raises(RangeError, match="^oscillation exponent must be an int"):
            integrate_continuous(UniformMeasure(2, 3), f, 5)

    def test_zero_measure_exact(self):
        res = integrate_continuous(zero_measure(2, 3), digit_weight_map(2, 3), 3)
        assert res.riemann_sum == 0
        assert res.error_exponent == 3

    def test_oscillation_required(self):
        bare = ContinuousMap(lambda w: Fraction(0))
        with pytest.raises(OscillationMissing):
            integrate_continuous(UniformMeasure(2, 3), bare, 2)
        with pytest.raises(ValueError):
            integrate_continuous(UniformMeasure(2, 3), digit_weight_map(2, 3), -1)
