"""The error contract: four roots, and the exit code each one maps to."""

import ast
import inspect
import pathlib
import re
import time
from fractions import Fraction

import pytest

import padicprob
from padicprob import cli, errors
from padicprob.cli import EXIT_CODES, main
from padicprob.cylinder import (
    CylinderMeasure,
    StepFunction,
    UniformMeasure,
    decode_jq,
    digit_weight_map,
    integrate_continuous,
)
from padicprob.frequency import (
    Collective,
    SequenceSelector,
    checkpoint_forcing_bits,
    conditional_s_probability,
    event_residues,
    relative_frequency,
    s_probability,
)
from padicprob.gvalued import CriticalRegionTest, GDistribution, RationalRealContext, powerset_field
from padicprob.limits import (
    SumDistribution,
    _residue_law,
    ball_probability,
    binom,
    binom_vp,
    binomial_ball_trace,
    binomial_limit_weights,
    charfun_series,
    charfun_to_mahler,
    check_tested_depth,
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
    symmetric_params,
)
from padicprob.padic import Ball, PadicApprox, Prime, falling_binomial, to_approx
from padicprob.series import constant, cosh_scaled_sq, exp_scaled, identity, log1p_series, one

SOURCES = sorted(pathlib.Path(padicprob.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PadicProbError)
]


def _expected_exit(cls):
    for root, key in (
        (errors.RangeError, "parse"),
        (errors.HypothesisViolation, "hypothesis"),
        (errors.InsufficientData, "data"),
    ):
        if issubclass(cls, root):
            return EXIT_CODES[key]
    return EXIT_CODES["domain"]


def test_no_bare_value_error_raised():
    # a refused argument is a RangeError, which is still a ValueError for callers
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_assert_statement():
    # python -O strips assert statements, so the library never relies on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_import_is_used():
    # a deleted call must not leave its import behind; __init__ only re-exports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


@pytest.mark.parametrize("cls", [errors.InvalidTarget, errors.InvalidLabel, errors.DigitRange])
def test_argument_errors_are_range_errors(cls):
    assert issubclass(cls, errors.RangeError)
    assert issubclass(cls, ValueError)


def test_roots_are_disjoint():
    roots = (errors.RangeError, errors.HypothesisViolation, errors.InsufficientData)
    for cls in ERROR_CLASSES:
        assert sum(issubclass(cls, root) for root in roots) <= 1, cls


@pytest.mark.parametrize(
    "call,message",
    [
        # a float t once gave float sample sizes [6.5, 15.5, 42.5]
        (lambda: SequenceSelector(3, "affine", target=2, t=1.5), "t must be an int, got float"),
        (lambda: SequenceSelector(3, "power", t="2"), "t must be an int, got str"),
        (lambda: SequenceSelector(3, "power").terms(2.5), "kmax must be an int, got float"),
        (lambda: binomial_ball_trace(3, 2, 1, 1, kmax=3, t=1.5), "t must be an int, got float"),
    ],
    ids=["affine-t", "power-t", "kmax", "ball-trace-t"],
)
def test_selector_reads_integers(call, message):
    with pytest.raises(errors.RangeError) as info:
        call()
    assert str(info.value) == message


SYM3 = symmetric_params(3)
BITS = Collective.periodic("01")
TO_2 = SequenceSelector(3, "affine", target=2)
TO_1 = SequenceSelector(3, "affine", target=1)

# (parameter, call with the value v in its slot, the least value it takes
# or None); every integer argument is read by padic._as_int
INTEGER_PARAMETERS = [
    ("prime", lambda v: Prime(v), None),
    ("digit count", lambda v: to_approx(1, 3, v), 1),
    ("absolute precision", lambda v: PadicApprox.from_rational_abs(1, 3, v), None),
    ("exponent", lambda v: to_approx(2, 3, 4) ** v, 0),
    ("radius exponent", lambda v: Ball(3, 0, v), None),
    ("m", lambda v: falling_binomial(2, v), 0),
    ("n", lambda v: binom(v, 1), 1),
    ("r", lambda v: binom(3, v), 0),
    ("n", lambda v: binom_vp(v, 1, 3), 1),
    ("r", lambda v: binom_vp(3, v, 3), 0),
    ("m", lambda v: padic_binomial_coeff(2, v, 3), 0),
    ("n", lambda v: SumDistribution(v, SYM3), 0),
    ("j", lambda v: SumDistribution(3, SYM3).weight(v), None),
    ("n", lambda v: ball_probability(SYM3, v, 1, 0), 0),
    ("depth", lambda v: ball_probability(SYM3, 4, v, 0), 0),
    ("center", lambda v: ball_probability(SYM3, 4, 1, v), None),
    ("n", lambda v: sphere_probability(SYM3, v, 1, 0), 0),
    ("m", lambda v: binomial_limit_weights(v), 0),
    ("m", lambda v: binomial_ball_trace(3, v, 1, 1, kmax=2), None),
    ("r", lambda v: binomial_ball_trace(3, 2, v, 1, kmax=2), None),
    ("depth", lambda v: binomial_ball_trace(3, 2, 1, v, kmax=2), None),
    ("kmax", lambda v: binomial_ball_trace(3, 2, 1, 1, kmax=v), 1),
    ("t", lambda v: binomial_ball_trace(3, 2, 1, 1, kmax=2, t=v), 1),
    ("threshold", lambda v: binomial_ball_trace(3, 2, 1, 1, kmax=2, threshold=v), None),
    ("r", lambda v: prime_edge_trace(3, v, 1, kmax=2), None),
    ("t", lambda v: divisibility_balance_traces(3, kmax=2, t=v), 1),
    ("m", lambda v: mahler_lambda(SYM3, 2, v), 0),
    ("mmax", lambda v: mahler_row(SYM3, 2, v), 0),
    ("n", lambda v: empirical_mahler(SYM3, v, 1), 0),
    ("m", lambda v: empirical_mahler(SYM3, 3, v), 0),
    ("n", lambda v: empirical_mahler_row(SYM3, v, 2), 0),
    ("mmax", lambda v: mahler_lln_traces(SYM3, TO_2, v, 3), 0),
    ("truncation order", lambda v: clt_series(1, v), 0),
    ("truncation order", lambda v: charfun_series(SYM3, 2, v), 0),
    ("count", lambda v: charfun_to_mahler(clt_series(1, 4), v), 0),
    ("count", lambda v: clt_mahler_bound_check(3, v), 0),
    ("depth", lambda v: check_tested_depth(v), None),
    ("depth", lambda v: sphere_randomness_test(BITS, 3, v, 0, TO_1, 2, 4), None),
    ("center", lambda v: sphere_randomness_test(BITS, 3, 1, v, TO_1, 2, 4), None),
    ("eps_exponent", lambda v: sphere_randomness_test(BITS, 3, 1, 0, TO_1, v, 4), None),
    ("kmax", lambda v: sphere_randomness_test(BITS, 3, 1, 0, TO_1, 2, v), 1),
    ("kmin", lambda v: sphere_randomness_test(BITS, 3, 1, 0, TO_1, 2, 4, kmin=v), 1),
    ("depth", lambda v: checkpoint_pattern_distribution(3, v, 0, [4]), 0),
    ("checkpoint", lambda v: checkpoint_pattern_distribution(3, 1, 0, [v]), 1),
    ("center", lambda v: hit_union_probability(3, 1, v, [4]), None),
    ("from_index", lambda v: hit_union_probability(3, 1, 0, [4, 10], from_index=v), 0),
    ("prefix length", lambda v: BITS.prefix(v), 0),
    ("prefix length", lambda v: BITS.count("1", v), 0),
    ("N", lambda v: relative_frequency(BITS, "1", v), 1),
    ("depth", lambda v: event_residues(3, v, 0, "ball", 10), 0),
    ("center", lambda v: event_residues(3, 1, v, "ball", 10), None),
    ("n", lambda v: event_residues(3, 1, 0, "ball", v), 0),
    ("depth", lambda v: checkpoint_forcing_bits(3, v, 0, [4]), 0),
    ("checkpoint", lambda v: checkpoint_forcing_bits(3, 1, 0, [v]), 1),
    ("t", lambda v: SequenceSelector(3, "affine", target=2, t=v), 1),
    ("sample size", lambda v: SequenceSelector(3, "explicit", explicit_terms=(v,)), 1),
    ("kmax", lambda v: SequenceSelector(3, "power").terms(v), 1),
    ("window", lambda v: s_probability(BITS, "1", TO_1, 4, window=v), 1),
    ("cauchy_threshold", lambda v: s_probability(BITS, "1", TO_1, 4, cauchy_threshold=v), None),
    ("window", lambda v: conditional_s_probability(BITS, "1", "0", TO_1, 4, window=v), 1),
    ("n", lambda v: decode_jq(v, 3, 2), None),
    ("depth", lambda v: decode_jq(1, 3, v), 0),
    ("table depth", lambda v: CylinderMeasure(2, 3, v, {}), 0),
    ("depth", lambda v: integrate_continuous(UniformMeasure(2, 3), digit_weight_map(2, 3), v), 0),
    ("truncation order", lambda v: one(v), 0),
    ("truncation order", lambda v: constant(2, v), 0),
    ("truncation order", lambda v: exp_scaled(1, v), 0),
    ("truncation order", lambda v: log1p_series(v), 0),
    ("truncation order", lambda v: cosh_scaled_sq(1, v), 0),
    ("truncation order", lambda v: identity(v), 1),
    ("n", lambda v: one(3).integer_power(v), 0),
]
INTEGER_CASES = [
    pytest.param(what, call, value, id=f"{i}-{what}-{value!r}")
    for i, (what, call, least) in enumerate(INTEGER_PARAMETERS)
    for value in (2.5, "3", True) + (() if least is None else (least - 1,))
]


@pytest.mark.parametrize("what,call,value", INTEGER_CASES)
def test_integer_parameters_are_read_once(what, call, value):
    # a float, a string, a bool, or a value below the least raises RangeError naming the parameter
    with pytest.raises(errors.RangeError) as info:
        call(value)
    assert what in str(info.value)


def test_lower_bound_message_only_in_padic():
    # every lower bound of an integer argument is refused by padic._as_int, in one wording
    found = [path.name for path in SOURCES if path.name != "padic.py" and "must be a natural" in path.read_text()]
    assert found == []


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: StepFunction(3, [("0", 1, 2)]), "step function piece must be a pair, got ('0', 1, 2)"),
        (
            lambda: CriticalRegionTest(GDistribution(RationalRealContext(), [("a", 1)]), [5]),
            "critical region must be a pair, got 5",
        ),
    ],
    ids=["step-piece", "critical-region"],
)
def test_pair_arguments(call, message):
    with pytest.raises(errors.RangeError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_root(capsys, monkeypatch, cls):
    def handler(args):
        raise cls("refused")

    monkeypatch.setattr(cli, "_cmd_clt", handler)
    rc = main(["clt"])
    captured = capsys.readouterr()
    assert rc == _expected_exit(cls)
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: refused"


# -- the resource limits --------------------------------------------------

LIMITS = ("MAX_LAW_WIDTH", "MAX_LAW_BITS", "MAX_CHAIN_COST", "MAX_POWERSET_OUTCOMES", "MAX_SYMBOLS")


def test_every_limit_goes_through_refuse_over():
    # one message form, written once: no other module spells it out
    found = [path.name for path in SOURCES if path.name != "errors.py" and "more than the limit of" in path.read_text()]
    assert found == []


def test_every_limit_is_assigned_once_in_errors():
    assigned = [
        f"{path.name}:{target.id}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in LIMITS
    ]
    assert sorted(assigned) == sorted(f"errors.py:{name}" for name in LIMITS)


def test_readme_limits_table_matches_errors():
    # one `errors.MAX_...` row per constant, none for a name errors lacks,
    # and the value column (2^20, 16, ...) equal to the constant
    rows = re.findall(r"^\| `errors\.(MAX_\w+)` \| ([^|]*) \|", README.read_text(), re.M)
    constants = {name: value for name, value in vars(errors).items() if name.startswith("MAX_")}
    assert sorted(name for name, _ in rows) == sorted(constants)
    for name, text in rows:
        base, _, exponent = text.partition("^")
        assert int(base) ** int(exponent or 1) == constants[name], name


def test_refuse_over_at_and_past_the_limit():
    errors.refuse_over(5, 5, "five")
    with pytest.raises(errors.RangeError) as info:
        errors.refuse_over(6, 5, "six things")
    assert str(info.value) == "six things, more than the limit of 5"


class TestBoundaries:
    """Each refusal accepts its limit and refuses one more. Where a law at
    the limit would pass on to a later limit, the later limit's message
    shows that this one let it through."""

    def test_residue_law_width(self):
        # MAX_LAW_BITS bounds the width: a = 0 is a point mass of 1-bit entries, and
        # a law mod n + 1 over n trials may hold (n + 1) * n bits, so n = 92681 is the last
        assert len(_residue_law(0, 1, 92681, 92682)) == 92682
        with pytest.raises(errors.RangeError) as info:
            _residue_law(0, 1, 92682, 92683)
        assert str(info.value) == (
            "residue law mod 92683 over n=92682 trials may hold 8590045806 bits, more than the limit of 8589934592"
        )
        # a modulus above n + 1 is lowered to n + 1 first
        assert _residue_law(1, 2, 3, 2**64) == [1, 3, 3, 1]

    def test_event_residues(self):
        # 1048573 is the largest prime with p - 1 <= 2**20, 1048583 the next one
        assert len(event_residues(1048573, 1, 0, "residue", 1)[1]) == 1048572
        # a ball lists one residue whatever the prime
        assert event_residues(1048583, 1, 0, "ball", 1) == (1048583, frozenset({0}))
        with pytest.raises(errors.RangeError) as info:
            event_residues(1048583, 1, 0, "residue", 1)
        assert str(info.value) == "the tested event lists 1048582 residues, more than the limit of 1048576"

    def test_chain_states(self):
        # mod 2**21, one state, gap 2**20 - 1: 2**20 states pass and the cost refuses
        with pytest.raises(errors.RangeError, match=r"^checkpoint 1 may take \d+ bit operations"):
            checkpoint_pattern_distribution(2, 20, 0, [2**20 - 1])
        with pytest.raises(errors.RangeError) as info:
            checkpoint_pattern_distribution(2, 20, 0, [2**20])
        assert str(info.value) == "checkpoint 1 may reach 1048577 chain states, more than the limit of 1048576"

    def test_chain_cost(self):
        # one state times 2**17 increments times a gap of 2**17 bits is 2**34
        assert errors.MAX_CHAIN_COST == 2**34
        with pytest.raises(errors.RangeError, match=r"^residue law mod 131072 over n=131072 trials"):
            hit_union_probability(2, 16, 0, [2**17])
        with pytest.raises(errors.RangeError) as info:
            hit_union_probability(2, 16, 0, [2**17 + 1])
        assert str(info.value) == (
            "checkpoint 1 may take 17180000256 bit operations, more than the limit of 17179869184"
        )

    def test_powerset_outcomes(self):
        assert len(powerset_field(range(16))) == 2**16
        with pytest.raises(errors.RangeError) as info:
            powerset_field(range(17))
        assert str(info.value) == "a power set of 17 outcomes, more than the limit of 16"

    def test_symbols(self):
        # a generator of two symbols: at the limit it is read and runs short,
        # one past the limit nothing is read
        gen = iter("0110")
        with pytest.raises(errors.InsufficientData):
            Collective("01", generator=gen, description="four").count("1", 2**30)
        gen = iter("0110")
        with pytest.raises(errors.RangeError) as info:
            Collective("01", generator=gen, description="four").count("1", 2**30 + 1)
        assert str(info.value) == "four asked for 1073741825 symbols, more than the limit of 1073741824"
        assert next(gen) == "0"
        with pytest.raises(errors.RangeError, match="^random:3 asked for 1073741825 symbols"):
            Collective.random_bits(3).count("1", 2**30 + 1)
        with pytest.raises(errors.RangeError, match="^periodic:01 asked for a prefix of 1073741825 symbols"):
            Collective.periodic("01").prefix(2**30 + 1)
        # a periodic count is closed form, with no limit
        assert Collective.periodic("011").count("1", 3 * 10**12 + 2) == 2 * 10**12 + 1


    def test_mahler_rows(self):
        # a natural a has no nonzero term past a, so a row of 10**5 terms of C(5, m) is short
        row = mahler_row(SYM3, 5, 10**5)
        assert len(row) == 10**5 + 1 and row[6:] == [0] * (10**5 - 5)
        with pytest.raises(errors.RangeError, match=r"^Mahler rows through m=100000 may hold \d+ bits, more"):
            mahler_row(SYM3, Fraction(1, 2), 10**5)
        # the lln rows are refused together: the target's row and one per sample size
        with pytest.raises(errors.RangeError, match=r"^Mahler rows through m=3000 may hold \d+ bits, more"):
            mahler_lln_traces(SYM3, TO_2, 3000, 100)

    @pytest.mark.parametrize(
        "argv",
        [
            ["lln", "--prime", "3", "--scheme", "2+p^k", "--kmax", "100", "--mmax", "3000"],
            ["mahler", "--prime", "3", "--mmax", "200000", "--n", str(10**30)],
        ],
        ids=["lln", "mahler-n"],
    )
    def test_mahler_rows_refused_at_once(self, capsys, argv):
        # each ran for seconds and ended in a MemoryError under a 1.5 GB address space
        start = time.monotonic()
        assert main(argv) == EXIT_CODES["parse"]
        captured = capsys.readouterr()
        assert time.monotonic() - start < 2
        assert captured.out == ""
        assert re.fullmatch(
            r"error: Mahler rows through m=\d+ may hold \d+ bits, more than the limit of 8589934592",
            captured.err.splitlines()[-1],
        )


class TestChainCost:
    @pytest.mark.parametrize(
        "terms", [[10**6, 2 * 10**6], [10**4, 2 * 10**4, 3 * 10**4]], ids=["gap-1e6", "gap-1e4"]
    )
    def test_wide_event_with_long_gaps_refused_at_once(self, terms):
        # modulus 509**2: hours of big-integer products, refused before the first one
        start = time.monotonic()
        with pytest.raises(errors.RangeError, match="bit operations, more than the limit of 17179869184"):
            hit_union_probability(509, 1, 0, terms)
        assert time.monotonic() - start < 1

    def test_modulus_841_still_answered(self):
        # 841 states times 841 increments times 2000 bits: about 1.4 * 10**9
        terms = [1000, 2000, 3000]
        value = hit_union_probability(29, 1, 0, terms)
        # the union lies between its largest and the sum of its three marginals
        marginals = [sphere_probability(symmetric_params(29), n, 1, 0) for n in terms]
        assert max(marginals) < value < sum(marginals)
        assert 2**3000 % value.denominator == 0
