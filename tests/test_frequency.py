import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.errors import (
    ConditioningOnNull,
    InsufficientData,
    InvalidLabel,
    InvalidTarget,
    RangeError,
)
from padicprob.frequency import (
    _BIT_BLOCK,
    _COUNT_PIECE,
    _READ_PIECE,
    CAUCHY_NOTE,
    Collective,
    SequenceSelector,
    _strays,
    checkpoint_forcing_bits,
    conditional_s_probability,
    decimal_exponent,
    parse_selector,
    range_ball,
    relative_frequency,
    s_probability,
)
from padicprob.padic import vp


class TestCollective:
    def test_from_sequence_counts(self):
        c = Collective.from_sequence("0110")
        assert c.prefix(3) == "011"
        assert c.count("1", 4) == 2
        assert relative_frequency(c, "1", 4) == Fraction(1, 2)

    def test_alphabet_inferred_binary(self):
        assert Collective.from_sequence("0101").alphabet == ("0", "1")

    def test_finite_source_runs_short(self):
        c = Collective.from_sequence("01")
        with pytest.raises(InsufficientData):
            c.prefix(3)

    def test_bad_symbol_rejected(self):
        with pytest.raises(InvalidLabel):
            Collective("01", symbols="012")

    def test_label_outside_alphabet(self):
        c = Collective.from_sequence("0101")
        with pytest.raises(InvalidLabel):
            c.count("2", 2)

    def test_periodic_unbounded(self):
        c = Collective.alternating()
        assert c.prefix(5) == "01010"
        assert c.count("1", 10**4) == 5000

    def test_periodic_word_checked_against_alphabet(self):
        with pytest.raises(InvalidLabel) as periodic:
            Collective.periodic("012", alphabet="01")
        with pytest.raises(InvalidLabel) as given:
            Collective("01", symbols="012")
        assert str(periodic.value) == str(given.value)
        assert Collective.periodic("0110", alphabet="01").prefix(10) == "0110011001"

    def test_periodic_word_given_as_a_list(self):
        # the word is joined, as from_sequence joins its symbols
        listed, word = Collective.periodic(["0", "1"]), Collective.periodic("01")
        assert listed.prefix(3) == word.prefix(3) == "010"
        assert listed.count("1", 5) == word.count("1", 5) == 2
        assert listed.description == word.description

    def test_random_bits_deterministic(self):
        a = Collective.random_bits(42).prefix(64)
        b = Collective.random_bits(42).prefix(64)
        assert a == b
        assert set(a) <= {"0", "1"}

    def test_from_file(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01 10\n1 1\t0")
        c = Collective.from_file(str(path), "01")
        assert c.prefix(7) == "0110110"

    def test_from_file_rejects_stray_symbols(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01x0")
        with pytest.raises(InvalidLabel):
            Collective.from_file(str(path), "01")

    @pytest.mark.parametrize("ws", list(" \t\n\r\v\f"))
    def test_from_file_drops_each_whitespace(self, tmp_path, ws):
        path = tmp_path / "bits.txt"
        path.write_bytes(f"{ws}01{ws}{ws}1{ws}0{ws}".encode("ascii"))
        c = Collective.from_file(str(path), "01")
        assert c.prefix(4) == "0110"
        assert c.count("1", 4) == 2

    @pytest.mark.parametrize("sep", list("\x1c\x1d\x1e\x1f"))
    def test_from_file_keeps_separator_controls(self, tmp_path, sep):
        # str.split() would drop these; they are symbols outside the alphabet
        path = tmp_path / "bits.txt"
        path.write_bytes(f"01{sep}10".encode("ascii"))
        with pytest.raises(InvalidLabel) as exc:
            Collective.from_file(str(path), "01")
        assert str(exc.value) == f"symbols [{sep!r}] in {path} outside alphabet ('0', '1')"

    @pytest.mark.parametrize("raw", [b"01\xc2\xa010", b"0\x851", b"\xff"])
    def test_from_file_rejects_non_ascii(self, tmp_path, raw):
        path = tmp_path / "bits.txt"
        path.write_bytes(raw)
        with pytest.raises(InvalidLabel) as exc:
            Collective.from_file(str(path), "01")
        decode_error = None
        try:
            raw.decode("ascii")
        except UnicodeDecodeError as err:
            decode_error = err
        assert str(exc.value) == f"non-ASCII byte in {path}: {decode_error}"

    def test_symbols_as_list(self):
        c = Collective("01", symbols=["0", "1", "1"])
        assert c.prefix(3) == "011"
        assert c.count("1", 3) == 2
        assert Collective("ab", symbols=iter("abba")).count("b", 4) == 2
        with pytest.raises(InvalidLabel) as exc:
            Collective("01", symbols=["0", "01", "x"])
        assert str(exc.value) == "symbols ['01', 'x'] outside alphabet ('0', '1')"

    def test_stray_symbol_message(self):
        with pytest.raises(InvalidLabel) as exc:
            Collective("01", symbols="0x1y")
        assert str(exc.value) == "symbols ['x', 'y'] outside alphabet ('0', '1')"

    def test_short_file_message(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01\n01\n")
        c = Collective.from_file(str(path), "01")
        assert c.count("1", 4) == 2
        for ask in (lambda: c.count("1", 5), lambda: c.prefix(5)):
            with pytest.raises(InsufficientData) as exc:
                ask()
            assert str(exc.value) == f"file:{path} holds 4 symbols, 5 requested"
        assert c.count("1", 3) == 1

    def test_generator_blocks_checked(self):
        with pytest.raises(InvalidLabel) as exc:
            Collective("01", generator=iter("0123")).prefix(4)
        assert str(exc.value) == "symbols ['2', '3'] outside alphabet ('0', '1')"
        c = Collective("01", generator=iter("0110x111"))
        assert c.count("1", 4) == 2
        with pytest.raises(InvalidLabel):
            c.prefix(6)
        # the symbols after a stray are never served as the sequence's own
        assert c.prefix(4) == "0110"
        with pytest.raises(InsufficientData):
            c.prefix(5)

    def test_short_generator_message(self):
        c = Collective("01", generator=iter("0110"), description="four")
        with pytest.raises(InsufficientData) as exc:
            c.count("1", 6)
        assert str(exc.value) == "four holds 4 symbols, 6 requested"
        assert c.prefix(4) == "0110"

    @pytest.mark.parametrize("ends", ["stray", "short"])
    def test_generator_read_ahead_raises_when_reached(self, ends):
        # reads run ahead of the requests; a stray at position k still raises
        # InvalidLabel first at the first request for k or more symbols, and
        # a short source raises InsufficientData only where it ends
        k = 3000
        tail = "x" + "1" * 5000 if ends == "stray" else ""
        c = Collective("01", generator=iter("10" * (k // 2) + tail), description="gen")
        for n in (1, 1000, 1700, 2500, k - 1, k, k):
            assert c.count("1", n) == (n + 1) // 2
        assert c.prefix(k) == "10" * (k // 2)
        error = InvalidLabel if ends == "stray" else InsufficientData
        with pytest.raises(error) as exc:
            c.count("1", k + 2)
        if ends == "stray":
            assert str(exc.value) == "symbols ['x'] outside alphabet ('0', '1')"
        with pytest.raises(InsufficientData, match="^gen holds 3000 symbols, 3001 requested$"):
            c.count("1", k + 1)
        assert c.count("1", 10) == 5

    def test_generator_read_ahead_keeps_the_stray_for_another_alphabet(self):
        c = Collective("01", generator=iter("0" * 1000 + "2" + "1" * 50))
        assert c.count("1", 600) == 0
        assert c.count("1", 900) == 0  # reads on past the stray at 1001
        wider = c.with_alphabet("012")
        assert wider.prefix(1051) == "0" * 1000 + "2" + "1" * 50

    def test_generator_symbols_checked_at_construction(self):
        with pytest.raises(InvalidLabel, match=r"^symbols \['x'\] outside alphabet \('0', '1'\)$"):
            Collective("01", symbols="0x", generator=iter("01"))

    def test_held_symbols_checked_against_a_new_alphabet(self):
        c = Collective("012", generator=iter("0" * 10 + "2" + "1" * 5))
        assert c.count("1", 16) == 5
        with pytest.raises(InvalidLabel, match=r"^symbols \['2'\] outside alphabet \('0', '1'\)$"):
            c.with_alphabet("01")

    def test_stray_met_only_by_read_ahead_is_not_served(self):
        # the stray at 1001 and the symbols after it were read ahead but never
        # asked for: a narrower alphabet still serves the 1000 zeros before it
        c = Collective("01", generator=iter("0" * 1000 + "2" + "1" * 50))
        assert c.count("1", 600) == 0
        assert c.count("1", 900) == 0
        zeros = c.with_alphabet("0")
        assert zeros.count("0", 1000) == 1000
        assert zeros.prefix(3) == "000"
        # reaching the stray names it alone, not the ones read after it
        with pytest.raises(InvalidLabel, match=r"^symbols \['2'\] outside alphabet \('0',\)$"):
            zeros.count("0", 1001)


def _reference_symbols(kind, word, seed, size):
    """The first `size` symbols of a source, computed without Collective."""
    if kind == "random":
        r = random.Random(seed)
        return "".join("01"[r.getrandbits(1)] for _ in range(size))
    if kind == "periodic":
        return (word * (size // len(word) + 1))[:size]
    return word


@st.composite
def _count_sessions(draw):
    """A source, its reference symbols, and interleaved (labels, n)
    calls whose n rises, falls, repeats and hits 0."""
    kind = draw(st.sampled_from(["memory", "file", "periodic", "random"]))
    alphabet = "01" if kind == "random" else draw(st.sampled_from(["01", "abc"]))
    word = draw(st.text(alphabet, min_size=1, max_size=12 if kind == "periodic" else 300))
    seed = draw(st.integers(0, 2**40))
    if kind == "random":
        size = draw(st.sampled_from([40, _BIT_BLOCK + 3, 3 * _BIT_BLOCK + 5]))
    else:
        size = 400 if kind == "periodic" else len(word)
    label_sets = draw(
        st.lists(st.sets(st.sampled_from(alphabet)).map("".join), min_size=1, max_size=3)
    )
    # a finite source is also asked for up to two symbols too many
    top = size + 2 if kind in ("memory", "file") else size
    calls = []
    for move in draw(st.lists(st.integers(-2, top), min_size=1, max_size=25)):
        if move == -2:  # repeat the last size
            n = calls[-1][1] if calls else 0
        elif move == -1:
            n = 0
        else:
            n = move
        calls.append((draw(st.sampled_from(label_sets)), n))
    return kind, alphabet, word, seed, _reference_symbols(kind, word, seed, size), calls


class TestRunningCount:
    @settings(max_examples=200, deadline=None)
    @given(_count_sessions())
    def test_count_matches_brute_force(self, tmp_path_factory, session):
        kind, alphabet, word, seed, ref, calls = session
        if kind == "memory":
            c = Collective(alphabet, symbols=word)
        elif kind == "file":
            path = tmp_path_factory.mktemp("symbols") / "symbols.txt"
            path.write_text("\n".join(word[i : i + 7] for i in range(0, len(word), 7)))
            c = Collective.from_file(str(path), alphabet)
        elif kind == "periodic":
            c = Collective.periodic(word, alphabet=alphabet)
        else:
            c = Collective.random_bits(seed)
        finite = kind in ("memory", "file")
        for labels, n in calls:
            if finite and n > len(ref):
                with pytest.raises(InsufficientData):
                    c.count(labels, n)
                continue
            assert c.count(labels, n) == sum(ch in labels for ch in ref[:n])
            assert c.prefix(n) == ref[:n]

    @settings(max_examples=100, deadline=None)
    @given(
        st.text("abc", min_size=1, max_size=300),
        st.lists(st.integers(0, 300), min_size=1, max_size=20),
    )
    def test_alternating_label_sets(self, symbols, sizes):
        # the pattern of conditional_s_probability: count(A, n), count(A & B, n)
        c = Collective("abc", symbols=symbols)
        for n in sizes:
            n = min(n, len(symbols))
            head = symbols[:n]
            assert c.count("ab", n) == sum(ch in "ab" for ch in head)
            assert c.count("a", n) == head.count("a")
            assert c.count("ab", n) == sum(ch in "ab" for ch in head)


#: edges of the block and piece loops
_EDGES = (_BIT_BLOCK, _COUNT_PIECE - 1, _COUNT_PIECE + 1, _READ_PIECE - 1, _READ_PIECE + 1)


@st.composite
def _source_counts(draw):
    """A source, the reference symbols it holds, and interleaved (labels, n)
    calls whose n rises, falls and repeats under alternating label sets."""
    kind = draw(st.sampled_from(["periodic", "random", "memory", "generator"]))
    seed = draw(st.integers(0, 2**40))
    word = ""
    if kind == "periodic":
        alphabet = draw(st.sampled_from(["01", "abc"]))
        word = draw(st.text(alphabet, min_size=1, max_size=12))
        size = draw(st.integers(1, 10**4))
    else:
        # "012" holds a label never drawn, and "0a" lacks the drawn "1"
        alphabet = draw(st.sampled_from(["01", "012", "0a"] if kind == "random" else ["01", "abc"]))
        size = draw(st.sampled_from([40, *_EDGES, _READ_PIECE + 2]))
    if kind in ("memory", "generator"):
        ref = "".join(random.Random(seed).choices(alphabet, k=size))
    else:
        ref = _reference_symbols(kind, word, seed, size)
    label_sets = draw(
        st.lists(st.sets(st.sampled_from(alphabet)).map("".join), min_size=2, max_size=3)
    )
    # every edge within reach, and the full size, in a drawn order
    edges = draw(st.permutations([size, *(e for e in _EDGES if e < size)]))
    calls = []
    for n in draw(st.lists(st.one_of(st.none(), st.integers(0, size)), max_size=8)) + edges:
        if n is None:  # repeat the last size
            n = calls[-1][1] if calls else 0
        calls.append((draw(st.sampled_from(label_sets)), n))
    return kind, alphabet, word, seed, ref, calls


class TestSources:
    @settings(max_examples=60, deadline=None)
    @given(_source_counts())
    def test_each_source_counts_as_a_stored_string(self, session):
        kind, alphabet, word, seed, ref, calls = session
        if kind == "periodic":
            c = Collective.periodic(word, alphabet=alphabet)
        elif kind == "random":
            c = Collective.random_bits(seed).with_alphabet(alphabet)
        elif kind == "memory":
            c = Collective(alphabet, symbols=ref)
        else:
            c = Collective(alphabet, generator=iter(ref))
        # the same symbols read as a stored string from a generator
        stored = Collective(alphabet, generator=iter(ref))
        for labels, n in calls:
            try:
                want = stored.count(labels, n)
            except InvalidLabel as exc:
                # a drawn symbol outside the alphabet, refused the same way
                with pytest.raises(InvalidLabel) as got:
                    c.count(labels, n)
                assert str(got.value) == str(exc)
                return
            assert c.count(labels, n) == want == sum(ref.count(ch, 0, n) for ch in labels)


def _translate_strays(text, alphabet):
    """The str.translate stray check: text with the alphabet deleted."""
    return text.translate(str.maketrans("", "", "".join(alphabet)))


def _base2_count(text, n, labels, alphabet):
    """The int(piece, 2) count of labels among text[:n], piece by piece."""
    table = None
    if set(labels) != {"1"} or set(alphabet) != {"0", "1"}:
        table = str.maketrans({a: "01"[a in labels] for a in alphabet})
    seen = 0
    for i in range(0, n, _COUNT_PIECE):
        piece = text[i : min(i + _COUNT_PIECE, n)]
        seen += int(piece if table is None else piece.translate(table), 2).bit_count()
    return seen


#: any character but a surrogate, ASCII drawn often
_ANY_CHAR = st.one_of(st.characters(max_codepoint=0xD7FF), st.characters(min_codepoint=0xE000))


@st.composite
def _stray_sessions(draw):
    """An alphabet that may hold non-ASCII symbols, symbols that may hold
    strays (long enough to span count pieces when repeated), label sets
    and rising sizes."""
    alphabet = draw(st.one_of(
        st.just("01"),
        st.lists(st.one_of(st.sampled_from("01abc"), _ANY_CHAR), min_size=1, max_size=5, unique=True)
        .map("".join),
    ))
    word = draw(st.text(st.one_of(st.sampled_from(alphabet), _ANY_CHAR), min_size=1, max_size=40))
    symbols = word * draw(st.sampled_from([1, 3, _COUNT_PIECE // len(word) + 2]))
    label_sets = draw(st.lists(st.sets(st.sampled_from(alphabet)), min_size=1, max_size=3))
    # a full count piece and the whole string are always among the sizes
    edges = [n for n in (_COUNT_PIECE, len(symbols)) if n <= len(symbols)]
    sizes = sorted(draw(st.lists(st.integers(0, len(symbols)), max_size=5)) + edges)
    return alphabet, symbols, [(draw(st.sampled_from(label_sets)), n) for n in sizes]


class TestBytesRoute:
    """The bytes stray check and count against the str.translate and
    int(piece, 2) route they replace."""

    @settings(max_examples=150, deadline=None)
    @given(_stray_sessions())
    def test_strays_and_counts_match_the_str_route(self, session):
        alphabet, symbols, calls = session
        assert _strays(symbols, tuple(alphabet)) == _translate_strays(symbols, alphabet)
        bad = set(symbols) - set(alphabet)
        message = f"symbols {sorted(bad)} outside alphabet {tuple(alphabet)}"
        for build in (
            lambda: Collective(alphabet, symbols=symbols),
            lambda: Collective(alphabet, generator=iter(symbols)).count("", len(symbols)),
        ):
            if bad:
                with pytest.raises(InvalidLabel) as exc:
                    build()
                assert str(exc.value) == message
            else:
                build()
        text = "".join(ch for ch in symbols if ch in alphabet)
        c = Collective(alphabet, symbols=text)
        for labels, n in calls:
            n = min(n, len(text))
            want = sum(text.count(ch, 0, n) for ch in labels)
            assert c.count(labels, n) == want == _base2_count(text, n, labels, alphabet)
            # counted from 0 in one call, in full pieces
            assert Collective(alphabet, symbols=text).count(labels, n) == want


class TestSelectors:
    def test_affine_terms(self):
        s = SequenceSelector(3, "affine", target=Fraction(2), t=1)
        assert s.terms(4) == [5, 11, 29, 83]
        assert s.describe() == "2+1*3^k"

    @pytest.mark.parametrize("term", [2.5, "5", True])
    def test_explicit_terms_must_be_ints(self, term):
        # int() would read 2.5 as 2 and "5" as 5
        with pytest.raises(RangeError, match="^sample size must be an int"):
            SequenceSelector(3, "explicit", explicit_terms=(1, term))

    def test_affine_rejects_fractional_target(self):
        with pytest.raises(InvalidTarget):
            SequenceSelector(3, "affine", target=Fraction(1, 2))

    def test_power_terms(self):
        s = SequenceSelector(3, "power", t=2)
        assert s.terms(3) == [6, 18, 54]
        assert s.target == 0

    def test_truncation_terms_converge_to_target(self):
        s = SequenceSelector(3, "truncation", target=Fraction(-1))
        terms = s.terms(4)
        assert terms == [2, 8, 26, 80]
        for k, n in enumerate(terms, start=1):
            assert vp(n - Fraction(-1), 3) >= k

    def test_truncation_skips_repeats(self, caplog):
        # 7 mod 125 = 7 mod 25: the k=3 representative repeats
        s = SequenceSelector(5, "truncation", target=Fraction(7))
        with caplog.at_level(logging.INFO, logger="padicprob.frequency"):
            terms = s.terms(3)
        assert terms == [2, 7]
        assert any("skips" in r.message for r in caplog.records)

    def test_truncation_rejects_non_integer_target(self):
        with pytest.raises(InvalidTarget):
            SequenceSelector(3, "truncation", target=Fraction(1, 3))

    def test_explicit_terms(self):
        s = SequenceSelector(3, "explicit", explicit_terms=(4, 10, 28))
        assert s.terms(2) == [4, 10]
        with pytest.raises(ValueError):
            SequenceSelector(3, "explicit", explicit_terms=(4, 4))

    def test_parse_grammar(self):
        p = parse_selector("2+p^k", 3)
        assert p.scheme == "affine" and p.target == 2 and p.t == 1
        p = parse_selector("2 + 3*p^k", 3)
        assert p.t == 3
        p = parse_selector("p^k", 3)
        assert p.scheme == "power" and p.t == 1
        p = parse_selector("trunc(-1)", 3)
        assert p.scheme == "truncation" and p.target == -1
        p = parse_selector("trunc(1/4)", 3)
        assert p.target == Fraction(1, 4)
        p = parse_selector("list:5,11,29", 3)
        assert p.explicit_terms == (5, 11, 29)

    def test_parse_rejects_garbage(self):
        for bad in ("", "p^k+1", "trunc()", "list:", "2+q^k"):
            with pytest.raises(ValueError):
                parse_selector(bad, 3)

    def test_range_ball(self):
        s = SequenceSelector(3, "truncation", target=Fraction(9))
        b = range_ball(s)
        assert b.radius_exponent == -2
        assert range_ball(SequenceSelector(3, "power")) is None


class TestSProbability:
    def test_alternating_converges_to_half(self):
        c = Collective.alternating()
        sel = SequenceSelector(3, "affine", target=Fraction(1), t=1)
        out = s_probability(c, "1", sel, kmax=6, cauchy_threshold=4)
        assert out.verdict == "Converged"
        assert out.value.congruent_to(Fraction(1, 2))
        assert out.note == CAUCHY_NOTE
        # trace rows are exact
        assert [r.nu for r in out.trace.rows][:2] == [Fraction(2, 4), Fraction(5, 10)]

    def test_no_limit_on_rough_sequence(self):
        c = Collective.random_bits(3)
        sel = SequenceSelector(3, "affine", target=Fraction(1), t=1)
        out = s_probability(c, "1", sel, kmax=6, cauchy_threshold=6)
        assert out.verdict == "NoLimitDetected"
        assert out.value is None

    def test_needs_window_plus_one_terms(self):
        c = Collective.alternating()
        sel = SequenceSelector(3, "explicit", explicit_terms=(2, 4, 6))
        with pytest.raises(InsufficientData):
            s_probability(c, "1", sel, kmax=3, window=3)

    # window 0 would judge the first row's missing gap, -1 all gaps but the first
    def test_window_below_one_refused(self):
        c = Collective.alternating()
        sel = SequenceSelector(3, "power", t=2)
        for window in (0, -1):
            with pytest.raises(RangeError):
                s_probability(c, "1", sel, kmax=4, window=window, cauchy_threshold=1)
            with pytest.raises(RangeError):
                conditional_s_probability(c, "01", "1", sel, kmax=4, window=window)

    def test_real_topology_value_is_fraction(self):
        c = Collective.alternating()
        sel = SequenceSelector(3, "power", t=2)  # N_k even: nu exactly 1/2
        out = s_probability(c, "1", sel, kmax=5, window=2, cauchy_threshold=6, topology="real")
        assert out.verdict == "Converged"
        assert out.value == Fraction(1, 2)
        assert out.trace.metric == "real"

    def test_csv_and_jsonl_shapes(self):
        c = Collective.alternating()
        sel = SequenceSelector(3, "affine", target=Fraction(1), t=1)
        out = s_probability(c, "1", sel, kmax=5, cauchy_threshold=3)
        lines = out.report_lines("csv")
        assert lines[0] == "k,N_k,nu_num,nu_den,vp_gap"
        assert len(lines) == 6
        assert all(line.count(",") == 4 for line in lines)
        import json

        rows = [json.loads(s) for s in out.report_lines("json")[:-1]]
        assert rows[0]["N_k"] == 4 and rows[0]["vp_gap"] is None
        summary = json.loads(out.report_lines("json")[-1])
        assert summary == {
            "verdict": out.verdict, "value": str(out.value), "note": out.note, "params": out.params
        }

    def test_gap_exponents_match_direct_computation(self):
        c = Collective.random_bits(11)
        sel = SequenceSelector(3, "affine", target=Fraction(2), t=1)
        out = s_probability(c, "1", sel, kmax=5, cauchy_threshold=30)
        rows = out.trace.rows
        for prev, cur in zip(rows, rows[1:]):
            gap = cur.nu - prev.nu
            expect = math.inf if gap == 0 else vp(gap, 3)
            assert cur.gap_exponent == expect

    def test_range_violation_reported(self):
        # declared target 9 promises |nu|_3 <= 9; terms divisible by 27
        # with counts prime to 3 push nu outside that ball
        c = Collective.periodic("1111" + "0" * 23)
        sel = SequenceSelector(
            3, "explicit", target=Fraction(9), explicit_terms=(27, 54, 108, 216)
        )
        out = s_probability(c, "1", sel, kmax=4, window=2, cauchy_threshold=1)
        assert out.verdict == "RangeViolation"
        assert out.value is None
        assert out.trace.rows[-1].nu == Fraction(4 * 8, 216)


class TestConditional:
    def test_conditional_matches_ratio(self):
        c = Collective.periodic("ab0")
        sel = SequenceSelector(3, "affine", target=Fraction(1), t=1)
        out = conditional_s_probability(c, "ab", "a", sel, kmax=6, cauchy_threshold=2)
        # among symbols in {a, b}, half are a (periodic pattern)
        last = out.trace.rows[-1]
        n = last.n
        na = c.count("ab", n)
        nab = c.count("a", n)
        assert last.nu == Fraction(nab, na)

    def test_conditioning_on_null(self):
        c = Collective.periodic("b", alphabet="ab")
        sel = SequenceSelector(3, "affine", target=Fraction(1), t=1)
        with pytest.raises(ConditioningOnNull):
            conditional_s_probability(c, "a", "b", sel, kmax=5)


def _searched_exponent(x):
    # the former search form of decimal_exponent, kept as its oracle
    num, den = abs(x).numerator, abs(x).denominator

    def le_pow10(e):  # num/den <= 10**-e
        return num * 10**e <= den if e >= 0 else num <= den * 10 ** (-e)

    e = 0
    if le_pow10(0):
        while le_pow10(e + 1):
            e += 1
    else:
        while not le_pow10(e):
            e -= 1
    return e


class TestDecimalExponent:
    def test_spot_values(self):
        assert decimal_exponent(Fraction(1, 100)) == 2
        assert decimal_exponent(Fraction(1, 2)) == 0
        assert decimal_exponent(Fraction(3, 2)) == -1
        assert decimal_exponent(Fraction(49)) == -2
        assert decimal_exponent(Fraction(1, 10**9)) == 9
        with pytest.raises(ValueError):
            decimal_exponent(Fraction(0))

    def test_definition_holds(self):
        for num in (1, 3, 17, 99, 10**40):
            for den in (2, 7, 100, 1234):
                x = Fraction(num, den)
                e = decimal_exponent(x)
                assert abs(x) <= Fraction(10) ** (-e)
                assert abs(x) > Fraction(10) ** (-(e + 1))

    @given(st.integers(-(10**45), 10**45).filter(bool), st.integers(1, 10**45))
    def test_matches_search(self, num, den):
        x = Fraction(num, den)
        assert decimal_exponent(x) == _searched_exponent(x)

    def test_at_and_around_powers_of_ten(self):
        tiny = Fraction(1, 10**50)
        for e in range(-40, 40):
            power = Fraction(10) ** e
            assert decimal_exponent(power) == -e
            for x in (power, power - tiny, power + tiny):
                assert decimal_exponent(x) == decimal_exponent(-x) == _searched_exponent(x)


class TestCheckpointForcing:
    def test_sphere_mode_hits_every_checkpoint(self):
        terms = [1 + 3**k for k in range(1, 6)]
        bits = checkpoint_forcing_bits(3, 1, 0, terms)
        c = Collective("01", symbols=bits)
        for n in terms:
            s = c.count("1", n)
            assert vp(s - 0, 3) == 1

    def test_residue_mode_hits(self):
        terms = [1 + 3**k for k in range(1, 5)]
        bits = checkpoint_forcing_bits(3, 2, 0, terms, mode="residue")
        c = Collective("01", symbols=bits)
        for n in terms:
            s = c.count("1", n)
            assert 0 < s % 9 < 3

    @pytest.mark.parametrize("depth", [1.7, "1"])
    def test_depth_must_be_an_int(self, depth):
        # int() would read 1.7 as 1
        with pytest.raises(RangeError, match="^depth must be an int"):
            checkpoint_forcing_bits(3, depth, 0, [4, 10])

    @pytest.mark.parametrize("center", [0.5, "0"])
    def test_center_must_be_an_int(self, center):
        with pytest.raises(RangeError, match="^center must be an int"):
            checkpoint_forcing_bits(3, 1, center, [4, 10])

    def test_infeasible_gap_rejected(self):
        # first checkpoint too close to steer the sum onto the sphere
        with pytest.raises(ValueError):
            checkpoint_forcing_bits(5, 3, 0, [2, 3])
