"""Frequency probabilities along p-adically convergent sample sizes.

A Collective is a finite or unbounded symbol sequence with a declared
alphabet. Relative frequencies nu_N(A) = n(A)/N are exact rationals, and
an s-probability is their limit along sample sizes N_k chosen by a
SequenceSelector whose terms converge p-adically to a target m. Limits
are detected by a Cauchy window on the trace: finite evidence, flagged
as such in every outcome, never a proof.

The same engine runs with the ordinary absolute value instead of the
p-adic one (topology="real"); only the gap measure changes.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    MAX_LAW_WIDTH,
    MAX_SYMBOLS,
    ConditioningOnNull,
    InsufficientData,
    InvalidLabel,
    InvalidTarget,
    RangeError,
    refuse_over,
)
from .padic import Ball, PadicApprox, Prime, _as_int, as_fraction, digit_count, vp
from .reports import EXPONENT, INT, RATIONAL, format_rational, format_value, table_lines

LOGGER = logging.getLogger(__name__)

VERDICT_CONVERGED = "Converged"
VERDICT_NO_LIMIT = "NoLimitDetected"
VERDICT_RANGE = "RangeViolation"

#: every outcome carries this reminder
CAUCHY_NOTE = "Cauchy-window heuristic on finite evidence; not a convergence proof"

_WS = " \t\n\r\v\f"

#: random bits are drawn this many 32-bit words per getrandbits call
_BIT_BLOCK = 4096
#: bit 31 of each 32-bit word of a block: getrandbits(1) is that bit of one draw
_TOP_MASK = int.from_bytes(b"\0\0\0\x80" * _BIT_BLOCK, "little")
#: byte -> "0" or "1" by its top bit
_TOP_BIT = bytes(b"01"[b >> 7] for b in range(256))
#: a stored string is counted this many symbols at a time
_COUNT_PIECE = 2**15
#: a generator is read this many symbols at a time
_READ_PIECE = 2**16


def _refuse(bad, alphabet) -> None:
    if bad:
        raise InvalidLabel(f"symbols {sorted(bad)} outside alphabet {alphabet}")


def _strays(text: str, alphabet: tuple) -> str:
    """The symbols of text outside the alphabet, in order: text with the
    alphabet deleted. An ASCII text is one bytes pass; only an ASCII symbol
    can occur in it, so only the alphabet's ASCII symbols are deleted.

    >>> _strays("0a1b0", ("0", "1", "\u00e9")), _strays("0\u00e91", ("0", "1"))
    ('ab', '\u00e9')
    """
    if text.isascii():
        keep = "".join(a for a in alphabet if a.isascii()).encode("ascii")
        return text.encode("ascii").translate(None, keep).decode("ascii")
    return text.translate(str.maketrans("", "", "".join(alphabet)))


def _read_symbols(path) -> str:
    """The file's symbols: its bytes, ASCII only (InvalidLabel), with each
    kind of whitespace in _WS deleted, decoded once."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        try:
            raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise InvalidLabel(f"non-ASCII byte in {path}: {exc}") from None
    for w in _WS.encode("ascii"):
        if w in raw:
            raw = raw.replace(bytes((w,)), b"")
    return raw.decode("ascii")


class Collective:
    """A symbol sequence over a finite alphabet of single characters.

    Sources: an in-memory string, a file of ASCII symbols (whitespace
    ignored), a deterministic generator, a periodic word, or seeded
    random bits. Prefixes of any requested length are served exactly; a
    finite source that runs short raises InsufficientData. Each kind of
    source has its own counter: strings and generators are held as one
    string with a running count per label set, a periodic word is counted
    in closed form, and random bits are counted as they are drawn and
    never stored. Beyond the periodic count, no source serves more than
    MAX_SYMBOLS symbols.
    """

    def __init__(self, alphabet, symbols="", generator=None, description="collective"):
        self.alphabet = tuple(alphabet)
        if any(len(a) != 1 for a in self.alphabet):
            raise RangeError("alphabet entries must be single characters")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise RangeError("alphabet has repeated symbols")
        if isinstance(symbols, str):
            bad = set(_strays(symbols, self.alphabet))
        else:
            symbols = list(symbols)
            bad = set(symbols) - set(self.alphabet)
        _refuse(bad, self.alphabet)
        if isinstance(generator, (_Periodic, _RandomBits)):
            self._source = generator
        else:
            symbols = symbols if isinstance(symbols, str) else "".join(symbols)
            self._source = _Stored(symbols, generator, self.alphabet, description)
        # drawn bits are checked against the alphabet as they are counted
        drawn = "01" if isinstance(generator, _RandomBits) else ""
        self._strays = frozenset(drawn) - set(self.alphabet)
        self.description = description

    # -- sources --------------------------------------------------------

    @classmethod
    def from_sequence(cls, seq, alphabet=None) -> "Collective":
        seq = "".join(seq)
        if alphabet is None:
            alphabet = "01" if set(seq) <= {"0", "1"} else "".join(sorted(set(seq)))
        return cls(alphabet, symbols=seq, description=f"in-memory[{len(seq)}]")

    @classmethod
    def from_file(cls, path, alphabet) -> "Collective":
        symbols = _read_symbols(path)
        try:
            return cls(alphabet, symbols=symbols, description=f"file:{path}")
        except InvalidLabel:
            bad = set(symbols) - set(alphabet)
            raise InvalidLabel(
                f"symbols {sorted(bad)} in {path} outside alphabet {tuple(alphabet)}"
            ) from None

    @classmethod
    def periodic(cls, word, alphabet=None) -> "Collective":
        word = "".join(word)
        if not word:
            raise RangeError("periodic word must be nonempty")
        if alphabet is None:
            alphabet = "01" if set(word) <= {"0", "1"} else "".join(sorted(set(word)))
        # the word goes in as symbols too, so __init__ checks the alphabet
        return cls(alphabet, symbols=word, generator=_Periodic(word), description=f"periodic:{word}")

    @classmethod
    def alternating(cls) -> "Collective":
        return cls.periodic("01")

    @classmethod
    def random_bits(cls, seed: int) -> "Collective":
        return cls("01", generator=_RandomBits(seed), description=f"random:{seed}")

    def with_alphabet(self, alphabet) -> "Collective":
        """This source over another alphabet (the new collective takes the
        source over; random bits and periodic words are shared)."""
        src = self._source
        if isinstance(src, _Stored):
            return Collective(alphabet, src.buf, src.gen, self.description)
        word = src.word if isinstance(src, _Periodic) else ""
        return Collective(alphabet, word, src, self.description)

    @classmethod
    def checkpoint_forcing(cls, prime, depth, center, terms, mode="sphere") -> "Collective":
        bits = checkpoint_forcing_bits(prime, depth, center, terms, mode=mode)
        return cls("01", symbols=bits, description="checkpoint-forcing")

    # -- access ----------------------------------------------------------

    def _check(self, n: int) -> int:
        """n as a natural; refuse a drawn symbol outside the alphabet among
        the first n (InvalidLabel)."""
        n = _as_int(n, "prefix length", 0)
        if self._strays:
            _refuse({s for s in self._strays if self._source.count({s}, n)}, self.alphabet)
        return n

    def prefix(self, n: int) -> str:
        n = self._check(n)
        refuse_over(n, MAX_SYMBOLS, f"{self.description} asked for a prefix of {n} symbols")
        return self._source.prefix(n)

    def count(self, labels, n: int) -> int:
        labels = self.labelset(labels)
        return self._source.count(labels, self._check(n))

    def labelset(self, labels) -> frozenset:
        out = frozenset(labels)
        bad = out - set(self.alphabet)
        if bad:
            raise InvalidLabel(f"labels {sorted(bad)} outside alphabet {self.alphabet}")
        return out


def _count_labels(text: str, start: int, stop: int, table) -> int:
    """Occurrences in text[start:stop] of the symbols that `table` maps to
    "1" (every other symbol of text maps to "0"); table None means text
    is 0/1 and the label is "1".

    A branch-free count: each 0/1 piece is read as the integer of its
    ASCII bytes, whose set bits are counted. "0" (0x30) sets two bits and
    "1" (0x31) three, so the ones are that count less two per symbol.
    str.count would mispredict a branch per symbol.
    """
    seen = 0
    for i in range(start, stop, _COUNT_PIECE):
        piece = text[i : min(i + _COUNT_PIECE, stop)]
        if table is not None:
            piece = piece.translate(table)
        seen += int.from_bytes(piece.encode("ascii"), "little").bit_count() - 2 * len(piece)
    return seen


class _Stored:
    """Symbols held as one string: given at once, or read from a
    generator in pieces, each checked against the alphabet. Each label set
    keeps a running count, so counts at growing sample sizes scan each
    symbol once."""

    def __init__(self, buf: str, gen, alphabet: tuple, description: str):
        self.buf = buf
        self.gen = gen
        self.alphabet = alphabet
        self.description = description
        self._counts = {}  # label set -> (n, occurrences among the first n, translate table)

    def _fill(self, n: int) -> None:
        """Hold at least n symbols, or raise InsufficientData (InvalidLabel on
        a stray among the first n).

        A read runs on until the held string has doubled, so rising requests
        copy it O(log n) times in all. A stray met beyond n goes back to the
        generator, to be raised by the first request that reaches it."""
        need = n - len(self.buf)
        if need > 0 and self.gen is not None:
            refuse_over(n, MAX_SYMBOLS, f"{self.description} asked for {n} symbols")
            pieces, bad = [self.buf], ""
            want = min(max(n, 2 * len(self.buf)), MAX_SYMBOLS) - len(self.buf)
            while want > 0 and self.gen is not None:
                step = min(want, _READ_PIECE)
                piece = "".join(itertools.islice(self.gen, step))
                if len(piece) < step:
                    self.gen = None  # a source that ran short yields no more
                if stray := _strays(piece, self.alphabet):
                    cut = min(map(piece.index, set(stray)))
                    pieces.append(piece[:cut])
                    if cut < need:  # a source that strayed yields no more
                        bad, self.gen = _strays(piece[cut:need], self.alphabet), None
                    else:
                        self.gen = itertools.chain(piece[cut:], self.gen or ())
                    break
                pieces.append(piece)
                need, want = need - step, want - step
            self.buf = "".join(pieces)
            _refuse(set(bad), self.alphabet)
        if len(self.buf) < n:
            raise InsufficientData(f"{self.description} holds {len(self.buf)} symbols, {n} requested")

    def prefix(self, n: int) -> str:
        self._fill(n)
        return self.buf[:n]

    def count(self, labels: frozenset, n: int) -> int:
        self._fill(n)
        start, seen, table = self._counts.get(labels) or (0, 0, self._table(labels))
        if n < start:
            start, seen = 0, 0
        seen += _count_labels(self.buf, start, n, table)
        self._counts[labels] = (n, seen, table)
        return seen

    def _table(self, labels: frozenset):
        if labels == {"1"} and set(self.alphabet) == {"0", "1"}:
            return None
        return str.maketrans({a: "01"[a in labels] for a in self.alphabet})


class _Periodic:
    """A word repeated forever, counted in closed form."""

    def __init__(self, word: str):
        self.word = word

    def prefix(self, n: int) -> str:
        full, rest = divmod(n, len(self.word))
        return self.word * full + self.word[:rest]

    def count(self, labels, n: int) -> int:
        full, rest = divmod(n, len(self.word))
        return sum(full * self.word.count(ch) + self.word.count(ch, 0, rest) for ch in labels)


class _RandomBits:
    """Seeded fair bits, one getrandbits(1) each, counted as they are
    drawn and never stored.

    getrandbits(32*B) packs B successive 32-bit draws, least significant
    first, and getrandbits(1) is the top bit of one draw; so the ones
    among B symbols are (block & _TOP_MASK).bit_count(). The source keeps
    its position, the ones before it and the uncounted words of the
    current block; a count below the position replays from the seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._restart()

    def _restart(self) -> None:
        import random

        self._rng = random.Random(self.seed)
        self._pos = 0  # symbols counted
        self._ones = 0  # ones among them
        self._rest = 0  # the current block's uncounted words, masked, first at bit 0
        self._left = 0  # words in _rest

    def _ones_before(self, n: int) -> int:
        refuse_over(n, MAX_SYMBOLS, f"random:{self.seed} asked for {n} symbols")
        if n < self._pos:
            self._restart()
        pos, ones, rest, left = self._pos, self._ones, self._rest, self._left
        getrandbits = self._rng.getrandbits
        while pos < n:
            if not left:
                rest, left = getrandbits(32 * _BIT_BLOCK) & _TOP_MASK, _BIT_BLOCK
            take = min(n - pos, left)
            low = rest if take == left else rest & ((1 << 32 * take) - 1)
            ones += low.bit_count()
            rest >>= 32 * take
            pos, left = pos + take, left - take
        self._pos, self._ones, self._rest, self._left = pos, ones, rest, left
        return ones

    def count(self, labels, n: int) -> int:
        ones = self._ones_before(n)
        return ("1" in labels) * ones + ("0" in labels) * (n - ones)

    def prefix(self, n: int) -> str:
        """The first n symbols, drawn again from the seed."""
        import random

        getrandbits = random.Random(self.seed).getrandbits
        pieces = []
        for start in range(0, n, _BIT_BLOCK):
            draws = getrandbits(32 * _BIT_BLOCK).to_bytes(4 * _BIT_BLOCK, "little")
            pieces.append(draws[3::4].translate(_TOP_BIT)[: n - start].decode("ascii"))
        return "".join(pieces)


def relative_frequency(collective: Collective, labels, n: int) -> Fraction:
    """nu_N(A) = (occurrences of A among the first N symbols) / N."""
    n = _as_int(n, "N", 1)
    return Fraction(collective.count(labels, n), n)


def event_residues(prime, depth: int, center: int, mode: str, n: int) -> tuple[int, frozenset[int]]:
    """The tested event for sums S in [0, n] as residue classes: S hits it
    exactly when S % mod is in residues. Returns (mod, residues).

    mode "ball": S == center mod p**depth;
    mode "sphere": v_p(S - center) == depth, mod p**(depth+1);
    mode "residue": S - center is congruent mod p**depth to one of
    1..p-1 (at depth 0 that holds for every S). A sphere or residue
    event of more than MAX_LAW_WIDTH residues raises RangeError.

    The depth is cut to the least d with n + |center| + p < p**d. From d
    on, S - center and S - center - a for 0 < a < p are below p**d in
    absolute value, so each is divisible by p**depth only when it is 0:
    every event is the same on [0, n] at depth d as at any greater
    depth, and p**d is at most p * (n + |center| + p).

    >>> event_residues(3, 10**9, 0, "ball", 40), event_residues(3, 2, -5, "sphere", 40)
    ((81, frozenset({0})), (27, frozenset({4, 13})))
    """
    p, depth, n = Prime(prime), _as_int(depth, "depth", 0), _as_int(n, "n", 0)
    center = _as_int(center, "center")
    small = p ** min(depth, digit_count(n + abs(center) + p, p))
    if mode == "ball":
        return small, frozenset((center % small,))
    refuse_over(p - 1, MAX_LAW_WIDTH, f"the tested event lists {p - 1} residues")
    if mode == "sphere":
        return small * p, frozenset((center + u * small) % (small * p) for u in range(1, p))
    if mode == "residue":
        return small, frozenset((center + a) % small for a in range(1, p))
    raise RangeError(f"unknown mode {mode!r}")


def _checkpoints(terms) -> list[int]:
    """The checkpoints as a list of ints, strictly increasing from 1."""
    terms = [_as_int(n, "checkpoint", 1) for n in terms]
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise RangeError("checkpoints must be strictly increasing")
    return terms


def checkpoint_forcing_bits(prime, depth, center, terms, mode="sphere") -> str:
    """Forward-fill a 0/1 sequence so that at every checkpoint N in
    terms the partial sum hits the tested event (see event_residues)
    exactly. Raises RangeError if some gap is too short to steer the sum.
    """
    terms = _checkpoints(terms)
    mod, targets = event_residues(prime, depth, center, mode, max(terms, default=0))
    out = []
    s = 0
    pos = 0
    for i, n in enumerate(terms):
        gap = n - pos
        deltas = sorted((t - s) % mod for t in targets)
        delta = next((d for d in deltas if d <= gap), None)
        if delta is None:
            raise RangeError(
                f"cannot steer sum to a target at checkpoint {i + 1} (N={n}): gap {gap} < {deltas[0]}"
            )
        out.append("1" * delta + "0" * (gap - delta))
        s += delta
        pos = n
    return "".join(out)


# -- selectors ---------------------------------------------------------

_SCHEMES = ("affine", "truncation", "power", "explicit")


@dataclass(frozen=True)
class SequenceSelector:
    """Sample sizes N_k -> m in Z_p.

    Schemes: affine N_k = m + t*p**k (natural m), truncation N_k =
    (m mod p**k) for any p-adic integer m, power N_k = t*p**k toward 0,
    or an explicit term list (target optional).
    """

    prime: Prime
    scheme: str
    target: Fraction | None = None
    t: int = 1
    explicit_terms: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        if self.scheme not in _SCHEMES:
            raise RangeError(f"unknown scheme {self.scheme!r}")
        if self.target is not None:
            object.__setattr__(self, "target", as_fraction(self.target))
        object.__setattr__(self, "t", _as_int(self.t, "t", None if self.scheme == "explicit" else 1))
        if self.scheme == "affine":
            m = self.target
            if m is None or m.denominator != 1 or m < 0:
                raise InvalidTarget("affine scheme needs a natural target m")
        elif self.scheme == "truncation":
            if self.target is None:
                raise InvalidTarget("truncation scheme needs a target")
        elif self.scheme == "power":
            if self.target not in (None, 0):
                raise InvalidTarget("power scheme converges to 0")
            object.__setattr__(self, "target", Fraction(0))
        else:
            terms = tuple(_as_int(n, "sample size", 1) for n in self.explicit_terms)
            if not terms:
                raise RangeError("explicit scheme needs terms")
            if len(set(terms)) != len(terms):
                raise RangeError("sample sizes must be distinct")
            object.__setattr__(self, "explicit_terms", terms)
        if self.target is not None and vp(self.target, self.prime) < 0:
            raise InvalidTarget(f"target {self.target} is not a {self.prime}-adic integer")

    def terms(self, kmax: int) -> list[int]:
        """The first kmax usable sample sizes; zero or repeated
        truncation representatives are skipped with a log note."""
        kmax, p = _as_int(kmax, "kmax", 1), self.prime
        if self.scheme == "affine":
            m = int(self.target)
            return [m + self.t * p**k for k in range(1, kmax + 1)]
        if self.scheme == "power":
            return [self.t * p**k for k in range(1, kmax + 1)]
        if self.scheme == "explicit":
            return list(self.explicit_terms[:kmax])
        out: list[int] = []
        seen = set()
        m = self.target
        for k in range(1, kmax + 1):
            mod = p**k
            rep = m.numerator * pow(m.denominator, -1, mod) % mod
            if rep == 0 or rep in seen:
                LOGGER.info("selector skips k=%d (representative %d repeated or zero)", k, rep)
                continue
            seen.add(rep)
            out.append(rep)
        return out

    def describe(self) -> str:
        if self.scheme == "affine":
            return f"{int(self.target)}+{self.t}*{self.prime}^k"
        if self.scheme == "power":
            return f"{self.t}*{self.prime}^k"
        if self.scheme == "truncation":
            return f"trunc({format_rational(self.target)})"
        return "list:" + ",".join(str(n) for n in self.explicit_terms)


_AFFINE_RE = re.compile(r"^(\d+)\s*\+\s*(?:(\d+)\s*\*\s*)?p\s*\^\s*k$")
_POWER_RE = re.compile(r"^(?:(\d+)\s*\*\s*)?p\s*\^\s*k$")
_TRUNC_RE = re.compile(r"^trunc\(\s*(-?\d+(?:/\d+)?)\s*\)$")
_LIST_RE = re.compile(r"^list:(.+)$")


def parse_selector(text: str, prime) -> SequenceSelector:
    """Parse the selector grammar: 'm+t*p^k' | 't*p^k' | 'trunc(m)' |
    'list:N1,N2,...' (the '*t' factors optional)."""
    s = text.strip()
    m = _AFFINE_RE.match(s)
    if m:
        return SequenceSelector(
            prime, "affine", target=Fraction(int(m.group(1))), t=int(m.group(2) or 1)
        )
    m = _POWER_RE.match(s)
    if m:
        return SequenceSelector(prime, "power", t=int(m.group(1) or 1))
    m = _TRUNC_RE.match(s)
    if m:
        return SequenceSelector(prime, "truncation", target=as_fraction(m.group(1)))
    m = _LIST_RE.match(s)
    if m:
        try:
            terms = tuple(int(x) for x in m.group(1).split(","))
        except ValueError:
            raise RangeError(f"bad explicit term list in {text!r}") from None
        return SequenceSelector(prime, "explicit", explicit_terms=terms)
    raise RangeError(f"cannot parse selector {text!r}")


def range_ball(selector: SequenceSelector) -> Ball | None:
    """The ball U(0, -v_p(m)) that bounds every s-probability along the
    selector; None means unbounded (target 0 or no target)."""
    m = selector.target
    if m is None or m == 0:
        return None
    return Ball(selector.prime, 0, -vp(m, selector.prime))


# -- traces and limit detection -----------------------------------------


class FreqRow(NamedTuple):
    k: int
    n: int
    nu: Fraction
    gap_exponent: object = None  # int, math.inf, or None on the first row


_FREQ_COLUMNS = (("k", INT), ("N_k", INT), ("nu", RATIONAL), ("vp_gap", EXPONENT))


@dataclass
class FrequencyTrace:
    rows: tuple[FreqRow, ...]
    metric: str  # "padic:<p>" or "real"


@dataclass
class LimitOutcome:
    verdict: str
    value: object  # PadicApprox (padic), Fraction (real), or None
    trace: FrequencyTrace
    note: str = CAUCHY_NOTE
    params: dict = field(default_factory=dict)

    def report_lines(self, fmt: str) -> list[str]:
        """The trace rows; in JSON then {verdict, value, note, params}."""
        summary = dict(
            verdict=self.verdict, value=format_value(self.value), note=self.note, params=self.params
        )
        return table_lines(_FREQ_COLUMNS, self.trace.rows, fmt, summary)


def decimal_exponent(x: Fraction) -> int:
    """Largest e with |x| <= 10**-e, computed exactly (x != 0).

    Negative for |x| > 1; the real-topology counterpart of v_p.
    """
    num, den = abs(Fraction(x)).numerator, abs(Fraction(x)).denominator
    if num == 0:
        raise RangeError("zero has no finite decimal exponent")
    if num <= den:  # 10**e <= den/num, i.e. 10**e <= den // num
        return digit_count(den // num, 10) - 1
    # num/den <= 10**k, i.e. (num - 1) // den < 10**k, for the least k
    return -digit_count((num - 1) // den, 10)


def _gap_exponent(gap: Fraction, prime, topology: str):
    if gap == 0:
        return math.inf
    if topology == "padic":
        return vp(gap, prime)
    return decimal_exponent(gap)


def _window_terms(selector: SequenceSelector, kmax: int, window: int, topology: str):
    """The selector's first kmax usable terms, enough for the Cauchy window."""
    if topology not in ("padic", "real"):
        raise RangeError(f"unknown topology {topology!r}")
    window = _as_int(window, "window", 1)
    terms = selector.terms(kmax)
    if len(terms) < window + 1:
        raise InsufficientData(
            f"selector yields {len(terms)} usable terms; Cauchy window needs {window + 1}"
        )
    return terms


def _cauchy_limit(
    selector, terms, ratio, params, ball, window, cauchy_threshold, topology
) -> LimitOutcome:
    """Trace ratio(N_k) over the terms and judge it by the Cauchy window.

    A Converged p-adic value is checked against the range ball, if one
    is given; a violation is reported, not silenced."""
    p, cauchy_threshold = selector.prime, _as_int(cauchy_threshold, "cauchy_threshold")
    rows = []
    prev = None
    for k, n in enumerate(terms, start=1):
        nu = ratio(n)
        gap = None if prev is None else _gap_exponent(nu - prev, p, topology)
        rows.append(FreqRow(k, n, nu, gap))
        prev = nu
    metric = f"padic:{p}" if topology == "padic" else "real"
    trace = FrequencyTrace(tuple(rows), metric)
    params = {
        "selector": selector.describe(),
        **params,
        "window": window,
        "cauchy_threshold": cauchy_threshold,
        "topology": topology,
    }
    gaps = [r.gap_exponent for r in rows[-window:]]
    if not all(g is not None and g >= cauchy_threshold for g in gaps):
        return LimitOutcome(VERDICT_NO_LIMIT, None, trace, params=params)
    final = rows[-1].nu
    if topology == "real":
        return LimitOutcome(VERDICT_CONVERGED, final, trace, params=params)
    if ball is not None and not ball.contains(final):
        return LimitOutcome(VERDICT_RANGE, None, trace, params=params)
    value = PadicApprox.from_rational_abs(final, p, cauchy_threshold)
    return LimitOutcome(VERDICT_CONVERGED, value, trace, params=params)


def s_probability(
    collective: Collective,
    labels,
    selector: SequenceSelector,
    kmax: int,
    *,
    window: int = 3,
    cauchy_threshold: int = 8,
    topology: str = "padic",
) -> LimitOutcome:
    """Trace nu_{N_k}(A) along the selector and judge convergence by the
    last `window` gaps all having valuation >= cauchy_threshold (decimal
    exponent in the real topology).

    A Converged p-adic outcome carries nu_{kmax} as a PadicApprox at
    absolute precision cauchy_threshold, and is checked against the
    selector's range ball; a violation is reported, not silenced.
    """
    terms = _window_terms(selector, kmax, window, topology)
    labels = collective.labelset(labels)
    return _cauchy_limit(
        selector, terms, lambda n: relative_frequency(collective, labels, n),
        {"labels": "".join(sorted(labels))}, range_ball(selector),
        window, cauchy_threshold, topology,
    )


def conditional_s_probability(
    collective: Collective,
    labels_a,
    labels_b,
    selector: SequenceSelector,
    kmax: int,
    *,
    window: int = 3,
    cauchy_threshold: int = 8,
    topology: str = "padic",
) -> LimitOutcome:
    """Trace nu_{N_k}(A intersect B) / nu_{N_k}(A): the exact finite-N
    Bayes quotient. ConditioningOnNull if A never occurs in some prefix."""
    terms = _window_terms(selector, kmax, window, topology)
    a = collective.labelset(labels_a)
    b = collective.labelset(labels_b)
    ab = a & b

    def quotient(n):
        n_a = collective.count(a, n)
        if n_a == 0:
            raise ConditioningOnNull(f"conditioning event absent in the first {n} symbols")
        return Fraction(collective.count(ab, n), n_a)

    params = {"labels_a": "".join(sorted(a)), "labels_b": "".join(sorted(b)), "conditional": True}
    return _cauchy_limit(
        selector, terms, quotient, params, None, window, cauchy_threshold, topology
    )
