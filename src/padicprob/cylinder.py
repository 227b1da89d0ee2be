"""Clopen sets of q-adic digit sequences and p-adic valued measures.

Points are infinite digit strings over {0..q-1}; a cylinder U_x fixes a
finite prefix x. Finite unions of cylinders (the clopen algebra) have a
unique normal form computed on a digit trie: complete sibling families
merge into their parent, so set equality is tuple equality.

The uniform measure assigns q**-l(x) to a cylinder of prefix length
l(x); its values are judged p-adically, which is a bounded (hence
probabilistic) assignment exactly when p != q. More generally a
CylinderMeasure takes caller-supplied additive values on all words of a
fixed depth and splits them uniformly below, which keeps norms exactly
computable.

Step functions integrate by finite sums; continuous maps integrate by
Riemann sums over depth-n prefixes with a caller-declared oscillation
bound delta(n) turning into an explicit error exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import AlphabetMismatch, DigitRange, DomainError, OscillationMissing, RangeError
from .padic import PadicAbs, PadicApprox, Prime, abs_p, as_fraction, from_digits, to_digits
from .reports import INT, RATIONAL, table_lines

Word = tuple[int, ...]

_FULL = "full"  # trie sentinel: entire subtree included


def _as_word(w, q: int) -> Word:
    if isinstance(w, str):
        try:
            word = tuple(int(ch) for ch in w)
        except ValueError:
            raise DigitRange(f"non-digit character in word {w!r}") from None
    else:
        word = tuple(int(d) for d in w)
    for d in word:
        if not 0 <= d < q:
            raise DigitRange(f"digit {d} outside 0..{q - 1}")
    return word


def encode_jq(word, q) -> int:
    """j_q of a finite prefix: sum of digit_j * q**j."""
    q = Prime(q)
    return from_digits(_as_word(word, q), q)


def decode_jq(n: int, q, depth: int) -> Word:
    """Inverse of encode_jq on naturals below q**depth."""
    q = Prime(q)
    if depth < 0:
        raise DigitRange("depth must be >= 0")
    if not 0 <= n < q**depth:
        raise DigitRange(f"{n} is not encodable in {depth} base-{q} digits")
    return to_digits(n, q, depth)


@dataclass(frozen=True)
class Cylinder:
    """All sequences extending a fixed digit prefix."""

    q: int
    word: Word

    def __post_init__(self):
        object.__setattr__(self, "q", int(Prime(self.q)))
        object.__setattr__(self, "word", _as_word(self.word, self.q))

    @property
    def length(self) -> int:
        return len(self.word)


# -- trie plumbing -------------------------------------------------------


def _trie(words, q):
    """The canonical trie of a union of cylinders; _FULL marks a whole subtree."""
    trie: dict | str = {}
    for w in words:
        trie = _insert(trie, w)
    return _canon(trie, q)


def _insert(node, word):
    if node is _FULL:
        return _FULL
    if not word:
        return _FULL
    node[word[0]] = _insert(node.get(word[0], {}), word[1:])
    return node


def _canon(node, q):
    if node is _FULL:
        return _FULL
    out = {}
    for d, ch in node.items():
        c = _canon(ch, q)
        if c == {}:
            continue
        out[d] = c
    if len(out) == q and all(c is _FULL for c in out.values()):
        return _FULL
    return out


def _leaves(node, path=()):
    if node is _FULL:
        yield path
        return
    for d in sorted(node):
        yield from _leaves(node[d], path + (d,))


def _complement_words(node, q, path=()):
    if node is _FULL:
        return
    for d in range(q):
        ch = node.get(d)
        if ch is None:
            yield path + (d,)
        else:
            yield from _complement_words(ch, q, path + (d,))


class Clopen:
    """A clopen subset in normal form: a sorted antichain of prefixes
    with no complete sibling family left unmerged."""

    __slots__ = ("q", "words")

    def __init__(self, q, words=()):
        q = int(Prime(q))
        ws = [_as_word(w, q) for w in words]
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "words", tuple(_leaves(_trie(ws, q))))

    def __setattr__(self, name, value):
        raise AttributeError("Clopen is immutable")

    @classmethod
    def empty(cls, q) -> "Clopen":
        return cls(q, ())

    @classmethod
    def whole(cls, q) -> "Clopen":
        return cls(q, ((),))

    @property
    def is_empty(self) -> bool:
        return not self.words

    @property
    def is_whole(self) -> bool:
        return self.words == ((),)

    @property
    def max_depth(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def _check(self, other) -> "Clopen":
        if not isinstance(other, Clopen):
            raise TypeError("expected Clopen")
        if other.q != self.q:
            raise AlphabetMismatch(f"clopen alphabets differ: {self.q} vs {other.q}")
        return other

    def __or__(self, other):
        other = self._check(other)
        return Clopen(self.q, self.words + other.words)

    def __and__(self, other):
        other = self._check(other)
        out = []
        for a in self.words:
            for b in other.words:
                if len(a) <= len(b):
                    if b[: len(a)] == a:
                        out.append(b)
                elif a[: len(b)] == b:
                    out.append(a)
        return Clopen(self.q, out)

    def complement(self) -> "Clopen":
        return Clopen(self.q, _complement_words(_trie(self.words, self.q), self.q))

    def __sub__(self, other):
        return self & self._check(other).complement()

    def contains(self, prefix) -> bool:
        """Membership of any point extending the given prefix; raises if
        the prefix is too short to decide."""
        prefix = _as_word(prefix, self.q)
        # the words are an antichain with every complete sibling family merged,
        # so a word extending the prefix leaves both outcomes open
        if any(prefix[: len(w)] == w for w in self.words):
            return True
        if any(w[: len(prefix)] == prefix for w in self.words):
            raise RangeError(f"prefix {prefix} too short to decide membership")
        return False

    def __eq__(self, other):
        if not isinstance(other, Clopen):
            return NotImplemented
        return self.q == other.q and self.words == other.words

    def __hash__(self):
        return hash((self.q, self.words))

    def __repr__(self):
        return f"Clopen(q={self.q}, {format_clopen(self)!r})"


def format_clopen(c: Clopen) -> str:
    """Text form: semicolon-separated digit words; '*' is the whole
    space, '' the empty set. Single-character digits, so q <= 9."""
    if c.q > 9:
        raise RangeError("text form supports q <= 9")
    if c.is_whole:
        return "*"
    return ";".join("".join(str(d) for d in w) for w in c.words)


def parse_clopen(text: str, q) -> Clopen:
    q = Prime(q)
    if q > 9:
        raise RangeError("text form supports q <= 9")
    s = text.strip()
    if s == "*":
        return Clopen.whole(q)
    if s == "":
        return Clopen.empty(q)
    return Clopen(q, tuple(part.strip() for part in s.split(";")))


# -- measures ------------------------------------------------------------


class CylinderMeasure:
    """Additive p-adic valued measure from a table of cylinder values at
    one fixed depth, split uniformly below that depth.

    The uniform split keeps every deeper mass a p-adic unit multiple of
    its depth-d ancestor, so norms are exact finite maxima.
    """

    def __init__(self, q, prime, depth: int, values: dict):
        self.q = int(Prime(q))
        self.prime = Prime(prime)
        if self.prime == self.q:
            raise DomainError(
                f"uniform splitting by {q} is unbounded {self.prime}-adically; need p != q"
            )
        if depth < 0:
            raise RangeError("table depth must be >= 0")
        self.depth = int(depth)
        table = {}
        for w, val in values.items():
            word = _as_word(w, self.q)
            if len(word) != self.depth:
                raise RangeError(f"table word {word} not at depth {self.depth}")
            table[word] = as_fraction(val)
        self.table = table

    def cylinder_mass(self, word) -> Fraction:
        word = _as_word(word, self.q)
        if len(word) >= self.depth:
            base = self.table.get(word[: self.depth], Fraction(0))
            return base * Fraction(1, self.q ** (len(word) - self.depth))
        total = Fraction(0)
        for w, val in self.table.items():
            if w[: len(word)] == word:
                total += val
        return total

    def measure(self, clopen: Clopen) -> Fraction:
        if clopen.q != self.q:
            raise AlphabetMismatch(f"measure over q={self.q}, clopen over q={clopen.q}")
        return sum((self.cylinder_mass(w) for w in clopen.words), Fraction(0))

    def total(self) -> Fraction:
        return self.measure(Clopen.whole(self.q))

    @property
    def is_probability(self) -> bool:
        return self.total() == 1

    def measure_norm(self, clopen: Clopen) -> PadicAbs:
        """sup |mu(B)|_p over clopen B inside the given set. The strong
        triangle inequality reduces the sup to single cylinders, and the
        uniform split makes depths beyond the table redundant."""
        if clopen.q != self.q:
            raise AlphabetMismatch(f"measure over q={self.q}, clopen over q={clopen.q}")
        best = PadicAbs.zero(self.prime)
        stack = list(clopen.words)
        while stack:
            w = stack.pop()
            a = abs_p(self.cylinder_mass(w), self.prime)
            if a > best:
                best = a
            if len(w) < self.depth:
                stack.extend(w + (d,) for d in range(self.q))
        return best

    def point_norm(self, prefix) -> PadicAbs:
        """N_mu at a point: inf over cylinders containing it of their
        norm. Needs the prefix to reach the table depth."""
        prefix = _as_word(prefix, self.q)
        if len(prefix) < self.depth:
            raise RangeError(f"point prefix must reach table depth {self.depth}")
        # the norm only shrinks along nested cylinders: the deepest cut is the inf
        return self.measure_norm(Clopen(self.q, (prefix,)))


class UniformMeasure(CylinderMeasure):
    """mu(U_x) = q**-l(x); p-adically bounded since p != q."""

    def __init__(self, q, prime):
        super().__init__(q, prime, 0, {(): Fraction(1)})

    def cylinder_mass(self, word) -> Fraction:
        word = _as_word(word, self.q)
        return Fraction(1, self.q ** len(word))


def zero_measure(q, prime) -> CylinderMeasure:
    return CylinderMeasure(q, prime, 0, {(): Fraction(0)})


# -- integration ---------------------------------------------------------


class StepFunction:
    """Finitely many clopen pieces with rational values; implicitly 0
    elsewhere. Pieces must be pairwise disjoint (empty pieces dropped)."""

    def __init__(self, q, pieces):
        self.q = int(Prime(q))
        kept = []
        for region, value in pieces:
            if not isinstance(region, Clopen):
                region = Clopen(self.q, region)
            if region.q != self.q:
                raise AlphabetMismatch("piece alphabet differs from step function's")
            if region.is_empty:
                continue
            kept.append((region, as_fraction(value)))
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                if not (kept[i][0] & kept[j][0]).is_empty:
                    raise RangeError("step function pieces overlap")
        self.pieces = tuple(sorted(kept, key=lambda rv: rv[0].words))

    def value_at(self, prefix) -> Fraction:
        for region, value in self.pieces:
            if region.contains(prefix):
                return value
        return Fraction(0)


def integrate_step(measure: CylinderMeasure, f: StepFunction) -> Fraction:
    """Exact integral sum c_k mu(A_k)."""
    if f.q != measure.q:
        raise AlphabetMismatch("step function alphabet differs from measure's")
    return sum((value * measure.measure(region) for region, value in f.pieces), Fraction(0))


@dataclass
class ContinuousMap:
    """A p-adically continuous map given by a prefix evaluator together
    with a declared oscillation bound: over any depth-n cylinder the
    values vary by at most prime**-oscillation(n). The bound is the
    caller's promise; integration errors are quoted relative to it."""

    evaluator: Callable[[Word], Fraction]
    oscillation: Callable[[int], int] | None = None
    name: str = "f"


_INTEGRATION_COLUMNS = (("depth", INT), ("value", RATIONAL), ("error_exponent", INT))


@dataclass
class IntegrationResult:
    depth: int
    riemann_sum: Fraction
    error_exponent: int
    value: PadicApprox

    def report_lines(self, fmt: str) -> list[str]:
        """The one-row report: a CSV header and row, or one JSON object."""
        row = (self.depth, self.riemann_sum, self.error_exponent)
        return table_lines(_INTEGRATION_COLUMNS, [row], fmt)


def integrate_continuous(
    measure: CylinderMeasure, f: ContinuousMap, depth: int
) -> IntegrationResult:
    """Riemann sum over all depth-n prefixes, with the guaranteed error
    |integral - sum|_p <= delta(n) * ||whole||_mu baked into the returned
    approximation's precision."""
    if f.oscillation is None:
        raise OscillationMissing("continuous integration needs an oscillation bound")
    if depth < 0:
        raise RangeError("depth must be >= 0")
    q, p = measure.q, measure.prime
    total = Fraction(0)
    for word in itertools.product(range(q), repeat=depth):
        total += as_fraction(f.evaluator(word)) * measure.cylinder_mass(word)
    osc_exp = int(f.oscillation(depth))
    norm = measure.measure_norm(Clopen.whole(q))
    if norm.is_zero:
        err_exp = osc_exp  # zero measure: the sum is exact anyway
    else:
        err_exp = osc_exp - norm.exponent
    value = PadicApprox.from_rational_abs(total, p, err_exp)
    return IntegrationResult(depth, total, err_exp, value)


def digit_weight_map(q, prime) -> ContinuousMap:
    """The map sending a digit sequence to sum_j digit_j * prime**j, a
    prime-adically convergent reweighting of the digits; its oscillation
    over a depth-n cylinder is at most prime**-n."""
    p = Prime(prime)

    def evaluator(word):
        return Fraction(from_digits(word, p))

    return ContinuousMap(evaluator, oscillation=lambda n: n, name="digitweight")
