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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import MAX_LAW_WIDTH, AlphabetMismatch, DigitRange, DomainError, OscillationMissing, RangeError, refuse_over
from .padic import PadicAbs, PadicApprox, Prime, _as_int, _as_pair, abs_p, as_fraction, from_digits, to_digits
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
        try:
            word = tuple(operator.index(d) for d in w)
        except TypeError:
            raise DigitRange(f"word {w!r} is not a sequence of integer digits") from None
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
    if _as_int(depth, "depth") < 0:
        raise DigitRange("depth must be >= 0")
    if not 0 <= _as_int(n, "n") < q**depth:
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
    """The canonical trie of a union of cylinders; _FULL marks a whole subtree.

    An empty word covers the subtree; the other words are grouped by their
    first digit, each child is built from the tails, and a complete family
    of _FULL children merges into _FULL on the way up."""
    tails = {}
    for w in words:
        if not w:
            return _FULL
        tails.setdefault(w[0], []).append(w[1:])
    out = {d: _trie(ws, q) for d, ws in tails.items()}
    if len(out) == q and all(c is _FULL for c in out.values()):
        return _FULL
    return out


def _leaves(node, path, out):
    """Append the words of a trie to out in sorted order."""
    if node is _FULL:
        out.append(path)
    else:
        for d in sorted(node):
            _leaves(node[d], path + (d,), out)
    return out


# The set operations take canonical tries and return one. They mutate
# neither operand, so a result may share subtrees with them. A canonical
# node has no empty child, and its children are never q copies of _FULL.
# A child of a meet or a difference is _FULL only where the first
# operand's child is, so of the set operations only the join can complete
# a sibling family and check for it, as _trie does when it builds one.


def _join(a, b, q):
    if a is _FULL or b is _FULL:
        return _FULL
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for d, cb in b.items():
        ca = out.get(d)
        out[d] = cb if ca is None else _join(ca, cb, q)
    if len(out) == q and all(c is _FULL for c in out.values()):
        return _FULL
    return out


def _meet(a, b):
    if a is _FULL:
        return b
    if b is _FULL:
        return a
    out = {}
    for d, ca in a.items():
        cb = b.get(d)
        if cb is not None:
            c = _meet(ca, cb)
            if c:
                out[d] = c
    return out


def _minus(a, b, q):
    """a meet the complement of b, which is the complement of b when a is _FULL."""
    if b is _FULL or not a:
        return {}
    if not b:
        return a
    out = {}
    for d in range(q) if a is _FULL else a:
        ca = a if a is _FULL else a[d]
        cb = b.get(d)
        c = ca if cb is None else _minus(ca, cb, q)
        if c:
            out[d] = c
    return out


@dataclass(frozen=True, init=False, repr=False)
class Clopen:
    """A clopen subset in normal form: a sorted antichain of prefixes
    with no complete sibling family left unmerged.

    Each set keeps its canonical trie, and ``|``, ``&``, ``complement``
    and ``-`` are one walk over the operands' tries, linear in their size.

    Examples:
        >>> a = Clopen(3, ["0", "1"])
        >>> a | Clopen(3, ["2"])  # a complete sibling family merges to the whole space
        Clopen(q=3, '*')
        >>> a | Clopen(3, ["01", "10"])  # nested words are absorbed
        Clopen(q=3, '0;1')
        >>> a & Clopen(3, ["01", "2"])
        Clopen(q=3, '01')
        >>> a.complement()
        Clopen(q=3, '2')
        >>> a - Clopen(3, ["1"])
        Clopen(q=3, '0')
    """

    q: int
    words: tuple[Word, ...]

    def __init__(self, q, words=()):
        if isinstance(words, str):
            raise RangeError(f"words of a clopen are a sequence of words, not the string {words!r}")
        q = int(Prime(q))
        self._fill(q, _trie([_as_word(w, q) for w in words], q))

    def _fill(self, q, trie):
        # the trie is kept but is no field: sets compare by (q, words)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_trie", trie)
        object.__setattr__(self, "words", tuple(_leaves(trie, (), [])))

    def _of(self, trie) -> "Clopen":
        """The clopen over this alphabet with the given canonical trie."""
        out = object.__new__(Clopen)
        out._fill(self.q, trie)
        return out

    def __reduce__(self):
        # the trie marks full subtrees by identity with _FULL, so a copy
        # rebuilds it from the words
        return (Clopen, (self.q, self.words))

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
        return self._of(_join(self._trie, self._check(other)._trie, self.q))

    def __and__(self, other):
        return self._of(_meet(self._trie, self._check(other)._trie))

    def complement(self) -> "Clopen":
        return self._of(_minus(_FULL, self._trie, self.q))

    def __sub__(self, other):
        return self._of(_minus(self._trie, self._check(other)._trie, self.q))

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
        self.depth = _as_int(depth, "table depth", 0)
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
        triangle inequality reduces the sup to single cylinders. Since p
        != q, a cylinder at or below the table depth has the norm of its
        table word, and a shorter one's mass is a sum over the table
        words under it, so the sup is the largest of those words' norms."""
        if clopen.q != self.q:
            raise AlphabetMismatch(f"measure over q={self.q}, clopen over q={clopen.q}")
        short = {w for w in clopen.words if len(w) < self.depth}
        masses = [self.table.get(w[: self.depth], 0) for w in clopen.words if len(w) >= self.depth]
        masses += [val for v, val in self.table.items() if any(v[:k] in short for k in range(len(v)))]
        return max((abs_p(m, self.prime) for m in masses), default=PadicAbs.zero(self.prime))

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
        for piece in pieces:
            region, value = _as_pair(piece, "step function piece")
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
    caller's promise; integration errors are quoted relative to it.

    A digit-additive map may also give its per-digit form digit_term:
    then evaluator(w) == sum_j digit_term(j, w[j]) on every prefix w
    (0 on the empty one), another promise of the caller's, and
    integrate_continuous sums one-digit marginals in place of the
    prefix walk."""

    evaluator: Callable[[Word], Fraction]
    oscillation: Callable[[int], int] | None = None
    name: str = "f"
    digit_term: Callable[[int, int], Fraction] | None = None


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
    approximation's precision. A depth with more than MAX_LAW_WIDTH
    prefixes raises RangeError, whichever route sums them. A map with a
    digit_term is summed by its one-digit marginals, in O(|table| * n +
    q * n) steps; any other map by evaluating each of the q**n prefixes."""
    if f.oscillation is None:
        raise OscillationMissing("continuous integration needs an oscillation bound")
    depth = _as_int(depth, "depth", 0)
    q, p = measure.q, measure.prime
    # q >= 2, so q to the bit length of the limit is over it: q**depth is never built
    prefixes = q ** min(depth, MAX_LAW_WIDTH.bit_length())
    refuse_over(prefixes, MAX_LAW_WIDTH, f"depth {depth} sums over {q}**{depth} prefixes")
    if f.digit_term is not None:
        total = _marginal_sum(measure, f.digit_term, depth)
    else:
        total = Fraction(0)
        for word in itertools.product(range(q), repeat=depth):
            total += as_fraction(f.evaluator(word)) * measure.cylinder_mass(word)
    osc_exp = _as_int(f.oscillation(depth), "oscillation exponent")
    norm = measure.measure_norm(Clopen.whole(q))
    if norm.is_zero:
        err_exp = osc_exp  # zero measure: the sum is exact anyway
    else:
        err_exp = osc_exp - norm.exponent
    value = PadicApprox.from_rational_abs(total, p, err_exp)
    return IntegrationResult(depth, total, err_exp, value)


def _marginal_sum(measure: CylinderMeasure, digit_term, depth: int) -> Fraction:
    """sum over j < depth and digits d of digit_term(j, d) * mu(x_j = d),
    the Riemann sum of a digit-additive map. Positions below the table
    depth take their marginals from one pass over the table; at a deeper
    position the total mass splits uniformly, total/q to each digit."""
    q = measure.q
    marginals = [[Fraction(0)] * q for _ in range(min(measure.depth, depth))]
    for word, val in measure.table.items():
        for row, d in zip(marginals, word):
            row[d] += val
    deep = sum(measure.table.values(), Fraction(0)) / q
    marginals += [[deep] * q] * (depth - len(marginals))
    return sum(
        (as_fraction(digit_term(j, d)) * mass for j, row in enumerate(marginals) for d, mass in enumerate(row)),
        Fraction(0),
    )


def digit_weight_map(q, prime) -> ContinuousMap:
    """The map sending a digit sequence to sum_j digit_j * prime**j, a
    prime-adically convergent reweighting of the digits; its oscillation
    over a depth-n cylinder is at most prime**-n. It is digit-additive,
    so it carries its per-digit form d * prime**j.

    Examples:
        >>> f = digit_weight_map(2, 3)
        >>> print(f.evaluator((1, 0, 1)))
        10
        >>> print(integrate_continuous(UniformMeasure(2, 3), f, 6).riemann_sum)
        182
    """
    p = Prime(prime)

    def evaluator(word):
        return Fraction(from_digits(word, p))

    def digit_term(j, d):
        return Fraction(d * p**j)

    return ContinuousMap(evaluator, oscillation=lambda n: n, name="digitweight", digit_term=digit_term)
