"""Exception types shared across the package.

Every library error derives from PadicProbError. Four roots decide the
CLI's exit code (cli.EXIT_CODES): RangeError 2 (also a ValueError, so
existing `except ValueError` callers keep working), HypothesisViolation 3,
InsufficientData 4, and any other PadicProbError 5. Every size limit is
defined here and checked by refuse_over before the bounded object is built.
Every integer argument is read once, by padic._as_int, which refuses a
non-int, a bool and a value below the argument's least with RangeError.
"""

from __future__ import annotations


class PadicProbError(Exception):
    """Base class for all library errors."""


class RangeError(PadicProbError, ValueError):
    """An argument value the function does not accept."""


class DomainError(PadicProbError):
    """Input outside a function's mathematical domain (e.g. a series
    argument outside its disc of convergence)."""


class OrderError(PadicProbError):
    """Formal series operands with mismatched truncation orders."""


class PrecisionExhausted(DomainError):
    """An approximate p-adic result retains no significant digits."""


class InvalidTarget(RangeError):
    """Selector target is not a p-adic integer (denominator divisible by p)."""


class InsufficientData(PadicProbError):
    """A collective or selector cannot supply the amount of data asked for."""


class ConditioningOnNull(PadicProbError):
    """Conditional frequency requested where the conditioning count is zero."""


class InvalidLabel(RangeError):
    """A symbol outside the declared alphabet appeared in a data source."""


class AlphabetMismatch(PadicProbError):
    """Clopen/cylinder operands over different digit alphabets."""


class DigitRange(RangeError):
    """A digit outside 0..q-1 appeared in a word or encoding."""


class OscillationMissing(PadicProbError):
    """Riemann integration requested without a declared oscillation bound."""


class HypothesisViolation(PadicProbError):
    """Limit-theorem side conditions not met by the requested parameters."""


class NoRingStructure(PadicProbError):
    """Convolution requested in a group context without multiplication."""


class NotInvertible(PadicProbError):
    """Conditioning on an event whose probability has no inverse."""


class RegionNotSignificant(PadicProbError):
    """A critical region's probability lies outside its significance
    neighborhood; the test is misconfigured."""


MAX_LAW_WIDTH = 2**20  # event residues, chain states, integrate prefixes
MAX_LAW_BITS = 2**33  # bits of a residue law, 1 GiB: width * n * bit_length(|a| + |b - a|), q = a/b; width <= n + 1
MAX_CHAIN_COST = 2**34  # one checkpoint-chain step: its products times their bit length
MAX_POWERSET_OUTCOMES = 16  # powerset_field lists 2**outcomes events
MAX_SYMBOLS = 2**30  # symbols a collective draws from random bits, reads from a generator or returns as a prefix


def refuse_over(cost: int, limit: int, what: str) -> None:
    """Raise RangeError("<what>, more than the limit of <limit>") when cost > limit."""
    if cost > limit:
        raise RangeError(f"{what}, more than the limit of {limit}")
