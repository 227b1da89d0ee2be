"""The report wire format: one table writer and the value formatters.

A row-shaped report declares its columns as (name, kind) pairs and
passes rows of values in column order. The kind is INT, RATIONAL,
EXPONENT or FLAG. CSV output is a header line, then one line per row: a
rational takes the two columns name_num,name_den, an exponent is spelled
by format_exponent and a flag is 0/1. JSON output is one object per row
with sorted keys: a rational is format_rational's "num/den" (the integer
alone when the denominator is 1), an exponent goes through json_exponent
and a flag is a boolean. A given summary is one more JSON object; CSV has none.
A rational's integers are written by int_text, which is str() in less
than quadratic time.
"""

from __future__ import annotations

import json
import math
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction

from .padic import PadicApprox

INT = "int"
RATIONAL = "rational"
EXPONENT = "exponent"
FLAG = "flag"


#: integers of at most this many bits are written by plain str()
TEXT_CUTOFF_BITS = 2**15
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def int_text(n: int) -> str:
    """str(n), in subquadratic time where str() of an int is quadratic.

    Python 3.11 and earlier turn an int into decimal text in quadratic
    time; above TEXT_CUTOFF_BITS bits such an int goes through
    `_split_text`. From Python 3.12 on, str() splits by itself. Unlike
    str(), the split ignores the interpreter's int-to-text digit limit.
    """
    if sys.version_info >= (3, 12) or n.bit_length() <= TEXT_CUTOFF_BITS:
        return str(n)
    return _split_text(n)


def _split_text(n: int) -> str:
    """The decimal text of n by divide and conquer: n is split in halves
    by bits and rebuilt as an exact Decimal with Context.fma, whose
    multiplication is subquadratic and whose text is linear."""
    powers = {}  # 2**bits as a Decimal, for the widths of this n

    def power_of_2(bits: int) -> Decimal:
        if bits not in powers:
            half = bits // 2
            powers[bits] = (
                Decimal(1 << bits)
                if bits <= TEXT_CUTOFF_BITS
                else _EXACT.multiply(power_of_2(half), power_of_2(bits - half))
            )
        return powers[bits]

    def as_decimal(n: int, bits: int) -> Decimal:
        if bits <= TEXT_CUTOFF_BITS:
            return Decimal(n)
        half = bits // 2
        hi = n >> half
        return _EXACT.fma(as_decimal(hi, bits - half), power_of_2(half), as_decimal(n - (hi << half), half))

    return ("-" if n < 0 else "") + str(as_decimal(abs(n), abs(n).bit_length()))


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def format_exponent(e) -> str:
    """Render a valuation/exponent; infinities spelled out, None blank."""
    return "" if e is None else str(json_exponent(e))


def json_exponent(e):
    if e is None:
        return None
    if e == math.inf:
        return "inf"
    if e == -math.inf:
        return "-inf"
    return int(e)


def format_value(value):
    """A limit's value as report text: a PadicApprox's str, a rational's num/den, None as None."""
    if value is None:
        return None
    if isinstance(value, PadicApprox):
        return str(value)
    return format_rational(value)


_CSV_CELL = {
    INT: str,
    RATIONAL: lambda x: f"{int_text(x.numerator)},{int_text(x.denominator)}",
    EXPONENT: format_exponent,
    FLAG: lambda b: str(int(b)),
}
_JSON_VALUE = {INT: int, RATIONAL: format_rational, EXPONENT: json_exponent, FLAG: bool}


def table_lines(columns, rows, fmt: str, summary=None) -> list[str]:
    """The lines of a report in `fmt` ("csv" or "json"): a CSV header and one
    line per row, or one JSON object per row and then the summary, if given."""
    if fmt == "csv":
        head = ",".join(
            f"{name}_num,{name}_den" if kind == RATIONAL else name for name, kind in columns
        )
        cells = [_CSV_CELL[kind] for _, kind in columns]
        return [head] + [",".join(cell(v) for cell, v in zip(cells, row)) for row in rows]
    values = [(name, _JSON_VALUE[kind]) for name, kind in columns]
    lines = [
        json.dumps({name: value(v) for (name, value), v in zip(values, row)}, sort_keys=True)
        for row in rows
    ]
    if summary is not None:
        lines.append(json.dumps(summary, sort_keys=True))
    return lines
