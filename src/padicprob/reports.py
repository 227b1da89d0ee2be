"""The report wire format: one table writer and the value formatters.

A row-shaped report declares its columns as (name, kind) pairs and
passes rows of values in column order. The kind is INT, RATIONAL,
EXPONENT or FLAG. CSV output is a header line, then one line per row: a
rational takes the two columns name_num,name_den, an exponent is spelled
by format_exponent and a flag is 0/1. JSON output is one object per row
with sorted keys: a rational is format_rational's "num/den" (the integer
alone when the denominator is 1), an exponent goes through json_exponent
and a flag is a boolean. A given summary is one more JSON object; CSV has none.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .padic import PadicApprox

INT = "int"
RATIONAL = "rational"
EXPONENT = "exponent"
FLAG = "flag"


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
    RATIONAL: lambda x: f"{x.numerator},{x.denominator}",
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
