"""Command line front end: exact p-adic probability reports.

Every subcommand prints a machine-readable report to stdout (CSV for
plotting, JSON lines for pipelines; rationals always serialize as
num/den, never as floats) and mirrors a one-line verdict summary plus a
reproducible config echo to stderr. Handlers return their report and
summary lines; `main` alone writes them, after the handler has finished.

Exit codes (EXIT_CODES): 0 success, 2 refused argument (RangeError or
an argparse error), 3 limit-theorem hypothesis violation, 4 insufficient
data, 5 any other library error (domain, convergence, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager

from . import limits
from .cylinder import UniformMeasure, digit_weight_map, integrate_continuous
from .errors import HypothesisViolation, InsufficientData, PadicProbError, RangeError
from .frequency import Collective, conditional_s_probability, parse_selector, s_probability
from .padic import DEFAULT_PRECISION, Prime, _as_int, abs_p, as_fraction, to_approx, vp
from .reports import (
    EXPONENT,
    INT,
    RATIONAL,
    format_exponent,
    format_rational,
    format_value,
    json_exponent,
    table_lines,
)

EXIT_CODES = {"ok": 0, "parse": 2, "hypothesis": 3, "data": 4, "domain": 5}

#: the exit code of each error root, tried in order (see errors.py)
_ERROR_EXITS = (
    (RangeError, EXIT_CODES["parse"]),
    (HypothesisViolation, EXIT_CODES["hypothesis"]),
    (InsufficientData, EXIT_CODES["data"]),
    (PadicProbError, EXIT_CODES["domain"]),
)


def _default_digits() -> str:
    # a string default goes through the option's type check, so a bad
    # value is reported as an argument error (exit 2), not a traceback
    return os.environ.get("PADICPROB_PRECISION", str(DEFAULT_PRECISION))


@contextmanager
def _unlimited_int_text():
    """Lift the interpreter's int-to-text digit limit while a handler
    runs: exact reports print their integers at any size."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise RangeError(f"cannot write {path}: {exc.strerror or exc}") from None


def _say(msg):
    print(msg, file=sys.stderr)


def _echo_config(args):
    cfg = {k: v for k, v in vars(args).items() if v is not None}
    _say("config " + json.dumps(cfg, sort_keys=True, default=str))


def _collective_from_args(args):
    # the source flags form a required group, so one of these is given;
    # a given alphabet applies to every source (test has no --alphabet)
    alphabet = getattr(args, "alphabet", None)
    if args.input is not None:
        try:
            return Collective.from_file(args.input, alphabet or "01")
        except OSError as exc:
            raise RangeError(f"cannot read {args.input}: {exc.strerror or exc}") from None
    if args.periodic is not None:
        return Collective.periodic(args.periodic, alphabet)
    bits = Collective.random_bits(args.random_bits)
    return bits if alphabet is None else bits.with_alphabet(alphabet)


def _add_source_flags(sub, adversarial=False):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="FILE", help="read symbols from FILE (whitespace ignored)")
    group.add_argument("--periodic", metavar="WORD", help="repeat WORD forever")
    group.add_argument("--random-bits", type=int, metavar="SEED", help="seeded fair random bits")
    if adversarial:
        group.add_argument(
            "--adversarial",
            action="store_true",
            help="checkpoint-forcing sequence built for these test parameters",
        )


def _add_common(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")


# -- subcommand handlers ---------------------------------------------------


def _cmd_valuation(args):
    p = Prime(args.prime)
    x = as_fraction(args.value)
    v = vp(x, p)
    a = abs_p(x, p).as_fraction()
    approx = to_approx(x, p, args.digits)  # checks --digits in both formats
    if args.format == "csv":
        lines = [
            "value,prime,valuation,abs",
            f"{format_rational(x)},{p},{format_exponent(v)},{format_rational(a)}",
        ]
    else:
        lines = [
            json.dumps(
                {
                    "value": format_rational(x),
                    "prime": int(p),
                    "valuation": json_exponent(v),
                    "abs": format_rational(a),
                    "expansion": str(approx),  # CSV never prints the digits
                },
                sort_keys=True,
            )
        ]
    summary = f"valuation: v_{p}({format_rational(x)}) = {format_exponent(v)}, abs = {format_rational(a)}"
    return lines, [summary]


def _cmd_freq(args):
    p = Prime(args.prime)
    collective = _collective_from_args(args)
    selector = parse_selector(args.scheme, p)
    kwargs = dict(window=args.window, cauchy_threshold=args.threshold, topology=args.topology)
    if args.given is not None:
        outcome = conditional_s_probability(
            collective, args.given, args.labels, selector, args.kmax, **kwargs
        )
    else:
        outcome = s_probability(collective, args.labels, selector, args.kmax, **kwargs)
    summary = f"freq: {outcome.verdict} value={format_value(outcome.value)} ({outcome.note})"
    return outcome.report_lines(args.format), [summary]


def _trace_report(named, fmt):
    """Report lines and stderr summaries of (name, trace) pairs, in order."""
    lines = [line for _, trace in named for line in trace.report_lines(fmt)]
    summary = [
        f"{name}: {trace.verdict} final_valuation={format_exponent(trace.final_valuation)}"
        for name, trace in named
    ]
    return lines, summary


def _cmd_thm31(args):
    selector = parse_selector(args.scheme, args.prime) if args.scheme else None
    trace = limits.binomial_ball_trace(
        args.prime, args.m, args.r, args.l,
        kmax=args.kmax, t=args.t, selector=selector, threshold=args.threshold,
    )
    return _trace_report([("thm31", trace)], args.format)


def _cmd_eq5(args):
    divisible, rest = limits.divisibility_balance_traces(
        args.prime, kmax=args.kmax, t=args.t, threshold=args.threshold
    )
    return _trace_report([("eq5[divisible]", divisible), ("eq5[not-divisible]", rest)], args.format)


def _cmd_thm32(args):
    trace = limits.prime_edge_trace(
        args.prime, args.r, args.l, kmax=args.kmax, t=args.t, threshold=args.threshold
    )
    return _trace_report([("thm32", trace)], args.format)


def _cmd_lln(args):
    p = Prime(args.prime)
    params = limits.BernoulliParams(p, args.q)
    selector = parse_selector(args.scheme, p)
    traces = limits.mahler_lln_traces(
        params, selector, args.mmax, args.kmax, threshold=args.threshold
    )
    return _trace_report([(f"lln[m={m}]", trace) for m, trace in traces.items()], args.format)


def _cmd_clt(args):
    if args.order < 2:
        raise RangeError(f"clt needs order >= 2 for its z**2 summary, got {args.order}")
    a = as_fraction(args.a)
    series = limits.clt_series(a, args.order, args.prime)
    if args.format == "csv":
        lines = table_lines((("k", INT), ("coeff", RATIONAL)), enumerate(series.coeffs), "csv")
    else:
        lines = [
            json.dumps(
                {
                    "a": format_rational(a),
                    "order": args.order,
                    "coefficients": [format_rational(c) for c in series.coeffs],
                },
                sort_keys=True,
            )
        ]
    summary = f"clt: a={format_rational(a)} order={args.order} z2={format_rational(series.coefficient(2))}"
    return lines, [summary]


def _cmd_mahler(args):
    p = Prime(args.prime)
    # each branch refuses a bad value of the other branch's flags too
    as_fraction(args.q)
    for flag, value in (("mmax", args.mmax), ("n", args.n), ("count", args.count)):
        if value is not None:
            _as_int(value, flag, 0)
    if args.clt_check:
        a = as_fraction(args.a)
        count = args.count
        if a == 1:
            report = limits.clt_mahler_bound_check(p, count)
            seq, verdict = report.seq, {"bounded": report.bounded, "note": report.note}
            summary = (
                f"mahler: bounded={report.bounded} max_abs={report.max_abs.as_fraction()}"
                f" ({report.note})"
            )
        else:
            # exploratory: coefficient valuations only, no verdict
            order = count if count % 2 == 0 else count + 1
            seq = limits.charfun_to_mahler(limits.clt_series(a, order, p), count)
            verdict = {}
            summary = "mahler: exploratory run, coefficient valuations only, no verdict"
        if args.format == "csv":
            columns = (("m", INT), ("lambda", RATIONAL), ("vp", EXPONENT))
            rows = [(m, c, vp(c, p)) for m, c in enumerate(seq.coefficients)]
            lines = table_lines(columns, rows, "csv")
        else:
            payload = {
                "a": format_rational(a),
                "prime": int(p),
                "coefficients": [format_rational(c) for c in seq.coefficients],
                "valuations": [json_exponent(vp(c, p)) for c in seq.coefficients],
                **verdict,
            }
            lines = [json.dumps(payload, sort_keys=True)]
        return lines, [summary]
    params = limits.BernoulliParams(p, args.q)
    a = as_fraction(args.a)
    columns = [("m", INT), ("lambda", RATIONAL)]
    values = [range(args.mmax + 1), limits.mahler_row(params, a, args.mmax)]
    if args.n is not None:
        columns.append(("empirical", RATIONAL))
        values.append(limits.empirical_mahler_row(params, args.n, args.mmax))
    summary = f"mahler: q={format_rational(params.q)} a={format_rational(a)} mmax={args.mmax}"
    return table_lines(columns, zip(*values), args.format), [summary]


def _cmd_integrate(args):
    p = Prime(args.prime)
    measure = UniformMeasure(args.q, p)
    result = integrate_continuous(measure, digit_weight_map(args.q, p), args.depth)
    summary = f"integrate: value={result.value!s} error_exponent={result.error_exponent}"
    return result.report_lines(args.format), [summary]


def _cmd_test(args):
    p = Prime(args.prime)
    selector = parse_selector(args.scheme, p)
    if args.adversarial:
        # the sequence is built for the test, so the test's side condition comes first
        limits.check_tested_depth(args.l)
        terms = selector.terms(args.kmax)
        collective = Collective.checkpoint_forcing(p, args.l, args.r, terms, mode=args.mode)
    else:
        collective = _collective_from_args(args)
    result = limits.sphere_randomness_test(
        collective, p, args.l, args.r, selector, args.eps_exp, args.kmax,
        kmin=args.kmin, mode=args.mode,
    )
    summary = f"test: {result.verdict} (k_eps={result.k_eps}, first_hit_k={result.first_hit_k})"
    return result.report_lines(args.format), [summary]


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicprob",
        description="Exact p-adic and group-valued probability reports.",
        epilog="PADICPROB_PRECISION sets the default digit count for expansions.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    s = subs.add_parser("valuation", help="p-adic valuation and absolute value of a rational")
    s.add_argument("value", help="rational, e.g. 12 or 5/16")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--digits", type=int, default=_default_digits(),
                   help=f"expansion digits (default: $PADICPROB_PRECISION, else {DEFAULT_PRECISION})")
    _add_common(s)

    s = subs.add_parser("freq", help="relative-frequency trace along a selector")
    _add_source_flags(s)
    s.add_argument("--alphabet")  # default: 01, or the --periodic word's own symbols
    s.add_argument("--labels", required=True, help="symbols counted as the event")
    s.add_argument("--given", help="condition on these symbols (Bayes quotient)")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--scheme", required=True, help="selector: 'm+t*p^k' | 't*p^k' | 'trunc(m)' | 'list:...'")
    s.add_argument("--kmax", type=int, default=8)
    s.add_argument("--window", type=int, default=3)
    s.add_argument("--threshold", type=int, default=8)
    s.add_argument("--topology", choices=("padic", "real"), default="padic")
    _add_common(s)

    s = subs.add_parser("thm31", help="ball-probability limit trace toward C(m,r)/2^m")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--l", type=int, required=True, help="ball depth")
    s.add_argument("--t", type=int, default=1)
    s.add_argument("--kmax", type=int, default=6)
    s.add_argument("--threshold", type=int, default=4)
    s.add_argument("--scheme", help="override the default selector m+t*p^k")
    _add_common(s)

    s = subs.add_parser("eq5", help="divisibility of S_n by p balances at 1/2")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--t", type=int, default=1)
    s.add_argument("--kmax", type=int, default=5)
    s.add_argument("--threshold", type=int, default=4)
    _add_common(s)

    s = subs.add_parser("thm32", help="ball limit at the m = p edge")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--l", type=int, required=True, help="ball depth")
    s.add_argument("--t", type=int, default=1)
    s.add_argument("--kmax", type=int, default=6)
    s.add_argument("--threshold", type=int, default=4)
    _add_common(s)

    s = subs.add_parser("lln", help="Mahler-coefficient law of large numbers traces")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--q", default="1/2", help="success parameter as a rational")
    s.add_argument("--scheme", required=True, help="selector carrying the limit target")
    s.add_argument("--mmax", type=int, default=5)
    s.add_argument("--kmax", type=int, default=8)
    s.add_argument("--threshold", type=int, default=4)
    _add_common(s)

    s = subs.add_parser("clt", help="normalized-sum characteristic series coefficients")
    s.add_argument("--a", default="1", help="exponent: natural count or p-adic unit rational")
    s.add_argument("--order", type=int, default=8, help="even truncation order")
    s.add_argument("--prime", type=int, help="needed for non-natural exponents")
    _add_common(s)

    s = subs.add_parser("mahler", help="Mahler coefficient tables and the boundedness desk check")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--q", default="1/2")
    s.add_argument("--a", default="1")
    s.add_argument("--mmax", type=int, default=8)
    s.add_argument("--n", type=int, help="also tabulate empirical coefficients at this n")
    s.add_argument("--clt-check", action="store_true",
                   help="Mahler coefficients of the normalized-sum series; verdict only at a=1")
    s.add_argument("--count", type=int, default=30, help="coefficients checked by --clt-check")
    _add_common(s)

    s = subs.add_parser("integrate", help="Riemann integral of the digit-weight map")
    s.add_argument("--q", type=int, required=True, help="digit alphabet size")
    s.add_argument("--prime", type=int, required=True, help="value prime (must differ from q)")
    s.add_argument("--depth", type=int, default=8)
    _add_common(s)

    s = subs.add_parser("test", help="sphere-membership randomness test at checkpoints")
    _add_source_flags(s, adversarial=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--l", type=int, required=True, help="sphere radius exponent")
    s.add_argument("--r", type=int, required=True, help="sphere center")
    s.add_argument("--scheme", required=True, help="checkpoint selector, e.g. '1+p^k'")
    s.add_argument("--eps-exp", type=int, required=True, help="significance = p^-E")
    s.add_argument("--kmin", type=int, default=1)
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--mode", choices=("sphere", "residue"), default="sphere")
    _add_common(s)

    return parser


@functools.lru_cache(maxsize=8)
def _parser(precision):
    """The parser for one value of PADICPROB_PRECISION (None: unset), which
    `--digits` reads for its default when the parser is built. It holds no
    handlers: `main` looks each one up by name when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(os.environ.get("PADICPROB_PRECISION")).parse_args(argv)
    _echo_config(args)
    try:
        with _unlimited_int_text():
            lines, summary = globals()[f"_cmd_{args.cmd}"](args)
        _emit(lines, args.output)
    except PadicProbError as exc:
        _say(f"error: {exc}")
        return next(code for root, code in _ERROR_EXITS if isinstance(exc, root))
    for line in summary:
        _say(line)
    return EXIT_CODES["ok"]


if __name__ == "__main__":
    sys.exit(main())
