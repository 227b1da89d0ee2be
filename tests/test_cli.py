"""End-to-end command line tests driven through main(argv)."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicprob
from padicprob import cli
from padicprob.cli import EXIT_CODES, main
from padicprob.limits import binomial_ball_trace
from padicprob.padic import DEFAULT_PRECISION, to_approx
from padicprob.reports import INT, RATIONAL, table_lines


WIDE = 18446744073709551557  # the largest prime below 2**64


def law_too_wide(n):
    # the law mod WIDE over n trials of q = 1/2 may hold WIDE * n * 2 bits
    return (
        f"residue law mod {WIDE} over n={n} trials may hold {WIDE * n * 2} bits, "
        "more than the limit of 8589934592"
    )


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestValuation:
    def test_integer(self, capsys):
        rc, out, err = run(capsys, ["valuation", "12", "--prime", "3"])
        assert rc == 0
        assert out.splitlines() == ["value,prime,valuation,abs", "12,3,1,1/3"]
        assert "valuation: v_3(12) = 1, abs = 1/3" in err

    def test_negative_valuation(self, capsys):
        rc, out, _ = run(capsys, ["valuation", "5/16", "--prime", "2"])
        assert rc == 0
        assert out.splitlines()[1] == "5/16,2,-4,16"

    def test_zero(self, capsys):
        rc, out, _ = run(capsys, ["valuation", "0", "--prime", "3"])
        assert rc == 0
        assert out.splitlines()[1] == "0,3,inf,0"

    def test_json_expansion(self, capsys):
        rc, out, _ = run(
            capsys, ["valuation", "12", "--prime", "3", "--format", "json", "--digits", "5"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["valuation"] == 1
        assert payload["abs"] == "1/3"
        assert payload["expansion"] == str(to_approx(12, 3, 5))

    def test_csv_skips_the_expansion(self, capsys):
        # CSV prints no digits, so a million of them must not be rendered
        start = time.perf_counter()
        rc, out, _ = run(capsys, ["valuation", "1/2", "--prime", "3", "--digits", "1000000", "--format", "csv"])
        assert time.perf_counter() - start < 10
        assert rc == 0
        assert out.splitlines() == ["value,prime,valuation,abs", "1/2,3,0,1"]

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICPROB_PRECISION", "4")
        rc, out, _ = run(capsys, ["valuation", "12", "--prime", "3", "--format", "json"])
        assert rc == 0
        assert json.loads(out)["expansion"] == str(to_approx(12, 3, 4))

    def test_precision_default(self, capsys, monkeypatch):
        monkeypatch.delenv("PADICPROB_PRECISION", raising=False)
        rc, out, _ = run(capsys, ["valuation", "12", "--prime", "3", "--format", "json"])
        assert rc == 0
        assert json.loads(out)["expansion"] == str(to_approx(12, 3, DEFAULT_PRECISION))

    def test_precision_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICPROB_PRECISION", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["valuation", "12", "--prime", "3"])
        assert exc.value.code == EXIT_CODES["parse"]
        assert "error:" in capsys.readouterr().err

    def test_bad_rational(self, capsys):
        rc, _, err = run(capsys, ["valuation", "twelve", "--prime", "3"])
        assert rc == EXIT_CODES["parse"]
        assert "error:" in err

    def test_exponent_notation_refused_at_once(self, capsys):
        # Fraction("1e99999999") would build a 10**8-digit integer
        start = time.perf_counter()
        rc, out, err = run(capsys, ["valuation", "1e99999999", "--prime", "3"])
        assert time.perf_counter() - start < 1
        assert rc == EXIT_CODES["parse"]
        assert out == ""
        assert "error: exponent notation is not accepted: '1e99999999'" in err

    def test_config_echo(self, capsys):
        _, _, err = run(capsys, ["valuation", "12", "--prime", "3"])
        first = err.splitlines()[0]
        assert first.startswith("config ")
        cfg = json.loads(first[len("config "):])
        assert cfg["cmd"] == "valuation"
        assert cfg["prime"] == 3


class TestTraceCommands:
    def test_ball_limit_rows(self, capsys):
        rc, out, err = run(
            capsys, ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k,N_k,value_num,value_den,vp_to_limit"
        assert lines[1] == "1,5,5,16,1"
        assert lines[2] == "2,11,341,1024,2"
        assert len(lines) == 7
        assert "thm31: Converging final_valuation=6" in err

    def test_ball_limit_json_verdict(self, capsys):
        rc, out, _ = run(
            capsys,
            ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1", "--format", "json"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert json.loads(lines[0]) == {"N_k": 5, "k": 1, "value": "5/16", "vp_to_limit": 1}
        tail = json.loads(lines[-1])
        assert tail["verdict"] == "Converging"
        assert tail["final_valuation"] == 6

    def test_window_guard_exit(self, capsys):
        rc, _, err = run(
            capsys, ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "0"]
        )
        assert rc == EXIT_CODES["hypothesis"]
        assert "error:" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text digit limit"
    )
    def test_report_beyond_int_text_limit(self, capsys):
        # the kmax-9 row has integers of more than 4300 decimal digits
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            rc, out, _ = run(
                capsys, ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1", "--kmax", "9"]
            )
            assert sys.get_int_max_str_digits() == 5000
            sys.set_int_max_str_digits(0)
            expected = binomial_ball_trace(3, 2, 1, 1, kmax=9).report_lines("csv")
        finally:
            sys.set_int_max_str_digits(old)
        assert rc == 0
        assert out.splitlines() == expected
        assert len(expected[-1].split(",")[3]) > 5000  # the last denominator

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text digit limit"
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_library_report_beyond_int_text_limit(self, capsys, fmt):
        # the library writes the kmax-9 report under the default limit, as the CLI does
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            lines = binomial_ball_trace(3, 2, 1, 1, kmax=9).report_lines(fmt)
            assert sys.get_int_max_str_digits() == 4300
            rc, out, _ = run(
                capsys,
                ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1", "--kmax", "9", "--format", fmt],
            )
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)
        assert rc == 0
        assert out.splitlines() == lines

    def test_divisibility_balance(self, capsys):
        rc, out, err = run(capsys, ["eq5", "--prime", "3"])
        assert rc == 0
        lines = out.splitlines()
        assert lines.count("k,N_k,value_num,value_den,vp_to_limit") == 2
        assert lines[1] == "1,4,5,16,1"
        assert lines[7] == "1,4,11,16,1"
        assert "eq5[divisible]: Converging" in err
        assert "eq5[not-divisible]: Converging" in err

    def test_prime_edge(self, capsys):
        rc, _, err = run(capsys, ["thm32", "--prime", "3", "--r", "0", "--l", "2", "--kmax", "5"])
        assert rc == 0
        assert "thm32: Converging final_valuation=4" in err
        rc, _, _ = run(capsys, ["thm32", "--prime", "3", "--r", "0", "--l", "1"])
        assert rc == EXIT_CODES["hypothesis"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1", "--scheme", "trunc(0)"],
            ["lln", "--prime", "3", "--scheme", "trunc(0)"],
        ],
        ids=["thm31", "lln"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_selector_without_terms(self, capsys, argv, fmt):
        # trunc(0) yields no sample sizes: no header, no verdict, no traceback
        rc, out, err = run(capsys, argv + ["--format", fmt])
        assert rc == EXIT_CODES["data"] == 4
        assert out == ""
        assert err.splitlines()[-1] == "error: the selector yields no usable terms"

    TEST_ARGS = ["--l", "1", "--r", "0", "--scheme", "1+p^k", "--eps-exp", "1", "--kmax", "1"]
    EVENT_TOO_WIDE = "the tested event lists 18446744073709551556 residues, more than the limit of 1048576"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["thm31", "--m", "2", "--r", "1", "--l", "1", "--kmax", "1"], law_too_wide(2 + WIDE)),
            (["eq5", "--kmax", "1"], law_too_wide(1 + WIDE)),
            # the rows are computed before the limit C(p, r)/2**p, whose denominator has 2**64 bits
            (["thm32", "--r", "1", "--l", "1", "--kmax", "1"], law_too_wide(2 * WIDE)),
            # the event would list p - 1 residues, before any symbol is counted
            (["test", "--periodic", "01"] + TEST_ARGS, EVENT_TOO_WIDE),
            (["test", "--periodic", "01", "--mode", "residue"] + TEST_ARGS, EVENT_TOO_WIDE),
            (["test", "--adversarial"] + TEST_ARGS, EVENT_TOO_WIDE),
        ],
        ids=["thm31", "eq5", "thm32", "test-periodic", "test-residue", "test-adversarial"],
    )
    def test_residue_law_too_wide(self, capsys, argv, error):
        # a law mod this prime would list about 2**64 entries: its bits are refused before any is built
        rc, out, err = run(capsys, argv + ["--prime", str(WIDE)])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {error}"]

    def test_ball_of_a_wide_prime(self, capsys):
        # a ball lists one residue, so the p - 1 residue limit of the tested event does not apply
        rc, out, _ = run(capsys, ["thm31", "--prime", "1048583", "--m", "0", "--r", "0", "--l", "0", "--kmax", "1"])
        assert rc == 0
        assert out.splitlines()[1] == "1,1048583,1,1,inf"

    def test_residue_law_too_many_bits(self, capsys):
        # the law mod p has p entries of up to N_1 = p + 1 bits: about 2 * 10**12 bits in all
        rc, out, err = run(capsys, ["eq5", "--prime", "1000003", "--kmax", "1"])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: residue law mod 1000003 over n=1000004 trials may hold 2000014000024 bits, "
            "more than the limit of 8589934592"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--kmax", "4"],
            ["thm32", "--prime", "3", "--r", "1", "--kmax", "4"],
            ["test", "--periodic", "01", "--prime", "3", "--r", "0", "--scheme", "1+p^k", "--eps-exp", "2",
             "--kmax", "4"],
            ["test", "--random-bits", "1", "--prime", "3", "--r", "0", "--scheme", "1+p^k", "--eps-exp", "-3",
             "--kmax", "4", "--mode", "residue"],
            ["test", "--adversarial", "--prime", "3", "--r", "0", "--scheme", "1+p^k", "--eps-exp", "-3",
             "--kmax", "4", "--mode", "residue"],
        ],
        ids=["thm31", "thm32", "test-sphere", "test-residue", "test-adversarial"],
    )
    def test_huge_depth_as_at_its_event_depth(self, capsys, argv):
        # past about log_p of the largest sum every ball and event is the same
        # on the sums that occur, so 3**1000000000 is never built
        rc, expected, _ = run(capsys, argv + ["--l", "1000"])
        assert rc == 0 and expected
        start = time.monotonic()
        assert run(capsys, argv + ["--l", "1000000000"])[:2] == (rc, expected)
        assert time.monotonic() - start < 5

    def test_lln(self, capsys):
        rc, out, err = run(
            capsys,
            ["lln", "--prime", "3", "--scheme", "trunc(-1)", "--mmax", "2", "--kmax", "4"],
        )
        assert rc == 0
        assert out.splitlines().count("k,N_k,value_num,value_den,vp_to_limit") == 3
        for m in range(3):
            assert f"lln[m={m}]:" in err


class TestCltAndMahler:
    def test_clt_table(self, capsys):
        rc, out, err = run(capsys, ["clt"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k,coeff_num,coeff_den"
        assert lines[1] == "0,1,1"
        assert lines[3] == "2,1,2"
        assert lines[5] == "4,1,24"
        assert lines[9] == "8,1,40320"
        assert "z2=1/2" in err

    def test_clt_errors(self, capsys):
        rc, _, _ = run(capsys, ["clt", "--a", "1/3", "--prime", "3"])
        assert rc == EXIT_CODES["domain"]
        rc, _, _ = run(capsys, ["clt", "--a", "1/2"])
        assert rc == EXIT_CODES["parse"]  # prime needed for non-natural exponents
        rc, _, _ = run(capsys, ["clt", "--order", "7"])
        assert rc == EXIT_CODES["parse"]

    @pytest.mark.parametrize("extra", [[], ["--a", "0", "--prime", "3"]], ids=["a=1", "a=0"])
    @pytest.mark.parametrize("order", ["-2", "0", "1"])
    def test_clt_order_below_two(self, capsys, order, extra):
        # the summary reads the z**2 coefficient; refuse before the table
        rc, out, err = run(capsys, ["clt", "--order", order, *extra])
        assert rc == EXIT_CODES["parse"]
        assert out == ""
        assert err.splitlines()[-1] == f"error: clt needs order >= 2 for its z**2 summary, got {order}"

    def test_clt_check_count_zero(self, capsys):
        rc, out, _ = run(capsys, ["mahler", "--prime", "3", "--clt-check", "--count", "0"])
        assert rc == 0
        assert out == "m,lambda_num,lambda_den,vp\n0,1,1,0\n"

    def test_mahler_table(self, capsys):
        rc, out, _ = run(capsys, ["mahler", "--prime", "3", "--mmax", "3", "--n", "4"])
        assert rc == 0
        assert out.splitlines() == [
            "m,lambda_num,lambda_den,empirical_num,empirical_den",
            "0,1,1,1,1",
            "1,1,2,2,1",
            "2,0,1,3,2",
            "3,0,1,1,2",
        ]

    def test_mahler_table_matches_per_m_route(self, capsys):
        # the former table: (1/2)**m * C(1/2, m), each C rebuilt by its own product
        def per_m(m):
            out = Fraction(1, 2) ** m
            for j in range(m):
                out = out * (Fraction(1, 2) - j) / (j + 1)
            return out

        rows = [(m, per_m(m)) for m in range(301)]
        expected = table_lines((("m", INT), ("lambda", RATIONAL)), rows, "csv")
        rc, out, _ = run(capsys, ["mahler", "--prime", "3", "--a", "1/2", "--mmax", "300"])
        assert rc == 0
        assert out == "\n".join(expected) + "\n"

    def test_clt_check_verdict(self, capsys):
        rc, out, err = run(capsys, ["mahler", "--prime", "3", "--clt-check", "--count", "6"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "m,lambda_num,lambda_den,vp"
        assert lines[1] == "0,1,1,0"
        assert lines[2] == "1,0,1,inf"
        assert lines[3] == "2,1,2,0"
        assert "bounded=True" in err
        assert "evidence on [0, count], not a proof" in err

    def test_clt_check_two_adic(self, capsys):
        rc, _, _ = run(capsys, ["mahler", "--prime", "2", "--clt-check"])
        assert rc == EXIT_CODES["domain"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--clt-check", "--count", "-1"], "error: count must be a natural"),
            (["--clt-check", "--count", "-1", "--a", "1/2"], "error: count must be a natural"),
            (["--mmax", "-1"], "error: mmax must be a natural"),
            (["--mmax", "-1", "--n", "4"], "error: mmax must be a natural"),
            (["--n", "-1"], "error: n must be a natural"),
        ],
    )
    def test_negative_size_refused(self, capsys, argv, message):
        # no verdict or header on an empty coefficient range
        rc, out, err = run(capsys, ["mahler", "--prime", "3", *argv])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [message]
        assert "bounded=" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("a,code", [("1/3", 5), ("1/2", 0)])
    def test_mahler_exponent_must_be_padic_integer(self, capsys, a, code, fmt):
        rc, out, err = run(capsys, ["mahler", "--prime", "3", "--a", a, "--format", fmt])
        assert rc == code
        assert (out == "") == (code != 0)
        if code:
            assert err.splitlines()[-1] == "error: exponent must be a p-adic integer"

    def test_clt_check_exploratory(self, capsys):
        rc, _, err = run(
            capsys, ["mahler", "--prime", "3", "--clt-check", "--a", "2", "--count", "8"]
        )
        assert rc == 0
        assert "exploratory run" in err
        assert "no verdict" in err


class TestIntegrate:
    def test_csv(self, capsys):
        rc, out, err = run(capsys, ["integrate", "--q", "2", "--prime", "3", "--depth", "6"])
        assert rc == 0
        assert out.splitlines() == [
            "depth,value_num,value_den,error_exponent",
            "6,182,1,6",
        ]
        assert "error_exponent=6" in err

    def test_json(self, capsys):
        rc, out, _ = run(
            capsys, ["integrate", "--q", "2", "--prime", "3", "--depth", "6", "--format", "json"]
        )
        assert rc == 0
        assert out.strip() == '{"depth": 6, "error_exponent": 6, "value": "182"}'

    def test_equal_primes(self, capsys):
        rc, _, _ = run(capsys, ["integrate", "--q", "3", "--prime", "3"])
        assert rc == EXIT_CODES["domain"]

    @pytest.mark.parametrize("q, prime, depth", [(2, 3, 20), (3, 2, 12)])
    def test_depth_at_limit(self, capsys, q, prime, depth):
        # the largest accepted depth: the digit weights sum by one-digit marginals, not q**depth prefixes
        start = time.monotonic()
        rc, out, _ = run(capsys, ["integrate", "--q", str(q), "--prime", str(prime), "--depth", str(depth)])
        assert time.monotonic() - start < 5
        assert rc == 0
        value = Fraction(q - 1, 2) * Fraction(prime**depth - 1, prime - 1)
        assert value.denominator == 1
        assert out.splitlines() == ["depth,value_num,value_den,error_exponent", f"{depth},{value},1,{depth}"]

    @pytest.mark.parametrize(
        "q, depth, largest", [("2", "21", 20), ("2", "40", 20), ("5", "9", 8), ("5", "1000000000", 8)]
    )
    def test_depth_beyond_limit(self, capsys, q, depth, largest):
        # refused before any prefix is summed: depth 40 would be 2**40 prefixes,
        # and the check itself never builds 5**1000000000
        start = time.monotonic()
        rc, out, err = run(capsys, ["integrate", "--q", q, "--prime", "3", "--depth", depth])
        assert time.monotonic() - start < 5
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: depth {depth} sums over {q}**{depth} prefixes, more than the limit of 1048576"
        ]
        # the largest depth with at most 2**20 prefixes is still summed
        rc, out, _ = run(capsys, ["integrate", "--q", q, "--prime", "3", "--depth", str(largest)])
        assert rc == 0
        assert out.splitlines()[1].startswith(f"{largest},")



ADVERSARIAL = [
    "test", "--adversarial", "--prime", "3", "--l", "1", "--r", "0",
    "--scheme", "1+p^k", "--eps-exp", "2", "--kmax", "6",
]


class TestRandomness:
    @pytest.mark.parametrize("source", [["--random-bits", "1"], ["--adversarial"]])
    @pytest.mark.parametrize("scheme", ["trunc(0)", "list:4,10"])
    def test_short_selector_is_insufficient_data(self, capsys, source, scheme):
        # as for thm31, lln and freq: too few checkpoints is missing data
        rc, out, err = run(capsys, ["test", *source, "--prime", "3", "--l", "1", "--r", "0",
                                    "--scheme", scheme, "--eps-exp", "2", "--kmax", "3"])
        assert rc == EXIT_CODES["data"] == 4
        assert out == ""
        assert err.splitlines()[-1] == "error: selector yields fewer usable terms than kmax"

    def test_adversarial_rows(self, capsys):
        rc, out, err = run(capsys, ADVERSARIAL)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k,N_k,S,hit,prob_num,prob_den,vp_prob"
        assert lines[1] == "1,4,3,1,1,4,0"
        assert lines[2] == "2,10,3,1,165,512,1"
        assert len(lines) == 7
        assert "test: PersistentHit (k_eps=4, first_hit_k=4)" in err

    def test_adversarial_unsteerable(self, capsys):
        # the event at depth 1000 is cut to mod 3**6 for N_4 = 82; the first gap is 4
        rc, out, err = run(capsys, ["test", "--adversarial", "--prime", "3", "--l", "1000", "--r", "0",
                                    "--scheme", "1+p^k", "--eps-exp", "2", "--kmax", "4"])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert err.splitlines()[-1] == "error: cannot steer sum to a target at checkpoint 1 (N=4): gap 4 < 243"

    def test_adversarial_json(self, capsys):
        rc, out, _ = run(capsys, ADVERSARIAL + ["--format", "json"])
        assert rc == 0
        lines = out.splitlines()
        first = json.loads(lines[0])
        assert first == {"N_k": 4, "S": 3, "hit": True, "k": 1, "prob": "1/4", "vp_prob": 0}
        tail = json.loads(lines[-1])
        assert tail["verdict"] == "PersistentHit"
        assert tail["k_eps"] == 4

    def test_zeros_not_rejected(self, capsys):
        rc, _, err = run(
            capsys,
            ["test", "--periodic", "0", "--prime", "3", "--l", "1", "--r", "0",
             "--scheme", "1+p^k", "--eps-exp", "2", "--kmax", "6"],
        )
        assert rc == 0
        assert "test: NotRejected" in err

    def test_eps_unreachable(self, capsys):
        rc, _, _ = run(
            capsys,
            ["test", "--periodic", "0", "--prime", "3", "--l", "1", "--r", "0",
             "--scheme", "1+p^k", "--eps-exp", "10", "--kmax", "6"],
        )
        assert rc == EXIT_CODES["domain"]

    def test_short_file(self, capsys, tmp_path):
        src = tmp_path / "bits.txt"
        src.write_text("0101\n")
        rc, _, _ = run(
            capsys,
            ["test", "--input", str(src), "--prime", "3", "--l", "1", "--r", "0",
             "--scheme", "1+p^k", "--eps-exp", "2", "--kmax", "6"],
        )
        assert rc == EXIT_CODES["data"]

    @pytest.mark.parametrize(
        "source", [["--adversarial"], ["--periodic", "0"], ["--random-bits", "1"], ["--input"]],
        ids=["adversarial", "periodic", "random-bits", "input"],
    )
    def test_depth_below_one_is_a_hypothesis_violation(self, capsys, tmp_path, source):
        if source == ["--input"]:
            path = tmp_path / "bits.txt"
            path.write_text("0110" * 30)
            source = ["--input", str(path)]
        rc, out, err = run(
            capsys,
            ["test", *source, "--prime", "3", "--l", "-1", "--r", "0",
             "--scheme", "1+p^k", "--eps-exp", "2", "--kmax", "3"],
        )
        assert rc == EXIT_CODES["hypothesis"] == 3
        assert out == ""
        assert err.splitlines()[-1] == "error: the tested event needs depth >= 1"

    def test_bad_scheme(self, capsys):
        rc, _, _ = run(
            capsys,
            ["test", "--periodic", "0", "--prime", "3", "--l", "1", "--r", "0",
             "--scheme", "nonsense", "--eps-exp", "2", "--kmax", "6"],
        )
        assert rc == EXIT_CODES["parse"]


class TestFreq:
    def test_alternating(self, capsys):
        rc, out, err = run(
            capsys,
            ["freq", "--periodic", "01", "--labels", "1", "--prime", "3",
             "--scheme", "1+p^k", "--kmax", "6"],
        )
        assert rc == 0
        assert out.splitlines()[0] == "k,N_k,nu_num,nu_den,vp_gap"
        assert "freq:" in err

    def test_bad_label(self, capsys):
        rc, _, _ = run(
            capsys,
            ["freq", "--periodic", "01", "--labels", "2", "--prime", "3",
             "--scheme", "1+p^k"],
        )
        assert rc == EXIT_CODES["parse"]

    def test_empty_given_is_a_condition(self, capsys):
        # --given= conditions on the empty event; it is not the unconditional trace
        rc, out, err = run(capsys, ["freq", "--periodic", "01", "--labels", "1", "--given=",
                                    "--prime", "3", "--scheme", "1+p^k", "--kmax", "4"])
        assert rc == EXIT_CODES["domain"] == 5
        assert out == ""
        assert err.splitlines()[-1] == "error: conditioning event absent in the first 4 symbols"

    @pytest.mark.parametrize(
        "source,alphabet,labels,code",
        [
            (["--periodic", "012"], "01", "1", 2),
            (["--random-bits", "1"], "abc", "1", 2),
            (["--random-bits", "1"], "abc", "a", 2),  # the drawn bits are strays
            (["--random-bits", "1"], "012", "2", 0),
            (["--periodic", "0120"], None, "2", 0),  # inferred from the word
            (["--periodic", "0120"], "01", "1", 2),
        ],
    )
    def test_alphabet_applies_to_every_source(self, capsys, tmp_path, source, alphabet, labels, code):
        flags = [] if alphabet is None else ["--alphabet", alphabet]
        argv = ["freq", *source, *flags, "--labels", labels, "--prime", "3",
                "--scheme", "1+p^k", "--kmax", "6"]
        rc, out, err = run(capsys, argv)
        assert rc == code
        assert (out == "") == (code != 0)
        if code:
            assert "outside alphabet" in err.splitlines()[-1]
            # the same symbols read from a file are refused the same way
            if source[0] == "--periodic":
                path = tmp_path / "symbols.txt"
                path.write_text(source[1] * 4)
                argv[1:3] = ["--input", str(path)]
                assert run(capsys, argv)[0] == code

    def test_file_whitespace_kinds_give_the_same_bytes(self, capsys, tmp_path):
        symbols = "0110100110010110" * 8
        plain, broken = tmp_path / "plain.txt", tmp_path / "broken.txt"
        plain.write_bytes("\n".join(symbols).encode("ascii") + b"\n")
        kinds = [" ", "\t", "\r\n", "\v", "\f"]
        broken.write_bytes("".join(
            ch + kinds[i % len(kinds)] * (i % 3) for i, ch in enumerate(symbols)
        ).encode("ascii"))
        assert all(w.encode("ascii") in broken.read_bytes() for w in kinds)
        argv = ["freq", "--labels", "1", "--prime", "2", "--scheme", "p^k", "--kmax", "7"]
        rc, out, _ = run(capsys, [*argv, "--input", str(plain)])
        assert rc == 0
        assert out.splitlines()[-1] == "7,128,1,2,inf"
        assert run(capsys, [*argv, "--input", str(broken)])[:2] == (0, out)

    @pytest.mark.parametrize("raw", [b"01 1\xc3\xa9\n0", b"01\tx\r\n10"], ids=["non-ascii", "stray"])
    def test_file_refusals_keep_their_messages(self, capsys, tmp_path, raw):
        path = tmp_path / "symbols.txt"
        path.write_bytes(raw)
        rc, out, err = run(capsys, ["freq", "--input", str(path), "--labels", "1", "--prime", "2",
                                    "--scheme", "p^k", "--kmax", "2"])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        if raw.isascii():
            want = f"symbols ['x'] in {path} outside alphabet ('0', '1')"
        else:
            want = (f"non-ASCII byte in {path}: 'ascii' codec can't decode byte 0xc3 "
                    "in position 4: ordinal not in range(128)")
        assert err.splitlines()[-1] == f"error: {want}"

    def test_huge_periodic_sample_in_closed_form(self, capsys):
        # 10**10 symbols are counted from the word, none is produced
        rc, out, _ = run(capsys, ["freq", "--periodic", "01", "--labels", "1", "--prime", "2",
                                  "--scheme", "list:10,10000000000", "--kmax", "2", "--window", "1"])
        assert rc == 0
        assert out.splitlines() == ["k,N_k,nu_num,nu_den,vp_gap", "1,10,1,2,", "2,10000000000,1,2,inf"]

    def test_random_bits_past_the_symbol_limit_refused_at_once(self, capsys):
        start = time.monotonic()
        rc, out, err = run(capsys, ["freq", "--random-bits", "1", "--labels", "1", "--prime", "2",
                                    "--scheme", "list:1,2,3,1073741825", "--kmax", "4"])
        assert time.monotonic() - start < 2
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            "error: random:1 asked for 1073741825 symbols, more than the limit of 1073741824"
        )

    def test_seeded_source_is_deterministic(self, capsys):
        argv = ["freq", "--random-bits", "7", "--labels", "1", "--prime", "3",
                "--scheme", "1+p^k", "--kmax", "6"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_window_below_one(self, capsys, window):
        rc, out, err = run(
            capsys,
            ["freq", "--periodic", "01", "--labels", "1", "--prime", "3",
             "--scheme", "2*p^k", "--kmax", "4", "--threshold", "1", "--window", window],
        )
        assert rc == EXIT_CODES["parse"]
        assert out == ""
        assert err.splitlines()[-1] == "error: window must be a natural >= 1"


@pytest.mark.parametrize("summary", [None, {}, {"verdict": "NoLimit", "b": None}])
def test_table_summary_line(summary):
    # a summary, {} included, is one more JSON line; CSV has none
    columns = (("k", INT), ("x", RATIONAL))
    rows = [(1, Fraction(1, 2))]
    assert table_lines(columns, rows, "csv", summary) == ["k,x_num,x_den", "1,1,2"]
    tail = [] if summary is None else [json.dumps(summary, sort_keys=True)]
    assert table_lines(columns, rows, "json", summary) == ['{"k": 1, "x": "1/2"}'] + tail


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples(capsys):
    # each `$ padicprob ...` block: its stdout lines, then "with `SUMMARY` on stderr"
    examples = re.findall(
        r"```\n\$ padicprob ([^\n]+)\n(.*?)```\n\nwith `([^`]+)` on stderr",
        README.read_text(),
        re.S,
    )
    assert [shlex.split(cmd)[0] for cmd, _, _ in examples] == ["thm31", "test"]
    for cmd, stdout, summary in examples:
        rc, out, err = run(capsys, shlex.split(cmd))
        assert rc == 0
        assert out.splitlines() == stdout.splitlines()
        assert summary in err.splitlines()


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "report.csv"
        rc, out, _ = run(capsys, ["valuation", "12", "--prime", "3", "--output", str(dest)])
        assert rc == 0
        assert out == ""
        assert dest.read_text().splitlines()[1] == "12,3,1,1/3"

    @pytest.mark.parametrize("dest", ["absent/report.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output(self, capsys, tmp_path, dest):
        # like an unreadable --input: one error line, exit 2, no traceback
        path = tmp_path / dest
        rc, out, err = run(capsys, ["valuation", "5", "--prime", "3", "--output", str(path)])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert err.splitlines()[-1].startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
    def test_refused_run_writes_no_output_file(self, capsys, tmp_path, exists):
        # the report is written only after the handler has finished
        dest = tmp_path / "report.csv"
        if exists:
            dest.write_bytes(b"earlier report\n")
        argv = ["thm31", "--prime", "3", "--m", "2", "--r", "3", "--l", "1", "--output", str(dest)]
        rc, out, err = run(capsys, argv)
        assert rc == EXIT_CODES["hypothesis"] == 3
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        if exists:
            assert dest.read_bytes() == b"earlier report\n"
        else:
            assert not dest.exists()

    def test_byte_identical_reruns(self, capsys):
        for argv in (
            ADVERSARIAL,
            ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1", "--format", "json"],
            ["mahler", "--prime", "3", "--clt-check", "--count", "10", "--format", "json"],
        ):
            _, out1, _ = run(capsys, argv)
            _, out2, _ = run(capsys, argv)
            assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eq5", "--prime", "3", "--kmax", "5"],
            ["lln", "--prime", "3", "--scheme", "2+p^k", "--kmax", "5"],
        ],
    )
    def test_same_bytes_under_optimize(self, argv):
        # python -O strips assert statements; no output may depend on them
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(padicprob.__file__)))
        outs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "padicprob.cli", *argv],
                env=env, capture_output=True, check=True,
            ).stdout
            for flags in ([], ["-O"])
        ]
        assert outs[0] == outs[1] != b""

    @pytest.mark.parametrize(
        "argv", [["valuation", "12", "--prime", "9"], ["integrate", "--q", "4", "--prime", "3"]]
    )
    def test_non_prime_modulus_is_argument_error(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        assert "is not prime" in err

    # a bad value is refused whatever other flags say; the last three keep their codes
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["clt", "--prime", "4"], 2),
            (["clt", "--prime", "1"], 2),
            (["clt", "--prime", "0", "--a", "0"], 2),
            (["valuation", "5/16", "--prime", "5", "--digits", "0"], 2),
            (["mahler", "--prime", "3", "--clt-check", "--q", "abc"], 2),
            (["mahler", "--prime", "3", "--clt-check", "--n", "-1"], 2),
            (["mahler", "--prime", "3", "--clt-check", "--mmax", "-1"], 2),
            (["mahler", "--prime", "3", "--count", "-1"], 2),
            (["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1", "--t", "0",
              "--scheme", "2+p^k"], 2),
            (["mahler", "--prime", "3", "--clt-check", "--q", "1/3"], 0),
            (["mahler", "--prime", "2", "--clt-check", "--a", "3"], 0),
            (["mahler", "--prime", "3", "--q", "1/3"], 5),
        ],
    )
    def test_flag_checked_on_every_branch(self, capsys, argv, code):
        rc, out, _ = run(capsys, argv)
        assert rc == code
        assert (out == "") == (code != 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--labels", "1", "--prime", "2", "--scheme", "p^k", "--kmax", "3"],
            ["test", "--prime", "3", "--l", "1", "--r", "0", "--scheme", "1+p^k",
             "--eps-exp", "2", "--kmax", "3"],
        ],
        ids=["freq", "test"],
    )
    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
    def test_unreadable_input_is_argument_error(self, capsys, tmp_path, argv, missing):
        path = tmp_path / "absent.txt" if missing else tmp_path
        rc, out, err = run(capsys, [argv[0], "--input", str(path), *argv[1:]])
        assert rc == EXIT_CODES["parse"] == 2
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot read {path}: "
                          + ("No such file or directory" if missing else "Is a directory")]
        assert "Traceback" not in err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["valuation", "12"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestParserReuse:
    THM31 = ["thm31", "--prime", "3", "--m", "2", "--r", "1", "--l", "1"]

    def test_one_parser_per_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICPROB_PRECISION", "6")
        cli._parser.cache_clear()
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for _ in range(2):
            assert run(capsys, ["valuation", "12", "--prime", "3"])[0] == 0
        assert len(built) == 1

    def test_precision_read_per_invocation(self, capsys, monkeypatch):
        for digits in (4, 7):
            monkeypatch.setenv("PADICPROB_PRECISION", str(digits))
            rc, out, _ = run(capsys, ["valuation", "12", "--prime", "3", "--format", "json"])
            assert rc == 0
            assert json.loads(out)["expansion"] == str(to_approx(12, 3, digits))

    def test_refused_calls_leave_no_state(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("PADICPROB_PRECISION", raising=False)
        cli._parser.cache_clear()
        fresh = run(capsys, self.THM31)
        with pytest.raises(SystemExit) as exc:
            main(["thm31", "--prime", "3", "--m", "two"])
        assert exc.value.code == 2
        capsys.readouterr()
        bad_output = self.THM31 + ["--output", str(tmp_path / "absent" / "report.csv")]
        assert run(capsys, bad_output)[0] == EXIT_CODES["parse"]
        assert run(capsys, self.THM31) == fresh

    def test_every_subcommand_has_a_handler(self):
        # main finds a handler by its subcommand's name when it runs
        (subs,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        handlers = {name[len("_cmd_"):] for name in vars(cli) if name.startswith("_cmd_")}
        assert set(subs.choices) == handlers
        assert all(callable(getattr(cli, f"_cmd_{name}")) for name in subs.choices)


# -- the exit contract, over generated argument lists ---------------------

BITS = "<bits file>"  # replaced by a real file of symbols in the test
SMALL = st.integers(-2, 4).map(str)
PRIMES = st.sampled_from(["2", "3", "5", "0", "1", "4", "-3"])
RATIONALS = st.sampled_from(["1/2", "1/3", "2/5", "0", "1", "-1", "3", "1.5", "1/0", "abc", "1e3"])
SCHEMES = st.sampled_from([
    "1+p^k", "2+p^k", "p^k", "2*p^k", "trunc(0)", "trunc(-1)", "trunc(1/2)", "trunc(1/0)",
    "list:3,2", "list:1,2,3,4", "bogus",
])


def _flags(required, optional=None):
    """Every required flag and any subset of the optional ones (and --format)."""
    optional = dict(optional or {}, **{"--format": st.sampled_from(["csv", "json"])})
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [tok for flag, value in d.items() for tok in (flag, value)]
    )


def _command(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for part in ps for tok in part])


def _sources(adversarial=False):
    sources = [
        st.tuples(st.just("--periodic"), st.sampled_from(["0", "01", "011", "0120", "2"])),
        st.tuples(st.just("--random-bits"), st.sampled_from(["1", "7"])),
        st.tuples(st.just("--input"), st.sampled_from([BITS, BITS + ".absent"])),
    ]
    if adversarial:
        sources.append(st.just(("--adversarial",)))
    return st.one_of(sources).map(list)


TRACE_FLAGS = {"--t": SMALL, "--kmax": SMALL, "--threshold": SMALL}
ARGV = st.one_of(
    _command(st.just(["valuation"]), RATIONALS.map(lambda v: [v]),
             _flags({"--prime": PRIMES}, {"--digits": SMALL})),
    _command(st.just(["freq"]), _sources(), _flags(
        {"--labels": st.sampled_from(["0", "1", "2", "12"]), "--prime": PRIMES, "--scheme": SCHEMES},
        {"--given": st.sampled_from(["1", "12", "2"]), "--kmax": SMALL, "--window": SMALL,
         "--threshold": SMALL, "--topology": st.sampled_from(["padic", "real"])},
    )),
    _command(st.just(["thm31"]), _flags(
        {"--prime": PRIMES, "--m": SMALL, "--r": SMALL, "--l": SMALL},
        dict(TRACE_FLAGS, **{"--scheme": SCHEMES}),
    )),
    _command(st.just(["eq5"]), _flags({"--prime": PRIMES}, TRACE_FLAGS)),
    _command(st.just(["thm32"]), _flags({"--prime": PRIMES, "--r": SMALL, "--l": SMALL}, TRACE_FLAGS)),
    _command(st.just(["lln"]), _flags(
        {"--prime": PRIMES, "--scheme": SCHEMES},
        {"--q": RATIONALS, "--mmax": SMALL, "--kmax": SMALL, "--threshold": SMALL},
    )),
    _command(st.just(["clt"]), _flags({}, {"--a": RATIONALS, "--order": SMALL, "--prime": PRIMES})),
    _command(st.just(["mahler"]), st.sampled_from([[], ["--clt-check"]]), _flags(
        {"--prime": PRIMES},
        {"--q": RATIONALS, "--a": RATIONALS, "--mmax": SMALL, "--n": SMALL, "--count": SMALL},
    )),
    _command(st.just(["integrate"]), _flags({"--q": SMALL, "--prime": PRIMES}, {"--depth": SMALL})),
    _command(st.just(["test"]), _sources(adversarial=True), _flags(
        {"--prime": PRIMES, "--l": SMALL, "--r": SMALL, "--scheme": SCHEMES, "--eps-exp": SMALL,
         "--kmax": SMALL},
        {"--kmin": SMALL, "--mode": st.sampled_from(["sphere", "residue"])},
    )),
)


@pytest.fixture(scope="module")
def bits_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "bits.txt"
    path.write_text("0110" * 100)
    return str(path)


@settings(max_examples=400, deadline=None)
@given(ARGV)
def test_exit_contract(bits_file, argv):
    # every outcome is a documented exit code, and a refused run writes no report
    argv = [tok.replace(BITS, bits_file) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused the list
            assert exc.code == 2
            return
    assert rc in EXIT_CODES.values()
    if rc:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("error: ")


# Every subcommand in both formats, with its guard exits: the exit code and
# the SHA-256 of stdout, recorded before the report writers were merged.
# The benchmark-sized clt and mahler --clt-check cases were recorded on the
# cubic series routes, before the quadratic series kernels replaced them.
GOLDEN = [
    ("valuation 12 --prime 3", "csv", 0, "3ef99c0cf1a061f21bac9a397ffb06282bdd94a1a791dadc51651459f4b90b41"),
    ("valuation 12 --prime 3", "json", 0, "3f57de177e78d1fa0d304905bdbd115512419a51af58c3744b1acf2c4f7bdb03"),
    ("valuation 5/16 --prime 2", "csv", 0, "f0bd24cff42ed899124055a6aba64535150654950a349881f411f0b1da13a699"),
    ("valuation 5/16 --prime 2", "json", 0, "bedfe31f426874decf02d2a4619097e2008d5597efa2105a0640d1f8f223e95c"),
    ("valuation 0 --prime 3", "csv", 0, "b2eddc8d9c11aa3ea4eb9ee6847b7777e9448e2062b952086ee52acdef69c154"),
    ("valuation 0 --prime 3", "json", 0, "4c0ed5226988173e9bd7d384fdccbedd214f8280bb607d18f7b618705da58fe0"),
    ("valuation 12 --prime 9", "csv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valuation 12 --prime 9", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme 1+p^k --kmax 6", "csv", 0, "ff02978a6900dbb7a7b02fa0fe19eb20649b4154f7420705c43eceebf2256ce3"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme 1+p^k --kmax 6", "json", 0, "2cafebcd9c918aa32c54c76256b6f37c0190a9231e5754612e82c4a463e303f5"),
    ("freq --periodic 0120 --labels 1 --given 12 --prime 3 --scheme 1+p^k --kmax 5", "csv", 0, "f6f893a7efa9f954b4bb4d34c931257ac2ddc75f4204c0a7dfb3583310ba2f31"),
    ("freq --periodic 0120 --labels 1 --given 12 --prime 3 --scheme 1+p^k --kmax 5", "json", 0, "8b4d88246c463dfd101c1cb6a709e7f26b5e5b3c287221a99b760ae32527bfb9"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme 1+p^k --kmax 6 --topology real", "csv", 0, "e7137c535625441ac009a9cf2cfc0300cb0ddee553e933aa80449b4cc6381713"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme 1+p^k --kmax 6 --topology real", "json", 0, "6ce72d7db4c5c3bb7dad98b15fcb379e3bfa4e668edd69cd6faaaba2cd7f5b4d"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme 1+p^k --kmax 6 --topology real --threshold 0", "csv", 0, "e7137c535625441ac009a9cf2cfc0300cb0ddee553e933aa80449b4cc6381713"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme 1+p^k --kmax 6 --topology real --threshold 0", "json", 0, "c6fd5eebba2261a1b781073419a289f803a36a20a3aaf71cbc276a35d0730370"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme trunc(-1) --kmax 6", "csv", 0, "14af4669b8fcf069b8d3e16d7aa4caaecba45606cdc5a962d8aa26010dfd135b"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme trunc(-1) --kmax 6", "json", 0, "feff75b3e670c0ea961b386964e3e381dd31e6e6db5ba851c63dbf47c0eabe4e"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme trunc(-1) --kmax 8 --threshold 2", "csv", 0, "c4307aefdba5c924bb0e4a0e136e9009a7e0030cf72e336ba74bade974bbe1c1"),
    ("freq --periodic 011 --labels 1 --prime 3 --scheme trunc(-1) --kmax 8 --threshold 2", "json", 0, "022e6c1ba6cf0ae66931458e64c232089746553ea0516988e86ed743ce47fcc4"),
    ("freq --random-bits 7 --labels 1 --prime 3 --scheme 1+p^k --kmax 6", "csv", 0, "b5ee02593e256880999f004923c7430046e8a777f116d8a4c2d2a0ed4ea1404a"),
    ("freq --random-bits 7 --labels 1 --prime 3 --scheme 1+p^k --kmax 6", "json", 0, "9f816120f6c376f087e8b4f67d3e46ab02b9a793f67782756aaf76d389ea98be"),
    ("freq --periodic 0 --labels 1 --prime 3 --scheme 1+p^k --kmax 5", "csv", 0, "533ded7dc5b29fb9166e23d2cf6f46ee803e2ebab073488c7d373c9cf3b0d7a8"),
    ("freq --periodic 0 --labels 1 --prime 3 --scheme 1+p^k --kmax 5", "json", 0, "160a9ef336320bb152fb88b926d5605f646304f2b252057fd75c6b783147eca1"),
    ("freq --periodic 01 --labels 1 --prime 3 --scheme 18+p^k --kmax 2 --window 1 --threshold -5", "csv", 0, "0099c9913c21a8701314c6ba7f1d6f70c4421b8642c2c26433c1bf26287e764d"),
    ("freq --periodic 01 --labels 1 --prime 3 --scheme 18+p^k --kmax 2 --window 1 --threshold -5", "json", 0, "daeb413d3ac08a618b287e95fdb95313ff12e1b335da36465474a981caa04467"),
    ("freq --periodic 01 --labels 2 --prime 3 --scheme 1+p^k --kmax 3", "csv", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 2 --prime 3 --scheme 1+p^k --kmax 3", "json", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 1 --given 2 --prime 3 --scheme 1+p^k --kmax 3", "csv", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 1 --given 2 --prime 3 --scheme 1+p^k --kmax 3", "json", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 2 --prime 3 --scheme 1+p^k", "csv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 2 --prime 3 --scheme 1+p^k", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 1 --given 1 --prime 3 --scheme list:1,2,3,4", "csv", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("freq --periodic 01 --labels 1 --given 1 --prime 3 --scheme list:1,2,3,4", "json", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm31 --prime 3 --m 2 --r 1 --l 1", "csv", 0, "64267da11c4e04194834730661625fab7c6845d2f8248351cb8a7fd64ebcdba2"),
    ("thm31 --prime 3 --m 2 --r 1 --l 1", "json", 0, "01919e65130841f5bc4978d426b5943283f46569958ac01368c3a776c6fe856b"),
    ("thm31 --prime 5 --m 3 --r 2 --l 1 --kmax 4 --scheme 3+2*p^k", "csv", 0, "6c4cbec1760ed5356482de217f596b5391ff85f5ac2877ddc95bfdc48014f2fe"),
    ("thm31 --prime 5 --m 3 --r 2 --l 1 --kmax 4 --scheme 3+2*p^k", "json", 0, "fbfe62fb12dea8d70eed6028b0bb610092ea77ac887802defda449a45b4a423a"),
    ("thm31 --prime 3 --m 2 --r 1 --l 0", "csv", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm31 --prime 3 --m 2 --r 1 --l 0", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm31 --prime 3 --m 2 --r 3 --l 1", "csv", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm31 --prime 3 --m 2 --r 3 --l 1", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eq5 --prime 3", "csv", 0, "30cac95c8b501ec31a90f53ceb59b21a6642c55dc8a910cdc21142f624e2a2ef"),
    ("eq5 --prime 3", "json", 0, "75b4c5a941ea61f587e7c70eda23470344a558402cdf814f2c616d6781fd3dfe"),
    ("eq5 --prime 5 --kmax 3 --t 2", "csv", 0, "f63c1154ae475a84150178ce310e3fc065eae2764d34eee4b50a0f3bcd5e19e6"),
    ("eq5 --prime 5 --kmax 3 --t 2", "json", 0, "1608d69648db944704f191c2a6429d505f3f75953ac8b10cd7ed99274c9724ab"),
    ("thm32 --prime 3 --r 1 --l 1 --kmax 5", "csv", 0, "9cc32568654814cd5d0c9f26a33ecc95e49d058ec6c26107b3252a1c01feeac4"),
    ("thm32 --prime 3 --r 1 --l 1 --kmax 5", "json", 0, "4a3322b613e5b9e31e5fc4c8eaf6338d1886a00cb5dba38ee3bdcffe0773d681"),
    ("thm32 --prime 3 --r 0 --l 2 --kmax 5", "csv", 0, "55b76fad010b25839e0f11c2086fae5548c9e2e33970d16a7efba49ec406ddc8"),
    ("thm32 --prime 3 --r 0 --l 2 --kmax 5", "json", 0, "79081aed2da17a405cb52cdfd1bff9cc3b452953d7a64992b5972ddc9ad92c51"),
    ("thm32 --prime 5 --r 5 --l 2 --kmax 3", "csv", 0, "f70f7fb04067260c4304562d0b56269538e2615115fbfa481176c6b5e8695bd8"),
    ("thm32 --prime 5 --r 5 --l 2 --kmax 3", "json", 0, "9d2007aeb3f14bcb5ee4c202f5329bcb5eb57309e2d6a0e120afd27dbacc6d5e"),
    ("thm32 --prime 3 --r 0 --l 1", "csv", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm32 --prime 3 --r 0 --l 1", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm32 --prime 3 --r 4 --l 2", "csv", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("thm32 --prime 3 --r 4 --l 2", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("lln --prime 3 --scheme trunc(-1) --mmax 2 --kmax 4", "csv", 0, "94c892d7c105a2d057dbf8945124b9141bad94caea95ac57264619f3e580e63d"),
    ("lln --prime 3 --scheme trunc(-1) --mmax 2 --kmax 4", "json", 0, "1d6438e6f286b8c4d5d1382deb00c9c55afec3b7dc8c9a81c04764b6793cd035"),
    ("lln --prime 5 --q 1/3 --scheme 2+p^k --mmax 3 --kmax 5", "csv", 0, "a6f8bc08ba2dd4c356e5eaf2c4392577abee8c5d58c8f2236a151b689eb06db1"),
    ("lln --prime 5 --q 1/3 --scheme 2+p^k --mmax 3 --kmax 5", "json", 0, "dda70d206c00fe4f054d765ed411cd6eba68bf2481f7c0c5dc6dc0f90dcbdf34"),
    ("clt", "csv", 0, "37222816fd684c79e3cb1aea1a987c97fc76ee7a3fb43b2e86918860e3f79d3f"),
    ("clt", "json", 0, "b18624561e4275f08ab8bcd6713f4c33a32e44f9b5f236c6e53ec5d5d51a9d31"),
    ("clt --a 1/2 --prime 3 --order 6", "csv", 0, "5c5486801536cfe0ac94d9f205642695b04d77c52559a0b9d56f0add0267af54"),
    ("clt --a 1/2 --prime 3 --order 6", "json", 0, "f8d31e3fd9b0b192de92d7af3f1686a810c29dde39d62fed7dbecfb6d8012b2b"),
    ("clt --a 1/3 --prime 3", "csv", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("clt --a 1/3 --prime 3", "json", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("clt --a 1/2 --order 30 --prime 3", "csv", 0, "528ddda8e86ddc883978f3ce41ab5dec2ded5f463ae8f6d16cf1dd61f436f4e0"),
    ("clt --a 1/2 --order 30 --prime 3", "json", 0, "7b470fe65f52ce50a9b55513f8dffeca5c7dd417cce488cd97385a9ed6715503"),
    ("clt --a 3 --order 30", "csv", 0, "6df7d9221e9b4e329973f20170d2e1af80869671ad15c6f134d19ce58f53ca23"),
    ("clt --a 3 --order 30", "json", 0, "c0a7ad159dede5df09add8c1c9b320dddaf2bc3dc52bca5fbef081b39a6de591"),
    ("mahler --prime 3 --mmax 3 --n 4", "csv", 0, "b6520fc0f4b9d582758e1e3f372aafdd9d4204131c24578b10b5e55df9dd8bc2"),
    ("mahler --prime 3 --mmax 3 --n 4", "json", 0, "2ce4cec5a88f4495592e8e8d833d2e00728a0f5836ad90d30fc2f800ca3dfde4"),
    ("mahler --prime 5 --q 1/3 --a 7 --mmax 4", "csv", 0, "8eaaf6a367faf5806d55455d71edf0dff6883b7a13d1a6674f9031eb270ecf08"),
    ("mahler --prime 5 --q 1/3 --a 7 --mmax 4", "json", 0, "18008604f727b7de28f5d79113104fb913bafee07f01e849bf624e9eeeacd1a3"),
    ("mahler --prime 3 --clt-check --count 6", "csv", 0, "61bb26465d6be10fb70d5d3ca8ece88fb5f7bfb1417b148132cdb7119491d6f5"),
    ("mahler --prime 3 --clt-check --count 6", "json", 0, "5e0d217836e3859a1ec5cecb4b97d84d0c7dfb26347268217a97f5fd1f04fe4d"),
    ("mahler --prime 3 --clt-check --a 2 --count 8", "csv", 0, "50955ba5955dd3db5b8591d6ebce5268f0e48f9b50f4b22d75d838d7c20791f4"),
    ("mahler --prime 3 --clt-check --a 2 --count 8", "json", 0, "79578d3f37943358b7b2656f3a12a1ee9b7f9cfa7a85a858a00fd58bc5208e1f"),
    ("mahler --prime 2 --clt-check", "csv", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mahler --prime 2 --clt-check", "json", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mahler --prime 3 --clt-check --count 70", "csv", 0, "9f1bff9b36245cbdf45cd84be66028542f9ae180f5e10c071f6003c6a25b7f86"),
    ("mahler --prime 3 --clt-check --count 70", "json", 0, "f987c762bda0542d394a9a8ea2d14403e967da8e02a1049b82f3d1f93cf01adb"),
    ("mahler --prime 5 --clt-check --count 40 --a 1/2", "csv", 0, "d6f221dd58e53d7711056b03183d762e1d41b726d8c16fdf22c806d86c63c1ba"),
    ("mahler --prime 5 --clt-check --count 40 --a 1/2", "json", 0, "fbc176d67f0add7be65945109aad4635019c1d44e633e264415d34269e023800"),
    ("integrate --q 2 --prime 3 --depth 6", "csv", 0, "83b20481191aca59de7685b3ff582a245b02f8e8737f479ed765d8c54bfb14b1"),
    ("integrate --q 2 --prime 3 --depth 6", "json", 0, "4281c796359760030e421451b4838ce9d59e6ac69024fe6c42aa0c6cb4c4eb29"),
    ("integrate --q 4 --prime 3", "csv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("integrate --q 4 --prime 3", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("integrate --q 3 --prime 3", "csv", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("integrate --q 3 --prime 3", "json", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test --adversarial --prime 3 --l 1 --r 0 --scheme 1+p^k --eps-exp 2 --kmax 6", "csv", 0, "4f742cac6b965927243c766357bdbc84d499f9edeb8663dd3d6e1b1d2aa6bee1"),
    ("test --adversarial --prime 3 --l 1 --r 0 --scheme 1+p^k --eps-exp 2 --kmax 6", "json", 0, "5fa9692bba47b53406dffb0d57f45a796ed06ebdb9ae31ef1a9618323d1f46a1"),
    ("test --adversarial --prime 3 --l 2 --r 1 --scheme 1+p^k --eps-exp 1 --kmax 6 --mode residue", "csv", 0, "bbc80afb639da2a16fce409289c9c1c8dc76cab395551eca746fc8142cf5d9ac"),
    ("test --adversarial --prime 3 --l 2 --r 1 --scheme 1+p^k --eps-exp 1 --kmax 6 --mode residue", "json", 0, "b32392062809ed168282e1609eb4db40449f35d14f61ab74eb13d2f317cc4a76"),
    ("test --random-bits 3 --prime 3 --l 1 --r 0 --scheme 1+p^k --eps-exp 2 --kmax 6 --kmin 2", "csv", 0, "e6d021fafac484d3dc15199c70e8c9bfb9458912a32b5143a03459a022a04fd4"),
    ("test --random-bits 3 --prime 3 --l 1 --r 0 --scheme 1+p^k --eps-exp 2 --kmax 6 --kmin 2", "json", 0, "75d5e5116ac00b07f67461ca18145700db0ac83453faa8cafbb4ad660d7fa539"),
    ("test --periodic 0 --prime 3 --l 1 --r 0 --scheme 1+p^k --eps-exp 10 --kmax 6", "csv", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test --periodic 0 --prime 3 --l 1 --r 0 --scheme 1+p^k --eps-exp 10 --kmax 6", "json", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "argv,fmt,code,digest", GOLDEN, ids=[f"{a}|{f}" for a, f, _, _ in GOLDEN]
)
def test_golden_stdout(capsys, monkeypatch, argv, fmt, code, digest):
    monkeypatch.delenv("PADICPROB_PRECISION", raising=False)
    rc, out, _ = run(capsys, argv.split() + ["--format", fmt])
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
