"""End-to-end command line tests driven through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

import padicprob
from padicprob.cli import EXIT_CODES, main
from padicprob.limits import binomial_ball_trace
from padicprob.padic import DEFAULT_PRECISION, to_approx


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
            expected = list(binomial_ball_trace(3, 2, 1, 1, kmax=9).csv_lines())
        finally:
            sys.set_int_max_str_digits(old)
        assert rc == 0
        assert out.splitlines() == expected
        assert len(expected[-1].split(",")[3]) > 5000  # the last denominator

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


ADVERSARIAL = [
    "test", "--adversarial", "--prime", "3", "--l", "1", "--r", "0",
    "--scheme", "1+p^k", "--eps-exp", "2", "--kmax", "6",
]


class TestRandomness:
    def test_adversarial_rows(self, capsys):
        rc, out, err = run(capsys, ADVERSARIAL)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k,N_k,S,hit,prob_num,prob_den,vp_prob"
        assert lines[1] == "1,4,3,1,1,4,0"
        assert lines[2] == "2,10,3,1,165,512,1"
        assert len(lines) == 7
        assert "test: PersistentHit (k_eps=4, first_hit_k=4)" in err

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

    def test_seeded_source_is_deterministic(self, capsys):
        argv = ["freq", "--random-bits", "7", "--labels", "1", "--prime", "3",
                "--scheme", "1+p^k", "--kmax", "6"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "report.csv"
        rc, out, _ = run(capsys, ["valuation", "12", "--prime", "3", "--output", str(dest)])
        assert rc == 0
        assert out == ""
        assert dest.read_text().splitlines()[1] == "12,3,1,1/3"

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
