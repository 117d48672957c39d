"""CLI contract: flags, exit codes, output schemas, byte stability."""

import csv
import io
import json

import pytest

from bfoutage import verification
from bfoutage.channel import RngStream
from bfoutage.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, db_to_linear, main
from bfoutage.codebook import rvq_generate, save_codebook

OUTAGE_HEADER = "axis,value,scheme,evaluator,p_out,std_err,flags"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestDbConversion:
    def test_zero_db(self):
        assert db_to_linear(0.0) == 1.0

    def test_ten_db(self):
        assert db_to_linear(10.0) == 10.0


class TestAnalytic:
    def test_closed_and_quadrature_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--scheme", "miso-tas", "--nt", "4", "--rate", "2",
            "--snr-db", "10", "--rho", "0.9", "--eval", "closed,quadrature",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == OUTAGE_HEADER
        rows = parse_csv(out)
        assert [r["evaluator"] for r in rows] == ["closed_form", "quadrature"]
        assert abs(float(rows[0]["p_out"]) - float(rows[1]["p_out"])) < 1e-6

    def test_mc_evaluator(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--rho", "1.0",
            "--eval", "mc", "--trials", "50000", "--seed", "7",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert row["evaluator"] == "monte_carlo"
        assert float(row["std_err"]) > 0

    def test_unknown_evaluator(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--rho", "0.9", "--eval", "magic",
        )
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_evaluator_named_twice_is_usage(self, capsys):
        for command, evals in (("analytic", "mc,mc"), ("sweep", "closed,closed"),
                               ("sweep", "closed,mc,mc")):
            argv = [command, "--scheme", "miso-pbf", "--rho", "0.9", "--eval", evals,
                    "--trials", "1000", "--seed", "1"]
            if command == "sweep":
                argv += ["--axis", "snr-db", "--values", "5,10"]
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE
            assert out == ""
            assert "named twice" in err

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--rho", "0.9",
            "--eval", "closed", "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert set(rows[0]) == set(OUTAGE_HEADER.split(","))


class TestSimulate:
    def test_gamma_oracle_at_no_delay(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "miso-pbf", "--nt", "4", "--rate", "2",
            "--snr-db", "10", "--rho", "1.0", "--trials", "1000000", "--seed", "7",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        from scipy.special import gammainc

        expected = float(gammainc(4, 3 * 4 / 10.0))
        assert abs(float(row["p_out"]) - expected) <= 3 * float(row["std_err"])

    def test_seed_required(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scheme", "miso-pbf", "--rho", "0.9", "--trials", "1000",
        )
        assert code == EXIT_USAGE
        assert "--seed" in err

    def test_fixed_codebook_file(self, capsys, tmp_path):
        path = tmp_path / "cb.txt"
        save_codebook(rvq_generate(RngStream(3), 8, 4), path)
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "miso-rvq", "--rho", "0.9",
            "--trials", "20000", "--seed", "5", "--codebook", str(path),
        )
        assert code == EXIT_OK
        assert 0.0 <= float(parse_csv(out)[0]["p_out"]) <= 1.0

    def test_codebook_file_without_codebook_scheme_is_usage(self, capsys, tmp_path):
        valid = tmp_path / "cb.txt"
        save_codebook(rvq_generate(RngStream(3), 8, 4), valid)
        for path in (tmp_path / "missing.txt", valid):
            code, out, err = run_cli(
                capsys, "simulate", "--scheme", "miso-tas", "--rho", "0.9",
                "--trials", "100", "--seed", "1", "--codebook", str(path),
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert "--codebook" in err and "miso-tas" in err

    def test_nonfinite_codebook_file_is_usage(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("RVQ 2 2\nnan,0 0.0,0.0\n0.0,0.0 1.0,0.0\n")
        code, out, err = run_cli(
            capsys, "simulate", "--scheme", "miso-rvq", "--nt", "2", "--snr-db", "10",
            "--rho", "0.9", "--trials", "1000", "--seed", "1", "--codebook", str(path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    def test_missing_codebook_file_for_rvq_is_usage(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "miso-rvq", "--rho", "0.9",
            "--trials", "100", "--seed", "1", "--codebook", str(tmp_path / "missing.txt"),
        )
        assert code == EXIT_USAGE
        assert out == ""


class TestSweep:
    def test_tidy_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "miso-rvq", "--axis", "codebook-size",
            "--values", "1,8,64", "--rho", "0.9", "--eval", "closed",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["value"] for r in rows] == ["1", "8", "64"]
        vals = [float(r["p_out"]) for r in rows]
        assert vals[0] > vals[1] > vals[2]

    def test_mc_rows_interleave_in_value_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "miso-tas", "--axis", "rho",
            "--values", "0.8,1.0", "--eval", "closed,mc",
            "--trials", "20000", "--seed", "9",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [(r["value"], r["evaluator"]) for r in rows] == [
            ("0.8", "closed_form"), ("0.8", "monte_carlo"),
            ("1.0", "closed_form"), ("1.0", "monte_carlo"),
        ]

    def test_rows_keep_request_order_with_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "miso-tas", "--axis", "snr-db",
            "--values", "5,10", "--rho", "0.9", "--eval", "quadrature,closed,mc",
            "--trials", "2000", "--seed", "9",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [(r["value"], r["evaluator"]) for r in rows] == [
            (value, ev) for value in ("5.0", "10.0")
            for ev in ("quadrature", "closed_form", "monte_carlo")
        ]

    def test_repeated_value_gets_its_own_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "miso-tas", "--axis", "snr-db",
            "--values", "5,5", "--rho", "0.9", "--eval", "closed,mc",
            "--trials", "2000", "--seed", "9",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["evaluator"] for r in rows] == ["closed_form", "monte_carlo"] * 2
        # each value is its own Monte Carlo point, on its own streams
        assert rows[1]["p_out"] != rows[3]["p_out"]

    def test_fractional_count_is_usage(self, capsys):
        for scheme, axis, values in (("mu-tas", "users", "2.7,3"),
                                     ("miso-rvq", "codebook-size", "8,1.5")):
            code, out, err = run_cli(
                capsys, "sweep", "--scheme", scheme, "--axis", axis, "--values", values,
                "--rho", "0.9", "--eval", "closed",
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert "whole numbers" in err

    def test_codebook_size_sweep_ignores_the_template_size(self, capsys):
        # each value draws its own codebook, so --codebook-size plays no part
        outputs = []
        for size in ("0", "8"):
            code, out, _ = run_cli(
                capsys, "sweep", "--scheme", "miso-rvq", "--axis", "codebook-size",
                "--values", "1,8", "--codebook-size", size, "--rho", "0.9",
                "--eval", "closed,mc", "--trials", "100", "--seed", "1",
            )
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestCodebookSizeCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "codebook-size", "--targets", "0.1", "--rho-values", "0.99,0.98",
            "--snr-db", "15",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0]["attainable"] == "true"
        assert int(rows[0]["min_size"]) <= int(rows[1]["min_size"])


class TestDiversityCommand:
    def test_slope_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "diversity", "--scheme", "miso-tas", "--rho-values", "0.9",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert 0.85 <= float(row["slope"]) <= 1.15

    @pytest.mark.parametrize("args", [
        ("--rho-values", "0.9", "--grid-db", "40,40"),
        ("--rho-values", "0.9", "--grid-db", "40"),
        ("--rho-values", ","),
    ])
    def test_degenerate_list_is_usage(self, capsys, args):
        code, out, err = run_cli(capsys, "diversity", "--scheme", "miso-pbf", *args)
        assert code == EXIT_USAGE
        assert out == ""
        assert args[-2] in err


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--scheme", "miso-pbf", "--wat")
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_unknown_scheme_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "analytic", "--scheme", "nope", "--rho", "0.9")
        assert code == EXIT_USAGE

    def test_persistence_required(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--scheme", "miso-pbf")
        assert code == EXIT_USAGE
        assert "persistence" in err

    def test_beyond_first_zero_is_usage(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf",
            "--doppler-hz", "100", "--delay-s", "0.005",
        )
        assert code == EXIT_USAGE
        assert "first zero" in err

    def test_numeric_error_exit(self, capsys):
        # at 900 dB the quadrature underflows to 0 (beta ~ 6e-89) and raises
        code, _, err = run_cli(
            capsys, "diversity", "--scheme", "mu-pbf", "--nu", "2",
            "--rho-values", "0.9", "--grid-db", "900,1000",
        )
        assert code == EXIT_NUMERIC
        assert "numeric error" in err
        assert "underflowed" in err

    def test_quadrature_underflow_is_numeric(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--rho", "0.9999999",
            "--snr-db", "60", "--eval", "closed,quadrature",
        )
        assert code == EXIT_NUMERIC
        assert "underflowed" in err

    def test_rvq_density_mass_is_numeric(self, capsys):
        # 128 captured-fraction nodes miss 12% of the density's mass here
        code, _, err = run_cli(
            capsys, "analytic", "--scheme", "miso-rvq", "--nt", "2",
            "--codebook-size", "16384", "--rho", "0.9", "--eval", "closed",
        )
        assert code == EXIT_NUMERIC
        assert "numeric error" in err
        assert "density mass" in err

    def test_capability_limit_is_numeric(self, capsys):
        # 32 users need expansion degree 66, beyond the supported 64
        code, _, err = run_cli(
            capsys, "analytic", "--scheme", "mu-pbf", "--nt", "4", "--nu", "32",
            "--rho", "0.9", "--eval", "closed",
        )
        assert code == EXIT_NUMERIC
        assert "degree 66" in err


class TestConfigFile:
    def test_flags_win_over_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# experiment defaults\nnt=2\nrho=0.8\nsnr_db=5\n")
        code, out, _ = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--config", str(conf),
            "--snr-db", "10", "--eval", "closed",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert row["value"] == "10.0"  # flag beat the file
        # and the file supplied nt=2, rho=0.8
        code2, out2, _ = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--nt", "2", "--rho", "0.8",
            "--snr-db", "10", "--eval", "closed",
        )
        assert parse_csv(out2)[0]["p_out"] == row["p_out"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("wibble=3\n")
        code, _, err = run_cli(
            capsys, "analytic", "--scheme", "miso-pbf", "--config", str(conf),
        )
        assert code == EXIT_USAGE
        assert "wibble" in err


class TestByteStability:
    def test_csv_reruns_identical(self, tmp_path):
        args = [
            "sweep", "--scheme", "miso-rvq", "--axis", "snr-db",
            "--values", "5,10,15", "--rho", "0.9", "--eval", "closed,quadrature,mc",
            "--trials", "30000", "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_analytic_is_one_value_sweep(self, capsys):
        common = ["--scheme", "miso-rvq", "--nt", "2", "--rho", "0.9", "--codebook-size", "4",
                  "--eval", "closed,quadrature,mc", "--trials", "20000", "--seed", "17"]
        single = run_cli(capsys, "analytic", "--snr-db", "7.5", *common)
        swept = run_cli(capsys, "sweep", "--axis", "snr-db", "--values", "7.5", *common)
        assert single[0] == EXIT_OK
        assert single == swept

    def test_simulate_is_analytic_mc(self, capsys):
        common = ["--scheme", "mu-rvq", "--nu", "2", "--rho", "0.9", "--snr-db", "5",
                  "--trials", "20000", "--seed", "19", "--chunk", "6000"]
        simulated = run_cli(capsys, "simulate", *common)
        analytic = run_cli(capsys, "analytic", "--eval", "mc", *common)
        assert simulated[0] == EXIT_OK
        assert simulated == analytic

    def test_workers_do_not_change_output(self, tmp_path):
        base = [
            "simulate", "--scheme", "mu-tas", "--nr", "2", "--nu", "2",
            "--rho", "0.9", "--trials", "100000", "--seed", "13",
        ]
        a, b = tmp_path / "w1.csv", tmp_path / "w16.csv"
        assert main(base + ["--workers", "1", "--output", str(a)]) == EXIT_OK
        assert main(base + ["--workers", "16", "--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_exit_three_with_only_documented_failures(self, capsys):
        # small trial count keeps this quick; every check passes, including
        # the single-user reductions of the dual multiuser PBF/RVQ forms
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "50000", "--seed", "20260810", "--workers", "4",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert not [l for l in lines if l.startswith("FAIL")]
        for check in ("reduction mu-pbf(n_u=1)", "reduction mu-rvq(n_u=1)"):
            assert any(l.startswith("PASS") and check in l for l in lines)

    def test_failing_check_exits_three(self, capsys, monkeypatch):
        failing = verification.CheckResult(name="stub check", passed=False, detail="gap=1")
        monkeypatch.setattr(verification, "run_all", lambda **kwargs: [failing])
        code, out, _ = run_cli(capsys, "verify", "--trials", "1000", "--seed", "1")
        assert code == EXIT_VERIFY
        assert "FAIL  stub check  [gap=1]" in out.splitlines()
        assert "0/1 checks passed" in out
