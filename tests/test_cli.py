"""CLI contract: flags, exit codes, output schemas, byte stability."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bfoutage import analytic, verification
from bfoutage.analytic import SchemeId, outage_rvq_closed, outage_tas_closed
from bfoutage.channel import RngStream
from bfoutage.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, db_to_linear, main
from bfoutage.codebook import rvq_generate, save_codebook
from bfoutage.montecarlo import TrialPlan, simulate_outage

from _util import cfg

OUTAGE_HEADER = "axis,value,scheme,evaluator,p_out,std_err,flags"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


#: Runs CLI commands in order in one fresh interpreter and prints, per step,
#: its exit code, stdout and whether scipy.special was loaded after it.
COLD_START_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    import bfoutage, bfoutage.cli
    steps = {"import": {"scipy": "scipy.special" in sys.modules}}
    for name, argv in json.loads(sys.argv[1]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = bfoutage.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        steps[name] = {"code": code, "out": out.getvalue(), "scipy": "scipy.special" in sys.modules}
    print(json.dumps(steps))
""")
COLD_START_STEPS = [
    ("help", ["--help"]),
    ("simulate", ["simulate", "--scheme", "miso-pbf", "--rho", "0.9", "--trials", "2000",
                  "--seed", "5"]),
    ("analytic", ["analytic", "--scheme", "miso-tas", "--rho", "0.9",
                  "--eval", "closed,quadrature"]),
    ("jakes", ["simulate", "--scheme", "miso-pbf", "--doppler-hz", "10", "--delay-s", "0.005",
               "--trials", "2000", "--seed", "5"]),
]


#: sweep flags -> the CSV of `sweep` with SWEEP_GOLDEN_MC, one axis each:
#: three chunks per value, so the streams of every value's Monte Carlo point
#: are pinned byte for byte
SWEEP_GOLDEN_MC = ("--eval", "closed,mc", "--trials", "20000", "--seed", "7", "--chunk", "8192")
SWEEP_GOLDEN = {
    "--scheme miso-pbf --axis snr-db --values 0,5,10 --rho 0.9": (
        "axis,value,scheme,evaluator,p_out,std_err,flags\n"
        "snr_db,0.0,miso-pbf,closed_form,0.9985796866931869,0.0,coefficient-corrected\n"
        "snr_db,0.0,miso-pbf,monte_carlo,0.99865,0.0002596321917636527,\n"
        "snr_db,5.0,miso-pbf,closed_form,0.6373048050616227,0.0,coefficient-corrected\n"
        "snr_db,5.0,miso-pbf,monte_carlo,0.6378,0.0033986111869409243,\n"
        "snr_db,10.0,miso-pbf,closed_form,0.09740372470677859,0.0,coefficient-corrected\n"
        "snr_db,10.0,miso-pbf,monte_carlo,0.0968,0.002090810369210943,\n"
    ),
    "--scheme miso-tas --axis rho --values 0.5,0.9,1 --snr-db 10": (
        "axis,value,scheme,evaluator,p_out,std_err,flags\n"
        "rho,0.5,miso-tas,closed_form,0.5983165610238099,0.0,exponent-corrected\n"
        "rho,0.5,miso-tas,monte_carlo,0.60655,0.003454324083666731,\n"
        "rho,0.9,miso-tas,closed_form,0.3461928506806874,0.0,exponent-corrected\n"
        "rho,0.9,miso-tas,monte_carlo,0.3461,0.003363887557573826,\n"
        "rho,1.0,miso-tas,closed_form,0.23846572934751645,0.0,\n"
        "rho,1.0,miso-tas,monte_carlo,0.23605,0.00300275205020328,\n"
    ),
    "--scheme miso-rvq --axis codebook-size --values 1,4,16 --rho 0.9": (
        "axis,value,scheme,evaluator,p_out,std_err,flags\n"
        "codebook_size,1,miso-rvq,closed_form,0.6988057880878031,0.0,coefficient-corrected\n"
        "codebook_size,1,miso-rvq,monte_carlo,0.69585,0.0032530199622812033,\n"
        "codebook_size,4,miso-rvq,closed_form,0.419521472342531,0.0,coefficient-corrected\n"
        "codebook_size,4,miso-rvq,monte_carlo,0.4201,0.0034901002134609263,\n"
        "codebook_size,16,miso-rvq,closed_form,0.24352870521554087,0.0,coefficient-corrected\n"
        "codebook_size,16,miso-rvq,monte_carlo,0.2442,0.003037814675058372,\n"
    ),
    "--scheme mu-rvq --axis users --values 1,2,4 --rho 0.9 --codebook-size 8": (
        "axis,value,scheme,evaluator,p_out,std_err,flags\n"
        "users,1,mu-rvq,closed_form,0.135689587312447,0.0,selection-delay-dual\n"
        "users,1,mu-rvq,monte_carlo,0.1367,0.0024291264890902655,\n"
        "users,2,mu-rvq,closed_form,0.06357848811873476,0.0,selection-delay-dual\n"
        "users,2,mu-rvq,monte_carlo,0.06105,0.0016929692480963734,\n"
        "users,4,mu-rvq,closed_form,0.028739687155990477,0.0,selection-delay-dual\n"
        "users,4,mu-rvq,monte_carlo,0.0291,0.0011885535326606035,\n"
    ),
}


class TestColdStart:
    """Only the commands that evaluate a special function load scipy.special;
    the others start without it, and no output changes either way."""

    def test_scipy_special_loads_on_first_special_function(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_CHILD, json.dumps(COLD_START_STEPS)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout)
        assert [(name, step["scipy"]) for name, step in steps.items()] == [
            ("import", False), ("help", False), ("simulate", False),
            ("analytic", True), ("jakes", True),
        ]
        assert steps["help"]["code"] == EXIT_OK and steps["help"]["out"].startswith("usage: bfoutage")
        assert (steps["simulate"]["code"], steps["simulate"]["out"]) == (EXIT_OK, (
            OUTAGE_HEADER + "\n"
            "snr_db,10.0,miso-pbf,monte_carlo,0.109,0.006968464680257768,\n"))
        assert (steps["analytic"]["code"], steps["analytic"]["out"]) == (EXIT_OK, (
            OUTAGE_HEADER + "\n"
            "snr_db,10.0,miso-tas,closed_form,0.3461928506806874,0.0,exponent-corrected\n"
            "snr_db,10.0,miso-tas,quadrature,0.34619285068068406,0.0,\n"))
        assert (steps["jakes"]["code"], steps["jakes"]["out"]) == (EXIT_OK, (
            OUTAGE_HEADER + "\n"
            "snr_db,10.0,miso-pbf,monte_carlo,0.0515,0.004942051699446294,\n"))


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


    def test_singleton_matches_direct_call(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "miso-tas", "--axis", "snr-db", "--values", "10",
            "--rho", "0.9", "--eval", "mc", "--trials", "60000", "--seed", "29",
        )
        assert code == EXIT_OK
        direct = simulate_outage(SchemeId.MISO_TAS, cfg(rho=0.9), None,
                                 TrialPlan(trials=60_000, seed=29))
        assert float(parse_csv(out)[0]["p_out"]) == direct.p_hat

    def _mc_rows(self, capsys, *argv):
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == EXIT_OK
        return [(float(r["p_out"]), float(r["std_err"]))
                for r in parse_csv(out) if r["evaluator"] == "monte_carlo"]

    def test_rho_axis_monotone(self, capsys):
        results = self._mc_rows(
            capsys, "--scheme", "miso-tas", "--axis", "rho", "--values", "0.8,0.9,1.0",
            "--eval", "mc", "--trials", "300000", "--seed", "31")
        for (lo, lo_se), (hi, hi_se) in zip(results, results[1:]):
            assert hi <= lo + 3 * math.hypot(lo_se, hi_se)
        # analytic cross-check on the ordering where the gap is resolvable
        closed = [outage_tas_closed(cfg(rho=r)).value for r in (0.8, 0.9, 1.0)]
        assert closed[0] > closed[1] > closed[2]

    def test_users_axis_nonincreasing(self, capsys):
        results = self._mc_rows(
            capsys, "--scheme", "mu-tas", "--nr", "2", "--rho", "0.9", "--axis", "users",
            "--values", "1,2,4", "--eval", "mc", "--trials", "300000", "--seed", "37")
        for (lo, lo_se), (hi, hi_se) in zip(results, results[1:]):
            assert hi <= lo + 3 * math.hypot(lo_se, hi_se)

    def test_codebook_size_axis(self, capsys):
        results = self._mc_rows(
            capsys, "--scheme", "miso-rvq", "--rho", "0.9", "--axis", "codebook-size",
            "--values", "1,16", "--eval", "mc", "--trials", "200000", "--seed", "41")
        for (p_hat, std_err), n in zip(results, (1, 16)):
            assert abs(p_hat - outage_rvq_closed(cfg(rho=0.9), n).value) <= 3 * std_err

    def test_order_preserved(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "miso-pbf", "--rho", "0.9", "--axis", "snr-db",
            "--values", "20,0,10", "--eval", "mc", "--trials", "10000", "--seed", "43",
        )
        assert code == EXIT_OK
        assert [r["value"] for r in parse_csv(out)] == ["20.0", "0.0", "10.0"]

    @pytest.mark.parametrize("flags", list(SWEEP_GOLDEN))
    def test_mc_bytes_on_every_axis(self, capsys, flags):
        code, out, _ = run_cli(capsys, "sweep", *flags.split(), *SWEEP_GOLDEN_MC)
        assert code == EXIT_OK
        assert out == SWEEP_GOLDEN[flags]


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

    def test_answer_below_an_unresolvable_probe(self, capsys):
        # the doubling probe 4096 raises at n_t = 2; the answer lies below it
        code, out, _ = run_cli(
            capsys, "codebook-size", "--nt", "2", "--snr-db", "20", "--rho-values", "1",
            "--targets", "0.001731",
        )
        assert code == EXIT_OK
        assert parse_csv(out)[0]["min_size"] == "2414"


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
    @pytest.mark.parametrize("bad", [["--trials", "100000"],
                                     ["--trials", "100000", "--seed", "1", "--workers", "0"]])
    def test_monte_carlo_inputs_checked_before_any_evaluator(self, capsys, monkeypatch, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("an analytic evaluator ran before the Monte Carlo check")

        monkeypatch.setattr(analytic, "outage_closed", refuse)
        monkeypatch.setattr(analytic, "outage_semianalytic", refuse)
        code, out, _ = run_cli(
            capsys, "sweep", "--scheme", "mu-rvq", "--axis", "rho",
            "--values", "0.9,0.95,0.97,0.98,0.99", "--nu", "4", "--snr-db", "20",
            "--eval", "closed,quadrature,mc", *bad,
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_codebook_cardinality_checked_before_any_evaluator(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature ran before the cardinality check")

        monkeypatch.setattr(analytic, "outage_semianalytic", refuse)
        code, out, err = run_cli(
            capsys, "sweep", "--scheme", "miso-rvq", "--axis", "codebook-size", "--values", "4,0",
            "--rho", "0.9", "--eval", "quadrature,mc", "--trials", "1000", "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "needs a codebook cardinality >= 1" in err

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

    @pytest.mark.parametrize("args, message", [
        (("mu-tas", "--nt", "4", "--nu", "258", "--eval", "closed"), "selection pool 1032"),
        (("mu-pbf", "--nt", "1", "--nu", "1031", "--eval", "closed"), "selection pool 1031"),
        (("mu-tas", "--nt", "4", "--nu", "4504", "--eval", "quadrature"), "gain pool 18016"),
    ], ids=["mu-tas-closed", "mu-pbf-closed", "mu-tas-quadrature"])
    def test_large_pool_is_numeric(self, capsys, args, message):
        code, out, err = run_cli(capsys, "analytic", "--scheme", *args, "--rho", "0.9")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric error") and message in err

    @pytest.mark.parametrize("args, value", [
        (("mu-tas", "--nt", "4", "--nu", "32", "--snr-db", "10", "--rho", "0.9"), "7.5158"),
        (("mu-tas", "--nt", "4", "--nu", "32", "--snr-db", "60", "--rho", "0"), "1.2344"),
        (("mu-tas", "--nt", "4", "--nu", "16", "--snr-db", "10", "--rho", "0.9"), "-79.462"),
        (("mu-pbf", "--nt", "1", "--nu", "64", "--snr-db", "10", "--rho", "0.9"), "122.28"),
    ], ids=["mu-tas-nu32-10dB", "mu-tas-nu32-60dB-rho0", "mu-tas-nu16", "mu-pbf-nu64"])
    def test_cancelled_closed_form_is_numeric(self, capsys, args, value):
        # each alternating sum cancels to garbage far outside [0, 1], which
        # the clip used to print as 1.0 or 0.0 with exit 0
        code, out, err = run_cli(
            capsys, "analytic", "--scheme", *args, "--eval", "closed,quadrature")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric error") and f"cancelled to {value}" in err

    def test_diversity_underflow_at_rho_one_is_numeric(self, capsys):
        # at rho = 1 the quadrature returns the gain CDF, which is 0.0 at
        # 40 dB for 128 candidates; the slope needs a positive outage
        code, out, err = run_cli(
            capsys, "diversity", "--scheme", "mu-tas", "--nt", "4", "--nu", "32",
            "--rho-values", "1", "--grid-db", "40,50",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric error") and "shrink the grid" in err

    @pytest.mark.parametrize("command, rate", [
        ("analytic", "1100"), ("simulate", "1100"), ("analytic", "1023"),
    ], ids=["analytic-gamma0", "simulate-gamma0", "analytic-beta"])
    def test_threshold_past_float_range_is_numeric(self, capsys, command, rate):
        code, out, err = run_cli(
            capsys, command, "--scheme", "miso-pbf", "--rho", "0.9", "--rate", rate,
            "--trials", "1000", "--seed", "1",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric error") and "past the float range" in err

    def test_simulate_at_finite_gamma0_and_infinite_beta(self, capsys):
        # only the quadrature needs beta; every trial is an outage
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "miso-pbf", "--rho", "0.9", "--rate", "1023",
            "--trials", "1000", "--seed", "1",
        )
        assert code == EXIT_OK
        assert parse_csv(out)[0]["p_out"] == "1.0"

    @pytest.mark.parametrize("args", [
        ("miso-pbf", "--nt", "172"), ("mu-tas", "--nr", "172"),
    ], ids=["miso-pbf-nt", "mu-tas-nr"])
    def test_quadrature_shape_past_factorial_range_is_numeric(self, capsys, args):
        code, out, err = run_cli(
            capsys, "analytic", "--scheme", *args, "--rho", "0.9", "--eval", "quadrature",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric error") and "gain shape 172" in err

    @pytest.mark.parametrize("args", [
        ("miso-pbf", "--nt", "132"), ("mu-tas", "--nr", "132"),
    ], ids=["miso-pbf-nt", "mu-tas-nr"])
    def test_quadrature_past_the_power_form(self, capsys, args):
        # x^(shape - 1) overflows from shape 132 on; the density is formed in logs
        code, out, err = run_cli(
            capsys, "analytic", "--scheme", *args, "--rho", "0.9", "--eval", "quadrature",
        )
        assert code == EXIT_OK
        assert err == ""
        assert float(parse_csv(out)[0]["p_out"]) > 0.0


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

    @pytest.mark.parametrize("line, message", [
        ("chunk = 1e3", "chunk expects int, got '1e3'"),
        ("rho = high", "rho expects float, got 'high'"),
    ])
    def test_bad_value_names_line_and_key(self, capsys, tmp_path, line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(f"nt = 2\n{line}\n")
        code, _, err = run_cli(
            capsys, "simulate", "--scheme", "miso-pbf", "--config", str(conf),
            "--rho", "0.9", "--trials", "100", "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert f"error: {conf}:2: {message}" in err


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

    def test_stdout_identical_across_worker_counts(self, capsys):
        outs = []
        for workers in ("1", "2", "3"):
            code, out, _ = run_cli(capsys, "verify", "--trials", "20000", "--seed", "5",
                                   "--workers", workers)
            assert code in (EXIT_OK, EXIT_VERIFY)
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_negative_seed_runs_every_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-3", "--trials", "2000")
        assert code in (EXIT_OK, EXIT_VERIFY), err
        assert "noncentral chi-square CDF" in out

    def test_raising_criterion_is_one_failed_check(self, capsys, monkeypatch):
        # 24 gain nodes trip the quadrature's density-mass guard in criteria 1
        # and 3; each becomes one FAIL line, and every other line is unchanged
        agreement = len(verification.SCHEME_MATRIX) * len(verification.GRID_SNR_DB) * len(
            verification.GRID_RHO)
        arbitration = agreement + len(verification._ARBITRATION_CLAIMS)
        diversity = arbitration + len(verification.diversity_checks())
        argv = ("verify", "--trials", "2000", "--seed", "11")
        _, clean, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(analytic, "_GAIN_NODES", 24)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_VERIFY
        lines, got = clean.splitlines()[:-2], out.splitlines()[:-2]
        assert lines[agreement - 1].startswith("PASS  agreement mu-rvq ")
        assert got[1:] == lines[agreement:arbitration] + [got[6]] + lines[diversity:]
        for line, criterion in ((got[0], "criterion 1 three-way agreement"),
                                (got[6], "criterion 3 diversity orders")):
            assert line.startswith(f"FAIL  {criterion} raised  [AccuracyError: gain density mass ")
        assert out.splitlines()[-1] == f"{len(got) - 2}/{len(got)} checks passed"

    def test_failing_check_exits_three(self, capsys, monkeypatch):
        failing = verification.CheckResult(name="stub check", passed=False, detail="gap=1")
        monkeypatch.setattr(verification, "run_all", lambda **kwargs: [failing])
        code, out, _ = run_cli(capsys, "verify", "--trials", "1000", "--seed", "1")
        assert code == EXIT_VERIFY
        assert "FAIL  stub check  [gap=1]" in out.splitlines()
        assert "0/1 checks passed" in out
