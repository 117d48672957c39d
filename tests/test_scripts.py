"""scripts/figures.py prints each figure, with a short Monte Carlo overlay
where it has one, as the CLI's CSV with a leading curve column: every
curve, and every point of its grid.

The value fingerprint must also equal tests/value_fingerprint.csv byte for
byte, so every closed-form and quadrature value on its grid stays bitwise
identical.  A change that moves a value on purpose re-records the file (run
the script with its stdout redirected there) and lists the rows that
changed, with the reason, in CHANGES.md; scripts/fingerprint_diff.py prints
them."""

import csv
import importlib.util
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bfoutage.cli import OUTAGE_FIELDS

ROOT = Path(__file__).resolve().parent.parent
SWEEP_HEADER = ",".join(OUTAGE_FIELDS)

#: figure -> (arguments, CLI header, curves, data rows)
FIGURES = {
    "persistence": (["--trials", "2000"], SWEEP_HEADER,
                    ["miso-rvq-nt2", "miso-rvq-nt4", "miso-tas-nt4"], 78),
    "multiuser": (["--trials", "2000"], SWEEP_HEADER,
                  ["mu-tas-nu1", "mu-tas-nu2", "mu-tas-nu4", "mu-pbf-nu2", "mu-rvq-nu2"], 110),
    "schemes": ([], SWEEP_HEADER,
                ["miso-pbf", "miso-rvq", "miso-tas", "miso-rvq-n1", "miso-rvq-n4",
                 "miso-rvq-n16", "miso-rvq-n64", "miso-rvq-n256"], 118),
    "codebook": ([], "rho,target,min_size,attainable,pbf_floor", ["miso-rvq-nt4"], 24),
}


def _run(script, *args) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("run", [*FIGURES, "value_fingerprint.py"])
def test_runs_at_defaults(run):
    if run not in FIGURES:
        out = _run(run)
        assert out.encode() == (ROOT / "tests" / "value_fingerprint.csv").read_bytes()
        return
    args, header, curves, count = FIGURES[run]
    header_row, *rows = csv.reader(io.StringIO(_run("figures.py", run, *args)))
    assert ",".join(header_row) == "curve," + header
    assert list(dict.fromkeys(row[0] for row in rows)) == curves
    assert len(rows) == count
    assert all(len(row) == len(header_row) for row in rows)


def test_bench_tracer_installs(monkeypatch):
    # the traced bench wraps package functions by name, so renaming or
    # deleting one of them must fail here and not only in the bench run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    with tracing.installed(tracing.Tracer()):
        pass


def test_fingerprint_diff(tmp_path):
    # identical fingerprints: no output and exit 0; then one value moved by
    # one ulp, one row raising instead and one row dropped, each printed
    # with its key, old and new value and relative change, and exit 1
    recorded = ROOT / "tests" / "value_fingerprint.csv"
    header, *rows = csv.reader(io.StringIO(recorded.read_text()))
    value, error = header.index("value"), header.index("error")
    moved, raising, dropped = rows[1][:], rows[2][:], rows[3]
    old = float.fromhex(moved[value])
    moved[value] = math.nextafter(old, math.inf).hex()
    raising[value: error + 1] = ["", "", "", "ConvergenceError: no"]
    new = tmp_path / "new.csv"
    with new.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [header, rows[0], moved, raising, *rows[4:]])

    def diff(a, b):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint_diff.py"),
                               str(a), str(b)], capture_output=True, text=True, timeout=60)

    same = diff(recorded, recorded)
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    changed = diff(recorded, new)
    assert changed.returncode == 1
    rel = f"{(float.fromhex(moved[value]) - old) / old:+.2e}"
    assert changed.stdout.splitlines() == [
        f"{','.join(moved[:8])}  {rows[1][value]} -> {moved[value]}  {rel}",
        f"{','.join(raising[:8])}  {rows[2][value]} method={rows[2][value + 1]} "
        f"flags={rows[2][value + 2]} -> ConvergenceError: no method= flags=  n/a",
        f"{','.join(dropped[:8])}  {dropped[value]} -> (missing)  n/a",
    ]


def _verify_size_table(out: str) -> dict[str, list[int]]:
    """criterion -> [checks, failing checks, seeds failing] from the table."""
    table = out.split("\ncriterion ", 1)[1].splitlines()[1:8]
    return {" ".join(r.split()[:-3]): [int(v) for v in r.split()[-3:]] for r in table}


def test_verify_size_runs_the_suite_per_seed():
    out = _run("verify_size.py", "--seeds", "1-2", "--trials", "2000")
    lines = out.splitlines()
    exits = [line for line in lines if line.startswith("seed ")]
    assert [line.rsplit(" ", 1)[0] for line in exits] == ["seed 1: exit", "seed 2: exit"]
    failed_lines = [line for line in lines if line.startswith("    FAIL  ")]
    table = _verify_size_table(out)
    assert list(table)[0] == "1 three-way agreement" and len(table) == 7
    assert all(checks > 0 for checks, _, _ in table.values())
    assert sum(failing for _, failing, _ in table.values()) == len(failed_lines)
    false_exits = sum(line.endswith("exit 3") for line in exits)
    assert lines[-1].startswith(f"false exits: {false_exits}/2 = ")


def test_verify_size_counts_failures_per_criterion(monkeypatch, capsys):
    from bfoutage import verification
    spec = importlib.util.spec_from_file_location("verify_size", ROOT / "scripts" / "verify_size.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    check = verification.CheckResult
    runs = {
        1: [check("agreement miso-pbf snr=5dB rho=0.8", True),
            check("agreement mu-pbf snr=5dB rho=0.8", False, "dev=2"),
            check("agreement mu-pbf snr=5dB rho=0.9", False, "dev=3"),
            check("criterion 4 reduction identities raised", False, "ConvergenceError: no")],
        2: [check("agreement miso-pbf snr=5dB rho=0.8", True)],
    }
    monkeypatch.setattr(verification, "run_all", lambda trials, seed, workers: runs[seed])
    assert script.main(["--seeds", "1-2", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "seed 1: exit 3\n"
        "    FAIL  agreement mu-pbf snr=5dB rho=0.8  [dev=2]\n"
        "    FAIL  agreement mu-pbf snr=5dB rho=0.9  [dev=3]\n"
        "    FAIL  criterion 4 reduction identities raised  [ConvergenceError: no]\n"
        "seed 2: exit 0\n")
    table = _verify_size_table(out)
    assert table["1 three-way agreement"] == [3, 2, 1]
    assert table["4 reduction identities"] == [1, 1, 1]
    assert table["7 determinism"] == [0, 0, 0]
    assert out.splitlines()[-1] == "false exits: 1/2 = 50.0% (95% Wilson interval 9.5% to 90.5%)"
