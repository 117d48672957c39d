"""Each experiment script runs at its defaults, with a short Monte Carlo
overlay where it has one, and writes a CSV table.

The value fingerprint must also equal tests/value_fingerprint.csv byte for
byte, so every closed-form and quadrature value on its grid stays bitwise
identical.  A change that moves a value on purpose re-records the file (run
the script with its stdout redirected there) and lists the rows that
changed, with the reason, in CHANGES.md."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: script -> recorded output its stdout must equal byte for byte
RECORDED = {"value_fingerprint.py": ROOT / "tests" / "value_fingerprint.csv"}

#: script -> (arguments, CSV header)
SCRIPTS = {
    "persistence_sweep.py": (["--trials", "2000"], "scheme,nt,rho,evaluator,p_out,std_err"),
    "multiuser_sweep.py": (["--trials", "2000"], "scheme,users,rho,snr_db,evaluator,p_out,std_err"),
    "codebook_tradeoff.py": ([], "target,rho,min_size,attainable,pbf_floor"),
    "scheme_comparison.py": ([], "scheme,rho,snr_db,p_out"),
    "value_fingerprint.py": (
        [], "scheme,nt,nr,nu,snr_db,rho,codebook_size,path,value,method,flags,error"),
}


@pytest.mark.parametrize("script", list(SCRIPTS))
def test_runs_at_defaults(script):
    args, header = SCRIPTS[script]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert ",".join(rows[0]) == header
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    if script in RECORDED:
        assert proc.stdout.encode() == RECORDED[script].read_bytes()
