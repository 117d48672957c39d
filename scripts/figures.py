#!/usr/bin/env python3
"""The paper's four figures as tables of `bfoutage` calls, one call per curve,
at 2 bits/s/Hz with RVQ(8) unless a curve names its N.  A figure prints its
calls' CSV with a leading curve column.  --trials adds a Monte Carlo overlay
to persistence and multiuser, one sweep batch per curve.

Usage: PYTHONPATH=src python scripts/figures.py persistence --trials 100000
"""

import argparse
import contextlib
import io
import sys

import numpy as np

from bfoutage import cli


def _grid(values) -> str:
    # repr round-trips, so each point gets exactly the float it is given
    return ",".join(repr(float(v)) for v in values)


def _sweep(scheme, axis, values, *flags):
    return ["sweep", "--scheme", scheme, "--axis", axis, "--values", _grid(values), *flags]


_RHO = [*np.linspace(0.5, 0.95, 10), 0.97, 0.99, 1.0]
_SNR_1DB, _SNR_2DB = np.arange(0.0, 20.5, 1.0), np.arange(0.0, 20.5, 2.0)

#: figure -> {curve: bfoutage argv}; main adds each sweep's --eval
FIGURES = {
    "persistence": {
        f"{s}-nt{nt}": _sweep(s, "rho", _RHO, "--nt", str(nt), "--snr-db", "10")
        for s, nt in (("miso-rvq", 2), ("miso-rvq", 4), ("miso-tas", 4))
    },
    "multiuser": {
        **{f"mu-tas-nu{u}": _sweep("mu-tas", "snr-db", _SNR_2DB, "--rho", "0.9", "--nr", "2",
                                   "--nu", str(u)) for u in (1, 2, 4)},
        **{f"{s}-nu2": _sweep(s, "snr-db", _SNR_2DB, "--rho", "0.9", "--nu", "2")
           for s in ("mu-pbf", "mu-rvq")},
    },
    "schemes": {
        **{s: _sweep(s, "snr-db", _SNR_1DB, "--rho", "0.8")
           for s in ("miso-pbf", "miso-rvq", "miso-tas")},
        **{f"miso-rvq-n{n}": _sweep("miso-rvq", "snr-db", _SNR_2DB, "--rho", "0.9",
                                    "--codebook-size", str(n)) for n in (1, 4, 16, 64, 256)},
    },
    "codebook": {"miso-rvq-nt4": [
        "codebook-size", "--nt", "4", "--snr-db", "15", "--targets", "0.01,0.1", "--n-max",
        "16384", "--rho-values", _grid(1.0 - np.geomspace(0.002, 0.06, 12))]},
}
_MC_FIGURES = ("persistence", "multiuser")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("figure", choices=FIGURES)
    ap.add_argument("--trials", type=int, default=0, help="Monte Carlo trials per point, or 0")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    mc = ["--eval", "closed,mc", "--trials", str(args.trials), "--seed", str(args.seed)]
    evals = mc if args.trials and args.figure in _MC_FIGURES else ["--eval", "closed"]
    for i, (curve, call) in enumerate(FIGURES[args.figure].items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(call + evals if call[0] == "sweep" else call)
        if code:
            return code
        header, *rows = out.getvalue().splitlines()
        if i == 0:
            print(f"curve,{header}")
        for row in rows:
            print(f"{curve},{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
