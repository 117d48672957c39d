#!/usr/bin/env python3
"""Outage vs persistence for 4x1 and 2x1 systems with an RVQ codebook of
eight vectors plus antenna selection, at 2 bits/s/Hz.  Optional Monte Carlo
overlay.  Emits tidy CSV."""

import argparse
import csv
import sys

import numpy as np

from bfoutage import (
    PersistenceSpec,
    RngStream,
    SchemeId,
    SystemConfig,
    TrialPlan,
    outage_closed,
    rvq_generate,
    simulate_outage,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--snr-db", type=float, default=10.0)
    ap.add_argument("--codebook-size", type=int, default=8)
    ap.add_argument("--trials", type=int, default=0, help="0 disables the MC overlay")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    rho_grid = np.concatenate([np.linspace(0.5, 0.95, 10), [0.97, 0.99, 1.0]])
    rows = []
    series = [("miso-rvq", 2), ("miso-rvq", 4), ("miso-tas", 4)]
    for offset, ((scheme_name, nt), rho) in enumerate(
        (s, r) for s in series for r in rho_grid
    ):
        cfg = SystemConfig(
            n_t=nt, rate_bits=2.0, snr_linear=10 ** (args.snr_db / 10),
            persistence=PersistenceSpec.from_rho(float(rho)),
        )
        scheme = SchemeId(scheme_name)
        value = outage_closed(scheme, cfg, args.codebook_size).value
        rows.append([scheme_name, nt, float(rho), "closed_form", value, 0.0])
        if args.trials:
            cb = rvq_generate(RngStream(args.seed), args.codebook_size, nt)
            res = simulate_outage(
                scheme, cfg, cb, TrialPlan(trials=args.trials, seed=args.seed),
                stream_offset=offset << 32,
            )
            rows.append([scheme_name, nt, float(rho), "monte_carlo", res.p_hat, res.std_err])

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["scheme", "nt", "rho", "evaluator", "p_out", "std_err"])
    writer.writerows(rows)
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
