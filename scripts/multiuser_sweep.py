#!/usr/bin/env python3
"""Multiuser outage vs SNR: antenna selection with receive combining for
1/2/4 users, plus the multiuser matched-filter and RVQ variants for two
users.  Closed forms with an optional Monte Carlo overlay."""

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
    ap.add_argument("--rho", type=float, default=0.9)
    ap.add_argument("--codebook-size", type=int, default=8)
    ap.add_argument("--trials", type=int, default=0, help="0 disables the MC overlay")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    snr_grid = np.arange(0.0, 20.5, 2.0)
    cases = [(SchemeId.MU_TAS, dict(n_r=2, n_u=u)) for u in (1, 2, 4)]
    cases += [(SchemeId.MU_PBF, dict(n_r=1, n_u=2)), (SchemeId.MU_RVQ, dict(n_r=1, n_u=2))]

    rows = []
    offset = 0
    for scheme, kw in cases:
        for snr_db in snr_grid:
            cfg = SystemConfig(
                n_t=4, rate_bits=2.0, snr_linear=10 ** (snr_db / 10),
                persistence=PersistenceSpec.from_rho(args.rho), **kw,
            )
            value = outage_closed(scheme, cfg, args.codebook_size).value
            rows.append([scheme.value, kw["n_u"], args.rho, float(snr_db),
                         "closed_form", value, 0.0])
            if args.trials:
                cb = rvq_generate(RngStream(args.seed), args.codebook_size, 4)
                res = simulate_outage(
                    scheme, cfg, cb, TrialPlan(trials=args.trials, seed=args.seed),
                    stream_offset=offset << 32,
                )
                rows.append([scheme.value, kw["n_u"], args.rho, float(snr_db),
                             "monte_carlo", res.p_hat, res.std_err])
            offset += 1

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["scheme", "users", "rho", "snr_db", "evaluator", "p_out", "std_err"])
    writer.writerows(rows)
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
