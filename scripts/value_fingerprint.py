#!/usr/bin/env python3
"""Bit-exact fingerprint of the closed forms and the quadrature on one fixed
grid, as CSV.

Each row is one evaluation: its value as float.hex with the method and
flags, or the class and message of the error it raised.  Run it in two
checkouts and diff the outputs; no difference means every value on the grid
is bitwise identical.  The grid covers every scheme at n_t = 1 and at
rho = 0, 0.9, 0.99 and 1, multiuser shapes up to the largest degree of the
selection sum and past its limit, and the RVQ points whose kernel windows
are widest.  It takes no options and runs in a few seconds.

tests/value_fingerprint.csv holds the recorded output, and the test suite
requires the script's output to equal it byte for byte.  A change that moves
a value on purpose re-records it:

    PYTHONPATH=src python3 scripts/value_fingerprint.py > tests/value_fingerprint.csv

and lists the rows that changed, with the reason, in CHANGES.md;
scripts/fingerprint_diff.py prints them from the old and new files.
"""

import csv
import sys

from bfoutage import PersistenceSpec, SchemeId, SystemConfig, outage_closed, outage_semianalytic

RHO = (0.0, 0.9, 0.99, 1.0)
SNR_DB = (10.0, 30.0)

#: scheme -> (n_t, n_r, n_u) shapes evaluated at every SNR and rho above
SHAPES = {
    SchemeId.MISO_PBF: ((1, 1, 1), (2, 1, 1), (4, 1, 1)),
    SchemeId.MISO_RVQ: ((1, 1, 1), (4, 1, 1)),
    SchemeId.MISO_TAS: ((1, 1, 1), (4, 1, 1)),
    SchemeId.MU_TAS: (
        (1, 2, 3), (4, 2, 2), (2, 4, 5), (4, 3, 8), (4, 1, 32), (4, 2, 17), (4, 3, 9), (4, 4, 8),
    ),
    SchemeId.MU_PBF: ((1, 1, 2), (4, 1, 2), (4, 1, 16), (4, 1, 32)),
    SchemeId.MU_RVQ: ((1, 1, 2), (4, 1, 4), (4, 1, 8)),
}
#: codebook sizes of the RVQ schemes on that grid
SIZES = (1, 8)

#: (scheme, (n_t, n_r, n_u), snr_db, rho, codebook size): points off the grid
#: whose kernel windows are widest, and the largest codebook of the benchmark
EXTRA = (
    (SchemeId.MISO_RVQ, (4, 1, 1), 10.0, 0.97, 8),
    (SchemeId.MU_RVQ, (4, 1, 2), 10.0, 0.97, 8),
    (SchemeId.MISO_RVQ, (4, 1, 1), 50.0, 0.9, 8),
    (SchemeId.MISO_RVQ, (2, 1, 1), 10.0, 0.9, 16384),
    (SchemeId.MISO_PBF, (4, 1, 1), 30.0, 0.999, None),
    (SchemeId.MU_RVQ, (4, 1, 4), 10.0, 0.9, 64),
)

FIELDS = ("scheme", "nt", "nr", "nu", "snr_db", "rho", "codebook_size",
          "path", "value", "method", "flags", "error")


def points():
    for scheme, shapes in SHAPES.items():
        sizes = SIZES if scheme in (SchemeId.MISO_RVQ, SchemeId.MU_RVQ) else (None,)
        for shape in shapes:
            for snr_db in SNR_DB:
                for rho in RHO:
                    for size in sizes:
                        yield scheme, shape, snr_db, rho, size
    yield from EXTRA


def evaluate(fn):
    """(value, method, flags, error) of one evaluation."""
    try:
        est = fn()
    except (ArithmeticError, ValueError) as exc:
        return "", "", "", f"{type(exc).__name__}: {exc}"
    return float(est.value).hex(), est.method, ";".join(est.flags), ""


def main() -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(FIELDS)
    for scheme, (n_t, n_r, n_u), snr_db, rho, size in points():
        config = SystemConfig(
            n_t=n_t, rate_bits=2.0, snr_linear=10.0 ** (snr_db / 10.0),
            persistence=PersistenceSpec.from_rho(rho), n_r=n_r, n_u=n_u,
        )
        paths = (
            ("closed", lambda: outage_closed(scheme, config, size)),
            ("quadrature", lambda: outage_semianalytic(scheme, config, codebook_size=size)),
        )
        for path, fn in paths:
            key = (scheme.value, n_t, n_r, n_u, snr_db, rho, "" if size is None else size, path)
            writer.writerow(key + evaluate(fn))
    return 0


if __name__ == "__main__":
    sys.exit(main())
