"""Command-line front end.

Subcommands:
  analytic       single-point outage, any subset of {closed, quadrature, mc}
  simulate       Monte Carlo single point
  sweep          axis sweep emitting tidy rows per (value, evaluator)
  codebook-size  minimum RVQ cardinality meeting an outage target over a rho grid
  diversity      high-SNR slope per persistence value
  verify         full cross-method agreement suite with arbitration report

Exit codes: 0 success, 1 usage error, 2 numeric failure or capability limit,
3 verification failure.
SNR is given in dB on the interface and converted to linear internally.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import analytic, montecarlo, verification
from .analytic import SchemeId
from .channel import BeyondFirstZeroError, PersistenceSpec, SystemConfig, db_to_linear
from .codebook import load_codebook
from .montecarlo import McPoint, TrialPlan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

OUTAGE_FIELDS = ("axis", "value", "scheme", "evaluator", "p_out", "std_err", "flags")
#: --eval name -> the evaluator column of its rows
_EVALUATORS = {"closed": "closed_form", "quadrature": "quadrature", "mc": "monte_carlo"}
#: sweep axis -> the (config, codebook size) at one value of that axis
_AXES = {
    "snr_db": lambda config, size, v: (replace(config, snr_linear=db_to_linear(v)), size),
    "rho": lambda config, size, v: (replace(config, persistence=PersistenceSpec.from_rho(v)), size),
    "users": lambda config, size, v: (replace(config, n_u=v), size),
    "codebook_size": lambda config, size, v: (config, v),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(rows, fields, fmt: str, output: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])
        text = buf.getvalue()
    else:
        text = json.dumps([{f: row[f] for f in fields} for row in rows], indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _outage_row(axis, value, scheme, evaluator, p_out, std_err=0.0, flags=()):
    return {
        "axis": axis,
        "value": value,
        "scheme": scheme.value,
        "evaluator": evaluator,
        "p_out": float(p_out),
        "std_err": float(std_err),
        "flags": ";".join(flags),
    }


# ---------------------------------------------------------------------------
# flag plumbing: one table declares each flag, parses it from a key=value
# config file merged underneath explicit flags, and holds its default
# ---------------------------------------------------------------------------

#: key -> (type, default, help, Monte Carlo only)
_FLAGS = {
    "nt": (int, 4, "transmit antennas", False),
    "nr": (int, 1, "receive antennas per user", False),
    "nu": (int, 1, "user count", False),
    "rate": (float, 2.0, "transmission rate, bits/s/Hz", False),
    "snr_db": (float, 10.0, "SNR in dB", False),
    "rho": (float, None, "persistence in [0, 1]", False),
    "doppler_hz": (float, None, "max Doppler shift", False),
    "delay_s": (float, None, "feedback delay, seconds", False),
    "codebook_size": (int, 8, "RVQ cardinality", False),
    "trials": (int, None, "Monte Carlo trials", True),
    "seed": (int, None, "Monte Carlo seed (required)", True),
    "workers": (int, 1, "parallel workers (no output effect)", True),
    "chunk": (int, 1 << 16, "trials per random stream", True),
}


def _add_common(parser, include_mc: bool):
    parser.add_argument("--config", help="key=value file merged under explicit flags")
    for key, (kind, _, text, mc_only) in _FLAGS.items():
        if include_mc or not mc_only:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="output path (default: stdout)")


def _merge_config(args) -> dict:
    merged = {key: default for key, (_, default, _, _) in _FLAGS.items()}
    path = getattr(args, "config", None)
    if path:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in merged:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _FLAGS[key][0]
            try:
                merged[key] = kind(value)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: {key} expects {kind.__name__}, got {value!r}") from None
    for key in merged:
        explicit = getattr(args, key, None)
        if explicit is not None:
            merged[key] = explicit
    return merged


def _persistence(opts) -> PersistenceSpec:
    if opts["rho"] is not None:
        if opts["doppler_hz"] is not None or opts["delay_s"] is not None:
            raise UsageError("give either --rho or the Doppler/delay pair, not both")
        return PersistenceSpec.from_rho(opts["rho"])
    if opts["doppler_hz"] is not None and opts["delay_s"] is not None:
        return PersistenceSpec.from_jakes(opts["doppler_hz"], opts["delay_s"])
    raise UsageError("persistence required: --rho or --doppler-hz with --delay-s")


def _system_config(opts) -> SystemConfig:
    return SystemConfig(
        n_t=opts["nt"],
        rate_bits=opts["rate"],
        snr_linear=db_to_linear(opts["snr_db"]),
        persistence=_persistence(opts),
        n_r=opts["nr"],
        n_u=opts["nu"],
    )


def _config_at_rho(opts, rho: float) -> SystemConfig:
    """The config of opts with its persistence replaced by rho."""
    return _system_config({**opts, "rho": rho, "doppler_hz": None, "delay_s": None})


def _plan(opts) -> TrialPlan:
    if opts["seed"] is None:
        raise UsageError("--seed is required for Monte Carlo runs")
    if opts["trials"] is None:
        raise UsageError("--trials is required for Monte Carlo runs")
    return TrialPlan(
        trials=opts["trials"], seed=opts["seed"], workers=opts["workers"], chunk=opts["chunk"]
    )


def _scheme(name: str) -> SchemeId:
    try:
        return SchemeId(name)
    except ValueError:
        raise UsageError(f"unknown scheme {name!r}") from None


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _evaluators(text: str) -> list[str]:
    names = [e.strip() for e in text.split(",") if e.strip()]
    if not names:
        raise UsageError("--eval must select at least one evaluator")
    for name in names:
        if name not in _EVALUATORS:
            raise UsageError(f"unknown evaluator {name!r} (choose from closed,quadrature,mc)")
        if names.count(name) > 1:
            raise UsageError(f"evaluator {name!r} is named twice in --eval")
    return names


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _outage(args, axis: str, values: str | None, evals: str, codebook_path=None) -> int:
    """The one outage path of analytic, simulate and sweep.  Each axis value
    gives one (config, codebook size), formed once for every evaluator; the
    Monte Carlo inputs are checked before any evaluator runs.  Closed form
    and quadrature run at each value, Monte Carlo as one simulate_outages
    batch whose i-th point runs on the streams from i << 32 on, so the first
    value reproduces a direct simulate_outage call.  Rows come out one block
    per value, with the evaluators in request order.

    values None is the one value --snr-db on the snr_db axis.  A codebook_path
    holds that codebook fixed in every trial; otherwise an RVQ scheme draws a
    fresh codebook per trial, of the value's size.
    """
    opts = _merge_config(args)
    scheme = _scheme(args.scheme)
    if codebook_path and not analytic.scheme_uses_codebook(scheme):
        raise UsageError(f"--codebook is for RVQ schemes; {scheme.value} uses no codebook")
    points = [opts["snr_db"]] if values is None else _floats(values)
    if not points:
        raise UsageError("--values must list at least one point")
    if axis in ("users", "codebook_size"):
        fractional = [v for v in points if not v.is_integer()]
        if fractional:
            raise UsageError(
                f"--values on the {axis.replace('_', '-')} axis must be whole numbers, "
                f"got {fractional[0]!r}")
        points = [int(v) for v in points]
    if axis == "rho" and opts["rho"] is None and opts["doppler_hz"] is None:
        opts["rho"] = points[0]  # template persistence; replaced per axis value
    config = _system_config(opts)
    names = _evaluators(evals)
    settings = [_AXES[axis](config, opts["codebook_size"], v) for v in points]
    if "mc" in names:
        plan = _plan(opts)
        fixed = load_codebook(codebook_path) if codebook_path else None
        batch = [McPoint(scheme, cfg, fixed or n, plan, i << 32)
                 for i, (cfg, n) in enumerate(settings)]
        for cfg, n in settings:  # simulate_outages' check, ahead of every evaluator
            analytic.validate_scheme(scheme, cfg, fixed.cardinality if fixed else n)
    cells = [{} for _ in points]  # per value: evaluator -> (p_out, std_err, flags)
    for (cfg, n), cell in zip(settings, cells):
        if "closed" in names:
            est = analytic.outage_closed(scheme, cfg, n)
            cell["closed"] = (est.value, 0.0, est.flags)
        if "quadrature" in names:
            est = analytic.outage_semianalytic(scheme, cfg, codebook_size=n)
            cell["quadrature"] = (est.value,)
    if "mc" in names:
        for cell, res in zip(cells, montecarlo.simulate_outages(batch, plan.workers)):
            cell["mc"] = (res.p_hat, res.std_err)
    rows = [
        _outage_row(axis, value, scheme, _EVALUATORS[name], *cell[name])
        for value, cell in zip(points, cells)
        for name in names
    ]
    _write_rows(rows, OUTAGE_FIELDS, args.format, args.output)
    return EXIT_OK


def _cmd_analytic(args) -> int:
    return _outage(args, "snr_db", None, args.eval)


def _cmd_simulate(args) -> int:
    return _outage(args, "snr_db", None, "mc", codebook_path=args.codebook)


def _cmd_sweep(args) -> int:
    return _outage(args, args.axis.replace("-", "_"), args.values, args.eval)


def _cmd_codebook_size(args) -> int:
    opts = _merge_config(args)
    rho_values, targets = _floats(args.rho_values), _floats(args.targets)
    if not rho_values or not targets:
        raise UsageError("--rho-values and --targets must list at least one point each")
    rows = []
    for target in targets:
        for rho in rho_values:
            res = analytic.min_codebook_size(target, _config_at_rho(opts, rho), n_max=args.n_max)
            rows.append({
                "rho": rho,
                "target": target,
                "min_size": res.size if res.size is not None else "",
                "attainable": str(res.attainable).lower(),
                "pbf_floor": res.pbf_floor,
            })
    _write_rows(rows, ("rho", "target", "min_size", "attainable", "pbf_floor"),
                args.format, args.output)
    return EXIT_OK


def _cmd_diversity(args) -> int:
    opts = _merge_config(args)
    scheme = _scheme(args.scheme)
    rho_values, grid = _floats(args.rho_values), tuple(_floats(args.grid_db))
    if not rho_values:
        raise UsageError("--rho-values must list at least one point")
    if len(set(grid)) < 2:
        raise UsageError("--grid-db needs at least two distinct points")
    rows = []
    for rho in rho_values:
        config = _config_at_rho(opts, rho)
        slope = analytic.diversity_order(scheme, config, grid, codebook_size=opts["codebook_size"])
        rows.append({
            "scheme": scheme.value,
            "rho": rho,
            "slope": slope,
            "grid_db": ";".join(f"{g:g}" for g in grid),
        })
    _write_rows(rows, ("scheme", "rho", "slope", "grid_db"), args.format, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = verification.run_all(trials=args.trials, seed=args.seed, workers=args.workers)
    failures = [c for c in checks if not c.passed]
    for check in checks:
        print(check.line())
    print(f"\n{len(checks) - len(failures)}/{len(checks)} checks passed")
    return EXIT_OK if not failures else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="bfoutage", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="single-point evaluation")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eval", default="closed,quadrature",
                   help="comma list from {closed,quadrature,mc}")
    _add_common(p, include_mc=True)
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo single point")
    p.add_argument("--scheme", required=True)
    p.add_argument("--codebook", help="fixed codebook file (RVQ schemes)")
    _add_common(p, include_mc=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="axis sweep")
    p.add_argument("--scheme", required=True)
    p.add_argument("--axis", required=True, choices=("snr-db", "rho", "codebook-size", "users"))
    p.add_argument("--values", required=True, help="comma list of axis values")
    p.add_argument("--eval", default="closed,quadrature")
    _add_common(p, include_mc=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("codebook-size", help="minimum RVQ cardinality table")
    p.add_argument("--targets", default="0.01,0.1", help="comma list of outage targets")
    p.add_argument("--rho-values", dest="rho_values", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=4096)
    _add_common(p, include_mc=False)
    p.set_defaults(func=_cmd_codebook_size)

    p = sub.add_parser("diversity", help="high-SNR slope report")
    p.add_argument("--scheme", required=True)
    p.add_argument("--rho-values", dest="rho_values", required=True)
    p.add_argument("--grid-db", dest="grid_db", default="40,50")
    _add_common(p, include_mc=False)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("verify", help="cross-method agreement suite")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--workers", type=int, default=1,
                   help="threads of the one pool that runs the agreement and arbitration "
                        "Monte Carlo and the chi-square draws (no output effect)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # ahead of ValueError: a CapabilityError is one, but not the user's mistake
    except verification.NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, BeyondFirstZeroError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
