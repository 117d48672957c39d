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
from pathlib import Path

from . import analytic, montecarlo, verification
from .analytic import AccuracyError, RangeError, SchemeId
from .channel import BeyondFirstZeroError, PersistenceSpec, RngStream, SystemConfig
from .codebook import load_codebook, rvq_generate
from .montecarlo import TrialPlan
from .specfun import CapabilityError, ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

OUTAGE_FIELDS = ("axis", "value", "scheme", "evaluator", "p_out", "std_err", "flags")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
# flag plumbing: defaults live in one table so a key=value config file can be
# merged underneath explicit flags
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "nt": 4,
    "nr": 1,
    "nu": 1,
    "rate": 2.0,
    "snr_db": 10.0,
    "rho": None,
    "doppler_hz": None,
    "delay_s": None,
    "codebook_size": 8,
    "trials": None,
    "seed": None,
    "workers": 1,
    "chunk": 1 << 16,
}

_CONVERTERS = {
    "nt": int, "nr": int, "nu": int, "rate": float, "snr_db": float,
    "rho": float, "doppler_hz": float, "delay_s": float,
    "codebook_size": int, "trials": int, "seed": int, "workers": int, "chunk": int,
}


def _add_common(parser, include_mc: bool):
    parser.add_argument("--config", help="key=value file merged under explicit flags")
    parser.add_argument("--nt", type=int, help="transmit antennas")
    parser.add_argument("--nr", type=int, help="receive antennas per user")
    parser.add_argument("--nu", type=int, help="user count")
    parser.add_argument("--rate", type=float, help="transmission rate, bits/s/Hz")
    parser.add_argument("--snr-db", dest="snr_db", type=float, help="SNR in dB")
    parser.add_argument("--rho", type=float, help="persistence in [0, 1]")
    parser.add_argument("--doppler-hz", dest="doppler_hz", type=float, help="max Doppler shift")
    parser.add_argument("--delay-s", dest="delay_s", type=float, help="feedback delay, seconds")
    parser.add_argument("--codebook-size", dest="codebook_size", type=int, help="RVQ cardinality")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="output path (default: stdout)")
    if include_mc:
        parser.add_argument("--trials", type=int, help="Monte Carlo trials")
        parser.add_argument("--seed", type=int, help="Monte Carlo seed (required)")
        parser.add_argument("--workers", type=int, help="parallel workers (no output effect)")
        parser.add_argument("--chunk", type=int, help="trials per random stream")


def _merge_config(args) -> dict:
    merged = dict(_CONFIG_DEFAULTS)
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
            merged[key] = _CONVERTERS[key](value)
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


def _codebook_for(scheme, config, opts, plan_seed):
    if not analytic.scheme_uses_codebook(scheme):
        return None
    if opts.get("codebook_path"):
        return load_codebook(opts["codebook_path"])
    stream = RngStream(plan_seed, montecarlo._CODEBOOK_STREAM)
    return rvq_generate(stream, opts["codebook_size"], config.n_t)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analytic(args) -> int:
    opts = _merge_config(args)
    scheme = _scheme(args.scheme)
    config = _system_config(opts)
    n = opts["codebook_size"]
    evaluators = [e.strip() for e in args.eval.split(",") if e.strip()]
    if not evaluators:
        raise UsageError("--eval must select at least one evaluator")
    rows = []
    for ev in evaluators:
        if ev == "closed":
            est = analytic.outage_closed(scheme, config, n)
            rows.append(_outage_row("snr_db", opts["snr_db"], scheme, "closed_form",
                                    est.value, 0.0, est.flags))
        elif ev == "quadrature":
            est = analytic.outage_semianalytic(scheme, config, codebook_size=n)
            rows.append(_outage_row("snr_db", opts["snr_db"], scheme, "quadrature", est.value))
        elif ev == "mc":
            plan = _plan(opts)
            cb = _codebook_for(scheme, config, opts, plan.seed)
            res = montecarlo.simulate_outage(scheme, config, cb, plan)
            rows.append(_outage_row("snr_db", opts["snr_db"], scheme, "monte_carlo",
                                    res.p_hat, res.std_err))
        else:
            raise UsageError(f"unknown evaluator {ev!r} (choose from closed,quadrature,mc)")
    _write_rows(rows, OUTAGE_FIELDS, args.format, args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    opts = _merge_config(args)
    opts["codebook_path"] = args.codebook
    scheme = _scheme(args.scheme)
    if args.codebook and not analytic.scheme_uses_codebook(scheme):
        raise UsageError(f"--codebook is for RVQ schemes; {scheme.value} uses no codebook")
    config = _system_config(opts)
    plan = _plan(opts)
    cb = _codebook_for(scheme, config, opts, plan.seed)
    res = montecarlo.simulate_outage(scheme, config, cb, plan, fixed_codebook=bool(args.codebook))
    rows = [_outage_row("snr_db", opts["snr_db"], scheme, "monte_carlo", res.p_hat, res.std_err)]
    _write_rows(rows, OUTAGE_FIELDS, args.format, args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    opts = _merge_config(args)
    scheme = _scheme(args.scheme)
    axis = args.axis.replace("-", "_")
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values must list at least one point")
    if axis in ("users", "codebook_size"):
        values = [int(v) for v in values]
    evaluators = [e.strip() for e in args.eval.split(",") if e.strip()]
    if not evaluators:
        raise UsageError("--eval must select at least one evaluator")
    if axis == "rho" and opts["rho"] is None and opts["doppler_hz"] is None:
        opts["rho"] = values[0]  # template persistence; replaced per axis value
    config = _system_config(opts)
    rows = []
    deterministic = [e for e in evaluators if e in ("closed", "quadrature")]
    unknown = [e for e in evaluators if e not in ("closed", "quadrature", "mc")]
    if unknown:
        raise UsageError(f"unknown evaluator {unknown[0]!r} (choose from closed,quadrature,mc)")
    for value in values:
        cfg = montecarlo._SWEEP_AXES[axis](config, value)
        n = int(value) if axis == "codebook_size" else opts["codebook_size"]
        for ev in deterministic:
            if ev == "closed":
                est = analytic.outage_closed(scheme, cfg, n)
                rows.append(_outage_row(axis, value, scheme, "closed_form",
                                        est.value, 0.0, est.flags))
            else:
                est = analytic.outage_semianalytic(scheme, cfg, codebook_size=n)
                rows.append(_outage_row(axis, value, scheme, "quadrature", est.value))
    if "mc" in evaluators:
        plan = _plan(opts)
        cb = _codebook_for(scheme, config, opts, plan.seed)
        for value, res in montecarlo.sweep(scheme, config, axis, values, plan, cb):
            rows.append(_outage_row(axis, value, scheme, "monte_carlo", res.p_hat, res.std_err))
        # keep tidy ordering: one block per value, evaluators in request order
        order = {"closed_form": 0, "quadrature": 1, "monte_carlo": 2}
        rows.sort(key=lambda r: (values.index(r["value"]), order[r["evaluator"]]))
    _write_rows(rows, OUTAGE_FIELDS, args.format, args.output)
    return EXIT_OK


def _cmd_codebook_size(args) -> int:
    opts = _merge_config(args)
    rho_values = [float(v) for v in args.rho_values.split(",") if v.strip()]
    targets = [float(v) for v in args.targets.split(",") if v.strip()]
    if not rho_values or not targets:
        raise UsageError("--rho-values and --targets must list at least one point each")
    rows = []
    for target in targets:
        for rho in rho_values:
            local = dict(opts)
            local["rho"], local["doppler_hz"], local["delay_s"] = rho, None, None
            config = _system_config(local)
            res = analytic.min_codebook_size(target, config, n_max=args.n_max)
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
    rho_values = [float(v) for v in args.rho_values.split(",") if v.strip()]
    grid = tuple(float(v) for v in args.grid_db.split(",") if v.strip())
    if len(grid) < 2:
        raise UsageError("--grid-db needs at least two points")
    rows = []
    for rho in rho_values:
        local = dict(opts)
        local["rho"], local["doppler_hz"], local["delay_s"] = rho, None, None
        config = _system_config(local)
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
    p.add_argument("--workers", type=int, default=1)
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
    except (CapabilityError, ConvergenceError, AccuracyError, RangeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, BeyondFirstZeroError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
