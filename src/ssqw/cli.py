"""Command line entry points.

Subcommands cover the whole workflow: generate or ingest a target
histogram, train the walk against it, and price a call off the result.
``repro`` chains the three canonical runs with fixed seeds. All file
outputs are deterministic byte for byte for a given command line, so
reruns can be diffed directly.

Exit codes:
  0  success
  1  trained MSE exceeded the requested gate
  2  usage or argument validation error
  3  target has no representable mass on the domain
  4  a required input file is missing
  5  the optimiser raised
  6  target and trained files disagree on the grid
  7  returns CSV could not be parsed or the window is empty
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from .optimize import OptimizerConfig, TrainingResult, _start_state, train, training_result_json_dict
from .pricing import OptionSpec, payoff_csv, payoff_report_to_json, price_report
from .target import (
    DistSpec,
    Domain,
    IngestFormatError,
    TargetDistribution,
    UnrepresentableTargetError,
    analytic_histogram,
    bs_lognormal_target,
    ingest_returns,
    sample_histogram,
)
from .walk import CoinParams, SsqwParams, WalkSchedule

EXIT_OK = 0
EXIT_MSE_GATE = 1
EXIT_USAGE = 2
EXIT_UNREPRESENTABLE = 3
EXIT_MISSING_FILE = 4
EXIT_OPTIMIZER = 5
EXIT_GRID_MISMATCH = 6
EXIT_INGEST = 7

OUTDIR_ENV = "SSQW_OUTDIR"

REFERENCE_PAYOFF_DEFAULT = 5.5342


def _outdir() -> str:
    return os.environ.get(OUTDIR_ENV, ".")


def _resolve_out(path: str | None, default_name: str) -> str:
    return path if path is not None else os.path.join(_outdir(), default_name)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _load_target(path: str) -> TargetDistribution:
    if not os.path.exists(path):
        raise FileNotFoundError(f"target file not found: {path}")
    with open(path) as fh:
        return TargetDistribution.from_json(fh.read())


def _dist_summary(t: TargetDistribution) -> str:
    c = t.bin_centers
    m = float(np.sum(t.probs * c))
    var = float(np.sum(t.probs * c * c)) - m * m
    sd = math.sqrt(max(var, 0.0))
    return (
        f"{t.n_bins} bins on ({t.domain.lo}, {t.domain.hi}); "
        f"mean {m:.4f}, std {sd:.4f}, mode bin {int(np.argmax(t.probs))}"
    )


def _overlay_csv(target: TargetDistribution, trained: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin", "center", "p_target", "p_trained"])
    centers = target.bin_centers
    for i in range(target.n_bins):
        writer.writerow(
            [i, repr(float(centers[i])), repr(float(target.probs[i])), repr(float(trained[i]))]
        )
    return buf.getvalue()


def _result_json(result: TrainingResult, target: TargetDistribution) -> str:
    payload = training_result_json_dict(result)
    payload["domain"] = {"lo": target.domain.lo, "hi": target.domain.hi}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- gen-target


def cmd_gen_target(args: argparse.Namespace) -> int:
    domain = Domain(args.lo, args.hi)
    if args.kind == "bs":
        for name in ("s0", "strike", "r", "t"):
            if getattr(args, name) is None:
                raise _Usage(f"--kind bs requires --{name if name != 'strike' else 'k'}")
        if args.sigma is None:
            raise _Usage("--kind bs requires --sigma")
        opt = OptionSpec(args.s0, args.strike, args.r, args.sigma, args.t, args.mu_drift)
        target = bs_lognormal_target(opt, domain, args.bins, args.sigma_reading)
    else:
        mu = args.mu
        sigma = args.sigma
        if sigma is None:
            sigma = domain.width / 8.0 if args.kind == "normal" else 0.5
        if mu is None:
            center = 0.5 * (domain.lo + domain.hi)
            mu = center if args.kind == "normal" else math.log(center) - 0.5 * sigma**2
        spec = DistSpec(args.kind, mu, sigma)
        if args.analytic:
            target = analytic_histogram(spec, domain, args.bins)
        else:
            target = sample_histogram(spec, domain, args.bins, args.samples, args.seed)
    out = _resolve_out(args.out, "target.json")
    _write_text(out, target.to_json())
    print(f"target: {_dist_summary(target)}")
    return EXIT_OK


# --------------------------------------------------------------------- train


def _build_init(args: argparse.Namespace, n_bins: int):
    """An explicit start state only when --x0 or --coin-init is given, so
    that a default run records train's own start (coin_init "up"/"balanced")."""
    if args.x0 is None and args.coin_init is None:
        return None
    return _start_state(n_bins, args.symmetric, args.x0, args.coin_init)[0]


def cmd_train(args: argparse.Namespace) -> int:
    target = _load_target(args.target)
    params0 = SsqwParams(
        CoinParams(args.theta1, args.phi1, args.lam1),
        CoinParams(args.theta2, args.phi2, args.lam2),
    )
    config = OptimizerConfig(
        max_iters=args.max_iters,
        initial_params=params0,
        steps=WalkSchedule(args.steps),
        initial_trust_radius=args.rhobeg,
        final_trust_radius=args.rhoend,
        symmetric_mode=args.symmetric,
        restarts=args.restarts,
        seed=args.seed,
        optimizer=args.optimizer,
    )
    init = _build_init(args, target.n_bins)
    t0 = time.perf_counter()
    try:
        result = train(target, config, init)
    except ValueError:
        # Bad inputs are usage errors: main() maps them to exit 2, not 5.
        raise
    except Exception as exc:
        print(f"error: optimiser failed: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    wall = time.perf_counter() - t0
    out = _resolve_out(args.out, "result.json")
    csv_out = args.csv if args.csv is not None else os.path.splitext(out)[0] + ".csv"
    _write_text(out, _result_json(result, target))
    _write_text(csv_out, _overlay_csv(target, result.trained_dist))
    print(
        f"best_mse {result.best_mse:.6e} after {result.iterations_used} evaluations "
        f"({result.metadata['restarts_run']} restarts, {wall:.1f}s)"
    )
    if args.mse_gate is not None and result.best_mse > args.mse_gate:
        print(f"error: best_mse {result.best_mse:.6e} exceeds gate {args.mse_gate:.6e}", file=sys.stderr)
        return EXIT_MSE_GATE
    return EXIT_OK


# --------------------------------------------------------------------- price


def _load_distribution_file(path: str) -> tuple[np.ndarray, int, dict | None]:
    """Accepts a training result or a target file.

    Returns (probabilities, n_bins, domain dict or None).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"file not found: {path}")
    with open(path) as fh:
        payload = json.load(fh)
    if "trained_dist" in payload:
        probs = np.asarray(payload["trained_dist"], dtype=np.float64)
        return probs, int(payload["n_bins"]), payload.get("domain")
    if "probs" in payload:
        probs = np.asarray(payload["probs"], dtype=np.float64)
        return probs, int(payload["n_bins"]), {"lo": payload["lo"], "hi": payload["hi"]}
    raise ValueError(f"{path}: neither a training result nor a target file")


def cmd_price(args: argparse.Namespace) -> int:
    target = _load_target(args.target)
    trained, n_bins, dom = _load_distribution_file(args.trained)
    if n_bins != target.n_bins or trained.size != target.n_bins:
        print(
            f"error: grid mismatch: target has {target.n_bins} bins, trained file has {n_bins}",
            file=sys.stderr,
        )
        return EXIT_GRID_MISMATCH
    if dom is not None and (dom["lo"] != target.domain.lo or dom["hi"] != target.domain.hi):
        print(
            f"error: grid mismatch: target domain ({target.domain.lo}, {target.domain.hi}) vs "
            f"trained domain ({dom['lo']}, {dom['hi']})",
            file=sys.stderr,
        )
        return EXIT_GRID_MISMATCH
    opt = OptionSpec(args.s0, args.strike, args.r, args.sigma, args.t, args.mu_drift)
    report = price_report(
        opt,
        target,
        trained,
        discount=args.discount,
        sigma_reading=args.sigma_reading,
        reference_payoff=args.reference,
    )
    out = _resolve_out(args.out, "price.json")
    csv_out = args.csv if args.csv is not None else os.path.splitext(out)[0] + ".csv"
    _write_text(out, payoff_report_to_json(report))
    _write_text(csv_out, payoff_csv(report, target.probs, trained))
    print(
        f"payoff_target {report.payoff_target:.6f}  payoff_trained {report.payoff_trained:.6f}  "
        f"gap {report.gap:+.6f}"
    )
    if args.reference is not None:
        rel = report.metadata["reference_relative_gap"]
        print(f"reference {args.reference:.4f}: relative gap {rel:.2%}")
        note = report.metadata.get("reference_note")
        if note:
            print(f"note: {note}")
    return EXIT_OK


# -------------------------------------------------------------------- ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    if not os.path.exists(args.csv):
        raise FileNotFoundError(f"returns CSV not found: {args.csv}")
    window = None
    if args.date_from is not None or args.date_to is not None:
        if args.date_from is None or args.date_to is None:
            raise _Usage("--from and --to must be given together")
        window = (args.date_from, args.date_to)
    domain = Domain(args.lo, args.hi)
    target = ingest_returns(args.csv, domain, args.bins, window, args.offset)
    out = _resolve_out(args.out, "returns_target.json")
    _write_text(out, target.to_json())
    print(f"target: {_dist_summary(target)}")
    print(
        f"binned {target.provenance['n_binned']} of {target.provenance['n_returns']} returns "
        f"(offset {target.provenance['mapping']['offset']:.6g})"
    )
    return EXIT_OK


# --------------------------------------------------------------------- repro


def cmd_repro(args: argparse.Namespace) -> int:
    outdir = args.outdir if args.outdir is not None else _outdir()
    os.makedirs(outdir, exist_ok=True)
    domain = Domain(0.0, 15.0)
    n_bins = 16
    config = OptimizerConfig(
        max_iters=args.max_iters,
        steps=WalkSchedule(args.steps),
        restarts=args.restarts,
        seed=args.seed,
    )
    summary: dict = {"format_version": 1}

    center = 0.5 * (domain.lo + domain.hi)
    recipes = [
        ("normal", analytic_histogram(DistSpec("normal", center, domain.width / 8.0), domain, n_bins)),
        (
            "lognormal",
            analytic_histogram(DistSpec("lognormal", math.log(center) - 0.125, 0.5), domain, n_bins),
        ),
    ]
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    recipes.append(("bs", bs_lognormal_target(opt, domain, n_bins)))

    results: dict[str, TrainingResult] = {}
    for name, target in recipes:
        _write_text(os.path.join(outdir, f"{name}_target.json"), target.to_json())
        result = train(target, config)
        _write_text(os.path.join(outdir, f"{name}_result.json"), _result_json(result, target))
        _write_text(
            os.path.join(outdir, f"{name}_result.csv"),
            _overlay_csv(target, result.trained_dist),
        )
        results[name] = result
        summary[name] = {
            "best_mse": result.best_mse,
            "iterations_used": result.iterations_used,
        }
        print(f"{name:10s} best_mse {result.best_mse:.6e} ({result.iterations_used} evaluations)")

    bs_target = recipes[-1][1]
    report = price_report(
        opt,
        bs_target,
        results["bs"].trained_dist,
        reference_payoff=args.reference,
    )
    _write_text(os.path.join(outdir, "bs_price.json"), payoff_report_to_json(report))
    _write_text(
        os.path.join(outdir, "bs_price.csv"),
        payoff_csv(report, bs_target.probs, results["bs"].trained_dist),
    )
    summary["bs"].update(
        {
            "payoff_target": report.payoff_target,
            "payoff_trained": report.payoff_trained,
            "reference_payoff": args.reference,
            "reference_relative_gap": report.metadata["reference_relative_gap"],
        }
    )
    print(
        f"bs payoff: target {report.payoff_target:.6f}, trained {report.payoff_trained:.6f}, "
        f"reference {args.reference:.4f}"
    )
    note = report.metadata.get("reference_note")
    if note:
        print(f"note: {note}")
    _write_text(os.path.join(outdir, "summary.json"), json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


# -------------------------------------------------------------------- parser


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssqw",
        description="Split-step walk distribution loading and call payoff evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-target", help="generate a target histogram")
    g.add_argument("--kind", required=True, choices=["normal", "lognormal", "uniform", "bs"])
    g.add_argument("--mu", type=float, default=None, help="mean (normal) or log-mean (lognormal); default: domain centre")
    g.add_argument("--sigma", type=float, default=None, help="std, log-std, or BS volatility; default width/8 (normal) or 0.5 (lognormal)")
    g.add_argument("--lo", type=float, default=0.0)
    g.add_argument("--hi", type=float, default=15.0)
    g.add_argument("--bins", type=int, default=16)
    g.add_argument("--analytic", action="store_true", help="bin the CDF instead of sampling")
    g.add_argument("--samples", type=int, default=100000)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--s0", type=float, default=None, help="spot price (bs only)")
    g.add_argument("--k", "--strike", dest="strike", type=float, default=None, help="strike (bs only)")
    g.add_argument("--r", type=float, default=None, help="risk-free rate (bs only)")
    g.add_argument("--t", type=float, default=None, help="maturity (bs only)")
    g.add_argument("--mu-drift", type=float, default=None, help="real-world drift; default: the rate")
    g.add_argument("--sigma-reading", choices=["total", "per-sqrt-time"], default="total")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen_target)

    t = sub.add_parser("train", help="fit split-step parameters to a target")
    t.add_argument("--target", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--csv", default=None, help="overlay CSV path; default: result path with .csv")
    t.add_argument("--steps", type=int, default=7)
    t.add_argument("--max-iters", type=int, default=800)
    t.add_argument("--restarts", type=int, default=1)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--symmetric", action="store_true", help="tie phases to zero, optimise thetas only")
    t.add_argument("--optimizer", choices=["cobyla", "nelder-mead"], default="cobyla")
    t.add_argument("--rhobeg", type=float, default=0.5)
    t.add_argument("--rhoend", type=float, default=1e-6)
    t.add_argument("--theta1", type=float, default=math.pi / 2.0)
    t.add_argument("--phi1", type=float, default=0.0)
    t.add_argument("--lam1", type=float, default=0.0)
    t.add_argument("--theta2", type=float, default=math.pi / 2.0)
    t.add_argument("--phi2", type=float, default=0.0)
    t.add_argument("--lam2", type=float, default=0.0)
    t.add_argument("--x0", type=int, default=None, help="start site; default: centre of the ring")
    t.add_argument("--coin-init", choices=["up", "balanced"], default=None)
    t.add_argument("--mse-gate", type=float, default=None, help="exit 1 if best MSE lands above this")
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("price", help="evaluate call payoffs for target and trained distributions")
    p.add_argument("--target", required=True)
    p.add_argument("--trained", required=True, help="training result (or another target) JSON")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--k", "--strike", dest="strike", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mu-drift", type=float, default=None)
    p.add_argument("--sigma-reading", choices=["total", "per-sqrt-time"], default="total")
    p.add_argument("--discount", action="store_true", help="discount payoffs by exp(-r t)")
    p.add_argument("--reference", type=float, default=None, help="annotate against a quoted payoff")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_price)

    i = sub.add_parser("ingest", help="build a target from a CSV of daily closes")
    i.add_argument("--csv", required=True)
    i.add_argument("--from", dest="date_from", default=None, help="window start, ISO date")
    i.add_argument("--to", dest="date_to", default=None, help="window end, ISO date")
    i.add_argument("--lo", type=float, default=0.0)
    i.add_argument("--hi", type=float, default=15.0)
    i.add_argument("--bins", type=int, default=16)
    i.add_argument("--offset", type=float, default=None, help="shift added to percent returns; default: min lands one bin above lo")
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_ingest)

    r = sub.add_parser("repro", help="re-run the three canonical fits with fixed seeds")
    r.add_argument("--outdir", default=None)
    r.add_argument("--seed", type=int, default=7)
    r.add_argument("--steps", type=int, default=7)
    r.add_argument("--max-iters", type=int, default=800)
    r.add_argument("--restarts", type=int, default=8)
    r.add_argument("--reference", type=float, default=REFERENCE_PAYOFF_DEFAULT)
    r.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnrepresentableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREPRESENTABLE
    except IngestFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
