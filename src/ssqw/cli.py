"""Command line entry points.

Subcommands cover the whole workflow: generate or ingest a target
histogram, train the walk against it, and price a call off the result.
``repro`` runs the same fit and price steps on three canonical targets
with fixed seeds. All file outputs are deterministic byte for byte for a
given command line, so reruns can be diffed directly.

Exit codes:
  0  success
  1  trained MSE exceeded the requested gate
  2  usage or argument validation error, or an unwritable output path
  3  target has no representable mass on the domain
  4  a required input file is missing or unreadable
  5  the optimiser raised
  6  target and trained files disagree on the grid
  7  returns CSV could not be parsed or the window is empty
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .optimize import (
    RESULT_FORMAT_VERSION,
    OptimizerConfig,
    TrainingResult,
    _start_state,
    train,
    training_result_json_dict,
)
from .pricing import OptionSpec, PayoffReport, payoff_csv, payoff_report_to_json, price_report
from .statevector import _check_count, _json_floats, _json_object
from .target import (
    DistSpec,
    Domain,
    IngestFormatError,
    TargetDistribution,
    UnrepresentableTargetError,
    _bin_table_csv,
    _ProbsError,
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
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


def _check_writable(path: str) -> None:
    """Raise the ValueError that ``_write_text`` would raise for ``path``
    if it cannot be opened for writing; leave the file system as it was."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(path)


def _load(path: str, from_json):
    """``from_json`` of the UTF-8 text of the file ``path``. A file that is
    missing or cannot be read raises FileNotFoundError (exit 4), and every
    ValueError, a file that is not UTF-8 included, names the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return from_json(data.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _refuse_overwriting_inputs(args: argparse.Namespace, outputs: dict[str, str], *inputs: str) -> None:
    """Refuse an output that names the same file as an input, by real path:
    writing it would replace the input. ``outputs`` maps each output's flag
    to its path, and ``inputs`` names the input flags, whose paths are read
    from ``args``."""
    for name in inputs:
        path = getattr(args, name)
        for flag, out in outputs.items():
            if os.path.realpath(out) == os.path.realpath(path):
                raise ValueError(f"{flag} names the same file as the input --{name}: {out} and {path}")


def _out_paths(args: argparse.Namespace, default_name: str, *inputs: str) -> tuple[str, str]:
    """The --out path, by default ``default_name`` in the output directory,
    and the --csv path, by default the --out path with .csv. Two paths that
    name one file are refused: the CSV would overwrite the JSON. So is an
    output that names an input file, one of the flags ``inputs``."""
    out = _resolve_out(args.out, default_name)
    csv_out = args.csv if args.csv is not None else os.path.splitext(out)[0] + ".csv"
    if os.path.realpath(out) == os.path.realpath(csv_out):
        raise ValueError(f"--out and --csv name the same file: {out} and {csv_out}")
    _refuse_overwriting_inputs(args, {"--out": out, "--csv": csv_out}, *inputs)
    return out, csv_out


def _option(args: argparse.Namespace) -> OptionSpec:
    return OptionSpec(args.s0, args.strike, args.r, args.sigma, args.t, args.mu_drift)


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
    return _bin_table_csv(
        ["bin", "center", "p_target", "p_trained"], target.bin_centers, target.probs, trained
    )


def _fit(target: TargetDistribution, config: OptimizerConfig, out: str, csv_out: str, init=None) -> TrainingResult:
    """The fit step of ``train`` and ``repro``: train on ``target``, write
    the result JSON to ``out`` and the overlay CSV to ``csv_out``, and
    print the summary, with the wall time on stderr.

    Both paths are checked before the fit. An error from the optimiser
    raises _OptimizerFailed (exit 5), except a ValueError: bad inputs are
    usage errors (exit 2).
    """
    _check_writable(out)
    _check_writable(csv_out)
    t0 = time.perf_counter()
    try:
        result = train(target, config, init)
    except ValueError:
        raise
    except Exception as exc:
        raise _OptimizerFailed(exc) from exc
    wall = time.perf_counter() - t0
    payload = training_result_json_dict(result)
    payload["domain"] = {"lo": target.domain.lo, "hi": target.domain.hi}
    _write_text(out, json.dumps(payload, indent=2) + "\n")
    _write_text(csv_out, _overlay_csv(target, result.trained_dist))
    print(
        f"best_mse {result.best_mse:.6e} (floor {result.metadata['mse_floor']:.6e}) "
        f"after {result.iterations_used} evaluations ({result.metadata['restarts_run']} restarts)"
    )
    print(f"fit took {wall * 1e3:.1f} ms", file=sys.stderr)
    return result


def _price(
    opt: OptionSpec, target: TargetDistribution, trained: np.ndarray, out: str, csv_out: str, **options
) -> PayoffReport:
    """The price step of ``price`` and ``repro``: ``price_report`` with its
    keyword ``options``, the report JSON written to ``out`` and the payoff
    CSV to ``csv_out``, then the payoffs, and against a reference payoff
    its relative gap and any note, printed."""
    report = price_report(opt, target, trained, **options)
    _write_text(out, payoff_report_to_json(report))
    _write_text(csv_out, payoff_csv(report, target.probs, trained))
    print(
        f"payoff_target {report.payoff_target:.6f}  payoff_trained {report.payoff_trained:.6f}  "
        f"gap {report.gap:+.6f}"
    )
    meta = report.metadata
    if "reference_payoff" in meta:
        print(f"reference {meta['reference_payoff']:.4f}: relative gap {meta['reference_relative_gap']:.2%}")
        if "reference_note" in meta:
            print(f"note: {meta['reference_note']}")
    return report


# ---------------------------------------------------------------- gen-target


def _default_spec(
    kind: str, domain: Domain, mu: float | None = None, sigma: float | None = None
) -> DistSpec:
    """The target centred on the domain, for whichever of mu and sigma is
    not given: a normal at the centre with std width/8, or a lognormal with
    log-std 0.5 whose mean is the centre (log-mean ln(centre) - sigma^2/2),
    which needs a centre above 0. A uniform target uses neither and records
    ``DistSpec``'s defaults for them."""
    if kind == "uniform":
        default = DistSpec(kind)
        return DistSpec(kind, default.mu if mu is None else mu, default.sigma if sigma is None else sigma)
    if sigma is None:
        sigma = domain.width / 8.0 if kind == "normal" else 0.5
    if mu is None:
        center = 0.5 * (domain.lo + domain.hi)
        if kind != "normal" and not center > 0.0:
            raise ValueError(
                f"the default log-mean ln(centre) - sigma^2/2 needs a domain centre above 0, "
                f"got {center!r}; pass --mu instead"
            )
        mu = center if kind == "normal" else math.log(center) - 0.5 * sigma**2
    return DistSpec(kind, mu, sigma)


def cmd_gen_target(args: argparse.Namespace) -> int:
    # --seed and --samples are checked for every kind, though only a
    # sampled target uses them.
    _check_count(args.seed, "seed", least=0)
    _check_count(args.samples, "samples")
    domain = Domain(args.lo, args.hi)
    if args.kind == "bs":
        for name in ("s0", "strike", "r", "t", "sigma"):
            if getattr(args, name) is None:
                raise ValueError(f"--kind bs requires --{name if name != 'strike' else 'k'}")
        target = bs_lognormal_target(_option(args), domain, args.bins, args.sigma_reading)
    else:
        spec = _default_spec(args.kind, domain, args.mu, args.sigma)
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
    paths = _out_paths(args, "result.json", "target")
    target = _load(args.target, TargetDistribution.from_json)
    params0 = SsqwParams(
        CoinParams(args.theta1, args.phi1, args.lam1),
        CoinParams(args.theta2, args.phi2, args.lam2),
    )
    try:
        config = OptimizerConfig(
            max_iters=args.max_iters,
            initial_params=params0,
            steps=WalkSchedule(args.steps),
            initial_trust_radius=args.rhobeg,
            final_trust_radius=args.rhoend,
            symmetric_mode=args.symmetric,
            restarts=args.restarts,
            seed=args.seed,
        )
    except ValueError as exc:
        # Name the flags that set the trust radii and the mode, not the
        # config fields.
        message = str(exc).replace("initial_trust_radius", "--rhobeg").replace("final_trust_radius", "--rhoend")
        message = message.replace("symmetric_mode", "--symmetric")
        raise ValueError(message) from exc
    init = _build_init(args, target.n_bins)
    result = _fit(target, config, *paths, init)
    if args.mse_gate is not None and result.best_mse > args.mse_gate:
        print(f"error: best_mse {result.best_mse:.6e} exceeds gate {args.mse_gate:.6e}", file=sys.stderr)
        return EXIT_MSE_GATE
    return EXIT_OK


# --------------------------------------------------------------------- price


def _distribution_from_json(text: str) -> tuple[np.ndarray, int, dict | None]:
    """The (probabilities, n_bins, domain dict or None) of a training
    result, or of a target file, which ``TargetDistribution.from_json``
    reads. Either must hold ``n_bins`` probabilities."""
    payload = _json_object(json.loads(text), "trained file")
    if "trained_dist" in payload:
        _json_object(payload, "training result", n_bins="integer", trained_dist="array")
        if payload.get("format_version") != RESULT_FORMAT_VERSION:
            raise ValueError(f"unsupported training result format_version: {payload.get('format_version')!r}")
        dom = payload.get("domain")
        if dom is not None:
            _json_object(dom, "training result domain", lo="number", hi="number")
        probs = _json_floats(payload["trained_dist"], "training result key 'trained_dist'")
        if probs.size != payload["n_bins"]:
            raise ValueError("n_bins disagrees with probability count")
        return probs, payload["n_bins"], dom
    if "probs" in payload:
        target = TargetDistribution.from_json(text)
        return target.probs, target.n_bins, {"lo": target.domain.lo, "hi": target.domain.hi}
    raise ValueError("neither a training result nor a target file")


def cmd_price(args: argparse.Namespace) -> int:
    paths = _out_paths(args, "price.json", "target", "trained")
    target = _load(args.target, TargetDistribution.from_json)
    trained, n_bins, dom = _load(args.trained, _distribution_from_json)
    if n_bins != target.n_bins:
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
    try:
        _price(
            _option(args),
            target,
            trained,
            *paths,
            discount=args.discount,
            sigma_reading=args.sigma_reading,
            reference_payoff=args.reference,
        )
    except _ProbsError as exc:
        # price_report checks the trained probabilities; the target's were
        # checked when it was read.
        raise ValueError(f"{args.trained}: {exc}") from exc
    return EXIT_OK


# -------------------------------------------------------------------- ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    window = None
    if args.date_from is not None or args.date_to is not None:
        if args.date_from is None or args.date_to is None:
            raise ValueError("--from and --to must be given together")
        window = (args.date_from, args.date_to)
    out = _resolve_out(args.out, "returns_target.json")
    _refuse_overwriting_inputs(args, {"--out": out}, "csv")
    domain = Domain(args.lo, args.hi)
    target = ingest_returns(args.csv, domain, args.bins, window, args.offset)
    _write_text(out, target.to_json())
    print(f"target: {_dist_summary(target)}")
    print(
        f"binned {target.provenance['n_binned']} of {target.provenance['n_returns']} returns "
        f"(offset {target.provenance['mapping']['offset']:.6g})"
    )
    return EXIT_OK


# --------------------------------------------------------------------- repro


def cmd_repro(args: argparse.Namespace) -> int:
    # The options are checked before the directory is made, so that a bad
    # one leaves nothing behind.
    config = OptimizerConfig(
        max_iters=args.max_iters,
        steps=WalkSchedule(args.steps),
        restarts=args.restarts,
        seed=args.seed,
    )
    outdir = args.outdir if args.outdir is not None else _outdir()
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {outdir}: {exc.strerror or exc}") from exc
    domain = Domain(0.0, 15.0)
    n_bins = 16
    summary: dict = {"format_version": 1}

    recipes = [
        (kind, analytic_histogram(_default_spec(kind, domain), domain, n_bins))
        for kind in ("normal", "lognormal")
    ]
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    recipes.append(("bs", bs_lognormal_target(opt, domain, n_bins)))

    for name, target in recipes:
        prefix = os.path.join(outdir, name)
        _write_text(f"{prefix}_target.json", target.to_json())
        result = _fit(target, config, f"{prefix}_result.json", f"{prefix}_result.csv")
        summary[name] = {"best_mse": result.best_mse, "iterations_used": result.iterations_used}

    # The loop ends on the BS recipe: target and result are its own.
    report = _price(
        opt,
        target,
        result.trained_dist,
        os.path.join(outdir, "bs_price.json"),
        os.path.join(outdir, "bs_price.csv"),
        reference_payoff=args.reference,
    )
    summary["bs"].update(
        {
            "payoff_target": report.payoff_target,
            "payoff_trained": report.payoff_trained,
            "reference_payoff": args.reference,
            "reference_relative_gap": report.metadata["reference_relative_gap"],
        }
    )
    _write_text(os.path.join(outdir, "summary.json"), json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


# -------------------------------------------------------------------- parser


class _OptimizerFailed(Exception):
    pass


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _mse_gate(text: str) -> float:
    """A finite gate of 0 or more: no MSE passes a negative gate."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssqw",
        description="Split-step walk distribution loading and call payoff evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = OptimizerConfig()

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
    t.add_argument("--steps", type=int, default=defaults.steps.steps)
    t.add_argument("--max-iters", type=int, default=defaults.max_iters)
    t.add_argument("--restarts", type=int, default=defaults.restarts)
    t.add_argument("--seed", type=int, default=defaults.seed)
    t.add_argument("--symmetric", action="store_true", help="tie phases to zero, optimise thetas only")
    t.add_argument("--rhobeg", type=float, default=defaults.initial_trust_radius, help="longest line-search step")
    t.add_argument("--rhoend", type=float, default=defaults.final_trust_radius, help="shortest trial step before a restart stops")
    for k, coin in enumerate((defaults.initial_params.coin1, defaults.initial_params.coin2), 1):
        for angle in ("theta", "phi", "lam"):
            t.add_argument(f"--{angle}{k}", type=float, default=getattr(coin, angle))
    t.add_argument("--x0", type=int, default=None, help="start site; default: centre of the ring")
    t.add_argument("--coin-init", choices=["up", "balanced"], default=None)
    t.add_argument("--mse-gate", type=_mse_gate, default=None, help="exit 1 if best MSE lands above this")
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
    p.add_argument("--reference", type=_finite_float, default=None, help="annotate against a quoted payoff")
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
    r.add_argument("--steps", type=int, default=defaults.steps.steps)
    r.add_argument("--max-iters", type=int, default=defaults.max_iters)
    r.add_argument("--restarts", type=int, default=8)
    r.add_argument("--reference", type=_finite_float, default=REFERENCE_PAYOFF_DEFAULT)
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
    except _OptimizerFailed as exc:
        print(f"error: optimiser failed: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
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
