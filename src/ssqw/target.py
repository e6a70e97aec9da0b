"""Target probability histograms over a truncated price or return domain.

Every target is a vector of 2**N probabilities on a uniform binning of an
open interval (lo, hi). Bins follow the usual histogram convention:
left edge closed, right edge open, except the last bin which also takes
its right edge. Targets can be built analytically from a named
distribution, by sampling with rejection, from Black-Scholes option
parameters, or from a CSV of daily closes.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

TARGET_FORMAT_VERSION = 1

MIN_ACCEPT_RATE = 1e-6
MIN_ANALYTIC_MASS = 1e-12
SAMPLE_BATCH = 65536

SUM_TOL = 1e-9
EDGE_TOL = 1e-12


class UnrepresentableTargetError(ValueError):
    """The requested target has (essentially) no mass on the domain."""


class IngestFormatError(ValueError):
    """A returns CSV could not be parsed into dated closing prices."""


@dataclass(frozen=True)
class Domain:
    """Open interval (lo, hi) the histogram lives on."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("domain bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"domain needs lo < hi, got ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def bin_edges(self, n_bins: int) -> np.ndarray:
        _check_n_bins(n_bins)
        return np.linspace(self.lo, self.hi, n_bins + 1)

    def bin_centers(self, n_bins: int) -> np.ndarray:
        _check_n_bins(n_bins)
        w = self.width / n_bins
        return self.lo + (np.arange(n_bins) + 0.5) * w


def _check_n_bins(n_bins: int) -> None:
    if not isinstance(n_bins, int) or n_bins < 2 or (n_bins & (n_bins - 1)) != 0:
        raise ValueError(f"n_bins must be a power of two >= 2, got {n_bins!r}")


@dataclass(frozen=True)
class DistSpec:
    """A named scalar distribution: normal, lognormal, or uniform.

    For normal, mu and sigma are the mean and standard deviation. For
    lognormal they are the mean and standard deviation of log(X). Uniform
    ignores both and spreads evenly over whatever domain it is binned on.
    """

    kind: str
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "lognormal", "uniform"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.kind != "uniform" and self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def _frozen_dist(spec: DistSpec):
    if spec.kind == "normal":
        return stats.norm(loc=spec.mu, scale=spec.sigma)
    if spec.kind == "lognormal":
        return stats.lognorm(s=spec.sigma, scale=math.exp(spec.mu))
    raise ValueError(f"no frozen form for kind {spec.kind!r}")


@dataclass(frozen=True)
class TargetDistribution:
    """Normalised histogram plus the binning it was computed on.

    ``provenance`` records how the target was produced (source, parameters,
    seeds, truncation policy) so downstream artifacts are self-describing.
    """

    probs: np.ndarray
    domain: Domain
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError(f"probs must be a vector, got shape {probs.shape}")
        _check_n_bins(probs.size)
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if probs.min() < 0.0:
            raise ValueError(f"probabilities must be nonnegative, min = {probs.min()}")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {SUM_TOL}, got {total!r}")
        probs = np.ascontiguousarray(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_bins(self) -> int:
        return self.probs.size

    @property
    def bin_edges(self) -> np.ndarray:
        return self.domain.bin_edges(self.n_bins)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.domain.bin_centers(self.n_bins)

    def to_json(self) -> str:
        payload = {
            "format_version": TARGET_FORMAT_VERSION,
            "lo": self.domain.lo,
            "hi": self.domain.hi,
            "n_bins": self.n_bins,
            "probs": [float(p) for p in self.probs],
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TargetDistribution":
        payload = json.loads(text)
        if payload.get("format_version") != TARGET_FORMAT_VERSION:
            raise ValueError(
                f"unsupported target format_version: {payload.get('format_version')!r}"
            )
        probs = np.asarray(payload["probs"], dtype=np.float64)
        if probs.size != payload["n_bins"]:
            raise ValueError("n_bins disagrees with probability count")
        return cls(probs, Domain(payload["lo"], payload["hi"]), dict(payload["provenance"]))


def analytic_histogram(spec: DistSpec, domain: Domain, n_bins: int) -> TargetDistribution:
    """Bin probabilities from CDF differences, renormalised over the domain.

    Raises UnrepresentableTargetError when the distribution puts less than
    1e-12 of its mass inside the domain.
    """
    _check_n_bins(n_bins)
    if spec.kind == "uniform":
        probs = np.full(n_bins, 1.0 / n_bins)
        mass = 1.0
    else:
        edges = domain.bin_edges(n_bins)
        cdf = _frozen_dist(spec).cdf(edges)
        raw = np.diff(cdf)
        mass = float(raw.sum())
        if mass < MIN_ANALYTIC_MASS:
            raise UnrepresentableTargetError(
                f"{spec.kind}(mu={spec.mu}, sigma={spec.sigma}) has mass {mass:.3e} "
                f"on ({domain.lo}, {domain.hi})"
            )
        probs = raw / mass
        probs = np.maximum(probs, 0.0)
        probs = probs / probs.sum()
    prov = {
        "source": "analytic",
        "kind": spec.kind,
        "mu": spec.mu,
        "sigma": spec.sigma,
        "in_domain_mass": mass,
    }
    return TargetDistribution(probs, domain, prov)


def _draw(spec: DistSpec, domain: Domain, rng: np.random.Generator, size: int) -> np.ndarray:
    if spec.kind == "normal":
        return rng.normal(spec.mu, spec.sigma, size)
    if spec.kind == "lognormal":
        return rng.lognormal(spec.mu, spec.sigma, size)
    return rng.uniform(domain.lo, domain.hi, size)


def sample_histogram(
    spec: DistSpec,
    domain: Domain,
    n_bins: int,
    n_samples: int,
    seed: int = 0,
) -> TargetDistribution:
    """Histogram of ``n_samples`` draws truncated to the domain by rejection.

    Out-of-domain draws are discarded and redrawn, so the result is an
    empirical estimate of the truncated distribution. Before sampling, the
    analytic in-domain mass is checked; below 1e-6 the rejection loop would
    effectively never terminate and the target is refused instead.
    """
    _check_n_bins(n_bins)
    if not isinstance(n_samples, int) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    if spec.kind == "uniform":
        accept = 1.0
    else:
        d = _frozen_dist(spec)
        accept = float(d.cdf(domain.hi) - d.cdf(domain.lo))
    if accept < MIN_ACCEPT_RATE:
        raise UnrepresentableTargetError(
            f"{spec.kind}(mu={spec.mu}, sigma={spec.sigma}) keeps only {accept:.3e} "
            f"of its mass on ({domain.lo}, {domain.hi}); refusing to sample"
        )
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    n_kept = 0
    while n_kept < n_samples:
        batch = _draw(spec, domain, rng, SAMPLE_BATCH)
        good = batch[(batch > domain.lo) & (batch < domain.hi)]
        kept.append(good)
        n_kept += good.size
    samples = np.concatenate(kept)[:n_samples]
    counts, _ = np.histogram(samples, bins=domain.bin_edges(n_bins))
    probs = counts / float(n_samples)
    prov = {
        "source": "sampled",
        "kind": spec.kind,
        "mu": spec.mu,
        "sigma": spec.sigma,
        "n_samples": n_samples,
        "seed": seed,
        "rng": "numpy-default-pcg64",
        "truncation": "reject-and-redraw",
        "accept_rate_analytic": accept,
    }
    return TargetDistribution(probs, domain, prov)


@dataclass(frozen=True)
class OptionSpec:
    """European call inputs. ``mu`` is the real-world drift of the
    underlying; when omitted it defaults to the risk-free rate."""

    s0: float
    strike: float
    rate: float
    vol: float
    maturity: float
    mu: float | None = None

    def __post_init__(self) -> None:
        for name in ("s0", "strike", "rate", "vol", "maturity"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.s0 <= 0.0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if self.strike < 0.0:
            raise ValueError(f"strike must be nonnegative, got {self.strike}")
        if self.vol < 0.0:
            raise ValueError(f"vol must be nonnegative, got {self.vol}")
        if self.maturity <= 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.mu is not None and not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")

    @property
    def effective_mu(self) -> float:
        return self.rate if self.mu is None else self.mu


def _maturity_law(opt: OptionSpec, sigma_reading: str) -> tuple[float, float]:
    """(sigma_T, alpha) of log(S_T) for the option under a sigma reading."""
    if sigma_reading not in ("total", "per-sqrt-time"):
        raise ValueError(f"sigma_reading must be 'total' or 'per-sqrt-time', got {sigma_reading!r}")
    sigma_t = opt.vol if sigma_reading == "total" else opt.vol * math.sqrt(opt.maturity)
    alpha = math.log(opt.s0) + (opt.effective_mu - opt.rate - 0.5 * sigma_t**2) * opt.maturity
    return sigma_t, alpha


def bs_lognormal_target(
    opt: OptionSpec,
    domain: Domain,
    n_bins: int,
    sigma_reading: str = "total",
) -> TargetDistribution:
    """Terminal-price lognormal implied by geometric Brownian motion.

    log(S_T) is normal with standard deviation sigma_T and mean
    alpha = log(s0) + (mu - rate - sigma_T**2 / 2) * maturity. The
    ``sigma_reading`` knob controls how the quoted vol is interpreted:
    "total" takes it as sigma_T directly, "per-sqrt-time" scales it by
    sqrt(maturity). Both readings are recorded in the provenance since the
    choice moves the histogram a lot at long maturities.
    """
    sigma_t, alpha = _maturity_law(opt, sigma_reading)
    _check_n_bins(n_bins)
    prov = {
        "source": "bs-lognormal",
        "s0": opt.s0,
        "strike": opt.strike,
        "rate": opt.rate,
        "vol": opt.vol,
        "maturity": opt.maturity,
        "mu": opt.effective_mu,
        "mu_equals_rate": opt.mu is None,
        "sigma_reading": sigma_reading,
        "sigma_t": sigma_t,
        "alpha": alpha,
    }
    if sigma_t == 0.0:
        point = math.exp(alpha)
        if not domain.lo < point < domain.hi:
            raise UnrepresentableTargetError(
                f"degenerate terminal price {point:.6g} lies outside ({domain.lo}, {domain.hi})"
            )
        edges = domain.bin_edges(n_bins)
        idx = min(int(np.searchsorted(edges, point, side="right")) - 1, n_bins - 1)
        probs = np.zeros(n_bins)
        probs[idx] = 1.0
        prov["truncation_tail_mass"] = 0.0
        return TargetDistribution(probs, domain, prov)
    base = analytic_histogram(DistSpec("lognormal", alpha, sigma_t), domain, n_bins)
    prov["truncation_tail_mass"] = 1.0 - base.provenance["in_domain_mass"]
    return TargetDistribution(base.probs, domain, prov)


def _parse_quote_rows(path: str) -> list[tuple[_dt.date, float]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise IngestFormatError(f"{path}: empty CSV")
            names = {name.strip(): name for name in reader.fieldnames}
            date_col = names.get("Date")
            close_col = names.get("Close") or names.get("Adj Close")
            if date_col is None or close_col is None:
                raise IngestFormatError(
                    f"{path}: need 'Date' and 'Close' (or 'Adj Close') columns, "
                    f"found {reader.fieldnames}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                raw_date = (row.get(date_col) or "").strip()
                raw_close = (row.get(close_col) or "").strip()
                try:
                    day = _dt.date.fromisoformat(raw_date)
                    close = float(raw_close)
                except ValueError as exc:
                    raise IngestFormatError(f"{path}:{lineno}: bad row ({exc})") from exc
                if not math.isfinite(close) or close <= 0.0:
                    raise IngestFormatError(f"{path}:{lineno}: close must be a positive price")
                rows.append((day, close))
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc
    return rows


def ingest_returns(
    path: str,
    domain: Domain,
    n_bins: int,
    window: tuple[str, str] | None = None,
    offset: float | None = None,
) -> TargetDistribution:
    """Histogram of daily percent returns from a CSV of closing prices.

    The CSV needs Date and Close (or Adj Close) columns with ISO dates.
    ``window`` restricts to an inclusive date range before differencing.
    Returns are shifted by ``offset`` to land inside the domain; by default
    the offset places the smallest return one bin width above lo. Shifted
    values outside [lo, hi] are dropped, and the count of dropped points is
    recorded in the provenance.
    """
    _check_n_bins(n_bins)
    rows = _parse_quote_rows(path)
    rows.sort(key=lambda r: r[0])
    if window is not None:
        start = _dt.date.fromisoformat(str(window[0]))
        end = _dt.date.fromisoformat(str(window[1]))
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        rows = [r for r in rows if start <= r[0] <= end]
    if len(rows) < 2:
        raise IngestFormatError(
            f"{path}: {len(rows)} usable rows in the requested window; need at least 2"
        )
    closes = np.array([c for _, c in rows])
    returns = (closes[1:] - closes[:-1]) / closes[:-1] * 100.0
    width = domain.width / n_bins
    if offset is None:
        offset = (domain.lo + width) - float(returns.min())
    mapped = returns + offset
    in_dom = mapped[(mapped >= domain.lo) & (mapped <= domain.hi)]
    if in_dom.size == 0:
        raise UnrepresentableTargetError(
            f"all {mapped.size} mapped returns fall outside ({domain.lo}, {domain.hi})"
        )
    counts, _ = np.histogram(in_dom, bins=domain.bin_edges(n_bins))
    probs = counts / float(in_dom.size)
    prov = {
        "source": "returns-csv",
        "path": path,
        "window": None if window is None else [str(window[0]), str(window[1])],
        "returns_unit": "percent-daily",
        "mapping": {"offset": float(offset), "scale": 1.0},
        "n_returns": int(returns.size),
        "n_binned": int(in_dom.size),
        "n_dropped": int(returns.size - in_dom.size),
    }
    return TargetDistribution(probs, domain, prov)
