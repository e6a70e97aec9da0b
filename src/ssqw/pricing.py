"""European call payoffs evaluated on a binned price grid.

Bin index i is identified with the price at the centre of bin i, so a
histogram over (lo, hi) prices the payoff as a plain dot product with
max(price - strike, 0). Payoffs are undiscounted unless asked for,
matching an expectation taken directly at maturity.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .target import Domain, OptionSpec, TargetDistribution, _check_n_bins, _maturity_law

REPORT_FORMAT_VERSION = 1

REFERENCE_AGREEMENT_RTOL = 0.05
ZERO_PAYOFF_ATOL = 1e-12


@dataclass(frozen=True)
class PriceGrid:
    """Uniform bin-centre prices over a domain."""

    domain: Domain
    n_bins: int

    def __post_init__(self) -> None:
        _check_n_bins(self.n_bins)

    @property
    def prices(self) -> np.ndarray:
        return self.domain.bin_centers(self.n_bins)


def expected_payoff(probs: np.ndarray, grid: PriceGrid, strike: float) -> float:
    """Sum of p_i * max(price_i - strike, 0). Nonnegative by construction."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size != grid.n_bins:
        raise ValueError(f"distribution has {probs.shape} entries but grid has {grid.n_bins} bins")
    if not math.isfinite(strike) or strike < 0.0:
        raise ValueError(f"strike must be finite and nonnegative, got {strike!r}")
    payoff = np.maximum(grid.prices - strike, 0.0)
    return float(np.sum(probs * payoff))


@dataclass
class PayoffReport:
    option: OptionSpec
    grid: PriceGrid
    payoff_target: float
    payoff_trained: float
    gap: float
    per_bin_payoff: np.ndarray
    discounted: bool
    metadata: dict = field(default_factory=dict)


def _lognormal_tail_mass(sigma_t: float, alpha: float, domain: Domain) -> float:
    if sigma_t == 0.0:
        point = math.exp(alpha)
        inside = 1.0 if domain.lo < point < domain.hi else 0.0
        return 1.0 - inside
    d = stats.lognorm(s=sigma_t, scale=math.exp(alpha))
    return float(1.0 - (d.cdf(domain.hi) - d.cdf(domain.lo)))


def price_report(
    option: OptionSpec,
    target: TargetDistribution,
    trained: np.ndarray,
    discount: bool = False,
    sigma_reading: str = "total",
    reference_payoff: float | None = None,
) -> PayoffReport:
    """Payoffs of the target histogram and a trained distribution side by side.

    The report carries the truncation tail mass of the lognormal implied by
    the option inputs, since probability outside the grid silently biases
    the binned payoff low. When ``reference_payoff`` is given, the relative
    gap against the target payoff is recorded; disagreement beyond 5% is
    annotated rather than treated as an error, because a quoted reference
    depends on the sigma reading and index-to-price mapping its source used.
    """
    sigma_t, alpha = _maturity_law(option, sigma_reading)
    trained = np.asarray(trained, dtype=np.float64)
    if trained.shape != target.probs.shape:
        raise ValueError(
            f"trained distribution has shape {trained.shape} but target has {target.probs.shape}"
        )
    grid = PriceGrid(target.domain, target.n_bins)
    pay_t = expected_payoff(target.probs, grid, option.strike)
    pay_w = expected_payoff(trained, grid, option.strike)
    factor = 1.0
    if discount:
        factor = math.exp(-option.rate * option.maturity)
        pay_t *= factor
        pay_w *= factor
    tail = _lognormal_tail_mass(sigma_t, alpha, target.domain)
    metadata = {
        "grid_mapping": "bin-center",
        "sigma_reading": sigma_reading,
        "sigma_t": sigma_t,
        "alpha": alpha,
        "mu_equals_rate": option.mu is None,
        "truncation_tail_mass": tail,
        "discount_factor": factor,
    }
    if reference_payoff is not None:
        metadata["reference_payoff"] = reference_payoff
        denom = max(abs(reference_payoff), ZERO_PAYOFF_ATOL)
        rel = abs(pay_t - reference_payoff) / denom
        metadata["reference_relative_gap"] = rel
        if rel > REFERENCE_AGREEMENT_RTOL:
            metadata["reference_note"] = (
                "target payoff differs from the reference by more than 5%; the "
                "reference likely assumes a different sigma reading, drift, or "
                "index-to-price mapping than this grid"
            )
    return PayoffReport(
        option=option,
        grid=grid,
        payoff_target=pay_t,
        payoff_trained=pay_w,
        gap=pay_w - pay_t,
        per_bin_payoff=np.maximum(grid.prices - option.strike, 0.0),
        discounted=discount,
        metadata=metadata,
    )


def payoff_report_json_dict(report: PayoffReport) -> dict:
    opt = report.option
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "option": {
            "s0": opt.s0,
            "strike": opt.strike,
            "rate": opt.rate,
            "vol": opt.vol,
            "maturity": opt.maturity,
            "mu": opt.effective_mu,
        },
        "grid": {"lo": report.grid.domain.lo, "hi": report.grid.domain.hi, "n_bins": report.grid.n_bins},
        "payoff_target": report.payoff_target,
        "payoff_trained": report.payoff_trained,
        "gap": report.gap,
        "discounted": report.discounted,
        "per_bin_payoff": [float(v) for v in report.per_bin_payoff],
        "metadata": report.metadata,
    }


def payoff_report_to_json(report: PayoffReport) -> str:
    return json.dumps(payoff_report_json_dict(report), indent=2) + "\n"


def payoff_csv(report: PayoffReport, p_target: np.ndarray, p_trained: np.ndarray) -> str:
    """Per-bin plot data: price, both distributions, and the bin payoff."""
    p_target = np.asarray(p_target, dtype=np.float64)
    p_trained = np.asarray(p_trained, dtype=np.float64)
    n = report.grid.n_bins
    if p_target.size != n or p_trained.size != n:
        raise ValueError("distribution lengths disagree with the grid")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin", "price", "p_target", "p_trained", "payoff"])
    prices = report.grid.prices
    for i in range(n):
        writer.writerow(
            [i, repr(float(prices[i])), repr(float(p_target[i])), repr(float(p_trained[i])),
             repr(float(report.per_bin_payoff[i]))]
        )
    return buf.getvalue()
