import math

import numpy as np
import pytest

from ssqw import (
    DistSpec,
    Domain,
    OptionSpec,
    PriceGrid,
    analytic_histogram,
    bs_lognormal_target,
    expected_payoff,
    payoff_csv,
    payoff_report_json_dict,
    price_report,
)

import oracles

DOM = Domain(0.0, 15.0)


def test_grid_prices_are_bin_centers():
    grid = PriceGrid(DOM, 16)
    np.testing.assert_allclose(grid.prices, [(i + 0.5) * 15.0 / 16.0 for i in range(16)], atol=1e-12)
    assert np.all(np.diff(grid.prices) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        PriceGrid(DOM, 12)


def test_point_mass_payoff():
    # price 3.0 sits at the centre of bin 2 on (0.5, 8.5) with 8 bins
    grid = PriceGrid(Domain(0.5, 8.5), 8)
    probs = np.zeros(8)
    probs[2] = 1.0
    assert grid.prices[2] == 3.0
    assert expected_payoff(probs, grid, 2.0) == 1.0


def test_payoff_zero_when_strike_above_domain():
    rng = np.random.default_rng(2)
    probs = oracles.random_prob_vec(rng, 16)
    assert expected_payoff(probs, PriceGrid(DOM, 16), 20.0) == 0.0


def test_payoff_matches_fsum_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        probs = oracles.random_prob_vec(rng, 16)
        k = float(rng.uniform(0.0, 16.0))
        got = expected_payoff(probs, PriceGrid(DOM, 16), k)
        assert abs(got - oracles.expected_payoff_ref(probs, 0.0, 15.0, k)) <= 1e-14


def test_payoff_nonincreasing_in_strike():
    rng = np.random.default_rng(3)
    probs = oracles.random_prob_vec(rng, 16)
    grid = PriceGrid(DOM, 16)
    values = [expected_payoff(probs, grid, k) for k in np.linspace(0.0, 16.0, 40)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_payoff_linear_in_distribution():
    rng = np.random.default_rng(4)
    p = oracles.random_prob_vec(rng, 16)
    q = oracles.random_prob_vec(rng, 16)
    grid = PriceGrid(DOM, 16)
    for a in (0.0, 0.25, 0.5, 0.9, 1.0):
        mixed = expected_payoff(a * p + (1 - a) * q, grid, 5.0)
        split = a * expected_payoff(p, grid, 5.0) + (1 - a) * expected_payoff(q, grid, 5.0)
        assert abs(mixed - split) <= 1e-12


def test_payoff_dominated_by_asset_value():
    rng = np.random.default_rng(5)
    grid = PriceGrid(DOM, 16)
    for _ in range(20):
        probs = oracles.random_prob_vec(rng, 16)
        pay = expected_payoff(probs, grid, 1.0)
        assert 0.0 <= pay <= float(np.sum(probs * grid.prices)) + 1e-15


def test_payoff_shift_lipschitz_in_grid():
    rng = np.random.default_rng(6)
    probs = oracles.random_prob_vec(rng, 16)
    delta = 0.37
    base = expected_payoff(probs, PriceGrid(DOM, 16), 5.0)
    shifted = expected_payoff(probs, PriceGrid(Domain(0.0 + delta, 15.0 + delta), 16), 5.0)
    assert -1e-12 <= shifted - base <= delta + 1e-12


def test_payoff_length_mismatch():
    with pytest.raises(ValueError):
        expected_payoff(np.full(8, 1.0 / 8.0), PriceGrid(DOM, 16), 2.0)


def test_payoff_vs_mc_oracle_mid_domain():
    alpha = math.log(7.5) - 0.08
    target = analytic_histogram(DistSpec("lognormal", alpha, 0.4), DOM, 16)
    hist_pay = expected_payoff(target.probs, PriceGrid(DOM, 16), 2.0)
    mc_pay = oracles.mc_truncated_lognormal_payoff(alpha, 0.4, 0.0, 15.0, 2.0, 1_000_000, seed=77)
    assert abs(hist_pay - mc_pay) / mc_pay < 0.005


# ----------------------------------------------------------------- report


def test_price_report_zero_gap_for_identical_dists():
    target = analytic_histogram(DistSpec("lognormal", 1.9, 0.4), DOM, 16)
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    report = price_report(opt, target, np.array(target.probs))
    assert report.gap == 0.0
    assert report.payoff_target == report.payoff_trained


def test_price_report_per_bin_payoff():
    target = analytic_histogram(DistSpec("normal", 7.5, 2.0), DOM, 16)
    opt = OptionSpec(2.0, 3.0, 0.05, 0.4, 1.0)
    report = price_report(opt, target, target.probs)
    np.testing.assert_array_equal(
        report.per_bin_payoff, np.maximum(report.grid.prices - 3.0, 0.0)
    )
    assert report.payoff_target >= 0.0 and report.payoff_trained >= 0.0


def test_price_report_discount_flag():
    target = analytic_histogram(DistSpec("lognormal", 1.9, 0.4), DOM, 16)
    opt = OptionSpec(7.0, 2.0, 0.05, 0.4, 2.0)
    raw = price_report(opt, target, target.probs)
    disc = price_report(opt, target, target.probs, discount=True)
    factor = math.exp(-0.05 * 2.0)
    assert abs(disc.payoff_target - raw.payoff_target * factor) <= 1e-12
    assert disc.metadata["discount_factor"] == factor
    assert raw.metadata["discount_factor"] == 1.0


def test_price_report_truncation_metadata():
    # The target and the report take the tail mass from one formula, so
    # the two agree to the bit. For the second option, 1 minus the binned
    # in-domain mass and 1 minus the CDF difference at the domain's ends
    # differ in the last bits (5.631171069923058e-4, 5.631171069921947e-4).
    for opt, domain, n_bins, reading in (
        (OptionSpec(4.0, 2.0, 0.0, 0.9, 1.0), DOM, 16, "total"),
        (OptionSpec(100.0, 100.0, 0.03, 0.2, 1.0), Domain(50.0, 200.0), 64, "per-sqrt-time"),
    ):
        target = bs_lognormal_target(opt, domain, n_bins, sigma_reading=reading)
        report = price_report(opt, target, target.probs, sigma_reading=reading)
        assert report.metadata["truncation_tail_mass"] == target.provenance["truncation_tail_mass"]
        assert report.metadata["truncation_tail_mass"] > 0.0
        assert report.metadata["grid_mapping"] == "bin-center"
        assert report.metadata["mu_equals_rate"] is True


def test_price_report_reference_annotation_mismatch():
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    target = bs_lognormal_target(opt, DOM, 16)
    report = price_report(opt, target, target.probs, reference_payoff=5.5342)
    assert report.metadata["reference_payoff"] == 5.5342
    assert report.metadata["reference_relative_gap"] > 0.05
    assert "reference_note" in report.metadata


def test_price_report_reference_annotation_match():
    target = analytic_histogram(DistSpec("lognormal", 1.9, 0.4), DOM, 16)
    opt = OptionSpec(7.0, 2.0, 0.05, 0.4, 1.0)
    base = price_report(opt, target, target.probs)
    report = price_report(opt, target, target.probs, reference_payoff=base.payoff_target * 1.01)
    assert report.metadata["reference_relative_gap"] < 0.05
    assert "reference_note" not in report.metadata


@pytest.mark.parametrize("reference", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_price_report_refuses_a_non_finite_reference(reference):
    # Each was accepted, and the report JSON wrote it as a bare NaN or
    # Infinity, which is not JSON.
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    target = bs_lognormal_target(opt, DOM, 16)
    with pytest.raises(ValueError, match="^reference_payoff must be finite"):
        price_report(opt, target, target.probs, reference_payoff=reference)


def test_price_report_shape_mismatch():
    target = analytic_histogram(DistSpec("normal", 7.5, 2.0), DOM, 16)
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 1.0)
    with pytest.raises(ValueError):
        price_report(opt, target, np.full(8, 1.0 / 8.0))


BAD_TRAINED = {
    # Each was priced before it was refused, below at strike 2: all-NaN at
    # NaN, which the report JSON wrote as a bare NaN, not JSON; 16 x 5.0
    # at 450.6; and -q at -5.01, a negative call payoff.
    "nan": (lambda q: np.full(q.size, math.nan), "must be finite"),
    "mass-80": (lambda q: np.full(q.size, 5.0), "must sum to 1"),
    "negated": (lambda q: -q, "must be nonnegative"),
}


@pytest.mark.parametrize("case", list(BAD_TRAINED))
def test_price_report_refuses_a_trained_vector_that_is_no_distribution(case):
    target = analytic_histogram(DistSpec("lognormal", 1.9, 0.4), DOM, 16)
    opt = OptionSpec(7.0, 2.0, 0.05, 0.4, 1.0)
    make, needle = BAD_TRAINED[case]
    with pytest.raises(ValueError, match=f"^trained probabilities {needle}"):
        price_report(opt, target, make(target.probs))


@pytest.mark.parametrize("case", list(BAD_TRAINED))
def test_expected_payoff_refuses_a_vector_that_is_no_distribution(case):
    target = analytic_histogram(DistSpec("lognormal", 1.9, 0.4), DOM, 16)
    make, needle = BAD_TRAINED[case]
    with pytest.raises(ValueError, match=f"^probabilities {needle}"):
        expected_payoff(make(target.probs), PriceGrid(DOM, 16), 2.0)


def test_payoff_report_json_and_csv():
    target = analytic_histogram(DistSpec("lognormal", 1.9, 0.4), DOM, 16)
    opt = OptionSpec(7.0, 2.0, 0.05, 0.4, 1.0)
    report = price_report(opt, target, target.probs, reference_payoff=5.5342)
    payload = payoff_report_json_dict(report)
    assert payload["format_version"] == 1
    assert payload["option"]["mu"] == 0.05
    assert len(payload["per_bin_payoff"]) == 16
    text = payoff_csv(report, target.probs, target.probs)
    lines = text.strip().split("\n")
    assert lines[0] == "bin,price,p_target,p_trained,payoff"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[1]) == report.grid.prices[0]
    assert float(first[4]) == report.per_bin_payoff[0]


_TARGET = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
_REPORT = price_report(OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0), _TARGET, _TARGET.probs)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: expected_payoff(np.full(16, 1 / 16), PriceGrid(DOM, 16), -1.0),
            "strike must be finite and nonnegative, got -1.0",
        ),
        (
            lambda: expected_payoff(np.full(16, 1 / 16), PriceGrid(DOM, 16), math.nan),
            "strike must be finite and nonnegative, got nan",
        ),
        (
            lambda: payoff_csv(_REPORT, _TARGET.probs, _TARGET.probs[:-1]),
            "distribution lengths disagree with the grid",
        ),
    ],
    ids=["negative-strike", "nan-strike", "csv-lengths"],
)
def test_boundary_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()

