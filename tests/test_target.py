import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssqw import (
    DistSpec,
    Domain,
    IngestFormatError,
    OptionSpec,
    TargetDistribution,
    UnrepresentableTargetError,
    analytic_histogram,
    bs_lognormal_target,
    ingest_returns,
    sample_histogram,
)
from ssqw.pricing import _lognormal_tail_mass
from ssqw.statevector import MAX_POSITION_QUBITS
from ssqw.target import _cdf, _check_n_bins

import oracles

DOM = Domain(0.0, 15.0)


def write_quotes(path, rows):
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for day, close in rows:
        lines.append(f"{day},1,1,1,{close},{close},1000")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ----------------------------------------------------------------- domain


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain(2.0, 1.0)
    with pytest.raises(ValueError):
        Domain(0.0, math.inf)


def test_domain_whose_width_overflows_is_refused():
    # Both bounds are finite, but hi - lo is inf: the edges would hold nan
    # and the centres inf.
    with pytest.raises(ValueError, match="width hi - lo overflows"):
        Domain(-1e308, 1e308)
    assert Domain(-8e307, 8e307).width == 1.6e308


def test_numpy_integer_bin_count_builds_the_same_target():
    # A numpy integer is a bin count, as it is a site or a qubit count; a
    # bool, a numpy bool and a float are not.
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    for n in (np.int64(16), np.int32(16), np.uint64(16)):
        assert analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, n).to_json() == (
            analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16).to_json()
        )
        assert analytic_histogram(DistSpec("uniform", 0.0, 1.0), DOM, n).to_json() == (
            analytic_histogram(DistSpec("uniform", 0.0, 1.0), DOM, 16).to_json()
        )
        assert bs_lognormal_target(opt, Domain(0.0, 8.0), n).to_json() == (
            bs_lognormal_target(opt, Domain(0.0, 8.0), 16).to_json()
        )
        assert np.array_equal(DOM.bin_edges(n), DOM.bin_edges(16))
        assert np.array_equal(DOM.bin_centers(n), DOM.bin_centers(16))
    for n in (True, np.bool_(True), 16.0, np.float64(16.0)):
        with pytest.raises(ValueError, match="n_bins must be a power of two >= 2"):
            analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, n)


def test_n_bins_above_the_walks_cap_is_refused_before_any_allocation():
    # No walk loads more than 2**MAX_POSITION_QUBITS positions, so no
    # target of more bins is built: the check is on the integer alone.
    assert MAX_POSITION_QUBITS == 24
    tracemalloc.start()
    try:
        _check_n_bins(1 << 24)
        with pytest.raises(ValueError, match=r"at most 2\*\*24.*got 33554432"):
            _check_n_bins(1 << 25)
        with pytest.raises(ValueError, match=r"at most 2\*\*24"):
            DOM.bin_edges(1 << 36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_domain_edges_and_centers():
    edges = DOM.bin_edges(16)
    assert edges[0] == 0.0 and edges[-1] == 15.0
    np.testing.assert_allclose(np.diff(edges), 15.0 / 16.0, atol=1e-12)
    centers = DOM.bin_centers(16)
    np.testing.assert_allclose(centers[0], 15.0 / 32.0, atol=1e-15)
    np.testing.assert_allclose(centers, (edges[:-1] + edges[1:]) / 2.0, atol=1e-12)


def test_dist_spec_validation():
    with pytest.raises(ValueError):
        DistSpec("cauchy", 0.0, 1.0)
    with pytest.raises(ValueError):
        DistSpec("normal", 0.0, 0.0)
    with pytest.raises(ValueError):
        DistSpec("lognormal", 0.0, -1.0)


def test_target_distribution_validation():
    with pytest.raises(ValueError):
        TargetDistribution(np.array([0.5, 0.6]), DOM)
    with pytest.raises(ValueError):
        TargetDistribution(np.array([1.2, -0.2]), DOM)
    with pytest.raises(ValueError):
        TargetDistribution(np.full(12, 1.0 / 12.0), DOM)


def test_target_json_roundtrip_exact():
    t = analytic_histogram(DistSpec("normal", 7.5, 2.0), DOM, 16)
    back = TargetDistribution.from_json(t.to_json())
    np.testing.assert_array_equal(back.probs, t.probs)
    assert back.domain == t.domain
    assert back.provenance == t.provenance


# --------------------------------------------------------------- analytic


def test_analytic_normal_matches_erf_oracle():
    t = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
    expect, mass = oracles.analytic_histogram_ref("normal", 7.5, 1.875, 0.0, 15.0, 16)
    np.testing.assert_allclose(t.probs, expect, atol=1e-12)
    assert abs(t.provenance["in_domain_mass"] - mass) < 1e-12
    assert abs(t.probs.sum() - 1.0) <= 1e-9


def test_analytic_lognormal_matches_erf_oracle():
    t = analytic_histogram(DistSpec("lognormal", 1.89, 0.5), DOM, 16)
    expect, _ = oracles.analytic_histogram_ref("lognormal", 1.89, 0.5, 0.0, 15.0, 16)
    np.testing.assert_allclose(t.probs, expect, atol=1e-12)


def test_analytic_normal_symmetric_about_midpoint():
    t = analytic_histogram(DistSpec("normal", 7.5, 1.5), DOM, 16)
    for i in range(16):
        assert abs(t.probs[i] - t.probs[15 - i]) <= 1e-12


def test_analytic_uniform_flat():
    t = analytic_histogram(DistSpec("uniform"), DOM, 16)
    np.testing.assert_array_equal(t.probs, np.full(16, 1.0 / 16.0))


def test_analytic_unrepresentable_raises():
    with pytest.raises(UnrepresentableTargetError):
        analytic_histogram(DistSpec("normal", 1000.0, 0.1), DOM, 16)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(-5.0, 20.0),
    sigma=st.floats(0.05, 10.0),
    kind=st.sampled_from(["normal", "lognormal"]),
)
def test_analytic_histogram_type_invariants(mu, sigma, kind):
    try:
        t = analytic_histogram(DistSpec(kind, mu, sigma), DOM, 16)
    except UnrepresentableTargetError:
        return
    assert t.probs.min() >= 0.0
    assert abs(t.probs.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(np.diff(t.bin_edges), 15.0 / 16.0, atol=1e-12)


# -------------------------------------------------------------------- cdf

# SciPy is a test-only oracle for the package's own erf/erfc CDF.
CDF_RTOL, CDF_ATOL = 1e-13, 1e-300


def _scipy_cdf(spec, x):
    from scipy import stats

    if spec.kind == "normal":
        return stats.norm(loc=spec.mu, scale=spec.sigma).cdf(x)
    return stats.lognorm(s=spec.sigma, scale=math.exp(spec.mu)).cdf(x)


def test_normal_cdf_matches_scipy_on_both_tails():
    z = np.linspace(-37.0, 37.0, 20001)
    for mu, sigma in ((0.0, 1.0), (7.5, 1.875), (-3.0, 1e-3), (2.0, 5.0)):
        spec = DistSpec("normal", mu, sigma)
        x = mu + sigma * z
        got = _cdf(spec, x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, _scipy_cdf(spec, x), rtol=CDF_RTOL, atol=CDF_ATOL)
    # Deep in the lower tail the CDF is tiny but not 0: erfc, not 1 + erf.
    assert 0.0 < _cdf(DistSpec("normal"), -37.0) < 1e-298


def test_lognormal_cdf_matches_scipy_at_and_below_zero():
    z = np.linspace(-37.0, 37.0, 4001)
    for mu, sigma in ((1.89, 0.5), (0.0, 1e-3), (-2.0, 5.0), (math.log(7.5) - 0.125, 0.5)):
        spec = DistSpec("lognormal", mu, sigma)
        x = np.concatenate(
            [[-15.0, -1e-300, 0.0, 5e-324, 1e-300, 1e-12], np.exp(mu + sigma * z)]
        )
        got = _cdf(spec, x)
        np.testing.assert_allclose(got, _scipy_cdf(spec, x), rtol=CDF_RTOL, atol=CDF_ATOL)
        assert np.all(got[:3] == 0.0)


def test_lognormal_cdf_with_an_overflowing_scale_is_zero():
    # exp(800) overflows a float; like SciPy's lognorm(scale=inf), every
    # finite edge then has CDF 0 instead of raising OverflowError.
    spec = DistSpec("lognormal", 800.0, 1.0)
    x = np.array([-1.0, 0.0, 5e-324, 1.0, 15.0, 1e300])
    assert np.array_equal(_cdf(spec, x), np.zeros(x.size))
    assert _cdf(spec, 15.0) == 0.0


def test_an_overflowing_log_mean_names_its_flags():
    # (mu - r - sigma^2 / 2) * T overflows through the product with T, not
    # through sigma_T^2: the error names the flags alpha comes from.
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 1e308, mu=10.0)
    message = "alpha of log\\(S_T\\) overflows to inf .check --t, --mu-drift and --r"
    with pytest.raises(ValueError, match=message):
        bs_lognormal_target(opt, DOM, 16)
    # Read per sqrt(T), sigma_T^2 / 2 = 8e306 outweighs the drift.
    with pytest.raises(ValueError, match="overflows to -inf"):
        bs_lognormal_target(opt, DOM, 16, sigma_reading="per-sqrt-time")


def test_scalar_cdf_calls_match_scipy():
    # The scalar calls made by sample_histogram's acceptance rate and by
    # pricing's truncation tail mass, at the stock targets' domain.
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    bs = bs_lognormal_target(opt, DOM, 16).provenance
    specs = (
        DistSpec("normal", 7.5, 1.875),
        DistSpec("lognormal", math.log(7.5) - 0.125, 0.5),
        DistSpec("lognormal", bs["alpha"], bs["sigma_t"]),
    )
    for spec in specs:
        for edge in (DOM.lo, DOM.hi):
            got = _cdf(spec, edge)
            assert got.shape == ()
            np.testing.assert_allclose(got, _scipy_cdf(spec, edge), rtol=CDF_RTOL, atol=CDF_ATOL)
        inside = _scipy_cdf(spec, DOM.hi) - _scipy_cdf(spec, DOM.lo)
        accept = sample_histogram(spec, DOM, 16, 10, seed=0).provenance["accept_rate_analytic"]
        assert abs(accept - inside) <= 1e-15
        if spec.kind == "lognormal":
            tail = _lognormal_tail_mass(spec.sigma, spec.mu, DOM)
            assert abs(tail - (1.0 - inside)) <= 1e-15


def test_analytic_histograms_match_scipy_binning():
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    bs = bs_lognormal_target(opt, DOM, 16)
    cases = [
        (DistSpec("normal", 7.5, 1.875), 16),
        (DistSpec("lognormal", math.log(7.5) - 0.125, 0.5), 16),
        (DistSpec("lognormal", bs.provenance["alpha"], bs.provenance["sigma_t"]), 16),
        (DistSpec("normal", 7.5, 1.875), 1 << 12),
    ]
    for spec, n_bins in cases:
        raw = np.diff(_scipy_cdf(spec, DOM.bin_edges(n_bins)))
        expect = np.maximum(raw / raw.sum(), 0.0)
        expect = expect / expect.sum()
        got = analytic_histogram(spec, DOM, n_bins).probs
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)


# ---------------------------------------------------------------- sampled


def test_sampled_determinism_and_seed_sensitivity():
    spec = DistSpec("normal", 7.5, 2.0)
    a = sample_histogram(spec, DOM, 16, 5000, seed=42)
    b = sample_histogram(spec, DOM, 16, 5000, seed=42)
    np.testing.assert_array_equal(a.probs, b.probs)
    c = sample_histogram(spec, DOM, 16, 5000, seed=43)
    assert not np.array_equal(a.probs, c.probs)


def test_sampled_counts_are_integral():
    t = sample_histogram(DistSpec("lognormal", 1.8, 0.6), DOM, 16, 4096, seed=9)
    counts = t.probs * 4096
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
    assert abs(t.probs.sum() - 1.0) <= 1e-9


def test_sampled_normal_argmax_near_center():
    t = sample_histogram(DistSpec("normal", 7.5, 0.5), DOM, 16, 100000, seed=1)
    assert int(np.argmax(t.probs)) in (7, 8)


def test_sampled_degenerate_lognormal_single_bin():
    # median 7.7 sits mid-bin, so a tiny log-std concentrates everything
    t = sample_histogram(DistSpec("lognormal", math.log(7.7), 0.003), DOM, 16, 20000, seed=3)
    assert t.probs[8] == 1.0


def test_sampled_matches_analytic_at_scale():
    spec = DistSpec("normal", 7.5, 2.5)
    analytic = analytic_histogram(spec, DOM, 16)
    sampled = sample_histogram(spec, DOM, 16, 10_000_000, seed=12)
    assert np.abs(sampled.probs - analytic.probs).max() < 2e-3


def test_sampled_error_shrinks_with_n():
    # fixed seeds make this deterministic; expected decay is 1/sqrt(n),
    # asserted with a wide band
    spec = DistSpec("lognormal", 1.9, 0.45)
    analytic = analytic_histogram(spec, DOM, 16)

    def err(n, seed):
        return np.abs(sample_histogram(spec, DOM, 16, n, seed).probs - analytic.probs).max()

    d_small = err(4000, 21)
    d_big = err(64000, 22)
    assert d_big < 0.6 * d_small


def test_sampled_unrepresentable_raises():
    with pytest.raises(UnrepresentableTargetError):
        sample_histogram(DistSpec("normal", 50.0, 1.0), DOM, 16, 1000, seed=0)


def test_sampled_validation():
    with pytest.raises(ValueError):
        sample_histogram(DistSpec("normal", 7.5, 1.0), DOM, 16, 0, seed=0)
    with pytest.raises(ValueError):
        sample_histogram(DistSpec("normal", 7.5, 1.0), DOM, 17, 100, seed=0)
    # True would be recorded as "seed": true, and numpy's own error for a
    # negative seed does not name it.
    for seed in (True, False, -1, 1.5):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_histogram(DistSpec("normal", 7.5, 1.0), DOM, 16, 100, seed=seed)
    for n_samples in (True, 2.0):
        with pytest.raises(ValueError, match="n_samples must be a positive integer"):
            sample_histogram(DistSpec("normal", 7.5, 1.0), DOM, 16, n_samples, seed=0)
    assert sample_histogram(DistSpec("normal", 7.5, 1.0), DOM, 16, 100, seed=0).provenance["seed"] == 0


def test_numpy_integer_sample_counts_give_the_plain_ints_target():
    # A numpy integer sample count or seed is taken, and recorded in the
    # provenance as a Python int, which to_json writes; a bool, a numpy
    # bool and a float are still refused.
    spec = DistSpec("normal", 7.5, 1.0)
    want = sample_histogram(spec, DOM, 16, 100, seed=3).to_json()
    for kind in (np.int64, np.int32):
        assert sample_histogram(spec, DOM, 16, kind(100), seed=3).to_json() == want
        assert sample_histogram(spec, DOM, 16, 100, seed=kind(3)).to_json() == want
        target = sample_histogram(spec, DOM, 16, kind(100), seed=kind(3))
        assert [type(target.provenance[k]) for k in ("n_samples", "seed")] == [int, int]
    for value in (True, np.bool_(True), 7.0):
        with pytest.raises(ValueError, match="n_samples must be a positive integer"):
            sample_histogram(spec, DOM, 16, value, seed=0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_histogram(spec, DOM, 16, 100, seed=value)


def test_sampled_provenance_records_rng():
    t = sample_histogram(DistSpec("uniform"), DOM, 16, 256, seed=5)
    assert t.provenance["rng"] == "numpy-default-pcg64"
    assert t.provenance["seed"] == 5
    assert t.provenance["truncation"] == "reject-and-redraw"


# --------------------------------------------------------------------- bs


def test_bs_target_stock_example_shape():
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)
    t = bs_lognormal_target(opt, DOM, 16)
    assert abs(t.provenance["sigma_t"] - 0.4) < 1e-15
    assert abs(t.provenance["alpha"] - (math.log(2.0) - 3.2)) < 1e-12
    assert t.provenance["mu_equals_rate"] is True
    # sigma-as-given with T=40 drives essentially all mass into the lowest bin
    assert t.probs[0] > 0.999999


def test_bs_target_sigma_readings_differ():
    opt = OptionSpec(4.0, 2.0, 0.0, 0.3, 4.0)
    total = bs_lognormal_target(opt, DOM, 16, sigma_reading="total")
    scaled = bs_lognormal_target(opt, DOM, 16, sigma_reading="per-sqrt-time")
    assert abs(total.provenance["sigma_t"] - 0.3) < 1e-15
    assert abs(scaled.provenance["sigma_t"] - 0.6) < 1e-15
    assert not np.array_equal(total.probs, scaled.probs)


def test_bs_target_doubling_maturity_scales_sigma():
    opt1 = OptionSpec(4.0, 2.0, 0.0, 0.3, 2.0)
    opt2 = OptionSpec(4.0, 2.0, 0.0, 0.3, 4.0)
    a = bs_lognormal_target(opt1, DOM, 16, sigma_reading="per-sqrt-time")
    b = bs_lognormal_target(opt2, DOM, 16, sigma_reading="per-sqrt-time")
    assert abs(b.provenance["sigma_t"] / a.provenance["sigma_t"] - math.sqrt(2.0)) < 1e-12


def test_bs_target_matches_plain_lognormal():
    opt = OptionSpec(4.0, 2.0, 0.02, 0.35, 3.0)
    t = bs_lognormal_target(opt, DOM, 16)
    alpha = math.log(4.0) - 0.5 * 0.35**2 * 3.0
    plain = analytic_histogram(DistSpec("lognormal", alpha, 0.35), DOM, 16)
    np.testing.assert_allclose(t.probs, plain.probs, atol=1e-15)


def test_bs_target_explicit_drift():
    opt = OptionSpec(2.0, 2.0, 0.05, 0.4, 10.0, mu=0.1)
    t = bs_lognormal_target(opt, DOM, 16)
    expect_alpha = math.log(2.0) + (0.1 - 0.05 - 0.08) * 10.0
    assert abs(t.provenance["alpha"] - expect_alpha) < 1e-12
    assert t.provenance["mu_equals_rate"] is False


def test_bs_target_zero_vol_point_mass():
    opt = OptionSpec(2.0, 2.0, 0.05, 0.0, 40.0)
    t = bs_lognormal_target(opt, DOM, 16)
    # sigma_t = 0 and mu = r leave the forward price at s0 = 2.0, bin 2
    assert t.probs[2] == 1.0
    assert t.provenance["truncation_tail_mass"] == 0.0


def test_bs_target_zero_vol_outside_domain():
    opt = OptionSpec(20.0, 2.0, 0.0, 0.0, 1.0)
    with pytest.raises(UnrepresentableTargetError):
        bs_lognormal_target(opt, DOM, 16)


def test_bs_target_truncation_tail_matches_oracle():
    opt = OptionSpec(4.0, 2.0, 0.0, 0.9, 1.0)
    t = bs_lognormal_target(opt, DOM, 16)
    alpha = t.provenance["alpha"]
    inside = oracles.lognormal_cdf_ref(15.0, alpha, 0.9) - oracles.lognormal_cdf_ref(0.0, alpha, 0.9)
    assert abs(t.provenance["truncation_tail_mass"] - (1.0 - inside)) < 1e-12


def test_option_spec_validation():
    with pytest.raises(ValueError):
        OptionSpec(-1.0, 2.0, 0.05, 0.4, 40.0)
    with pytest.raises(ValueError):
        OptionSpec(2.0, -2.0, 0.05, 0.4, 40.0)
    with pytest.raises(ValueError):
        OptionSpec(2.0, 2.0, 0.05, -0.4, 40.0)
    with pytest.raises(ValueError):
        OptionSpec(2.0, 2.0, 0.05, 0.4, 0.0)


# ----------------------------------------------------------------- ingest


def test_ingest_two_closes_single_return(tmp_path):
    path = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    t = ingest_returns(path, DOM, 16)
    assert np.sum(t.probs == 1.0) == 1
    assert t.provenance["n_returns"] == 1
    assert t.provenance["n_binned"] == 1


def test_ingest_constant_series_single_bin(tmp_path):
    rows = [(f"2024-01-{d:02d}", 50.0) for d in range(2, 8)]
    path = write_quotes(tmp_path / "q.csv", rows)
    t = ingest_returns(path, DOM, 16)
    assert np.sum(t.probs == 1.0) == 1
    assert t.provenance["n_returns"] == 5


def test_ingest_three_rows_two_returns(tmp_path):
    path = write_quotes(
        tmp_path / "q.csv",
        [("2024-01-02", 100.0), ("2024-01-03", 102.0), ("2024-01-04", 101.0)],
    )
    t = ingest_returns(path, DOM, 16)
    assert t.provenance["n_returns"] == 2
    assert t.provenance["n_binned"] == 2
    assert abs(t.probs.sum() - 1.0) <= 1e-9


def test_ingest_default_offset_places_min_above_lo(tmp_path):
    path = write_quotes(
        tmp_path / "q.csv",
        [("2024-01-02", 100.0), ("2024-01-03", 104.0), ("2024-01-04", 102.0)],
    )
    t = ingest_returns(path, DOM, 16)
    offset = t.provenance["mapping"]["offset"]
    returns = np.array([4.0, (102.0 - 104.0) / 104.0 * 100.0])
    width = 15.0 / 16.0
    assert abs((returns.min() + offset) - (0.0 + width)) < 1e-9
    assert t.provenance["n_dropped"] == 0


def test_ingest_binning_matches_oracle(tmp_path):
    closes = [100.0, 103.0, 99.5, 101.2, 104.7, 104.0, 108.3]
    rows = [(f"2024-02-{d:02d}", c) for d, c in zip(range(1, 8), closes)]
    path = write_quotes(tmp_path / "q.csv", rows)
    t = ingest_returns(path, DOM, 16, offset=5.0)
    arr = np.array(closes)
    returns = (arr[1:] - arr[:-1]) / arr[:-1] * 100.0
    counts, kept = oracles.histogram_ref(returns + 5.0, 0.0, 15.0, 16)
    np.testing.assert_allclose(t.probs, np.array(counts) / kept, atol=1e-15)


def test_ingest_window_filters_rows(tmp_path):
    rows = [(f"2024-03-{d:02d}", 100.0 + d) for d in range(1, 8)]
    path = write_quotes(tmp_path / "q.csv", rows)
    t = ingest_returns(path, DOM, 16, window=("2024-03-02", "2024-03-04"))
    assert t.provenance["n_returns"] == 2
    assert t.provenance["window"] == ["2024-03-02", "2024-03-04"]


def test_ingest_empty_window_raises(tmp_path):
    path = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    with pytest.raises(IngestFormatError):
        ingest_returns(path, DOM, 16, window=("2030-01-01", "2030-02-01"))
    with pytest.raises(IngestFormatError):
        ingest_returns(path, DOM, 16, window=("2024-01-03", "2024-01-03"))


def test_ingest_missing_columns_raises(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("Date,Price\n2024-01-02,10\n")
    with pytest.raises(IngestFormatError):
        ingest_returns(str(p), DOM, 16)


def test_ingest_garbage_row_raises(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("Date,Close\n2024-01-02,10\nnot-a-date,11\n")
    with pytest.raises(IngestFormatError):
        ingest_returns(str(p), DOM, 16)


def test_ingest_nonpositive_close_raises(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("Date,Close\n2024-01-02,10\n2024-01-03,0\n")
    with pytest.raises(IngestFormatError):
        ingest_returns(str(p), DOM, 16)


def test_ingest_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        ingest_returns("/nonexistent/quotes.csv", DOM, 16)


def test_ingest_adj_close_fallback(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text("Date,Adj Close\n2024-01-02,100\n2024-01-03,101\n")
    t = ingest_returns(str(p), DOM, 16)
    assert t.provenance["n_returns"] == 1


def test_ingest_offset_out_of_domain_raises(tmp_path):
    path = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    with pytest.raises(UnrepresentableTargetError):
        ingest_returns(path, DOM, 16, offset=1000.0)


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_ingest_non_finite_offset_is_a_plain_value_error(tmp_path, offset):
    path = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    with pytest.raises(ValueError, match="offset must be a finite number") as info:
        ingest_returns(path, DOM, 16, offset=offset)
    assert not isinstance(info.value, UnrepresentableTargetError)


def test_ingest_json_provenance_roundtrip(tmp_path):
    path = write_quotes(
        tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0), ("2024-01-04", 99.0)]
    )
    t = ingest_returns(path, DOM, 16)
    back = TargetDistribution.from_json(t.to_json())
    assert back.provenance["source"] == "returns-csv"
    assert back.provenance["mapping"]["scale"] == 1.0
    payload = json.loads(t.to_json())
    assert payload["format_version"] == 1


def _target_json_at_version(version):
    payload = json.loads(analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16).to_json())
    payload["format_version"] = version
    return json.dumps(payload)


def _ingest_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return ingest_returns(str(path), DOM, 16)


def _ingest_reversed_window(tmp_path):
    quotes = write_quotes(tmp_path / "q.csv", [(f"2024-01-{d:02d}", 100.0 + d) for d in range(2, 9)])
    return ingest_returns(quotes, DOM, 16, ("2024-01-06", "2024-01-03"))


BS = OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda _: DistSpec("normal", math.nan, 1.0), ValueError, "mu and sigma must be finite"),
        (lambda _: TargetDistribution(np.full((2, 2), 0.25), DOM), ValueError, r"probs must be a vector, got shape \(2, 2\)"),
        (lambda _: TargetDistribution.from_json(_target_json_at_version(99)), ValueError, "unsupported target format_version: 99"),
        (lambda _: OptionSpec(math.nan, 2.0, 0.05, 0.4, 40.0), ValueError, "s0 must be finite, got nan"),
        (lambda _: OptionSpec(2.0, 2.0, 0.05, 0.4, 40.0, mu=math.inf), ValueError, "mu must be finite, got inf"),
        (
            lambda _: bs_lognormal_target(BS, DOM, 16, "bogus"),
            ValueError,
            "sigma_reading must be 'total' or 'per-sqrt-time', got 'bogus'",
        ),
        (_ingest_empty, IngestFormatError, "empty.csv: empty CSV"),
        (_ingest_reversed_window, ValueError, "window end 2024-01-03 precedes start 2024-01-06"),
    ],
    ids=["spec-not-finite", "probs-not-a-vector", "format-version", "option-not-finite",
         "drift-not-finite", "sigma-reading", "empty-csv", "reversed-window"],
)
def test_boundary_checks_name_the_fault(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
