import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ssqw import (
    CoinParams,
    SsqwParams,
    TargetDistribution,
    WalkSchedule,
    Domain,
    evolve,
    initial_state,
    position_distribution,
)
from ssqw import optimize, walk
from ssqw.cli import main

import oracles

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_quotes(path, rows):
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for day, close in rows:
        lines.append(f"{day},1,1,1,{close},{close},1000")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def gen_normal_target(tmp_path, name="target.json", analytic=True):
    out = tmp_path / name
    argv = [
        "gen-target", "--kind", "normal", "--mu", "7.5", "--sigma", "1.875",
        "--lo", "0", "--hi", "15", "--bins", "16", "--out", str(out),
    ]
    if analytic:
        argv.append("--analytic")
    assert run(*argv) == 0
    return out


# ------------------------------------------------------------- gen-target


def test_gen_target_sampled_normal(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = run(
        "gen-target", "--kind", "normal", "--mu", "7.5", "--sigma", "1.5",
        "--bins", "16", "--lo", "0", "--hi", "15", "--samples", "2000",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    payload = read_json(out)
    assert payload["n_bins"] == 16
    assert abs(sum(payload["probs"]) - 1.0) <= 1e-9
    lines = capsys.readouterr().out
    assert "mean" in lines and "mode bin" in lines


def test_gen_target_sampled_bytes_are_pinned(tmp_path):
    # A sampled target draws from numpy's Generator, as it always has:
    # the file's bytes are those the command has always written.
    target = gen_normal_target(tmp_path, analytic=False)
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "e9dbbf8646c30520a0c58f54571c58258457422b9b8ec729b3c2331819953870"


def test_gen_target_lognormal_right_skew(tmp_path):
    out = tmp_path / "t.json"
    assert run("gen-target", "--kind", "lognormal", "--analytic", "--out", str(out)) == 0
    t = TargetDistribution.from_json((tmp_path / "t.json").read_text())
    mean_bin = float(np.sum(t.probs * np.arange(16)))
    assert mean_bin > float(np.argmax(t.probs))


def test_gen_target_bs_stock_example(tmp_path):
    out = tmp_path / "bs.json"
    code = run(
        "gen-target", "--kind", "bs", "--s0", "2", "--k", "2", "--sigma", "0.4",
        "--r", "0.05", "--t", "40", "--out", str(out),
    )
    assert code == 0
    payload = read_json(out)
    assert payload["provenance"]["source"] == "bs-lognormal"
    assert abs(payload["provenance"]["alpha"] - (math.log(2.0) - 3.2)) < 1e-12


def test_gen_target_usage_errors(tmp_path):
    assert run("gen-target") == 2
    assert run("gen-target", "--kind", "bs", "--out", str(tmp_path / "x.json")) == 2
    assert run(
        "gen-target", "--kind", "normal", "--sigma", "-1", "--out", str(tmp_path / "x.json")
    ) == 2


@pytest.mark.parametrize("missing", ["--s0", "--k", "--r", "--t", "--sigma"])
def test_gen_target_bs_names_the_missing_flag(tmp_path, capsys, missing):
    values = {"--s0": "2", "--k": "2", "--r": "0.05", "--t": "40", "--sigma": "0.4"}
    del values[missing]
    argv = ["gen-target", "--kind", "bs", "--out", str(tmp_path / "x.json")]
    for flag, value in values.items():
        argv += [flag, value]
    capsys.readouterr()
    assert_usage_error(capsys, run(*argv), f"--kind bs requires {missing}")
    assert not (tmp_path / "x.json").exists()


def test_gen_target_unrepresentable_exit3(tmp_path):
    code = run(
        "gen-target", "--kind", "normal", "--mu", "1000", "--sigma", "0.1",
        "--analytic", "--out", str(tmp_path / "x.json"),
    )
    assert code == 3


def test_gen_target_lognormal_overflowing_scale_exit3(tmp_path, capsys):
    # exp(800) overflows: the law has no mass on the domain, not a crash.
    code = run(
        "gen-target", "--kind", "lognormal", "--mu", "800", "--sigma", "1",
        "--analytic", "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.json").exists()


def test_gen_target_lognormal_default_mu_needs_a_positive_centre_exit2(tmp_path, capsys):
    # ln(centre) of the domain (-10, 5) has no value: the error says so,
    # and that --mu can be passed instead.
    out = tmp_path / "x.json"
    code = run("gen-target", "--kind", "lognormal", "--analytic", "--lo", "-10", "--hi", "5", "--out", str(out))
    assert_usage_error(capsys, code, "needs a domain centre above 0", "-2.5", "pass --mu instead")
    assert not out.exists()
    assert run(
        "gen-target", "--kind", "lognormal", "--analytic", "--lo", "-10", "--hi", "5", "--mu", "0.5",
        "--out", str(out),
    ) == 0


# An option whose degenerate (sigma 0) terminal price exp(alpha) overflows:
# alpha = log 2 + 100 * 10.
DEGENERATE_OVERFLOW = ("--s0", "2", "--k", "2", "--r", "0.05", "--sigma", "0", "--t", "10", "--mu-drift", "100")


def test_gen_target_bs_degenerate_price_overflow_exit3(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run("gen-target", "--kind", "bs", *DEGENERATE_OVERFLOW, "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate terminal price inf lies outside") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-target", "price"])
def test_overflowing_sigma_squared_exit2(tmp_path, capsys, command):
    option = ("--s0", "2", "--k", "2", "--r", "0.05", "--sigma", "1e200", "--t", "1")
    out = tmp_path / "x.json"
    if command == "gen-target":
        code = run("gen-target", "--kind", "bs", *option, "--out", str(out))
    else:
        target = str(gen_normal_target(tmp_path))
        code = run("price", "--target", target, "--trained", target, *option, "--out", str(out))
    assert_usage_error(capsys, code, "sigma_T**2 overflows", "--sigma")
    assert not out.exists()


def test_gen_target_uniform_records_distspec_defaults(tmp_path):
    # A uniform target uses neither mu nor sigma. It records DistSpec's
    # defaults, 0 and 1, not the lognormal's, so a domain centred below 0
    # needs no --mu; given values are recorded as given.
    out = tmp_path / "u.json"
    code = run("gen-target", "--kind", "uniform", "--analytic", "--lo", "-10", "--hi", "5", "--out", str(out))
    assert code == 0
    payload = read_json(out)
    assert (payload["provenance"]["mu"], payload["provenance"]["sigma"]) == (0.0, 1.0)
    assert payload["probs"] == [1.0 / 16] * 16
    assert run("gen-target", "--kind", "uniform", "--mu", "3", "--sigma", "2", "--out", str(out)) == 0
    provenance = read_json(out)["provenance"]
    assert (provenance["mu"], provenance["sigma"]) == (3.0, 2.0)


def test_gen_target_bs_overflowing_log_mean_exit2(tmp_path, capsys):
    # alpha = log 2 + (10 - 0.05 - 0.08) * 1e308 overflows through the
    # maturity, not through sigma_T^2.
    out = tmp_path / "x.json"
    code = run(
        "gen-target", "--kind", "bs", "--s0", "2", "--k", "2", "--r", "0.05", "--sigma", "0.4",
        "--t", "1e308", "--mu-drift", "10", "--out", str(out),
    )
    assert_usage_error(capsys, code, "alpha of log(S_T) overflows", "--t, --mu-drift and --r")
    assert not out.exists()


def test_gen_target_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SSQW_OUTDIR", str(tmp_path))
    assert run("gen-target", "--kind", "uniform", "--analytic") == 0
    assert (tmp_path / "target.json").exists()


# ------------------------------------------------------------------ train


def test_train_writes_result_and_csv(tmp_path):
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    code = run(
        "train", "--target", str(target), "--out", str(out),
        "--max-iters", "80", "--restarts", "1", "--seed", "0",
    )
    assert code == 0
    payload = read_json(out)
    assert payload["format_version"] == 1
    assert len(payload["trained_dist"]) == 16
    assert payload["iterations_used"] == len(payload["mse_history"])
    assert payload["config"]["max_iters"] == 80
    assert payload["domain"] == {"lo": 0.0, "hi": 15.0}
    csv_lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "bin,center,p_target,p_trained"
    assert len(csv_lines) == 17


def test_train_missing_target_exit4(tmp_path):
    assert run("train", "--target", str(tmp_path / "nope.json")) == 4


def assert_usage_error(capsys, code, *needles):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_gen_target_above_the_walks_cap_exit2(tmp_path, capsys):
    # 2**36 bins is refused with a usage error naming the cap, before
    # np.linspace would try to allocate them.
    out = tmp_path / "t.json"
    code = run("gen-target", "--kind", "normal", "--analytic", "--bins", str(1 << 36), "--out", str(out))
    assert_usage_error(capsys, code, "n_bins must be at most 2**24", str(1 << 36))
    assert not out.exists()


@pytest.mark.parametrize("key", ["probs", "provenance"])
def test_train_target_missing_key_exit2(tmp_path, capsys, key):
    target = gen_normal_target(tmp_path)
    payload = read_json(target)
    del payload[key]
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    assert_usage_error(capsys, run("train", "--target", str(target)), repr(key))


@pytest.mark.parametrize(
    "key, value, needle",
    [("provenance", 5, "must be a JSON object, got 5"),
     ("lo", "a", 'must be a JSON number, got "a"'),
     ("hi", None, "must be a JSON number, got null"),
     ("n_bins", 16.0, "must be a JSON integer, got 16.0")],
    ids=["provenance", "lo", "hi", "n_bins"],
)
def test_train_target_wrong_type_exit2(tmp_path, capsys, key, value, needle):
    target = gen_normal_target(tmp_path)
    payload = read_json(target)
    payload[key] = value
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    assert_usage_error(capsys, run("train", "--target", str(target)), repr(key), needle)


def test_train_target_not_an_object_exit2(tmp_path, capsys):
    target = tmp_path / "t.json"
    target.write_text("[0.5, 0.5]\n")
    assert_usage_error(capsys, run("train", "--target", str(target)), "not a JSON object")


def test_train_mse_gate(tmp_path):
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    code = run(
        "train", "--target", str(target), "--out", str(out),
        "--max-iters", "40", "--restarts", "1", "--mse-gate", "1e-12",
    )
    assert code == 1
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [("train", "--max-iters", "20", "--seed", "-1"),
     ("gen-target", "--kind", "normal", "--samples", "100", "--seed", "-3"),
     ("gen-target", "--kind", "normal", "--analytic", "--seed", "-3"),
     ("gen-target", "--kind", "bs", "--s0", "2", "--k", "2", "--r", "0.05", "--sigma", "0.4",
      "--t", "40", "--seed", "-3")],
)
def test_negative_seed_exit2(tmp_path, capsys, argv):
    # numpy's own "expected non-negative integer" names no flag. An
    # analytic or BS target draws no samples, but its --seed is checked too.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    extra = ("--target", str(target)) if argv[0] == "train" else ()
    code = run(*argv, *extra, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: seed must be a non-negative integer") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, samples",
    [(("--kind", "normal"), "0"),
     (("--kind", "normal", "--analytic"), "-5"),
     (("--kind", "lognormal", "--analytic"), "0"),
     (("--kind", "uniform"), "-1"),
     (("--kind", "bs", "--s0", "2", "--k", "2", "--r", "0.05", "--sigma", "0.4", "--t", "40"), "0")],
    ids=["normal", "analytic", "lognormal", "uniform", "bs"],
)
def test_gen_target_bad_samples_exit2(tmp_path, capsys, argv, samples):
    # --samples is checked for every kind, as --seed is, though only a
    # sampled target draws them.
    out = tmp_path / "t.json"
    capsys.readouterr()
    code = run("gen-target", *argv, "--samples", samples, "--out", str(out))
    assert_usage_error(capsys, code, f"samples must be a positive integer, got {samples}")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, needle",
    [("--mse-gate", "nan", "--mse-gate"), ("--mse-gate", "inf", "--mse-gate"),
     ("--rhobeg", "1e400", "both finite"), ("--rhobeg", "nan", "both finite"),
     ("--rhoend", "inf", "both finite")],
)
def test_train_flag_must_be_finite_exit2(tmp_path, capsys, flag, value, needle):
    # best_mse > nan is always False, so a NaN gate would pass every fit,
    # and an infinite radius would be echoed into the result as Infinity,
    # which is not JSON.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    code = run("train", "--target", str(target), "--out", str(out), "--max-iters", "20", flag, value)
    err = capsys.readouterr().err
    assert code == 2 and needle in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("gate", [("--mse-gate", "-1"), ("--mse-gate=-1e-300",)], ids=["-1", "-1e-300"])
def test_train_negative_mse_gate_exit2(tmp_path, capsys, gate):
    # No MSE can pass a negative gate, so it is refused before the fit, as
    # a non-finite one is, instead of fitting the full budget to exit 1.
    # argparse reads a separate "-1e-300" as an option, hence the = form.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    code = run("train", "--target", str(target), "--out", str(out), "--max-iters", "20", *gate)
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err and "--mse-gate" in err and "Traceback" not in err
    assert not out.exists()


def test_train_trust_radii_name_their_flags_exit2(tmp_path, capsys):
    # --rhoend must lie below --rhobeg; the message names those flags,
    # not the config fields they fill.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    code = run("train", "--target", str(target), "--out", str(out), "--rhobeg", "1e-7", "--rhoend", "1e-6")
    assert_usage_error(capsys, code, "--rhoend", "--rhobeg", "both finite")
    assert not out.exists()


def test_train_self_loading_gate_passes(tmp_path):
    params = SsqwParams(CoinParams(1.1, 0.4, 5.9), CoinParams(2.0, 0.9, 0.2))
    init = initial_state(4, 1.0, 0.0, 8)
    probs = position_distribution(evolve(init, params, WalkSchedule(7)))
    target = TargetDistribution(probs, Domain(0.0, 15.0), {"source": "ssqw-self"})
    tfile = tmp_path / "self.json"
    tfile.write_text(target.to_json())
    code = run(
        "train", "--target", str(tfile), "--out", str(tmp_path / "r.json"),
        "--theta1", "1.1", "--phi1", "0.4", "--lam1", "5.9",
        "--theta2", "2.0", "--phi2", "0.9", "--lam2", "0.2",
        "--restarts", "1", "--mse-gate", "1e-14",
    )
    assert code == 0
    assert read_json(tmp_path / "r.json")["best_mse"] == 0.0
    # A gate of 0 is valid, and an exact fit passes it.
    code = run(
        "train", "--target", str(tfile), "--out", str(tmp_path / "r0.json"),
        "--theta1", "1.1", "--phi1", "0.4", "--lam1", "5.9",
        "--theta2", "2.0", "--phi2", "0.9", "--lam2", "0.2",
        "--restarts", "1", "--mse-gate", "0",
    )
    assert code == 0


def test_train_repeat_seed_byte_identical(tmp_path):
    target = gen_normal_target(tmp_path)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        code = run(
            "train", "--target", str(target), "--out", str(tmp_path / d / "r.json"),
            "--max-iters", "60", "--restarts", "2", "--seed", "9",
        )
        assert code == 0
    assert (tmp_path / "a" / "r.json").read_bytes() == (tmp_path / "b" / "r.json").read_bytes()
    assert (tmp_path / "a" / "r.csv").read_bytes() == (tmp_path / "b" / "r.csv").read_bytes()


def test_train_summary_prints_mse_floor(tmp_path, capsys):
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    assert run("train", "--target", str(target), "--out", str(out), "--max-iters", "10") == 0
    floor = read_json(out)["metadata"]["mse_floor"]
    captured = capsys.readouterr()
    assert f"(floor {floor:.6e})" in captured.out
    # The wall time differs from run to run, so it goes to stderr, in
    # milliseconds: a fit this size takes a few, which "0.0s" hid.
    assert captured.out.rstrip().endswith(" restarts)")
    took = re.fullmatch(r"fit took (\d+\.\d) ms", captured.err.strip())
    assert took and float(took.group(1)) > 0.0, captured.err


def test_train_symmetric_flag(tmp_path):
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    code = run(
        "train", "--target", str(target), "--out", str(out),
        "--max-iters", "60", "--symmetric",
    )
    assert code == 0
    payload = read_json(out)
    assert payload["metadata"]["mode"] == "symmetric"
    assert payload["best_params"]["coin1"]["phi"] == 0.0


@pytest.mark.parametrize("flag", ["--phi1", "--lam1", "--phi2", "--lam2"])
def test_train_symmetric_with_a_phase_exit2(tmp_path, capsys, flag):
    # --symmetric ties every phase to zero: a phase flag it would ignore
    # is refused by name, before any fit, not recorded in the result.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    code = run("train", "--target", str(target), "--out", str(out), "--symmetric", flag, "0.3")
    assert_usage_error(capsys, code, "--symmetric", f"{flag[2:]}=0.3")
    assert not out.exists()


def test_train_start_site_and_coin_flags(tmp_path):
    target = gen_normal_target(tmp_path)
    flags = {"custom": ("--x0", "3", "--coin-init", "balanced"), "default": ()}
    meta = {}
    for name, extra in flags.items():
        out = tmp_path / f"{name}.json"
        code = run(
            "train", "--target", str(target), "--out", str(out),
            "--max-iters", "10", *extra,
        )
        assert code == 0
        meta[name] = read_json(out)["metadata"]
    assert (meta["custom"]["start_site"], meta["custom"]["coin_init"]) == (3, "custom")
    assert (meta["default"]["start_site"], meta["default"]["coin_init"]) == (8, "up")


# ------------------------------------------------------------------ price


def test_price_zero_gap_with_target_as_trained(tmp_path):
    target = gen_normal_target(tmp_path)
    out = tmp_path / "p.json"
    code = run(
        "price", "--target", str(target), "--trained", str(target),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(out),
    )
    assert code == 0
    payload = read_json(out)
    assert payload["gap"] == 0.0
    assert (tmp_path / "p.csv").exists()


def test_price_end_to_end_with_reference(tmp_path, capsys):
    bs = tmp_path / "bs.json"
    run(
        "gen-target", "--kind", "bs", "--s0", "2", "--k", "2", "--sigma", "0.4",
        "--r", "0.05", "--t", "40", "--out", str(bs),
    )
    run(
        "train", "--target", str(bs), "--out", str(tmp_path / "r.json"),
        "--max-iters", "50", "--restarts", "1",
    )
    code = run(
        "price", "--target", str(bs), "--trained", str(tmp_path / "r.json"),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--reference", "5.5342", "--out", str(tmp_path / "p.json"),
    )
    assert code == 0
    payload = read_json(tmp_path / "p.json")
    assert payload["metadata"]["reference_payoff"] == 5.5342
    assert "payoff_target" in payload and "payoff_trained" in payload
    out = capsys.readouterr().out
    assert "reference" in out


def test_price_strike_above_domain(tmp_path):
    target = gen_normal_target(tmp_path)
    code = run(
        "price", "--target", str(target), "--trained", str(target),
        "--s0", "2", "--k", "20", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert code == 0
    payload = read_json(tmp_path / "p.json")
    assert payload["payoff_target"] == 0.0
    assert payload["payoff_trained"] == 0.0


def test_price_degenerate_price_overflow_tail_mass_1(tmp_path):
    # The overflowing point lies outside the domain, as an overflowing
    # lognormal scale does: all of the law's mass is truncated.
    target = str(gen_normal_target(tmp_path))
    out = tmp_path / "p.json"
    assert run("price", "--target", target, "--trained", target, *DEGENERATE_OVERFLOW, "--out", str(out)) == 0
    assert read_json(out)["metadata"]["truncation_tail_mass"] == 1.0


def test_price_discount_factor_overflow_exit2(tmp_path, capsys):
    # exp(-r t) = exp(1e6) overflows.
    target = str(gen_normal_target(tmp_path))
    out = tmp_path / "p.json"
    code = run(
        "price", "--target", target, "--trained", target, "--s0", "2", "--k", "2",
        "--r", "-1000", "--sigma", "0.4", "--t", "1000", "--discount", "--out", str(out),
    )
    assert_usage_error(capsys, code, "discount factor exp(-r t) overflows", "--r", "--t")
    assert not out.exists()


def test_price_grid_mismatch_exit6(tmp_path):
    target = gen_normal_target(tmp_path)
    other = tmp_path / "other.json"
    run(
        "gen-target", "--kind", "normal", "--analytic", "--bins", "8",
        "--out", str(other),
    )
    code = run(
        "price", "--target", str(target), "--trained", str(other),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert code == 6


def test_price_domain_mismatch_exit6(tmp_path):
    target = gen_normal_target(tmp_path)
    other = tmp_path / "other.json"
    run(
        "gen-target", "--kind", "normal", "--analytic", "--lo", "0", "--hi", "10",
        "--out", str(other),
    )
    code = run(
        "price", "--target", str(target), "--trained", str(other),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert code == 6


def test_price_trained_dist_length_differs_from_n_bins_exit2(tmp_path, capsys):
    # The file disagrees with itself, not with the target: a usage error
    # naming the file, as for a target file, not a grid mismatch (exit 6).
    target = gen_normal_target(tmp_path)
    result = tmp_path / "r.json"
    assert run("train", "--target", str(target), "--out", str(result), "--max-iters", "4") == 0
    payload = read_json(result)
    payload["trained_dist"] = payload["trained_dist"][:-1]
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(result),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, f"{result}: n_bins disagrees with probability count")
    assert not (tmp_path / "p.json").exists()


def test_price_trained_without_n_bins_exit2(tmp_path, capsys):
    target = gen_normal_target(tmp_path)
    result = tmp_path / "r.json"
    assert run("train", "--target", str(target), "--out", str(result), "--max-iters", "4") == 0
    payload = read_json(result)
    del payload["n_bins"]
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(result),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, str(result), "'n_bins'")


@pytest.mark.parametrize("version", [99, None], ids=["99", "missing"])
def test_price_trained_unsupported_format_version_exit2(tmp_path, capsys, version):
    # A training result is refused at a format_version other than 1, as a
    # target or a state file is.
    target = gen_normal_target(tmp_path)
    result = tmp_path / "r.json"
    assert run("train", "--target", str(target), "--out", str(result), "--max-iters", "4") == 0
    payload = read_json(result)
    if version is None:
        del payload["format_version"]
    else:
        payload["format_version"] = version
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(result),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, f"{result}: unsupported training result format_version: {version!r}")
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "domain, needle",
    [(5, "domain is not a JSON object"), ({"lo": 0.0, "hi": "15"}, "'hi' must be a JSON number")],
    ids=["not-an-object", "hi-string"],
)
def test_price_trained_wrong_domain_exit2(tmp_path, capsys, domain, needle):
    target = gen_normal_target(tmp_path)
    result = tmp_path / "r.json"
    assert run("train", "--target", str(target), "--out", str(result), "--max-iters", "4") == 0
    payload = read_json(result)
    payload["domain"] = domain
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(result),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, str(result), needle)



@pytest.mark.parametrize("kind", ["uniform", "normal"])
def test_gen_target_domain_whose_width_overflows_exit2(tmp_path, capsys, kind):
    # Finite bounds whose width is inf: a uniform target would report a mean
    # of inf, and a normal one blamed its mu and sigma.
    out = tmp_path / "t.json"
    code = run("gen-target", "--kind", kind, "--analytic", "--lo=-1e308", "--hi=1e308", "--out", str(out))
    assert_usage_error(capsys, code, "width hi - lo overflows")
    assert not out.exists()


def test_price_target_whose_width_overflows_exit2(tmp_path, capsys):
    # A target file with such bounds priced bare Infinity and NaN into JSON.
    target = gen_normal_target(tmp_path)
    payload = read_json(target)
    payload["lo"], payload["hi"] = -1e308, 1e308
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(target),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, str(target), "width hi - lo overflows")
    assert not (tmp_path / "p.json").exists()

@pytest.mark.parametrize(
    "bad, needle",
    [("nan", "must be finite"), ("negative", "must be nonnegative"), ("sum", "must sum to 1"),
     ("no-provenance", "no 'provenance' key"), ("count", "n_bins disagrees")],
)
def test_price_trained_bad_probabilities_exit2(tmp_path, capsys, bad, needle):
    # A trained file on the right grid whose probabilities break a rule
    # every target obeys; the report would carry NaN or a meaningless payoff.
    # A target file as --trained is held to the target format as --target is.
    target = gen_normal_target(tmp_path)
    payload = read_json(target)
    probs = payload["probs"]
    if bad == "nan":
        probs[8] = math.nan
    elif bad == "negative":
        probs[8] += probs[0] + 0.01
        probs[0] = -0.01
    elif bad == "sum":
        probs[8] += 0.01
    elif bad == "no-provenance":
        del payload["provenance"]
    else:
        payload["n_bins"] = 8
    trained = tmp_path / "trained.json"
    trained.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(trained),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, str(trained), needle)
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "bad, needle",
    [("nan", "trained probabilities must be finite"), ("negative", "trained probabilities must be nonnegative"),
     ("sum", "trained probabilities must sum to 1")],
)
def test_price_training_result_bad_probabilities_exit2(tmp_path, capsys, bad, needle):
    # A training result's trained_dist is checked by price_report, and the
    # error is re-raised naming the file.
    target = gen_normal_target(tmp_path)
    result = tmp_path / "r.json"
    assert run("train", "--target", str(target), "--out", str(result), "--max-iters", "4") == 0
    payload = read_json(result)
    probs = payload["trained_dist"]
    if bad == "nan":
        probs[8] = math.nan
    elif bad == "negative":
        probs[8] += probs[0] + 0.01
        probs[0] = -0.01
    else:
        probs[8] += 0.01
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(result),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    )
    assert_usage_error(capsys, code, f"{result}: {needle}")
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("kind", ["result", "target", "train-target", "price-target"])
def test_price_trained_entry_not_a_number_exit2(tmp_path, capsys, kind):
    # The error names the file, the key and the entry, not just numpy's
    # "could not convert string to float": for a result or a target file
    # as --trained, and for a target file as --target of train or price.
    # A string that spells a number, or true, is refused, not converted,
    # and so is an integer no float can hold.
    target = gen_normal_target(tmp_path)
    bad = tmp_path / "bad.json"
    if kind == "result":
        assert run("train", "--target", str(target), "--out", str(bad), "--max-iters", "4") == 0
        key = "trained_dist"
    else:
        bad.write_text(target.read_text())
        key = "probs"
    payload = read_json(bad)
    spelled = repr(payload[key][5])
    if kind == "train-target":
        argv = ["train", "--target", str(bad), "--out", str(tmp_path / "r.json")]
    else:
        files = (bad, target) if kind == "price-target" else (target, bad)
        argv = [
            "price", "--target", str(files[0]), "--trained", str(files[1]),
            "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
            "--out", str(tmp_path / "p.json"),
        ]
    for value in ("x", spelled, True):
        payload[key][5] = value
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert_usage_error(capsys, run(*argv), str(bad), f"'{key}'", "entry 5", json.dumps(value))
    payload[key][5] = 10**400
    bad.write_text(json.dumps(payload))
    assert_usage_error(capsys, run(*argv), str(bad), f"'{key}'", "too large for a float")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "p.json").exists()


def _train_or_price_input(tmp_path, command, path):
    """The argv of a train or price run that reads ``path`` as its
    --target or --trained file."""
    if command == "train":
        return ["train", "--target", str(path), "--out", str(tmp_path / "r.json")]
    return [
        "price", "--target", str(gen_normal_target(tmp_path)), "--trained", str(path),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--out", str(tmp_path / "p.json"),
    ]


@pytest.mark.parametrize("command", ["train", "price"])
def test_unreadable_input_file_exit4(tmp_path, capsys, command):
    # A directory where --target or --trained names a file exits 4, as a
    # missing file does, with an error line rather than a traceback.
    unreadable = tmp_path / "somedir"
    unreadable.mkdir()
    code = run(*_train_or_price_input(tmp_path, command, unreadable))
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"error: cannot read {unreadable}: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "price"])
def test_input_file_not_utf8_exit2(tmp_path, capsys, command):
    bad = tmp_path / "latin1.json"
    # A Latin-1 e-acute: one byte that no UTF-8 text holds.
    bad.write_bytes(b'{"probs": "caf\xe9"}')
    code = run(*_train_or_price_input(tmp_path, command, bad))
    assert_usage_error(capsys, code, str(bad), "utf-8")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reference_must_be_finite_exit2(tmp_path, capsys, value):
    target = gen_normal_target(tmp_path)
    capsys.readouterr()
    code = run(
        "price", "--target", str(target), "--trained", str(target),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
        "--reference", value, "--out", str(tmp_path / "p.json"),
    )
    assert code == 2 and "--reference" in capsys.readouterr().err
    outdir = tmp_path / "repro"
    code = run("repro", "--outdir", str(outdir), "--max-iters", "1", "--reference", value)
    assert code == 2 and "--reference" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists() and not outdir.exists()


def test_price_missing_file_exit4(tmp_path):
    target = gen_normal_target(tmp_path)
    code = run(
        "price", "--target", str(target), "--trained", str(tmp_path / "nope.json"),
        "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40",
    )
    assert code == 4


# ----------------------------------------------------------------- ingest


def test_ingest_fixture_two_returns(tmp_path, capsys):
    quotes = write_quotes(
        tmp_path / "q.csv",
        [("2024-01-02", 100.0), ("2024-01-03", 102.0), ("2024-01-04", 101.0)],
    )
    out = tmp_path / "t.json"
    assert run("ingest", "--csv", quotes, "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["provenance"]["n_binned"] == 2
    assert "binned 2 of 2 returns" in capsys.readouterr().out


def test_ingest_binning_matches_oracle(tmp_path):
    closes = [100.0, 101.5, 99.0, 103.2, 102.8]
    quotes = write_quotes(
        tmp_path / "q.csv", [(f"2024-05-{d:02d}", c) for d, c in zip(range(1, 6), closes)]
    )
    out = tmp_path / "t.json"
    assert run("ingest", "--csv", quotes, "--offset", "4.0", "--out", str(out)) == 0
    payload = read_json(out)
    arr = np.array(closes)
    returns = (arr[1:] - arr[:-1]) / arr[:-1] * 100.0
    counts, kept = oracles.histogram_ref(returns + 4.0, 0.0, 15.0, 16)
    np.testing.assert_allclose(payload["probs"], np.array(counts) / kept, atol=1e-15)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_ingest_offset_must_be_finite_exit2(tmp_path, capsys, value):
    # A bad argument, not a target with no mass on the domain (exit 3).
    quotes = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 102.0)])
    out = tmp_path / "t.json"
    code = run("ingest", "--csv", quotes, f"--offset={value}", "--out", str(out))
    assert_usage_error(capsys, code, "offset must be a finite number")
    assert not out.exists()


def test_ingest_empty_window_exit7(tmp_path):
    quotes = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    code = run(
        "ingest", "--csv", quotes, "--from", "2030-01-01", "--to", "2030-02-01",
        "--out", str(tmp_path / "t.json"),
    )
    assert code == 7


def test_ingest_bad_csv_exit7(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("Date,Price\n2024-01-02,10\n")
    assert run("ingest", "--csv", str(p), "--out", str(tmp_path / "t.json")) == 7


def test_ingest_missing_file_exit4(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run("ingest", "--csv", str(missing)) == 4
    assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"


# ------------------------------------------------------------------ repro


def test_repro_writes_all_artifacts(tmp_path):
    code = run(
        "repro", "--outdir", str(tmp_path), "--max-iters", "40", "--restarts", "1",
        "--seed", "7",
    )
    assert code == 0
    for name in (
        "normal_target.json", "normal_result.json", "normal_result.csv",
        "lognormal_target.json", "lognormal_result.json", "lognormal_result.csv",
        "bs_target.json", "bs_result.json", "bs_result.csv",
        "bs_price.json", "bs_price.csv", "summary.json",
    ):
        assert (tmp_path / name).exists(), name
    summary = read_json(tmp_path / "summary.json")
    assert set(summary) == {"format_version", "normal", "lognormal", "bs"}
    assert summary["bs"]["reference_payoff"] == 5.5342
    floors = {}
    for name in ("normal", "lognormal", "bs"):
        result = read_json(tmp_path / f"{name}_result.json")
        floors[name] = result["metadata"]["mse_floor"]
        assert len(result["metadata"]["stop_reasons"]) == result["metadata"]["restarts_run"] == 1
        assert result["best_mse"] >= floors[name], name
    # The BS target's mass sits in bin 0, which the walk cannot reach.
    assert floors["bs"] >= 1.0 / 16.0


def test_repro_equals_the_command_line_pipeline(tmp_path):
    # repro runs the fit and price steps of train and price, so its files
    # equal those of gen-target, train and price run by hand.
    repro = tmp_path / "repro"
    assert run("repro", "--outdir", str(repro), "--max-iters", "4") == 0
    pipe = tmp_path / "pipe"
    pipe.mkdir()
    option = ["--s0", "2", "--k", "2", "--r", "0.05", "--sigma", "0.4", "--t", "40"]
    recipes = {
        "normal": ["--kind", "normal", "--analytic"],
        "lognormal": ["--kind", "lognormal", "--analytic"],
        "bs": ["--kind", "bs", *option],
    }
    for name, flags in recipes.items():
        target = str(pipe / f"{name}_target.json")
        assert run("gen-target", *flags, "--out", target) == 0
        assert run(
            "train", "--target", target, "--out", str(pipe / f"{name}_result.json"),
            "--max-iters", "4", "--restarts", "8", "--seed", "7",
        ) == 0
    assert run(
        "price", "--target", str(pipe / "bs_target.json"), "--trained", str(pipe / "bs_result.json"),
        *option, "--reference", "5.5342", "--out", str(pipe / "bs_price.json"),
    ) == 0
    names = sorted(p.name for p in pipe.iterdir())
    assert len(names) == 11
    for name in names:
        assert (repro / name).read_bytes() == (pipe / name).read_bytes(), name


def test_repro_optimiser_failure_exit5(tmp_path, capsys):
    # As train does, not exit 1, which reads as a missed --mse-gate.
    kernel = walk._half_step

    def leaky(src, dst, *args, **kwargs):
        # Every planned half-step, recorded or not, scales its output by 1.1.
        return kernel(src, dst, *args, **kwargs) + ((np.multiply, dst, 1.1, dst),)

    # With no kept recorded walk, the fits build theirs from the leaky plans.
    with mock.patch.object(walk, "_half_step", leaky), mock.patch.object(optimize, "_kept", {}):
        code = run("repro", "--outdir", str(tmp_path), "--max-iters", "4")
    assert code == 5
    assert "error: optimiser failed" in capsys.readouterr().err


def test_repro_imports_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "from ssqw.cli import main\n"
        f"code = main(['repro', '--max-iters', '4', '--outdir', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "summary.json").exists()


def test_repro_and_train_import_neither_numpy_random_nor_numpy_ma(tmp_path):
    # numpy 2 loads numpy.random on first use, 15-18 ms in a new process,
    # and np.unique loads numpy.ma on first use, 11-19 ms (numpy 2.4's
    # _unique1d calls np.ma.is_masked). repro and an acceptance-config
    # train draw their restart starts and score their cones without
    # either. numpy 1 loads both with numpy itself.
    code = (
        "import sys\n"
        "import numpy\n"
        "lazy = ('numpy.random', 'numpy.ma')\n"
        "if any(name in sys.modules for name in lazy):\n"
        "    raise SystemExit(3)\n"
        "from ssqw import DistSpec, Domain, OptimizerConfig, WalkSchedule, analytic_histogram, train\n"
        "from ssqw.cli import main\n"
        f"code = main(['repro', '--max-iters', '4', '--outdir', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert not [name for name in lazy if name in sys.modules], 'repro'\n"
        "target = analytic_histogram(DistSpec('normal', 7.5, 1.875), Domain(0.0, 15.0), 16)\n"
        "train(target, OptimizerConfig(max_iters=100, restarts=8, seed=7, steps=WalkSchedule(7)))\n"
        "assert not [name for name in lazy if name in sys.modules], 'train'\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode == 3:
        pytest.skip("this numpy imports numpy.random or numpy.ma with numpy")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "summary.json").exists()


def test_repro_outdir_is_a_file_exit2(tmp_path, capsys):
    outdir = tmp_path / "taken"
    outdir.write_text("")
    code = run("repro", "--outdir", str(outdir), "--max-iters", "1")
    assert_usage_error(capsys, code, str(outdir))


@pytest.mark.parametrize("option", [("--seed", "-1"), ("--max-iters", "0")])
def test_repro_bad_option_leaves_no_outdir(tmp_path, capsys, option):
    # The options are checked before --outdir is made.
    outdir = tmp_path / "d"
    code = run("repro", "--outdir", str(outdir), *option)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not outdir.exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_train_unwritable_out_exit2(tmp_path, capsys, where):
    # Exit 1 is the MSE gate and exit 4 a missing input; an output path
    # that cannot be written is a usage error.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "outdir" if where == "directory" else tmp_path / "missing" / "r.json"
    if where == "directory":
        out.mkdir()
    capsys.readouterr()
    code = run("train", "--target", str(target), "--out", str(out), "--max-iters", "4")
    assert_usage_error(capsys, code, str(out))


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_train_checks_output_paths_before_training(tmp_path, capsys, flag):
    # A result or CSV path that cannot be written fails before the fit,
    # and the check leaves no file behind.
    target = gen_normal_target(tmp_path)
    bad = tmp_path / "missing" / "r.json"
    argv = ["train", "--target", str(target), "--out", str(tmp_path / "r.json")]
    if flag == "--out":
        argv[-1] = str(bad)
    else:
        argv += ["--csv", str(bad)]
    capsys.readouterr()
    with mock.patch("ssqw.cli.train") as train:
        code = run(*argv)
    assert_usage_error(capsys, code, str(bad))
    train.assert_not_called()
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("command", ["train", "price"])
@pytest.mark.parametrize("csv", ["r.json", "./r.json", "sub/../r.json"])
def test_csv_naming_the_out_file_exit2(tmp_path, capsys, monkeypatch, command, csv):
    # The CSV would overwrite the result JSON. The paths are compared once
    # resolved, and the command stops before any work.
    target = gen_normal_target(tmp_path)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = ["--target", str(target), "--out", "r.json", "--csv", csv]
    if command == "price":
        argv += ["--trained", str(target), "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40"]
    capsys.readouterr()
    with mock.patch("ssqw.cli.train") as train, mock.patch("ssqw.cli._load") as load:
        code = run(command, *argv)
    assert_usage_error(capsys, code, "--out", "--csv", "same file")
    train.assert_not_called()
    load.assert_not_called()
    assert not (tmp_path / "r.json").exists()


def test_default_csv_naming_the_out_file_exit2(tmp_path, capsys):
    # With no --csv the CSV path is --out's with .csv, which is --out itself
    # for an --out ending in .csv.
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.csv"
    capsys.readouterr()
    code = run("train", "--target", str(target), "--out", str(out), "--max-iters", "4")
    assert_usage_error(capsys, code, "--out and --csv name the same file")
    assert not out.exists()


def test_train_output_naming_the_target_exit2(tmp_path, capsys, monkeypatch):
    # The result JSON would replace the target it was fitted to. The paths
    # are compared once resolved, and the target is left as it was.
    target = gen_normal_target(tmp_path)
    before = target.read_bytes()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    with mock.patch("ssqw.cli.train") as train:
        code = run("train", "--target", "target.json", "--out", "./target.json", "--max-iters", "4")
    assert_usage_error(capsys, code, "--out", "--target", "./target.json and target.json")
    train.assert_not_called()
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.json"]


def test_price_output_naming_an_input_exit2(tmp_path, capsys):
    # The payoff CSV would replace the trained file, and the report JSON
    # the target: each is refused before either input is read.
    target = gen_normal_target(tmp_path)
    trained = gen_normal_target(tmp_path, "trained.json")
    before = {p: p.read_bytes() for p in (target, trained)}
    (tmp_path / "sub").mkdir()
    option = ["--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40"]
    for outputs, needles in (
        (["--csv", str(tmp_path / "sub" / ".." / "trained.json")], ("--csv", "--trained")),
        (["--out", str(target), "--csv", str(tmp_path / "p.csv")], ("--out", "--target")),
    ):
        capsys.readouterr()
        with mock.patch("ssqw.cli._load") as load:
            code = run("price", "--target", str(target), "--trained", str(trained), *option, *outputs)
        assert_usage_error(capsys, code, *needles, "same file")
        load.assert_not_called()
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "target.json", "trained.json"]


def test_ingest_output_naming_the_quotes_exit2(tmp_path, capsys):
    # The target JSON would replace the quote CSV it was binned from.
    quotes = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    before = Path(quotes).read_bytes()
    capsys.readouterr()
    code = run("ingest", "--csv", quotes, "--out", quotes)
    assert_usage_error(capsys, code, "--out", "--csv", f"{quotes} and {quotes}")
    assert Path(quotes).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["q.csv"]


def _price_neither_format(tmp_path):
    target = gen_normal_target(tmp_path)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format_version": 1}))
    argv = ["price", "--target", str(target), "--trained", str(other),
            "--s0", "2", "--k", "2", "--sigma", "0.4", "--r", "0.05", "--t", "40"]
    return argv, "neither a training result nor a target file"


def _ingest_half_window(tmp_path):
    quotes = write_quotes(tmp_path / "q.csv", [("2024-01-02", 100.0), ("2024-01-03", 101.0)])
    return ["ingest", "--csv", quotes, "--from", "2024-01-02"], "--from and --to must be given together"


@pytest.mark.parametrize(
    "case", [_price_neither_format, _ingest_half_window], ids=["price-neither-format", "ingest-half-window"]
)
def test_boundary_checks_name_the_fault(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    out = tmp_path / "out.json"
    capsys.readouterr()
    code = run(*argv, "--out", str(out))
    assert_usage_error(capsys, code, message)
    assert not out.exists()


# ------------------------------------------------------------------ misc


def test_no_args_usage_error():
    assert run() == 2


def test_unknown_flag_usage_error(tmp_path):
    assert run("gen-target", "--kind", "normal", "--bogus", "1") == 2
    # train --optimizer was removed along with the Nelder-Mead choice.
    assert run("train", "--target", "t.json", "--optimizer", "adjoint-bfgs") == 2


def test_profile_script_writes_numeric_csv(tmp_path):
    # Every cell of every profile parses as a number: repr of a numpy
    # float would write np.float64(...).
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_dtqw_profiles.py"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, str(script), "--qubits", "3", "--steps", "2", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    paths = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in paths] == [f"dtqw_{c}_t2.csv" for c in ("hadamard", "pauli_x", "pauli_z")]
    for path in paths:
        header, *rows = path.read_text().splitlines()
        assert header == "position,p_up,p_down,p_balanced"
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        assert table.shape == (8, 4)
        np.testing.assert_array_equal(table[:, 0], np.arange(8))
        np.testing.assert_allclose(table[:, 1:].sum(axis=0), 1.0, rtol=0, atol=1e-12)
