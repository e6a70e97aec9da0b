import json
import math

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
from ssqw.cli import main

import oracles


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


def test_gen_target_unrepresentable_exit3(tmp_path):
    code = run(
        "gen-target", "--kind", "normal", "--mu", "1000", "--sigma", "0.1",
        "--analytic", "--out", str(tmp_path / "x.json"),
    )
    assert code == 3


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


def test_train_mse_gate(tmp_path):
    target = gen_normal_target(tmp_path)
    out = tmp_path / "r.json"
    code = run(
        "train", "--target", str(target), "--out", str(out),
        "--max-iters", "40", "--restarts", "1", "--mse-gate", "1e-12",
    )
    assert code == 1
    assert out.exists()


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


def test_ingest_missing_file_exit4(tmp_path):
    assert run("ingest", "--csv", str(tmp_path / "nope.csv")) == 4


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


# ------------------------------------------------------------------ misc


def test_no_args_usage_error():
    assert run() == 2


def test_unknown_flag_usage_error(tmp_path):
    assert run("gen-target", "--kind", "normal", "--bogus", "1") == 2
