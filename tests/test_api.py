import importlib.util
import sys
from pathlib import Path

import ssqw
import ssqw.cli

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_public_names_are_pinned():
    # The public API is stable: a name may be added or removed only on
    # purpose, so this list changes with it.
    assert ssqw.__all__ == [
        "MAX_POSITION_QUBITS",
        "WalkerState",
        "apply_coin",
        "initial_state",
        "position_distribution",
        "state_from_json",
        "state_to_json",
        "HADAMARD_COIN",
        "IDENTITY_COIN",
        "PAULI_X_COIN",
        "PAULI_Y_COIN",
        "PAULI_Z_COIN",
        "CoinParams",
        "SsqwParams",
        "WalkSchedule",
        "apply_dtqw_step",
        "apply_shift_dtqw",
        "apply_shift_minus",
        "apply_shift_plus",
        "apply_ssqw_step",
        "coin_matrix",
        "dense_operator",
        "dtqw_step_dense",
        "evolve",
        "operator_to_json",
        "ssqw_step_dense",
        "wrap_angle",
        "DistSpec",
        "Domain",
        "IngestFormatError",
        "OptionSpec",
        "TargetDistribution",
        "UnrepresentableTargetError",
        "analytic_histogram",
        "bs_lognormal_target",
        "ingest_returns",
        "sample_histogram",
        "OptimizerConfig",
        "TrainingResult",
        "mse",
        "objective",
        "train",
        "training_result_json_dict",
        "PayoffReport",
        "PriceGrid",
        "expected_payoff",
        "payoff_csv",
        "payoff_report_json_dict",
        "payoff_report_to_json",
        "price_report",
        "__version__",
    ]
    assert all(hasattr(ssqw, name) for name in ssqw.__all__)


def test_benchmark_hooks_resolve(monkeypatch):
    # The traced benchmark wraps these module attributes by name, so each
    # must resolve from the package. Loaded by path, with no bytecode
    # written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for path, attr, _ in spans.HOOKS:
        owner = ssqw
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), (path, attr)
