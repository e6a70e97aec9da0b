"""In-memory span recorder and the wrappers that feed it.

The wrappers are installed on the module attributes the package calls
through (``ssqw.walk.apply_coin``, ``ssqw.optimize.evolve``,
``ssqw.cli.train`` and so on), so no program file changes. Each span holds
its name, the index of its parent span, its start and end on the
``perf_counter`` clock, and optional attributes. Spans stay in memory until
the run ends; ``write_jsonl_gz`` then stores them with the run id.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# Gates of acceptance criteria 4 and 5, keyed by the analytic target kind.
# Targets of another kind (the BS maturity law) have no gate.
GATES = {"normal": 1e-3, "lognormal": 5e-3}

# Bytes per ring site that one split step must move at least: four passes
# (coin, half-shift, coin, half-shift), each reading and writing both
# complex128 coin rows once: 4 * 2 * 2 * 16.
BYTES_PER_SITE_STEP = 256


def _observe_evolve(args, out):
    state, _params, schedule = args[:3]
    return {"positions": state.num_positions, "steps": schedule.steps}


def _observe_train(args, result):
    prov = args[0].provenance
    kind = prov.get("kind") if prov.get("source") == "analytic" else None
    history = result.mse_history
    return {
        "best_mse": result.best_mse,
        "gate": GATES.get(kind),
        "evals": len(history),
        "best_eval": history.index(min(history)) + 1,
        "restarts_run": result.metadata["restarts_run"],
    }


# (owner path, attribute, span name). The owner is reached from the ssqw
# package by attribute lookup; the last entry wraps the dataclass hook that
# every WalkerState construction runs.
HOOKS = [
    ("walk", "apply_coin", "statevector.apply_coin"),
    ("walk", "apply_shift_plus", "walk.shift"),
    ("walk", "apply_shift_minus", "walk.shift"),
    ("walk", "coin_matrix", "walk.coin_matrix"),
    ("optimize", "evolve", "walk.evolve"),
    ("optimize", "position_distribution", "statevector.position_distribution"),
    ("optimize", "objective", "optimize.objective"),
    ("optimize", "mse", "optimize.mse"),
    ("optimize", "train", "optimize.train"),
    ("cli", "train", "optimize.train"),
    ("target", "analytic_histogram", "target.analytic_histogram"),
    ("cli", "analytic_histogram", "target.analytic_histogram"),
    ("cli", "bs_lognormal_target", "target.bs_lognormal_target"),
    ("cli", "price_report", "pricing.price_report"),
    ("cli", "main", "cli.main"),
    ("statevector.WalkerState", "__post_init__", "statevector.WalkerState"),
]

OBSERVERS = {"walk.evolve": _observe_evolve, "optimize.train": _observe_train}


class Recorder:
    """Collects spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent, start, end, attrs]
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, observe=None):
        # Written out rather than through span(): this runs for every wrapped
        # call (about 60 per fit16 evaluation), so it avoids a generator.
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            span[4] = observe(args, out)
        return out

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write_jsonl_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, parent, t0, t1, attrs) in enumerate(self.spans):
                row = {"run": self.run_id, "id": i, "parent": parent, "name": name, "start": t0, "end": t1}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _wrap(rec: Recorder, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, observe)

    return wrapper


def install(ssqw, rec: Recorder):
    """Wrap every hook; returns a function that puts the originals back."""
    saved = []
    for path, attr, name in HOOKS:
        owner = ssqw
        for part in path.split("."):
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(rec, name, orig))

    def restore() -> None:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore


def layer_metrics(rec: Recorder, bytes_written: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    spans = rec.spans
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, _, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child_s[i]

    evolve_steps = 0
    evolve_bytes = 0
    trains = []
    objective_in_train = 0
    objective_in_train_s = 0.0
    for name, parent, t0, t1, attrs in spans:
        if name == "walk.evolve":
            evolve_steps += attrs["steps"]
            evolve_bytes += BYTES_PER_SITE_STEP * attrs["positions"] * attrs["steps"]
        elif name == "optimize.train":
            trains.append(attrs)
        elif name == "optimize.objective" and parent >= 0 and spans[parent][0] == "optimize.train":
            objective_in_train += 1
            objective_in_train_s += t1 - t0
    overhead = total["optimize.train"] - objective_in_train_s
    gated = [t for t in trains if t["gate"] is not None]
    evals = sum(t["evals"] for t in trains)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "statevector.apply_coin.calls": (calls["statevector.apply_coin"], "count"),
        "statevector.apply_coin.s": (total["statevector.apply_coin"], "s"),
        "statevector.WalkerState.count": (calls["statevector.WalkerState"], "count"),
        "statevector.WalkerState.s": (total["statevector.WalkerState"], "s"),
        "statevector.position_distribution.s": (total["statevector.position_distribution"], "s"),
        "walk.evolve.calls": (calls["walk.evolve"], "count"),
        "walk.evolve.s": (total["walk.evolve"], "s"),
        "walk.evolve.self_s": (self_s["walk.evolve"], "s"),
        "walk.evolve.computed_bytes_per_step": (ratio(evolve_bytes, evolve_steps), "B"),
        "walk.evolve.computed_gbps": (ratio(evolve_bytes, total["walk.evolve"]) / 1e9, "GB/s"),
        "walk.shift.calls": (calls["walk.shift"], "count"),
        "walk.shift.s": (total["walk.shift"], "s"),
        "walk.coin_matrix.s": (total["walk.coin_matrix"], "s"),
        "optimize.train.calls": (calls["optimize.train"], "count"),
        "optimize.train.s": (total["optimize.train"], "s"),
        "optimize.objective.calls": (calls["optimize.objective"], "count"),
        "optimize.objective.s": (total["optimize.objective"], "s"),
        "optimize.mse.s": (total["optimize.mse"], "s"),
        "optimize.overhead_s": (overhead, "s"),
        "optimize.overhead_us_per_eval": (ratio(overhead, objective_in_train) * 1e6, "us"),
        "optimize.restarts_run": (sum(t["restarts_run"] for t in trains), "count"),
        "optimize.evals_to_best_frac": (ratio(sum(t["best_eval"] for t in trains), evals), "ratio"),
        "optimize.best_mse_geomean": (
            math.exp(sum(math.log(t["best_mse"]) for t in trains) / len(trains)) if trains else 0.0,
            "mse",
        ),
        "optimize.gate_miss_frac": (ratio(sum(t["best_mse"] > t["gate"] for t in gated), len(gated)), "ratio"),
        "target.analytic_histogram.s": (total["target.analytic_histogram"], "s"),
        "target.bs_lognormal_target.s": (total["target.bs_lognormal_target"], "s"),
        "pricing.price_report.s": (total["pricing.price_report"], "s"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(spans), "count"),
    }


def per_call_us(rec: Recorder, name: str) -> float:
    """Mean span duration of ``name`` in microseconds."""
    durations = [t1 - t0 for n, _, t0, t1, _ in rec.spans if n == name]
    return 1e6 * sum(durations) / len(durations) if durations else 0.0
