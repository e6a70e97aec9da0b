"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, runs one
operation at a time through the public API or the ``ssqw`` CLI (``op``),
and checks that operation's outputs with the benchmark's own numpy
(``check``). ``op`` is the only part that is timed. Every name in the
package is looked up at call time (``ssqw.optimize.train``, not a bound
local), so the span wrappers of ``spans.py`` see the calls.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from reference import numpy_walk
from spans import GATES


class CheckFailed(Exception):
    """An operation returned output that fails the benchmark's checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


ACCEPTANCE_SEED = 7
FIT_BINS = 16
FIT_STEPS = 7


def warm_cobyla(ssqw) -> None:
    """Run an 8-evaluation ``train`` so SciPy imports its COBYLA backend,
    which the first ``minimize`` call loads lazily. (COBYLA needs at least
    six angles + 2 evaluations.)"""
    target = ssqw.target.analytic_histogram(ssqw.DistSpec("normal", 7.5, 1.875), ssqw.Domain(0.0, 15.0), FIT_BINS)
    ssqw.optimize.train(target, ssqw.OptimizerConfig(max_iters=8, steps=ssqw.WalkSchedule(FIT_STEPS)))


def check_fit(result, target) -> None:
    """Output checks of one ``train`` call."""
    history = result.mse_history
    require(len(history) == result.iterations_used, "mse_history length != iterations_used")
    require(result.best_mse == min(history), f"best_mse {result.best_mse!r} != min(mse_history)")
    dist = np.asarray(result.trained_dist, dtype=np.float64)
    require(dist.shape == target.probs.shape, f"trained_dist has shape {dist.shape}")
    require(abs(float(dist.sum()) - 1.0) <= 1e-9, f"trained_dist sums to {float(dist.sum())!r}")
    d = dist - target.probs
    own = float(np.mean(d * d))
    require(abs(own - result.best_mse) <= 1e-12, f"recomputed MSE {own!r} != best_mse {result.best_mse!r}")


class Fit16:
    """Repeated ``train`` calls at the acceptance configuration.

    Calls come in pairs that share a train seed: criterion 4's normal target,
    then criterion 5's lognormal target. The first pair uses the acceptance
    seed 7, so the known criterion-4 gate miss is always in the run; later
    train seeds are drawn from the workload seed.
    """

    name = "fit16"
    reference = "fit"
    group = 2  # a run stops only after whole pairs
    min_ops = 2
    trace_ops = 2

    def __init__(self, ssqw, seed: int, workdir: Path):
        self.ssqw = ssqw
        domain = ssqw.Domain(0.0, 15.0)
        hist = ssqw.target.analytic_histogram
        self.targets = (
            hist(ssqw.DistSpec("normal", 7.5, 1.875), domain, FIT_BINS),
            hist(ssqw.DistSpec("lognormal", math.log(7.5) - 0.125, 0.5), domain, FIT_BINS),
        )
        rng = np.random.default_rng(seed)
        self.train_seeds = [ACCEPTANCE_SEED] + [int(s) for s in rng.integers(0, 2**31 - 1, size=255)]
        self.fits: list[tuple[str, int, float, bool]] = []

    def warm(self) -> None:
        warm_cobyla(self.ssqw)

    def op(self, i: int):
        target = self.targets[i % 2]
        cfg = self.ssqw.OptimizerConfig(
            max_iters=100,
            restarts=8,
            seed=self.train_seeds[(i // 2) % len(self.train_seeds)],
            steps=self.ssqw.WalkSchedule(FIT_STEPS),
        )
        return target, cfg.seed, self.ssqw.optimize.train(target, cfg)

    def check(self, i: int, out) -> None:
        target, seed, result = out
        check_fit(result, target)
        kind = target.provenance["kind"]
        self.fits.append((kind, seed, result.best_mse, result.best_mse <= GATES[kind]))

    def site_steps(self, out) -> int:
        return FIT_BINS * FIT_STEPS * out[2].iterations_used

    def summary(self) -> str:
        misses = [f"{k}@{s}" for k, s, _, ok in self.fits if not ok]
        geo = math.exp(sum(math.log(m) for _, _, m, _ in self.fits) / len(self.fits)) if self.fits else 0.0
        return (
            f"fit16: {len(self.fits)} fits, best_mse geomean {geo:.6e}, "
            f"{len(misses)} gate misses {misses} (normal@7 is the known criterion-4 miss)"
        )


class EvolveWide:
    """Repeated ``objective`` calls on a 2**16-site ring with 64 steps.

    Angles are drawn uniformly from [0, 2*pi) with the workload seed. The
    target is a 65536-bin analytic normal centred on the start site.
    """

    name = "evolve-wide"
    reference = "wide"
    group = 1
    min_ops = 3
    trace_ops = 4
    QUBITS = 16
    STEPS = 64

    def __init__(self, ssqw, seed: int, workdir: Path):
        self.ssqw = ssqw
        m = 1 << self.QUBITS
        self.target = ssqw.target.analytic_histogram(
            ssqw.DistSpec("normal", m / 2 + 0.5, 32.0), ssqw.Domain(0.0, float(m)), m
        )
        self.init = ssqw.initial_state(self.QUBITS, 1.0, 0.0, m // 2)
        self.schedule = ssqw.WalkSchedule(self.STEPS)
        self.angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(1024, 6))

    def warm(self) -> None:
        pass

    def op(self, i: int):
        params = self.ssqw.SsqwParams.from_array(self.angles[i % len(self.angles)])
        return params, self.ssqw.optimize.objective(params, self.target, self.schedule, self.init)

    def check(self, i: int, out) -> None:
        params, value = out
        final = self.ssqw.walk.evolve(self.init, params, self.schedule)
        n0, n1 = self.init.norm_sq(), final.norm_sq()
        require(abs(n1 - n0) <= 1e-10 * self.STEPS, f"norm moved from {n0!r} to {n1!r}")
        dist = self.ssqw.statevector.position_distribution(final)
        ref_amps = numpy_walk(self.init.amps, self.angles[i % len(self.angles)], self.STEPS)
        ref = (ref_amps.real**2 + ref_amps.imag**2).sum(axis=0)
        err = float(np.max(np.abs(dist - ref)))
        require(err <= 1e-12, f"distribution differs from the numpy loop by {err:.3e}")
        d = ref - self.target.probs
        own = float(np.mean(d * d))
        require(abs(value - own) <= 1e-9 * own, f"objective {value!r} != numpy MSE {own!r}")

    def site_steps(self, out) -> int:
        return (1 << self.QUBITS) * self.STEPS

    def summary(self) -> str:
        return f"evolve-wide: ring 2**{self.QUBITS}, {self.STEPS} steps per objective call"


# 25 evaluations per restart rather than the CLI's 800 (about 61 s) or 100
# (6-10 s): 3-4.5 s per repro gives 5-9 operations in a 30 s run, which
# a median needs to be steady on a shared machine, and raises the share of
# start-up, targets, pricing and writing that only this workload measures.
REPRO_ARGS = ["repro", "--max-iters", "25"]
REPRO_FILES = sorted(
    [f"{n}_{s}" for n in ("normal", "lognormal", "bs") for s in ("target.json", "result.json", "result.csv")]
    + ["bs_price.json", "bs_price.csv", "summary.json"]
)
REPRO_TIMEOUT_S = 120.0


def wait_with_rusage(proc: subprocess.Popen, timeout: float) -> tuple[int | None, int]:
    """Wait for ``proc``; returns its exit code and peak RSS in KiB.

    Uses os.wait4 rather than Popen.wait because it returns the child's own
    resource usage. Kills the child on timeout or on any exception, and
    always reaps it. After a timeout the exit code is None.
    """
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss
            time.sleep(0.002)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return None, 0


class Repro:
    """``python -m ssqw repro --max-iters 25`` as a subprocess.

    All other flags keep their defaults (seed 7, 8 restarts, 7 steps), so
    the workload seed does not change the command. Each run writes into a
    fresh directory under the benchmark's work directory.
    """

    name = "repro"
    reference = "fit"
    group = 1
    min_ops = 2  # the byte-identity check needs a previous repro
    trace_ops = 1

    def __init__(self, ssqw, seed: int, workdir: Path):
        self.ssqw = ssqw
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(Path(ssqw.__file__).parent.parent))
        self.previous: dict[str, bytes] | None = None
        self.peak_rss_kb = 0
        self.bytes_written = 0

    def warm(self) -> None:
        warm_cobyla(self.ssqw)

    def _collect(self, outdir: str) -> dict[str, bytes]:
        files = {}
        for name in sorted(os.listdir(outdir)):
            files[name] = Path(outdir, name).read_bytes()
        shutil.rmtree(outdir)
        return files

    def op(self, i: int):
        """Run the CLI in a child process; returns (exit code, files, log)."""
        outdir = tempfile.mkdtemp(prefix="repro-", dir=self.workdir)
        log_path = Path(self.workdir, f"repro-{i}.log")
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ssqw", *REPRO_ARGS, "--outdir", outdir],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=self.workdir,
            )
            code, rss_kb = wait_with_rusage(proc, REPRO_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        log_text = log_path.read_text(errors="replace")
        log_path.unlink()
        return code, self._collect(outdir), log_text

    def op_in_process(self, i: int):
        """Run ``ssqw.cli.main`` in this process, for the traced run."""
        outdir = tempfile.mkdtemp(prefix="repro-", dir=self.workdir)
        with redirect_stdout(io.StringIO()) as buf:
            code = self.ssqw.cli.main([*REPRO_ARGS, "--outdir", outdir])
        return code, self._collect(outdir), buf.getvalue()

    def check(self, i: int, out) -> None:
        code, files, log_text = out
        require(code == 0, f"repro exited with {code}: {log_text[-500:]}")
        require(sorted(files) == REPRO_FILES, f"repro wrote {sorted(files)}")
        if self.previous is not None:
            changed = [n for n in REPRO_FILES if files[n] != self.previous[n]]
            require(not changed, f"artifacts differ from the previous repro: {changed}")
        self.previous = files
        self.bytes_written = sum(len(b) for b in files.values())
        summary = json.loads(files["summary.json"])
        for name in ("normal", "lognormal", "bs"):
            result = json.loads(files[f"{name}_result.json"])
            require(
                summary[name]["best_mse"] == result["best_mse"],
                f"summary.json best_mse for {name} != {name}_result.json",
            )
            require(result["best_mse"] == min(result["mse_history"]), f"{name}: best_mse != min(mse_history)")
            d = np.asarray(result["trained_dist"]) - np.asarray(json.loads(files[f"{name}_target.json"])["probs"])
            own = float(np.mean(d * d))
            require(abs(own - result["best_mse"]) <= 1e-12, f"{name}: recomputed MSE {own!r} != best_mse")

    def site_steps(self, out) -> int:
        summary = json.loads(out[1]["summary.json"])
        return FIT_BINS * FIT_STEPS * sum(summary[n]["iterations_used"] for n in ("normal", "lognormal", "bs"))

    def summary(self) -> str:
        return f"repro: {' '.join(REPRO_ARGS)}, {len(REPRO_FILES)} artifacts, {self.bytes_written} bytes"


WORKLOADS = {w.name: w for w in (Fit16, EvolveWide, Repro)}
