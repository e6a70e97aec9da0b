"""Benchmark of the ssqw package: one workload per invocation.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload fit16 --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's operations for ``--seconds`` seconds in
a closed loop (each call starts after the previous one returns), times a
fixed reference computation between operations (see reference.py), and
prints the end-to-end metrics. ``--trace 1`` runs the workload's fixed trace list
once untraced and once with span wrappers installed, and prints the
per-layer metrics and the tracing overhead. Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines record the
environment and a summary. The package is imported from ``src/`` of the
checkout; the run exits with status 2 and prints no result if it is not
there. README.md next to this file describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here and in
# every child process (children inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 60
# Nominal wall time of the ``fit`` reference; ``setup_s`` is set-up time
# scaled to a host on which the reference takes this long.
REF_NOMINAL_S = 0.25

END_TO_END_UNITS = {
    "op_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}


class SetupError(Exception):
    """The package under test cannot be imported from this checkout."""


def import_ssqw():
    """Import ssqw from ``src/`` of this checkout, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import ssqw
        import ssqw.cli
    except ImportError as exc:
        raise SetupError(f"cannot import ssqw from {SRC}: {exc}") from exc
    if Path(ssqw.__file__).resolve().parent != SRC / "ssqw":
        raise SetupError(f"ssqw was imported from {ssqw.__file__}, not from {SRC}")
    return ssqw


def build(name: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs."""
    ssqw = import_ssqw()
    import workloads

    return workloads.WORKLOADS[name](ssqw, seed, workdir)


def environment() -> dict:
    import numpy
    import scipy

    if importlib.util.find_spec("scipy._lib.pyprima") is not None:
        cobyla = "PRIMA, pure-Python port (scipy._lib.pyprima)"
    elif importlib.util.find_spec("scipy.optimize._cobyla") is not None:
        cobyla = "original Fortran COBYLA (scipy.optimize._cobyla)"
    else:
        cobyla = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cobyla": cobyla,
        "nproc": os.cpu_count(),
        "cpu_pin": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches_per_core_or_shared": caches,
        "thread_pins": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_probe(args) -> None:
    """Time import plus input building in this fresh process."""
    t0 = time.perf_counter()
    build(args.workload, args.seed, BUILD)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args) -> tuple[float, float]:
    """Set-up time over several fresh processes: (scaled median, raw median).

    Each probe's wall time is scaled by REF_NOMINAL_S over the mean of the
    ``fit`` reference timed just before and after it, which cancels the
    host's drift as ``op_ref`` does (see reference.py).
    """
    from reference import Reference

    ref = Reference("fit").run
    ref()  # first call pays lazy imports
    raw, scaled = [], []
    ref_before = time_call(ref)
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        ref_after = time_call(ref)
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        scaled.append(seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw)


def run_op(wl, i: int):
    """Run one operation, then its checks; returns (seconds, site steps), or None on failure."""
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
        elapsed = time.perf_counter() - t0
        wl.check(i, out)
    except Exception as exc:  # a failed operation is counted, not fatal
        print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    return elapsed, wl.site_steps(out)


def time_call(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def timed(args, wl, setup: tuple[float, float]) -> dict:
    from reference import Reference

    ref = Reference(wl.reference).run
    ref()  # first call pays lazy imports and allocation
    samples: list[tuple[float, float, int]] = []  # (seconds, seconds / reference, site steps)
    attempted = 0
    start = time.perf_counter()
    last_wall = 0.0
    ref_before = time_call(ref)
    while True:
        elapsed = time.perf_counter() - start
        # Stop before a group of operations that would overrun the run length.
        if attempted >= wl.min_ops and attempted % wl.group == 0 and elapsed + wl.group * last_wall > args.seconds:
            break
        t0 = time.perf_counter()
        done = run_op(wl, attempted)
        ref_after = time_call(ref)
        last_wall = time.perf_counter() - t0
        if done is not None:
            seconds, site_steps = done
            samples.append((seconds, seconds / (0.5 * (ref_before + ref_after)), site_steps))
        ref_before = ref_after
        attempted += 1
    failed = attempted - len(samples)
    if not samples:
        raise SetupError(f"all {attempted} operations failed")
    if wl.name == "repro":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "op_ref": statistics.median(r for _, r, _ in samples),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": setup[0],
    }
    op_s = statistics.median(s for s, _, _ in samples)
    rate = statistics.median(n / s for s, _, n in samples)
    print(
        f"{wl.summary()}; {len(samples)} timed operations, median {op_s:.4f} s wall, "
        f"{rate:.6g} site-steps/s; set-up {setup[1]:.4f} s wall"
    )
    print("op seconds: " + " ".join(f"{s:.4f}" for s, _, _ in samples), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def traced(args, wl, ssqw, workdir: Path) -> dict:
    import spans

    op = getattr(wl, "op_in_process", wl.op)
    wl.warm()
    outputs: list = []
    t0 = time.perf_counter()
    for i in range(wl.trace_ops):
        outputs.append(op(i))
    untraced_s = time.perf_counter() - t0

    rec = spans.Recorder(f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
    restore = spans.install(ssqw, rec)
    try:
        with rec.span("bench.setup"):
            type(wl)(ssqw, args.seed, workdir)
        t0 = time.perf_counter()
        for i in range(wl.trace_ops):
            with rec.span("bench.op"):
                outputs.append(op(i))
        traced_s = time.perf_counter() - t0
    finally:
        restore()

    # Checks run with the wrappers removed, on the untraced and traced outputs alike.
    failed = 0
    for i, out in enumerate(outputs):
        try:
            wl.check(i % wl.trace_ops, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"traced op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
    metrics = spans.layer_metrics(rec, getattr(wl, "bytes_written", 0), traced_s - untraced_s)
    rec.write_jsonl_gz(BUILD / f"ssqw-trace-{wl.name}-seed{args.seed}.jsonl.gz")
    print(f"{wl.summary()}; {wl.trace_ops} operations: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s")
    if wl.name == "fit16":
        print(
            "per call, traced: "
            f"objective {spans.per_call_us(rec, 'optimize.objective') / 1e3:.3f} ms, "
            f"evolve {spans.per_call_us(rec, 'walk.evolve') / 1e3:.3f} ms, "
            f"apply_coin {spans.per_call_us(rec, 'statevector.apply_coin'):.1f} us, "
            f"WalkerState {spans.per_call_us(rec, 'statevector.WalkerState'):.1f} us, "
            f"train {spans.per_call_us(rec, 'optimize.train') / 1e6:.3f} s"
        )
    return {
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fit16", "evolve-wide", "repro"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One CPU for the whole run and its children, so the reference and the
    # operations it normalises run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        ssqw = import_ssqw()
        print("env " + json.dumps(environment()))
        BUILD.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="ssqw-bench-", dir=BUILD))
        try:
            if args.trace:
                wl = build(args.workload, args.seed, workdir)
                result = traced(args, wl, ssqw, workdir)
            else:
                setup = measure_setup(args)
                wl = build(args.workload, args.seed, workdir)
                result = timed(args, wl, setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
