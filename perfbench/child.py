"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON --traced 0|1

Runs ``composite-sgd run CONFIG --out OUT_DIR`` through ``cli.main`` with
timing wrappers on the program's public functions, then writes what it
measured to RESULT_JSON. The wrappers replace each function where its caller
looks it up (a module attribute or a class method), so nothing under ``src/``
changes. Untraced, only ``harness.build_problem`` and the three solver entry
points are wrapped: a few clock reads per job and none per iteration. Traced,
every layer boundary in ``TRACED`` is wrapped and spans are aggregated in
memory (calls, inclusive seconds, self seconds, failures). Calls are also
counted per wrapped target, since some spans gather several targets.

Span and run times are wall time at the reference host speed (see
``HostClock``); the plain wall time of the whole run is kept beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SOLVER_SPANS = ("solvers.sg", "solvers.ssg", "solvers.acsa")
# Full-data objective and penalty evaluations; under a solver span they are the
# tracer's own work (solvers.trace.s).
TRACE_SPANS = ("problems.objective", "regularizers.evaluate")

# (span, module, attribute path): the attribute is looked up on the named
# module of the program, and a dotted path names a class method.
UNTRACED = (
    ("harness.build_problem", "harness", "build_problem"),
    ("solvers.sg", "solvers", "run_sg"),
    ("solvers.ssg", "solvers", "run_ssg"),
    ("solvers.acsa", "solvers", "run_acsa"),
)
TRACED = UNTRACED + (
    ("core.rng_normal", "core", "RngStream.normal"),
    ("core.rng_indices", "core", "RngStream.indices"),
    ("problems.gen_dataset", "problems", "gen_linear_dataset"),
    ("problems.lipschitz", "problems", "lipschitz_linear"),
    ("problems.oracle_sample", "problems", "MinibatchLinearOracle.sample"),
    ("problems.objective", "problems", "exact_objective_linear"),
    # Building the penalty: its group structure, then the regularizer object.
    # l1 has no structure, so its constructor keeps the span from being empty.
    ("regularizers.build_structure", "regularizers", "build_hierarchical"),
    ("regularizers.build_structure", "regularizers", "load_group_structure"),
    ("regularizers.build_structure", "regularizers", "group_norm"),
    ("regularizers.build_structure", "regularizers", "l1"),
    ("regularizers.prox", "solvers", "prox"),
    ("regularizers.evaluate", "solvers", "evaluate"),
    ("regularizers.evaluate", "regularizers", "evaluate"),
    ("smoothing.smoothed", "harness", "smoothed"),
    ("smoothing.smoothed_gradient", "solvers", "smoothed_gradient"),
    ("solvers.pilot", "solvers", "pilot_sigma_sq"),
    ("harness.write_trace", "harness", "write_trace_csv"),
    ("harness.write_summary", "harness", "write_summary"),
    ("harness.run", "cli", "execute_run"),
    ("config.parse", "cli", "parse_run_config"),
)


# Seconds the calibration kernel takes at the reference host speed: its fast
# regime on a 2-CPU Xeon VM at 2.1 GHz, where the unloaded-vs-loaded kernel
# time swings by 1.6x within seconds.
REFERENCE_KERNEL_S = 0.0007
CALIBRATION_INTERVAL_S = 0.025
# Weight of the newest kernel time in the smoothed one.
SMOOTHING = 0.3


class HostClock:
    """Wall time at the reference host speed.

    On a shared host the same work can take 1.6x longer from one second to
    the next, so raw medians of whole runs wander by 20-35% between runs. A
    SIGALRM handler therefore times a fixed numpy kernel every
    CALIBRATION_INTERVAL_S while the program runs (about 4% of the time), and
    the clock advances at REFERENCE_KERNEL_S over the smoothed kernel time,
    leaving out the handler's own time. Spans are differences of this one
    clock, so the spans nested in a span never add up to more than it.
    The handler runs between bytecodes and touches none of the program's state.
    Process CPU time is no steadier than wall time here, so it cannot replace
    this clock. A change to the program shows at its wall-time size: doubling
    the laminar prox and the full-data objective on tree-large moved run_s and
    the per-iteration times by the same fraction, within 12%, in this clock as
    in wall time.
    """

    def __init__(self):
        self._X = np.sin(np.arange(4000 * 64.0)).reshape(4000, 64)
        self._y = self._X[:, 0].copy()
        self._b = np.zeros(64)
        self.kernels = 0
        self.kernel_sum = 0.0
        self._smoothed = 0.0  # exponentially smoothed kernel seconds
        self._t0 = time.perf_counter()  # when the last sample ended
        self._ref = 0.0  # reference seconds up to _t0

    def _kernel(self) -> float:
        # Minibatch gradients and soft-thresholds on a 2 MB design: the mix of
        # small-array numpy calls and row gathers the solvers spend time on.
        # It tracked their slowdowns far better than a pure-bytecode loop did.
        X, y, b = self._X, self._y, self._b
        start = time.perf_counter()
        for i in range(50):
            rows = (np.arange(10) * 397 + i * 131) % 4000
            XS = X[rows]
            g = XS.T @ (XS @ b - y[rows]) / 10
            np.sign(g) * np.maximum(np.abs(g) - 0.1, 0.0)
        return time.perf_counter() - start

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        if self.kernels:
            self._ref += (start - self._t0) * REFERENCE_KERNEL_S / self._smoothed
        kernel = self._kernel()
        self.kernels += 1
        self.kernel_sum += kernel
        if self.kernels == 1:
            self._smoothed = kernel
        else:
            self._smoothed += SMOOTHING * (kernel - self._smoothed)
        self._t0 = time.perf_counter()

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def now(self) -> float:
        """Reference seconds since start, samples left out."""
        while True:  # retry if a sample landed between the reads
            kernels = self.kernels
            now = self._ref + (time.perf_counter() - self._t0) * REFERENCE_KERNEL_S / self._smoothed
            if self.kernels == kernels:
                return now


class SpanRecorder:
    """Aggregates nested spans per name; a span's self time is its duration
    minus the durations of the spans opened directly inside it."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self.target_calls: dict[str, int] = {}
        self.trace_s = 0.0
        self._stack: list[list] = []  # [name, reference seconds of direct children]

    def wrap(self, name: str, target: str, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        target_calls = self.target_calls
        target_calls[target] = 0
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            target_calls[target] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock.now()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats["failed"] += 1
                raise
            finally:
                elapsed = clock.now() - start
                stack.pop()
                stats["calls"] += 1
                stats["s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    if name in TRACE_SPANS and any(f[0] in SOLVER_SPANS for f in stack):
                        self.trace_s += elapsed

        return wrapper


def import_program():
    """The program's modules, imported from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    from composite_sgd import cli, core, harness, problems, regularizers, solvers

    where = Path(cli.__file__).resolve().parent
    if where != SRC / "composite_sgd":
        raise SystemExit(f"perfbench: imported composite_sgd from {where}, not {SRC}")
    return {"cli": cli, "core": core, "harness": harness, "problems": problems,
            "regularizers": regularizers, "solvers": solvers}


def install(recorder: SpanRecorder, modules: dict, targets) -> None:
    """Wrap each target in place. A target that no longer exists stops the run:
    a rename or an inlining must not silently zero a layer metric."""
    for span, module, path in targets:
        *owners, attr = path.split(".")
        owner = modules[module]
        for part in owners:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            raise SystemExit(f"perfbench: {module}.{path} not found; span {span} cannot be recorded")
        setattr(owner, attr, recorder.wrap(span, f"{module}.{path}", getattr(owner, attr)))


def blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library; None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "COMPOSITE_SGD_THREADS": os.environ.get("COMPOSITE_SGD_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("result")
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    modules = import_program()
    clock = HostClock()
    recorder = SpanRecorder(clock)
    install(recorder, modules, TRACED if args.traced else UNTRACED)

    clock.start()
    try:
        wall0, ref0 = time.perf_counter(), clock.now()
        code = modules["cli"].main(["run", args.config, "--out", args.out])
        wall1, ref1 = time.perf_counter(), clock.now()
    finally:
        clock.stop()

    result = {
        "exit_code": code,
        "run_s": ref1 - ref0,
        "wall_run_s": wall1 - wall0,
        "kernel_s": clock.kernel_sum / clock.kernels,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.stats,
        "target_calls": recorder.target_calls,
        "trace_s": recorder.trace_s,
        "machine": machine(),
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
