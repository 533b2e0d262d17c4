"""Benchmark of the povm-forge command line, run in-process through povm_forge.cli.main.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's problem files from the seed, sets up five
times (import in a fresh interpreter, file generation, one untimed warm-up)
and then repeats whole rounds of the workload's operations until S seconds
have passed.  Every output is checked against the independent computations
in ``oracles``.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of BENCHMARK.json with ``--trace 1``.
A time is the median over the run's rounds.  The load is one process with
one thread of work; BLAS threads are pinned to one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "povm_forge", "data")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")
SETUP_REPEATS = 5
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from povm_forge.cli import main; sys.exit(main(sys.argv[2:]))"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import povm_forge.cli; print(time.perf_counter() - t)"
)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("POVM_FORGE_THREADS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    return env


def _file_bytes(directory: str | None) -> int:
    if directory is None or not os.path.isdir(directory):
        return 0
    return sum(os.path.getsize(os.path.join(base, f)) for base, _, files in os.walk(directory) for f in files)


class Calibration:
    """Host speed probe, sampled between operations.

    The probe is fixed work of the program's kind (small complex matrix
    products, reductions and Python loops) and imports nothing from
    povm_forge.  On a host shared with other tenants the speed of the same
    code swings by tens of percent over seconds to minutes.  Scaling the
    times of a round by REFERENCE_S / mean(probe times during the round)
    reports them at one reference speed, so runs made at different moments
    compare.
    """

    REFERENCE_S = 0.01
    EVERY_S = 0.1

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(7)
        self._a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self._np = np
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -float("inf")

    def probe(self) -> None:
        np, a = self._np, self._a
        start = time.perf_counter()
        total = 0.0
        for _ in range(1000):
            b = a @ a.conj().T
            total += float(np.max(np.abs(b - b.conj().T))) + sum(float(x) for x in b.real.ravel())
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.probe()

    def scale(self, first: int) -> float:
        """REFERENCE_S over the mean probe time since sample ``first``."""
        return self.REFERENCE_S / statistics.fmean(self.samples[first:])


class Runner:
    """Runs operations, times them and checks their outputs."""

    def __init__(self, calibration: Calibration, tracer=None):
        from povm_forge.cli import main

        self.main = main
        self.calibration = calibration
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def _in_process(self, op) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        traced = self.tracer.request(op.argv) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
                code = self.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"  {' '.join(op.argv[:2])}: exit {code}\n{err.getvalue()}", file=sys.stderr)
        return code, out.getvalue(), elapsed

    def _in_child(self, op) -> tuple[int, str, float | None]:
        """Run under the op's deadline; an overrun returns no time."""
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", CHILD, SRC, *op.argv],
                capture_output=True, text=True, timeout=op.deadline_s, env=_child_env(), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            print(f"  {' '.join(op.argv[:2])}: no result within {op.deadline_s} s", file=sys.stderr)
            return -1, "", None
        return done.returncode, done.stdout, time.perf_counter() - start

    def run(self, op, check: bool = True) -> float | None:
        """Run and check one operation; return its time, or None if it overran its deadline."""
        if op.out_dir:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        gc.collect()  # every operation starts with the same garbage-collector state
        code, stdout, elapsed = (self._in_child if op.deadline_s else self._in_process)(op)
        self.calibration.maybe_probe()
        if not check:
            return elapsed
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return elapsed
        from checks import Outcome

        try:
            problems = op.check(Outcome(code, stdout, op.out_dir))
        except (KeyError, ValueError, OSError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.check_failures += [f"{' '.join(op.argv[:2])}: {p}" for p in problems]
        if self.tracer:
            self.tracer.count("cli.output_bytes", len(stdout.encode()) + _file_bytes(op.out_dir))
        return elapsed

    def round(self, ops) -> tuple[dict[str, float], float]:
        """Run every operation once; return the scaled time per metric and the round's scale.

        An operation that overruns its deadline is entered at the deadline,
        unscaled, so that mending it cannot read as a slowdown.
        """
        from workloads import OP_METRICS

        first = len(self.calibration.samples)
        self.calibration.probe()
        measured = dict.fromkeys(OP_METRICS, 0.0)
        charged = dict.fromkeys(OP_METRICS, 0.0)
        for op in ops:
            elapsed = self.run(op)
            if elapsed is None:
                charged[op.metric] += op.deadline_s
            else:
                measured[op.metric] += elapsed
        scale = self.calibration.scale(first)
        times = {name: measured[name] * scale + charged[name] for name in OP_METRICS}
        times["wall_s"] = sum(times.values())
        return times, scale


def _setup_once(workload: str, seed: int, work_dir: str, calibration: Calibration):
    """Import in a fresh interpreter, write the problem files, warm up; return (scaled seconds, ops)."""
    import workloads

    first = len(calibration.samples)
    calibration.probe()
    spent = calibration.spent
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True, text=True, check=True, env=_child_env()
    )
    start = time.perf_counter()
    ops, warmup = workloads.build(workload, seed, DATA, work_dir)
    runner = Runner(calibration)
    for op in warmup:
        runner.run(op, check=False)
    seconds = float(probe.stdout) + time.perf_counter() - start - (calibration.spent - spent)
    return seconds * calibration.scale(first), ops


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "povm_forge", "cli.py")):
        print(f"error: no povm_forge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("POVM_FORGE_THREADS", None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    import povm_forge.cli  # noqa: F401  (set-up times the import in a fresh interpreter)
    import workloads
    from tracer import PER_LAYER, Tracer

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        calibration = Calibration()
        setups = []
        for repeat in range(SETUP_REPEATS):
            work_dir = os.path.join(tmp, f"setup{repeat}")
            seconds, ops = _setup_once(args.workload, args.seed, work_dir, calibration)
            setups.append(seconds)
        tracer = Tracer() if args.trace else None
        plain = Runner(calibration)
        traced = Runner(calibration, tracer)
        untraced_rounds, traced_rounds = [], []
        start = time.perf_counter()
        while not untraced_rounds or time.perf_counter() - start < args.seconds:
            untraced_rounds.append(plain.round(ops))
            if tracer:
                tracer.begin_round()
                tracer.install()
                try:
                    traced_rounds.append(traced.round(ops))
                finally:
                    tracer.uninstall()
        measured = time.perf_counter() - start
        probes = calibration.samples

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    problems = plain.check_failures + traced.check_failures
    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced_rounds) + len(traced_rounds)} rounds "
          f"of {len(ops)} operations in {measured:.1f} s")
    print(f"attempted {attempted} operations, {failed} failed, {len(problems)} check failures")
    print(f"host speed: {len(probes)} probes, median {statistics.median(probes) * 1e3:.2f} ms, "
          f"reference {Calibration.REFERENCE_S * 1e3:.2f} ms")
    for label, rounds in (("untraced", untraced_rounds), ("traced", traced_rounds)):
        if rounds:
            print(f"  {label} rounds (wall at reference speed / scale): "
                  + " ".join(f"{r['wall_s']:.3f}/{scale:.3f}" for r, scale in rounds))

    if args.trace:
        rounds = [tracer.round_metrics(i, scale) for i, (_, scale) in enumerate(traced_rounds)]
        metrics = {
            name: {"value": _median(r[name] for r in rounds), "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()
        }
        overhead = _median(r["wall_s"] for r, _ in traced_rounds) - _median(r["wall_s"] for r, _ in untraced_rounds)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl.gz")
        spans = tracer.write(path, f"{args.workload}-seed{args.seed}")
        print(f"{spans} spans written to {os.path.relpath(path, ROOT)}")
    else:
        names = ("wall_s",) + workloads.OP_METRICS
        metrics = {name: {"value": _median(r[name] for r, _ in untraced_rounds), "unit": "s"} for name in names}
        metrics["setup_s"] = {"value": _median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
