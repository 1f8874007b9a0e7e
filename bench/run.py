"""Benchmark of the momentpde CLI on seeded workloads.

    python3 bench/run.py --workload heat-exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The CLI is driven in-process (`cli.main([...])`, outputs written to
files in a temporary directory under the checkout) one operation at a time.

--trace 0 measures the end-to-end metrics:
  op_s        median over the run's repetitions of the host-normalised
              wall time of one operation (see probe.py), in seconds at the
              reference probe time P_REF_S;
  setup_s     median over fresh interpreters, started at even intervals
              during the same run, of the time to run `import momentpde.cli`
              plus `load_problem` on the workload's input, normalised by
              probes run in that interpreter;
  peak_rss_mb peak resident set of this process, which ran the operations.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of tracer.py.

Every operation's output is checked (workloads.py).  The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics; the exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import probe  # noqa: E402
from tracer import UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Operation, Workload, load_expected  # noqa: E402

# Median probe time of this host in its fast phase when the benchmark was
# defined.  Normalised seconds are seconds at this probe speed.
P_REF_S = 0.030

SETUP_SAMPLES = 7

# Run by a fresh interpreter: argv = bench dir, src dir, [problem file].
# The probes run in the child, on the core it was given, around the set-up.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from probe import probe
before = probe()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import momentpde.cli as cli
if len(sys.argv) > 3:
    cli.load_problem(sys.argv[3])
wall = time.perf_counter() - start
print(before, wall, probe())
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above
    it, or None when there are not more than ten samples."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return None
    k = len(ordered) - 11
    return 100 * (k + 1) / len(ordered), ordered[k]


class Runner:
    """Executes and checks operations of one workload, counting failures."""

    def __init__(self, workload: Workload, op: Operation, cli_main):
        self.workload = workload
        self.op = op
        self.cli_main = cli_main
        self.expected = load_expected()[workload.name]
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self) -> float:
        """One operation; returns its wall time in seconds."""
        for _, _, out in self.op.commands:
            out.unlink(missing_ok=True)
        codes = {}
        start = time.perf_counter()
        try:
            for label, argv, _ in self.op.commands:
                codes[label] = self.cli_main(argv)
        except Exception as exc:  # a crash is a failed operation, not an abort
            codes[label] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results = {
            label: (codes.get(label, "not run"),
                    out.read_bytes() if out.exists() else None)
            for label, _, out in self.op.commands
        }
        self.record(self.workload.check(self.op, results, self.first,
                                        self.expected))
        return elapsed

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def setup_command(root: Path, op: Operation) -> list[str]:
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE), str(root / "src")]
    if op.problem is not None:
        cmd.append(str(op.problem))
    return cmd


def setup_sample(cmd: list[str]) -> tuple[float, float]:
    """One fresh interpreter: (set-up wall time, mean of its two probes)."""
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    before, wall, after = (float(x) for x in out.split())
    return wall, (before + after) / 2


def timed_run(runner: Runner, seconds: float, setup_cmd: list[str]) -> dict:
    """Operations back to back for `seconds`, each bracketed by probes, with
    SETUP_SAMPLES set-up samples spread evenly over the same interval so that
    both metrics see the same mix of fast and slow host phases."""
    raw = {"op_wall_s": [], "op_probe_s": [], "setup_wall_s": [], "setup_probe_s": []}
    start = time.perf_counter()
    before = probe()
    while True:
        elapsed = time.perf_counter() - start
        taken = len(raw["setup_wall_s"])
        if taken < SETUP_SAMPLES and elapsed >= taken * seconds / SETUP_SAMPLES:
            wall, mean = setup_sample(setup_cmd)
            raw["setup_wall_s"].append(wall)
            raw["setup_probe_s"].append(mean)
            before = probe()
            continue
        if raw["op_wall_s"] and elapsed >= seconds:
            return raw
        wall = runner.run()
        after = probe()
        raw["op_wall_s"].append(wall)
        raw["op_probe_s"].append((before + after) / 2)
        before = after


def normalised(walls: list[float], probes: list[float]) -> list[float]:
    return [wall * P_REF_S / mean for wall, mean in zip(walls, probes)]


def traced_run(runner: Runner, seconds: float, tracer) -> dict:
    """Alternate untraced and traced operations for `seconds`.

    Per-layer times are normalised by the probes around each traced
    operation and averaged over the traced operations.
    """
    untraced, traced, rows = [], [], []
    before = probe()
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        wall = runner.run()
        middle = probe()
        untraced.append(wall * P_REF_S / ((before + middle) / 2))
        tracer.reset()
        tracer.install()
        try:
            wall = runner.run()
        finally:
            tracer.uninstall()
        before = probe()
        scale = P_REF_S / ((middle + before) / 2)
        traced.append(wall * scale)
        row = layer_metrics(tracer, wall)
        rows.append({name: value * scale if UNITS[name] == "s" else value
                     for name, value in row.items()})
    metrics = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    src = root / "src"
    if not (src / "momentpde" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    # One thread per process, here and in the set-up children.  numpy's BLAS
    # otherwise starts a thread per core at import, and how long that takes
    # depends on what else runs on the other core: import-only set-up read
    # 0.11 s or 0.18 s with it, and 0.108-0.111 s over five runs without.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from momentpde import cli

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=root) as tmp:
        op = workload.prepare(args.seed, Path(tmp))
        runner = Runner(workload, op, cli.main)
        print(f"workload {workload.name}: seed {args.seed} -> input {op.key}")
        if args.trace:
            runner.run()  # warm-up, checked but not timed
            metrics = traced_run(runner, args.seconds, Tracer())
            for name, value in metrics.items():
                print(f"  {name:28s} {value:.6g} {UNITS[name]}")
            report = {name: {"value": value, "unit": UNITS[name]}
                      for name, value in metrics.items()}
        else:
            setup_cmd = setup_command(root, op)
            subprocess.run(setup_cmd, check=True, capture_output=True)  # fill the bytecode cache
            runner.run()  # warm-up, checked but not timed
            raw = timed_run(runner, args.seconds, setup_cmd)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            op_norm = normalised(raw["op_wall_s"], raw["op_probe_s"])
            setup_norm = normalised(raw["setup_wall_s"], raw["setup_probe_s"])
            report = {
                "op_s": {"value": statistics.median(op_norm), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            for name, entry in report.items():
                print(f"  {name:12s} {entry['value']:.6g} {entry['unit']}")
            q1, q2, q3 = quartiles(raw["op_wall_s"])
            print(f"  raw op wall: median {q2:.4f} s, quartiles {q1:.4f}/{q3:.4f} s, "
                  f"n={len(op_norm)}; probe median "
                  f"{statistics.median(raw['op_probe_s']) * 1e3:.2f} ms "
                  f"(P_ref {P_REF_S * 1e3:.1f} ms)")
            if (high := tail(op_norm)) is not None:
                print(f"  op_s p{high[0]:.0f} {high[1]:.6g} s (ten repetitions above it)")
            print("  raw " + json.dumps(raw))
    fail_ratio = runner.failed / runner.attempted
    print(f"  {'fail_ratio':12s} {fail_ratio:.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    for failure in sorted(set(runner.failures)):
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report,
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
