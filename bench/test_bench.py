"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from momentpde import cli, estimator, solver  # noqa: E402


def test_probe_imports_nothing_from_the_package():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import probe\n"
        "probe.probe()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'momentpde'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.fixture(scope="module")
def heat2d_run(tmp_path_factory):
    """One real, untraced heat2d-exact operation and its runner."""
    workload = WORKLOADS["heat2d-exact"]
    op = workload.prepare(0, tmp_path_factory.mktemp("heat2d"))
    runner = run.Runner(workload, op, cli.main)
    runner.run()
    assert (runner.attempted, runner.failed) == (1, 0), runner.failures
    results = {label: (0, out.read_bytes()) for label, _, out in op.commands}
    return runner, results


def _corrupt_coefficient(results):
    data = results["solve"][1]
    at = data.index(b'"value": "', data.index(b'"n": 3')) + len(b'"value": "')
    while not data[at:at + 1].isdigit():
        at += 1
    digit = b"1" if data[at:at + 1] == b"2" else b"2"
    return {**results, "solve": (0, data[:at] + digit + data[at + 1:])}


def _nonzero_residual(results):
    doc = json.loads(results["estimate"][1])
    doc["residual_max"] = "1/7"
    return {**results, "estimate": (0, json.dumps(doc).encode())}


def _fail_verdict(results):
    doc = json.loads(results["estimate"][1])
    doc["verdict"] = "FAIL"
    return {**results, "estimate": (1, json.dumps(doc).encode())}


def _missing_output(results):
    return {**results, "solve": (0, None)}


@pytest.mark.parametrize("corrupt", [_corrupt_coefficient, _nonzero_residual,
                                     _fail_verdict, _missing_output])
def test_corrupted_output_counts_as_a_failure(heat2d_run, corrupt):
    runner, results = heat2d_run
    before = (runner.attempted, runner.failed)
    runner.record(runner.workload.check(runner.op, corrupt(results),
                                        runner.first, runner.expected))
    assert (runner.attempted, runner.failed) == (before[0] + 1, before[1] + 1)


def test_s_hat_is_checked_on_fractional_bigfloat(tmp_path):
    workload = WORKLOADS["fractional-bigfloat"]
    op = workload.prepare(0, tmp_path)
    recorded = {op.key: {"s_hat": 0.25}}
    estimate = json.dumps({"verdict": "PASS", "s_hat": 0.5}).encode()
    failures = workload.check(op, {"estimate": (0, estimate)}, {}, recorded)
    assert any("s_hat" in failure for failure in failures)


def test_tracer_rebinds_names_imported_by_value():
    rebound = [(cli, "solve"), (cli, "load_problem"), (cli, "verify_theorem"),
               (cli, "lemma_battery"), (cli, "solution_to_dict"),
               (solver, "validate"), (solver, "residual"),
               (estimator, "nagumo_profile"), (estimator, "k1_inverse")]
    originals = [getattr(module, name) for module, name in rebound]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(rebound, originals):
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert [getattr(module, name) for module, name in rebound] == originals


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_assigned_spans_record_calls_and_self_times_add_up(name, tmp_path):
    workload = WORKLOADS[name]
    op = workload.prepare(0, tmp_path)
    runner = run.Runner(workload, op, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        wall = runner.run()
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.failures
    silent = [span for span in workload.spans if tracer.calls(span) == 0]
    assert not silent
    metrics = layer_metrics(tracer, wall)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert math.isclose(total + metrics["trace.unattributed_s"], metrics["trace.op_s"],
                        rel_tol=1e-9)
    assert 0 <= metrics["trace.unattributed_s"] < metrics["trace.op_s"]


def test_tail_leaves_ten_repetitions_above_it():
    assert run.tail([0.5] * 10) is None
    assert run.tail([float(i) for i in range(20, 0, -1)]) == (50.0, 10.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heat-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
