"""Tests of the benchmark itself: smoke runs pass their checks, the seed
moves the inputs but not the operations, span arithmetic, the output
contract, and the compare verdicts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import check_iteration, run_iteration  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name, tmp_path):
    ops = workloads.build(name, 7, True, tmp_path)
    _, outcomes, _ = run_iteration(ops)
    _, failed_checks, worst = check_iteration(name, ops, outcomes)
    assert set(failed_checks) <= set(workloads.KNOWN_DEFECTS), failed_checks
    assert 0.0 < worst <= 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_operations(name, tmp_path):
    def inputs(seed):
        ops = workloads.build(name, seed, False, tmp_path / str(seed))
        given = [{k: v for k, v in op.inputs.items() if k != "out_dir"} for op in ops]
        return [op.name for op in ops], given

    names, first = inputs(1)
    assert inputs(1) == (names, first)
    others = [inputs(seed) for seed in range(2, 7)]
    assert all(other_names == names for other_names, _ in others)
    assert any(given != first for _, given in others)


def test_self_time_and_busy_time_on_a_span_tree():
    spans = [
        Span(0, None, 0, "cli.main", "cli", 0.0, 10.0),
        Span(1, 0, 0, "evolve.evolve_trace", "evolve", 1.0, 4.0),
        Span(2, 1, 0, "chain.rows", "chain", 1.5, 2.0),
        Span(3, 0, 0, "conditions.check_conditions", "conditions", 5.0, 9.0),
        Span(4, 3, 0, "spectral.green_partial", "spectral", 5.5, 8.5),
        Span(5, 4, 0, "spectral.estimate_rho", "spectral", 6.0, 7.0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.5, 2: 0.5, 3: 1.0, 4: 2.0, 5: 1.0}
    busy = tracing.layer_busy(spans)
    assert busy["spectral"] == 3.0  # the nested estimate_rho is not counted twice
    assert busy["cli"] == 10.0
    metrics = tracing.layer_metrics(spans, bytes_written=5)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["conditions.self_s"] == 1.0
    assert metrics["chain.rows_calls"] == 1
    assert metrics["spectral.green_s"] == 3.0
    assert metrics["spectral.rho_s"] == 1.0


def test_tracer_restores_every_patched_name():
    import yaglom.cli
    import yaglom.conditions
    from yaglom.chain import NNKernel

    before = (yaglom.cli.evolve_trace, yaglom.conditions.evolve_trace, NNKernel.rows)
    tracer = tracing.Tracer()
    tracer.install()
    assert yaglom.cli.evolve_trace is yaglom.conditions.evolve_trace is not before[0]
    tracer.uninstall()
    assert (yaglom.cli.evolve_trace, yaglom.conditions.evolve_trace, NNKernel.rows) == before


def _result(args, cwd):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, lines = _result(
        ["--workload", "monte_carlo", "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--smoke"], ROOT,
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _result(
        ["--workload", "monte_carlo", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path
    )
    assert code != 0 and lines == []


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(parent, [x * 0.8 for x in parent], 0.1, True)[0] == "better"
    assert compare.verdict(parent, [x * 1.3 for x in parent], 0.1, True)[0] == "worse"
    assert compare.verdict(parent, parent[::-1], 0.1, True)[0] == "same"
    noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 1.05]
    assert compare.verdict(parent, noisy, 0.1, True)[0] == "unresolved"
    assert compare.verdict(parent, [x * 0.8 for x in parent], 0.1, False)[0] == "worse"


def test_scaler_uses_the_mean_of_the_surrounding_probes(monkeypatch):
    import run

    probes = iter([0.035, 0.070, 0.070])
    monkeypatch.setattr(run, "machine_probe", lambda: next(probes))
    scaler = run.Scaler()
    factor = (0.035 / 0.0525) ** run.PROBE_EXPONENT
    assert scaler.scale(3.0) == pytest.approx(3.0 * factor)
    assert scaler.scale(2.0) == pytest.approx(2.0 * 0.5 ** run.PROBE_EXPONENT)
