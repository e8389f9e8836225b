"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload deep_trace --seed 1 --seconds 22 --trace 0

Run from the root of a yaglom checkout; the library is imported from
``src/``.  With ``--trace 0`` the last line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  Each
run also appends a record to ``.perfbench_out/runs.jsonl``, which
``perfbench/compare.py`` reads.  ``--smoke`` runs the reduced inputs the
tests use.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
PROBE_REF_S = 0.035  # machine_probe() on the reference host (2-core Xeon, 2.0 GHz) when quiet
PROBE_EXPONENT = 0.75  # one exponent for every workload; see Scaler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_library():
    if not (SRC / "yaglom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no yaglom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import yaglom

    if Path(yaglom.__file__).resolve().parent != (SRC / "yaglom").resolve():
        sys.exit(f"perfbench: imported yaglom from {yaglom.__file__}, not {SRC}")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}"] = _read(index / "size")
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
    }


def machine_probe() -> float:
    """CPU time of a fixed piece of numpy and csv work that no yaglom code
    touches: the tridiagonal update on an 8001-site vector, a vector of
    uniform draws, and 30000 CSV rows."""
    import numpy as np

    t0 = time.process_time()
    v = np.zeros(8001)
    v[4000] = 1.0
    up, stay, down = np.full(8001, 0.2), np.full(8001, 0.5), np.full(8001, 0.25)
    for _ in range(400):
        w = v * stay
        w[1:] += v[:-1] * up[:-1]
        w[:-1] += v[1:] * down[1:]
        v = w / w.sum()
    u = np.random.default_rng(0).random(200_000)
    steps = np.where(u < 0.3, 1, np.where(u < 0.6, 0, -1))
    csv.writer(io.StringIO()).writerows(enumerate(steps[:30_000].tolist()))
    return time.process_time() - t0


class Scaler:
    """Scale timings to the reference host's quiet speed.

    Timings are CPU time (user + system), which leaves out the time the
    hypervisor gave the CPU to other guests (steal; up to 14% of the time
    on the reference host).  The host is also shared at the core: over
    minutes its speed drifts by up to 40%, and a whole run can fall in a
    slow stretch.  The machine probe slows with
    it, but by more than the workloads do: regressing log iteration time on
    log probe time gave slopes from 0.48 to 0.95 by workload.  A timing
    taken between two probes is multiplied by
    (PROBE_REF_S / their mean) ** PROBE_EXPONENT.
    """

    def __init__(self):
        self.probes = [machine_probe()]

    def scale(self, seconds: float) -> float:
        self.probes.append(machine_probe())
        return seconds * (PROBE_REF_S / statistics.mean(self.probes[-2:])) ** PROBE_EXPONENT


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled CPU times of fresh processes that import ``yaglom.cli``,
    generate the workload's configs and build its first kernel."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    scaler, raw, scaled = Scaler(), [], []
    for _ in range(SETUP_REPEATS):
        before = _children_cpu()
        subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(OUT / "setup")],
            check=True, cwd=ROOT,
        )
        raw.append(_children_cpu() - before)
        scaled.append(scaler.scale(raw[-1]))
    return raw, scaled


def _bytes_written(op) -> int:
    if op.out is None:
        return 0
    return sum(p.stat().st_size for p in op.out.iterdir() if p.name != "config.json")


def run_iteration(ops, tracer=None):
    """Run every operation once; return the summed CPU time of the
    operations, the outcome of each and the bytes the CLI operations wrote."""
    cpu, outcomes, written = 0.0, [], 0
    for op in ops:
        if tracer is not None:
            tracer.install()
        t0 = time.process_time()
        try:
            outcome = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome = exc
        cpu += time.process_time() - t0
        if tracer is not None:
            tracer.uninstall()
            written += _bytes_written(op)
        outcomes.append(outcome)
    return cpu, outcomes, written


def check_iteration(workload: str, ops, outcomes):
    """Return (failed operations, failed checks by name, largest error ratio)."""
    from workloads import flag

    failed_ops, failed_checks, worst = 0, {}, 0.0
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            checks = [flag("raised", False, repr(outcome))]
        else:
            try:
                checks = op.check(outcome)
            except Exception as exc:  # unreadable or missing output
                checks = [flag("output_readable", False, repr(exc))]
        bad = [c for c in checks if not c.ok]
        failed_ops += bool(bad)
        for c in bad:
            failed_checks[f"{workload}/{op.name}.{c.name}"] = c.detail
        worst = max([worst] + [c.ratio for c in checks if c.ratio is not None])
    return failed_ops, failed_checks, worst


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Set up, warm up, then repeat the workload until ``seconds`` run out.

    A traced run alternates an untraced and a traced pass over the
    operations.  Returns the result object and the run's details: raw and
    scaled times, probe times and failed checks.
    """
    import tracing
    import workloads

    raw_setups, setups = ([], []) if trace else measure_setup(workload, seed)
    run_iteration(workloads.build(workload, seed, True, OUT / "warmup"))
    ops = workloads.build(workload, seed, smoke, OUT / "runs")

    attempted = failed = 0
    failed_checks: dict[str, str] = {}
    worst = 0.0

    def account(outcomes):
        nonlocal attempted, failed, worst
        n_failed, bad, ratio = check_iteration(workload, ops, outcomes)
        attempted += len(ops)
        failed += n_failed
        failed_checks.update(bad)
        worst = max(worst, ratio)

    times, scaled, traced_times, layer_runs, spans, rounds = [], [], [], [], [], []
    scaler = Scaler()
    deadline = time.perf_counter() + seconds
    while True:
        t_round = time.perf_counter()
        cpu, outcomes, _ = run_iteration(ops)
        times.append(cpu)
        scaled.append(scaler.scale(cpu))
        account(outcomes)
        if trace:
            tracer = tracing.Tracer()
            tracer.run = len(traced_times)
            cpu, outcomes, written = run_iteration(ops, tracer)
            traced_times.append(cpu)
            layer_runs.append(tracing.layer_metrics(tracer.spans, written))
            spans.extend(tracer.spans)
            account(outcomes)
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break

    if trace:
        metrics = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        tracing.write_spans(spans, OUT / f"spans-{workload}-{seed}.jsonl")
    else:
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_share": (attempted - failed) / attempted,
            "ref_err_ratio": worst,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": set(failed_checks) <= set(workloads.KNOWN_DEFECTS),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {"iteration_times": times, "scaled_times": scaled, "probes": scaler.probes,
               "setups": raw_setups, "scaled_setups": setups, "failed_checks": failed_checks}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("deep_trace", "condition_sweep", "clipped_probe", "monte_carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, for the tests")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"  # one process, no extra threads; set before numpy loads
    _import_library()
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "env": env, **details, "result": result}
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"failed_checks": details["failed_checks"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
