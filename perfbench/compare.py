"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RUNS.jsonl CHANGE_RUNS.jsonl

Each file holds the records ``run.py`` appends to ``.perfbench_out/runs.jsonl``.
Untraced runs are paired per workload in file order, so run the two sides
alternately with the same seeds.  One row per workload and end-to-end
metric gives each side's median and quartiles, the pairs the change won,
and a verdict:

* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread, or every change
  run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound;
* ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path) -> dict[str, list[dict]]:
    """Untraced run metrics per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0 and not record.get("smoke"):
                metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
                runs.setdefault(record["workload"], []).append(metrics)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _share(x: float, base: float) -> float:
    return x / abs(base) if base else (0.0 if x == 0 else float("inf"))


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool) -> tuple[str, int, int]:
    """Return (verdict, pairs won by the change, pairs compared)."""

    def better(a, b):
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = _share(cm - pm if lower_is_better else pm - cm, pm)
    spread = max(_share(p3 - p1, pm), _share(c3 - c1, cm))
    if all(better(c, p) for c in change for p in parent):
        return "better", wins, len(pairs)
    if spread > bound:
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "better", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    header = f"{'workload':<16} {'metric':<14} {'parent median [q1, q3]':<32} " \
             f"{'change median [q1, q3]':<32} {'wins':>7}  verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run[name] for run in parent[workload]]
            c = [run[name] for run in change[workload]]
            if not p or not c:
                continue
            v, wins, n = verdict(p, c, metric["bound"], metric["better"] == "lower")
            cols = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (quartiles(p), quartiles(c))]
            print(f"{workload:<16} {name:<14} {cols[0]:<32} {cols[1]:<32} {f'{wins}/{n}':>7}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
