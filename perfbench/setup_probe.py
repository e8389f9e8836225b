"""What a fresh CLI process pays before its first step: import ``yaglom.cli``,
generate the workload's configs and build the first operation's kernel.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

``run.py`` times this process from launch to exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import yaglom.cli  # noqa: E402

import workloads  # noqa: E402

workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
first = workloads.build(workload, seed, False, out)[0]
cfg = yaglom.cli.resolve_config(first.inputs, {})
_, kernel, _ = yaglom.cli.kernel_from_config(cfg)
x0, n = int(cfg["x0"]), int(cfg["n"])
kernel.rows(x0 - n, x0 + n)
