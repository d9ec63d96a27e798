"""Write the golden outputs of every workload at the default seed.

Run once, at the commit whose outputs are the reference, from the root of
a checkout:

    PYTHONPATH=src python3 bench/capture_golden.py

Later commits are checked against these files; do not re-capture them to
make a check pass.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lagmesh.cli  # noqa: E402
import workloads  # noqa: E402

for workload in workloads.WORKLOADS:
    target = workloads.GOLDEN / workload
    target.mkdir(parents=True, exist_ok=True)
    for op in workloads.build(workload, workloads.DEFAULT_SEED, target):
        with contextlib.redirect_stdout(io.StringIO()):
            if lagmesh.cli.main(op.argv) != 0:
                raise SystemExit(f"{workload}: {op.argv} failed")
    for config in target.glob("*.cfg"):
        config.unlink()
    print(f"{workload}: {sorted(p.name for p in target.iterdir())}")
