"""One benchmark pass in a fresh interpreter.

Imports lagmesh, makes the workload's ``lagmesh.cli.main`` calls one at a
time, checks every output, and writes a JSON record of the pass. A fresh
interpreter per pass means every lru_cache starts cold, as it does for each
CLI invocation. With ``--trace 1`` the pass runs under the span tracer.

    python3 bench/child.py --root . --workload n-ladder --seed 3 \
        --pass-id 0 --trace 0 --workdir .bench_build/work/x --record pass.json
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    workdir = Path(args.workdir)

    start = time.perf_counter()
    import lagmesh
    import lagmesh.cli
    import_s = time.perf_counter() - start
    if not Path(lagmesh.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported lagmesh from {lagmesh.__file__}, not from {root / 'src'}")

    ops = workloads.build(args.workload, args.seed, workdir, args.small)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()

    records = []
    energies = {}
    identical = 0
    start = time.perf_counter()
    for op in ops:
        op_start = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        problems = []
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lagmesh.cli.main(op.argv)
        except Exception as exc:  # a failed operation, counted and reported
            code = None
            problems.append(f"raised {exc!r}")
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        else:
            try:
                found, same = workloads.check(op, out.getvalue(), energies)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                found, same = [f"unreadable output: {exc!r}"], False
            problems += found
            identical += same
        records.append({"argv": op.argv, "kind": op.kind, "seconds": time.perf_counter() - op_start,
                        "problems": problems})
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_id": args.pass_id,
        "trace": args.trace,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "bitwise_identical": identical,
        "golden_outputs": sum(op.golden is not None for op in ops),
    }
    if tracer is not None:
        tracer.uninstall()
        spans_path = workdir / "spans.csv"
        tracer.write(str(spans_path))
        record["spans"] = len(tracer.spans)
        record["spans_file"] = str(spans_path)
        record["layers"] = tracer.layer_metrics()
        record["notes"] = tracer.notes
        record["missing_layers"] = tracer.missing
        cache_info = getattr(lagmesh.observables.build_position_calculus, "cache_info", None)
        record["position_calculus_cache"] = list(cache_info()[:2]) if cache_info else None
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
