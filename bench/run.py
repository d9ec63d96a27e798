"""lagmesh benchmark: three CLI workloads, timed end to end and per layer.

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 35     # every metric, every workload
    python3 bench/run.py --selfcheck                     # reduced size, checks the metric set

Each pass runs in a fresh child interpreter (bench/child.py) that makes one
``lagmesh.cli.main`` call at a time: a closed loop with one client. With
``--trace 0`` the run reports the end-to-end metrics over untraced passes;
with ``--trace 1`` it reports per-layer metrics from one traced pass, one
traced pass with a single BLAS thread, and the tracing overhead against
untraced passes of the same run. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 11
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# layers whose time depends on the BLAS thread count
BLAS1_LAYERS = ("linalg.lapack_eigh", "linalg.eigh_refined", "solver.solve_spectrum")


def per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "solver.solve.hit_ratio": "ratio",
        "solver.solve.concurrency": "ratio",
        "observables.build_position_calculus.hit_ratio": "ratio",
        "mesh.node_builds_per_size": "ratio",
        "cli.write_csv.bytes": "bytes",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "blas1.wall_s": "s",
        "blas1.solver.solve.concurrency": "ratio",
    })
    for layer in BLAS1_LAYERS:
        units[f"blas1.{layer}.self_s"] = "s"
    return units


# --- environment ---------------------------------------------------------------

def _git_sha():
    """HEAD of the checkout's git repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


_PROBE = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception as exc:
    blas = {"error": repr(exc)}
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def environment(workload, seed, seconds, trace) -> dict:
    probe = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                           env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    libs = json.loads(probe.stdout)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": libs["numpy"],
        "blas": {k: libs["blas"].get(k) for k in ("name", "version", "openblas configuration", "error")
                 if k in libs["blas"]},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "loadavg_start": os.getloadavg(),
    }


# --- running passes ---------------------------------------------------------------

def child_env(blas_threads=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    # compiled bytecode for lagmesh and numpy lives under .bench_build, so
    # set-up time does not depend on whether the caller allows writing it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def measure_setup(samples: int) -> list:
    """Fresh-interpreter import times of lagmesh and lagmesh.cli.

    One unmeasured import first, so that compiled bytecode exists.
    """
    code = ("import time; t = time.perf_counter(); import lagmesh, lagmesh.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"import of lagmesh failed:\n{done.stderr}")
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(workload, seed, pass_id, trace, small, workdir: Path, blas_threads=None) -> dict:
    passdir = workdir / f"pass{pass_id}"
    passdir.mkdir(parents=True)
    record = passdir / "record.json"
    command = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT), "--workload", workload,
               "--seed", str(seed), "--pass-id", str(pass_id), "--trace", str(trace),
               "--workdir", str(passdir), "--record", str(record)]
    if small:
        command.append("--small")
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, env=child_env(blas_threads),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not record.exists():
        raise RuntimeError(f"pass {pass_id} of {workload} failed (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(record.read_text(encoding="utf-8"))
    result["process_s"] = time.perf_counter() - started
    if trace:
        keep = ROOT / ".bench_build" / "trace"
        keep.mkdir(parents=True, exist_ok=True)
        spans = keep / f"{workload}-seed{seed}-pass{pass_id}.spans.csv"
        shutil.move(result["spans_file"], spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    shutil.rmtree(passdir)
    return result


def run_untraced_until(budget_end, passes, min_passes, run):
    """Append untraced passes while one more fits before budget_end."""
    while True:
        untraced = [p for p in passes if not p["trace"]]
        if len(untraced) >= min_passes:
            typical = statistics.median(p["process_s"] for p in passes)
            if time.perf_counter() + typical > budget_end:
                return
        passes.append(run(len(passes), 0))


# --- metrics ----------------------------------------------------------------------

def _spread(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [q1 {q1:.4g}, q3 {q3:.4g}] (n={len(values)})"


def layer_metrics(traced: dict, blas1: dict, untraced_wall: float) -> dict:
    layers = traced["layers"]
    metrics = {}
    for layer, values in layers.items():
        for key, value in values.items():
            metrics[f"{layer}.{key}"] = value
    solves = layers["solver.solve"]["calls"]
    misses = layers["solver.assemble_hamiltonian"]["calls"]
    metrics["solver.solve.hit_ratio"] = 1.0 - misses / solves if solves else 0.0
    hits, cache_misses = traced["position_calculus_cache"] or (0, 0)
    metrics["observables.build_position_calculus.hit_ratio"] = (
        hits / (hits + cache_misses) if hits + cache_misses else 0.0)
    sizes = traced["notes"].get("specfun.laguerre_zeros", [])
    metrics["mesh.node_builds_per_size"] = len(sizes) / len(set(sizes)) if sizes else 0.0
    metrics["cli.write_csv.bytes"] = sum(traced["notes"].get("cli.write_csv", []))
    metrics["solver.solve.concurrency"] = _concurrency(layers)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    metrics["trace.spans"] = traced["spans"]
    metrics["blas1.wall_s"] = blas1["wall_s"]
    metrics["blas1.solver.solve.concurrency"] = _concurrency(blas1["layers"])
    for layer in BLAS1_LAYERS:
        metrics[f"blas1.{layer}.self_s"] = blas1["layers"][layer]["self_s"]
    return metrics


def _concurrency(layers: dict) -> float:
    """Busy time of solve summed over threads, per second of run_scan_h."""
    scan = layers["cli.run_scan_h"]["busy_s"]
    return layers["solver.solve"]["busy_s"] / scan if scan else 0.0


def run_workload(workload, seed, seconds, trace, small=False) -> dict:
    env = environment(workload, seed, seconds, trace)
    base = ROOT / ".bench_build" / "work"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        start = time.perf_counter()
        setup = measure_setup(1 if small else SETUP_SAMPLES)

        def run(pass_id, traced, blas_threads=None):
            return run_pass(workload, seed, pass_id, traced, small, workdir, blas_threads)

        passes = []
        if trace:
            passes.append(run(0, 1))
            passes.append(run(1, 1, blas_threads=1))
        run_untraced_until(start + seconds, passes, 1 if small or trace else 3, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    untraced = [p for p in passes if not p["trace"]]
    walls = [p["wall_s"] for p in untraced]
    rss = [p["peak_rss_mb"] for p in untraced]
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(p["pass_id"], op["argv"], problem) for p in passes for op in p["ops"]
                for problem in op["problems"]]
    failed = sum(1 for p in passes for op in p["ops"] if op["problems"])
    if trace:
        metrics = layer_metrics(passes[0], passes[1], statistics.median(walls))
        units = per_layer_units()
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(rss)}
        units = END_TO_END
    summary = {
        "wall_s": _spread(walls),
        "setup_s": _spread(setup),
        "peak_rss_mb": _spread(rss),
        "failed_frac": f"{failed / attempted:.4g} ({failed} of {attempted} cli.main calls)",
        "bitwise_identical": f"{sum(p['bitwise_identical'] for p in passes)} of "
                             f"{sum(p['golden_outputs'] for p in passes)} golden outputs",
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"env": env, "summary": summary, "failures": failures[:50], "result": result,
              "passes": [{k: v for k, v in p.items() if k not in ("layers", "notes")} for p in passes]}
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(record: dict) -> None:
    env = record["env"]
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']}")
    for name, text in record["summary"].items():
        unit = END_TO_END.get(name, "")
        print(f"#   {name:<18} {text} {unit}")
    for pass_id, argv, problem in record["failures"]:
        print(f"#   FAILED pass {pass_id} {' '.join(argv)}: {problem}")
    if env["trace"]:
        for name, metric in record["result"]["metrics"].items():
            print(f"#   {name:<52} {metric['value']:.6g} {metric['unit']}")


def selfcheck() -> int:
    """Reduced-size run of every workload, traced and untraced, that checks
    every metric BENCHMARK.json names is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record = run_workload(workload, 0, 0, trace, small=True)
            result = record["result"]
            print_record(record)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                missing = sorted(set(expected) - set(emitted))
                extra = sorted(set(emitted) - set(expected))
                wrong = sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n])
                problems.append(f"{workload} trace={trace}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed operations")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "lagmesh" / "__init__.py").is_file():
        print(f"no lagmesh source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.workload == "all":
            records = [run_workload(w, args.seed, args.seconds, trace)
                       for w in workloads.WORKLOADS for trace in (0, 1)]
            for record in records:
                print_record(record)
            print(json.dumps({f"{r['env']['workload']}/trace{r['env']['trace']}": r["result"]
                              for r in records}))
            return 0 if all(r["result"]["correct"] for r in records) else 1
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
