"""Batch front end: single solves, h/N scans, observables, wavefunction
export, momentum-vs-configuration comparison, and the three benchmark tables.

Configuration files are flat ``section.key = value`` lines with ``#``
comments; every key can also be overridden from the command line. All CSV
artifacts are UTF-8 with a header row, comma separators, LF line endings and
17-significant-digit decimal rendering, and are byte-identical across runs
for identical configuration.
"""

import argparse
import contextlib
import math
import os
import sys
import threading
from datetime import datetime, timezone

from . import linalg
from .configspace import solve_config
from .configspace import mean_values as config_mean_values
from .errors import ConfigurationError, NumericalError
from .kinetics import NonrelativisticKinetic, SalpeterKinetic
from .observables import (
    expval_momentum,
    mean_values,
    wavefunction_momentum,
    wavefunction_position,
)
from .potentials import GaussianPotential, YukawaPotential
from .solver import ProblemSpec, solve

TASKS = ("solve", "scan-h", "scan-n", "observables", "wavefunction", "compare", "table")

# Fixed reference values for the semirelativistic configuration-space
# solution (m=1, a=3, b=1 Gaussian); computing them is out of scope for the
# built-in configuration solver, which is nonrelativistic only.
_TABLE2_CONF_REFERENCE = {
    "energy": "1.87098362",
    "sqrt_p2_m2_mean": "1.3553804",
    "p4_mean": "3.991567",
    "r_mean": "1.73375",
    "potential_mean": "-0.8397772",
    "hamiltonian_mean": "1.87098362",
}

# CSV row labels that name a mean value differently from ``mean_values``
_MEAN_KEYS = {"q2_mean": "p2_mean", "q4_mean": "p4_mean", "x_mean": "r_mean"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(values: dict, label: str) -> str:
    """The mean value behind a CSV row label; empty where the space has none."""
    key = _MEAN_KEYS.get(label, label)
    return _fmt(values[key]) if key in values else ""


def parse_config_file(path: str) -> dict:
    """Read flat ``section.key = value`` lines, ignoring # comments."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected 'section.key = value', got {raw.rstrip()!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_grid(text: str, cast, key: str = "grid"):
    """Grid syntax: either 'a,b,c' or 'start:stop:count', of finite strictly
    increasing points; errors name the config key."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"{key} must be 'start:stop:count', got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigurationError(f"{key} count must be >= 1, got {count}")
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        values = [cast(start + i * step) for i in range(count)]
        ends = [start, stop]  # an infinite end makes NaN points: name the end
    else:
        values = [cast(v) for v in text.split(",") if v.strip()]
        ends = []
    if not values:
        raise ConfigurationError(f"{key} is empty: {text!r}")
    bad = [v for v in ends + values if not math.isfinite(v)]
    if bad:
        raise ConfigurationError(f"{key} points must be finite, got {bad[0]!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(f"{key} must be strictly increasing: {text!r}")
    return values


class RunConfig:
    """Validated run settings merged from config file and CLI flags."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.task = raw.get("run.task", "solve")
        if self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}; choose from {TASKS}")
        self.out = raw.get("run.out")
        self.kinetics = raw.get("problem.kinetics", "nonrelativistic")
        self.potential_name = raw.get("problem.potential", "gaussian")
        self.m1 = float(raw.get("problem.m1", 1.0))
        self.m2 = float(raw.get("problem.m2", 1.0))
        self.b = float(raw.get("problem.b", 1.0))
        self.l = int(raw.get("problem.l", 0))
        self.a = float(raw["problem.a"]) if "problem.a" in raw else None
        if "problem.g" in raw:
            for key in ("problem.a", "problem.b", "problem.m1", "problem.m2"):
                if key in raw:
                    raise ConfigurationError(
                        f"problem.g fixes a = g, b = 1 and m1 = m2 = 1; it conflicts with {key}"
                    )
            if self.kinetics != "nonrelativistic":
                raise ConfigurationError(
                    "the dimensionless coupling problem.g assumes nonrelativistic "
                    "kinematics with m1 = m2 = 1; set problem.a instead"
                )
            # dimensionless convention: b = 1, mu = 1/2, so a equals g
            self.a = float(raw["problem.g"])
        self.size = int(raw["mesh.N"]) if "mesh.N" in raw else None
        self.size_r = int(raw["mesh.N_r"]) if "mesh.N_r" in raw else None
        self.scale = float(raw["mesh.h"]) if "mesh.h" in raw else None
        self.scale_r = float(raw["mesh.h_r"]) if "mesh.h_r" in raw else None
        self.table = int(raw.get("run.table", 0))
        self.scan_h = _parse_grid(raw["scan.h"], float, "scan.h") if "scan.h" in raw else None
        self.scan_n = _parse_grid(raw["scan.N"], int, "scan.N") if "scan.N" in raw else None
        self.wave_space = raw.get("wave.space", "momentum")
        self.wave_grid = (
            _parse_grid(raw["wave.grid"], float, "wave.grid") if "wave.grid" in raw else None
        )
        # the grid is finite and increases strictly, so its first point is the smallest
        if self.wave_grid is not None and self.wave_grid[0] < 0.0:
            raise ConfigurationError(
                f"wave.grid points must be >= 0, got {self.wave_grid[0]!r}"
            )
        self.wave_state = int(raw.get("wave.state", 0))
        if self.wave_state < 0:
            raise ConfigurationError(f"wave.state must be >= 0, got {self.wave_state}")

    def potential(self):
        if self.a is None:
            raise ConfigurationError("set problem.a (strength) or problem.g (coupling)")
        if self.potential_name == "gaussian":
            return GaussianPotential(self.a, self.b)
        if self.potential_name == "yukawa":
            return YukawaPotential(self.a, self.b)
        raise ConfigurationError(
            f"unknown potential {self.potential_name!r}; choose gaussian or yukawa"
        )

    def kinetic(self):
        if self.kinetics == "nonrelativistic":
            return NonrelativisticKinetic(self.m1, self.m2)
        if self.kinetics == "salpeter":
            return SalpeterKinetic(self.m1, self.m2)
        raise ConfigurationError(
            f"unknown kinetics {self.kinetics!r}; choose nonrelativistic or salpeter"
        )

    def problem(self, size=None, scale=None) -> ProblemSpec:
        size = size if size is not None else self.size
        scale = scale if scale is not None else self.scale
        if size is None or scale is None:
            raise ConfigurationError("mesh.N and mesh.h are required for this task")
        return ProblemSpec(self.kinetic(), self.potential(), self.l, size, scale)

    def config_problem(self) -> ProblemSpec:
        if self.scale_r is None:
            raise ConfigurationError("mesh.h_r is required to solve in configuration space")
        return self.problem(self.size_r, self.scale_r)


def write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _echo(cfg: RunConfig) -> None:
    print(f"# lagmesh {cfg.task} at {datetime.now(timezone.utc).isoformat()}")
    for key in sorted(cfg.raw):
        print(f"#   {key} = {cfg.raw[key]}")


def _solve_states(cfg: RunConfig):
    problem = cfg.problem()
    return problem, solve(problem)


def run_solve(cfg: RunConfig) -> None:
    problem, states = _solve_states(cfg)
    print(f"bound states for l={cfg.l}, N={problem.size}, h={problem.scale}:")
    rows = []
    for st in states:
        print(f"  (n={st.n}, l={st.l})  energy = {_fmt(st.energy)}")
        rows.append([str(st.n), str(st.l), str(problem.size), _fmt(problem.scale), _fmt(st.energy)])
    if not states:
        print("  none inside the bound-state window")
    if cfg.out:
        write_csv(cfg.out, ["n", "l", "N", "h", "energy"], rows)
        print(f"wrote {cfg.out}")


def _requested_state(states: list, cfg: RunConfig):
    if cfg.wave_state >= len(states):
        raise NumericalError(
            f"wave.state = {cfg.wave_state}, but only {len(states)} bound state(s)"
        )
    return states[cfg.wave_state]


def run_observables(cfg: RunConfig) -> None:
    problem, states = _solve_states(cfg)
    if not states:
        raise NumericalError("no bound state to take observables on")
    values = mean_values(_requested_state(states, cfg), problem)
    for name, value in values.items():
        print(f"  {name:>18} = {_fmt(value)}")
    if cfg.out:
        write_csv(cfg.out, ["quantity", "value"], [[n, _fmt(v)] for n, v in values.items()])
        print(f"wrote {cfg.out}")


def _scan(cfg: RunConfig, problems: list, default_out: str) -> None:
    """Solve each problem and write one row per bound state, in grid order.

    Where the BLAS thread count can be set and more than one CPU is usable,
    the BLAS runs one thread, and the points are shared among that many
    solving threads; otherwise the calling thread solves them alone.
    """
    threads = min(len(problems), _usable_cpus()) if linalg._blas_thread_calls() else 1
    # entered before the meshes: OpenBLAS's idle workers keep spinning for a
    # while after a multi-threaded call
    with linalg._one_blas_thread() if threads > 1 else contextlib.nullcontext():
        solutions = _solve_points(problems, threads)
    rows = []
    for problem, states in zip(problems, solutions):
        point = [str(problem.size), _fmt(problem.scale)]
        for st in states:
            rows.append(point + [str(st.n), str(st.l), _fmt(st.energy)])
    out = cfg.out or default_out
    write_csv(out, ["N", "h", "n", "l", "energy"], rows)
    print(f"wrote {out} ({len(rows)} rows)")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _solve_points(problems: list, threads: int) -> list:
    """The bound states of each problem, solved on the calling thread and
    ``threads - 1`` workers, each taking the next unsolved point.

    A failure stops the taking of further points and, once the points in
    hand are done, raises the failure of the first failing point in grid
    order: the one a serial loop would raise.
    """
    for problem in problems:  # build, and so check, every mesh before the first solve
        problem.mesh()
    solutions = [None] * len(problems)
    failures = {}
    points = iter(range(len(problems)))
    lock = threading.Lock()

    def work():
        while not failures:
            with lock:
                k = next(points, None)
            if k is None:
                return
            try:
                solutions[k] = solve(problems[k])
            except Exception as exc:  # reraised on the calling thread
                failures[k] = exc

    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        points = iter(())  # after an interrupt, the workers take no further point
        for worker in workers:
            worker.join()
    if failures:
        raise failures[min(failures)]
    return solutions


def run_scan_h(cfg: RunConfig) -> None:
    if cfg.scan_h is None:
        raise ConfigurationError("scan-h needs a scan.h grid")
    if cfg.size is None:
        raise ConfigurationError("scan-h needs mesh.N")
    _scan(cfg, [cfg.problem(scale=h) for h in cfg.scan_h], "scan_h.csv")


def run_scan_n(cfg: RunConfig) -> None:
    if cfg.scan_n is None:
        raise ConfigurationError("scan-n needs a scan.N grid")
    if cfg.scale is None:
        raise ConfigurationError("scan-n needs mesh.h")
    _scan(cfg, [cfg.problem(size=n) for n in cfg.scan_n], "scan_n.csv")


def run_wavefunction(cfg: RunConfig) -> None:
    if cfg.wave_grid is None:
        raise ConfigurationError("wavefunction export needs a wave.grid")
    if cfg.wave_space not in ("momentum", "position"):
        raise ConfigurationError("wave.space must be 'momentum' or 'position'")
    problem, states = _solve_states(cfg)
    if not states:
        raise NumericalError("no bound state to export")
    state = _requested_state(states, cfg)
    print(f"state (n={state.n}, l={state.l})  energy = {_fmt(state.energy)}")
    if cfg.wave_space == "momentum":
        header = ["q", "u"]
        values = wavefunction_momentum(state, cfg.wave_grid)
    else:
        header = ["r", "u"]
        values = wavefunction_position(state, cfg.wave_grid)
    rows = [[_fmt(x), _fmt(x * v)] for x, v in zip(cfg.wave_grid, values)]
    out = cfg.out or "wavefunction.csv"
    write_csv(out, header, rows)
    print(f"wrote {out} ({len(rows)} rows)")


def run_compare(cfg: RunConfig) -> None:
    # the configuration solve goes first: it refuses kinetics it cannot take
    # before any momentum solve
    config_problem = cfg.config_problem()
    config_states = solve_config(config_problem)
    problem, states = _solve_states(cfg)
    if not states:
        raise NumericalError("no momentum-space bound state to compare")
    if cfg.wave_state >= len(states) or cfg.wave_state >= len(config_states):
        raise NumericalError("requested state not bound in both spaces")
    mom = mean_values(states[cfg.wave_state], problem)
    conf = config_mean_values(config_states[cfg.wave_state], config_problem)
    rows = []
    for name in ("energy", "x_mean", "potential_mean", "q2_mean", "hamiltonian_mean"):
        key = _MEAN_KEYS.get(name, name)
        a, b = mom[key], conf[key]
        delta = abs(a - b)
        rel = delta / max(abs(a), abs(b)) if max(abs(a), abs(b)) > 0 else 0.0
        print(f"  {name:>18}: mom={_fmt(a)} conf={_fmt(b)} |delta|={delta:.3e}")
        rows.append([name, _fmt(a), _fmt(b), _fmt(delta), _fmt(rel)])
    out = cfg.out or "compare.csv"
    write_csv(out, ["quantity", "momentum", "configuration", "abs_delta", "rel_delta"], rows)
    print(f"wrote {out}")


def _table1() -> tuple[list, list]:
    potential = GaussianPotential(15.0, 1.0)
    kinetic = NonrelativisticKinetic(1.0, 1.0)
    config_problem = ProblemSpec(kinetic, potential, 0, 100, 0.4)
    columns = [config_mean_values(solve_config(config_problem)[0], config_problem)]
    for size in (10, 20, 50):
        problem = ProblemSpec(kinetic, potential, 0, size, 0.5)
        columns.append(mean_values(solve(problem)[0], problem))
    header = ["quantity", "conf", "mom_N10", "mom_N20", "mom_N50"]
    labels = ("energy", "q2_mean", "q4_mean", "x_mean", "potential_mean", "hamiltonian_mean")
    rows = [[label] + [_cell(col, label) for col in columns] for label in labels]
    return header, rows


def _table2() -> tuple[list, list]:
    # Momentum solves at h = 0.5: the printed reference values reproduce
    # there cell for cell, not at the nominal 0.4.
    potential = GaussianPotential(3.0, 1.0)
    kinetic = SalpeterKinetic(1.0, 1.0)
    columns = []
    for size in (10, 20, 50):
        problem = ProblemSpec(kinetic, potential, 0, size, 0.5)
        state = solve(problem)[0]
        values = mean_values(state, problem)
        values["sqrt_p2_m2_mean"] = expval_momentum(state, lambda p: math.sqrt(p * p + 1.0))
        columns.append(values)
    header = ["quantity", "conf_reference", "mom_N10", "mom_N20", "mom_N50"]
    rows = [
        [label, ref] + [_cell(col, label) for col in columns]
        for label, ref in _TABLE2_CONF_REFERENCE.items()
    ]
    return header, rows


def _table3() -> tuple[list, list]:
    potential = YukawaPotential(10.0, 1.0)
    kinetic = NonrelativisticKinetic(1.0, 1.0)
    # (n, l, momentum h, configuration h_r)
    settings = [(0, 0, 0.8, 0.02), (1, 0, 1.0, 0.05), (0, 1, 0.5, 0.05)]
    header = ["quantity"]
    columns = []
    for n, l, h, h_r in settings:
        config_problem = ProblemSpec(kinetic, potential, l, 200, h_r)
        columns.append(config_mean_values(solve_config(config_problem)[n], config_problem))
        problem = ProblemSpec(kinetic, potential, l, 200, h)
        columns.append(mean_values(solve(problem)[n], problem))
        header += [f"conf_{n}{l}", f"mom_{n}{l}"]
    labels = ("energy", "q2_mean", "potential_mean", "hamiltonian_mean")
    rows = [[label] + [_cell(col, label) for col in columns] for label in labels]
    return header, rows


def run_table(cfg: RunConfig) -> None:
    builders = {1: _table1, 2: _table2, 3: _table3}
    if cfg.table not in builders:
        raise ConfigurationError(f"run.table must be 1, 2 or 3, got {cfg.table}")
    header, rows = builders[cfg.table]()
    out = cfg.out or f"table{cfg.table}.csv"
    write_csv(out, header, rows)
    print(f"wrote {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagmesh",
        description="Momentum-space Lagrange-mesh bound-state solver",
    )
    parser.add_argument("--config", help="path to a 'section.key = value' config file")
    parser.add_argument("--task", choices=TASKS, help="what to run")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--N", type=int, help="mesh size")
    parser.add_argument("--h", type=float, help="mesh scale factor")
    parser.add_argument("--l", type=int, help="partial wave")
    parser.add_argument("--g", type=float, help="dimensionless coupling (sets a, b=1, m1=m2=1)")
    parser.add_argument("--potential", choices=("gaussian", "yukawa"))
    parser.add_argument("--kinetics", choices=("nonrelativistic", "salpeter"))
    parser.add_argument("--table", type=int, choices=(1, 2, 3), help="table number for task=table")
    return parser


_FLAG_KEYS = {
    "task": "run.task",
    "out": "run.out",
    "N": "mesh.N",
    "h": "mesh.h",
    "l": "problem.l",
    "g": "problem.g",
    "potential": "problem.potential",
    "kinetics": "problem.kinetics",
    "table": "run.table",
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage errors map to exit 1
        return 0 if exc.code == 0 else 1
    try:
        raw = parse_config_file(args.config) if args.config else {}
        for flag, key in _FLAG_KEYS.items():
            value = getattr(args, flag)
            if value is not None:
                raw[key] = str(value)
        cfg = RunConfig(raw)
        _echo(cfg)
        runner = {
            "solve": run_solve,
            "scan-h": run_scan_h,
            "scan-n": run_scan_n,
            "observables": run_observables,
            "wavefunction": run_wavefunction,
            "compare": run_compare,
            "table": run_table,
        }[cfg.task]
        runner(cfg)
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
