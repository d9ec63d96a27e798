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
from typing import NamedTuple, Optional

from . import linalg
from .configspace import solve_config
from .configspace import mean_values as config_mean_values
from .errors import ConfigurationError, NumericalError
from .kinetics import NonrelativisticKinetic, SalpeterKinetic
from .observables import mean_values, wavefunction_momentum, wavefunction_position
from .potentials import GaussianPotential, YukawaPotential
from .solver import ProblemSpec, solve

# task t runs the function run_<t>, with "-" read as "_"
TASKS = ("solve", "scan-h", "scan-n", "observables", "wavefunction", "compare", "table")
POTENTIALS = {"gaussian": GaussianPotential, "yukawa": YukawaPotential}
KINETICS = {"nonrelativistic": NonrelativisticKinetic, "salpeter": SalpeterKinetic}

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


class _Table(NamedTuple):
    kinetic: object
    potential: object
    columns: list  # (header, space "conf" or "mom", l, N, scale, state index)
    labels: tuple  # row labels
    reference: Optional[dict] = None  # a conf_reference column of printed values


_TABLES = {
    1: _Table(
        NonrelativisticKinetic(1.0, 1.0), GaussianPotential(15.0, 1.0),
        [("conf", "conf", 0, 100, 0.4, 0), ("mom_N10", "mom", 0, 10, 0.5, 0),
         ("mom_N20", "mom", 0, 20, 0.5, 0), ("mom_N50", "mom", 0, 50, 0.5, 0)],
        ("energy", "q2_mean", "q4_mean", "x_mean", "potential_mean", "hamiltonian_mean"),
    ),
    # Momentum solves at h = 0.5: the printed reference values reproduce
    # there cell for cell, not at the nominal 0.4.
    2: _Table(
        SalpeterKinetic(1.0, 1.0), GaussianPotential(3.0, 1.0),
        [("mom_N10", "mom", 0, 10, 0.5, 0), ("mom_N20", "mom", 0, 20, 0.5, 0),
         ("mom_N50", "mom", 0, 50, 0.5, 0)],
        tuple(_TABLE2_CONF_REFERENCE), _TABLE2_CONF_REFERENCE,
    ),
    3: _Table(
        NonrelativisticKinetic(1.0, 1.0), YukawaPotential(10.0, 1.0),
        [("conf_00", "conf", 0, 200, 0.02, 0), ("mom_00", "mom", 0, 200, 0.8, 0),
         ("conf_10", "conf", 0, 200, 0.05, 1), ("mom_10", "mom", 0, 200, 1.0, 1),
         ("conf_01", "conf", 1, 200, 0.05, 0), ("mom_01", "mom", 1, 200, 0.5, 0)],
        ("energy", "q2_mean", "potential_mean", "hamiltonian_mean"),
    ),
}

# CSV row labels that name a mean value differently from ``mean_values``
_MEAN_KEYS = {"q2_mean": "p2_mean", "q4_mean": "p4_mean", "x_mean": "r_mean"}


class _Key(NamedTuple):
    flag: Optional[str]  # the command-line flag that sets the key
    cast: type  # how the text is read: str, int or float
    default: object
    grid: bool = False  # a grid of cast values, read by _parse_grid
    choices: Optional[tuple] = None  # the values it may name, where it names one


# Every config key; RunConfig refuses any other.
_KEYS = {
    "problem.kinetics": _Key("kinetics", str, "nonrelativistic", choices=tuple(KINETICS)),
    "problem.m1": _Key(None, float, 1.0),
    "problem.m2": _Key(None, float, 1.0),
    "problem.potential": _Key("potential", str, "gaussian", choices=tuple(POTENTIALS)),
    "problem.a": _Key(None, float, None),
    "problem.b": _Key(None, float, 1.0),
    "problem.g": _Key("g", float, None),
    "problem.l": _Key("l", int, 0),
    "mesh.N": _Key("N", int, None),
    "mesh.h": _Key("h", float, None),
    "mesh.N_r": _Key(None, int, None),
    "mesh.h_r": _Key(None, float, None),
    "run.task": _Key("task", str, "solve", choices=TASKS),
    "run.table": _Key("table", int, None, choices=tuple(_TABLES)),
    "run.out": _Key("out", str, None),
    "scan.h": _Key(None, float, None, grid=True),
    "scan.N": _Key(None, int, None, grid=True),
    "wave.space": _Key(None, str, "momentum", choices=("momentum", "position")),
    "wave.grid": _Key(None, float, None, grid=True),
    "wave.state": _Key(None, int, 0),
}


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


def _read(cast, text: str, key: str):
    """text read by cast; a text it refuses is a ConfigurationError naming the key."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigurationError(f"{key} must be {kind}, got {text!r}") from None


def _parse_grid(text: str, cast, key: str = "grid"):
    """Grid syntax: either 'a,b,c' or 'start:stop:count', of finite strictly
    increasing points, integers where ``cast`` is int; errors name the
    config key."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"{key} must be 'start:stop:count', got {text!r}")
        start, stop = _read(float, parts[0], key), _read(float, parts[1], key)
        count = _read(int, parts[2], key)
        if count < 1:
            raise ConfigurationError(f"{key} count must be >= 1, got {count}")
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        points = [start + i * step for i in range(count)]
        ends = [start, stop]  # an infinite end makes NaN points: name the end
    else:
        points = [_read(cast, v, key) for v in text.split(",") if v.strip()]
        ends = []
    if not points:
        raise ConfigurationError(f"{key} is empty: {text!r}")
    bad = [v for v in ends + points if not math.isfinite(v)]
    if bad:
        raise ConfigurationError(f"{key} points must be finite, got {bad[0]!r}")
    values = [cast(v) for v in points]
    bad = [p for p, v in zip(points, values) if v != p]
    if bad:
        raise ConfigurationError(f"{key} points must be integers, got {bad[0]!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(f"{key} must be strictly increasing: {text!r}")
    return values


class RunConfig:
    """Validated run settings merged from config file and CLI flags, read by
    config key: ``cfg["mesh.N"]``. A value outside its key's choices is
    refused here, whatever the task."""

    def __init__(self, raw: dict):
        unknown = [key for key in raw if key not in _KEYS]
        if unknown:
            raise ConfigurationError(f"unknown config key {unknown[0]!r}")
        self.raw = raw
        self.values = {}
        for key, spec in _KEYS.items():
            if key not in raw:
                value = spec.default
            elif spec.grid:
                value = _parse_grid(raw[key], spec.cast, key)
            else:
                value = _read(spec.cast, raw[key], key)
            if spec.choices and value is not None and value not in spec.choices:
                raise ConfigurationError(
                    f"unknown {key} {value!r}; choose from {', '.join(map(str, spec.choices))}"
                )
            self.values[key] = value
        if self["problem.g"] is not None:
            for key in ("problem.a", "problem.b", "problem.m1", "problem.m2"):
                if key in raw:
                    raise ConfigurationError(
                        f"problem.g fixes a = g, b = 1 and m1 = m2 = 1; it conflicts with {key}"
                    )
            if self["problem.kinetics"] != "nonrelativistic":
                raise ConfigurationError(
                    "the dimensionless coupling problem.g assumes nonrelativistic "
                    "kinematics with m1 = m2 = 1; set problem.a instead"
                )
            # dimensionless convention: b = 1, mu = 1/2, so a equals g
            self.values["problem.a"] = self["problem.g"]
        grid = self["wave.grid"]
        # the grid is finite and increases strictly, so its first point is the smallest
        if grid is not None and grid[0] < 0.0:
            raise ConfigurationError(f"wave.grid points must be >= 0, got {grid[0]!r}")
        if self["wave.state"] < 0:
            raise ConfigurationError(f"wave.state must be >= 0, got {self['wave.state']}")
        out = self["run.out"]
        if out is not None:  # checked before any solve; the file is written only after
            folder = os.path.dirname(out) or os.curdir
            if os.path.isdir(out) or not os.access(folder, os.W_OK | os.X_OK):
                raise ConfigurationError(f"cannot write {out}: not a file in a writable directory")

    def __getitem__(self, key: str):
        return self.values[key]

    def required(self, key: str):
        """The value of a key that the task cannot run without."""
        if self[key] is None:
            raise ConfigurationError(f"{key} is required for task {self['run.task']}")
        return self[key]

    def problem(self, size=None, scale=None) -> ProblemSpec:
        """The configured problem on mesh.N and mesh.h, or on the size or scale given."""
        size = self.required("mesh.N") if size is None else size
        scale = self.required("mesh.h") if scale is None else scale
        kinetic = KINETICS[self["problem.kinetics"]](self["problem.m1"], self["problem.m2"])
        if self["problem.a"] is None:
            raise ConfigurationError("set problem.a (strength) or problem.g (coupling)")
        potential = POTENTIALS[self["problem.potential"]](self["problem.a"], self["problem.b"])
        return ProblemSpec(kinetic, potential, self["problem.l"], size, scale)


def write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write(cfg: RunConfig, header: list, rows: list, default: Optional[str] = None) -> None:
    """Write the task's CSV to run.out, else to ``default``; with neither, write none."""
    out = cfg["run.out"] or default
    if out:
        try:
            write_csv(out, header, rows)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out} ({len(rows)} rows)")


def _echo(cfg: RunConfig) -> None:
    print(f"# lagmesh {cfg['run.task']} at {datetime.now(timezone.utc).isoformat()}")
    for key in sorted(cfg.raw):
        print(f"#   {key} = {cfg.raw[key]}")


def run_solve(cfg: RunConfig) -> None:
    problem = cfg.problem()
    states = solve(problem)
    print(f"bound states for l={problem.l}, N={problem.size}, h={problem.scale}:")
    rows = []
    for st in states:
        print(f"  (n={st.n}, l={st.l})  energy = {_fmt(st.energy)}")
        rows.append([str(st.n), str(st.l), str(problem.size), _fmt(problem.scale), _fmt(st.energy)])
    if not states:
        print("  none inside the bound-state window")
    _write(cfg, ["n", "l", "N", "h", "energy"], rows)


def _requested_state(states: list, cfg: RunConfig, space: str = ""):
    """The bound state that wave.state names; ``space`` qualifies the count in the refusal."""
    n = cfg["wave.state"]
    if n >= len(states):
        raise NumericalError(f"wave.state = {n}, but only {len(states)} {space}bound state(s)")
    return states[n]


def run_observables(cfg: RunConfig) -> None:
    problem = cfg.problem()
    values = mean_values(_requested_state(solve(problem), cfg), problem)
    for name, value in values.items():
        print(f"  {name:>18} = {_fmt(value)}")
    _write(cfg, ["quantity", "value"], [[n, _fmt(v)] for n, v in values.items()])


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
    _write(cfg, ["N", "h", "n", "l", "energy"], rows, default_out)


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
    _scan(cfg, [cfg.problem(scale=h) for h in cfg.required("scan.h")], "scan_h.csv")


def run_scan_n(cfg: RunConfig) -> None:
    _scan(cfg, [cfg.problem(size=n) for n in cfg.required("scan.N")], "scan_n.csv")


def run_wavefunction(cfg: RunConfig) -> None:
    grid = cfg.required("wave.grid")
    state = _requested_state(solve(cfg.problem()), cfg)
    print(f"state (n={state.n}, l={state.l})  energy = {_fmt(state.energy)}")
    if cfg["wave.space"] == "momentum":
        header = ["q", "u"]
        values = wavefunction_momentum(state, grid)
    else:
        header = ["r", "u"]
        values = wavefunction_position(state, grid)
    _write(cfg, header, [[_fmt(x), _fmt(x * v)] for x, v in zip(grid, values)], "wavefunction.csv")


def run_compare(cfg: RunConfig) -> None:
    # the configuration solve goes first: it refuses kinetics it cannot take,
    # and a state it does not bind, before any momentum solve
    config_problem = cfg.problem(cfg["mesh.N_r"], cfg.required("mesh.h_r"))
    config_state = _requested_state(solve_config(config_problem), cfg, "configuration-space ")
    problem = cfg.problem()
    mom = mean_values(_requested_state(solve(problem), cfg, "momentum-space "), problem)
    conf = config_mean_values(config_state, config_problem)
    rows = []
    for name in ("energy", "x_mean", "potential_mean", "q2_mean", "hamiltonian_mean"):
        key = _MEAN_KEYS.get(name, name)
        a, b = mom[key], conf[key]
        delta = abs(a - b)
        rel = delta / max(abs(a), abs(b)) if max(abs(a), abs(b)) > 0 else 0.0
        print(f"  {name:>18}: mom={_fmt(a)} conf={_fmt(b)} |delta|={delta:.3e}")
        rows.append([name, _fmt(a), _fmt(b), _fmt(delta), _fmt(rel)])
    _write(cfg, ["quantity", "momentum", "configuration", "abs_delta", "rel_delta"], rows, "compare.csv")


def run_table(cfg: RunConfig) -> None:
    number = cfg.required("run.table")
    table = _TABLES[number]
    header, columns = ["quantity"], [table.labels]
    if table.reference:
        header.append("conf_reference")
        columns.append([table.reference[label] for label in table.labels])
    for name, space, l, size, scale, n in table.columns:
        problem = ProblemSpec(table.kinetic, table.potential, l, size, scale)
        if space == "conf":
            values = config_mean_values(solve_config(problem)[n], problem)
        else:
            values = mean_values(solve(problem)[n], problem)
            # <sqrt(p^2 + m^2)> of table 2: its masses are 1, so T = 2 sqrt(p^2 + 1)
            values["sqrt_p2_m2_mean"] = values["kinetic_mean"] / 2.0
        header.append(name)
        columns.append([_cell(values, label) for label in table.labels])
    _write(cfg, header, list(zip(*columns)), f"table{number}.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagmesh",
        description="Momentum-space Lagrange-mesh bound-state solver",
    )
    parser.add_argument("--config", help="path to a 'section.key = value' config file")
    for key, spec in _KEYS.items():
        if spec.flag:
            parser.add_argument(
                f"--{spec.flag}", type=spec.cast, choices=spec.choices, help=f"sets {key}"
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage errors map to exit 1
        return 0 if exc.code == 0 else 1
    try:
        raw = parse_config_file(args.config) if args.config else {}
        for key, spec in _KEYS.items():
            if spec.flag and getattr(args, spec.flag) is not None:
                raw[key] = str(getattr(args, spec.flag))
        cfg = RunConfig(raw)
        _echo(cfg)
        # looked up when it runs, so that a rebinding of cli.run_* is called
        globals()["run_" + cfg["run.task"].replace("-", "_")](cfg)
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
