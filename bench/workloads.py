"""The benchmark's workloads: CLI calls made from a seed, and their checks.

A workload is a list of ``Op``: one ``lagmesh.cli.main`` call each, with the
CSV file it writes. ``check`` compares an op's output with the golden file
captured from the program before the benchmark existed (default seed) and
with seed-independent invariants (every seed). It returns the problems found
and whether the output is byte-identical to its golden copy.

Tolerances are those of the acceptance suite (tests/test_acceptance.py): two
units of the last digit the paper prints for a cell, or the absolute
tolerance the suite states instead.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
WORKLOADS = ("paper-tables", "plateau-scan", "n-ladder")

GAUSSIAN_ENERGY = -5.37759990706845  # g=15 ground state; flat over h to 1e-14 at N=200
YUKAWA_ENERGY = -16.340415  # g=10 (0,0) state, criterion 4 reference
LADDER_SIZES = (50, 100, 200, 400)
LADDER_SIZES_SMALL = (50, 100)
LADDER_H = 0.8
GRID_POINTS = 401
GRID_MAX = 20.0
SCAN_POINTS = 6  # one per worker of the CLI's 6-thread pool on 2 cores
SCAN_RANGE = (0.3, 1.5)


@dataclass
class Op:
    kind: str  # table | scan | observables | wave-momentum | wave-position
    argv: list
    output: Path  # the CSV file the call writes
    golden: Optional[Path]  # its golden copy, where one applies
    info: dict


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """One uniform draw in each of ``count`` equal slices of [lo, hi].

    Stratified, so that every seed covers the whole range and a pass costs
    the same whichever seed draws it.
    """
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def build(workload: str, seed: int, workdir: Path, small: bool = False) -> list:
    rng = random.Random(f"{workload}:{seed}")
    default = seed == DEFAULT_SEED
    if workload == "paper-tables":
        tables = [1, 2] if small else [1, 2, 3]
        rng.shuffle(tables)
        return [
            Op("table", ["--task", "table", "--table", str(t), "--out", str(workdir / f"table{t}.csv")],
               workdir / f"table{t}.csv", GOLDEN / workload / f"table{t}.csv", {"table": t})
            for t in tables
        ]
    if workload == "plateau-scan":
        points = 2 if small else SCAN_POINTS
        grid = _strata(rng, points, *SCAN_RANGE)
        config = workdir / "scan.cfg"
        config.write_text("scan.h = " + ",".join(repr(h) for h in grid) + "\n", encoding="utf-8")
        ops = []
        for potential, g in (("gaussian", "15"), ("yukawa", "10")):
            out = workdir / f"scan_{potential}.csv"
            golden = GOLDEN / workload / out.name if default and not small else None
            ops.append(Op("scan", ["--config", str(config), "--task", "scan-h", "--potential", potential,
                                   "--g", g, "--l", "0", "--N", "200", "--out", str(out)],
                          out, golden, {"potential": potential, "grid": grid}))
        return ops
    if workload == "n-ladder":
        grids = {}
        for space in ("momentum", "position"):
            grid = _strata(rng, GRID_POINTS, 0.0, GRID_MAX)
            config = workdir / f"wave_{space}.cfg"
            config.write_text(f"wave.space = {space}\nwave.grid = "
                              + ",".join(repr(x) for x in grid) + "\n", encoding="utf-8")
            grids[space] = (config, grid)
        ops = []
        for size in LADDER_SIZES_SMALL if small else LADDER_SIZES:
            problem = ["--potential", "yukawa", "--g", "10", "--l", "0", "--h", str(LADDER_H), "--N", str(size)]
            out = workdir / f"observables_N{size}.csv"
            ops.append(Op("observables", ["--task", "observables", "--out", str(out)] + problem,
                          out, GOLDEN / workload / out.name, {"N": size}))
            for space, (config, grid) in grids.items():
                out = workdir / f"wave_{space}_N{size}.csv"
                golden = GOLDEN / workload / out.name if default else None
                ops.append(Op(f"wave-{space}", ["--config", str(config), "--task", "wavefunction",
                                                "--out", str(out)] + problem,
                              out, golden, {"N": size, "grid": grid}))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# --- tolerances --------------------------------------------------------------

def _digits(n: int) -> float:
    return 2.0 * 10.0 ** (-n)


# row -> tolerance, with (row, column) overrides; "exact" compares strings
_TABLE_TOL = {
    1: {
        "energy": _digits(13), "q2_mean": _digits(14), "q4_mean": _digits(11),
        "x_mean": _digits(7), "potential_mean": _digits(13), "hamiltonian_mean": _digits(13),
        ("energy", "conf"): 1e-9, ("energy", "mom_N50"): 1e-9,
    },
    2: {
        "energy": _digits(8), "sqrt_p2_m2_mean": _digits(7), "p4_mean": _digits(6),
        "r_mean": _digits(5), "potential_mean": _digits(7), "hamiltonian_mean": _digits(8),
        "conf_reference": "exact",
    },
    3: {
        # per state column: (0,0) printed to 6/6/4/6 decimals, (1,0) 7/5/5/7, (0,1) 9/8/9/9
        **{(row, f"{kind}_00"): _digits(d) for kind in ("conf", "mom")
           for row, d in (("energy", 6), ("q2_mean", 6), ("potential_mean", 4), ("hamiltonian_mean", 6))},
        **{(row, f"{kind}_10"): _digits(d) for kind in ("conf", "mom")
           for row, d in (("energy", 7), ("q2_mean", 5), ("potential_mean", 5), ("hamiltonian_mean", 7))},
        **{(row, f"{kind}_01"): _digits(d) for kind in ("conf", "mom")
           for row, d in (("energy", 9), ("q2_mean", 8), ("potential_mean", 9), ("hamiltonian_mean", 9))},
    },
}

# Yukawa observables: table 3's (0,0) digits; p4 and r have printed values
# only in table 2, so they take its digits.
_OBSERVABLE_TOL = {
    "energy": _digits(6), "kinetic_mean": _digits(6), "p2_mean": _digits(6),
    "p4_mean": _digits(6), "r_mean": _digits(5), "potential_mean": _digits(4),
    "hamiltonian_mean": _digits(6),
}
_SCAN_TOL = 1e-9  # criterion 8: plateau agreement
_WAVE_PEAK_TOL = 1e-3  # criterion 9: deviation relative to the curve's peak
_NORM_TOL = 1e-2  # momentum norm on [0, 20]: the tail beyond holds ~0.16 %


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path.name}: no final newline")
    rows = [line.split(",") for line in lines[:-1]]
    return rows[0], rows[1:]


def _table_problems(table: int, rows: list, golden_header: list, golden_rows: list, header: list) -> list:
    problems = []
    if header != golden_header or [r[0] for r in rows] != [r[0] for r in golden_rows]:
        return [f"table {table}: layout differs from golden"]
    tol = _TABLE_TOL[table]
    for row, ref in zip(rows, golden_rows):
        for column, cell, expected in zip(header[1:], row[1:], ref[1:]):
            limit = tol.get((row[0], column), tol.get(column, tol.get(row[0])))
            if limit == "exact" or expected == "":
                if cell != expected:
                    problems.append(f"table {table} {row[0]}/{column}: {cell!r} != {expected!r}")
            elif not abs(float(cell) - float(expected)) <= limit:
                problems.append(f"table {table} {row[0]}/{column}: {cell} vs golden {expected} (tol {limit:g})")
    return problems


def _scan_problems(op: Op, header: list, rows: list) -> list:
    problems = []
    if header != ["N", "h", "n", "l", "energy"]:
        return [f"scan {op.info['potential']}: header {header}"]
    states = 1 if op.info["potential"] == "gaussian" else 2
    expected_keys = [("200", f"{h:.17g}", str(n), "0") for h in op.info["grid"] for n in range(states)]
    if [tuple(r[:4]) for r in rows] != expected_keys:
        return [f"scan {op.info['potential']}: rows are not {states} bound state(s) per h point"]
    for row in rows:
        energy = float(row[4])
        if op.info["potential"] == "gaussian":
            ok = abs(energy - GAUSSIAN_ENERGY) <= 1e-12 * abs(GAUSSIAN_ENERGY)
        else:
            ok = row[2] != "0" or abs(energy - YUKAWA_ENERGY) <= 1e-4 * abs(YUKAWA_ENERGY)
        if not ok:
            problems.append(f"scan {op.info['potential']} h={row[1]} n={row[2]}: energy {row[4]}")
    return problems


def _wave_problems(op: Op, header: list, rows: list, stdout: str, energies: dict) -> list:
    space = op.kind.split("-")[1]
    label = f"{space} wavefunction N={op.info['N']}"
    if header != (["q", "u"] if space == "momentum" else ["r", "u"]):
        return [f"{label}: header {header}"]
    if [r[0] for r in rows] != [f"{x:.17g}" for x in op.info["grid"]]:
        return [f"{label}: grid column differs from the requested grid"]
    u = [float(r[1]) for r in rows]
    if not all(math.isfinite(v) for v in u):
        return [f"{label}: non-finite values"]
    energy = energies.get(op.info["N"])
    if energy is not None and f"energy = {energy}" not in stdout:
        return [f"{label}: state energy is not the observables energy {energy}"]
    if space == "momentum":
        grid = op.info["grid"]
        norm = sum((grid[i + 1] - grid[i]) * (u[i] ** 2 + u[i + 1] ** 2) / 2 for i in range(len(u) - 1))
        if not abs(norm - 1.0) <= _NORM_TOL:
            return [f"{label}: norm on [0, {GRID_MAX}] is {norm}"]
    return []


def check(op: Op, stdout: str, energies: dict) -> tuple[list, bool]:
    """(problems, byte-identical to golden) for one completed op.

    ``energies`` maps mesh size to the energy string of the n-ladder
    observables at that size; observables ops fill it in.
    """
    out, golden = op.output, op.golden
    if not out.exists():
        return [f"{out.name} was not written"], False
    header, rows = _read_csv(out)
    identical = False
    if golden is not None:
        identical = out.read_bytes() == golden.read_bytes()
        golden_header, golden_rows = _read_csv(golden)
    problems = []
    if op.kind == "table":
        problems += _table_problems(op.info["table"], rows, golden_header, golden_rows, header)
    elif op.kind == "scan":
        problems += _scan_problems(op, header, rows)
        if golden is not None:
            if len(rows) != len(golden_rows):
                problems.append(f"{out.name}: row count differs from golden")
            for row, ref in zip(rows, golden_rows):
                if not abs(float(row[4]) - float(ref[4])) <= _SCAN_TOL:
                    problems.append(f"{out.name} h={row[1]}: {row[4]} vs golden {ref[4]}")
    elif op.kind == "observables":
        if header != golden_header or [r[0] for r in rows] != [r[0] for r in golden_rows]:
            return [f"{out.name}: layout differs from golden"], identical
        for (name, value), (_, expected) in zip(rows, golden_rows):
            if not abs(float(value) - float(expected)) <= _OBSERVABLE_TOL[name]:
                problems.append(f"{out.name} {name}: {value} vs golden {expected}")
        energies[op.info["N"]] = rows[0][1]
    else:
        problems += _wave_problems(op, header, rows, stdout, energies)
        if golden is not None:
            peak = max(abs(float(r[1])) for r in golden_rows)
            worst = max(abs(float(a[1]) - float(b[1])) for a, b in zip(rows, golden_rows))
            if len(rows) != len(golden_rows) or not worst <= _WAVE_PEAK_TOL * peak:
                problems.append(f"{out.name}: deviates from golden by {worst:.3e} (peak {peak:.3e})")
    return problems, identical
