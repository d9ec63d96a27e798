"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to
see them all). Reference strings carry the benchmark tables' printed digits;
the default cell tolerance is two units of the last printed digit, with the
explicitly stated absolute tolerances overriding where given.
"""

import math

import numpy as np
import pytest

from conftest import DIMENSIONLESS, gauss15, print_ulp, salpeter_gauss, yukawa10
from lagmesh import (
    GaussianPotential,
    ProblemSpec,
    SalpeterKinetic,
    YukawaPotential,
    build_mesh,
    expval_momentum,
    expval_radial,
    reduced_wavefunction,
    solve,
    solve_config,
    wavefunction_position,
)
from lagmesh.cli import main as cli_main
from lagmesh.configspace import mean_values as config_mean_values
from lagmesh.linalg import eigh_refined
from lagmesh.mesh import lagrange_function
from lagmesh.observables import mean_values
from lagmesh.potentials import (
    partial_wave_gaussian,
    partial_wave_numeric,
    partial_wave_yukawa,
    vft_gaussian,
    vft_yukawa,
)
from lagmesh.solver import assemble_hamiltonian
from lagmesh.specfun import laguerre_weights, laguerre_zeros


def report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  ({len(failures)} check(s) failed)"
    print(f"\n[{status}] {name}{detail}")
    for line in failures:
        print(f"        {line}")
    assert not failures, f"{name}: " + "; ".join(failures)


def check_cell(failures, label, value, printed, tol=None):
    tol = tol if tol is not None else 2.0 * print_ulp(printed)
    delta = abs(value - float(printed))
    if not delta <= tol:
        failures.append(f"{label}: {value!r} vs printed {printed} (|delta|={delta:.2e}, tol={tol:.0e})")


# --- criterion 1: benchmark table 1, momentum columns ----------------------

# Known exception, kept failing on purpose: three cells, N=10 q2, N=10 H and
# N=50 q2, are printed with more digits than the reference computation
# supports. A 40-digit solve of the same mesh eigenproblem (g=15, h=0.5)
# gives q2 = 3.74063826403424538 at N=10 (this package: within 3e-15; printed
# value off by 5.4e-13) and q2 = 3.74063887622353905 at N=50 (this package:
# within 2e-15; printed value off by 4.1e-14), and H = -5.37760421338810853 at
# N=10; test_table1_cells_match_a_40_digit_solve checks these cells against
# such a solve. The printed digits and tolerances below are left as they are.
TABLE1_MOM = {
    10: {
        "energy": "-5.3776125307238",
        "q2": "3.74063826403371",
        "q4": "26.50643641212",
        "x": "0.7135030",
        "U": "-9.1182424774223",
        "H": "-5.3776042133885",
    },
    20: {
        "energy": "-5.3775999078195",
        "q2": "3.74063885577063",
        "q4": "26.50642516641",
        "x": "0.7134650",
        "U": "-9.1182387633200",
        "H": "-5.3775999075493",
    },
    50: {
        "energy": "-5.3775999070682",
        "q2": "3.74063887622358",
        "q4": "26.50642515646",
        "x": "0.7134620",
        "U": "-9.1182387832920",
        "H": "-5.3775999070684",
    },
}


def _table1_column(size):
    problem = gauss15(size=size)
    state = solve(problem)[0]
    pot = GaussianPotential(15.0, 1.0)
    return {
        "energy": state.energy,
        "q2": expval_momentum(state, lambda p: p * p),
        "q4": expval_momentum(state, lambda p: p**4),
        "x": expval_radial(state, lambda r: r),
        "U": expval_radial(state, pot.radial_value),
        "H": mean_values(state, problem)["hamiltonian_mean"],
    }


def test_criterion_1_table1_momentum():
    failures = []
    for size, refs in TABLE1_MOM.items():
        column = _table1_column(size)
        for key, printed in refs.items():
            # the explicitly stated tolerance governs the eps(N=50) cell
            tol = 1e-9 if (size, key) == (50, "energy") else None
            check_cell(failures, f"N={size} {key}", column[key], printed, tol)
    report("criterion 1: benchmark table 1, momentum-space reproduction", failures)


# The same three table-1 cells from a 40-digit solve of the same mesh problem:
# _table1_cells_40_digits(50), rounded to 25 digits (5 s with mpmath 1.3).
TABLE1_40_DIGITS_N50 = (
    "-5.377599907068437780186969",
    "3.740638876223539048877229",
    "-5.377599907068437781085902",
)


def _table1_cells_40_digits(size):
    """E, <q^2> and <H> = <T> + <V> of table 1's momentum problem (g=15, b=1,
    h=0.5, l=0, T = p^2), solved in mpmath at 40 digits.

    Nodes from the Golub-Welsch Jacobi matrix, weights
    x e^x / ((N+1) L_{N+1}(x))^2, the closed-form l=0 Gaussian kernel
    -a/(2 sqrt(pi) b^3) (e^(-(p-q)^2/4b^2) - e^(-(p+q)^2/4b^2)) / 2y with
    y = pq/2b^2, and <V> through the eigenvectors of the scale-1 radial form.
    """
    mp = pytest.importorskip("mpmath")
    n, a = size, 15
    with mp.workdps(40):
        h = mp.mpf(1) / 2
        jacobi = mp.matrix(n, n)
        for k in range(n):
            jacobi[k, k] = 2 * k + 1
            if k:
                jacobi[k, k - 1] = jacobi[k - 1, k] = k
        x = sorted(mp.eigsy(jacobi, eigvals_only=True))
        lam = [xi * mp.exp(xi) / ((n + 1) * mp.laguerre(n + 1, 0, xi)) ** 2 for xi in x]
        p = [h * xi for xi in x]
        matrix, form = mp.matrix(n, n), mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gap = mp.exp(-((p[i] - p[j]) ** 2) / 4) - mp.exp(-((p[i] + p[j]) ** 2) / 4)
                kernel = -a / (2 * mp.sqrt(mp.pi)) * gap / (p[i] * p[j])
                matrix[i, j] = h**3 * mp.sqrt(lam[i] * lam[j]) * x[i] * x[j] * kernel
                if i != j:
                    sign = (-1) ** (i - j)
                    form[i, j] = sign * (x[i] + x[j]) / (mp.sqrt(x[i] * x[j]) * (x[i] - x[j]) ** 2)
            matrix[i, i] += p[i] ** 2
            form[i, i] = (4 + (4 * n + 2) * x[i] - x[i] ** 2) / (12 * x[i] ** 2)
        energies, vectors = mp.eigsy(matrix)
        g = min(range(n), key=lambda k: energies[k])
        c = [vectors[i, g] for i in range(n)]
        q2 = mp.fsum(c[i] ** 2 * p[i] ** 2 for i in range(n))
        r2, transform = mp.eigsy(form)
        projected = [mp.fsum(transform[i, m] * c[i] for i in range(n)) for m in range(n)]
        potential = mp.fsum(-a * mp.exp(-max(r2[m], 0) / h**2) * projected[m] ** 2 for m in range(n))
        return energies[g], q2, q2 + potential


@pytest.mark.parametrize("size", [10, 50])
def test_table1_cells_match_a_40_digit_solve(size):
    # 16 ulps: the package is at most 14 ulps off (<H> at N=50), as the
    # closed-form kernel's accuracy, about 1.3e-15 of max|V|, allows; a kernel
    # off by 1e-13 moves E by about 1000 ulps.
    cells = TABLE1_40_DIGITS_N50 if size == 50 else _table1_cells_40_digits(size)
    reference = [float(v) for v in cells]
    column = _table1_column(size)
    for key, expected in zip(("energy", "q2", "H"), reference):
        ulps = abs(column[key] - expected) / np.spacing(abs(expected))
        assert ulps <= 16, f"N={size} {key}: {column[key]!r} vs {expected!r} ({ulps:.0f} ulps)"


# --- criterion 2: benchmark table 1, configuration oracle ------------------


def test_criterion_2_table1_configuration():
    failures = []
    problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 100, 0.4)
    state = solve_config(problem)[0]
    check_cell(failures, "energy", state.energy, "-5.3775999070684", tol=1e-9)
    values = config_mean_values(state, problem)
    check_cell(failures, "x", values["r_mean"], "0.7134620")
    check_cell(failures, "U", values["potential_mean"], "-9.1182387832920")
    check_cell(failures, "q2", values["p2_mean"], "3.74063887622353")
    report("criterion 2: benchmark table 1, configuration-space cross-check", failures)


# --- criterion 3: benchmark table 2 (Salpeter Gaussian) --------------------

TABLE2_MOM = {
    10: {
        "E": "1.87044199",
        "sqrt_p2_m2": "1.3542724",
        "p4": "3.981098",
        "r": "1.71171",
        "U": "-0.8381094",
        "H": "1.87043532",
    },
    20: {
        "E": "1.87100878",
        "sqrt_p2_m2": "1.3554650",
        "p4": "3.992369",
        "r": "1.73551",
        "U": "-0.8399212",
        "H": "1.87100880",
    },
    50: {
        "E": "1.87098367",
        "sqrt_p2_m2": "1.3553807",
        "p4": "3.991570",
        "r": "1.73376",
        "U": "-0.8397777",
        "H": "1.87098367",
    },
}


def test_criterion_3_table2_salpeter():
    # The printed columns reproduce at h = 0.5 (see the decisions ledger:
    # every printed cell contradicts the nominal h = 0.4 but matches 0.5).
    failures = []
    for size, refs in TABLE2_MOM.items():
        problem = salpeter_gauss(size=size, scale=0.5)
        state = solve(problem)[0]
        pot = GaussianPotential(3.0, 1.0)
        column = {
            "E": state.energy,
            "sqrt_p2_m2": expval_momentum(state, lambda p: math.sqrt(p * p + 1.0)),
            "p4": expval_momentum(state, lambda p: p**4),
            "r": expval_radial(state, lambda r: r),
            "U": expval_radial(state, pot.radial_value),
            "H": mean_values(state, problem)["hamiltonian_mean"],
        }
        for key, printed in refs.items():
            check_cell(failures, f"N={size} {key}", column[key], printed)
    energy_50 = solve(salpeter_gauss(size=50, scale=0.5))[0].energy
    if not abs(energy_50 - 1.87098367) <= 1e-7:
        failures.append(f"E(N=50) = {energy_50!r} not within 1e-7 of 1.87098367")
    report("criterion 3: benchmark table 2, Salpeter reproduction", failures)


# --- criterion 4: benchmark table 3 (Yukawa, N = 200) ----------------------

TABLE3 = {
    # (state, column) -> {row: printed}
    ("00", "conf"): {"energy": "-16.340426", "q2_mean": "23.788977", "potential_mean": "-40.1294", "hamiltonian_mean": "-16.340426"},
    ("00", "mom"): {"energy": "-16.340415", "q2_mean": "23.788942", "potential_mean": "-40.1200", "hamiltonian_mean": "-16.331047"},
    ("10", "conf"): {"energy": "-0.6053933", "q2_mean": "2.95238", "potential_mean": "-3.55778", "hamiltonian_mean": "-0.6053933"},
    ("10", "mom"): {"energy": "-0.6053975", "q2_mean": "2.95241", "potential_mean": "-3.55743", "hamiltonian_mean": "-0.6050217"},
    ("01", "conf"): {"energy": "-0.205082327", "q2_mean": "2.70792857", "potential_mean": "-2.913010896", "hamiltonian_mean": "-0.205082327"},
    ("01", "mom"): {"energy": "-0.205082331", "q2_mean": "2.70792862", "potential_mean": "-2.913010877", "hamiltonian_mean": "-0.205082257"},
}


@pytest.fixture(scope="module")
def table3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "table3.csv"
    assert cli_main(["--task", "table", "--table", "3", "--out", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = {}
    for line in lines[1:]:
        row = line.split(",")
        for column_name, cell in zip(header[1:], row[1:]):
            kind, state = column_name.split("_")
            cells[(state, kind)] = cells.get((state, kind), {})
            cells[(state, kind)][row[0]] = float(cell)
    return cells


def test_criterion_4_table3_yukawa(table3_csv):
    failures = []
    for (state, kind), refs in TABLE3.items():
        for row, printed in refs.items():
            check_cell(failures, f"{kind}_{state} {row}", table3_csv[(state, kind)][row], printed)
    mom_ground = table3_csv[("00", "mom")]["energy"]
    if not abs(mom_ground - (-16.340415)) <= 1e-5:
        failures.append(f"momentum eps(0,0) = {mom_ground!r} not within 1e-5 of -16.340415")
    report("criterion 4: benchmark table 3 reproduction (all 24 cells, via CLI CSV)", failures)


# --- criterion 5: figure-caption spot values -------------------------------


def test_criterion_5_figure_spot_values():
    failures = []
    spots = [
        ("(a) Gaussian N=10 h=1.0", solve(gauss15(size=10, scale=1.0))[0].energy, -5.37859, 1e-4),
        ("(b) Salpeter Gaussian N=10 h=1.0", solve(salpeter_gauss(size=10, scale=1.0))[0].energy, 1.8750, 1e-3),
        ("(c) Yukawa momentum N=20 h=0.5", solve(yukawa10(size=20, scale=0.5))[0].energy, -16.2066, 1e-3),
        (
            "(d) Yukawa configuration N=20 h_r=0.05",
            solve_config(ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), 0, 20, 0.05))[0].energy,
            -16.3404,
            1e-3,
        ),
        (
            "(e) Salpeter Yukawa N=25 h=0.5",
            solve(
                ProblemSpec(SalpeterKinetic(16.0, 16.0), YukawaPotential(1.0, 5.0), 0, 25, 0.5)
            )[0].energy,
            30.81,
            0.05,
        ),
    ]
    for label, value, expected, tol in spots:
        if not abs(value - expected) <= tol:
            failures.append(f"{label}: {value!r} vs {expected} (tol {tol})")
    report("criterion 5: figure-caption spot values", failures)


# --- criterion 6: bound-state counting -------------------------------------


def test_criterion_6_bound_state_counting():
    failures = []
    counts = [
        ("Gaussian g=15 l=0, N=50", solve(gauss15()), 1),
        ("Gaussian g=15 l=1, N=50", solve(gauss15(l=1)), 1),
        ("Yukawa g=10 l=0, N=200", solve(yukawa10(scale=1.0)), 2),
        ("Yukawa g=10 l=1, N=200", solve(yukawa10(l=1, scale=0.5)), 1),
        ("Salpeter Gaussian", solve(salpeter_gauss()), 1),
        (
            "Salpeter Yukawa",
            solve(ProblemSpec(SalpeterKinetic(16.0, 16.0), YukawaPotential(1.0, 5.0), 0, 25, 0.5)),
            1,
        ),
    ]
    for label, states, expected in counts:
        if len(states) != expected:
            failures.append(f"{label}: found {len(states)} bound states, expected {expected}")
    lower, upper = SalpeterKinetic(16.0, 16.0).bound_window()
    salpeter_states = solve(
        ProblemSpec(SalpeterKinetic(16.0, 16.0), YukawaPotential(1.0, 5.0), 0, 25, 0.5)
    )
    for state in salpeter_states:
        if not lower < state.energy < upper:
            failures.append(f"Salpeter Yukawa state at {state.energy!r} outside (0, 32)")
    report("criterion 6: bound-state counting", failures)


# --- criterion 7: property suite -------------------------------------------


def test_criterion_7_property_suite():
    failures = []
    # Gauss-Laguerre exactness: monomial moments against factorials
    for n in (1, 5, 20, 50, 200, 400, 512):
        zeros = laguerre_zeros(n)
        log_w = np.log(laguerre_weights(zeros))
        log_x = np.log(zeros)
        worst = max(
            abs(np.exp(log_w + m * log_x - zeros - math.lgamma(m + 1)).sum() - 1.0)
            for m in range(2 * n)
        )
        if worst > 1e-11:
            failures.append(f"quadrature exactness N={n}: worst relative error {worst:.2e}")
    # Lagrange-condition identity matrix
    for n in (5, 20, 50):
        mesh = build_mesh(n, 1.0)
        mat = np.array(
            [
                [lagrange_function(mesh, j + 1, x) * math.sqrt(w) for j in range(n)]
                for x, w in zip(mesh.nodes, mesh.weights)
            ]
        )
        err = np.max(np.abs(mat - np.eye(n)))
        if err > 1e-10:
            failures.append(f"Lagrange condition N={n}: max deviation {err:.2e}")
    # analytic vs numeric kernels on the l, p, p' grid
    grid = (0.2, 0.5, 1.0, 2.0, 5.0)
    for l in (0, 1, 2):
        for p in grid:
            for q in grid:
                for name, analytic, vft in (
                    ("gaussian", partial_wave_gaussian, vft_gaussian),
                    ("yukawa", partial_wave_yukawa, vft_yukawa),
                ):
                    a_val = analytic(l, p, q, 1.0, 1.0)
                    n_val = partial_wave_numeric(l, p, q, lambda k: vft(k, 1.0, 1.0))
                    if abs(a_val - n_val) > 1e-9 * abs(n_val):
                        failures.append(
                            f"{name} kernel l={l} p={p} q={q}: {a_val!r} vs {n_val!r}"
                        )
    # kernel symmetry is exact
    for p, q in ((0.3, 2.2), (1.7, 0.05), (4.0, 4.0)):
        if partial_wave_gaussian(1, p, q, 2.0, 1.3) != partial_wave_gaussian(1, q, p, 2.0, 1.3):
            failures.append(f"gaussian kernel asymmetric at ({p}, {q})")
        if partial_wave_yukawa(1, p, q, 2.0, 1.3) != partial_wave_yukawa(1, q, p, 2.0, 1.3):
            failures.append(f"yukawa kernel asymmetric at ({p}, {q})")
    # eigen residuals and eigenvector normalization on a benchmark problem
    problem = gauss15()
    matrix = assemble_hamiltonian(problem)
    energies, vectors, _ = eigh_refined(matrix)
    residual = np.abs(matrix @ vectors - vectors * energies).max()
    bound = 1e-11 * np.linalg.norm(matrix, 2)
    if residual > bound:
        failures.append(f"eigen residual {residual:.2e} above {bound:.2e}")
    state = solve(problem)[0]
    if abs(np.sum(state.coefficients**2) - 1.0) > 1e-12:
        failures.append("bound-state coefficients not normalized to 1e-12")
    # <1> through both observable routes
    if abs(expval_momentum(state, lambda p: 1.0) - 1.0) > 1e-12:
        failures.append("momentum route <1> != 1")
    if abs(expval_radial(state, lambda r: 1.0) - 1.0) > 1e-12:
        failures.append("radial route <1> != 1")
    report("criterion 7: property suite", failures)


# --- criterion 8: plateau and consistency diagnostics -----------------------


def test_criterion_8_plateau_and_consistency():
    failures = []
    e_a = solve(gauss15(scale=0.4))[0].energy
    e_b = solve(gauss15(scale=0.5))[0].energy
    if abs(e_a - e_b) > 1e-9:
        failures.append(f"plateau: |eps(0.4) - eps(0.5)| = {abs(e_a - e_b):.2e} > 1e-9")
    problem = gauss15()
    state = solve(problem)[0]
    eps, mean = state.energy, mean_values(state, problem)["hamiltonian_mean"]
    if abs(eps - mean) > 1e-9:
        failures.append(f"table-1 consistency residual {abs(eps - mean):.2e} > 1e-9")
    yuk = yukawa10()  # N=200, h=0.8 ground state
    state_y = solve(yuk)[0]
    eps_y, mean_y = state_y.energy, mean_values(state_y, yuk)["hamiltonian_mean"]
    gap = abs(mean_y - eps_y)
    reference_gap = abs(-16.331047 - (-16.340415))
    if not 0.8 * reference_gap <= gap <= 1.2 * reference_gap:
        failures.append(
            f"Yukawa consistency gap {gap:.4e} not within 20% of {reference_gap:.4e}"
        )
    report("criterion 8: plateau and consistency diagnostics", failures)


# --- criterion 9: Fourier reconstruction of the position wavefunction -------


def test_criterion_9_fourier_reconstruction():
    # Deviations are measured relative to the peak of the oracle curve: a
    # pointwise ratio is meaningless in the exponential tail where the
    # oscillation onset must be located.
    failures = []
    mom_state = solve(gauss15(size=20))[0]
    conf_state = solve_config(ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 20, 0.4))[0]
    grid = np.arange(0.1, 10.01, 0.1)
    u_mom = grid * wavefunction_position(mom_state, grid)
    u_conf = reduced_wavefunction(conf_state, grid)
    peak = np.max(np.abs(u_conf))
    for r in (0.5, 1.0, 1.5):
        delta = abs(
            r * wavefunction_position(mom_state, r) - reduced_wavefunction(conf_state, r)
        )
        if delta > 1e-3 * peak:
            failures.append(f"r={r}: |delta|/peak = {delta / peak:.2e} > 1e-3")
    deviation = np.abs(u_mom - u_conf) / peak
    above = np.flatnonzero(deviation > 1e-2)
    if above.size == 0:
        failures.append("no unphysical oscillations detected anywhere on r <= 10")
    else:
        onset = grid[above[0]]
        if not onset > 3.0:
            failures.append(f"oscillations set in at r = {onset:.2f}, expected beyond 3")
    report("criterion 9: Fourier reconstruction against the oracle", failures)
