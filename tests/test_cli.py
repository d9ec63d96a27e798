import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from lagmesh import (
    GaussianPotential,
    NonrelativisticKinetic,
    ProblemSpec,
    SalpeterKinetic,
    YukawaPotential,
    cli,
    solve,
)
from lagmesh import configspace, linalg
from lagmesh import solver as solver_module
from lagmesh.mesh import build_mesh
from lagmesh.observables import expval_momentum, mean_values


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return cli.main(args)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# Yukawa g = 10 grids per scan task: config lines and the (N, h) points they name
_SCAN_GRIDS = {
    "scan-h": ("mesh.N = 40\nscan.h = 0.5,0.7,0.9,1.1,1.3\n", [(40, h) for h in (0.5, 0.7, 0.9, 1.1, 1.3)]),
    "scan-n": ("mesh.h = 0.8\nscan.N = 20,30,40\n", [(n, 0.8) for n in (20, 30, 40)]),
}


class FakeBlas:
    """A settable BLAS thread count in place of the OpenBLAS lookup."""

    def __init__(self, count=4):
        self.count = count
        self.counts_set = []

    def calls(self):
        return self.set, self.get

    def set(self, count):
        self.counts_set.append(count)
        self.count = count

    def get(self):
        return self.count


def _blas_threads():
    calls = linalg._blas_thread_calls()
    return None if calls is None else calls[1]()


class TestConfigParsing:
    def test_flat_grammar_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark problem\n"
            "problem.g = 15.0   # coupling\n"
            "problem.potential = gaussian\n"
            "problem.l = 0\n"
            "mesh.N = 20\n"
            "mesh.h = 0.5\n"
            "run.task = solve\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0

    def test_malformed_line_is_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem.g 15.0\n")
        assert run_cli(["--config", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file(self):
        assert run_cli(["--config", "/nonexistent/path.cfg"]) == 1

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem.g = 15.0\nmesh.N = 10\nmesh.h = 0.5\nrun.task = solve\n")
        assert run_cli(["--config", str(cfg), "--N", "20"]) == 0
        out = capsys.readouterr().out
        assert "N=20" in out and "-5.3775999078" in out

    @pytest.mark.parametrize("key", ["problem.a", "problem.b", "problem.m1", "problem.m2"])
    def test_coupling_conflicts_with_the_parameters_it_fixes(self, tmp_path, capsys, key):
        # problem.g fixes a, b, m1 and m2; setting one of them as well is refused, not ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem.g = 15.0\n{key} = 3\nmesh.N = 20\nmesh.h = 0.5\nrun.task = solve\n")
        assert run_cli(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    def test_coupling_conflicts_with_salpeter_kinetics(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem.g = 15.0\nproblem.kinetics = salpeter\nmesh.N = 20\nmesh.h = 0.5\n")
        assert run_cli(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: the dimensionless coupling problem.g assumes nonrelativistic" in err

    @pytest.mark.parametrize(
        "lines, task, key",
        [
            ("problem.potentail = yukawa\nproblem.g = 10\nmesh.N = 50\nmesh.h = 0.8\n", "solve",
             "problem.potentail"),
            ("problem.g = 15\nmesh.N = 20\nmesh.h = 0.5\nwave.State = 1\n", "observables", "wave.State"),
        ],
        ids=["potential", "state"],
    )
    def test_misspelt_key_is_refused_by_name(self, tmp_path, capsys, lines, task, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert run_cli(["--config", str(cfg), "--task", task]) == 1
        assert f"configuration error: unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, args, named",
        [
            ("wave.space = positon", ["--task", "observables", "--g", "15", "--N", "20", "--h", "0.5"],
             "wave.space 'positon'"),
            ("problem.kinetics = salpter", ["--task", "table", "--table", "1"], "problem.kinetics 'salpter'"),
        ],
        ids=["space-unread-by-observables", "kinetics-unread-by-table"],
    )
    def test_value_outside_its_choices_is_refused_whatever_the_task(
        self, tmp_path, capsys, monkeypatch, line, args, named
    ):
        def no_solve(problem):
            pytest.fail("solved a configuration that names an unknown choice")

        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(cli, "solve_config", no_solve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        assert run_cli(["--config", str(cfg)] + args) == 1
        assert f"configuration error: unknown {named}; choose from" in capsys.readouterr().err

    def test_unknown_task_in_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("run.task = frobnicate\n")
        assert run_cli(["--config", str(cfg)]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["--frobnicate"]) == 1

    def test_help_lists_the_choices(self, capsys):
        assert run_cli(["--help"]) == 0
        out = capsys.readouterr().out
        for choices in (
            "--task {solve,scan-h,scan-n,observables,wavefunction,compare,table}",
            "--potential {gaussian,yukawa}",
            "--kinetics {nonrelativistic,salpeter}",
            "--table {1,2,3}",
        ):
            assert choices in out


def test_module_entry_point(tmp_path):
    # python -m lagmesh runs main and exits with its code
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        command = [sys.executable, "-m", "lagmesh", *args]
        return subprocess.run(command, capture_output=True, text=True, env=env)

    solved = run("--task", "solve", "--g", "15", "--N", "10", "--h", "0.5")
    assert solved.returncode == 0
    assert "(n=0, l=0)  energy = -5.37" in solved.stdout
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem.g = 15\nmesh.nodes = 10\n")
    refused = run("--config", str(cfg))
    assert refused.returncode == 1
    assert "configuration error: unknown config key 'mesh.nodes'" in refused.stderr


class TestSolveTask:
    def test_benchmark_summary(self, capsys):
        code = run_cli(
            ["--task", "solve", "--g", "15", "--potential", "gaussian", "--N", "50", "--h", "0.5"]
        )
        assert code == 0
        assert "-5.37759990706" in capsys.readouterr().out

    def test_no_bound_state_is_reported(self, capsys):
        assert run_cli(["--task", "solve", "--g", "0.1", "--N", "20", "--h", "0.5"]) == 0
        assert "  none inside the bound-state window" in capsys.readouterr().out

    def test_missing_strength_is_configuration_error(self):
        assert run_cli(["--task", "solve", "--potential", "gaussian", "--N", "10", "--h", "0.5"]) == 1

    @pytest.mark.parametrize(
        "potential, l", [("gaussian", "27"), ("yukawa", "27")], ids=["gaussian", "yukawa"]
    )
    def test_beyond_degree_cap_is_configuration_error(self, capsys, potential, l):
        code = run_cli(
            ["--task", "solve", "--g", "10", "--potential", potential, "--l", l, "--N", "10", "--h", "0.8"]
        )
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_infinite_scale_is_configuration_error(self, capsys):
        assert run_cli(["--task", "solve", "--g", "15", "--N", "10", "--h", "inf"]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, named",
        [
            ("problem.a = inf\n", "a = inf"),
            ("problem.a = 15\nproblem.m1 = inf\n", "m1 = inf"),
            ("problem.a = 15\nproblem.b = inf\n", "b = inf"),
        ],
        ids=["a", "m1", "b"],
    )
    def test_non_finite_parameter_is_configuration_error(self, tmp_path, capsys, lines, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        args = ["--config", str(cfg), "--task", "solve", "--potential", "gaussian", "--N", "10", "--h", "0.5"]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and f"got {named}" in err

    @pytest.mark.parametrize(
        "line, key, text",
        [
            ("scan.N = 10,20.5", "scan.N", "20.5"),
            ("mesh.N = 1e1", "mesh.N", "1e1"),
            ("scan.h = 0.1:2.0:x", "scan.h", "x"),
            ("scan.h = 0.1:y:3", "scan.h", "y"),
            ("problem.l = one", "problem.l", "one"),
        ],
        ids=["list-item", "scalar-int", "range-count", "range-stop", "scalar-l"],
    )
    def test_value_its_cast_refuses_names_the_key(self, tmp_path, capsys, line, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem.g = 15\nmesh.h = 0.5\n{line}\n")
        assert run_cli(["--config", str(cfg), "--task", "solve"]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {key} must be" in err and f"got {text!r}" in err

    def test_overflowing_scale_is_numerical_failure(self, capsys):
        # h^3 overflows to inf, which the Hamiltonian's finiteness check names
        # without NumPy printing overflow warnings first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["--task", "solve", "--g", "15", "--N", "10", "--h", "1e150"]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "numerical failure: non-finite Hamiltonian entry at mesh pair (i=1, j=1)" in (
            capsys.readouterr().err
        )

    def test_no_bound_state_observables_is_numerical_failure(self):
        code = run_cli(
            ["--task", "observables", "--g", "0.1", "--potential", "gaussian", "--N", "20", "--h", "0.5"]
        )
        assert code == 2


class TestObservablesTask:
    def test_rows_are_mean_values_in_order(self, tmp_path):
        out = tmp_path / "obs.csv"
        args = ["--task", "observables", "--g", "15", "--potential", "gaussian", "--N", "20", "--h", "0.5"]
        assert run_cli(args + ["--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["quantity", "value"]
        problem = ProblemSpec(NonrelativisticKinetic(1.0, 1.0), GaussianPotential(15.0, 1.0), 0, 20, 0.5)
        values = mean_values(solve(problem)[0], problem)
        assert [row[0] for row in rows] == list(values)
        assert [float(row[1]) for row in rows] == list(values.values())

    @pytest.mark.parametrize("task", ["observables", "wavefunction"])
    def test_negative_state_is_configuration_error(self, tmp_path, task):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 20\nmesh.h = 0.5\n"
            f"run.task = {task}\nrun.out = {tmp_path / 'out.csv'}\n"
            "wave.grid = 0.5,1.0\nwave.state = -1\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "task, space",
        [("observables", ""), ("wavefunction", ""), ("compare", "configuration-space ")],
        ids=["observables", "wavefunction", "compare"],
    )
    def test_state_past_last_bound_is_numerical_failure(self, tmp_path, capsys, monkeypatch, task, space):
        # one bound state (n = 0) at N = 20, h = 0.5, and in configuration
        # space at N_r = 20, h_r = 0.4, which compare checks before its momentum solve
        if task == "compare":
            monkeypatch.setattr(cli, "solve", lambda problem: pytest.fail("compare solved in momentum space"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 20\nmesh.h = 0.5\nmesh.h_r = 0.4\n"
            f"run.task = {task}\nrun.out = {tmp_path / 'out.csv'}\n"
            "wave.grid = 0.5,1.0\nwave.state = 1\n"
        )
        assert run_cli(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: wave.state = 1, but only 1 {space}bound state(s)" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_configuration_error(self, tmp_path, capsys, monkeypatch, where):
        # refused when the config loads, before the computation
        monkeypatch.setattr(cli, "solve", lambda problem: pytest.fail("solved before checking run.out"))
        out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
        args = ["--task", "solve", "--g", "15", "--N", "10", "--h", "0.5", "--out", str(out)]
        assert run_cli(args) == 1
        assert f"configuration error: cannot write {out}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_failed_write_after_the_computation_is_configuration_error(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, header, rows):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", full_disk)
        out = tmp_path / "out.csv"
        args = ["--task", "solve", "--g", "15", "--N", "10", "--h", "0.5", "--out", str(out)]
        assert run_cli(args) == 1
        assert f"configuration error: cannot write {out}: [Errno 28]" in capsys.readouterr().err


class TestScanTasks:
    def test_scan_h_matches_figure_value(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 10\n"
            f"run.task = scan-h\nrun.out = {out}\nscan.h = 0.4,0.6,0.8,1.0\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        header, rows = read_rows(out)
        assert header == ["N", "h", "n", "l", "energy"]
        ground = {row[1]: float(row[4]) for row in rows if row[2] == "0"}
        assert ground["1"] == pytest.approx(-5.37859, abs=1e-4)
        assert all(math.isfinite(float(row[4])) for row in rows)
        hs = [row[1] for row in rows if row[2] == "0"]
        assert hs == ["0.40000000000000002", "0.59999999999999998", "0.80000000000000004", "1"]

    @pytest.mark.parametrize("task", ["scan-h", "scan-n"])
    def test_scan_rows_are_the_solves(self, tmp_path, task):
        # the rows are the solves' energies, bit for bit, in grid order
        settings, points = _SCAN_GRIDS[task]
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            f"problem.g = 10.0\nproblem.potential = yukawa\n{settings}run.task = {task}\n"
            f"run.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        _, rows = read_rows(out)
        solver_module._solve_cached.cache_clear()
        expected = []
        for size, h in points:
            problem = ProblemSpec(NonrelativisticKinetic(1.0, 1.0), YukawaPotential(10.0, 1.0), 0, size, h)
            expected += [(size, h, st.n, st.energy) for st in solve(problem)]
        assert [(int(r[0]), float(r[1]), int(r[2]), float(r[4])) for r in rows] == expected

    def test_scan_n_ordering_and_completeness(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.h = 0.5\n"
            f"run.task = scan-n\nrun.out = {out}\nscan.N = 5,10,15\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        _, rows = read_rows(out)
        sizes = [row[0] for row in rows if row[2] == "0"]
        assert sizes == ["5", "10", "15"]

    def test_deterministic_artifacts(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = (
            "problem.g = 10.0\nproblem.potential = yukawa\nmesh.N = 30\n"
            "run.task = scan-h\nscan.h = 0.5:1.5:5\n"
        )
        cfg.write_text(base + f"run.out = {out_a}\n")
        assert run_cli(["--config", str(cfg)]) == 0
        cfg.write_text(base + f"run.out = {out_b}\n")
        assert run_cli(["--config", str(cfg)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("task", ["scan-h", "scan-n"])
    def test_bad_later_point_refused_before_any_solve(self, tmp_path, capsys, monkeypatch, task):
        grid = {"scan-h": "mesh.N = 300\nscan.h = 0.5,inf\n", "scan-n": "mesh.h = 0.5\nscan.N = 10,513\n"}[task]

        def no_solve(problem):
            pytest.fail("scan solved before checking every point")

        monkeypatch.setattr(cli, "solve", no_solve)
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            f"problem.g = 15.0\nproblem.potential = gaussian\n{grid}run.task = {task}\nrun.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("10:20:4", "scan.N points must be integers, got 13.333333333333334"),
            ("10:inf:3", "scan.N points must be finite, got inf"),
            ("10:20", "scan.N must be 'start:stop:count', got '10:20'"),
            ("10:20:0", "scan.N count must be >= 1, got 0"),
            (",", "scan.N is empty: ','"),
        ],
        ids=["fraction", "infinite-end", "no-count", "zero-count", "empty"],
    )
    def test_size_grid_refusal_names_the_key_and_point(self, tmp_path, capsys, grid, message):
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.h = 0.5\n"
            f"run.task = scan-n\nscan.N = {grid}\nrun.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_later_failing_point_is_reported_in_grid_order(self, tmp_path, capsys, monkeypatch):
        # both later points overflow h^3; the first of them is reported, as
        # the serial loop reports it, and no CSV is written
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 20\n"
            f"run.task = scan-h\nscan.h = 0.5,1e150,2e150\nrun.out = {out}\n"
        )
        before = _blas_threads()
        assert run_cli(["--config", str(cfg)]) == 2
        assert _blas_threads() == before
        threaded = capsys.readouterr().err
        assert f"p={float(1e150 * build_mesh(20, 1e150).nodes[0])!r}" in threaded
        assert not out.exists()
        monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: None)
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == threaded
        assert not out.exists()

    def test_first_failure_wins_whichever_thread_reaches_it(self, tmp_path, capsys, monkeypatch):
        # the worker holds point 2 until point 3 has failed on another thread
        blas = FakeBlas()
        monkeypatch.setattr(linalg, "_blas_thread_calls", blas.calls)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        third_failed = threading.Event()

        def failing_solve(problem):
            assert blas.count == 1
            if problem.scale == 0.7:
                third_failed.wait(timeout=30)
                raise cli.NumericalError("point 2")
            if problem.scale == 0.9:
                third_failed.set()
                raise cli.NumericalError("point 3")
            return []

        monkeypatch.setattr(cli, "solve", failing_solve)
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 10\n"
            f"run.task = scan-h\nscan.h = 0.5,0.7,0.9\nrun.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "numerical failure: point 2\n"
        assert third_failed.is_set()
        assert blas.counts_set == [1, 4]
        assert not out.exists()

    def test_more_threads_than_cores_take_each_point_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linalg, "_blas_thread_calls", FakeBlas().calls)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        taken = []

        def stub_solve(problem):
            taken.append(problem.scale)
            return [SimpleNamespace(n=0, l=0, energy=problem.scale)]

        monkeypatch.setattr(cli, "solve", stub_solve)
        cfg = tmp_path / "scan.cfg"
        out = tmp_path / "scan.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 5\n"
            f"run.task = scan-h\nscan.h = 0.1:2.0:40\nrun.out = {out}\n"
        )
        grid = cli._parse_grid("0.1:2.0:40", float)
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_cli(["--config", str(cfg)]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == grid
        _, rows = read_rows(out)
        assert [float(row[4]) for row in rows] == grid
        assert threading.active_count() == threads_before

    def test_interrupt_stops_the_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linalg, "_blas_thread_calls", FakeBlas().calls)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        taken = []

        def interrupted_solve(problem):
            taken.append(problem.scale)
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            time.sleep(0.01)
            return []

        monkeypatch.setattr(cli, "solve", interrupted_solve)
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 5\n"
            f"run.task = scan-h\nscan.h = 0.1:2.0:40\nrun.out = {tmp_path / 'scan.csv'}\n"
        )
        with pytest.raises(KeyboardInterrupt):
            run_cli(["--config", str(cfg)])
        assert len(taken) < 40
        assert not (tmp_path / "scan.csv").exists()

    def test_serial_fallback_writes_the_same_bytes(self, tmp_path, monkeypatch):
        settings, _ = _SCAN_GRIDS["scan-h"]
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"problem.g = 10.0\nproblem.potential = yukawa\n{settings}run.task = scan-h\n")
        outputs = {}

        def scan(name):
            solver_module._solve_cached.cache_clear()
            out = tmp_path / f"{name}.csv"
            assert run_cli(["--config", str(cfg), "--out", str(out)]) == 0
            outputs[name] = out.read_bytes()

        scan("default")
        calling_thread = threading.get_ident()
        real_solve = cli.solve

        def serial_solve(problem):
            assert threading.get_ident() == calling_thread
            return real_solve(problem)

        monkeypatch.setattr(cli, "solve", serial_solve)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_blas_thread_calls", lambda: None)
            scan("no_blas_control")
        blas = FakeBlas()
        monkeypatch.setattr(linalg, "_blas_thread_calls", blas.calls)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        scan("one_cpu")
        assert blas.counts_set == []
        assert outputs["no_blas_control"] == outputs["default"]
        assert outputs["one_cpu"] == outputs["default"]

    def test_grid_must_increase(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 10\n"
            "run.task = scan-h\nscan.h = 1.0,0.5\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1


class TestWavefunctionTask:
    def test_p_wave_reduced_function_vanishes_at_origin(self, tmp_path):
        cfg = tmp_path / "wave.cfg"
        out = tmp_path / "wave.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nproblem.l = 1\n"
            "mesh.N = 20\nmesh.h = 0.5\nrun.task = wavefunction\n"
            f"run.out = {out}\nwave.space = position\nwave.grid = 0.0:2.0:5\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        header, rows = read_rows(out)
        assert header == ["r", "u"]
        assert float(rows[0][1]) == 0.0

    def test_yukawa_summary_energy(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        out = tmp_path / "wave.csv"
        cfg.write_text(
            "problem.g = 10.0\nproblem.potential = yukawa\nmesh.N = 20\nmesh.h = 0.5\n"
            f"run.task = wavefunction\nrun.out = {out}\nwave.space = momentum\nwave.grid = 0.1:8.0:40\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "-16.2065" in stdout  # -16.2066 within print rounding
        _, rows = read_rows(out)
        assert len(rows) == 40

    def test_momentum_export_round_trips_float(self, tmp_path):
        cfg = tmp_path / "wave.cfg"
        out = tmp_path / "wave.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 10\nmesh.h = 0.5\n"
            f"run.task = wavefunction\nrun.out = {out}\nwave.space = momentum\nwave.grid = 0.5:2.0:4\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF endings only
        _, rows = read_rows(out)
        for text, value in ((cell, float(cell)) for row in rows for cell in row):
            assert f"{value:.17g}" == text  # 17 significant digits round-trip


    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_negative_grid_point_is_configuration_error(self, tmp_path, capsys, space):
        out = tmp_path / "wave.csv"
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 10\nmesh.h = 0.5\n"
            f"run.task = wavefunction\nrun.out = {out}\nwave.space = {space}\n"
            "wave.grid = -1.0,0.0,1.0\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1
        assert "wave.grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, named",
        [("0.5,nan,1", "nan"), ("0.5,inf", "inf"), ("-inf,0.5", "-inf"), ("0.5:inf:3", "inf")],
    )
    def test_non_finite_grid_point_is_refused_before_the_solve(
        self, tmp_path, capsys, monkeypatch, grid, named
    ):
        def must_not_run(problem):
            raise AssertionError("the wavefunction task solved before checking wave.grid")

        monkeypatch.setattr(cli, "solve", must_not_run)
        out = tmp_path / "wave.csv"
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(
            "problem.g = 10.0\nproblem.potential = yukawa\nmesh.N = 20\nmesh.h = 0.8\n"
            f"run.task = wavefunction\nrun.out = {out}\nwave.grid = {grid}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: wave.grid points must be finite, got {named}" in err
        assert not out.exists()


class TestCompareTask:
    def test_gaussian_benchmark_agreement(self, tmp_path):
        cfg = tmp_path / "cmp.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "problem.g = 15.0\nproblem.potential = gaussian\nmesh.N = 50\nmesh.h = 0.5\n"
            f"mesh.N_r = 100\nmesh.h_r = 0.4\nrun.task = compare\nrun.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        header, rows = read_rows(out)
        assert header == ["quantity", "momentum", "configuration", "abs_delta", "rel_delta"]
        deltas = {row[0]: float(row[3]) for row in rows}
        assert deltas["energy"] <= 1e-10
        assert deltas["potential_mean"] <= 1e-9
        assert deltas["q2_mean"] <= 1e-9
        assert deltas["hamiltonian_mean"] <= 1e-9
        # <x> converges slowest across spaces; agreement only at print level
        assert deltas["x_mean"] <= 1e-6

    def test_yukawa_p_wave_cross_space_delta(self, tmp_path):
        cfg = tmp_path / "cmp.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "problem.g = 10.0\nproblem.potential = yukawa\nproblem.l = 1\n"
            "mesh.N = 200\nmesh.h = 0.5\nmesh.h_r = 0.05\n"
            f"run.task = compare\nrun.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        _, rows = read_rows(out)
        deltas = {row[0]: float(row[3]) for row in rows}
        assert deltas["energy"] <= 1e-8

    def test_configuration_hamiltonian_divides_by_two_mu(self, tmp_path):
        # m1 = m2 = 2, so mu = 1 and <T> = <q^2> / 2 in configuration space
        cfg = tmp_path / "cmp.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "problem.potential = gaussian\nproblem.a = 15\nproblem.b = 1\n"
            "problem.m1 = 2\nproblem.m2 = 2\nmesh.N = 50\nmesh.h = 0.5\n"
            f"mesh.N_r = 100\nmesh.h_r = 0.4\nrun.task = compare\nrun.out = {out}\n"
        )
        assert run_cli(["--config", str(cfg)]) == 0
        _, rows = read_rows(out)
        conf = {row[0]: float(row[2]) for row in rows}
        assert abs(conf["hamiltonian_mean"] - conf["energy"]) <= 1e-9

    def test_missing_configuration_scale_refused_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(problem):
            pytest.fail("compare solved before checking its settings")

        monkeypatch.setattr(cli, "solve", no_solve)
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            "problem.g = 10.0\nproblem.potential = yukawa\nmesh.N = 400\nmesh.h = 0.8\n"
            "run.task = compare\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1
        assert "mesh.h_r is required" in capsys.readouterr().err

    def test_salpeter_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            "problem.kinetics = salpeter\nproblem.potential = gaussian\nproblem.a = 3.0\n"
            "problem.b = 1.0\nmesh.N = 20\nmesh.h = 0.5\nmesh.h_r = 0.4\nrun.task = compare\n"
        )
        assert run_cli(["--config", str(cfg)]) == 1
        assert "nonrelativistic" in capsys.readouterr().err


class TestTableTask:
    def test_table_number_required(self, capsys):
        assert run_cli(["--task", "table"]) == 1
        assert "configuration error: run.table is required for task table" in capsys.readouterr().err

    def test_table_one_headers_and_benchmark_cell(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli(["--task", "table", "--table", "1", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["quantity", "conf", "mom_N10", "mom_N20", "mom_N50"]
        table = {row[0]: row[1:] for row in rows}
        assert float(table["energy"][3]) == pytest.approx(-5.3775999070682, abs=1e-9)
        assert table["q4_mean"][0] == ""  # no configuration-space q^4 route

    def test_tables_one_and_two_are_the_library_values(self, tmp_path):
        # every computed cell parses to the library's value bit for bit
        tables = {}
        for number in (1, 2):
            out = tmp_path / f"table{number}.csv"
            assert run_cli(["--task", "table", "--table", str(number), "--out", str(out)]) == 0
            header, rows = read_rows(out)
            tables[number] = {row[0]: dict(zip(header[1:], row[1:])) for row in rows}
        kinetic, potential = NonrelativisticKinetic(1.0, 1.0), GaussianPotential(15.0, 1.0)
        problem = ProblemSpec(kinetic, potential, 0, 100, 0.4)
        columns = {"conf": configspace.mean_values(configspace.solve_config(problem)[0], problem)}
        for size in (10, 20, 50):
            problem = ProblemSpec(kinetic, potential, 0, size, 0.5)
            columns[f"mom_N{size}"] = mean_values(solve(problem)[0], problem)
        names = {"energy": "energy", "q2_mean": "p2_mean", "q4_mean": "p4_mean", "x_mean": "r_mean",
                 "potential_mean": "potential_mean", "hamiltonian_mean": "hamiltonian_mean"}
        assert list(tables[1]) == list(names)
        for label, name in names.items():
            for column, values in columns.items():
                cell = tables[1][label][column]
                if name in values:
                    assert float(cell) == values[name], (label, column)
                else:
                    assert cell == "", (label, column)
        printed = {
            "energy": "1.87098362", "sqrt_p2_m2_mean": "1.3553804", "p4_mean": "3.991567",
            "r_mean": "1.73375", "potential_mean": "-0.8397772", "hamiltonian_mean": "1.87098362",
        }
        assert [(label, row["conf_reference"]) for label, row in tables[2].items()] == list(printed.items())
        for size in (10, 20, 50):
            problem = ProblemSpec(SalpeterKinetic(1.0, 1.0), GaussianPotential(3.0, 1.0), 0, size, 0.5)
            state = solve(problem)[0]
            values = mean_values(state, problem)
            values["sqrt_p2_m2_mean"] = expval_momentum(state, lambda p: math.sqrt(p * p + 1.0))
            for label in printed:
                assert float(tables[2][label][f"mom_N{size}"]) == values[label], (label, size)
