import ast
import importlib
import re
from pathlib import Path

import pytest

import lagmesh
from lagmesh import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lagmesh"


def _hits(word: str, allowed: tuple = ()) -> list:
    """file:line of every occurrence of word outside the allowed modules."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [
        f"{path.name}:{number}"
        for path in sources
        if path.stem not in allowed
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if word in line
    ]


def test_no_longdouble_in_the_package():
    # results must not depend on the platform's long double, which is plain
    # double on MSVC and macOS-arm64 builds of NumPy
    hits = _hits("longdouble")
    assert not hits, f"longdouble in {', '.join(hits)}"


@pytest.mark.parametrize(
    "word, home",
    [("ctypes", "linalg"), ("threading", "cli"), ("concurrent.futures", "cli")],
)
def test_concurrency_stays_in_one_module(word, home):
    # the BLAS thread count is set only in linalg, and threads are started
    # only by the CLI's scans
    hits = _hits(word, (home,))
    assert not hits, f"{word} outside {home}: {', '.join(hits)}"


def test_vector_eigensolves_stay_in_linalg():
    # every eigenvector solve goes through eigh_refined, which refines the
    # pairs in its window, so LAPACK's eigh is called only there
    hits = _hits("linalg.eigh(", ("linalg",))
    assert not hits, f"LAPACK eigh outside linalg: {', '.join(hits)}"


def test_public_names_are_documented():
    # every public name is shown in the README's code, in a span or a block
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.DOTALL))
    missing = [name for name in lagmesh.__all__ if not re.search(rf"\b{name}\b", code)]
    assert not missing, f"not in README.md: {', '.join(missing)}"



def test_every_task_has_one_runner():
    # main calls run_<task>, with "-" read as "_", for each task it accepts
    runners = sorted(name for name in vars(cli) if name.startswith("run_"))
    assert runners == sorted("run_" + task.replace("-", "_") for task in cli.TASKS)


def test_readme_lists_every_config_key():
    # the README's key table names each key the command line reads, once
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| key |", 1)[1].split("\n\n", 1)[0]
    cells = [line.split("|")[1] for line in table.splitlines()[2:]]
    documented = re.findall(r"`(\w+\.\w+)`", " ".join(cells))
    assert sorted(documented) == sorted(cli._KEYS)


@pytest.mark.parametrize(
    "name",
    sorted(
        "lagmesh" if path.stem == "__init__" else f"lagmesh.{path.stem}"
        for path in PACKAGE.glob("*.py")
        if path.stem != "__main__"  # importing it runs the command line
    ),
)
def test_module_exports_exist(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined: {', '.join(missing)}"


def _cache_size(decorator):
    """The maxsize node of an ``lru_cache`` or ``cache`` decorator, the
    decorator itself when it sets none, or None for another decorator."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return decorator
    if name != "lru_cache":
        return None
    if not isinstance(decorator, ast.Call):
        return decorator  # a bare lru_cache keeps 128 entries, but says nothing
    sizes = [k.value for k in decorator.keywords if k.arg == "maxsize"] + decorator.args[:1]
    return sizes[0] if sizes else decorator


def test_caches_are_bounded():
    # a cache holds what every distinct call returned, so an unbounded one
    # grows with a scan; the BLAS symbol lookup has a single key
    unbounded = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                size = _cache_size(decorator)
                if size is None or f"{path.stem}.{node.name}" == "linalg._blas_thread_calls":
                    continue
                if not (isinstance(size, ast.Constant) and isinstance(size.value, int)):
                    unbounded.append(f"{path.stem}.{node.name}")
    assert not unbounded, f"caches without a finite maxsize: {', '.join(unbounded)}"

