import importlib
import re
from pathlib import Path

import pytest

import lagmesh

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


def test_public_names_are_documented():
    # every public name is shown in the README's code, in a span or a block
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.DOTALL))
    missing = [name for name in lagmesh.__all__ if not re.search(rf"\b{name}\b", code)]
    assert not missing, f"not in README.md: {', '.join(missing)}"



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
