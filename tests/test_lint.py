from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagmesh"


def test_no_longdouble_in_the_package():
    # results must not depend on the platform's long double, which is plain
    # double on MSVC and macOS-arm64 builds of NumPy
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    hits = [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "longdouble" in line
    ]
    assert not hits, f"longdouble in {', '.join(hits)}"
