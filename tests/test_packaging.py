"""The package builds from `pyproject.toml` alone: an sdist made from a copy of
`pyproject.toml`, `README.md` and `src/` holds every module of `src/mkt`, and
the setuptools that builds it meets the floor `[build-system] requires` declares.

The build runs in a temporary directory, because setuptools writes
`src/mkt.egg-info` beside the sources it packs.
"""

import pathlib
import shutil
import subprocess
import sys
import tarfile

import pytest
import setuptools
from packaging.requirements import Requirement
from packaging.version import Version

ROOT = pathlib.Path(__file__).resolve().parents[1]


def footprint() -> set[str]:
    """The repository's top-level names and everything under src/ but caches."""
    paths = [*ROOT.iterdir(), *(ROOT / "src").rglob("*")]
    return {str(p.relative_to(ROOT)) for p in paths if "__pycache__" not in p.parts}


def test_sdist_holds_every_module(tmp_path):
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    before = footprint()
    build = "import setuptools.build_meta as b; print(b.build_sdist('dist'))"
    done = subprocess.run([sys.executable, "-c", build], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    archive = tmp_path / "dist" / done.stdout.strip().splitlines()[-1]
    with tarfile.open(archive) as tar:
        packed = {pathlib.PurePosixPath(n) for n in tar.getnames()}
    modules = {p.name for p in packed
               if p.suffix == ".py" and p.parent.parts[-2:] == ("src", "mkt")}
    assert modules == {p.name for p in (ROOT / "src" / "mkt").glob("*.py")}
    assert footprint() == before


def test_installed_setuptools_meets_the_declared_floor():
    """`build_meta` ignores `requires`, so the floor is checked here."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["build-system"]["requires"]
    (floor,) = [r for r in map(Requirement, requires) if r.name == "setuptools"]
    assert Version(setuptools.__version__) in floor.specifier
