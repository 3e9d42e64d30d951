"""The packaging contract in ``pyproject.toml``."""

from __future__ import annotations

import pathlib

try:
    import tomllib
except ImportError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_pyproject_declares_numpy_and_the_src_layout():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    project = config["project"]
    assert project["name"] == "repro"
    assert project["requires-python"] == ">=3.10"
    assert project["dependencies"] == ["numpy"]
    assert "version" in project["dynamic"]
    setuptools = config["tool"]["setuptools"]
    assert setuptools["dynamic"]["version"] == {"attr": "repro.__version__"}
    assert setuptools["packages"]["find"]["where"] == ["src"]
    assert (ROOT / "src" / "repro" / "__init__.py").exists()
    assert repro.__version__
