"""The public surface: ``__all__`` lists exactly what the package imports, the
package holds its six modules, and the console script names a callable that
returns the exit code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import esdscan

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_all_names_every_import_and_the_version():
    tree = ast.parse(Path(esdscan.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(esdscan.__all__) == sorted(["__version__", *imported])
    assert len(esdscan.__all__) == 26


def test_the_package_holds_six_modules():
    names = {info.name for info in pkgutil.iter_modules(esdscan.__path__)}
    assert names == {"channels", "cli", "concurrence", "spectra", "states", "zonescan"}


@pytest.mark.parametrize("argv, code", [
    (["compare-states", "--steps", "3", "--no-manifest"], 0),
    (["zones", "--channel", "bitflip", "--gamma", "0.2", "--steps", "1"], 1),
    (["verify-spectra", "--channel", "depolarizing", "--gamma-steps", "3", "--steps", "3",
      "--no-manifest"], 2),
], ids=["ok", "usage", "discrepancies"])
def test_console_script_returns_the_exit_code(argv, code):
    # the installed wrapper runs sys.exit(target()), so the target must return the code
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]["esdscan"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr)(argv) == code
