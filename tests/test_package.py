"""The public surface: ``__all__`` lists exactly what the package imports."""

import ast
from pathlib import Path

import esdscan


def test_all_names_every_import_and_the_version():
    tree = ast.parse(Path(esdscan.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(esdscan.__all__) == sorted(["__version__", *imported])
    assert len(esdscan.__all__) == 31
