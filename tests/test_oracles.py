"""The test oracles in ``_oracles``: their independence from the package, the
sigma_y x sigma_y the package's Wootters route uses, and one analytic spectrum
that both concurrence routes must reproduce."""

import ast
from pathlib import Path

import numpy as np
import pytest

from esdscan.concurrence import wootters_sigmas
from esdscan.states import mems

from _oracles import concurrence_eig_route


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported, "the scan found no imports at all"
    assert not {name for name in imported if name.split(".")[0] == "esdscan"}


def test_spin_flip_yy_antidiagonal():
    # expanding sigma_y (x) sigma_y by hand: antidiagonal (-1, +1, +1, -1)
    from esdscan.concurrence import SPIN_FLIP_YY as yy

    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = -1
    expected[1, 2] = expected[2, 1] = 1
    assert np.allclose(yy, expected, atol=1e-15)


def test_mems_product_spectrum():
    # rho rho~ for the gamma = 0.2 mixed state has eigenvalues
    # (1/3 +- 1/10)^2 and a double zero, so C = 13/30 - 7/30 = 1/5
    rho = mems(0.2)
    spectrum = [(13 / 30) ** 2, (7 / 30) ** 2, 0.0, 0.0]
    assert np.allclose(wootters_sigmas(rho) ** 2, spectrum, rtol=0, atol=1e-15)
    assert concurrence_eig_route(rho) == pytest.approx(13 / 30 - 7 / 30, abs=1e-12)
