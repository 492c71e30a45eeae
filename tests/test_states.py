import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdscan.concurrence import concurrence
from esdscan.states import mems, validate_density, werner

gammas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_mems_zero_gamma_separable():
    m = mems(0.0)
    assert np.allclose(m, np.diag([1 / 3, 1 / 3, 0, 1 / 3]))
    assert concurrence(m) == pytest.approx(0.0, abs=1e-12)


def test_mems_gamma_one_is_bell_projector():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert np.allclose(mems(1.0), np.outer(bell, bell.conj()))
    assert concurrence(mems(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_mems_branch_point_continuous():
    # both branches of the diagonal weight give 1/3 at gamma = 2/3
    m = mems(2 / 3)
    assert m[0, 0] == pytest.approx(1 / 3, abs=1e-15)
    explicit = np.diag([1 / 3, 1 / 3, 0, 1 / 3]).astype(complex)
    explicit[0, 3] = explicit[3, 0] = 1 / 3
    assert np.allclose(m, explicit, atol=1e-15)


def test_werner_limits():
    assert np.allclose(werner(0.0), np.eye(4) / 4)
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(werner(1.0), np.outer(psi, psi.conj()))
    assert concurrence(werner(1 / 3)) == pytest.approx(0.0, abs=1e-9)


@given(gammas)
def test_constructors_always_valid(g):
    validate_density(mems(g))
    validate_density(werner(g))
