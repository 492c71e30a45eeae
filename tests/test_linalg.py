"""The test oracles in ``_oracles``: the quartic eigenvalue solvers, and the
sigma_y x sigma_y the package's Wootters route uses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import EIG_TOL, SPIN_FLIP_YY, SolverError, charpoly4, durand_kerner, eig4

I4 = np.eye(4, dtype=complex)
finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)


def cmatrices(n):
    return st.tuples(
        arrays(float, (n, n), elements=finite),
        arrays(float, (n, n), elements=finite),
    ).map(lambda ab: ab[0] + 1j * ab[1])


def test_spin_flip_yy_antidiagonal():
    # expanding sigma_y (x) sigma_y by hand: antidiagonal (-1, +1, +1, -1)
    from esdscan.concurrence import SPIN_FLIP_YY as yy

    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = -1
    expected[1, 2] = expected[2, 1] = 1
    assert np.allclose(yy, expected, atol=1e-15)


def test_eig4_diag():
    lam = np.sort(eig4(np.diag([1.0, 2.0, 3.0, 4.0])).real)
    assert np.allclose(lam, [1, 2, 3, 4], atol=EIG_TOL)


def test_eig4_identity_degenerate():
    lam = eig4(I4)
    assert np.allclose(lam, 1.0, atol=EIG_TOL)


def test_eig4_mems_product():
    # rho rho~ for the gamma = 0.2 mixed state has eigenvalues
    # (1/3 +- 1/10)^2 and a double zero
    from esdscan.states import mems

    rho = mems(0.2)
    lam = np.sort(eig4(rho @ SPIN_FLIP_YY @ rho.conj() @ SPIN_FLIP_YY).real)
    assert np.allclose(lam, [0.0, 0.0, (7 / 30) ** 2, (13 / 30) ** 2], atol=1e-9)
    assert lam == pytest.approx([0, 0, 0.054444, 0.187778], abs=1e-6)


@settings(max_examples=50)
@given(cmatrices(4))
def test_eig4_vieta_trace(m):
    assert abs(np.sum(eig4(m)) - np.trace(m)) < 1e-9


@settings(max_examples=50)
@given(cmatrices(4))
def test_eig4_hermitian_real(m):
    h = (m + m.conj().T) / 2
    lam = eig4(h)
    assert np.max(np.abs(lam.imag)) < 1e-10
    assert abs(np.sum(lam.real) - np.trace(h).real) < 1e-10


def test_charpoly4_known():
    coeffs = charpoly4(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(coeffs.real, [1, -10, 35, -50, 24], atol=1e-12)
    assert np.allclose(coeffs.imag, 0, atol=1e-12)


class TestDurandKerner:
    def test_known_quartic(self):
        roots = np.sort(durand_kerner(np.array([1, -10, 35, -50, 24.0])).real)
        assert np.allclose(roots, [1, 2, 3, 4], atol=1e-12)

    def test_quadruple_root_stalls_honestly(self):
        # Horner noise exceeds (x-1)^4 once |x-1| < ~ulp^(1/4), so the
        # movement criterion can never trigger on a quadruple root; the
        # iteration must report failure with a tiny residual rather than
        # return silently inaccurate roots. (eig4 handles this case exactly.)
        with pytest.raises(SolverError) as err:
            durand_kerner(charpoly4(I4))
        assert err.value.residual < 1e-12
        assert np.allclose(eig4(I4), 1.0, atol=EIG_TOL)

    def test_trailing_zero_deflation(self):
        # x^4 - x^3 = x^3 (x - 1): the triple zero root must be exact
        roots = np.sort_complex(durand_kerner(np.array([1.0, -1.0, 0.0, 0.0, 0.0])))
        assert np.count_nonzero(roots == 0) == 3
        assert abs(roots[-1] - 1.0) < 1e-13

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(SolverError) as err:
            durand_kerner(np.array([1, -10, 35, -50, 24.0]), max_iter=1)
        assert err.value.residual is not None
        assert err.value.residual > 0

    @settings(max_examples=30)
    @given(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=4,
            max_size=4,
            unique_by=lambda x: round(x, 1),
        )
    )
    # steps here settle at 2-4e-14, above an absolute 1e-14 move threshold
    @example([0.0, 1.5, 1.25, 1.375])
    def test_matches_eig4_on_separated_spectra(self, diag):
        if min(abs(a - b) for i, a in enumerate(diag) for b in diag[i + 1:]) < 0.05:
            return
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = q @ np.diag(diag).astype(complex) @ q.conj().T
        dk = np.sort(durand_kerner(charpoly4(m)).real)
        ev = np.sort(eig4(m).real)
        assert np.allclose(dk, ev, atol=1e-9)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            durand_kerner(np.array([0.0, 1.0, 2.0]))


def test_eig4_rejects_nonfinite():
    bad = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        eig4(bad)
