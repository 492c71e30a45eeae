import numpy as np
import pytest

from esdscan.channels import ChannelKind, apply_product, kraus_operators
from esdscan.concurrence import (
    IntegrityError,
    XStructureError,
    concurrence,
    concurrence_eig_route,
    spin_flip,
    wootters_spectrum,
    xstate_concurrence,
)
from esdscan.states import mems, werner

from _oracles import xblock_concurrence


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def single_qubit_unitary(theta, phi, lam):
    return np.array(
        [
            [np.cos(theta), -np.exp(1j * lam) * np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), np.exp(1j * (phi + lam)) * np.cos(theta)],
        ],
        dtype=complex,
    )


class TestSpinFlip:
    def test_bell_state_invariant(self):
        rho = bell()
        assert np.max(np.abs(spin_flip(rho) - rho)) < 1e-15

    def test_diagonal_reversal(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.allclose(spin_flip(rho), np.diag([0.4, 0.3, 0.2, 0.1]))

    def test_mems_flip_layout(self):
        # diagonal reverses, corner coherences survive the sign pattern
        g = 0.4
        flipped = spin_flip(mems(g))
        expected = np.diag([1 / 3, 0, 1 / 3, 1 / 3]).astype(complex)
        expected[0, 3] = expected[3, 0] = g / 2
        assert np.allclose(flipped, expected, atol=1e-15)

    def test_hermiticity_preserved(self):
        rho = werner(0.6)
        sf = spin_flip(rho)
        assert np.max(np.abs(sf - sf.conj().T)) < 1e-12


class TestConcurrence:
    def test_bell(self):
        assert concurrence(bell()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4, dtype=complex) / 4) == pytest.approx(0.0, abs=1e-12)

    def test_mems_half(self):
        assert concurrence(mems(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_werner_half(self):
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_spectrum_is_descending_and_traces(self):
        rho = werner(0.73)
        lam = wootters_spectrum(rho)
        assert np.all(np.diff(lam) <= 1e-15)
        product = rho @ spin_flip(rho)
        assert np.sum(lam) == pytest.approx(np.trace(product).real, abs=1e-12)

    def test_local_unitary_invariance(self):
        rho = mems(0.62)
        base = concurrence(rho)
        rng = np.random.default_rng(11)
        for _ in range(8):
            u = single_qubit_unitary(*rng.uniform(0, 2 * np.pi, 3))
            v = single_qubit_unitary(*rng.uniform(0, 2 * np.pi, 3))
            uv = np.kron(u, v)
            assert concurrence(uv @ rho @ uv.conj().T) == pytest.approx(base, abs=1e-9)

    def test_product_states_are_separable(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            bloch = rng.uniform(-1, 1, (2, 3))
            bloch /= np.maximum(1.0, np.linalg.norm(bloch, axis=1))[:, None]
            paulis = np.array(
                [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                dtype=complex,
            )
            qubits = [
                (np.eye(2) + np.einsum("i,ijk->jk", b, paulis)) / 2 for b in bloch
            ]
            assert concurrence(np.kron(qubits[0], qubits[1])) <= 1e-9

    @pytest.mark.parametrize("route", [concurrence, xstate_concurrence],
                             ids=lambda route: route.__name__)
    def test_pathological_input_rejected(self, route):
        rho = np.diag([0.75, 0.75, 0.0, -0.5]).astype(complex)
        with pytest.raises(IntegrityError):
            route(rho)


class TestEigRoute:
    def test_matches_svd_route(self):
        for g in (0.0, 0.2, 0.66, 0.9, 1.0):
            for kind in ChannelKind:
                for s in (0.1, 0.5, 0.85):
                    rho = apply_product(mems(g), kraus_operators(kind, s))
                    a = concurrence(rho)
                    b = concurrence_eig_route(rho)
                    # the direct eigenvalue route loses half its digits on
                    # degenerate zero eigenvalues; 1e-7 reflects that floor
                    assert a == pytest.approx(b, abs=1e-7)

    def test_known_values(self):
        assert concurrence_eig_route(bell()) == pytest.approx(1.0, abs=1e-9)
        assert concurrence_eig_route(mems(0.5)) == pytest.approx(0.5, abs=1e-9)


class TestXStateOracle:
    def test_mems_family(self):
        for g in np.linspace(0, 1, 21):
            assert xstate_concurrence(mems(g)) == pytest.approx(g, abs=1e-12)

    def test_uniform_mixture(self):
        assert xstate_concurrence(np.eye(4, dtype=complex) / 4) == 0.0

    def test_bell(self):
        assert xstate_concurrence(bell()) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_x_input(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = 0.05
        with pytest.raises(XStructureError) as err:
            xstate_concurrence(rho)
        assert err.value.magnitude == pytest.approx(0.05)
        assert err.value.index in ((1, 2), (2, 1))

    def test_matches_wootters_on_evolved_grid(self):
        for kind in ChannelKind:
            gammas = np.linspace(0, 1, 21)[:, None]
            strengths = np.linspace(0, 1, 50)[None, :]
            rho = apply_product(
                mems(gammas + 0 * strengths),
                kraus_operators(kind, strengths + 0 * gammas),
            )
            dev = np.abs(concurrence(rho) - xstate_concurrence(rho))
            assert float(np.max(dev)) < 1e-9

    def test_matches_block_oracle(self):
        rho = apply_product(mems(0.81), kraus_operators(ChannelKind.BIT_FLIP, 0.3))
        assert concurrence(rho) == pytest.approx(xblock_concurrence(rho), abs=1e-12)
