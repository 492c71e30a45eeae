import numpy as np
import pytest

from esdscan.channels import (
    ChannelKind,
    apply_product,
    apply_product_channel,
    kraus_operators,
    kraus_set,
)
from esdscan.concurrence import (
    IntegrityError,
    XStructureError,
    concurrence,
    wootters_sigmas,
    xstate_concurrence,
)
from esdscan.states import mems, werner

from _oracles import SPIN_FLIP_YY, concurrence_eig_route, xblock_concurrence


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


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
        lam = wootters_sigmas(rho) ** 2
        assert np.all(np.diff(lam) <= 1e-15)
        product = rho @ SPIN_FLIP_YY @ rho.conj() @ SPIN_FLIP_YY
        assert np.sum(lam) == pytest.approx(np.trace(product).real, abs=1e-12)

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


def haar_unitaries(rng, n):
    """``n`` Haar-random 2x2 unitaries: QR of complex Gaussian matrices, phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    d = r.diagonal(0, -2, -1)
    return q * (d / abs(d))[..., None, :]


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_local_unitaries_keep_concurrence_and_break_x_structure(kind):
    """Product unitaries U1 x U2 keep the concurrence of an evolved MEMS and break its X."""
    rng = np.random.default_rng(19)
    gammas = np.array([0.25, 0.5, 0.75, 1.0])[:, None]
    strengths = np.array([0.1, 0.35, 0.6, 0.9])
    evolved = apply_product(mems(gammas + 0 * strengths),
                            kraus_operators(kind, strengths + 0 * gammas)).reshape(16, 1, 4, 4)
    u1, u2 = haar_unitaries(rng, 80), haar_unitaries(rng, 80)
    u = np.einsum("nij,nkl->nikjl", u1, u2).reshape(16, 5, 4, 4)  # U1 x U2, 5 per state
    rotated = u @ evolved @ u.conj().swapaxes(-1, -2)
    assert np.max(np.abs(concurrence(rotated) - concurrence(evolved))) <= 1e-12
    for rho in rotated.reshape(-1, 4, 4):
        with pytest.raises(XStructureError):
            xstate_concurrence(rho)


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

    def test_matches_block_oracle(self):
        rho = apply_product(mems(0.81), kraus_operators(ChannelKind.BIT_FLIP, 0.3))
        assert concurrence(rho) == pytest.approx(xblock_concurrence(rho), abs=1e-12)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_single_state_query_is_a_row_of_the_stacked_route(kind):
    """One code path: a one-state query returns row i of the stacked call, bit for bit."""
    rng = np.random.default_rng(7)
    gammas = rng.uniform(0.0, 1.0, 40)
    strengths = rng.uniform(0.0, 1.0 if kind.is_flip else 3.0, 40)
    stacked = apply_product(mems(gammas), kraus_operators(kind, strengths))
    wootters, closed_form = concurrence(stacked), xstate_concurrence(stacked)
    for i, (g, s) in enumerate(zip(gammas.tolist(), strengths.tolist())):
        rho = apply_product_channel(mems(g), kraus_set(kind, s))
        assert (rho == stacked[i]).all()
        assert concurrence(rho) == wootters[i]
        assert xstate_concurrence(rho) == closed_form[i]


# A float64 stack is scored as it is, with no complex copy: the same bits and errors.

def _real_x_states(rng, n):
    """n random real X-states: Dirichlet populations, coherences up to their bound."""
    d = rng.dirichlet(np.ones(4), n)
    d[range(n // 4), rng.integers(0, 4, n // 4)] = 0.0  # some exactly zero populations
    d /= d.sum(axis=-1, keepdims=True)
    rho = np.zeros((n, 4, 4))
    rho[:, range(4), range(4)] = d
    for i, j in ((0, 3), (1, 2)):
        rho[:, i, j] = rho[:, j, i] = rng.uniform(-1, 1, n) * np.sqrt(d[:, i] * d[:, j])
    return np.concatenate([rho, mems(np.linspace(0.0, 1.0, 65)).real])


def test_real_stack_scores_as_its_complex_copy():
    rho = _real_x_states(np.random.default_rng(17), 2000)
    got = xstate_concurrence(rho)
    assert got.dtype == np.float64
    assert got.tobytes() == xstate_concurrence(rho.astype(complex)).tobytes()
    one = xstate_concurrence(rho[5])
    assert type(one) is float and one == xstate_concurrence(rho[5].astype(complex))


def _failure(rho):
    with pytest.raises((XStructureError, IntegrityError, ValueError)) as err:
        xstate_concurrence(rho)
    return type(err.value), str(err.value), getattr(err.value, "magnitude", None), \
        getattr(err.value, "index", None)


@pytest.mark.parametrize("index, value", [
    ((7, 0, 1), 3e-12),  # off the X: XStructureError with the entry's magnitude and index
    ((2, 2, 0), -2e-12),
    ((4, 0, 3), 0.9),  # a coherence past its block's bound: IntegrityError
    ((1, 1, 1), np.nan),  # non-finite entries
    ((3, 0, 2), np.inf),
    ((0, 3, 3), -np.inf),
], ids=["x-structure", "x-structure-negative", "integrity", "nan", "inf", "minus-inf"])
def test_real_stack_is_rejected_as_its_complex_copy(index, value):
    rho = _real_x_states(np.random.default_rng(19), 8)
    rho[index] = value
    if index[1:] == (0, 3):
        rho[index[0], 3, 0] = value
    got = _failure(rho)
    assert got == _failure(rho.astype(complex))
    assert got[0] is {3e-12: XStructureError, -2e-12: XStructureError,
                      0.9: IntegrityError}.get(value, ValueError)
