import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdscan.channels import (
    COMPLETENESS_TOL,
    ChannelKind,
    KrausChannel,
    apply_product,
    apply_product_channel,
    check_completeness,
    kraus_operators,
    kraus_set,
)
from esdscan.linalg import HERM_TOL, I2, PAULI_X, dag, kron2
from esdscan.states import mems, validate_density, werner

from _oracles import evolve_ref, kraus_ref, mems_ref

ALL_KINDS = list(ChannelKind)

X_SLOTS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)]


def domain_grid(kind, n):
    return np.linspace(0.0, 1.0, n)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_completeness_across_domain(kind):
    ops = kraus_operators(kind, domain_grid(kind, 50))
    assert check_completeness(ops) <= COMPLETENESS_TOL


def test_completeness_diagnostics():
    assert check_completeness(np.stack([I2, I2])) == pytest.approx(1.0)
    pair = np.stack([np.sqrt(0.3) * I2, np.sqrt(0.7) * PAULI_X])
    assert check_completeness(pair) <= 1e-15


def test_identity_channels_leave_state_alone():
    rho = mems(0.37)
    for channel in (kraus_set(ChannelKind.BIT_FLIP, 1.0),
                    kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.0)):
        out = apply_product_channel(rho, channel)
        assert np.max(np.abs(out - rho)) < 1e-14


def test_full_bit_flip_is_xx_sandwich():
    rho = mems(0.42)
    out = apply_product_channel(rho, kraus_set(ChannelKind.BIT_FLIP, 0.0))
    xx = kron2(PAULI_X, PAULI_X)
    assert np.max(np.abs(out - xx @ rho @ xx)) < 1e-14


def test_phase_damping_scales_corners_only():
    # each qubit damps its coherence by e^-lt, so the corner picks up e^-2lt
    g, lt = 0.3, 0.8
    rho = mems(g)
    out = apply_product_channel(rho, kraus_set(ChannelKind.PHASE_DAMPING, lt))
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-14)
    assert out[0, 3] == pytest.approx(g / 2 * np.exp(-2 * lt), abs=1e-14)


def random_density(rng, shape=()):
    """Full-rank density matrices with every entry populated (not X-states)."""
    a = rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4))
    rho = a @ dag(a) + 0.1 * np.eye(4)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def reference_inputs():
    """MEMS, a Werner state and random full-rank non-X states."""
    rng = np.random.default_rng(11)
    states = [mems_ref(g) for g in (0.2, 0.7, 1.0)] + [werner(0.6)]
    return states + list(random_density(rng, (3,)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_agrees_with_reference_evolution(kind):
    for rho in reference_inputs():
        for s in (0.15, 0.6, 0.97):
            ours = apply_product(rho, kraus_operators(kind, s))
            ref = evolve_ref(rho, kraus_ref(kind.value, s))
            assert np.max(np.abs(ours - ref)) < 1e-14


def test_agrees_with_reference_on_complex_kraus_sets():
    # every built-in Kraus set is real up to phases, which hides a swapped
    # ket/bra slot; a random complex channel does not
    rng = np.random.default_rng(3)
    for n in (1, 3):
        a = rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2))
        ops = np.linalg.qr(a)[0].reshape(n, 2, 2)
        assert check_completeness(ops) <= COMPLETENESS_TOL
        for rho in random_density(rng, (3,)):
            ours = apply_product(rho, ops)
            assert np.max(np.abs(ours - evolve_ref(rho, list(ops)))) < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_broadcasts_states_against_operators(kind):
    rng = np.random.default_rng(5)
    strengths = rng.uniform(0.0, 1.0, 7)
    stacked = random_density(rng, (5,))
    single = random_density(rng)
    paired = apply_product(stacked, kraus_operators(kind, strengths[:5]))
    fanned = apply_product(single, kraus_operators(kind, strengths))
    assert paired.shape == (5, 4, 4) and fanned.shape == (7, 4, 4)
    for rho, s, out in zip(stacked, strengths[:5], paired):
        assert np.max(np.abs(out - evolve_ref(rho, kraus_ref(kind.value, s)))) < 1e-14
    for s, out in zip(strengths, fanned):
        assert np.max(np.abs(out - evolve_ref(single, kraus_ref(kind.value, s)))) < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_evolution_preserves_state_invariants(kind):
    gammas = np.linspace(0, 1, 21)[:, None]
    strengths = np.linspace(0, 1, 50)[None, :]
    rho = apply_product(mems(gammas + 0 * strengths),
                        kraus_operators(kind, strengths + 0 * gammas))
    traces = np.trace(rho, axis1=-2, axis2=-1)
    assert np.max(np.abs(traces - 1)) < 1e-12
    assert np.max(np.abs(rho - dag(rho))) < HERM_TOL
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_evolution_preserves_x_structure(kind):
    gammas = np.linspace(0, 1, 21)[:, None]
    strengths = np.linspace(0, 1, 50)[None, :]
    rho = apply_product(mems(gammas + 0 * strengths),
                        kraus_operators(kind, strengths + 0 * gammas))
    mask = np.ones((4, 4), dtype=bool)
    for i, j in X_SLOTS:
        mask[i, j] = False
    assert np.max(np.abs(rho[..., mask])) < 1e-13


def test_phase_damping_semigroup():
    rho = mems(0.55)
    a, b = 0.35, 0.9
    step1 = apply_product(rho, kraus_operators(ChannelKind.PHASE_DAMPING, a))
    step2 = apply_product(step1, kraus_operators(ChannelKind.PHASE_DAMPING, b))
    joint = apply_product(rho, kraus_operators(ChannelKind.PHASE_DAMPING, a + b))
    assert np.max(np.abs(step2 - joint)) < 1e-12


@settings(max_examples=60)
@given(
    kind=st.sampled_from(ALL_KINDS),
    strength=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_completeness_property(kind, strength):
    assert check_completeness(kraus_operators(kind, strength)) <= COMPLETENESS_TOL


@pytest.mark.parametrize("kind,bad", [
    (ChannelKind.BIT_FLIP, -0.01),
    (ChannelKind.PHASE_FLIP, 1.01),
    (ChannelKind.BIT_PHASE_FLIP, np.nan),
    (ChannelKind.AMPLITUDE_DAMPING, -0.5),
    (ChannelKind.DEPOLARIZING, np.inf),
])
def test_strength_domain_errors(kind, bad):
    with pytest.raises(ValueError):
        kraus_set(kind, bad)


def test_kraus_channel_enforces_completeness():
    with pytest.raises(ValueError):
        KrausChannel(kind=ChannelKind.BIT_FLIP, strength=0.5,
                     operators=np.stack([I2, I2]))


def test_apply_product_channel_output_validates():
    out = apply_product_channel(mems(0.8), kraus_set(ChannelKind.DEPOLARIZING, 0.3))
    validate_density(out)


def test_operator_counts():
    assert kraus_set(ChannelKind.BIT_FLIP, 0.2).operators.shape == (2, 2, 2)
    assert kraus_set(ChannelKind.PHASE_DAMPING, 0.2).operators.shape == (3, 2, 2)
    assert kraus_set(ChannelKind.DEPOLARIZING, 0.2).operators.shape == (4, 2, 2)
