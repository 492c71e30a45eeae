import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdscan.channels import (
    COMPLETENESS_TOL,
    I2,
    PAULI_X,
    ChannelKind,
    apply_product,
    apply_product_channel,
    check_completeness,
    kraus_operators,
    kraus_set,
)
from esdscan.states import mems, validate_density, werner

from _oracles import evolve_ref, kraus_ref, mems_ref

ALL_KINDS = list(ChannelKind)

X_SLOTS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)]


def domain_grid(kind, n):
    grid = np.linspace(0.0, 1.0, n)
    # damping exponents reach far past 1: eta = e^-lt is subnormal at 745 and 0 at 1e300
    return grid if kind.is_flip else np.concatenate([grid, [50.0, 745.0, 1e300]])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_completeness_across_domain(kind):
    ops = kraus_operators(kind, domain_grid(kind, 50))
    assert check_completeness(ops) <= COMPLETENESS_TOL


def _same_bits(a, b):
    """Equal values and equal zero signs, entry by entry."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float))))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kraus_operators_are_the_textbook_sets(kind):
    far_end = 1.0 if kind.is_flip else 1e300  # p = 1; eta = 0
    for s in (0.0, 0.3, far_end):
        ours = kraus_operators(kind, s)
        assert ours.dtype == complex
        assert _same_bits(ours, np.stack(kraus_ref(kind.value, s)))
    grid = np.linspace(0.0, 1.0, 63).reshape(7, 9)
    stacked = kraus_operators(kind, grid)
    assert stacked.shape[:2] == (7, 9)
    for idx in np.ndindex(7, 9):
        assert _same_bits(stacked[idx], np.stack(kraus_ref(kind.value, grid[idx])))


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
    xx = np.kron(PAULI_X, PAULI_X)
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
    rho = a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(4)
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


def complex_kraus_sets(rng, n, stack=()):
    """Random complete complex Kraus sets of n operators, shape stack + (n, 2, 2)."""
    a = rng.normal(size=stack + (2 * n, 2)) + 1j * rng.normal(size=stack + (2 * n, 2))
    return np.linalg.qr(a)[0].reshape(stack + (n, 2, 2))


def test_agrees_with_reference_on_complex_kraus_sets():
    # every built-in Kraus set is real up to phases, which hides a swapped
    # ket/bra slot; a random complex channel does not
    rng = np.random.default_rng(3)
    for n in (1, 3):
        ops = complex_kraus_sets(rng, n)
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


@pytest.mark.parametrize("kind", ALL_KINDS + ["complex"])
def test_single_state_route_is_the_stacked_route_bit_for_bit(kind):
    # a single state broadcast against an operator stack gives the same bits
    # as copies of it stacked to the operators' shape
    rng = np.random.default_rng(17)
    single = random_density(rng)
    for stack in ((1,), (7,), (2001,), (3, 5)):
        if kind == "complex":
            ops = complex_kraus_sets(rng, 3, stack)
        else:
            ops = kraus_operators(kind, rng.uniform(0.0, 1.0, stack))
        stacked = np.broadcast_to(single, stack + (4, 4)).copy()
        assert _same_bits(apply_product(single, ops), apply_product(stacked, ops))


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


COMPOSE_TOL = 1e-14
# single states broadcast against the operators, a stack of three pairs with them
COMPOSE_STATES = [mems(0.55), random_density(np.random.default_rng(23)),
                  random_density(np.random.default_rng(29), (3,))]


def _composes(kind, first, second, joint):
    for rho in COMPOSE_STATES:
        twice = apply_product(apply_product(rho, kraus_operators(kind, first)),
                              kraus_operators(kind, second))
        once = apply_product(rho, kraus_operators(kind, joint))
        assert np.max(np.abs(twice - once)) < COMPOSE_TOL


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([k for k in ALL_KINDS if k.is_flip]),
       p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_flip_channels_compose(kind, p1, p2):
    _composes(kind, p1, p2, p1 * p2 + (1 - p1) * (1 - p2))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([ChannelKind.AMPLITUDE_DAMPING, ChannelKind.PHASE_DAMPING]),
       a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
@example(kind=ChannelKind.PHASE_DAMPING, a=0.35, b=0.9)
def test_damping_channels_are_semigroups(kind, a, b):
    _composes(kind, a, b, a + b)


def test_depolarizing_overshoots_past_ln4():
    # each qubit's Bloch vector shrinks by (4 eta - 1)/3, which is 0 at lt = ln 4
    # and negative beyond, so the corner of mems(1) is ((4 eta - 1)/3)^2 / 2
    def corner(*lts):
        rho = mems(1.0)
        for lt in lts:
            rho = apply_product(rho, kraus_operators(ChannelKind.DEPOLARIZING, lt))
        return rho[0, 3]

    for lt in (0.3, np.log(4), 2.0, 20.0):
        assert abs(corner(lt) - ((4 * np.exp(-lt) - 1) / 3) ** 2 / 2) < 1e-15
    assert abs(corner(np.log(4))) < 1e-15
    assert abs(corner(20.0) - 1 / 18) < 1e-8  # 1/18 - 4 eta / 9 to first order, eta = 2e-9
    # not a semigroup: two steps of ln 4 do not make one step of 2 ln 4
    assert abs(corner(np.log(4), np.log(4))) < 1e-15
    assert abs(corner(2 * np.log(4)) - 1 / 32) < 1e-15


@settings(max_examples=60)
@given(
    kind=st.sampled_from(ALL_KINDS),
    strength=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_completeness_property(kind, strength):
    assert check_completeness(kraus_operators(kind, strength)) <= COMPLETENESS_TOL


def test_apply_product_channel_output_validates():
    out = apply_product_channel(mems(0.8), kraus_set(ChannelKind.DEPOLARIZING, 0.3))
    validate_density(out)
