import numpy as np
import pytest

from esdscan.channels import ChannelKind
from esdscan.spectra import (
    FormulaDomainError,
    closed_form_spectrum,
    concurrence_from_spectrum,
    numeric_spectrum,
    scan_grid,
)

from _oracles import evolve_ref, kraus_ref, mems_ref, xblock_spectrum

CONSISTENT = (
    ChannelKind.BIT_FLIP,
    ChannelKind.PHASE_FLIP,
    ChannelKind.AMPLITUDE_DAMPING,
    ChannelKind.PHASE_DAMPING,
)
CASE1 = np.linspace(0.0, 2 / 3, 24)


def test_bitflip_midpoint_cancellation():
    lam = np.sort(closed_form_spectrum(ChannelKind.BIT_FLIP, 0.2, 0.5))
    assert np.allclose(lam, [0.04, 0.04, 0.09, 0.09], atol=1e-12)
    roots = np.sort(np.sqrt(lam))[::-1]
    assert np.allclose(roots, [0.3, 0.3, 0.2, 0.2], atol=1e-12)
    assert concurrence_from_spectrum(lam) == 0.0


def test_phaseflip_at_zero_strength():
    g = 0.44
    lam = np.sort(closed_form_spectrum(ChannelKind.PHASE_FLIP, g, 0.0))
    expected = np.sort([0, 0, (2 - 3 * g) ** 2 / 36, (3 * g + 2) ** 2 / 36])
    assert np.allclose(lam, expected, atol=1e-15)
    assert concurrence_from_spectrum(lam) == pytest.approx(g, abs=1e-12)


def test_phase_damping_analytic_concurrence():
    c = concurrence_from_spectrum(
        closed_form_spectrum(ChannelKind.PHASE_DAMPING, 0.2, 0.5)
    )
    assert c == pytest.approx(0.2 * np.exp(-1.0), abs=1e-12)
    assert c == pytest.approx(0.0735759, abs=1e-7)


def test_concurrence_from_spectrum_examples():
    assert concurrence_from_spectrum([1, 0, 0, 0]) == pytest.approx(1.0)
    assert concurrence_from_spectrum([0.25, 0.25, 0, 0]) == 0.0
    undisturbed = [(13 / 30) ** 2, (7 / 30) ** 2, 0, 0]
    assert concurrence_from_spectrum(undisturbed) == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_identity_strength_restores_gamma(kind):
    strength = 1.0 if kind.is_flip else 0.0
    for g in CASE1:
        c = concurrence_from_spectrum(closed_form_spectrum(kind, g, strength))
        assert c == pytest.approx(g, abs=1e-10)
        c_num = concurrence_from_spectrum(numeric_spectrum(kind, g, strength))
        assert c_num == pytest.approx(g, abs=1e-10)


@pytest.mark.parametrize("kind", [ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP])
def test_flip_spectra_symmetric_in_p(kind):
    for g in (0.1, 0.45, 0.62):
        for p in (0.4, 0.45, 0.5):  # both p and 1-p inside the formula domain
            a = np.sort(closed_form_spectrum(kind, g, p))
            b = np.sort(closed_form_spectrum(kind, g, 1.0 - p))
            assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("kind", CONSISTENT)
def test_closed_form_matches_pipeline_below_branch_point(kind):
    strengths = np.linspace(0, 1, 40)
    for g in CASE1:
        closed = np.sort(closed_form_spectrum(kind, g, strengths), axis=-1)
        numeric = np.sort(numeric_spectrum(kind, g, strengths), axis=-1)
        assert np.max(np.abs(closed - numeric)) < 1e-10


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_numeric_spectrum_sums_to_trace(kind):
    for g in (0.0, 0.3, 0.8, 1.0):
        for s in (0.2, 0.9):
            lam = numeric_spectrum(kind, g, s)
            rho = evolve_ref(mems_ref(g), kraus_ref(kind.value, s))
            yy = np.zeros((4, 4))
            yy[0, 3] = yy[3, 0] = -1
            yy[1, 2] = yy[2, 1] = 1
            product = rho @ (yy @ rho.conj() @ yy)
            assert np.sum(lam) == pytest.approx(np.trace(product).real, abs=1e-9)


@pytest.mark.parametrize("kind", CONSISTENT)
def test_closed_form_sums_to_trace_below_branch_point(kind):
    for g in (0.1, 0.5, 0.65):
        for s in (0.25, 0.75):
            lam = closed_form_spectrum(kind, g, s)
            rho = evolve_ref(mems_ref(g), kraus_ref(kind.value, s))
            yy = np.zeros((4, 4))
            yy[0, 3] = yy[3, 0] = -1
            yy[1, 2] = yy[2, 1] = 1
            product = rho @ (yy @ rho.conj() @ yy)
            assert np.sum(lam) == pytest.approx(np.trace(product).real, abs=1e-9)


def test_numeric_spectrum_matches_block_oracle():
    for kind in ChannelKind:
        for g in (0.15, 0.66, 0.92):
            for s in (0.1, 0.55, 1.0):
                lam = numeric_spectrum(kind, g, s)
                ref = xblock_spectrum(evolve_ref(mems_ref(g), kraus_ref(kind.value, s)))
                assert np.max(np.abs(lam - ref)) < 1e-10


# the columns of a scan_grid row
GAMMA, STRENGTH, ERR, CF, NUM = 0, 1, 2, slice(3, 7), slice(7, 11)


def unevaluable(recs):
    """The rows whose closed-form columns are all NaN."""
    return recs[np.isnan(recs[:, CF]).all(axis=1)]


class TestCompare:
    def test_consistent_points_have_no_record(self):
        assert scan_grid(ChannelKind.PHASE_DAMPING, [0.3], [0.7]).shape == (0, 11)
        assert scan_grid(ChannelKind.BIT_FLIP, [0.2], [0.5]).shape == (0, 11)
        for kind in ChannelKind:
            strength = 1.0 if kind.is_flip else 0.0
            assert scan_grid(kind, [0.2], [strength]).shape == (0, 11)

    def test_bit_phase_flip_disagrees_where_evaluable(self):
        recs = scan_grid(ChannelKind.BIT_PHASE_FLIP, [0.2], [0.5])
        assert recs.dtype == np.float64 and recs.shape == (1, 11)
        [rec] = recs
        assert rec[ERR] > 1e-3
        assert np.all(np.isfinite(rec[CF]))

    def test_depolarizing_disagrees(self):
        [rec] = scan_grid(ChannelKind.DEPOLARIZING, [0.2], [0.5])
        assert rec[ERR] > 1e-3

    def test_unevaluable_cell_gives_inf_record(self):
        [rec] = scan_grid(ChannelKind.BIT_PHASE_FLIP, [0.2], [0.1])
        assert np.all(np.isnan(rec[CF]))
        assert rec[ERR] == np.inf
        assert rec[[GAMMA, STRENGTH]].tolist() == [0.2, 0.1]
        assert np.all(np.isfinite(rec[NUM]))

    def test_above_branch_point_disagrees(self):
        # (p = 0.5 is excluded: there the evolved state is weight-independent
        # and every closed form coincidentally agrees)
        assert len(scan_grid(ChannelKind.BIT_FLIP, [0.9], [0.3])) == 1


def test_bit_phase_flip_formula_domain_error():
    with pytest.raises(FormulaDomainError) as err:
        closed_form_spectrum(ChannelKind.BIT_PHASE_FLIP, 0.2, 0.1)
    assert err.value.kind is ChannelKind.BIT_PHASE_FLIP
    assert err.value.arg < -1e-8


def test_scan_grid_clean_on_consistent_subdomain():
    recs = scan_grid(ChannelKind.AMPLITUDE_DAMPING, CASE1, np.linspace(0, 1, 30))
    assert recs.shape == (0, 11)


def test_scan_grid_reports_unevaluable_cells_as_inf():
    recs = scan_grid(
        ChannelKind.BIT_PHASE_FLIP, np.array([0.2]), np.linspace(0, 1, 11)
    )
    assert len(recs), "expected discrepancies"
    infs = unevaluable(recs)
    assert len(infs) and np.all(np.isinf(infs[:, ERR]))
    # a NaN closed-form column marks exactly the rows with an infinite error
    assert np.array_equal(np.isnan(recs[:, CF]).any(axis=1), np.isinf(recs[:, ERR]))
    # deterministic (gamma, strength) ordering
    keys = recs[:, [GAMMA, STRENGTH]].tolist()
    assert keys == sorted(keys)
    # the damping formulas overflow to NaN/inf at large lt: unevaluable, never agreeing
    for kind in (ChannelKind.AMPLITUDE_DAMPING, ChannelKind.PHASE_DAMPING,
                 ChannelKind.DEPOLARIZING):
        recs = scan_grid(kind, np.linspace(0, 1, 3), np.linspace(0, 1000, 3))
        infs = unevaluable(recs)
        assert infs[:, [GAMMA, STRENGTH]].tolist() == [
            [g, s] for g in (0.0, 0.5, 1.0) for s in (500.0, 1000.0)]
        assert np.all(infs[:, ERR] == np.inf)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_axis_grids_equal_materialised_grids(kind):
    # scan_grid passes a gamma column and a strength row; the spectra must be the
    # same arrays, bit for bit, as on the broadcast (gamma, strength) grids
    g = np.linspace(0.0, 1.0, 13)
    for spectrum, s in ((numeric_spectrum, np.linspace(0.0, 1.0, 9)),
                        # inside every closed form's domain, bit-phase flip's too
                        (closed_form_spectrum, np.linspace(0.35, 0.65, 7))):
        gg, ss = np.broadcast_arrays(g[:, None], s)
        assert np.array_equal(spectrum(kind, g[:, None], s), spectrum(kind, gg, ss))


def test_gamma_domain_checked():
    with pytest.raises(ValueError):
        closed_form_spectrum(ChannelKind.BIT_FLIP, 1.2, 0.5)
    # a domain error, not a formula failure: the exact type is ValueError
    for kind, gamma, strength in [
        (ChannelKind.BIT_FLIP, np.nan, 0.5),
        (ChannelKind.BIT_FLIP, 0.5, 1.5),
        (ChannelKind.AMPLITUDE_DAMPING, 0.5, -0.5),
    ]:
        with pytest.raises(ValueError) as err:
            closed_form_spectrum(kind, gamma, strength)
        assert type(err.value) is ValueError
