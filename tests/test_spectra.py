import numpy as np
import pytest

from esdscan.channels import ChannelKind
from esdscan.spectra import (
    DiscrepancyRecord,
    FormulaDomainError,
    closed_form_spectrum,
    compare_spectrum,
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


class TestCompare:
    def test_consistent_points_have_no_record(self):
        assert compare_spectrum(ChannelKind.PHASE_DAMPING, 0.3, 0.7) is None
        assert compare_spectrum(ChannelKind.BIT_FLIP, 0.2, 0.5) is None
        for kind in ChannelKind:
            strength = 1.0 if kind.is_flip else 0.0
            assert compare_spectrum(kind, 0.2, strength) is None

    def test_bit_phase_flip_disagrees_where_evaluable(self):
        rec = compare_spectrum(ChannelKind.BIT_PHASE_FLIP, 0.2, 0.5)
        assert isinstance(rec, DiscrepancyRecord)
        assert rec.max_abs_error > 1e-3

    def test_depolarizing_disagrees(self):
        rec = compare_spectrum(ChannelKind.DEPOLARIZING, 0.2, 0.5)
        assert rec is not None and rec.max_abs_error > 1e-3

    def test_unevaluable_cell_gives_inf_record(self):
        rec = compare_spectrum(ChannelKind.BIT_PHASE_FLIP, 0.2, 0.1)
        assert rec is not None and rec.closed_form is None
        assert rec.max_abs_error == np.inf

    def test_above_branch_point_disagrees(self):
        # (p = 0.5 is excluded: there the evolved state is weight-independent
        # and every closed form coincidentally agrees)
        rec = compare_spectrum(ChannelKind.BIT_FLIP, 0.9, 0.3)
        assert rec is not None


def test_bit_phase_flip_formula_domain_error():
    with pytest.raises(FormulaDomainError) as err:
        closed_form_spectrum(ChannelKind.BIT_PHASE_FLIP, 0.2, 0.1)
    assert err.value.kind is ChannelKind.BIT_PHASE_FLIP
    assert err.value.arg < -1e-8


def test_scan_grid_clean_on_consistent_subdomain():
    recs = scan_grid(ChannelKind.AMPLITUDE_DAMPING, CASE1, np.linspace(0, 1, 30))
    assert recs == []


def test_scan_grid_reports_unevaluable_cells_as_inf():
    recs = scan_grid(
        ChannelKind.BIT_PHASE_FLIP, np.array([0.2]), np.linspace(0, 1, 11)
    )
    assert recs, "expected discrepancies"
    infs = [r for r in recs if r.closed_form is None]
    assert infs and all(np.isinf(r.max_abs_error) for r in infs)
    # deterministic (gamma, strength) ordering
    keys = [(r.gamma, r.strength) for r in recs]
    assert keys == sorted(keys)
    # the damping formulas overflow to NaN/inf at large lt: unevaluable, never agreeing
    for kind in (ChannelKind.AMPLITUDE_DAMPING, ChannelKind.PHASE_DAMPING,
                 ChannelKind.DEPOLARIZING):
        recs = scan_grid(kind, np.linspace(0, 1, 3), np.linspace(0, 1000, 3))
        infs = [r for r in recs if r.closed_form is None]
        assert [(r.gamma, r.strength) for r in infs] == [
            (g, s) for g in (0.0, 0.5, 1.0) for s in (500.0, 1000.0)]
        assert all(r.max_abs_error == np.inf for r in infs)


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
