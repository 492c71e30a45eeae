import sys

import numpy as np
import pytest

from esdscan.channels import ChannelKind, apply_product, kraus_operators
from esdscan.cli import main
from esdscan.concurrence import xstate_concurrence
from esdscan.states import mems
from esdscan.spectra import closed_form_spectrum, concurrence_from_spectrum, scan_grid
from esdscan.zonescan import (
    ZERO_TOL,
    SweepConfig,
    Zone,
    _concurrence_at,
    find_zones,
    sample_curve,
)

from _oracles import amplitude_damping_death, zones_ref
from conftest import load_script


def cfg(kind, gamma, **kw):
    return SweepConfig(kind=kind, gamma=gamma, **kw)


class TestConfig:
    def test_has_no_engine(self):
        # zones come from the Kraus evolution alone
        with pytest.raises(TypeError, match="engine"):
            cfg(ChannelKind.BIT_FLIP, 0.5, engine="numeric")
        # and the dead threshold and the spectrum tolerance are constants, not arguments
        with pytest.raises(TypeError, match="zero_tol"):
            cfg(ChannelKind.BIT_FLIP, 0.2, zero_tol=ZERO_TOL)
        with pytest.raises(TypeError, match="tol"):
            scan_grid(ChannelKind.BIT_FLIP, [0.2], [0.1], tol=1e-8)

    def test_damping_domain_extends_past_one(self):
        c = cfg(ChannelKind.AMPLITUDE_DAMPING, 0.5, strength_max=3.0, grid_points=11)
        strengths, _ = sample_curve(c)
        assert strengths[-1] == pytest.approx(3.0)


class TestSampleCurve:
    def test_monotone_strengths_and_bounded_concurrence(self):
        strengths, c = sample_curve(cfg(ChannelKind.DEPOLARIZING, 0.6, grid_points=101))
        assert np.all(np.diff(strengths) > 0)
        assert np.all((c >= 0) & (c <= 1))

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_identity_endpoint_gives_gamma(self, kind):
        g = 0.4
        _, c = sample_curve(cfg(kind, g, grid_points=51))
        undisturbed = c[-1] if kind.is_flip else c[0]
        assert undisturbed == pytest.approx(g, abs=1e-9)

    def test_bit_flip_curve_symmetric(self):
        _, c = sample_curve(cfg(ChannelKind.BIT_FLIP, 0.2, grid_points=201))
        assert np.max(np.abs(c - c[::-1])) < 1e-9

    def test_samples_property(self):
        strengths, c = sample_curve(cfg(ChannelKind.PHASE_DAMPING, 0.2, grid_points=5))
        assert len(strengths) == len(c) == 5
        assert strengths[0] == 0.0


# endpoints computed independently during development with an explicit
# kron-loop pipeline and 60-step bisection at ZERO_TOL = 1e-9
FROZEN_ZONES = {
    (ChannelKind.BIT_FLIP, 0.2): (0.039293, 0.960707),
    (ChannelKind.BIT_FLIP, 0.4): (0.120646, 0.879354),
    (ChannelKind.BIT_FLIP, 0.66): (0.238965, 0.761035),
    (ChannelKind.BIT_FLIP, 0.866): (0.356915, 0.643085),
    (ChannelKind.BIT_FLIP, 0.9666): (0.433743, 0.566257),
    (ChannelKind.BIT_PHASE_FLIP, 0.2): (0.039293, 0.960707),
    (ChannelKind.BIT_PHASE_FLIP, 0.866): (0.356915, 0.643085),
}


class TestFindZones:
    @pytest.mark.parametrize("key", sorted(FROZEN_ZONES, key=str))
    def test_flip_zone_endpoints(self, key):
        kind, g = key
        death, rebirth = FROZEN_ZONES[key]
        report = find_zones(cfg(kind, g))
        assert len(report.zones) == 1
        zone = report.zones[0]
        assert not zone.touch
        assert zone.death == pytest.approx(death, abs=2e-6)
        assert zone.rebirth == pytest.approx(rebirth, abs=2e-6)

    def test_flip_zones_symmetric(self):
        report = find_zones(cfg(ChannelKind.BIT_FLIP, 0.4, refine_tol=1e-8))
        zone = report.zones[0]
        assert zone.death + zone.rebirth == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("gamma,expected_death", [(0.2, None), (0.4, None)])
    def test_amplitude_damping_onset(self, gamma, expected_death):
        report = find_zones(cfg(ChannelKind.AMPLITUDE_DAMPING, gamma))
        assert len(report.zones) == 1
        zone = report.zones[0]
        assert zone.rebirth is None
        assert zone.death == pytest.approx(amplitude_damping_death(gamma), abs=2e-6)

    def test_depolarizing_kills_small_gamma(self):
        report = find_zones(cfg(ChannelKind.DEPOLARIZING, 0.2))
        assert len(report.zones) == 1
        assert report.zones[0].death == pytest.approx(0.05306, abs=1e-3)
        assert report.zones[0].rebirth is None

    def test_phase_damping_never_dies(self):
        assert find_zones(cfg(ChannelKind.PHASE_DAMPING, 0.5)).zones == []

    def test_phase_flip_tangential_zero_is_touch(self):
        report = find_zones(cfg(ChannelKind.PHASE_FLIP, 0.2))
        assert len(report.zones) == 1
        zone = report.zones[0]
        assert zone.touch
        assert zone.death == pytest.approx(0.5, abs=1e-4)
        assert zone.rebirth == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize(
        "kind",
        [ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP,
         ChannelKind.PHASE_FLIP, ChannelKind.PHASE_DAMPING],
    )
    def test_bell_state_reports_no_real_zone(self, kind):
        report = find_zones(cfg(kind, 1.0))
        assert all(z.touch for z in report.zones)

    def test_separable_input_is_one_full_zone(self):
        report = find_zones(cfg(ChannelKind.AMPLITUDE_DAMPING, 0.0, grid_points=101))
        assert len(report.zones) == 1
        zone = report.zones[0]
        assert zone.death == 0.0
        assert zone.rebirth is None

    def test_endpoints_stable_under_grid_refinement(self):
        a = find_zones(cfg(ChannelKind.BIT_FLIP, 0.4, grid_points=2001))
        b = find_zones(cfg(ChannelKind.BIT_FLIP, 0.4, grid_points=4001))
        for za, zb in zip(a.zones, b.zones):
            assert abs(za.death - zb.death) <= 1e-6
            assert abs(za.rebirth - zb.rebirth) <= 1e-6

    @pytest.mark.parametrize(
        "kind,gamma",
        [(ChannelKind.BIT_FLIP, 0.2), (ChannelKind.AMPLITUDE_DAMPING, 0.4)],
    )
    def test_engines_agree_where_formulas_hold(self, kind, gamma):
        # the evolution's zones against those the tabulated spectra give
        c = cfg(kind, gamma)
        numeric = find_zones(c)
        closed = [Zone(*z) for z in zones_ref(
            lambda s: concurrence_from_spectrum(closed_form_spectrum(kind, gamma, s)),
            c.strength_min, c.strength_max, c.grid_points, c.refine_tol, ZERO_TOL)]
        assert len(numeric.zones) == len(closed)
        for zn, zc in zip(numeric.zones, closed):
            assert abs(zn.death - zc.death) <= 1e-5
            if zn.rebirth is None:
                assert zc.rebirth is None
            else:
                assert abs(zn.rebirth - zc.rebirth) <= 1e-5


PAPER_CASES = [(ChannelKind(ch), g, {}) for ch, g in load_script("reproduce_figures").CASES]
EDGE_CASES = [
    *[(ChannelKind.BIT_FLIP, 0.2, {"grid_points": n}) for n in (2, 3, 2000, 2001)],
    (ChannelKind.AMPLITUDE_DAMPING, 0.0, {}),  # dead over the whole domain
    (ChannelKind.AMPLITUDE_DAMPING, 0.2, {}),  # dead up to the end of the domain
    (ChannelKind.BIT_FLIP, 0.4, {"refine_tol": 1e-300}),  # float spacing stops it
    (ChannelKind.BIT_FLIP, 0.4, {"refine_tol": 0.1}),  # no step is taken
]


def _case_id(value):
    if isinstance(value, ChannelKind):
        return value.value
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items()) or "defaults"
    return str(value)


@pytest.mark.parametrize("route", ["numeric"])  # the Kraus evolution, the one route
@pytest.mark.parametrize(
    "kind, gamma, kw", PAPER_CASES + EDGE_CASES, ids=_case_id)
def test_find_zones_matches_sequential_reference(kind, gamma, kw, route):
    c = cfg(kind, gamma, **kw)
    want = [Zone(*z) for z in zones_ref(
        lambda s: _concurrence_at(c, s), c.strength_min, c.strength_max,
        c.grid_points, c.refine_tol, ZERO_TOL)]
    assert find_zones(c).zones == want


# The X-entry engine: the six X entries of the MEMS evolved from the Kraus table.

DAMPING_EXTREMES = [745.0, 1e300, np.finfo(float).max]  # eta = exp(-lt) subnormal, then 0


def _strengths(kind, rng):
    grid = np.linspace(0.0, 1.0 if kind.is_flip else 40.0, 201)
    extra = rng.uniform(0.0, 1.0, 50) if kind.is_flip else DAMPING_EXTREMES
    return np.concatenate([grid, extra])


@pytest.mark.parametrize("kind", list(ChannelKind), ids=_case_id)
def test_kraus_sets_keep_populations_and_coherences_apart(kind):
    # the premise of the engine: one qubit's map sends populations to
    # populations and coherences to coherences, exactly
    ops = kraus_operators(kind, _strengths(kind, np.random.default_rng(3)))
    for i in (0, 1):  # population i from the coherence rho_01
        assert not (ops[..., i, 0] * ops[..., i, 1].conj()).sum(axis=-1).any()
    for l in (0, 1):  # the coherence rho_01 from population l
        assert not (ops[..., 0, l] * ops[..., 1, l].conj()).sum(axis=-1).any()


@pytest.mark.parametrize("kind", list(ChannelKind), ids=_case_id)
def test_x_entry_engine_matches_the_full_evolution(kind):
    rng = np.random.default_rng(41)
    strengths = _strengths(kind, rng)
    for gamma in (0.0, 2.0 / 3.0, 1.0, *rng.uniform(0.0, 1.0, 5)):
        full = xstate_concurrence(apply_product(mems(gamma), kraus_operators(kind, strengths)))
        got = _concurrence_at(cfg(kind, gamma), strengths)
        assert got.shape == full.shape
        assert np.max(np.abs(got - full)) <= 4.4e-16


@pytest.mark.parametrize("command", ["sweep", "zones"])
def test_non_physical_state_exits_3(monkeypatch, capsys, command):
    # the positivity guard of the X closed form still runs on the evolved entries
    bad = mems(2.0 / 3.0)  # diag(1/3, 1/3, 0, 1/3), coherences 1/3
    bad[0, 3] = bad[3, 0] = 0.5  # block eigenvalue 1/3 - 1/2 < 0
    monkeypatch.setattr(sys.modules["esdscan.zonescan"], "mems", lambda gamma: bad)
    assert main([command, "--channel", "phaseflip", "--gamma", "1", "--steps", "3",
                 "--no-manifest"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below -1e-08" in captured.err
