"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5 and 6 contain published zone endpoints that the simulated dynamics
cannot reproduce (see notes in the repository README); those assertions are
kept at their stated tolerances and fail honestly rather than being loosened.
"""

import sys

import numpy as np
import pytest

from esdscan.channels import (
    COMPLETENESS_TOL,
    ChannelKind,
    apply_product,
    check_completeness,
    kraus_operators,
)
from esdscan.cli import main as cli_main
from esdscan.concurrence import concurrence, xstate_concurrence
from esdscan.spectra import closed_form_spectrum, concurrence_from_spectrum, numeric_spectrum
from esdscan.states import HERM_TOL, mems, werner
from esdscan.zonescan import SweepConfig, find_zones, sample_curve

from conftest import record_criterion
from _oracles import (
    amplitude_damping_death,
    evolve_ref,
    kraus_ref,
    mems_ref,
    xblock_spectrum,
)

ALL_KINDS = list(ChannelKind)
GRID_GAMMAS = np.linspace(0.0, 1.0, 21)
GRID_STRENGTHS = np.linspace(0.0, 1.0, 50)


def _finish(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    record_criterion(number, f"criterion {number:02d} {name}: {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _evolved_grid(kind):
    g = GRID_GAMMAS[:, None] + 0.0 * GRID_STRENGTHS[None, :]
    s = GRID_STRENGTHS[None, :] + 0.0 * GRID_GAMMAS[:, None]
    return apply_product(mems(g), kraus_operators(kind, s))


def test_criterion_01_reference_concurrences():
    failures = []
    grid = np.linspace(0, 1, 101)
    c_mems = concurrence(mems(grid))
    c_werner = concurrence(werner(grid))
    dev_m = float(np.max(np.abs(c_mems - grid)))
    dev_w = float(np.max(np.abs(c_werner - np.maximum(0.0, (3.0 * grid - 1.0) / 2.0))))
    if dev_m > 1e-9:
        failures.append(f"mems deviation {dev_m:.2e}")
    if dev_w > 1e-9:
        failures.append(f"werner deviation {dev_w:.2e}")
    if not np.all(c_mems - c_werner >= -1e-12):
        failures.append("mems curve dipped below werner curve")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if concurrence(werner(mid)) > 0:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    if abs(crossing - 1 / 3) > 1e-6:
        failures.append(f"werner zero-crossing at {crossing}")
    _finish(1, "reference concurrences and state comparison", failures)


def test_criterion_02_cptp_and_state_validity():
    failures = []
    for kind in ALL_KINDS:
        dev = check_completeness(kraus_operators(kind, np.linspace(0, 1, 50)))
        if dev > COMPLETENESS_TOL:
            failures.append(f"{kind.value} completeness {dev:.2e}")
        rho = _evolved_grid(kind)
        herm = float(np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))))
        tr = float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)))
        psd = float(np.min(np.linalg.eigvalsh(rho)))
        if herm > HERM_TOL:
            failures.append(f"{kind.value} hermiticity {herm:.2e}")
        if tr > 1e-12:
            failures.append(f"{kind.value} trace {tr:.2e}")
        if psd < -1e-10:
            failures.append(f"{kind.value} min eigenvalue {psd:.2e}")
    _finish(2, "channel completeness and evolved-state validity", failures)


def test_criterion_03_oracle_equivalence():
    failures = []
    worst = 0.0
    for kind in ALL_KINDS:
        rho = _evolved_grid(kind)
        dev = float(np.max(np.abs(concurrence(rho) - xstate_concurrence(rho))))
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append(f"{kind.value} deviation {dev:.2e}")
    record_criterion(3, f"criterion 03 note: worst two-route deviation {worst:.2e}")
    _finish(3, "Wootters path vs X-state closed form", failures)


def test_criterion_04_verify_spectra_grid(tmp_path):
    failures = []
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        code = cli_main(
            ["verify-spectra", "--gamma-steps", "100", "--steps", "100",
             "--out", str(out), "--no-manifest"]
        )
        outputs.append(out.read_bytes())
        if code != 2:
            failures.append(f"expected exit code 2, got {code}")
    if outputs[0] != outputs[1]:
        failures.append("discrepancy report not deterministic")

    gammas = np.linspace(0, 1, 100)
    strengths = np.linspace(0, 1, 100)
    # report values carry 9 significant digits; match back to exact grid cells
    lookup = {
        (f"{g:.9g}", f"{s:.9g}"): (float(g), float(s))
        for g in gammas
        for s in strengths
    }

    lines = outputs[0].decode().splitlines()
    header = lines[0].split(",")
    reported: dict[str, set] = {k.value: set() for k in ALL_KINDS}
    rows = []
    for line in lines[1:]:
        parts = dict(zip(header, line.split(",")))
        key = (parts["gamma"], parts["strength"])
        if key not in lookup:
            failures.append(f"row not on the scan grid: {line}")
            break
        parts["cell"] = lookup[key]
        rows.append(parts)
        reported[parts["channel"]].add(parts["cell"])

    consistent = ("bitflip", "phaseflip", "amplitudedamping", "phasedamping")
    for name in consistent:
        low = [cell for cell in reported[name] if cell[0] <= 2 / 3 + 1e-15]
        if low:
            failures.append(f"{name}: {len(low)} discrepancies below the branch point")

    # completeness spot-check against the independent block oracle
    rng = np.random.default_rng(2024)
    for kind in ALL_KINDS:
        clean = sorted(set(lookup.values()) - reported[kind.value])
        sample_idx = rng.choice(len(clean), size=min(150, len(clean)), replace=False)
        for i in sample_idx:
            g, s = clean[i]
            ref = xblock_spectrum(evolve_ref(mems_ref(g), kraus_ref(kind.value, s)))
            lam = np.sort(closed_form_spectrum(kind, g, s))
            dev = float(np.max(np.abs(lam - np.sort(ref))))
            if dev > 1e-8:
                failures.append(
                    f"{kind.value}: unreported deviation {dev:.2e} at ({g:.4f},{s:.4f})"
                )
                break
    for row in rng.choice(len(rows), size=min(150, len(rows)), replace=False):
        parts = rows[row]
        g, s = parts["cell"]
        kind = ChannelKind(parts["channel"])
        if parts["cf_lambda1"] == "nan":
            try:
                closed_form_spectrum(kind, g, s)
            except ValueError:
                continue
            failures.append(f"{kind.value}: inf cell ({g},{s}) evaluates cleanly")
            break
        ref = xblock_spectrum(evolve_ref(mems_ref(g), kraus_ref(kind.value, s)))
        lam = np.sort(closed_form_spectrum(kind, g, s))
        if float(np.max(np.abs(lam - np.sort(ref)))) <= 1e-8:
            failures.append(f"{kind.value}: spurious report at ({g},{s})")
            break
    _finish(4, "closed-form spectra verification grid", failures)


CASE1_ZONES = {
    (ChannelKind.BIT_FLIP, 0.2): (0.049, 0.952),
    (ChannelKind.BIT_FLIP, 0.4): (0.125, 0.8525),
    (ChannelKind.BIT_FLIP, 0.66): (0.225, 0.75),
    (ChannelKind.BIT_PHASE_FLIP, 0.2): (0.375, 0.625),
    (ChannelKind.BIT_PHASE_FLIP, 0.4): (0.4, 0.6),
    (ChannelKind.BIT_PHASE_FLIP, 0.66): (0.3, 0.725),
}


def _zone_check(kind, gamma, death, rebirth, tol):
    report = find_zones(SweepConfig(kind=kind, gamma=gamma))
    real = [z for z in report.zones if not z.touch]
    if len(real) != 1:
        return [f"{kind.value} gamma={gamma}: expected one zone, got {len(real)}"]
    zone = real[0]
    out = []
    if abs(zone.death - death) > tol:
        out.append(
            f"{kind.value} gamma={gamma}: death {zone.death:.6f} vs {death}+-{tol}"
        )
    if rebirth is None:
        if zone.rebirth is not None:
            out.append(f"{kind.value} gamma={gamma}: unexpected rebirth {zone.rebirth}")
    elif zone.rebirth is None or abs(zone.rebirth - rebirth) > tol:
        got = "none" if zone.rebirth is None else f"{zone.rebirth:.6f}"
        out.append(
            f"{kind.value} gamma={gamma}: rebirth {got} vs {rebirth}+-{tol}"
        )
    return out


def test_criterion_05_esdb_zones_case1():
    failures = []
    for (kind, gamma), (death, rebirth) in CASE1_ZONES.items():
        failures += _zone_check(kind, gamma, death, rebirth, 0.03)
    _finish(5, "case-1 ESDB zones (numeric engine)", failures)


def test_criterion_06_esdb_zones_case2():
    failures = []
    for kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        failures += _zone_check(kind, 0.866, 0.375, 0.625, 0.03)
        failures += _zone_check(kind, 0.9666, 0.445, 0.525, 0.03)
        report = find_zones(SweepConfig(kind=kind, gamma=1.0))
        if any(not z.touch for z in report.zones):
            failures.append(f"{kind.value} gamma=1: real zone reported")
    _finish(6, "case-2 ESDB zones and gamma=1 robustness", failures)


def test_criterion_07_amplitude_damping_onset():
    failures = []
    cases = [(0.4, 0.3302, 0.01), (0.2, 0.0868, 0.005)]
    for gamma, expected, tol in cases:
        report = find_zones(SweepConfig(kind=ChannelKind.AMPLITUDE_DAMPING, gamma=gamma))
        real = [z for z in report.zones if not z.touch]
        if len(real) != 1:
            failures.append(f"gamma={gamma}: expected one zone, got {len(real)}")
            continue
        zone = real[0]
        if abs(zone.death - expected) > tol:
            failures.append(f"gamma={gamma}: death {zone.death:.5f} vs {expected}+-{tol}")
        if zone.rebirth is not None:
            failures.append(f"gamma={gamma}: rebirth inside [0,1]")
        analytic = amplitude_damping_death(gamma)
        if abs(zone.death - analytic) > 1e-4:
            failures.append(f"gamma={gamma}: death off analytic value {analytic:.6f}")
    _finish(7, "amplitude damping ESD onset", failures)


def test_criterion_08_phase_damping_curve():
    failures = []
    for gamma in (0.2, 0.4, 0.66, 1.0):
        cfg = SweepConfig(kind=ChannelKind.PHASE_DAMPING, gamma=gamma, grid_points=101)
        strengths, c = sample_curve(cfg)
        dev = float(np.max(np.abs(c - gamma * np.exp(-2 * strengths))))
        if dev > 1e-9:
            failures.append(f"gamma={gamma}: curve deviation {dev:.2e}")
        if find_zones(cfg).zones:
            failures.append(f"gamma={gamma}: spurious zone")
    _finish(8, "phase damping analytic curve, no zones", failures)


def test_criterion_09_symmetries(monkeypatch):
    failures = []
    # endpoints bisected to 1e-8, well inside the 1e-6 bound on their sum
    monkeypatch.setattr(sys.modules["esdscan.zonescan"], "REFINE_TOL", 1e-8)
    for kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        for gamma in (0.2, 0.66, 0.9):
            _, c = sample_curve(SweepConfig(kind=kind, gamma=gamma, grid_points=201))
            dev = float(np.max(np.abs(c - c[::-1])))
            if dev > 1e-6:
                failures.append(f"{kind.value} gamma={gamma}: curve asymmetry {dev:.2e}")
        for gamma in (0.2, 0.866):
            report = find_zones(SweepConfig(kind=kind, gamma=gamma))
            for z in report.zones:
                if z.rebirth is not None and abs(z.death + z.rebirth - 1.0) > 1e-6:
                    failures.append(
                        f"{kind.value} gamma={gamma}: endpoints sum "
                        f"{z.death + z.rebirth:.8f}"
                    )
    gammas = np.linspace(0, 1, 101)
    for kind in ALL_KINDS:
        strength = 1.0 if kind.is_flip else 0.0
        c_num = concurrence_from_spectrum(numeric_spectrum(kind, gammas, strength))
        dev = float(np.max(np.abs(c_num - gammas)))
        if dev > 1e-10:
            failures.append(f"{kind.value} numeric identity-strength dev {dev:.2e}")
        case1 = gammas[gammas <= 2 / 3]
        c_cf = concurrence_from_spectrum(closed_form_spectrum(kind, case1, strength))
        dev_cf = float(np.max(np.abs(c_cf - case1)))
        if dev_cf > 1e-10:
            failures.append(f"{kind.value} closed-form identity-strength dev {dev_cf:.2e}")
    _finish(9, "p reflection symmetry and identity-strength spectra", failures)


def test_criterion_10_cli_determinism(tmp_path):
    failures = []
    commands = {
        "compare": ["compare-states", "--steps", "51"],
        "sweep": ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "101"],
        "zones": ["zones", "--channel", "amplitudedamping", "--gamma", "0.4"],
        "verify": ["verify-spectra", "--channel", "depolarizing",
                   "--gamma-steps", "25", "--steps", "25"],
    }
    for name, argv in commands.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            code = cli_main(argv + ["--out", str(out), "--no-manifest"])
            if code not in (0, 2):
                failures.append(f"{name}: exit code {code}")
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            failures.append(f"{name}: outputs differ between runs")
    _finish(10, "byte-identical CLI reruns", failures)
