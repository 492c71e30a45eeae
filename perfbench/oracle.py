"""Independent reference results and the output checks built on them.

The reference shares no code with esdscan. A channel acts on both qubits
through its 4x4 single-qubit superoperator, not through the n^2 operator
products of the product-Kraus expansion. Concurrence and the Wootters spectrum come from the
X-state closed forms, which hold because every evolved MEMS here is an
X-state. Zones are found on a grid ten times finer than the program's, with
a search for tangential zeros between grid points, and bisected to 1e-12. The literal closed-form spectra are transcribed again here
because ``verify-spectra`` reports where they disagree with the numeric
spectra, and the benchmark has to predict those cells.

Every check tolerates changes below the output's own precision (9
significant digits), so a program change that keeps its results correct but
moves the last printed digit, or finds zone endpoints another way, still
passes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import CHANNELS, FLIP_CHANNELS

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)

# The program's documented defaults.
SQRT_GUARD = 1e-8
COMPARE_TOL = 1e-8
ZERO_TOL = 1e-9
REFINE_TOL = 1e-6
TOUCH_WIDTH = 5e-3

# Numeric outputs: absolute 1e-9, or the relative width of 9 printed digits.
ABS_TOL = 1e-9
REL_TOL = 1e-8
# Point queries: Wootters and X-state concurrence of the same state.
ROUTE_TOL = 1e-12
# A cell whose deviation or guard margin is this close to its threshold may
# fall on either side of it after any reordering of the arithmetic.
THRESHOLD_BAND = 1e-12
ZONE_GRID = 20_001
ZONE_BISECT_WIDTH = 1e-12
# Live local minima of the sampled curve below this are searched for a zero.
DIP_LEVEL = 1e-3


# ------------------------------------------------------------ reference model

def mems(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    w = np.where(g < 2.0 / 3.0, 1.0 / 3.0, g / 2.0)
    rho = np.zeros(g.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = w
    rho[..., 1, 1] = 1.0 - 2.0 * w
    rho[..., 0, 3] = rho[..., 3, 0] = g / 2.0
    return rho


def kraus(channel: str, strength) -> np.ndarray:
    """Single-qubit Kraus operators, shape (..., n, 2, 2).

    Each operator is written as a sum of (coefficient, constant matrix) terms.
    """
    s = np.asarray(strength, dtype=float)
    if channel in FLIP_CHANNELS:
        pauli = {"bitflip": SX, "phaseflip": SZ, "bitphaseflip": SY}[channel]
        ops = [[(np.sqrt(s), I2)], [(np.sqrt(1.0 - s), pauli)]]
    else:
        eta = np.exp(-s)
        keep, lose = np.sqrt(eta), np.sqrt(1.0 - eta)
        if channel == "amplitudedamping":
            ops = [[(np.ones_like(s), P0), (keep, P1)], [(lose, LOWER)]]
        elif channel == "phasedamping":
            ops = [[(keep, I2)], [(lose, P0)], [(lose, P1)]]
        elif channel == "depolarizing":
            r = np.sqrt((1.0 - eta) / 3.0)
            ops = [[(keep, I2)], [(r, SX)], [(r, SY)], [(r, SZ)]]
        else:
            raise ValueError(f"unknown channel {channel!r}")
    return np.stack([sum(c[..., None, None] * m for c, m in terms) for terms in ops], axis=-3)


def evolve(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Apply the channel to both qubits through its 4x4 single-qubit superoperator.

    With rho regrouped as R[(a, a'), (b, b')] (qubit A's row and column
    indices, then qubit B's), the product channel is R -> S R S^T.
    """
    sup = np.einsum("...kij,...klm->...iljm", ops, ops.conj())
    sup = sup.reshape(sup.shape[:-4] + (4, 4))
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))
    r = sup @ r @ sup.swapaxes(-1, -2)
    lead = r.shape[:-2]
    return r.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))


def _x_terms(rho: np.ndarray):
    pop = rho[..., [0, 1, 2, 3], [0, 1, 2, 3]].real
    outer = np.sqrt(np.clip(pop[..., 0] * pop[..., 3], 0.0, None))
    inner = np.sqrt(np.clip(pop[..., 1] * pop[..., 2], 0.0, None))
    return outer, inner, np.abs(rho[..., 0, 3]), np.abs(rho[..., 1, 2])


def x_concurrence(rho: np.ndarray) -> np.ndarray:
    outer, inner, z, w = _x_terms(rho)
    return np.clip(2.0 * np.maximum(0.0, np.maximum(z - inner, w - outer)), 0.0, 1.0)


def x_spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of rho * spin_flip(rho) for an X-state."""
    outer, inner, z, w = _x_terms(rho)
    lam = np.stack([(outer + z) ** 2, (outer - z) ** 2,
                    (inner + w) ** 2, (inner - w) ** 2], axis=-1)
    return np.sort(lam, axis=-1)


def evolved(channel: str, gamma, strength) -> np.ndarray:
    return evolve(mems(gamma), kraus(channel, strength))


def literal_spectrum(channel: str, gamma, strength):
    """The reference closed-form spectra as printed, unsimplified.

    Returns (lambdas (..., 4), margin (...)): margin is the most negative
    square-root argument or eigenvalue per cell; below -SQRT_GUARD the cell
    cannot be evaluated.
    """
    g, s = np.broadcast_arrays(np.asarray(gamma, dtype=float),
                               np.asarray(strength, dtype=float))
    margin = np.zeros(g.shape)

    def root(arg):
        nonlocal margin
        margin = np.minimum(margin, arg)
        return np.sqrt(np.clip(arg, 0.0, None))

    exp = np.exp
    if channel == "bitflip":
        p = s
        base = p * (p * (p**2 + 9 * g**2 * (p - 1) ** 2 - 2 * p - 1) + 2)
        r = root(g**2 * (p - 2) * (p - 1) ** 3 * p**3 * (p + 1))
        lam = [(3 * g + 2 * (3 * g - 1) * (p - 1) * p - 2) ** 2 / 36,
               (3 * g + 2 * (3 * g + 1) * (p - 1) * p + 2) ** 2 / 36,
               (base - 6 * r) / 9, (base + 6 * r) / 9]
    elif channel == "phaseflip":
        p = s
        lam = [0 * p, 0 * p,
               (2 - 3 * g * (1 - 2 * p) ** 2) ** 2 / 36,
               (3 * g * (1 - 2 * p) ** 2 + 2) ** 2 / 36]
    elif channel == "bitphaseflip":
        p = s
        base = (p - 1) * p * (9 * (g**2 + 1) * (p - 1) * p + 2)
        r = root(g**2 * (p - 1) ** 3 * p**3 * (9 * (p - 1) * p + 2))
        lam = [(3 * g + 6 * (g - 1) * (p - 1) * p - 2) ** 2 / 36,
               (3 * g + 6 * (g + 1) * (p - 1) * p + 2) ** 2 / 36,
               (base - 6 * r) / 9, (base + 6 * r) / 9]
    elif channel == "amplitudedamping":
        lt = s
        low = exp(-4 * lt) * (exp(lt) - 1) * (2 * exp(lt) - 1) / 9
        head = exp(8 * lt) * (3 * exp(lt) * ((3 * g**2 + 4) * exp(lt) - 4) + 4)
        r = root(g**2 * exp(19 * lt) * (2 * np.sinh(lt) + 4 * np.cosh(lt) - 3))
        lam = [low, low,
               exp(-12 * lt) * (head - 12 * r) / 36,
               exp(-12 * lt) * (head + 12 * r) / 36]
    elif channel == "phasedamping":
        lt = s
        lam = [0 * lt, 0 * lt,
               exp(-4 * lt) * (2 * exp(2 * lt) - 3 * g) ** 2 / 36,
               exp(-4 * lt) * (3 * g + 2 * exp(2 * lt)) ** 2 / 36]
    elif channel == "depolarizing":
        lt = s
        low = 4 / 81 * g**2 * exp(-4 * lt) * (-5 * exp(lt) + exp(2 * lt) + 4) ** 2
        lam = [low, low,
               exp(-2 * lt) * ((45 * g - 6) * np.sinh(lt) + (10 - 75 * g) * np.cosh(lt)
                               + 48 * g + 8) ** 2 / 2916,
               exp(-4 * lt) * (exp(lt) * ((15 * g + 2) * exp(lt) - 48 * g + 8)
                               + 60 * g + 8) ** 2 / 2916]
    else:
        raise ValueError(f"unknown channel {channel!r}")
    lam = np.stack(np.broadcast_arrays(*lam), axis=-1)
    return lam, np.minimum(margin, lam.min(axis=-1))


def spectrum_concurrence(lam: np.ndarray) -> np.ndarray:
    roots = np.sort(np.sqrt(np.clip(lam, 0.0, None)), axis=-1)[..., ::-1]
    return np.maximum(0.0, roots[..., 0] - roots[..., 1:].sum(axis=-1))


def reference_zones(channel: str, gamma: float) -> list[dict]:
    """Maximal intervals of [0, 1] where concurrence <= ZERO_TOL.

    Dead runs of a fine grid are bisected at both ends. A tangential zero
    narrower than the grid step shows up as a shallow local minimum between
    live grid points; its bottom is found by golden-section search.
    """

    def conc(x):
        return x_concurrence(evolved(channel, gamma, np.asarray(x, dtype=float)))

    def edge(alive, gone):
        lo, hi = alive, gone
        while abs(hi - lo) > ZONE_BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            if conc(mid) <= ZERO_TOL:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def bottom(lo, hi):
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > ZONE_BISECT_WIDTH:
            m1, m2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            if conc(m1) <= conc(m2):
                hi = m2
            else:
                lo = m1
        return 0.5 * (lo + hi)

    def zone(death, rebirth):
        touch = rebirth is not None and rebirth - death <= TOUCH_WIDTH
        return {"death": float(death), "rebirth": None if rebirth is None else float(rebirth),
                "touch": bool(touch)}

    xs = np.linspace(0.0, 1.0, ZONE_GRID)
    c = conc(xs)
    dead = c <= ZERO_TOL
    n = len(xs)
    zones = []
    i = 0
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and dead[j + 1]:
            j += 1
        zones.append(zone(0.0 if i == 0 else edge(xs[i - 1], xs[i]),
                          None if j == n - 1 else edge(xs[j + 1], xs[j])))
        i = j + 1
    mid = c[1:-1]
    dips = 1 + np.flatnonzero((mid < c[:-2]) & (mid < c[2:]) & (mid < DIP_LEVEL)
                              & ~dead[1:-1])
    for i in dips:
        x = bottom(xs[i - 1], xs[i + 1])
        if conc(x) <= ZERO_TOL:
            zones.append(zone(edge(xs[i - 1], x), edge(xs[i + 1], x)))
    return sorted(zones, key=lambda z: z["death"])


# --------------------------------------------------------------------- checks

def close(actual: float, expected: float) -> bool:
    if math.isnan(expected) or math.isinf(expected):
        return actual == expected or (math.isnan(actual) and math.isnan(expected))
    diff = abs(actual - expected)
    return diff <= ABS_TOL or diff <= REL_TOL * abs(expected)


def _mismatches(actual, expected, what: str, limit: int = 3) -> list[str]:
    bad = [(i, a, e) for i, (a, e) in enumerate(zip(actual, expected)) if not close(a, e)]
    return [f"{what}[{i}] = {a!r}, expected {e!r}" for i, a, e in bad[:limit]]


def _csv(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]!r}, expected {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def check_compare_states(params: dict, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rows, problems = _csv(out, "gamma,c_werner_raw,c_werner,c_mems")
    if problems:
        return problems
    g = np.linspace(0.0, 1.0, params["steps"])
    raw = (3.0 * g - 1.0) / 2.0
    expected = np.stack([g, raw, np.maximum(0.0, raw), g], axis=-1)
    if len(rows) != len(g):
        return [f"{len(rows)} rows, expected {len(g)}"]
    actual = [float(v) for row in rows for v in row]
    return _mismatches(actual, expected.ravel().tolist(), "compare-states")


def check_sweep(params: dict, code: int, out: str, err: str) -> list[str]:
    ch, gamma, steps = params["channel"], params["gamma"], params["steps"]
    xs = np.linspace(0.0, 1.0, steps)
    columns = [xs, x_concurrence(evolved(ch, gamma, xs))]
    header = "strength,concurrence_numeric"
    if params["closed_form"]:
        lam, margin = literal_spectrum(ch, gamma, xs)
        worst = float(margin.min())
        if abs(worst + SQRT_GUARD) <= THRESHOLD_BAND and code in (0, 3):
            return []
        if worst < -SQRT_GUARD:
            return [] if code == 3 else [f"exit code {code}, expected 3 (formula domain)"]
        columns.append(spectrum_concurrence(lam))
        header += ",concurrence_closed_form"
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rows, problems = _csv(out, header)
    if problems:
        return problems
    if len(rows) != steps or any(len(r) != len(columns) for r in rows):
        return [f"sweep table shape differs from {steps} x {len(columns)}"]
    actual = [float(v) for row in rows for v in row]
    expected = np.stack(columns, axis=-1).ravel().tolist()
    return _mismatches(actual, expected, f"sweep {ch} gamma={gamma}")


def check_zones(params: dict, code: int, out: str, err: str) -> list[str]:
    ch, gamma = params["channel"], params["gamma"]
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"zones output is not JSON: {exc}"]
    where = f"zones {ch} gamma={gamma}"
    if doc.get("channel") != ch or not close(doc.get("gamma", math.nan), gamma):
        return [f"{where}: header {doc.get('channel')!r} {doc.get('gamma')!r}"]
    got, want = doc.get("zones", []), reference_zones(ch, gamma)
    if len(got) != len(want):
        return [f"{where}: {len(got)} zones, expected {len(want)}: {want}"]
    problems = []
    for k, (a, e) in enumerate(zip(got, want)):
        if a["touch"] != e["touch"]:
            problems.append(f"{where}: zone {k} touch={a['touch']}, expected {e['touch']}")
        for end in ("death", "rebirth"):
            if (a[end] is None) != (e[end] is None) or (
                e[end] is not None and abs(a[end] - e[end]) > 2 * REFINE_TOL
            ):
                problems.append(f"{where}: zone {k} {end}={a[end]}, expected {e[end]}")
    return problems


def check_verify(params: dict, code: int, out: str, err: str) -> list[str]:
    n_g, n_s = params["gamma_steps"], params["steps"]
    gammas = np.linspace(0.0, 1.0, n_g)
    strengths = np.linspace(0.0, 1.0, n_s)
    gg, ss = np.meshgrid(gammas, strengths, indexing="ij")
    rows, problems = _csv(
        out,
        "channel,gamma,strength,max_abs_error,"
        "cf_lambda1,cf_lambda2,cf_lambda3,cf_lambda4,"
        "num_lambda1,num_lambda2,num_lambda3,num_lambda4",
    )
    if problems:
        return problems

    by_channel: dict[str, list[tuple[int, int, list[float]]]] = {ch: [] for ch in CHANNELS}
    last_key = (-1, -1, -1)
    for row in rows:
        if len(row) != 12 or row[0] not in by_channel:
            return [f"malformed row {row[:4]}"]
        values = [float(v) for v in row[1:]]
        i = round(values[0] * (n_g - 1))
        j = round(values[1] * (n_s - 1))
        if not (0 <= i < n_g and 0 <= j < n_s and close(values[0], gammas[i])
                and close(values[1], strengths[j])):
            return [f"row {row[:3]} is off the {n_g} x {n_s} grid"]
        key = (CHANNELS.index(row[0]), i, j)
        if key <= last_key:
            return [f"row {row[:3]} is out of (channel, gamma, strength) order"]
        last_key = key
        by_channel[row[0]].append((i, j, values[2:]))

    expected_err = []
    for ch in CHANNELS:
        lam, margin = literal_spectrum(ch, gg, ss)
        bad = margin < -SQRT_GUARD
        closed = np.sort(np.clip(lam, 0.0, None), axis=-1)
        numeric = x_spectrum(evolved(ch, gg, ss))
        dev = np.max(np.abs(closed - numeric), axis=-1)
        flagged = bad | (dev > COMPARE_TOL)
        either = (np.abs(margin + SQRT_GUARD) <= THRESHOLD_BAND) | (
            ~bad & (np.abs(dev - COMPARE_TOL) <= THRESHOLD_BAND))

        got = {(i, j): v for i, j, v in by_channel[ch]}
        reported = np.zeros(flagged.shape, dtype=bool)
        for i, j in got:
            reported[i, j] = True
        wrong = np.argwhere((reported != flagged) & ~either)
        if len(wrong):
            i, j = wrong[0]
            problems.append(
                f"{ch}: {len(wrong)} cells differ from the reference discrepant set, "
                f"first at gamma={gammas[i]}, strength={strengths[j]}")
        for (i, j), v in got.items():
            if not flagged[i, j]:
                continue
            if bad[i, j]:
                expected = [math.inf] + [math.nan] * 4 + numeric[i, j].tolist()
            else:
                expected = [dev[i, j]] + closed[i, j].tolist() + numeric[i, j].tolist()
            found = _mismatches(v, expected, f"{ch} gamma={gammas[i]} strength={strengths[j]}", 1)
            if found:
                problems.extend(found)
                break
        expected_err.append(f"{ch}: {len(got)} discrepant cells of {n_g * n_s}")

    if err.splitlines() != expected_err:
        problems.append(f"stderr summary {err.splitlines()!r}, expected {expected_err!r}")
    want_code = 2 if rows else 0
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    return problems


CLI_CHECKS = {
    "verify": check_verify,
    "compare-states": check_compare_states,
    "sweep": check_sweep,
    "zones": check_zones,
}


def check_points(queries, results) -> list[int]:
    """Indices of point queries whose (wootters, xstate) pair is wrong.

    ``results[k]`` is None when query k raised.
    """
    failed = [k for k, r in enumerate(results) if r is None]
    for ch in CHANNELS:
        idx = [k for k, (c, _, _) in enumerate(queries) if c == ch and results[k] is not None]
        if not idx:
            continue
        g = np.array([queries[k][1] for k in idx])
        s = np.array([queries[k][2] for k in idx])
        want = x_concurrence(evolve(mems(g), kraus(ch, s)))
        for k, w in zip(idx, want.tolist()):
            wootters, xstate = results[k]
            if abs(wootters - xstate) > ROUTE_TOL or not close(wootters, w):
                failed.append(k)
    return sorted(failed)
