"""The input guards: which bad input raises what, which rule wins when two break,
and that each input of a query is checked once.

``REJECTIONS`` is the single place for rejection cases: a bad input that some
function must refuse gets a row here, with its exact message, and nowhere else."""

import sys
from collections import Counter

import numpy as np
import pytest

from esdscan.channels import (
    I2,
    ChannelKind,
    apply_product,
    apply_product_channel,
    check_completeness,
    check_strength,
    kraus_operators,
    kraus_set,
)
from esdscan.concurrence import concurrence, wootters_sigmas, xstate_concurrence
from esdscan.spectra import closed_form_spectrum, concurrence_from_spectrum, scan_grid
from esdscan.states import (
    DensityMatrixError,
    check_gamma,
    mems,
    validate_density,
    werner,
)
from esdscan.zonescan import SweepConfig, find_zones

NAN, INF = float("nan"), float("inf")
FLIP, DAMP = ChannelKind.BIT_FLIP, ChannelKind.AMPLITUDE_DAMPING
NONFINITE_STATE = "density matrix contains non-finite entries"
NONFINITE_OPS = "Kraus operators contains non-finite entries"


def _state(entries=()):
    """The maximally mixed state with the given ((row, col), value) entries replaced."""
    m = np.eye(4, dtype=complex) / 4
    for index, value in entries:
        m[index] = value
    return m


def _ops(value):
    """A complete two-operator set whose first entry is replaced by ``value``."""
    ops = np.stack([I2, I2]) / np.sqrt(2)
    ops[0, 0, 0] = value
    return ops


def _diag(*values):
    return np.diag(values).astype(complex)


def _channel(ops):
    return apply_product_channel(mems(0.4), ops)


def _apply_product(rho):
    return apply_product(rho, kraus_set(FLIP, 0.2))


def _apply_product_ops(ops):
    return apply_product(mems(0.4), ops)


def _strength(kind):
    return lambda s: check_strength(kind, s)


def _kraus_set(kind):
    return lambda s: kraus_set(kind, s)


def _sweep(kw):
    return SweepConfig(**{"kind": FLIP, "gamma": 0.2, **kw})


def _case(call, arg, exc, message, deviation=None, *, id):
    return pytest.param(call, arg, exc, message, deviation, id=id)


REJECTIONS = [
    # gamma: one domain message for every bad value
    *[_case(f, g, ValueError, f"gamma must lie in [0, 1], got {g}", id=f"{f.__name__}-{g}")
      for f in (check_gamma, mems, werner)
      for g in (NAN, INF, -INF, -0.1, 1.1, [0.5, NAN], [0.2, 1.1, 0.4])],
    # strength: the non-finite message wins over the domain message
    *[_case(_strength(kind), s, ValueError,
            f"{kind.value}: strength must be finite, got {s}", id=f"{kind.value}-{s}")
      for kind in (FLIP, DAMP) for s in (NAN, INF, [NAN, 1.5])],
    _case(_strength(FLIP), -1.0, ValueError, "bitflip: p must lie in [0, 1], got -1.0",
          id="bitflip--1"),
    _case(_strength(FLIP), 1.5, ValueError, "bitflip: p must lie in [0, 1], got 1.5",
          id="bitflip-1.5"),
    _case(_strength(DAMP), -1.0, ValueError,
          "amplitudedamping: damping exponent must be >= 0, got -1.0",
          id="amplitudedamping--1"),
    # kraus_set checks its strength the same way, for every kind of channel
    *[_case(_kraus_set(kind), s, ValueError, f"{kind.value}: {rule}, got {s}",
            id=f"kraus-set-{kind.value}-{s}")
      for kind, s, rule in ((FLIP, -0.01, "p must lie in [0, 1]"),
                            (ChannelKind.PHASE_FLIP, 1.01, "p must lie in [0, 1]"),
                            (ChannelKind.BIT_PHASE_FLIP, NAN, "strength must be finite"),
                            (DAMP, -0.5, "damping exponent must be >= 0"),
                            (ChannelKind.DEPOLARIZING, INF, "strength must be finite"))],
    # channel kind: a ChannelKind, not its value, checked before any formula runs
    *[_case(call, kind, TypeError, f"kind must be a ChannelKind, got {kind!r}",
            id=f"kind-{label}")
      for call, kind, label in (
          (lambda k: SweepConfig(kind=k, gamma=0.2), "bitflip", "sweep-config"),
          (lambda k: kraus_operators(k, 0.2), "bitflip", "kraus-operators"),
          (lambda k: kraus_set(k, 0.2), 1, "kraus-set"),
          (lambda k: closed_form_spectrum(k, 0.2, 0.1), "bitflip", "closed-form"),
          (lambda k: scan_grid(k, [0.2], [0.1]), "bitflip", "scan-grid"))],
    # density matrices: non-finite wins over shape, shape over the invariants,
    # then hermiticity, trace and positivity in that order
    _case(validate_density, _state([((0, 1), NAN)]), ValueError, NONFINITE_STATE,
          id="density-nan"),
    _case(validate_density, _state([((0, 0), INF)]), ValueError, NONFINITE_STATE,
          id="density-inf-diagonal"),
    _case(validate_density, _state([((1, 2), INF)]), ValueError, NONFINITE_STATE,
          id="density-inf-off-diagonal"),
    _case(validate_density, _state([((2, 1), -INF), ((1, 2), -INF)]), ValueError,
          NONFINITE_STATE, id="density-inf-hermitian-pair"),
    _case(validate_density, np.full((3, 3), NAN), ValueError, NONFINITE_STATE,
          id="density-nan-wrong-shape"),
    _case(validate_density, np.eye(3) / 3, ValueError,
          "expected (..., 4, 4), got shape (3, 3)", id="density-shape"),
    _case(validate_density, np.zeros((0, 3, 3)), ValueError,
          "expected (..., 4, 4), got shape (0, 3, 3)", id="density-empty-shape"),
    _case(validate_density, np.zeros((0, 4, 4)), ValueError,
          "expected at least one density matrix, got shape (0, 4, 4)", id="density-empty"),
    _case(validate_density, _state([((0, 1), 0.1)]), DensityMatrixError,
          "hermiticity violation: deviation 1.000e-01", 0.1, id="density-hermiticity"),
    _case(validate_density, _state([((0, 1), 0.1), ((0, 0), 0.5)]), DensityMatrixError,
          "hermiticity violation: deviation 1.000e-01", 0.1,
          id="density-hermiticity-before-trace"),
    _case(validate_density, _diag(1.0, 0.0, 0.0, 0.01), DensityMatrixError,
          "trace violation: deviation 1.000e-02", 0.01, id="density-trace"),
    _case(validate_density, _diag(1.5, -0.5, 0.0, 0.01), DensityMatrixError,
          "trace violation: deviation 1.000e-02", 0.01,
          id="density-trace-before-positivity"),
    _case(validate_density, _diag(1.5, -0.5, 0.0, 0.0), DensityMatrixError,
          "positivity violation: deviation 5.000e-01", 0.5, id="density-positivity"),
    # every other function that takes a state checks its stack as validate_density does
    *[_case(f, m, ValueError, message, id=f"{f.__name__}-{label}")
      for f in (concurrence, wootters_sigmas, xstate_concurrence, _apply_product)
      for m, message, label in (
          (np.eye(3) / 3, "expected (..., 4, 4), got shape (3, 3)", "shape"),
          (np.zeros((0, 4, 4)),
           "expected at least one density matrix, got shape (0, 4, 4)", "empty"),
          (np.full((3, 3), NAN), "state contains non-finite entries", "nan-wrong-shape"))],
    # Kraus operators: non-finite entries are named; finite overflow is a deviation
    _case(check_completeness, _ops(NAN), ValueError, NONFINITE_OPS,
          id="completeness-nan"),
    _case(check_completeness, _ops(INF), ValueError, NONFINITE_OPS,
          id="completeness-inf"),
    _case(_channel, _ops(NAN), ValueError, NONFINITE_OPS, id="channel-ops-nan"),
    _case(_channel, _ops(INF), ValueError, NONFINITE_OPS, id="channel-ops-inf"),
    _case(_channel, _ops(1e200), ValueError, "Kraus completeness off by inf",
          id="channel-ops-overflow"),
    _case(_channel, 2 * _ops(0.5), ValueError, "Kraus completeness off by 3.000e+00",
          id="channel-ops-incomplete"),
    _case(lambda ops: apply_product_channel(_state([((0, 1), NAN)]), ops), _ops(NAN),
          ValueError, NONFINITE_STATE, id="channel-state-before-ops"),
    _case(lambda ops: apply_product_channel(np.zeros((0, 4, 4)), ops), _ops(0.5),
          ValueError, "expected at least one density matrix, got shape (0, 4, 4)",
          id="channel-empty-state"),
    # ... and the operators' shape: a non-empty (..., n, 2, 2) stack
    *[_case(f, ops, ValueError, "expected a non-empty (..., n, 2, 2) array of Kraus "
            f"operators, got shape {ops.shape}", id=f"{name}-ops-{label}")
      for f, name in ((_channel, "channel"), (_apply_product_ops, "apply-product"),
                      (check_completeness, "completeness"))
      for ops, label in ((np.eye(2), "2x2"), (np.ones((1, 3, 3)), "3x3"),
                         (np.zeros((0, 2, 2)), "empty"))],
    _case(check_completeness, np.full((3, 3), NAN), ValueError, NONFINITE_OPS,
          id="completeness-nan-wrong-shape"),
    # a non-finite imaginary part alone is non-finite, for states and operators alike
    *[_case(f, _state([(index, value)]), ValueError, message,
            id=f"{f.__name__}-imaginary-{label}")
      for f, message in ((validate_density, NONFINITE_STATE),
                         (concurrence, "state contains non-finite entries"),
                         (xstate_concurrence, "state contains non-finite entries"))
      for index, value, label in (((0, 1), complex(0.0, INF), "inf-off-diagonal"),
                                  ((0, 0), complex(0.25, NAN), "nan-diagonal"))],
    *[_case(check_completeness, _ops(value), ValueError, NONFINITE_OPS,
            id=f"completeness-imaginary-{label}")
      for value, label in ((complex(0.0, INF), "inf"), (complex(0.0, NAN), "nan"))],
    # ... and the state and operator stacks must broadcast against each other
    _case(lambda g: apply_product(mems(g), kraus_operators(FLIP, [0.1, 0.2])),
          [0.1, 0.2, 0.3], ValueError,
          "state stack (3,) and operator stack (2,) do not broadcast",
          id="apply-product-stacks"),
    # kraus_set takes one strength; a stack goes to kraus_operators
    *[_case(lambda s: kraus_set(FLIP, s), s, ValueError,
            f"strength must be a scalar, got shape {np.shape(s)} "
            "(kraus_operators takes a stack of strengths)", id=f"kraus-set-{label}")
      for s, label in ((np.array([0.1, 0.2]), "array"), ([0.1], "list"))],
    # spectra: the closed-form concurrence accepts finite eigenvalues only
    *[_case(concurrence_from_spectrum, lam, ValueError,
            "spectrum contains non-finite entries", id=f"spectrum-{lam[0]}")
      for lam in ([NAN, 0, 0, 0.1], [INF, 0, 0, 0])],
    # ... and exactly four of them per spectrum, checked after finiteness
    *[_case(concurrence_from_spectrum, lam, ValueError,
            f"expected (..., 4) eigenvalues, got shape {np.shape(lam)}",
            id=f"spectrum-{len(lam)}-entries")
      for lam in ([0.25, 0.01], [0.3, 0.01, 0, 0, 0], [])],
    _case(concurrence_from_spectrum, [NAN, 0.01], ValueError,
          "spectrum contains non-finite entries", id="spectrum-nan-before-count"),
    # ... and the tabulated spectra raise a domain error, not a formula failure
    *[_case(lambda args: closed_form_spectrum(*args), args, ValueError, message,
            id=f"closed-form-{label}")
      for args, message, label in (
          ((FLIP, 1.2, 0.5), "gamma must lie in [0, 1], got 1.2", "gamma-1.2"),
          ((FLIP, NAN, 0.5), "gamma must lie in [0, 1], got nan", "gamma-nan"),
          ((FLIP, 0.5, 1.5), "bitflip: p must lie in [0, 1], got 1.5", "bitflip-1.5"),
          ((DAMP, 0.5, -0.5), "amplitudedamping: damping exponent must be >= 0, got -0.5",
           "amplitudedamping--0.5"))],
    # the spectrum comparer's axes: each one 1-D and non-empty
    *[_case(lambda g: scan_grid(FLIP, g, [0.1, 0.2]), g, ValueError,
            f"gammas must be 1-D and non-empty, got shape {np.shape(g)}",
            id=f"scan-gammas-{label}")
      for g, label in ((0.1, "scalar"), ([[0.1]], "2-D"), ([], "empty"))],
    *[_case(lambda s: scan_grid(FLIP, [0.2], s), s, ValueError,
            f"strengths must be 1-D and non-empty, got shape {np.shape(s)}",
            id=f"scan-strengths-{label}")
      for s, label in ((0.1, "scalar"), ([[0.1]], "2-D"), ([], "empty"))],
    # sweep grids: an integer count, then at least two points
    *[_case(_sweep, {"grid_points": n}, ValueError, f"grid_points must be an integer, got {n!r}",
            id=f"grid-points-{n}") for n in (2.5, True, "11")],
    _case(_sweep, {"grid_points": 1}, ValueError, "grid_points must be >= 2",
          id="grid-points-1"),
    # a sweep has one gamma and one strength interval
    *[_case(_sweep, kw, ValueError,
            f"{name} must be a scalar, got shape {np.shape(value)}", id=f"sweep-{label}")
      for kw, label in (({"gamma": [0.2, 0.3]}, "gamma-list"),
                        ({"gamma": np.array([0.2])}, "gamma-array"),
                        ({"strength_min": np.array([0.0, 0.1])}, "strength-min-array"),
                        ({"strength_max": [[1.0]]}, "strength-max-2-D"))
      for name, value in kw.items()],
    # ... in its domain, with an ordered strength interval and a usable tolerance
    *[_case(_sweep, kw, ValueError, message, id=f"sweep-{label}")
      for kw, message, label in (
          ({"gamma": 1.5}, "gamma must lie in [0, 1], got 1.5", "gamma-1.5"),
          ({"strength_min": 0.7, "strength_max": 0.2},
           "strength_min must be below strength_max", "strength-interval"),
          ({"strength_max": 1.4}, "bitflip: p must lie in [0, 1], got (0.0, 1.4)",
           "strength-max-1.4"),
          ({"kind": DAMP, "strength_max": INF},
           "amplitudedamping: strength must be finite, got (0.0, inf)", "strength-max-inf"),
          *[({"refine_tol": tol}, f"refine_tol must be finite and positive, got {tol}",
             f"refine-tol-{tol}") for tol in (NAN, INF)])],
]


@pytest.mark.parametrize("call, arg, exc, message, deviation", REJECTIONS)
def test_guard_rejections(call, arg, exc, message, deviation):
    with pytest.raises(exc) as err:
        call(arg)
    assert type(err.value) is exc
    assert str(err.value) == message
    if deviation is not None:  # a DensityMatrixError names its violation
        assert err.value.violation == message.split()[0]
        assert err.value.deviation == pytest.approx(deviation)


def test_guards_accept_domain_ends():
    assert check_gamma([0.0, 1.0]).tolist() == [0.0, 1.0]
    assert check_strength(FLIP, [0.0, 1.0]).tolist() == [0.0, 1.0]
    assert check_strength(DAMP, [0.0, 1.5, 1e300]).tolist() == [0.0, 1.5, 1e300]
    # finite operators whose products overflow give an infinite deviation, no error
    assert check_completeness(_ops(1e200)) == INF
    validate_density(_state())


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_guard_calls(monkeypatch):
    """Count the guard calls made through every module's binding of each guard."""
    counts = Counter()
    for module in ("states", "channels", "concurrence", "spectra", "zonescan"):
        # sys.modules, because the package attribute esdscan.concurrence is a function
        mod = sys.modules[f"esdscan.{module}"]
        for name in ("check_gamma", "check_strength", "require_finite"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _counting(counts, name, getattr(mod, name)))
    return counts


def test_each_input_checked_once_per_query(monkeypatch):
    counts = _count_guard_calls(monkeypatch)
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, _counting(counts, name, getattr(np.linalg, name)))
    rho = apply_product_channel(mems(0.4), kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.2))
    concurrence(rho)
    xstate_concurrence(rho)
    # gamma by mems, the strength by kraus_set, one finiteness pass per concurrence route,
    # the positivity of the input and of the evolved state, then Wootters' eigh and SVD
    assert dict(counts) == {"check_gamma": 1, "check_strength": 1, "require_finite": 2,
                            "eigvalsh": 2, "eigh": 1, "svd": 1}


def test_find_zones_checks_gamma_once_per_evaluation(monkeypatch):
    cfg = SweepConfig(kind=FLIP, gamma=0.2)
    counts = _count_guard_calls(monkeypatch)
    zonescan = sys.modules["esdscan.zonescan"]
    monkeypatch.setattr(zonescan, "_concurrence_at",
                        _counting(counts, "evaluations", zonescan._concurrence_at))
    assert len(find_zones(cfg).zones) == 1
    # the grid, then one stacked evaluation per bisection step for both edges
    assert counts["evaluations"] == 10
    assert counts["check_gamma"] == counts["check_strength"] == counts["evaluations"]
