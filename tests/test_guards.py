"""The input guards: which bad input raises what, which rule wins when two break,
and that each input of a query is checked once."""

import sys
from collections import Counter

import numpy as np
import pytest

from esdscan.channels import (
    ChannelKind,
    apply_product_channel,
    check_completeness,
    check_strength,
    kraus_set,
)
from esdscan.concurrence import concurrence, xstate_concurrence
from esdscan.linalg import I2
from esdscan.states import DensityMatrixError, check_gamma, mems, validate_density
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


def _strength(kind):
    return lambda s: check_strength(kind, s)


def _case(call, arg, exc, message, deviation=None, *, id):
    return pytest.param(call, arg, exc, message, deviation, id=id)


REJECTIONS = [
    # gamma: one domain message for every bad value
    *[_case(f, g, ValueError, f"gamma must lie in [0, 1], got {g}", id=f"{f.__name__}-{g}")
      for f in (check_gamma, mems)
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
]


@pytest.mark.parametrize("call, arg, exc, message, deviation", REJECTIONS)
def test_guard_rejections(call, arg, exc, message, deviation):
    with pytest.raises(ValueError) as err:
        call(arg)
    assert type(err.value) is exc
    assert str(err.value) == message
    if deviation is not None:
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
    rho = apply_product_channel(mems(0.4), kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.2))
    concurrence(rho)
    xstate_concurrence(rho)
    # gamma by mems, the strength by kraus_set, one finiteness pass per concurrence route
    assert dict(counts) == {"check_gamma": 1, "check_strength": 1, "require_finite": 2}


def test_find_zones_checks_gamma_once_per_evaluation(monkeypatch):
    cfg = SweepConfig(kind=FLIP, gamma=0.2)
    counts = _count_guard_calls(monkeypatch)
    zonescan = sys.modules["esdscan.zonescan"]
    monkeypatch.setattr(zonescan, "_concurrence_at",
                        _counting(counts, "evaluations", zonescan._concurrence_at))
    assert len(find_zones(cfg).zones) == 1
    assert counts["evaluations"] > 1
    assert counts["check_gamma"] == counts["check_strength"] == counts["evaluations"]
