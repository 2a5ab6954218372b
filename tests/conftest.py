import numpy as np
import pytest

import relaycap as rc
from relaycap import selftest


def _full_gains(t: int) -> np.ndarray:
    g = np.ones((t, t))
    np.fill_diagonal(g, 0.0)
    return g


@pytest.fixture
def reference_network() -> rc.NetworkSpec:
    """4 nodes, unit gains everywhere, P1 = 1, all noises 1, relay base
    power 1: the closed-form workhorse for convergence tests."""
    nodes = [
        rc.source(1, 1.0),
        rc.relay(2, 1.0, 1.0),
        rc.relay(3, 1.0, 1.0),
        rc.destination(4, 1.0),
    ]
    return rc.from_gains(nodes, _full_gains(4))


@pytest.fixture
def single_relay_network() -> rc.NetworkSpec:
    """3 nodes, unit gains, P1 = N2 = N3 = 1, relay power 1000; the
    feasibility frontier solves exactly to Q = 0.004."""
    nodes = [rc.source(1, 1.0), rc.relay(2, 1e3, 1.0), rc.destination(3, 1.0)]
    return rc.from_gains(nodes, _full_gains(3))


@pytest.fixture
def powerless_relay_network() -> rc.NetworkSpec:
    """Relay with zero transmit power: no quantization is ever feasible."""
    nodes = [rc.source(1, 1.0), rc.relay(2, 0.0, 1.0), rc.destination(3, 1.0)]
    return rc.from_gains(nodes, _full_gains(3))


@pytest.fixture
def injected_fault(monkeypatch):
    """Shift the covariance route of the single-relay check (the route whose
    conditioned covariances are 2x2) up by one bit. The best alpha stays at
    0, so only the check's route agreement can catch it."""
    real = selftest._covariance_route

    def shifted(rows, variances, keep, given, noises):
        bits = real(rows, variances, keep, given, noises)
        return [tuple(v + 1.0 for v in row) for row in bits] if len(keep) == 2 else bits

    monkeypatch.setattr(selftest, "_covariance_route", shifted)
