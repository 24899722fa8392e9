"""The scan kernel, certified-vs-exact agreement, escalation."""

import numpy as np
import pytest

import rotn.scan
from rotn.exactreal import SurdReal, parse_cf
from rotn.scan import backend_name, kernel_for, orbit_scan

A = parse_cf("[0;5,(6)]").value
HALF = SurdReal(1, 0, 2)


def test_backend_selection(monkeypatch):
    assert backend_name() == "python"
    kernel = kernel_for(backend_name())
    assert kernel is rotn.scan.scan_kernel
    with pytest.raises(ImportError):
        kernel_for("cython")
    with pytest.raises(ValueError):
        kernel_for("fortran")
    # the certified scan runs that same kernel
    calls = []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rotn.scan, "scan_kernel", spy)
    orbit_scan(HALF, A, 10, policy="certified")
    assert len(calls) == 1


def test_certified_agrees_with_exact():
    n = 10**5
    fast = orbit_scan(HALF, A, n, policy="certified")
    slow = orbit_scan(HALF, A, n, policy="exact")
    assert np.array_equal(fast.signs, slow.signs)
    assert np.array_equal(fast.sums, slow.sums)
    assert np.all(np.abs(fast.positions - slow.positions)
                  <= fast.radius_bound + 1e-12)


def test_backward_scan_sums():
    x = (1 + A) / 2
    fwd = orbit_scan(x, A, 200, policy="exact")
    back = orbit_scan(x, A, 200, direction=-1, policy="exact")
    # this seed is symmetric, so backward sums equal forward sums
    assert np.array_equal(back.sums, fwd.sums)
    assert back.sums[0] == 0
    # backward positions walk the inverse rotation
    for n in (1, 7, 199):
        assert abs(back.positions[n] - float((x + A * -n).frac())) \
            <= back.radius_bound + 1e-12


def test_escalation_is_observable_and_correct():
    x = HALF + SurdReal(1) / 2**80  # floats cannot see this offset
    scan = orbit_scan(x, A, 10, policy="certified")
    assert 0 in scan.escalated
    assert scan.signs[0] == -1  # exactly on the right of the split
    below = HALF - SurdReal(1) / 2**80
    scan2 = orbit_scan(below, A, 10, policy="certified")
    assert scan2.signs[0] == 1
    assert np.array_equal(scan.sums[1:], 0 + np.cumsum(scan.signs[:-1]) + 0)


def test_radius_model_is_honest():
    n = 10**6
    scan = orbit_scan(HALF, A, n, policy="certified")
    exact = orbit_scan(HALF, A, n, policy="exact")
    assert scan.radius_bound < 1e-6
    err = np.abs(scan.positions - exact.positions)
    # true float error must sit inside the claimed radius everywhere
    assert float(err.max()) <= scan.radius_bound


def test_policy_validation():
    with pytest.raises(ValueError):
        orbit_scan(HALF, A, 10, policy="sloppy")
    with pytest.raises(ValueError):
        orbit_scan(HALF, A, -1)
    with pytest.raises(ValueError):
        orbit_scan(HALF, A, 10, direction=0)
