"""The Newton step's LAPACK path against ``np.linalg.solve``, bit for bit,
and the Armijo constant each Newton loop takes from its potentials."""

import warnings

import numpy as np
import pytest

from splitflow import newton
from splitflow import potentials as pt


def step_reference(H, g):
    """The Newton step through ``np.linalg.solve``; a singular H steps along -g."""
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return -g


@pytest.mark.parametrize("dim", range(1, 34))
def test_step_equals_linalg_solve_bit_for_bit(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    cases = []
    for _ in range(10):
        M = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-3.0, 3.0)
        g = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        for H in (M @ M.T + 1e-3 * np.eye(dim), M + M.T):  # SPD, indefinite
            cases.append((H, g, np.linalg.solve(H, -g)))

    def no_fallback(*args):
        raise AssertionError("a finite solve fell back to np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", no_fallback)
    for H, g, expected in cases:
        assert newton.newton_step(H, g).tobytes() == expected.tobytes()


@pytest.mark.parametrize("H, g", [
    (np.zeros((3, 3)), np.array([1.0, -2.0, 0.5])),  # singular: the gradient step
    (np.ones((2, 2)), np.array([1.0, 0.0])),
    (np.array([[1e-300]]), np.array([1e300])),  # a solve that overflows
    (np.eye(2), np.array([np.nan, 1.0])),
])
def test_a_step_that_is_not_finite_takes_the_reference_path(H, g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = step_reference(H, g)
        assert newton.newton_step(H, g).tobytes() == expected.tobytes()


def test_only_a_power_below_two_asks_for_a_quarter_of_the_decrease():
    singular = pt.PowerNorm(1.5, np.ones(2))
    smooth = [pt.PowerNorm(2.0, np.ones(2)), pt.PowerNorm(3.0, np.ones(2)),
              pt.QuadraticForm(np.eye(2)), pt.AnisotropicDualQuadratic(np.ones(2))]
    for R in (singular, pt.Rescaled(singular), pt.Rescaled(pt.Rescaled(singular))):
        assert newton.armijo_constant(R) == 0.25
        assert newton.armijo_constant(smooth[0], R) == 0.25
    for R in smooth:
        assert newton.armijo_constant(R) == newton.ARMIJO == 1e-4
    assert newton.armijo_constant(*smooth) == newton.ARMIJO
