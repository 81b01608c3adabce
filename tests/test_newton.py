"""The Newton step's LAPACK path against ``np.linalg.solve``, bit for bit,
the Armijo constant each Newton loop takes from its potentials, and the
stopping rule of ``newton.minimize`` against the loop that tested every step
by Armijo before its gradient."""

import math
import warnings

import numpy as np
import pytest

from splitflow import newton
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.errors import NumericalError
from splitflow.models import make_model
from splitflow.partitions import build_partition


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
    for R in (singular, singular.rescaled(), singular.rescaled().rescaled()):
        assert newton.armijo_constant(R) == 0.25
        assert newton.armijo_constant(smooth[0], R) == 0.25
    for R in smooth:
        assert newton.armijo_constant(R) == newton.ARMIJO == 1e-4
    assert newton.armijo_constant(*smooth) == newton.ARMIJO


def minimize_reference(x, gradient, hessian, objective, tol, *, name, chain=1.0,
                       max_iter=100, armijo=newton.ARMIJO):
    """``newton.minimize`` as it was before a trial within tolerance ended
    the solve: every step passes the Armijo search, and the next pass takes
    the gradient at the state it accepted."""
    f = None
    for it in range(max_iter):
        g, held = gradient(x)
        res = math.sqrt(g.dot(g))
        if not math.isfinite(res):
            raise NumericalError(f"{name} diverged", iterations=it, best=x)
        if res <= tol:
            return x, held, it, res
        step = newton.newton_step(hessian(x, held), g)
        if f is None:
            f = objective(x)
        slope = chain * float(g @ step)
        alpha = 1.0
        for _ in range(newton._BACKTRACKS):
            trial = x + alpha * step
            f_trial = objective(trial)
            if newton.accepts(f_trial, f, alpha, slope, armijo):
                x, f = trial, f_trial
                break
            alpha *= 0.5
        else:
            x = x + step
            f = objective(x)
    raise NumericalError(f"{name} stagnated", iterations=max_iter, best=x)


class Counted:
    """The callbacks of a scalar problem, given by its derivatives, that
    count the objective's evaluations and record where gradients are taken."""

    def __init__(self, f, d1, d2):
        self.f, self.d1, self.d2 = f, d1, d2
        self.objectives, self.gradients = 0, []

    def gradient(self, x):
        self.gradients.append(float(x[0]))
        return np.array([self.d1(x[0])]), None

    def hessian(self, x, held):
        return np.array([[self.d2(x[0])]])

    def objective(self, x):
        self.objectives += 1
        return self.f(x[0])

    def minimize(self, loop, x0, tol, max_iter=100):
        return loop(np.array([x0]), self.gradient, self.hessian, self.objective, tol,
                    name="test solve", max_iter=max_iter)


def _quadratic():
    # the Newton step from any start lands on the minimizer 0.3 to rounding
    return Counted(lambda x: 2.0 * (x - 0.3) ** 2, lambda x: 4.0 * (x - 0.3), lambda x: 4.0)


def test_a_first_full_step_within_tolerance_evaluates_no_objective():
    problem = _quadratic()
    x, _, it, res = problem.minimize(newton.minimize, 1.7, 1e-10)
    assert (it, problem.objectives) == (1, 0)
    assert res <= 1e-10 and x[0] == pytest.approx(0.3, abs=1e-12)
    assert problem.gradients == [1.7, x[0]]
    reference = _quadratic()
    assert x.tobytes() == reference.minimize(minimize_reference, 1.7, 1e-10)[0].tobytes()
    assert reference.objectives == 2  # the Armijo pair


def test_an_accepted_full_step_keeps_the_gradient_of_its_trial():
    # on x^4/4 every Newton step is the full step to 2/3 of the state
    def make():
        return Counted(lambda x: x**4 / 4.0, lambda x: x**3, lambda x: 3.0 * x**2)

    problem, reference = make(), make()
    x, _, it, res = problem.minimize(newton.minimize, 1.0, 1e-6)
    expected = reference.minimize(minimize_reference, 1.0, 1e-6)
    assert (it, res, x.tobytes()) == (expected[2], expected[3], expected[0].tobytes())
    # one gradient per iterate, as in the reference, and no objective at the last
    assert problem.gradients == reference.gradients and len(problem.gradients) == it + 1
    assert problem.objectives == reference.objectives - 1 == it


def test_an_ascent_step_onto_a_maximum_goes_to_the_line_search():
    # f = x^4/4 - x^2/2 is concave at 0.1: the Newton step goes uphill onto the
    # maximum at 0, where the gradient is within the tolerance
    def make():
        return Counted(lambda x: x**4 / 4.0 - x**2 / 2.0, lambda x: x**3 - x,
                       lambda x: 3.0 * x**2 - 1.0)

    problem, reference = make(), make()
    x, _, it, res = problem.minimize(newton.minimize, 0.1, 1e-2)
    expected = reference.minimize(minimize_reference, 0.1, 1e-2)
    # no shorter step decreases f either: the search runs out and takes the
    # full step, whose gradient the next pass tests
    assert problem.objectives == reference.objectives == 2 + newton._BACKTRACKS
    assert (it, res, x.tobytes()) == (expected[2], expected[3], expected[0].tobytes())


def test_a_trial_whose_gradient_is_nan_goes_to_the_line_search():
    # (x - 1)^2 / 2 behind a wall at 1: the full step lands on the wall, where
    # the gradient is NaN and the objective inf, so each step is halved
    def make():
        return Counted(lambda x: (x - 1.0) ** 2 / 2.0 if x < 1.0 else math.inf,
                       lambda x: x - 1.0 if x < 1.0 else math.nan, lambda x: 1.0)

    problem, reference = make(), make()
    x, _, it, res = problem.minimize(newton.minimize, 0.0, 1e-6)
    expected = reference.minimize(minimize_reference, 0.0, 1e-6)
    assert 1.0 in problem.gradients and 1.0 not in reference.gradients
    assert x[0] == 1.0 - 2.0**-20 and res <= 1e-6
    assert (it, res, x.tobytes()) == (expected[2], expected[3], expected[0].tobytes())
    assert problem.objectives == reference.objectives


def test_a_trial_within_tolerance_at_the_last_step_still_raises():
    problem = _quadratic()
    with pytest.raises(NumericalError, match="test solve stagnated") as failure:
        problem.minimize(newton.minimize, 1.7, 1e-10, max_iter=1)
    assert failure.value.iterations == 1
    assert failure.value.best[0] == pytest.approx(0.3, abs=1e-12)
    assert problem.gradients == [1.7]  # the last trial is not tested
    assert problem.objectives == 2


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_the_stopping_rule_keeps_every_run_bit_for_bit(p, scheme, monkeypatch):
    def run(loop):
        objectives = [0]

        def counted(x, gradient, hessian, objective, *args, **kwargs):
            def counted_objective(u):
                objectives[0] += 1
                return objective(u)

            return loop(x, gradient, hessian, counted_objective, *args, **kwargs)

        monkeypatch.setattr(newton, "minimize", counted)
        preset = make_model("allen-cahn-1d", p=p)
        out = sv.solve(preset.system, scheme, build_partition(1.0, N=16), preset.u0,
                       1e-10, 8)
        arrays = (out.u_const.values, out.u_linear.values, out.xi.cell_values,
                  np.array(out.stats["inner_iterations"]))
        return [a.tobytes() for a in arrays], objectives[0]

    minimize = newton.minimize
    bits, objectives = run(minimize)
    expected, reference_objectives = run(minimize_reference)
    assert bits == expected
    assert objectives < reference_objectives
