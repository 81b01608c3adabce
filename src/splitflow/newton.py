"""Damped Newton iteration shared by the incremental minimizations and the
inf-convolution decomposition.

Every Newton loop of the package accepts a step by one Armijo test,
:func:`accepts`.  Its slack absorbs the rounding of the objective: close to
a minimizer the decrease still owed falls below the rounding of f, where a
test without slack would backtrack to a zero step.  Each loop takes the
constant of that test from its potentials once, by :func:`armijo_constant`.

:func:`minimize` stops on the gradient's norm, so it tests a descent step's
full-step trial by its gradient first and ends there without the Armijo
test, whose objective values it would not use.  The batched decomposition
(``potentials._decompose_newton``) tests every step: its rows stop on a
duality gap, which needs the objective at the accepted trial anyway, so the
test costs it no evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

try:  # numpy's private LAPACK gufunc; np.linalg.solve is the fallback
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:  # pragma: no cover
    _solve1 = None

# objective differences below 16 eps (1 + |f0|) count as decreases
_SLACK = float(16.0 * np.finfo(float).eps)
ARMIJO = 1e-4
_BACKTRACKS = 40

# Armijo constant of a loop over a potential whose curvature is unbounded at
# 0, a PowerNorm with p < 2.  A Newton step on |x|^p jumps across the kink (to
# -x at p = 1.5), and with the default constant the iterates jump back and
# forth; asking for a quarter of the predicted decrease halves such a step
# instead.  Potentials of bounded curvature keep the default and its iterates.
_SINGULAR_ARMIJO = 0.25


def _singular_curvature(R):
    """True for a PowerNorm with p < 2."""
    from .potentials import PowerNorm  # potentials imports this module

    return isinstance(R, PowerNorm) and R.p < 2.0


def armijo_constant(*potentials):
    """The Armijo constant of a Newton loop over ``potentials``."""
    return _SINGULAR_ARMIJO if any(map(_singular_curvature, potentials)) else ARMIJO


def accepts(f, f0, alpha, slope, armijo=ARMIJO):
    """Armijo sufficient decrease of the step of length ``alpha``, up to rounding.

    ``f0`` is the objective at the start, ``f`` at the trial point and
    ``slope`` the directional derivative at the start along the full step;
    ``armijo`` is the share of the predicted decrease asked for.  Arrays of
    rows are tested row by row.
    """
    return f <= f0 + armijo * alpha * slope + _SLACK * (1.0 + abs(f0))


def newton_step(H, g):
    """The Newton step -H^-1 g for one system, or for each system of a stack.

    The LAPACK gufunc behind ``np.linalg.solve`` solves every system, called
    without that function's per-call checks, so a finite step is the same
    bits.  A singular H leaves a step that is not finite, and so does every
    system when numpy lacks the gufunc: such a system is solved again by
    ``np.linalg.solve``, and one that it finds singular steps along -g.
    """
    if _solve1 is None:  # pragma: no cover
        step = np.full(np.shape(g), math.nan)
    else:
        with np.errstate(all="ignore"):
            step = _solve1(H, -g, signature="dd->d")
    if g.ndim == 1:
        return step if math.isfinite(step.dot(step)) else _solve_or_gradient_step(H, g)
    for i in np.flatnonzero(~np.isfinite(step).all(axis=-1)):
        step[i] = _solve_or_gradient_step(H[i], g[i])
    return step


def _solve_or_gradient_step(H, g):
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return -g


def minimize(x, gradient, hessian, objective, tol, *, name, chain=1.0, max_iter=100,
             armijo=ARMIJO):
    """Damped Newton from ``x`` until the gradient's norm is at most ``tol``.

    ``gradient(x)`` returns ``(g, held)``: the gradient divided by the
    positive factor ``chain``, and whatever the caller wants back at the
    solution.  ``hessian(x, held)`` returns the Hessian divided by ``chain``,
    so that the objective's derivative along a step s is ``chain * g @ s``.

    Each step first takes the gradient at the full Newton step: a descent
    step whose trial is within ``tol`` ends the solve there, and
    ``objective(x)`` is not evaluated.  Otherwise the step is accepted by
    :func:`accepts` with the constant ``armijo``, backtracking from the full
    step; a line search that runs out takes the full step: its objective
    differences are then below rounding.  An accepted full step keeps the
    gradient taken at its trial.  A solve that converges at ``x`` or at its
    first full step thus evaluates no objective.  Returns ``(x, held,
    iterations, residual)``; raises :class:`NumericalError` with the
    iterate as ``best``, and the message ``name`` followed by "diverged" at
    a residual that is not finite, or by "stagnated" after ``max_iter``
    steps.
    """
    f = g = None
    for it in range(max_iter):
        if g is None:
            g, held = gradient(x)
        res = math.sqrt(g.dot(g))
        if not math.isfinite(res):  # an infinite tol would take it
            raise NumericalError(f"{name} diverged", iterations=it, best=x)
        if res <= tol:
            return x, held, it, res
        step = newton_step(hessian(x, held), g)
        slope = chain * float(g @ step)
        full = trial = x + step
        g = None
        # the trial of the last step is not tested: the solve raises there
        if slope < 0.0 and it + 1 < max_iter:
            g, held = gradient(full)
            res = math.sqrt(g.dot(g))
            if res <= tol:  # a gradient that is not finite goes on to the search
                return full, held, it + 1, res
        if f is None:
            f = objective(x)
        alpha = 1.0
        for _ in range(_BACKTRACKS):
            f_trial = objective(trial)
            if accepts(f_trial, f, alpha, slope, armijo):
                x, f = trial, f_trial
                break
            alpha *= 0.5
            trial = x + alpha * step
        else:
            x = full
            f = objective(x)
        if x is not full:
            g = None
    raise NumericalError(f"{name} stagnated", iterations=max_iter, best=x)
