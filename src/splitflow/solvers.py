"""Scheme solvers: split-step, alternating minimizing movements, block
staggered schemes, and the effective inf-convolution flow.

All schemes advance a gradient system (energy E, dissipation potentials
R1, R2) over a partition.  Alternating schemes work with the rescaled
potentials R~_j(v) = 2 R_j(v/2), ``R_j.rescaled()`` (a potential of R_j's
own kind), on semi-intervals of length tau/2, so that each half-step moves
like a full step of the unrescaled potential; the effective solver performs
minimizing movements for the inf-convolution of R1 and R2 over full steps.

For the pairing of the max-norm energy with anisotropic dual-quadratic
potentials the single-mechanism flows are piecewise affine and are solved
exactly: velocities are read from the dual rate map applied to the active
subdifferential face and regime switches happen at analytically computed
crossing times.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import newton
from .energies import EnergySpec, MaxNormEnergy, QuadraticBlockEnergy
from .errors import ConfigurationError, Frozen, InputError, NumericalError
from .partitions import (
    DEFAULT_INNER_FACTOR,
    Partition,
    RefinedGrid,
    SampledCurve,
)
from .potentials import (
    AnisotropicDualQuadratic,
    BlockIndicator,
    InfConvolution,
    Potential,
    _is_diagonal,
)

__all__ = [
    "GradientSystem",
    "SCHEMES",
    "SchemeOutput",
    "SegmentArrays",
    "prox_step",
    "substep_flow",
    "solve",
    "split_step_solve",
    "amm_solve",
    "effective_solve",
    "effective_potential",
    "time_to_zero",
]


class GradientSystem(Frozen):
    """Energy plus two dissipation potentials.

    ``block_layout`` is read off the pair once: ``(n_y, n_z)`` when ``r1``
    is a :class:`BlockIndicator` active on ``0..n_y-1`` and ``r2`` one active
    on ``n_y..dim-1``, else None.  Split and AMM runs of a system with a
    block layout are the staggered block schemes.

    Systems hash and compare by identity: their potentials hold arrays, and
    two systems built alike are still two systems.
    """

    def __init__(self, energy: EnergySpec, r1: Potential, r2: Potential):
        for r, name in ((r1, "r1"), (r2, "r2")):
            if r.dim != energy.dim:
                raise ConfigurationError(f"{name} dimension disagrees with the energy")
        for name, val in (("energy", energy), ("r1", r1), ("r2", r2),
                          ("block_layout", _block_layout(r1, r2))):
            object.__setattr__(self, name, val)

    @property
    def dim(self):
        return self.energy.dim

    def block_indices(self):
        """The index ranges of the blocks y and z, as slices."""
        n_y, n_z = self.block_layout
        return slice(0, n_y), slice(n_y, n_y + n_z)


def _block_layout(r1, r2):
    """``(n_y, n_z)`` when r1 and r2 are block indicators on the contiguous
    blocks y = 0..n_y-1 and z = n_y..dim-1 of the state, else None."""
    if not (isinstance(r1, BlockIndicator) and isinstance(r2, BlockIndicator)):
        return None
    n_y = r1.active.size
    blocks = np.arange(n_y), np.arange(n_y, r1.dim)
    if not all(np.array_equal(r.active, b) for r, b in zip((r1, r2), blocks)):
        return None
    return n_y, r2.active.size


class SegmentArrays(Frozen):
    """The affine segments of an exactly solved flow, one row per segment:
    on [t0, t1] the state is u0 + (t - t0) velocity and the force xi;
    ``first`` flags the segments of mechanism 1.  The segments follow each
    other in time, so ``t0`` and ``t1`` are increasing."""

    def __init__(self, t0, t1, u0, velocity, xi, first):
        for name, val in (("t0", t0), ("t1", t1), ("u0", u0), ("velocity", velocity),
                          ("xi", xi), ("first", first)):
            object.__setattr__(self, name, val)

    def __len__(self):
        return len(self.t0)


class SchemeOutput:
    """Interpolants, forces, and statistics of one scheme run.

    ``step_cells`` is the number of grid cells that each prox step holds (1
    for exact flows), so cell i belongs to the step that started from node
    ``i - i % step_cells``, its anchor.  An exact flow also carries its
    ``segments``; for every other run they are None.
    """

    def __init__(self, scheme: str, partition: Partition, grid: RefinedGrid,
                 u_const: SampledCurve, u_delayed: SampledCurve, u_linear: SampledCurve,
                 xi: SampledCurve, step_cells: int = 1, segments: SegmentArrays = None,
                 stats: dict = None):
        self.scheme = scheme
        self.partition = partition
        self.grid = grid
        self.u_const = u_const
        self.u_delayed = u_delayed
        self.u_linear = u_linear
        self.xi = xi
        self.step_cells = step_cells
        self.segments = segments
        self.stats = {} if stats is None else stats

    @property
    def inner_tol(self):
        return self.stats.get("tol", 0.0)

    @property
    def is_movement(self):
        """True for alternating minimizing movements (amm, block-amm).

        Their states are the piecewise-constant interpolant, they solve two
        prox problems per step, and they satisfy the balance only as an
        inequality.
        """
        return self.scheme in ("amm", "block-amm")

    @cached_property
    def rate(self):
        """Piecewise-constant rate of the linear interpolant, taken once."""
        return self.u_linear.derivative()

    def node_states(self):
        """Trajectory values at the partition nodes."""
        return self.u_linear.at(self.partition.nodes)


# ---------------------------------------------------------------------------
# Incremental minimization (prox) steps
# ---------------------------------------------------------------------------


class _ProxStats:
    __slots__ = ("iterations", "residual", "method")

    def __init__(self, iterations, residual, method):
        self.iterations = iterations
        self.residual = residual
        self.method = method


def prox_step(E: EnergySpec, R: Potential, t_eval, anchor, h, tol=1e-10):
    """One incremental minimization u in Argmin h R((u - anchor)/h) + E(t, u).

    Returns (u, xi) with xi the Euler-Lagrange force, an element of
    dE(t_eval, u) whose negative lies in dR((u - anchor)/h).
    """
    return _prox(E, R, t_eval, anchor, h, tol)[:2]


def _prox(E, R, t, anchor, h, tol):
    """The checked prox: ``(u, xi, stats)`` of one solve by a fresh kernel."""
    h = float(h)
    if h <= 0:
        raise InputError("prox step size must be positive")
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    if anchor.size != E.dim:
        raise InputError("anchor dimension disagrees with the energy")
    return _prox_kernel(E, R)(E, t, anchor, h, tol)


def _prox_kernel(E, R, name=None):
    """The prox method for the kinds of E and R, with what it needs of them
    taken once: a callable ``kernel(E, t, anchor, h, tol) -> (u, xi, stats)``.

    The choice depends only on the kinds, so a step plan resolves it once
    per run and calls the kernel on every cell.  What does not change from
    cell to cell is taken here too: for a quadratic energy and a potential
    that is quadratic or has shrinkage parts, the energy's Hessian and the
    potential's metric (:class:`_ActiveSet`); the constant Hessian parts of
    R (or of its members) and E for Newton, and R's value, gradient and
    Hessian diagonal at v = 0.
    A block step's kernel may be called with another frozen view of the same
    energy; the parts do not depend on the frozen values.  An
    inf-convolution of complementary block indicators is the block sum
    (:class:`_BlockSum`).  Kinds that no method covers raise
    :class:`InputError`.

    ``name`` names the problem in a failed solve's errors; by default an
    inf-convolution's is "effective prox", any other kind's "incremental
    minimization".  Every kernel but the max-norm one is warm
    (see :func:`_prox_newton` and :class:`_ActiveSet`), so one kernel serves
    one sequence of solves of a run; a Newton kernel's Armijo constant is
    taken from its potentials here.  :func:`prox_step` builds a fresh
    kernel per call and so always starts cold.
    """
    if name is None:
        name = "effective prox" if isinstance(R, InfConvolution) else "incremental minimization"
    kind, members = type(R).__name__, (R,)
    blocks = R._complementary_blocks() if isinstance(R, InfConvolution) else None
    if blocks is not None:
        R = _BlockSum(*blocks)
        members = R.bases
    try:
        if isinstance(R, InfConvolution) and R.quadratic_matrix() is None:
            left, right = R.left, R.right
            parts = (left.hess_constant(), right.hess_constant(), E.hess_constant())
            return partial(_infconv_prox, left, right, parts,
                           newton.armijo_constant(left, right), _Warm(), name=name)

        if isinstance(E, MaxNormEnergy):
            VR = R.quadratic_matrix()
            if VR is None or not _is_diagonal(VR):
                raise InputError("max-norm prox requires a diagonal quadratic potential")
            # dual weights: dual_rate(xi) = c * xi
            return partial(_prox_maxnorm, R, VR, (1.0 / np.diag(VR)).tolist())

        metric = _metric(R) if _energy_is_quadratic(E) else None
        if metric is not None:
            # the loads are linear, so one Hessian holds at every time and state
            return _ActiveSet(E.hess_constant(), *metric, name)

        parts, zero = (R.hess_constant(), E.hess_constant()), np.zeros(E.dim)
        R_at_zero = (R._eval(zero), R._grad(zero), R._hess_diagonal(zero))
        fixed = []  # the constant curvature of a quadratic block on a quadratic energy
        if isinstance(R, _BlockSum) and _energy_is_quadratic(E):
            fixed = [(parts[1][np.ix_(idx, idx)], V) for base, idx in zip(R.bases, R.indices)
                     if (V := base.quadratic_matrix()) is not None]
        return partial(_prox_newton, R, parts, R_at_zero, newton.armijo_constant(*members),
                       _Warm(), name=name, fixed=fixed)
    except NotImplementedError as exc:  # a kind without the smooth parts Newton needs
        raise InputError(f"no prox method for {kind} on {type(E).__name__}: {exc}") from None


def _energy_is_quadratic(E):
    return isinstance(E, QuadraticBlockEnergy) or (
        isinstance(E, _FrozenBlockEnergy) and _energy_is_quadratic(E.base)
    )


def _metric(R):
    """``(M, sigma)`` of a potential that is quadratic, R(v) = <Mv, v>/2
    with sigma = 0, or has shrinkage parts, R(v) = sum_i sigma_i |v_i| +
    q_i v_i^2 / 2 with M = diag(q); block-diagonal for a block sum whose
    bases both have one; None for any other kind."""
    if isinstance(R, _BlockSum):
        metrics = [_metric(base) for base in R.bases]
        return None if None in metrics else tuple(map(R.join, zip(*metrics)))
    M = R.quadratic_matrix()
    if M is not None:
        return M, np.zeros(len(M))
    parts = R.shrinkage_parts()
    return None if parts is None else (np.diag(parts[1]), parts[0])


def _positive_definite(K, h):
    """K, the curvature of a prox step of size h, once it has shown positive
    definite: a matrix by a Cholesky factorization, the diagonal of a
    diagonal one entry by entry.  Otherwise the step's objective is
    unbounded below or has no unique minimizer, and the step ends in a
    one-line ``NumericalError`` that names h."""
    if K.ndim == 1:
        definite = bool((K > 0.0).all())
    else:
        try:
            np.linalg.cholesky(K)
            definite = True
        except np.linalg.LinAlgError:
            definite = False
    if not definite:
        raise NumericalError(f"prox step of size {h:.6g} has no unique minimizer: "
                             "its curvature is not positive definite")
    return K


def _shrinkage_excess(smooth, d, sigma_w):
    """The optimality residual at d of sum_i sigma_i |d_i| plus a smooth
    part whose gradient at d is ``smooth`` is the norm of this vector, the
    distance of -smooth from the subdifferential of the weighted l1 term
    coordinate by coordinate, for one d or a batch of rows:
    |smooth + sigma sign(d)| where d != 0, max(|smooth| - sigma, 0) where
    d = 0, in one expression."""
    return np.maximum(np.abs(smooth + sigma_w * np.sign(d)) - sigma_w * (d == 0.0), 0.0)


class _ActiveSet:
    """The quadratic-plus-l1 kernel: a step of size h minimizes
    d^T K d / 2 + c^T d + sum_i sigma_i |d_i| in d = u - anchor, with
    K = H + M / h and c the energy's gradient at the anchor, by
    :func:`_active_set`.  ``H`` is the energy's constant Hessian, ``M`` the
    metric (V of a quadratic potential, diag(q) of shrinkage parts
    (sigma, q), block-diagonal for a block sum) and ``sigma`` 0 on
    quadratic coordinates.  ``matrices`` keeps, per h, K after the test
    :func:`_positive_definite` and the inverses of its free parts;
    ``signs`` is the last step's sign pattern, where the next one starts.

    A call ``kernel(E, t, anchor, h, tol) -> (u, xi, stats)`` measures one
    residual, the norm of :func:`_shrinkage_excess` of M d / h + xi: one
    that is not finite ends in "<name> diverged", one above
    ``tol (1 + |anchor|)`` in "<name> stagnated".  The iterations are the
    solves.
    """

    __slots__ = ("H", "M", "sigma", "name", "matrices", "signs")

    def __init__(self, H, M, sigma, name):
        self.H, self.M, self.sigma, self.name = H, M, sigma, name
        self.matrices, self.signs = {}, None

    def matrix(self, h):
        """``(K, inverses)`` for the step size h."""
        found = self.matrices.get(h)
        if found is None:
            found = self.matrices[h] = _positive_definite(self.H + self.M / h, h), {}
        return found

    def increment(self, x, c, h):
        """``(x + d, d, solves)``: the step of size h from the state x, at
        which the energy's gradient is c."""
        K, inverses = self.matrix(h)
        d, signs, solves = _active_set(K, c, self.sigma, self.signs, inverses)
        u = x + d
        if signs is None:
            raise NumericalError(f"{self.name} stagnated", iterations=solves, best=u)
        self.signs = signs
        return u, d, solves

    def __call__(self, E, t, anchor, h, tol):
        u, d, solves = self.increment(anchor, E._grad(t, anchor), h)
        xi = E._grad(t, u)
        res = float(np.linalg.norm(_shrinkage_excess(self.M @ d / h + xi, d, self.sigma)))
        if not math.isfinite(res):  # an infinite scale would take it
            raise NumericalError(f"{self.name} diverged", iterations=solves, best=u)
        if res > tol * (1.0 + float(np.linalg.norm(anchor))):
            raise NumericalError(f"{self.name} stagnated", iterations=solves, best=u)
        return u, xi, _ProxStats(solves, res, "active-set")


# The solves of the active-set method before a coordinate-descent sweep
# restarts it (:func:`_active_set`): K need not be an M-matrix, so a sign
# pattern may cycle.  Of the 13,496 steps of 2,000 drawn block systems (the
# draws of the block property test), none took more than 4.
_ACTIVE_SET_SOLVES = 8
# The most sweeps of one step, four times the most measured: of 100,000
# drawn problems (dense positive definite H + diag(q) / h of dimensions 1 to
# 16 with h up to 10, sigma = 0 on some coordinates), 3,921 needed a sweep,
# and the most took 32 sweeps and 257 solves.
_ACTIVE_SET_SWEEPS = 128


def _active_set(K, c, sigma, signs, inverses):
    """The minimizer d of d^T K d / 2 + c^T d + sum_i sigma_i |d_i| for a
    positive definite K, by the primal-dual active-set method, a semismooth
    Newton method (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13 (2002)
    865-888).  Returns ``(d, signs, solves)``, with signs None when no
    pattern has repeated after ``_ACTIVE_SET_SWEEPS`` restarts.

    A sign pattern s of the yield coordinates (sigma_i > 0) sets d_i = 0
    where s_i = 0 and solves K_FF d_F = -(c + sigma s)_F on the other
    coordinates F, by the inverse of K_FF kept in ``inverses`` per F.  The
    next pattern is that of the coordinate-wise minimizers, read off
    w = diag(K) d - (K d + c): sign(w_i) where |w_i| > sigma_i.  When it
    repeats, d is the minimizer.  The first pattern is ``signs``, or when
    that is None the one read off w = -c at d = 0.

    A pattern that has not repeated after ``_ACTIVE_SET_SOLVES`` solves
    may cycle: the method restarts from the signs of one coordinate-descent
    sweep (:func:`_coordinate_sweep`) from x, the point of least objective
    since the first restart (d = 0 there).  Each sweep shrinks the gap to
    the least objective by a factor below one, so x converges to the
    minimizer and its signs become the minimizer's.
    """
    yields, diagonal = sigma > 0.0, np.diag(K)

    def pattern(w):
        return np.sign(w) * ((np.abs(w) > sigma) & yields)

    def objective(d):
        return d @ (0.5 * (K @ d) + c) + sigma @ np.abs(d)

    s = pattern(-c) if signs is None else signs
    x = f = None  # the point of least objective since the first restart, and its value
    solves = 0
    for _ in range(_ACTIVE_SET_SWEEPS + 1):
        for _ in range(_ACTIVE_SET_SOLVES):
            solves += 1
            free = ~yields | (s != 0.0)
            key = free.tobytes()
            if key not in inverses:
                inverses[key] = np.linalg.inv(K[np.ix_(free, free)])
            d = np.zeros_like(c)
            d[free] = -(inverses[key] @ (c + sigma * s)[free])
            last, s = s, pattern(diagonal * d - (K @ d + c))
            if np.array_equal(s, last):
                return d, s, solves
            if x is not None and (value := objective(d)) < f:
                x, f = d, value
        x = _coordinate_sweep(K, c, sigma, np.zeros_like(c) if x is None else x)
        f, s = objective(x), np.sign(x) * yields
    return d, None, solves


def _coordinate_sweep(K, c, sigma, x):
    """One sweep of coordinate descent on d^T K d / 2 + c^T d +
    sum_i sigma_i |d_i| from d = x: each coordinate in turn moves to its
    exact minimizer with the others held."""
    x = np.array(x)
    for i in range(x.size):
        w = K[i, i] * x[i] - (K[i] @ x + c[i])
        x[i] = math.copysign(max(abs(w) - sigma[i], 0.0), w) / K[i, i]
    return x


def _prox_newton(R, parts, R_at_zero, armijo, warm, E, t, anchor, h, tol, max_iter=100, *,
                 name, fixed=()):
    """Damped Newton on u for h R((u - anchor)/h) + E(t, u).

    ``parts`` are the constant Hessian parts of R and E.  Every Hessian of
    the solve is ``R_c / h + E_c`` off the diagonal, so that matrix is made
    once and each step writes its diagonal ``R_ii / h + E_ii``.  Values,
    gradients and diagonals come from the unchecked cores of R and E.
    ``armijo`` is the constant of the line search; ``name`` names the
    problem in the errors of a solve that fails (see :func:`_prox_kernel`).
    ``fixed`` holds ``(E_jj, V_j)`` of each block whose curvature
    E_jj + V_j / h is constant: unless it is positive definite the
    objective is unbounded below there, and the solve ends at once
    (:func:`_positive_definite`).

    ``warm`` is the kernel's state (:class:`_Warm`).  Newton starts at
    ``anchor + h v`` with v the rate that state predicts for t, or at the
    anchor before the first solve and after a solve that took no Newton
    step: at rest, a start that is accepted within the tolerance would
    otherwise be accepted again step after step, and the state would drift.
    A call that repeats a cold solve that took no step returns its result
    again (:func:`_rest_key`).  A warm solve that fails is solved again
    from the anchor (:func:`_warm_or_cold`).

    ``R_at_zero`` holds R's value, gradient and Hessian diagonal at v = 0,
    taken once per kernel, for the solves that start at a finite anchor,
    where v is exactly +0: the first solve, every solve at rest and every
    retry.  A trial's v is kept for the gradient at the same state.
    """
    key, kept = warm.lookup(E, anchor, h, tol)
    if kept is not None:
        return kept
    for E_jj, V in fixed:
        _positive_definite(E_jj + V / h, h)
    H = parts[0] / h + parts[1]
    diagonal = H.reshape(-1)[:: len(H) + 1]
    start = np.array(anchor)
    norm = math.sqrt(anchor.dot(anchor))  # np.linalg.norm's arithmetic
    # the state where R_at_zero holds: none when the anchor may not be finite
    at_zero = start if math.isfinite(norm) else None
    last = [None, None]  # the last state whose v was taken, and its v

    def rate(u):
        if u is not last[0]:
            last[:] = u, (u - anchor) / h
        return last[1]

    def gradient(u):
        xi = E._grad(t, u)
        if u is at_zero:
            return R_at_zero[1] + xi, (None, xi)
        v = rate(u)
        return R._grad(v) + xi, (v, xi)

    def hessian(u, held):
        r_diagonal = R_at_zero[2] if held[0] is None else R._hess_diagonal(held[0])
        diagonal[:] = r_diagonal / h + E._hess_diagonal(t, u)
        return H

    def objective(u):
        if u is at_zero:
            return h * R_at_zero[0] + E._eval(t, u)
        return h * R._eval(rate(u)) + E._eval(t, u)

    def solve(x, limit=max_iter):
        u, (v, xi), it, res = newton.minimize(
            x, gradient, hessian, objective, tol * (1.0 + norm), max_iter=limit,
            armijo=armijo, name=name)
        return v, u, xi, it, res

    return _warm_or_cold(solve, warm, t, key, lambda v: anchor + h * v, start, "newton")


# The most Newton steps a warm solve may take before the cold start takes
# over with the full limit, so that a warm start that stalls does not spend
# that limit.  It stays well above the longest warm solve measured: 54 steps,
# on a drawn p = 1.5 split run of the tests (N = 128, inner 4) whose cold
# retry stalls; no other took more than 19, and none of the bench workloads
# more than 4.
_WARM_ITERATIONS = 80


class _Warm:
    """What a Newton kernel keeps from the solves of its run.

    ``rates`` holds ``(t, v)``, the eval time and the rate of each of the
    kernel's last two solves since it last started cold, oldest first; it
    is empty when the next solve starts cold.  ``rest`` holds ``(key,
    result)`` when the last solve started cold and took no Newton step,
    else None.
    """

    __slots__ = ("rates", "rest")

    def __init__(self):
        self.rates, self.rest = [], None

    def lookup(self, E, anchor, h, tol):
        """The rest key of a solve of E from ``anchor`` (:func:`_rest_key`),
        and the result kept for that key, or None."""
        key, rest = _rest_key(E, anchor, h, tol), self.rest
        return key, (rest[1] if rest is not None and rest[0] == key else None)

    def predict(self, t):
        """The rate to start a solve at time t from: the last rate v_k moved
        on along the last two, v_k + r (v_k - v_{k-1}), by the share
        r = (t - t_k) / (t_k - t_{k-1}) clipped to [0, 1].  With one rate,
        or at r = 0 (a repeated t among them), it is v_k itself."""
        (t0, v0), (t1, v1) = self.rates[0], self.rates[-1]
        r = min(max((t - t1) / (t1 - t0), 0.0), 1.0) if t1 > t0 else 0.0
        return v1 + r * (v1 - v0) if r else v1


def _rest_key(E, anchor, h, tol):
    """What a solve that starts cold and takes no Newton step reads besides
    its kernel's parts, or None when E depends on time.

    Such a solve returns the state at the anchor and the energy's gradient
    there, after one residual test of R's gradient at v = 0 (a part) plus
    that gradient.  For an energy that does not depend on time these are
    the same bits at every t, so the key holds the energy, the anchor's
    bits, h and tol; for a frozen block view, the base energy, the block
    and the frozen block's values, read at the call.
    """
    if E.depends_on_time:
        return None
    if isinstance(E, _FrozenBlockEnergy):
        a, full = E.active, E.full
        frozen = full[: a.start].tobytes() + full[a.stop :].tobytes()
        return E.base, a.start, a.stop, frozen, anchor.tobytes(), h, tol
    return E, anchor.tobytes(), h, tol


def _warm_or_cold(solve, warm, t, key, start_at, cold, method):
    """``(u, xi, stats)`` of ``solve`` from the start that the kernel state
    ``warm`` predicts for time t, else from ``cold``, with ``method`` in the
    stats; updates ``warm`` for the kernel's next solve.

    ``solve(x, limit)`` runs Newton from x for at most ``limit`` steps, by
    default the kernel's full limit, and returns ``(v, u, xi, iterations,
    residual)``, v being the rate it held at u.  A warm start is
    ``start_at(warm.predict(t))``, taken when ``warm.rates`` is not empty.
    If the warm solve fails or needs more than ``_WARM_ITERATIONS`` steps,
    the solve from ``cold`` decides with the full limit, and the iterations
    of both count.

    Then a solve that took a step adds its rate to the rates, which a cold
    start empties first.  A solve that took none empties them, so the next
    solve starts cold; if it started cold, ``warm.rest`` keeps its result
    for ``key``, and else holds None.
    """
    spent, found, rates = 0, None, warm.rates
    if rates:
        try:
            found = solve(start_at(warm.predict(t)), _WARM_ITERATIONS)
        except NumericalError as exc:
            spent = exc.iterations
    started_cold = found is None
    if started_cold:
        found, rates = solve(cold), []
    v, u, xi, it, res = found
    result = u, xi, _ProxStats(it + spent, res, method)
    warm.rates = rates[-1:] + [(t, v)] if it else []
    at_rest = started_cold and not (it + spent) and key is not None
    warm.rest = (key, result) if at_rest else None
    return result


def _prox_maxnorm(R, VR, c, E, t, anchor, h, tol):
    """Exact prox for the max-norm energy with the diagonal quadratic metric VR
    of R, whose dual weights are the floats ``c``.

    The state of a face or axis regime is ``anchor - (h c) xi``, taken in
    floats entry by entry, so that the regime's admission test costs no
    arrays.  When more than one regime is admitted, the candidates are
    scored through the unchecked cores of R and E; a lone candidate is
    returned unscored.
    """
    c1, c2 = c
    hc1, hc2 = h * c1, h * c2
    a1, a2 = anchor.tolist()
    candidates = []  # (priority, u, xi), in the order ties are broken

    # diagonal / antidiagonal faces, both signs
    for anti in (False, True):
        rhs = (a1 + a2) if anti else (a1 - a2)
        for s in (1.0, -1.0):
            theta = (s * rhs / h + c2) / (c1 + c2)
            if not (0.0 <= theta <= 1.0):
                continue
            x1, x2 = s * theta, (-s if anti else s) * (1.0 - theta)
            u1, u2 = a1 - hc1 * x1, a2 - hc2 * x2
            if u1 * s > 0 and abs(u1 + u2 if anti else u1 - u2) <= 1e-12:
                # snap exactly onto the face
                candidates.append((0, [u1, -u1 if anti else u1], [x1, x2]))

    # axis regimes
    for s in (1.0, -1.0):
        u1, u2 = a1 - hc1 * s, a2 - hc2 * 0.0
        if abs(u1) > abs(u2) and math.copysign(1.0, u1) == s:
            candidates.append((1, [u1, u2], [s, 0.0]))
        u1, u2 = a1 - hc1 * 0.0, a2 - hc2 * s
        if abs(u2) > abs(u1) and math.copysign(1.0, u2) == s:
            candidates.append((1, [u1, u2], [0.0, s]))

    # origin; stationarity needs xi in the l1 ball (the true subdifferential
    # at 0, strictly smaller than the reported box)
    xi = VR @ anchor / h
    x1, x2 = xi.tolist()
    if abs(x1) + abs(x2) <= 1.0 + 1e-14:  # np.sum's one addition
        candidates.append((2, np.zeros(2), xi))

    if not candidates:
        raise NumericalError("max-norm prox found no admissible regime", best=anchor)
    if len(candidates) == 1:  # the objective decides nothing
        _, u, xi = candidates[0]
        return np.array(u, dtype=float), np.array(xi, dtype=float), _ProxStats(
            1, 0.0, "maxnorm-cases")
    scored = []  # (priority, F, u, xi)
    for priority, u, xi in candidates:
        u, xi = np.array(u, dtype=float), np.array(xi, dtype=float)
        scored.append((priority, h * R._eval((u - anchor) / h) + E._eval(t, u), u, xi))
    f_min = min(f for _, f, _, _ in scored)
    tol_tie = 1e-12 * (1.0 + abs(f_min))
    best = min(
        (cand for cand in scored if cand[1] <= f_min + tol_tie),
        key=lambda cand: cand[0],
    )
    _, _, u, xi = best
    return u, xi, _ProxStats(1, 0.0, "maxnorm-cases")


# ---------------------------------------------------------------------------
# Exact regime flow for (max-norm energy, anisotropic dual quadratic)
# ---------------------------------------------------------------------------

_ZERO_TOL = 1e-13
# absolute time resolution of the exact flows: a segment ends within it of
# its piece's end, and a cell takes the segment that holds its right end
_TIME_TOL = 1e-15


def _regime_flow(dual_weights, t0, t1, u0, rows, first):
    """Piecewise-affine flow of u' = -dR*(xi), xi in dE(u), on [t0, t1].

    ``dual_weights`` are the dual weights (alpha, beta) of the potential
    actually driving the flow (already rescaled for split sub-steps).
    Extends the flat list ``rows`` by the nine floats ``(t0, t1, u0,
    velocity, xi, first)`` of each affine segment and returns the end state,
    stepped in floats; a step by gamma = 0 (alpha beta underflows), inf or
    NaN in numpy, ends at t1.
    """
    alpha, beta = float(dual_weights[0]), float(dual_weights[1])
    gamma = alpha * beta / (alpha + beta)
    theta = beta / (alpha + beta)
    u1, u2 = map(float, u0)
    t = float(t0)
    # max(1, |u|_inf); a NaN coordinate makes the regime axis2 at any scale
    scale = max(1.0, abs(u1), abs(u2))
    while t < t1 - _TIME_TOL:
        a1, a2, tol = abs(u1), abs(u2), _ZERO_TOL * scale
        kind = ("zero" if a1 <= tol and a2 <= tol else "face" if abs(a1 - a2) <= tol
                else "axis1" if a1 > a2 else "axis2")
        if kind == "zero":
            u1 = u2 = v1 = v2 = x1 = x2 = 0.0
            t_next = t1
        elif kind == "axis1":
            s = math.copysign(1.0, u1)
            x1, x2, v1, v2 = s, 0.0, -alpha * s, 0.0
            t_next = min(t1, t + (a1 - a2) / alpha)
        elif kind == "axis2":
            s = math.copysign(1.0, u2)
            x1, x2, v1, v2 = 0.0, s, 0.0, -beta * s
            t_next = min(t1, t + (a2 - a1) / beta)
        else:  # the diagonal or, where u1 u2 <= 0, the antidiagonal
            s = math.copysign(1.0, u1)
            sign2 = 1.0 if u1 * u2 > 0 else -1.0
            x1, x2 = s * theta, sign2 * s * (1.0 - theta)
            v1, v2 = -gamma * s, -sign2 * gamma * s
            t_next = min(t1, t + a1 / gamma) if gamma else t1
        if t_next <= t:
            t_next = t1
        rows += t, t_next, u1, u2, v1, v2, x1, x2, first
        u1, u2 = u1 + (t_next - t) * v1, u2 + (t_next - t) * v2
        # snap onto the invariant manifold reached at the crossing
        if t_next < t1:
            if kind == "axis1":
                u1 = math.copysign(abs(u2), u1) if abs(u2) > 0 else 0.0
            elif kind == "axis2":
                u2 = math.copysign(abs(u1), u2) if abs(u1) > 0 else 0.0
            else:
                u1 = u2 = 0.0
        t = t_next
    return u1, u2


# ---------------------------------------------------------------------------
# Sub-flows on semi-intervals
# ---------------------------------------------------------------------------


def _exact_flows(times, u0, legs, weights):
    """Concatenated exact regime flows, sampled on a cell grid.

    Each leg ``(t0, t1, mechanism)`` flows from where the previous one
    ended, with the dual weights ``weights[mechanism]``.  Returns the
    states at ``times``, the cell forces and the ``SegmentArrays``.  A cell
    takes the first segment that ends within ``_TIME_TOL`` before its right
    end or later (the last segment if none does), and that segment's force,
    the force every prox path evaluates at the state of the cell's right end.
    """
    # the loop of _regime_flow emits a segment only under this condition
    if any(t0 >= t1 - _TIME_TOL for t0, t1, _ in legs):
        raise InputError(f"exact flows need semi-intervals longer than {_TIME_TOL:g}")
    u, rows = u0, []
    for t0, t1, m in legs:
        u = _regime_flow(weights[m], t0, float(t1), u, rows, float(m == 1))
    rows = np.fromiter(rows, float).reshape(-1, 9)
    seg = SegmentArrays(rows[:, 0], rows[:, 1], rows[:, 2:4], rows[:, 4:6], rows[:, 6:8],
                        rows[:, 8] == 1.0)
    b = times[1:]
    si = np.minimum(np.searchsorted(seg.t1, b - _TIME_TOL), len(seg) - 1)
    # the state of each cell's segment at the cell's right end
    nodes = np.empty((len(times), u0.size))
    nodes[0] = u0
    dt = np.minimum(b, seg.t1[si]) - seg.t0[si]
    nodes[1:] = seg.u0[si] + dt[:, None] * seg.velocity[si]
    return nodes, seg.xi[si], seg


def _require_finite(nodes, forces, n):
    """Raise ``NumericalError`` at the first step that left a state or a
    force that is not finite; step k holds cells k n to (k + 1) n - 1."""
    finite = np.isfinite(nodes[1:]).all(axis=1) & np.isfinite(forces).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) // n
        raise NumericalError(
            f"non-finite state or force at step {step + 1} of {len(finite) // n}"
        )


def _block_step(sys, active, kernel, t_eval, anchor, h, tol):
    """Move the ``active`` block by ``kernel``, with the other block frozen."""
    E_step = _FrozenBlockEnergy(sys.energy, active, anchor)
    u_act, xi_act, st = kernel(E_step, t_eval, anchor[active], h, tol)
    u = np.array(anchor)
    u[active] = u_act
    xi = np.zeros(sys.dim)
    xi[active] = xi_act
    return u, xi, st


class _FrozenBlockEnergy(EnergySpec):
    """View of an energy on one block of its state (y, z), the other block
    frozen at its values in ``full_state``, read when the view is called.
    ``active`` is the block's range: a slice, or contiguous indices."""

    def __init__(self, base, active, full_state):
        if not isinstance(active, slice):
            active = slice(int(active[0]), int(active[-1]) + 1)
        self.base, self.active, self.full = base, active, full_state
        self.shift = base.shift
        self.lambda_convexity = base.lambda_convexity

    @property
    def dim(self):
        return self.active.stop - self.active.start

    @property
    def depends_on_time(self):
        return self.base.depends_on_time

    def _assemble(self, x):
        u = np.array(self.full)
        u[self.active] = x
        return u

    def _eval(self, t, x):
        return self.base._eval(t, self._assemble(x))

    def _grad(self, t, x):
        a = self.active
        if a.start == 0:  # y, or z after an empty y: the core checks the split
            return self.base._block_grad(t, x, self.full[a.stop :], "y")
        return self.base._block_grad(t, self.full[: a.start], x, "z")

    def hess_constant(self):
        return self.base.hess_constant()[self.active, self.active]

    def _hess_diagonal(self, t, x):
        return self.base._hess_diagonal(t, self._assemble(x))[self.active]


class _BlockSum(Potential):
    """R_y(v_y) + R_z(v_z): the inf-convolution of complementary block
    indicators, whose prox moves both blocks at once.  It states the cores
    of a Newton prox, and its Hessian is block-diagonal; ``join`` assembles
    one part per block into the sum's vector or block-diagonal matrix."""

    def __init__(self, *blocks):
        object.__setattr__(self, "bases", tuple(b.base for b in blocks))
        object.__setattr__(self, "indices", tuple(b.active for b in blocks))
        object.__setattr__(self, "dim", blocks[0].dim)

    def join(self, parts):
        out = np.zeros((self.dim,) * parts[0].ndim)
        for idx, part in zip(self.indices, parts):
            out[np.ix_(idx, idx) if part.ndim == 2 else idx] = part
        return out

    def _eval(self, v):
        (Ry, Rz), (y, z) = self.bases, self.indices
        return Ry._eval(v[y]) + Rz._eval(v[z])

    def _grad(self, v):
        return self.join([R._grad(v[idx]) for R, idx in zip(self.bases, self.indices)])

    def hess_constant(self):
        return self.join([R.hess_constant() for R in self.bases])

    def _hess_diagonal(self, v):
        return self.join([R._hess_diagonal(v[idx]) for R, idx in zip(self.bases, self.indices)])


# ---------------------------------------------------------------------------
# Scheme drivers
# ---------------------------------------------------------------------------


# the mechanism of the effective flow, the inf-convolution R1 # R2, beside
# the mechanisms 1 and 2 of a step plan
_EFFECTIVE = 0


def _dual_weights(sys, mechanism):
    """The dual weights of the potential that drives ``mechanism``'s exact
    flow, or None when it has none.

    Only the max-norm energy with anisotropic dual-quadratic potentials has
    exact flows.  Mechanism j flows with R~_j, whose dual weights are twice
    those of R_j (R~* = 2 R*); the effective mechanism flows with R1 # R2,
    whose dual weights are the sum of both ((R1 # R2)* = R1* + R2*).
    """
    if not isinstance(sys.energy, MaxNormEnergy):
        return None
    pair = (sys.r1, sys.r2)
    if mechanism != _EFFECTIVE:
        pair = (pair[mechanism - 1].rescaled(),)
    if not all(isinstance(R, AnisotropicDualQuadratic) for R in pair):
        return None
    return sum(R.dual_weights for R in pair)


def _step(sys, mechanism):
    """The step of ``mechanism``: a per-step kernel ``step(t_eval, anchor,
    h, tol) -> (u, xi, stats)``, or for a block whose kinds
    :func:`_block_leg` covers, a leg kernel (:class:`_BlockLeg`) that steps
    a whole leg per call.

    Mechanism j in (1, 2) steps with the rescaled potential R~_j, on its
    block if the system has a block layout: the other block stays frozen in
    the energy and keeps its anchor values exactly.  Its failed solves say
    "incremental minimization", an inf-convolution's too.  The effective
    mechanism steps with R1 # R2, of blocks the block sum.  The wrappers
    and the prox method are built here, once per run.
    """
    E, name = sys.energy, "incremental minimization"
    if mechanism == _EFFECTIVE:
        return partial(_prox_kernel(E, effective_potential(sys)), E)
    R = (sys.r1, sys.r2)[mechanism - 1]
    if sys.block_layout is None:
        return partial(_prox_kernel(E, R.rescaled(), name), E)
    R = R.base.rescaled()
    leg = _block_leg(sys, mechanism, R)
    if leg is not None:
        return leg
    active = sys.block_indices()[mechanism - 1]
    frozen = _FrozenBlockEnergy(E, active, np.zeros(sys.dim))
    return partial(_block_step, sys, active, _prox_kernel(frozen, R, name))


def _block_leg(sys, mechanism, R):
    """The leg kernel of ``mechanism``'s block (:class:`_BlockLeg`) with the
    rescaled block potential R, or None.

    There is one when the energy is a :class:`QuadraticBlockEnergy` whose
    blocks y and z are the system's, and R is quadratic or has shrinkage
    parts: the kinds that :func:`_prox_kernel` sends to the active-set
    kernel.
    """
    E = sys.energy
    if not (isinstance(E, QuadraticBlockEnergy) and E.n_y == sys.block_layout[0]):
        return None
    return None if _metric(R) is None else _BlockLeg(sys, mechanism, R)


class _BlockLeg:
    """The leg kernel of block j of a quadratic block system, the other
    block o frozen: ``leg(entries, anchor, states, forces, iterations,
    residuals) -> u``.

    A leg is a run of plan entries ``(mechanism, t_eval, h)`` of one
    mechanism.  The kernel steps them from ``anchor``, writes step i's state
    and its block's force into its ``n`` rows of ``states`` and ``forces``
    (the leg's cells, whose forces of the frozen block are 0), appends each
    step's iterations and residual to the lists, and returns the state the
    leg ends at.

    In a leg the frozen block does not move, so the gradient of block j at
    time t is H_jj x + r(t) with r(t) = C x_o - l(t): C is the coupling
    block of the energy and l the block's load.  The kernel takes C x_o
    once per leg and the load at the leg's times as one array, then steps
    the block without a frozen view:

    * a quadratic potential with matrix VR: x <- P x - K^-1 r(t), with
      K = H_jj + VR / h and P = K^-1 VR / h, taken in the equal form
      x - K^-1 (H_jj x + r(t)): the step moves by K^-1 times the gradient
      at its anchor, so its rounding is that of the move, not of the state;
    * shrinkage parts (sigma, q) on a diagonal H_jj: with g = H_jj x + r(t),
      x <- x - sign(g) max(|g| - sigma, 0) / c, with c = diag(H_jj) + q / h,
      taken as x + (clip(g, -sigma, sigma) - g) / c;
    * shrinkage parts on any other H_jj: the active-set kernel's increment
      (:class:`_ActiveSet`) at c = H_jj x + r(t); the closed forms take one
      iteration, this step its solves.

    ``by_h`` keeps K^-1, or c, per step size h, built after the test that
    the step has a unique minimizer (:func:`_positive_definite`).  The
    energy's Hessian is taken once per kernel.  The forces H_jj x + r and
    the residuals are taken for the whole leg in array expressions, the
    residuals as the active-set kernel measures them.
    """

    __slots__ = ("active", "other", "H", "diagonal", "coupling", "load", "VR", "parts",
                 "by_h", "kernel")

    def __init__(self, sys, mechanism, R):
        E = sys.energy
        blocks = sys.block_indices()
        self.active, self.other = blocks[mechanism - 1], blocks[2 - mechanism]
        self.H = E.hess_constant()[self.active, self.active]
        self.diagonal = np.diag(self.H)
        # the matrices of E's block core, so the coupling has its bits
        self.coupling = E.B.T if mechanism == 1 else E.B
        load = E.f if mechanism == 1 else E.g
        self.load = load if E._loaded and not load.is_zero else None
        VR = R.quadratic_matrix()
        parts = R.shrinkage_parts() if VR is None else None
        self.kernel = None
        if parts is not None:
            if not _is_diagonal(self.H):
                self.kernel = _ActiveSet(self.H, *_metric(R), "incremental minimization")
            parts = parts + (-parts[0],)  # sigma, q and the clip's lower bound
        self.VR, self.parts, self.by_h = VR, parts, {}

    def curvature(self, h):
        """The curvature of a step of size h, taken once per h: K^-1 of a
        quadratic block, diag(H_jj) + q / h of a shrinkage block."""
        found = self.by_h.get(h)
        if found is None:
            if self.parts is None:
                found = np.linalg.inv(_positive_definite(self.H + self.VR / h, h))
            else:
                found = _positive_definite(self.diagonal + self.parts[1] / h, h)
            self.by_h[h] = found
        return found

    def __call__(self, entries, anchor, states, forces, iterations, residuals):
        size = len(entries)
        r = self.coupling @ anchor[self.other]
        if self.load is None:
            terms = [r] * size  # step i's r(t); the same row for every step
        else:
            r = terms = r - self.load.value(np.array([t for _, t, _ in entries]))
        X = np.empty((size + 1, self.diagonal.size))  # the block's states, the anchor's first
        X[0] = anchor[self.active]
        if self.parts is None:
            steps = self._quadratic_steps
        else:
            steps = self._shrinkage_steps if self.kernel is None else self._kernel_steps
        hs, k = [h for _, _, h in entries], 0
        for h, run in groupby(hs):
            stop = k + len(list(run))
            steps(X, terms, k, stop, h, iterations)
            k = stop
        if hs.count(h) < size:  # more than one step size: one per row
            h = np.array(hs)[:, None]
        rows, D = X[1:], X[1:] - X[:-1]
        if self.parts is None:
            xi = rows @ self.H.T + r
            excess = (D / h) @ self.VR.T + xi
        else:
            sigma_w, quad_w, _ = self.parts
            xi = self.diagonal * rows + r if self.kernel is None else rows @ self.H.T + r
            excess = _shrinkage_excess(xi + quad_w * D / h, D, sigma_w)
        # step i holds rows i n to (i + 1) n - 1 of the leg's cells
        shape = size, len(states) // size, len(anchor)
        states, forces = states.reshape(shape), forces.reshape(shape)
        states[:] = anchor
        states[:, :, self.active] = rows[:, None]
        forces[:, :, self.active] = xi[:, None]  # the frozen block's are 0
        # np.linalg.norm(excess, axis=1), without its call overhead
        residuals.extend(np.sqrt(np.add.reduce(excess * excess, 1)).tolist())
        return states[-1, 0]

    def _quadratic_steps(self, X, terms, k, stop, h, iterations):
        """Steps k to stop - 1 of a quadratic block, all of size h, from
        ``X[k]``: each moves by -K^-1 times the gradient at its anchor."""
        x, H, K_inv = X[k], self.H, self.curvature(h)
        for i in range(k, stop):
            x = X[i + 1] = x - K_inv @ (H @ x + terms[i])
        iterations.extend([1] * (stop - k))

    def _shrinkage_steps(self, X, terms, k, stop, h, iterations):
        """Steps k to stop - 1 of a shrinkage block on a diagonal H_jj, all
        of size h, from ``X[k]``."""
        x, diagonal, curv = X[k], self.diagonal, self.curvature(h)
        sigma_w, _, low = self.parts
        for i in range(k, stop):
            g = diagonal * x + terms[i]
            x = X[i + 1] = x + (np.minimum(np.maximum(g, low), sigma_w) - g) / curv
        iterations.extend([1] * (stop - k))

    def _kernel_steps(self, X, terms, k, stop, h, iterations):
        """Steps k to stop - 1 of a shrinkage block on any other H_jj, all
        of size h, from ``X[k]``, by the active-set kernel."""
        x, H, increment = X[k], self.H, self.kernel.increment
        for i in range(k, stop):
            x, _, solves = increment(x, H @ x + terms[i], h)
            X[i + 1] = x
            iterations.append(solves)


def _run(scheme, sys, grid, u0, tol, legs, steps, offset=0.0):
    """Run the plan of ``scheme`` on ``grid``; every run ends here.

    A plan has two parts.  ``legs`` are the exact legs ``(t0, t1,
    mechanism)``: when there are legs and every leg's mechanism has an exact
    flow, the legs are flowed one from where the one before ended and
    sampled on the grid, whose first node sits at time ``offset``.
    Otherwise ``steps``, an iterable of ``(mechanism, t_eval, h)``, are the
    prox steps (:func:`_movements`).  A mechanism is 1, 2 or ``_EFFECTIVE``.

    Split and AMM runs of a block system are the staggered block schemes
    and take the ``block-`` prefix.
    """
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    weights = {m: _dual_weights(sys, m) for m in {leg[2] for leg in legs}}
    stats, segments = {"tol": tol}, None
    if weights and all(w is not None for w in weights.values()):
        const, forces, segments = _exact_flows(offset + grid.times, u0, legs, weights)
        n = 1
    else:
        const, forces, n = _movements(sys, grid, u0, list(steps), tol, stats)
    _require_finite(const, forces, n)
    linear = const  # the nodes of a flow or of one step per cell
    if n > 1:
        # increment form keeps frozen block components exactly constant
        lam = np.linspace(0.0, 1.0, n + 1)[1:, None]
        start, end = const[:-1:n, None], const[n::n, None]
        linear = np.empty_like(const)
        linear[0] = u0
        linear[1:] = (start + lam * (end - start)).reshape(-1, u0.size)
        # start + 1.0 * (end - start) need not round to end
        linear[n::n] = const[n::n]
    if sys.block_layout is not None and scheme != "effective":
        scheme = f"block-{scheme}"
    u_const = SampledCurve(grid, const, "piecewise-constant")
    # the half-step-delayed interpolant, u0 at every time up to 0
    t_src = grid.times[1:] - 0.5 * grid.partition.taus[grid.cell_steps - 1]
    delayed = np.vstack([u0, u_const.at(np.maximum(t_src, 0.0))])
    return SchemeOutput(
        scheme=scheme,
        partition=grid.partition,
        grid=grid,
        u_const=u_const,
        u_delayed=SampledCurve(grid, delayed, "delayed-constant"),
        u_linear=SampledCurve(grid, linear, "piecewise-linear"),
        xi=SampledCurve(grid, np.vstack([forces[:1], forces]), "piecewise-constant"),
        step_cells=n,
        segments=segments,
        stats=stats,
    )


def _movements(sys, grid, u0, plan, tol, stats):
    """Minimizing movements along the prox steps ``plan``.

    Each entry ``(mechanism, t_eval, h)`` solves one incremental problem
    from the previous state and holds its result on the next ``n`` cells,
    the same ``n`` for every entry.  The plan is walked by legs, the
    maximal runs of entries of one mechanism, with the mechanism's step
    (:func:`_step`, built once per run): a leg kernel steps the whole leg
    and writes its cells, a per-step kernel is called on each entry of the
    leg in turn.  Each solve's iterations and residual go into ``stats``.
    Returns the node values of the constant interpolant, the cell forces
    and ``n``.
    """
    steps = {m: _step(sys, m) for m in dict.fromkeys(m for m, _, _ in plan)}
    n = grid.n_cells // len(plan)
    const = np.empty((grid.n_nodes, u0.size))
    const[0] = u0
    # a leg kernel writes only its block's forces, the other block's stay 0
    forces = np.zeros((grid.n_cells, u0.size))
    iterations, residuals = [], []
    stats.update(inner_iterations=iterations, inner_residuals=residuals)
    u, k = u0, 0
    for m, leg in groupby(plan, itemgetter(0)):
        step = steps[m]
        if isinstance(step, _BlockLeg):
            leg = list(leg)
            j = k + len(leg)
            u = step(leg, u, const[k * n + 1 : j * n + 1], forces[k * n : j * n],
                     iterations, residuals)
            k = j
            continue
        for _, t_eval, h in leg:
            u, xi, st = step(t_eval, u, h, tol)
            iterations.append(st.iterations)
            residuals.append(st.residual)
            const[k * n + 1 : (k + 1) * n + 1] = u
            forces[k * n : (k + 1) * n] = xi
            k += 1
    return const, forces, n


def substep_flow(sys: GradientSystem, which, interval, u_init, inner=DEFAULT_INNER_FACTOR):
    """Single-mechanism flow on one interval, one leg of a split run,
    returned as a sampled curve on [0, t - s]."""
    s, t = float(interval[0]), float(interval[1])
    if not 0.0 <= s < t:
        raise InputError("substep interval must be nondegenerate and nonnegative")
    if which not in (1, 2):
        raise InputError(f"system has no mechanism {which}")
    which = int(which)
    grid = Partition(np.array([0.0, t - s])).refine(inner)
    times = s + grid.times
    steps = zip([which] * grid.n_cells, times[1:], np.diff(times))
    out = _run("split", sys, grid, u_init, 1e-10, [(times[0], times[-1], which)], steps, s)
    return out.u_linear


def split_step_solve(sys: GradientSystem, P: Partition, u0, tol=1e-10,
                     inner=DEFAULT_INNER_FACTOR):
    """Concatenated single-mechanism flows on alternating semi-intervals,
    mechanism 1 on left ones and 2 on right ones: exact flows, else one
    rescaled prox step per cell."""
    grid = P.refine(inner)
    ends = grid.times[:: grid.M]
    legs = [(a, b, 1 + j % 2) for j, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]
    steps = zip(np.where(grid.cell_is_left, 1, 2), grid.times[1:], grid.cell_widths)
    return _run("split", sys, grid, u0, tol, legs, steps)


def amm_solve(sys: GradientSystem, P: Partition, u0, tol=1e-10,
              inner=DEFAULT_INNER_FACTOR):
    """Alternating minimizing movements over the partition.

    Each step solves two incremental problems with the rescaled potentials:
    the first mechanism at the midpoint time from the previous endpoint, the
    second at the node time from the intermediate state, each over half the
    step length.
    """
    steps = ((m, t_eval, h)
             for mid, node, h in zip(P.midpoints, P.nodes[1:], P.taus / 2.0)
             for m, t_eval in ((1, mid), (2, node)))
    return _run("amm", sys, P.refine(inner), u0, tol, (), steps)


def effective_potential(sys: GradientSystem) -> Potential:
    """The inf-convolution of the system's two dissipation potentials."""
    return InfConvolution(sys.r1, sys.r2)


def effective_solve(sys: GradientSystem, P: Partition, u0, tol=1e-10,
                    inner=DEFAULT_INNER_FACTOR):
    """Minimizing movements for the effective (inf-convolution) system: its
    exact flow over [0, T], else one prox step per full step."""
    steps = ((_EFFECTIVE, t_eval, tau) for t_eval, tau in zip(P.nodes[1:], P.taus))
    return _run("effective", sys, P.refine(inner), u0, tol, [(0.0, P.T, _EFFECTIVE)], steps)


SCHEMES = ("split", "amm", "effective", "block-split", "block-amm")


def solve(sys: GradientSystem, scheme, P: Partition, u0, tol=1e-10,
          inner=DEFAULT_INNER_FACTOR):
    """Run the scheme named ``scheme``; one of ``SCHEMES``.

    The ``block-`` names are the staggered block schemes: split and AMM on
    a system with a block layout, where y moves on left semi-intervals with
    z frozen and z on right ones with y frozen.  ``inner`` is the number of
    grid cells per semi-interval.  Every entry point takes the same
    arguments and states only its plan for the one run path.  They are
    looked up by name at call time, so wrapping one of them (as a profiler
    does) also wraps this dispatch.
    """
    if scheme not in SCHEMES:
        raise InputError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")
    if scheme.startswith("block-") and sys.block_layout is None:
        raise InputError(f"scheme {scheme!r} requires a system with a block layout")
    entry = {"split": split_step_solve, "amm": amm_solve, "effective": effective_solve}
    return entry[scheme.removeprefix("block-")](sys, P, u0, tol, inner)


def _infconv_prox(R1, R2, parts, armijo, warm, E, t, anchor, tau, tol, max_iter=100, *,
                  name):
    """Newton on the joint split variables w = (v1, v2) for a smooth
    inf-convolution of R1 and R2: minimize
    tau (R1(v1) + R2(v2)) + E(t, anchor + tau (v1 + v2)).

    Newton starts at the w = (v1, v2) that the kernel's state ``warm``
    predicts, or at w = 0, and repeats a cold solve that took no step, under
    the rules of :func:`_prox_newton`; ``armijo`` is the constant of the
    line search.  ``name`` names the problem in the errors of a solve that
    fails (see :func:`_prox_kernel`).

    Gradient and Hessian are taken divided by tau; the chain factor tau
    restores the objective's slope in the line search.  With He the energy's
    Hessian times tau, the Hessian is [[R1'' + He, He], [He, R2'' + He]]:
    ``parts`` (the constant parts of R1, R2 and E) fix it off the diagonals
    of its four blocks, and each step writes those diagonals.
    """
    key, kept = warm.lookup(E, anchor, tau, tol)
    if kept is not None:
        return kept
    n = E.dim
    He = parts[2] * tau
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = parts[0] + He
    H[:n, n:] = He
    H[n:, :n] = He
    H[n:, n:] = parts[1] + He
    flat = H.reshape(-1)
    diagonal = flat[:: 2 * n + 1]
    coupling = flat[n : 2 * n * n : 2 * n + 1], flat[2 * n * n :: 2 * n + 1]

    def state(w):
        return anchor + tau * (w[:n] + w[n:])

    def gradient(w):
        u = state(w)
        ge = E._grad(t, u)
        return np.concatenate([R1._grad(w[:n]) + ge, R2._grad(w[n:]) + ge]), (u, ge)

    def hessian(w, held):
        he = E._hess_diagonal(t, held[0]) * tau
        diagonal[:n] = R1._hess_diagonal(w[:n]) + he
        diagonal[n:] = R2._hess_diagonal(w[n:]) + he
        coupling[0][:] = he
        coupling[1][:] = he
        return H

    def objective(w):
        return tau * (R1._eval(w[:n]) + R2._eval(w[n:])) + E._eval(t, state(w))

    scale = 1.0 + float(np.linalg.norm(anchor))

    def solve(w, limit=max_iter):
        w, (u, xi), it, res = newton.minimize(
            w, gradient, hessian, objective, tol * scale, chain=tau,
            max_iter=limit, armijo=armijo, name=name)
        return w, u, xi, it, res

    return _warm_or_cold(solve, warm, t, key, np.array, np.zeros(2 * n), "infconv-newton")


def time_to_zero(out: SchemeOutput, tol=1e-9):
    """First time the trajectory reaches the origin (within tol), or None."""
    seg = out.segments
    if seg is not None:
        norms0 = np.max(np.abs(seg.u0), axis=1)
        speed = np.max(np.abs(seg.velocity), axis=1)
        end_states = seg.u0 + (seg.t1 - seg.t0)[:, None] * seg.velocity
        # a segment that starts at zero, or whose linear piece hits zero in it
        hit = np.flatnonzero(
            (norms0 <= tol) | ((np.max(np.abs(end_states), axis=1) <= tol) & (speed > 0))
        )
        if hit.size == 0:
            return None
        k = hit[0]
        if norms0[k] <= tol:
            return float(seg.t0[k])
        return float(seg.t0[k] + norms0[k] / speed[k])
    times = out.grid.times
    vals = out.u_linear.values
    norms = np.max(np.abs(vals), axis=1)
    hit = np.nonzero(norms <= tol)[0]
    if hit.size == 0:
        return None
    i = int(hit[0])
    if i == 0:
        return 0.0
    # interpolate the crossing inside the cell
    n0, n1 = norms[i - 1], norms[i]
    lam = 0.0 if n0 == n1 else (n0 - tol) / (n0 - n1)
    return float(times[i - 1] + lam * (times[i] - times[i - 1]))
