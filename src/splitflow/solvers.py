"""Scheme solvers: split-step, alternating minimizing movements, block
staggered schemes, and the effective inf-convolution flow.

All schemes advance a gradient system (energy E, dissipation potentials
R1, R2) over a partition.  Alternating schemes work with the rescaled
potentials R~_j(v) = 2 R_j(v/2) on semi-intervals of length tau/2, so that
each half-step moves like a full step of the unrescaled potential; the
effective solver performs minimizing movements for the inf-convolution of
R1 and R2 over full steps.

For the pairing of the max-norm energy with anisotropic dual-quadratic
potentials the single-mechanism flows are piecewise affine and are solved
exactly: velocities are read from the dual rate map applied to the active
subdifferential face and regime switches happen at analytically computed
crossing times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .energies import EnergySpec, MaxNormEnergy, QuadraticBlockEnergy
from .errors import ConfigurationError, InputError, NumericalError
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
    Rescaled,
)

__all__ = [
    "GradientSystem",
    "SCHEMES",
    "SchemeOutput",
    "Segment",
    "prox_step",
    "substep_flow",
    "solve",
    "split_step_solve",
    "amm_solve",
    "block_solve",
    "effective_solve",
    "effective_potential",
    "time_to_zero",
]


@dataclass(frozen=True)
class GradientSystem:
    """Energy plus one or two dissipation potentials, optionally blocked."""

    energy: EnergySpec
    r1: Potential
    r2: Potential = None
    block_layout: tuple = None

    def __post_init__(self):
        if self.r1.dim != self.energy.dim:
            raise ConfigurationError("r1 dimension disagrees with the energy")
        if self.r2 is not None and self.r2.dim != self.energy.dim:
            raise ConfigurationError("r2 dimension disagrees with the energy")
        if self.block_layout is not None:
            n_y, n_z = self.block_layout
            if n_y + n_z != self.energy.dim:
                raise ConfigurationError("block layout does not cover the state")
            for r, name in ((self.r1, "r1"), (self.r2, "r2")):
                if not isinstance(r, BlockIndicator):
                    raise ConfigurationError(
                        f"{name} must be a BlockIndicator for block systems"
                    )

    @property
    def dim(self):
        return self.energy.dim

    def block_indices(self):
        n_y, n_z = self.block_layout
        return np.arange(n_y), np.arange(n_y, n_y + n_z)


@dataclass(frozen=True)
class Segment:
    """One affine piece of an exactly solved flow."""

    t0: float
    t1: float
    u0: np.ndarray
    velocity: np.ndarray
    xi: np.ndarray
    mechanism: str

    def state(self, t):
        return self.u0 + (t - self.t0) * self.velocity


@dataclass
class SchemeOutput:
    """Interpolants, forces, and statistics of one scheme run."""

    scheme: str
    partition: Partition
    grid: RefinedGrid
    u_const: SampledCurve
    u_delayed: SampledCurve
    u_linear: SampledCurve
    xi: SampledCurve
    u_variational: SampledCurve = None
    segments: list = None
    stats: dict = field(default_factory=dict)

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


@dataclass
class _ProxStats:
    iterations: int = 0
    residual: float = 0.0
    method: str = ""


def prox_step(E: EnergySpec, R: Potential, t_eval, anchor, h, tol=1e-10):
    """One incremental minimization u in Argmin h R((u - anchor)/h) + E(t, u).

    Returns (u, xi) with xi the Euler-Lagrange force, an element of
    dE(t_eval, u) whose negative lies in dR((u - anchor)/h).
    """
    u, xi, _ = _prox(E, R, t_eval, np.asarray(anchor, dtype=float), float(h), tol)
    return u, xi


def _prox(E, R, t, anchor, h, tol):
    if h <= 0:
        raise InputError("prox step size must be positive")
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    if anchor.size != E.dim:
        raise InputError("anchor dimension disagrees with the energy")

    if isinstance(E, MaxNormEnergy):
        return _prox_maxnorm(E, R, t, anchor, h)

    VR = R.quadratic_matrix()
    if VR is not None and _energy_is_quadratic(E):
        return _prox_quadratic(E, VR, t, anchor, h)

    parts = R.shrinkage_parts()
    if parts is not None and _energy_is_quadratic(E):
        return _prox_shrinkage(E, parts, t, anchor, h, tol)

    return _prox_newton(E, R, t, anchor, h, tol)


def _energy_is_quadratic(E):
    return isinstance(E, QuadraticBlockEnergy) or (
        isinstance(E, _FrozenBlockEnergy) and _energy_is_quadratic(E.base)
    )


def _prox_quadratic(E, VR, t, anchor, h):
    H = E.hess(t, anchor)
    g0 = E.grad(t, np.zeros_like(anchor))
    lhs = VR / h + H
    rhs = VR @ anchor / h - g0
    u = np.linalg.solve(lhs, rhs)
    xi = E.grad(t, u)
    res = float(np.linalg.norm(VR @ ((u - anchor) / h) + xi))
    return u, xi, _ProxStats(1, res, "linear-solve")


def _prox_shrinkage(E, parts, t, anchor, h, tol, max_iter=10000):
    """Minimize sum_i [sigma_i |d_i| + (q_i/2h) d_i^2] + E(t, anchor + d)."""
    sigma_w, quad_w = parts
    H = E.hess(t, anchor)
    g_anchor = E.grad(t, anchor)
    diag_only = np.allclose(H, np.diag(np.diag(H)))
    curv = np.diag(H) + quad_w / h
    if diag_only:
        d = -np.sign(g_anchor) * np.maximum(np.abs(g_anchor) - sigma_w, 0.0) / curv
        u = anchor + d
        xi = E.grad(t, u)
        return u, xi, _ProxStats(1, 0.0, "shrinkage-exact")

    L = float(np.linalg.norm(H, 2)) + float(np.max(quad_w)) / h
    d = np.zeros_like(anchor)
    y = d.copy()
    t_mom = 1.0
    scale = 1.0 + float(np.linalg.norm(anchor))
    for it in range(max_iter):
        gs = E.grad(t, anchor + y) + quad_w * y / h
        d_new = y - gs / L
        d_new = np.sign(d_new) * np.maximum(np.abs(d_new) - sigma_w / L, 0.0)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
        y = d_new + (t_mom - 1.0) / t_new * (d_new - d)
        d, t_mom = d_new, t_new
        gs = E.grad(t, anchor + d) + quad_w * d / h
        res_vec = np.where(
            d != 0.0, gs + sigma_w * np.sign(d), np.maximum(np.abs(gs) - sigma_w, 0.0)
        )
        res = float(np.linalg.norm(res_vec))
        if res <= tol * scale:
            u = anchor + d
            return u, E.grad(t, u), _ProxStats(it + 1, res, "shrinkage-fista")
    raise NumericalError("shrinkage prox stagnated", iterations=max_iter, best=anchor + d)


def _prox_newton(E, R, t, anchor, h, tol, max_iter=100):
    u = np.array(anchor)
    scale = 1.0 + float(np.linalg.norm(anchor))
    history = []

    def objective(x):
        return h * R((x - anchor) / h) + E.eval(t, x)

    f_u = objective(u)
    for it in range(max_iter):
        v = (u - anchor) / h
        g = R.grad(v) + E.grad(t, u)
        res = float(np.linalg.norm(g))
        history.append(res)
        if res <= tol * scale:
            return u, E.grad(t, u), _ProxStats(it, res, "newton")
        Hm = R.hess(v) / h + E.hess(t, u)
        step = None
        bump = 0.0
        for _ in range(8):
            try:
                step = np.linalg.solve(Hm + bump * np.eye(u.size), -g)
                break
            except np.linalg.LinAlgError:
                bump = max(1e-10, 10.0 * bump)
        if step is None:
            step = -g
        alpha = 1.0
        slack = 16.0 * np.finfo(float).eps * (1.0 + abs(f_u))
        for _ in range(40):
            trial = u + alpha * step
            f_trial = objective(trial)
            if f_trial <= f_u + 1e-4 * alpha * float(g @ step) + slack:
                u, f_u = trial, f_trial
                break
            alpha *= 0.5
        else:
            # objective differences are below rounding; trust the Newton step
            u = u + step
            f_u = objective(u)
    raise NumericalError(
        "incremental minimization diverged", iterations=len(history), best=u
    )


def _prox_maxnorm(E, R, t, anchor, h):
    """Exact prox for the max-norm energy with a diagonal quadratic metric."""
    VR = R.quadratic_matrix()
    if VR is None or not np.allclose(VR, np.diag(np.diag(VR))):
        raise InputError("max-norm prox requires a diagonal quadratic potential")
    c = 1.0 / np.diag(VR)  # dual weights: dual_rate(xi) = c * xi
    a1, a2 = anchor
    c1, c2 = c

    def objective(u, xi):
        return h * R((u - anchor) / h) + E.eval(t, u)

    candidates = []  # (priority, F, u, xi)

    # diagonal / antidiagonal faces, both signs
    for anti in (False, True):
        for s in (1.0, -1.0):
            rhs = (a1 - a2) if not anti else (a1 + a2)
            theta = (s * rhs / h + c2) / (c1 + c2)
            if not (0.0 <= theta <= 1.0):
                continue
            xi = np.array([s * theta, (s if not anti else -s) * (1.0 - theta)])
            u = anchor - h * c * xi
            ok = (u[0] * s > 0) and (
                abs(u[0] - u[1]) <= 1e-12 if not anti else abs(u[0] + u[1]) <= 1e-12
            )
            if ok:
                # snap exactly onto the face
                u[1] = u[0] if not anti else -u[0]
                candidates.append((0, objective(u, xi), u, xi))

    # axis regimes
    for s in (1.0, -1.0):
        xi = np.array([s, 0.0])
        u = anchor - h * c * xi
        if abs(u[0]) > abs(u[1]) and math.copysign(1.0, u[0]) == s:
            candidates.append((1, objective(u, xi), u, xi))
        xi = np.array([0.0, s])
        u = anchor - h * c * xi
        if abs(u[1]) > abs(u[0]) and math.copysign(1.0, u[1]) == s:
            candidates.append((1, objective(u, xi), u, xi))

    # origin; stationarity needs xi in the l1 ball (the true subdifferential
    # at 0, strictly smaller than the reported box)
    xi = VR @ anchor / h
    if float(np.sum(np.abs(xi))) <= 1.0 + 1e-14:
        u = np.zeros(2)
        candidates.append((2, objective(u, xi), u, xi))

    if not candidates:
        raise NumericalError("max-norm prox found no admissible regime", best=anchor)
    f_min = min(f for _, f, _, _ in candidates)
    tol_tie = 1e-12 * (1.0 + abs(f_min))
    best = min(
        (cand for cand in candidates if cand[1] <= f_min + tol_tie),
        key=lambda cand: cand[0],
    )
    _, _, u, xi = best
    return u, xi, _ProxStats(1, 0.0, "maxnorm-cases")


# ---------------------------------------------------------------------------
# Exact regime flow for (max-norm energy, anisotropic dual quadratic)
# ---------------------------------------------------------------------------

_ZERO_TOL = 1e-13


def _unscaled(R):
    return R.base if isinstance(R, Rescaled) else R


def _is_exact_pair(energy, potential):
    return isinstance(energy, MaxNormEnergy) and isinstance(
        _unscaled(potential), AnisotropicDualQuadratic
    )


def _regime_classify(u, tol):
    u1, u2 = u
    if abs(u1) <= tol and abs(u2) <= tol:
        return "zero"
    if abs(abs(u1) - abs(u2)) <= tol:
        return "diag" if u1 * u2 > 0 else "anti"
    return "axis1" if abs(u1) > abs(u2) else "axis2"


def _regime_flow(dual_weights, t0, t1, u0, mechanism):
    """Piecewise-affine flow of u' = -dR*(xi), xi in dE(u), on [t0, t1].

    ``dual_weights`` are the dual weights (alpha, beta) of the potential
    actually driving the flow (already rescaled for split sub-steps).
    """
    alpha, beta = float(dual_weights[0]), float(dual_weights[1])
    gamma = alpha * beta / (alpha + beta)
    theta = beta / (alpha + beta)
    u = np.array(u0, dtype=float)
    t = float(t0)
    segments = []
    scale = max(1.0, float(np.max(np.abs(u))))
    while t < t1 - 1e-15:
        kind = _regime_classify(u, _ZERO_TOL * scale)
        if kind == "zero":
            u = np.zeros(2)
            vel = np.zeros(2)
            xi = np.zeros(2)
            t_next = t1
        elif kind == "axis1":
            s = math.copysign(1.0, u[0])
            xi = np.array([s, 0.0])
            vel = np.array([-alpha * s, 0.0])
            t_next = min(t1, t + (abs(u[0]) - abs(u[1])) / alpha)
        elif kind == "axis2":
            s = math.copysign(1.0, u[1])
            xi = np.array([0.0, s])
            vel = np.array([0.0, -beta * s])
            t_next = min(t1, t + (abs(u[1]) - abs(u[0])) / beta)
        else:
            s = math.copysign(1.0, u[0])
            sign2 = 1.0 if kind == "diag" else -1.0
            xi = np.array([s * theta, sign2 * s * (1.0 - theta)])
            vel = np.array([-gamma * s, -sign2 * gamma * s])
            t_next = min(t1, t + abs(u[0]) / gamma)
        if t_next <= t:
            t_next = t1
        seg = Segment(t, t_next, np.array(u), vel, xi, mechanism)
        segments.append(seg)
        u = seg.state(t_next)
        # snap onto the invariant manifold reached at the crossing
        if t_next < t1:
            if kind == "axis1":
                u[0] = math.copysign(abs(u[1]), u[0]) if abs(u[1]) > 0 else 0.0
            elif kind == "axis2":
                u[1] = math.copysign(abs(u[0]), u[1]) if abs(u[0]) > 0 else 0.0
            else:
                u = np.zeros(2)
        t = t_next
    return u, segments


# ---------------------------------------------------------------------------
# Sub-flows on semi-intervals
# ---------------------------------------------------------------------------


def _flow_cells(sys, which, cell_times, u_start, tol, record):
    """March one mechanism across the cells [cell_times[0], ..., cell_times[-1]].

    Returns (u_end, node_values[1:], cell_forces).  ``record`` collects
    segments for exact runs and iteration counts for prox runs.
    """
    E = sys.energy
    R = sys.r1 if which == 1 else sys.r2
    if R is None:
        raise InputError(f"system has no mechanism {which}")

    if _is_exact_pair(E, R):
        weights = 2.0 * _unscaled(R).dual_weights  # dual weights of R~* = 2 R*
        try:
            u_end, segments = _regime_flow(
                weights, float(cell_times[0]), float(cell_times[-1]), u_start, str(which)
            )
        except NumericalError:
            warnings.warn("regime solver failed; falling back to prox stepping")
            record.setdefault("warnings", []).append("regime-fallback")
        else:
            record.setdefault("segments", []).extend(segments)
            nodes, forces = _sample_segments(segments, cell_times)
            return u_end, nodes, forces

    u = np.array(u_start, dtype=float)
    nodes, forces = [], []
    for a, b in zip(cell_times[:-1], cell_times[1:]):
        u, xi, st = _half_step(sys, which, b, u, b - a, tol)
        _record_prox(record, st)
        nodes.append(np.array(u))
        forces.append(xi)
    return u, nodes, forces


def _sample_segments(segments, times):
    """Node states and cell forces of a segment-backed flow on a cell grid.

    A cell takes the force of the segment that holds its right end, the
    state at which every prox path evaluates its force.
    """
    nodes, forces = [], []
    si = 0
    for b in times[1:]:
        while segments[si].t1 < b - 1e-15 and si + 1 < len(segments):
            si += 1
        nodes.append(segments[si].state(min(b, segments[si].t1)))
        forces.append(np.array(segments[si].xi))
    return nodes, forces


def _half_step(sys, which, t_eval, anchor, h, tol):
    """One prox step of the rescaled potential R~_which, on its block if blocked.

    Block systems move only the active block; the other block stays frozen
    in the energy and keeps its anchor values exactly.
    """
    R = sys.r1 if which == 1 else sys.r2
    if sys.block_layout is None:
        R_tilde = R if isinstance(R, Rescaled) else Rescaled(R)
        return _prox(sys.energy, R_tilde, t_eval, anchor, h, tol)
    active = sys.block_indices()[which - 1]
    E_step = _FrozenBlockEnergy(sys.energy, active, anchor)
    u_act, xi_act, st = _prox(E_step, Rescaled(R.base), t_eval, anchor[active], h, tol)
    u = np.array(anchor)
    u[active] = u_act
    xi = np.zeros(sys.dim)
    xi[active] = xi_act
    return u, xi, st


def _record_prox(record, st):
    """One entry per prox solve, in solve order."""
    record.setdefault("inner_iterations", []).append(st.iterations)
    record.setdefault("inner_residuals", []).append(st.residual)


class _FrozenBlockEnergy(EnergySpec):
    """View of an energy restricted to an active index block."""

    def __init__(self, base, active, full_state):
        self.base = base
        self.active = np.asarray(active, dtype=int)
        self.full = np.array(full_state, dtype=float)
        self.shift = base.shift
        self.lambda_convexity = base.lambda_convexity

    @property
    def dim(self):
        return self.active.size

    def _assemble(self, x):
        u = np.array(self.full)
        u[self.active] = x
        return u

    def eval(self, t, x):
        return self.base.eval(t, self._assemble(x))

    def power(self, t, x):
        return self.base.power(t, self._assemble(x))

    def grad(self, t, x):
        return self.base.grad(t, self._assemble(x))[self.active]

    def hess(self, t, x):
        H = self.base.hess(t, self._assemble(x))
        return H[np.ix_(self.active, self.active)]

    def subdiff(self, t, x):
        from .energies import SubdiffSet

        return SubdiffSet.singleton(self.grad(t, x))


# ---------------------------------------------------------------------------
# Scheme drivers
# ---------------------------------------------------------------------------


def substep_flow(sys: GradientSystem, which, interval, u_init, inner_steps=None):
    """Single-mechanism flow on one interval, returned as a sampled curve."""
    s, t = float(interval[0]), float(interval[1])
    if not 0.0 <= s < t:
        raise InputError("substep interval must be nondegenerate and nonnegative")
    M = DEFAULT_INNER_FACTOR if inner_steps is None else int(inner_steps)
    local = Partition(np.array([0.0, t - s]))
    grid = local.refine(M)
    cell_times = s + grid.times
    record = {}
    _, nodes, _ = _flow_cells(sys, which, cell_times, np.asarray(u_init, float), 1e-10, record)
    values = np.vstack([np.asarray(u_init, float)[None, :], np.array(nodes)])
    return SampledCurve(grid, values, "piecewise-linear")


def _delayed_values(u_const: SampledCurve, grid: RefinedGrid, u0):
    """Node values of the half-step-delayed interpolant of ``u_const``."""
    t_src = grid.times[1:] - 0.5 * grid.partition.taus[grid.cell_steps - 1]
    later = t_src > 0.0
    vals = np.empty_like(u_const.values)
    vals[0] = u0
    cells = vals[1:]
    cells[~later] = u0
    cells[later] = u_const.at(t_src[later])
    return vals


def _assemble_output(scheme, sys, grid, linear, const, forces, record, tol,
                     u_variational=None):
    """Build the ``SchemeOutput`` of a run; every scheme ends here.

    ``linear`` and ``const`` are the node values of the two interpolants
    (one array for flows sampled at their nodes) and ``forces`` has one row
    per cell.  Split and AMM runs of a block system are the staggered block
    schemes and take the ``block-`` prefix.
    """
    if sys.block_layout is not None and scheme != "effective":
        scheme = f"block-{scheme}"
    u_const = SampledCurve(grid, const, "piecewise-constant")
    stats = {
        "tol": tol,
        "inner_factor": grid.M,
        "scheme": scheme,
        "argmin_selection": "deterministic-from-anchor",
        **{k: v for k, v in record.items() if k != "segments"},
    }
    return SchemeOutput(
        scheme=scheme,
        partition=grid.partition,
        grid=grid,
        u_const=u_const,
        u_delayed=SampledCurve(
            grid, _delayed_values(u_const, grid, const[0]), "delayed-constant"
        ),
        u_linear=SampledCurve(grid, linear, "piecewise-linear"),
        xi=SampledCurve(grid, np.vstack([forces[:1], forces]), "piecewise-constant"),
        u_variational=u_variational,
        segments=record.get("segments"),
        stats=stats,
    )


def _movements(grid, u0, plan, tol, record):
    """Minimizing movements along a step plan.

    Each plan entry ``(n, step, t_eval, h)`` solves one incremental problem
    ``step(t_eval, anchor, h, tol)`` from the previous state and holds its
    result on the next ``n`` cells.  Returns the node values of the linear
    and the constant interpolant and the cell forces.
    """
    const = np.empty((grid.n_nodes, u0.size))
    linear = np.empty_like(const)
    const[0] = linear[0] = u0
    forces = np.empty((grid.n_cells, u0.size))
    u_prev, i = u0, 0
    for n, step, t_eval, h in plan:
        u, xi, st = step(t_eval, u_prev, h, tol)
        _record_prox(record, st)
        lam = np.linspace(0.0, 1.0, n + 1)[1:, None]
        const[i + 1 : i + n + 1] = u
        # increment form keeps frozen block components exactly constant
        linear[i + 1 : i + n + 1] = u_prev + lam * (u - u_prev)
        forces[i : i + n] = xi
        u_prev, i = u, i + n
    return linear, const, forces


def split_step_solve(
    sys: GradientSystem, P: Partition, u0, inner_steps=DEFAULT_INNER_FACTOR, tol=1e-10
):
    """Concatenated single-mechanism flows on alternating semi-intervals."""
    if sys.r2 is None:
        raise InputError("split stepping needs both dissipation mechanisms")
    grid = P.refine(inner_steps)
    M = grid.M
    u = np.asarray(u0, dtype=float).reshape(-1)
    record = {}
    node_vals, cell_forces = [u], []
    for j in range(2 * P.N):
        # semi-interval j: mechanism 1 on left halves, 2 on right halves
        u, nodes, forces = _flow_cells(
            sys, 1 + j % 2, grid.times[j * M : (j + 1) * M + 1], u, tol, record
        )
        node_vals.extend(nodes)
        cell_forces.extend(forces)
    values = np.array(node_vals)
    return _assemble_output(
        "split", sys, grid, values, values, np.array(cell_forces), record, tol
    )


def amm_solve(
    sys: GradientSystem,
    P: Partition,
    u0,
    tol=1e-10,
    with_variational=False,
    inner_factor=DEFAULT_INNER_FACTOR,
):
    """Alternating minimizing movements over the partition.

    Each step solves two incremental problems with the rescaled potentials:
    the first mechanism at the midpoint time from the previous endpoint, the
    second at the node time from the intermediate state.
    """
    if sys.r2 is None:
        raise InputError("alternating minimizing movements need both mechanisms")
    grid = P.refine(inner_factor)
    M = grid.M
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    first, second = partial(_half_step, sys, 1), partial(_half_step, sys, 2)
    plan = []
    for k in range(P.N):
        h = P.taus[k] / 2.0
        plan += [(M, first, P.midpoints[k], h), (M, second, P.nodes[k + 1], h)]
    record = {}
    linear, const, forces = _movements(grid, u0, plan, tol, record)
    u_var = _variational_interpolant(sys, grid, const, tol) if with_variational else None
    return _assemble_output("amm", sys, grid, linear, const, forces, record, tol, u_var)


def _variational_interpolant(sys, grid, const, tol):
    """Re-solve the incremental problem at every inner sampling time."""
    P = grid.partition
    M = grid.M
    vals = np.empty_like(const)
    vals[0] = const[0]
    for i in range(1, grid.n_nodes):
        r = grid.times[i]
        k = grid.cell_steps[i - 1]
        left = grid.cell_is_left[i - 1]
        start = P.nodes[k - 1] if left else P.midpoints[k - 1]
        # the half-step's anchor is the state held before its first cell
        anchor = const[(i - 1) // M * M]
        h = r - start
        if h <= 1e-15:
            vals[i] = anchor
            continue
        u, _, _ = _half_step(sys, 1 if left else 2, r, anchor, h, tol)
        vals[i] = u
    return SampledCurve(grid, vals, "variational")


def block_solve(
    sys: GradientSystem,
    P: Partition,
    u0,
    mode="split",
    tol=1e-10,
    inner_steps=DEFAULT_INNER_FACTOR,
):
    """Staggered scheme for block systems: y moves on left semi-intervals
    with z frozen, z moves on right semi-intervals with y frozen."""
    if sys.block_layout is None:
        raise InputError("block_solve requires a system with a block layout")
    if mode == "amm":
        return amm_solve(sys, P, u0, tol=tol, inner_factor=inner_steps)
    if mode != "split":
        raise InputError(f"unknown block mode {mode!r}")
    return split_step_solve(sys, P, u0, inner_steps=inner_steps, tol=tol)


def effective_potential(sys: GradientSystem) -> Potential:
    """The inf-convolution of the system's two dissipation potentials."""
    if sys.r2 is None:
        return sys.r1
    return InfConvolution(sys.r1, sys.r2)


def effective_solve(
    sys: GradientSystem,
    P: Partition,
    u0,
    tol=1e-10,
    inner_factor=DEFAULT_INNER_FACTOR,
):
    """Minimizing movements for the effective (inf-convolution) system."""
    grid = P.refine(inner_factor)
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    E = sys.energy
    record = {}

    if sys.r2 is not None and _is_exact_pair(E, sys.r1) and _is_exact_pair(E, sys.r2):
        weights = _unscaled(sys.r1).dual_weights + _unscaled(sys.r2).dual_weights
        _, segments = _regime_flow(weights, 0.0, P.T, u0, "eff")
        record["segments"] = segments
        nodes, forces = _sample_segments(segments, grid.times)
        values = np.array([u0] + nodes)
        return _assemble_output(
            "effective", sys, grid, values, values, np.array(forces), record, tol
        )

    # one minimizing movement of the effective potential per full step
    R_eff = effective_potential(sys)
    if sys.block_layout is not None:
        step = partial(_joint_block_prox, sys)
    elif isinstance(R_eff, InfConvolution) and R_eff.quadratic_matrix() is None:
        step = partial(_infconv_prox, E, R_eff)
    else:
        step = partial(_prox, E, R_eff)
    plan = [(2 * grid.M, step, P.nodes[k + 1], P.taus[k]) for k in range(P.N)]
    linear, const, forces = _movements(grid, u0, plan, tol, record)
    return _assemble_output("effective", sys, grid, linear, const, forces, record, tol)


SCHEMES = ("split", "amm", "effective", "block-split", "block-amm")


def solve(sys: GradientSystem, scheme, P: Partition, u0, tol, inner):
    """Run the scheme named ``scheme``; one of ``SCHEMES``.

    AMM runs carry the variational interpolant, which the audit reads.  The
    entry points are looked up by name at call time, so wrapping one of
    them (as a profiler does) also wraps this dispatch.
    """
    if scheme == "split":
        return split_step_solve(sys, P, u0, inner_steps=inner, tol=tol)
    if scheme == "amm":
        return amm_solve(sys, P, u0, tol=tol, with_variational=True, inner_factor=inner)
    if scheme == "effective":
        return effective_solve(sys, P, u0, tol=tol, inner_factor=inner)
    if scheme in ("block-split", "block-amm"):
        return block_solve(sys, P, u0, mode=scheme[len("block-"):], tol=tol,
                           inner_steps=inner)
    raise InputError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")


def _joint_block_prox(sys, t, anchor, tau, tol, max_sweeps=200):
    """Simultaneous implicit step of both blocks via Gauss-Seidel sweeps."""
    idx_y, idx_z = sys.block_indices()
    Ry, Rz = sys.r1.base, sys.r2.base
    y_smooth = _has_grad(Ry)
    u = np.array(anchor)
    scale = 1.0 + float(np.linalg.norm(anchor))
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        Ey = _FrozenBlockEnergy(sys.energy, idx_y, u)
        uy, _, _ = _prox(Ey, Ry, t, anchor[idx_y], tau, tol)
        u[idx_y] = uy
        Ez = _FrozenBlockEnergy(sys.energy, idx_z, u)
        uz, _, _ = _prox(Ez, Rz, t, anchor[idx_z], tau, tol)
        u[idx_z] = uz
        res = _joint_block_residual(sys, t, anchor, u, tau, y_smooth)
        if res <= tol * scale:
            break
    else:
        raise NumericalError("joint block prox stagnated", iterations=max_sweeps)
    xi = sys.energy.grad(t, u)
    return u, xi, _ProxStats(sweeps, res, "gauss-seidel")


def _joint_block_residual(sys, t, anchor, u, tau, y_smooth):
    """Optimality residual of the joint block step; ``y_smooth`` says whether
    the y potential has a gradient (without one its block counts as solved)."""
    idx_y, idx_z = sys.block_indices()
    g = sys.energy.grad(t, u)
    gy = g[idx_y]
    vy = (u[idx_y] - anchor[idx_y]) / tau
    ry = float(np.linalg.norm(sys.r1.base.grad(vy) + gy)) if y_smooth else 0.0
    gz = g[idx_z]
    vz = (u[idx_z] - anchor[idx_z]) / tau
    parts = sys.r2.base.shrinkage_parts()
    if parts is not None:
        sigma_w, quad_w = parts
        smooth = quad_w * vz + gz
        rz_vec = np.where(
            vz != 0.0,
            smooth + sigma_w * np.sign(vz),
            np.maximum(np.abs(smooth) - sigma_w, 0.0),
        )
        rz = float(np.linalg.norm(rz_vec))
    else:
        rz = float(np.linalg.norm(sys.r2.base.grad(vz) + gz))
    return math.hypot(ry, rz)


def _has_grad(R):
    try:
        R.grad(np.zeros(R.dim))
        return True
    except NotImplementedError:
        return False


def _infconv_prox(E, R_eff, t, anchor, tau, tol, max_iter=100):
    """Newton on the joint split variables for a smooth inf-convolution."""
    R1, R2 = R_eff.left, R_eff.right
    n = E.dim
    v1 = np.zeros(n)
    v2 = np.zeros(n)
    scale = 1.0 + float(np.linalg.norm(anchor))

    def assemble(v1, v2):
        return anchor + tau * (v1 + v2)

    for it in range(max_iter):
        u = assemble(v1, v2)
        ge = E.grad(t, u)
        g = np.concatenate([R1.grad(v1) + ge, R2.grad(v2) + ge])
        if float(np.linalg.norm(g)) <= tol * scale:
            return u, E.grad(t, u), _ProxStats(it, float(np.linalg.norm(g)), "infconv-newton")
        He = E.hess(t, u) * tau
        H = np.block(
            [[R1.hess(v1) + He, He], [He, R2.hess(v2) + He]]
        )
        try:
            step = np.linalg.solve(H + 1e-12 * np.eye(2 * n), -g)
        except np.linalg.LinAlgError:
            step = -g
        alpha = 1.0
        f0 = tau * (R1(v1) + R2(v2)) + E.eval(t, assemble(v1, v2))
        for _ in range(50):
            w1 = v1 + alpha * step[:n]
            w2 = v2 + alpha * step[n:]
            f1 = tau * (R1(w1) + R2(w2)) + E.eval(t, assemble(w1, w2))
            if f1 <= f0 + 1e-4 * alpha * float(g @ step):
                v1, v2 = w1, w2
                break
            alpha *= 0.5
    raise NumericalError("effective prox stagnated", iterations=max_iter)


def time_to_zero(out: SchemeOutput, tol=1e-9):
    """First time the trajectory reaches the origin (within tol), or None."""
    if out.segments:
        for seg in out.segments:
            norms0 = float(np.max(np.abs(seg.u0)))
            if norms0 <= tol:
                return seg.t0
            vel = float(np.max(np.abs(seg.velocity)))
            end_state = seg.state(seg.t1)
            if float(np.max(np.abs(end_state))) <= tol and vel > 0:
                # linear piece hits zero inside the segment
                return seg.t0 + norms0 / vel if vel > 0 else seg.t1
        return None
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
