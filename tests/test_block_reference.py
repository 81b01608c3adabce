"""The staggered block schemes and the effective block step against the
arithmetic they replaced.

A block of a quadratic energy whose potential is quadratic or has
shrinkage parts steps a whole leg (a run of steps of one mechanism) per
call: its leg reference restates that kernel's arithmetic from the energy's
blocks and the potentials, one leg at a time, and the library must match
it bit for bit.  A quadratic block and a yield block on a diagonal Hessian
block step in closed form; a yield block on any other Hessian block steps
by the active-set method, whose sign pattern the reference carries from
step to step.  Every step's residual is within the tolerance, and the
states stay within 1e-9 of one step at a time by an independent method
(FISTA with restarts, or a closed form or linear solve where one holds),
through a view that assembles the full state for every gradient, the way
the frozen-block view used to.

The joint step of these quadratic systems is the active-set step: its
reference assembles K from the energy's blocks and the potentials on every
step and reads the gradient and the residual off the same full gradient.
The effective runs stay within 1e-9 of the joint steps taken by the same
independent method.
"""

import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitflow import diagnostics as dg
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import EnergySpec, Load, QuadraticBlockEnergy
from splitflow.models import make_model
from splitflow.partitions import build_partition

SCHEMES = ("block-split", "block-amm", "effective")
TOL = 1e-10


def full_grad(E, t, u):
    """The gradient of a quadratic block energy, both blocks at once."""
    y, z = u[: E.n_y], u[E.n_y :]
    gy = E.A @ y + E.B.T @ z
    gz = E.B @ y + E.G @ z
    if E._loaded:
        gy = gy - E.f.value(t)
        gz = gz - E.g.value(t)
    return np.concatenate([gy, gz])


class FrozenReference(EnergySpec):
    """The frozen-block view that assembles the state for every gradient."""

    def __init__(self, base, active, full_state):
        self.base, self.active, self.full = base, active, np.array(full_state)

    @property
    def dim(self):
        return self.active.size

    def _grad(self, t, x):
        u = np.array(self.full)
        u[self.active] = x
        return full_grad(self.base, t, u)[self.active]


def index_arrays(system):
    n_y, n_z = system.block_layout
    return np.arange(n_y), np.arange(n_y, n_y + n_z)


def l1_reference(K, c, sigma, tol=1e-13):
    """The minimizer of d^T K d / 2 + c^T d + sum_i sigma_i |d_i| by a
    method independent of the active-set kernel: in closed form for a
    diagonal K, by a linear solve for sigma = 0, else by FISTA with adaptive
    restart (the momentum restarts where it points uphill), stopped where
    the optimality residual is within ``tol (1 + |c|)``."""
    if not np.count_nonzero(K - np.diag(np.diag(K))):
        return -np.sign(c) * np.maximum(np.abs(c) - sigma, 0.0) / np.diag(K)
    if not sigma.any():
        return np.linalg.solve(K, -c)
    L = float(np.linalg.eigvalsh(K)[-1])
    d = y = np.zeros_like(c)
    momentum = 1.0
    for _ in range(100000):
        if excess(K @ d + c, d, sigma) <= tol * (1.0 + np.linalg.norm(c)):
            return d
        step = y - (K @ y + c) / L
        d_new = np.sign(step) * np.maximum(np.abs(step) - sigma / L, 0.0)
        if (y - d_new) @ (d_new - d) > 0.0:
            momentum = 1.0
        following = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        y = d_new + (momentum - 1.0) / following * (d_new - d)
        d, momentum = d_new, following
    raise AssertionError("FISTA did not converge")


def excess(smooth, d, sigma):
    """The distance of -smooth from sigma times the subdifferential of |d|."""
    return float(np.linalg.norm(np.where(d != 0.0, smooth + sigma * np.sign(d),
                                         np.maximum(np.abs(smooth) - sigma, 0.0))))


def metric(R):
    """``(M, sigma)`` of a quadratic potential or one with shrinkage parts."""
    parts = R.shrinkage_parts()
    if parts is None:
        return R.quadratic_matrix(), np.zeros(R.dim)
    return np.diag(parts[1]), parts[0]


def block_step_reference(system, which, t, anchor, h):
    """The state of one step of block ``which`` from ``anchor``, by
    :func:`l1_reference` with the other block frozen."""
    E, idx = system.energy, index_arrays(system)[which - 1]
    M, sigma = metric((system.r1, system.r2)[which - 1].base.rescaled())
    c = FrozenReference(E, idx, anchor)._grad(t, anchor[idx])
    H = E.hess(0.0, np.zeros(E.dim))[np.ix_(idx, idx)]
    u = np.array(anchor)
    u[idx] += l1_reference(H + M / h, c, sigma)
    return u


def joint_matrices(system, tau):
    """``(K, M, sigma)`` of the joint step, K = H + M / tau assembled from
    the blocks."""
    E, n = system.energy, system.dim
    M, sigma = np.zeros((n, n)), np.zeros(n)
    for idx, R in zip(index_arrays(system), (system.r1.base, system.r2.base)):
        M[np.ix_(idx, idx)], sigma[idx] = metric(R)
    return np.block([[E.A, E.B.T], [E.B, E.G]]) + M / tau, M, sigma


def joint_step_reference(system, t, anchor, tau):
    """The state of the joint step by :func:`l1_reference`."""
    K, _, sigma = joint_matrices(system, tau)
    return anchor + l1_reference(K, full_grad(system.energy, t, anchor), sigma)


def active_set_reference(K, c, sigma, signs):
    """``(d, signs, solves)`` of the primal-dual active-set method from the
    pattern ``signs``, or from the one read off -c when that is None, within
    the 8 solves after which the kernel would restart."""

    def pattern(w):  # the sign of each coordinate-wise minimizer
        return np.sign(w) * ((np.abs(w) > sigma) & (sigma > 0.0))

    s = pattern(-c) if signs is None else signs
    for solves in range(1, 9):
        free = (sigma == 0.0) | (s != 0.0)
        d = np.zeros(len(c))
        d[free] = -(np.linalg.inv(K[np.ix_(free, free)]) @ (c + sigma * s)[free])
        last, s = s, pattern(np.diag(K) * d - (K @ d + c))
        if np.array_equal(s, last):
            return d, s, solves
    raise AssertionError("the sign pattern did not settle")


class ActiveSetReference:
    """The active-set joint step, with K = H + M / tau assembled on every
    step and the sign pattern carried from step to step."""

    def __init__(self, system):
        self.system, self.signs = system, None

    def __call__(self, t, anchor, tau):
        E = self.system.energy
        K, M, sigma = joint_matrices(self.system, tau)
        d, self.signs, solves = active_set_reference(K, full_grad(E, t, anchor), sigma,
                                                     self.signs)
        u = anchor + d
        xi = full_grad(E, t, u)
        return u, xi, solves, excess(M @ d / tau + xi, d, sigma)


def leg_reference(system, which, leg, anchor, kept):
    """The steps of one leg of block ``which``, ``(t_eval, h)`` each, from
    ``anchor``: one ``(state, force, iterations, residual)`` per step.

    The other block stays at its anchor values, so block j's gradient is
    H_jj x + r_k with r_k = C x_o - l(t_k).  A quadratic block moves by
    x <- x - K^-1 (H_jj x + r_k), K = H_jj + V~ / h; a yield block on a
    diagonal H_jj takes the shrinkage
    x <- x + (clip(g, -sigma, sigma) - g) / (diag(H_jj) + q~ / h) at
    g = H_jj x + r_k, and on any other H_jj the active-set increment at
    c = H_jj x + r_k with K = H_jj + diag(q~) / h, from the pattern that
    ``kept[which]`` carries from the block's last step.  Forces and
    residuals are taken over the leg."""
    E = system.energy
    idx, other = index_arrays(system)[which - 1], index_arrays(system)[2 - which]
    H, C = (E.A, E.B.T) if which == 1 else (E.G, E.B)
    load = E.f if which == 1 else E.g
    R = (system.r1, system.r2)[which - 1].base.rescaled()
    V = R.quadratic_matrix()
    diagonal = not np.count_nonzero(H - np.diag(np.diag(H)))
    times = np.array([t for t, _ in leg])
    hs = np.array([h for _, h in leg])
    r = np.empty((len(leg), len(idx)))
    r[:] = C @ anchor[other]
    if E._loaded and not load.is_zero:
        r -= load.value(times)
    x, X, iterations = anchor[idx], [anchor[idx]], []
    for r_k, h in zip(r, hs):
        solves = 1
        if V is not None:
            K = H + V / h
            np.linalg.cholesky(K)
            x = x - np.linalg.inv(K) @ (H @ x + r_k)
        elif diagonal:
            sigma_w, quad_w = R.shrinkage_parts()
            g = np.diag(H) * x + r_k
            clipped = np.minimum(np.maximum(g, -sigma_w), sigma_w)
            x = x + (clipped - g) / (np.diag(H) + quad_w / h)
        else:
            sigma_w, quad_w = R.shrinkage_parts()
            K = H + np.diag(quad_w) / h
            np.linalg.cholesky(K)
            d, kept[which], solves = active_set_reference(K, H @ x + r_k, sigma_w,
                                                          kept.get(which))
            x = x + d
        X.append(x)
        iterations.append(solves)
    X = np.array(X)
    D = X[1:] - X[:-1]
    # one step size for the leg divides as a scalar, like the library's
    h = hs[0] if (hs == hs[0]).all() else hs[:, None]
    if V is not None:
        xi = X[1:] @ H.T + r
        excesses = (D / h) @ V.T + xi
    else:
        xi = np.diag(H) * X[1:] + r if diagonal else X[1:] @ H.T + r
        smooth = xi + quad_w * D / h
        excesses = np.where(D != 0.0, smooth + sigma_w * np.sign(D),
                            np.maximum(np.abs(smooth) - sigma_w, 0.0))
    steps = []
    for x_k, xi_k, it, res in zip(X[1:], xi, iterations, np.linalg.norm(excesses, axis=1)):
        u, force = np.array(anchor), np.zeros(system.dim)
        u[idx], force[idx] = x_k, xi_k
        steps.append((u, force, it, float(res)))
    return steps


def block_plan(P, scheme, inner):
    """The steps ``(which, t_eval, h)`` of a block-split or block-amm run."""
    if scheme == "block-split":
        grid = P.refine(inner)
        which = np.where(grid.cell_is_left, 1, 2)
        return list(zip(which, grid.times[1:], grid.times[1:] - grid.times[:-1]))
    return [(j, t, P.taus[k] / 2.0) for k in range(P.N)
            for j, t in ((1, P.midpoints[k]), (2, P.nodes[k + 1]))]


def reference_run(system, scheme, P, u0, inner):
    """``(states, forces, iterations, residuals)``, one entry per prox solve:
    block-split and block-amm runs from :func:`leg_reference`, one leg at a
    time, effective runs from :class:`ActiveSetReference`."""
    u, entries = u0, []
    if scheme.startswith("block-"):
        kept = {}  # the sign pattern of each block's last active-set step
        for which, leg in groupby(block_plan(P, scheme, inner), lambda step: step[0]):
            steps = leg_reference(system, which, [(t, h) for _, t, h in leg], u, kept)
            entries += steps
            u = steps[-1][0]
        return [list(column) for column in zip(*entries)]
    step = ActiveSetReference(system)
    for k in range(P.N):
        u, xi, it, res = step(P.nodes[k + 1], u, P.taus[k])
        entries.append((u, xi, it, res))
    return [list(column) for column in zip(*entries)]


def independent_states(system, scheme, P, u0, inner):
    """The states of the run of ``scheme`` by :func:`l1_reference`, one
    step at a time."""
    u, states = u0, []
    if scheme.startswith("block-"):
        for which, t, h in block_plan(P, scheme, inner):
            u = block_step_reference(system, which, t, u, h)
            states.append(u)
    else:
        for k in range(P.N):
            u = joint_step_reference(system, P.nodes[k + 1], u, P.taus[k])
            states.append(u)
    return np.array(states)


def assert_matches_reference(system, scheme, P, u0, inner):
    """The run of ``scheme`` matches its reference bit for bit; returns it."""
    out = sv.solve(system, scheme, P, u0, TOL, inner)
    states, forces, iterations, residuals = reference_run(system, scheme, P, u0, inner)
    # each solve's state and force are held on the next n cells
    n = out.grid.n_cells // len(states)
    const = np.vstack([u0[None], np.repeat(states, n, axis=0)])
    assert out.u_const.values.tobytes() == const.tobytes()
    assert out.xi.cell_values.tobytes() == np.repeat(forces, n, axis=0).tobytes()
    assert out.stats["inner_iterations"] == iterations
    assert np.array(out.stats["inner_residuals"]).tobytes() == np.array(residuals).tobytes()
    # every step passes its acceptance test
    anchors = np.vstack([u0[None], states[:-1]])
    assert (np.array(residuals) <= TOL * (1.0 + np.linalg.norm(anchors, axis=1))).all()
    # near the states of an independent method, one step at a time
    other = independent_states(system, scheme, P, u0, inner)
    assert np.abs(np.array(states) - other).max() <= 1e-9
    return out


def drawn_load(rng, dim):
    c0, c1, amp = rng.standard_normal((3, dim))
    return Load(c0, c1, amp, omega=float(rng.uniform(1.0, 8.0)))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 6), N=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_block_runs_match_the_assembling_reference(m, N, seed):
    rng = np.random.default_rng(seed)
    preset = make_model("visco-plasticity-1d", m=m, y0=list(rng.standard_normal(m)),
                        z0=list(rng.standard_normal(m + 1)), f_load=drawn_load(rng, m),
                        g_load=drawn_load(rng, m + 1))
    P = build_partition(1.0, N=N)
    for scheme in SCHEMES:
        assert_matches_reference(preset.system, scheme, P, preset.u0, 4)


def block_system(n_y, n_z, rng):
    """A quadratic block system with layout (n_y, n_z): a quadratic form
    moves y, a one-homogeneous plus quadratic potential moves z."""
    n = n_y + n_z
    M = rng.standard_normal((n, n))
    H = M @ M.T + n * np.eye(n)
    E = QuadraticBlockEnergy(H[:n_y, :n_y], H[n_y:, :n_y], H[n_y:, n_y:],
                             f=drawn_load(rng, n_y), g=drawn_load(rng, n_z))
    Ry = pt.QuadraticForm(np.diag(rng.uniform(0.5, 2.0, n_y)))
    Rz = pt.OneHomPlusQuad(0.1, 1.0, rng.uniform(0.5, 2.0, n_z))
    return sv.GradientSystem(E, pt.BlockIndicator(Ry, np.arange(n_y), n),
                             pt.BlockIndicator(Rz, np.arange(n_y, n), n))


@pytest.mark.parametrize("layout", [(2, 0), (0, 3), (2, 3)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_blocks_of_size_zero_run_and_match_the_reference(layout, scheme):
    rng = np.random.default_rng(sum(layout))
    system = block_system(*layout, rng)
    u0 = rng.standard_normal(system.dim)
    assert_matches_reference(system, scheme, build_partition(1.0, N=3), u0, 2)


def spd(rng, n, shift):
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * np.eye(n)


@settings(max_examples=100, deadline=None)
@given(n_y=st.integers(0, 5), n_z=st.integers(0, 5),
       yields=st.sampled_from(["y", "z", "both", "neither"]), N=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1))
def test_active_set_steps_settle_and_pass_the_audit(n_y, n_z, yields, N, seed):
    """Drawn quadratic block systems whose block potentials yield or are
    quadratic forms: every effective step settles within the solves of one
    run of the active-set method, with no coordinate-descent restart, and
    passes its acceptance test, and the run passes its audit."""
    n = n_y + n_z
    assume(n > 0)
    rng = np.random.default_rng(seed)
    H = spd(rng, n, float(rng.uniform(0.1, n)))
    E = QuadraticBlockEnergy(H[:n_y, :n_y], H[n_y:, :n_y], H[n_y:, n_y:],
                             f=drawn_load(rng, n_y), g=drawn_load(rng, n_z))
    blocks, yielding = [], 0
    for size, name in ((n_y, "y"), (n_z, "z")):
        if yields in (name, "both"):
            yielding += size
            blocks.append(pt.OneHomPlusQuad(float(rng.uniform(0.05, 1.0)),
                                            float(rng.uniform(0.5, 2.0)),
                                            rng.uniform(0.5, 2.0, size)))
        else:
            blocks.append(pt.QuadraticForm(spd(rng, size, 0.5)))
    system = sv.GradientSystem(E, pt.BlockIndicator(blocks[0], np.arange(n_y), n),
                               pt.BlockIndicator(blocks[1], np.arange(n_y, n), n))
    u0 = rng.standard_normal(n)
    P = build_partition(1.0, N=N)
    out = sv.solve(system, "effective", P, u0, TOL, 2)
    assert max(out.stats["inner_iterations"]) <= sv._ACTIVE_SET_SOLVES
    anchors = out.node_states()[:-1]
    residuals = np.array(out.stats["inner_residuals"])
    assert (residuals <= TOL * (1.0 + np.linalg.norm(anchors, axis=1))).all()
    if not yielding:  # each step is one linear solve
        assert out.stats["inner_iterations"] == [1] * N
    assert dg.edb_audit(out, system).passed


@settings(max_examples=40, deadline=None)
@given(n_y=st.integers(0, 4), n_z=st.integers(0, 4), diagonal=st.booleans(),
       yields=st.sampled_from(["y", "z", "both", "neither"]), N=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_drawn_block_runs_match_their_legs_and_pass_the_audit(n_y, n_z, diagonal, yields, N,
                                                              seed):
    """Drawn positive definite block energies with time-dependent loads,
    whose diagonal blocks A and G are diagonal or not, with yielding or
    quadratic block potentials, blocks of size 0 included: the staggered
    runs match the leg reference bit for bit (a yield block whose Hessian
    block is not diagonal steps by the active-set method) and stay within
    1e-9 of one step at a time by an independent method, and pass their
    audits."""
    n = n_y + n_z
    assume(n > 0)
    rng = np.random.default_rng(seed)
    H = spd(rng, n, float(rng.uniform(0.1, n)))
    if diagonal:
        # adding a diagonally dominant matrix with a nonnegative diagonal keeps
        # H positive definite: each diagonal block becomes diag(|row| sums)
        for idx in (slice(0, n_y), slice(n_y, n)):
            H[idx, idx] = np.diag(np.abs(H[idx, idx]).sum(axis=1))
    E = QuadraticBlockEnergy(H[:n_y, :n_y], H[n_y:, :n_y], H[n_y:, n_y:],
                             f=drawn_load(rng, n_y), g=drawn_load(rng, n_z))
    blocks = []
    for size, name in ((n_y, "y"), (n_z, "z")):
        if yields in (name, "both"):
            blocks.append(pt.OneHomPlusQuad(float(rng.uniform(0.05, 1.0)),
                                            float(rng.uniform(0.5, 2.0)),
                                            rng.uniform(0.5, 2.0, size)))
        else:
            blocks.append(pt.QuadraticForm(spd(rng, size, 0.5)))
    system = sv.GradientSystem(E, pt.BlockIndicator(blocks[0], np.arange(n_y), n),
                               pt.BlockIndicator(blocks[1], np.arange(n_y, n), n))
    u0 = rng.standard_normal(n)
    P = build_partition(1.0, N=N)
    for scheme in ("block-split", "block-amm"):
        out = assert_matches_reference(system, scheme, P, u0, 2)
        assert dg.edb_audit(out, system).passed
