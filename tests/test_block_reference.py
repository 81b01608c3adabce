"""The staggered block schemes and the effective block step against the
arithmetic they replaced.

A block step used to move its block through the frozen-block view: the
per-step reference below does so the way that view used to, assembling the
full state, taking the gradient of both blocks with one expression per
block and gathering the active indices.  A block of a quadratic energy
whose potential is quadratic, or yields on a diagonal Hessian block, now
steps a whole leg (a run of steps of one mechanism) per call: its leg
reference restates that kernel's arithmetic from the energy's blocks and
the potentials, one leg at a time, and the library must match it bit for
bit; the states stay within 1e-9 of the per-step reference, and every
step's residual is within the tolerance.  Any other block (a yield block
whose Hessian block is not diagonal) still steps one prox at a time and
matches the per-step reference bit for bit.

The joint step of these quadratic systems is the active-set step: its
reference assembles K from the energy's blocks and the potentials on every
step and reads the gradient and the residual off the same full gradient.
The Gauss-Seidel joint step that the active-set step replaced for them is
kept as a reference too: the effective runs stay within 1e-9 of its states.
"""

import math
from functools import partial
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitflow import diagnostics as dg
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import EnergySpec, Load, QuadraticBlockEnergy
from splitflow.errors import NumericalError
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


def prox_reference(E, R, idx, t, anchor, h, full):
    """The prox step of R on block ``idx`` from ``anchor`` with the rest of
    the state frozen at ``full``, by the method the kinds of E and R select."""
    view = FrozenReference(E, idx, full)
    H = E.hess(0.0, np.zeros(E.dim))[np.ix_(idx, idx)]
    VR = R.quadratic_matrix()
    if VR is not None:
        return sv._prox_quadratic(VR, H, view, t, anchor[idx], h, TOL)
    spectral = None if sv._is_diagonal(H) else float(np.linalg.norm(H, 2))
    return sv._prox_shrinkage(R.shrinkage_parts(), H, spectral, view, t, anchor[idx], h, TOL)


def block_step_reference(system, which, t, anchor, h):
    idx = index_arrays(system)[which - 1]
    R = pt.Rescaled((system.r1, system.r2)[which - 1].base)
    u_act, xi_act, stats = prox_reference(system.energy, R, idx, t, anchor, h, anchor)
    u = np.array(anchor)
    u[idx] = u_act
    xi = np.zeros(system.dim)
    xi[idx] = xi_act
    return u, xi, stats.iterations, stats.residual


def joint_residual_reference(system, t, anchor, u, tau):
    idx_y, idx_z = index_arrays(system)
    g = full_grad(system.energy, t, u)
    vy = (u[idx_y] - anchor[idx_y]) / tau
    ry = float(np.linalg.norm(system.r1.base.grad(vy) + g[idx_y]))
    vz = (u[idx_z] - anchor[idx_z]) / tau
    sigma_w, quad_w = system.r2.base.shrinkage_parts()
    smooth = quad_w * vz + g[idx_z]
    rz_vec = np.where(vz != 0.0, smooth + sigma_w * np.sign(vz),
                      np.maximum(np.abs(smooth) - sigma_w, 0.0))
    return math.hypot(ry, float(np.linalg.norm(rz_vec)))


def joint_step_reference(system, t, anchor, tau, max_sweeps=200):
    E = system.energy
    idx_y, idx_z = index_arrays(system)
    u = np.array(anchor)
    scale = 1.0 + float(np.linalg.norm(anchor))
    for sweeps in range(1, max_sweeps + 1):
        u[idx_y] = prox_reference(E, system.r1.base, idx_y, t, anchor, tau, u)[0]
        u[idx_z] = prox_reference(E, system.r2.base, idx_z, t, anchor, tau, u)[0]
        res = joint_residual_reference(system, t, anchor, u, tau)
        if res <= TOL * scale:
            return u, full_grad(E, t, u), sweeps, res
    raise NumericalError("joint block prox stagnated")


class ActiveSetReference:
    """The active-set joint step, with K = H + M / tau assembled on every
    step and the sign pattern carried from step to step."""

    def __init__(self, system, max_solves=8):
        self.system, self.max_solves, self.signs = system, max_solves, None

    def __call__(self, t, anchor, tau):
        system, E = self.system, self.system.energy
        n = system.dim
        M, sigma = np.zeros((n, n)), np.zeros(n)
        for idx, R in zip(index_arrays(system), (system.r1.base, system.r2.base)):
            parts = R.shrinkage_parts()
            if parts is None:
                M[np.ix_(idx, idx)] = R.quadratic_matrix()
            else:
                M[np.ix_(idx, idx)] = np.diag(parts[1])
                sigma[idx] = parts[0]
        K = np.block([[E.A, E.B.T], [E.B, E.G]]) + M / tau
        c = full_grad(E, t, anchor)

        def pattern(w):  # the sign of each coordinate-wise minimizer
            return np.sign(w) * ((np.abs(w) > sigma) & (sigma > 0.0))

        s = pattern(-c) if self.signs is None else self.signs
        for solves in range(1, self.max_solves + 1):
            free = (sigma == 0.0) | (s != 0.0)
            d = np.zeros(n)
            d[free] = -(np.linalg.inv(K[np.ix_(free, free)]) @ (c + sigma * s)[free])
            last, s = s, pattern(np.diag(K) * d - (K @ d + c))
            if np.array_equal(s, last):
                break
        else:
            raise AssertionError("the sign pattern did not settle")
        u = anchor + d
        self.signs = s
        return u, full_grad(E, t, u), solves, joint_residual_reference(system, t, anchor,
                                                                        u, tau)


def has_leg_kernel(system, which):
    """True when block ``which`` steps a whole leg per call: a quadratic
    energy whose blocks are the system's, and a quadratic block potential,
    or one with shrinkage parts on a diagonal Hessian block."""
    E, R = system.energy, (system.r1, system.r2)[which - 1].base
    if not isinstance(E, QuadraticBlockEnergy) or E.n_y != system.block_layout[0]:
        return False
    H = (E.A, E.G)[which - 1]
    return R.quadratic_matrix() is not None or (
        R.shrinkage_parts() is not None and not np.count_nonzero(H - np.diag(np.diag(H))))


def leg_reference(system, which, leg, anchor):
    """The steps of one leg of block ``which``, ``(t_eval, h)`` each, from
    ``anchor``: one ``(state, force, iterations, residual)`` per step.

    The other block stays at its anchor values, so block j's gradient is
    H_jj x + r_k with r_k = C x_o - l(t_k).  A quadratic block moves by
    x <- x - K^-1 (H_jj x + r_k), K = H_jj + V~ / h; a yield block takes the
    shrinkage x <- x + (clip(g, -sigma, sigma) - g) / (diag(H_jj) + q~ / h)
    at g = H_jj x + r_k.  Forces and residuals are taken over the leg."""
    E = system.energy
    idx, other = index_arrays(system)[which - 1], index_arrays(system)[2 - which]
    H, C = (E.A, E.B.T) if which == 1 else (E.G, E.B)
    load = E.f if which == 1 else E.g
    R = pt.Rescaled((system.r1, system.r2)[which - 1].base)
    V = R.quadratic_matrix()
    times = np.array([t for t, _ in leg])
    hs = np.array([h for _, h in leg])
    r = np.empty((len(leg), len(idx)))
    r[:] = C @ anchor[other]
    if E._loaded and not load.is_zero:
        r -= load.value(times)
    x, X = anchor[idx], [anchor[idx]]
    for r_k, h in zip(r, hs):
        if V is not None:
            K = H + V / h
            np.linalg.cholesky(K)
            x = x - np.linalg.inv(K) @ (H @ x + r_k)
        else:
            sigma_w, quad_w = R.shrinkage_parts()
            g = np.diag(H) * x + r_k
            clipped = np.minimum(np.maximum(g, -sigma_w), sigma_w)
            x = x + (clipped - g) / (np.diag(H) + quad_w / h)
        X.append(x)
    X = np.array(X)
    D = X[1:] - X[:-1]
    # one step size for the leg divides as a scalar, like the library's
    h = hs[0] if (hs == hs[0]).all() else hs[:, None]
    if V is not None:
        xi = X[1:] @ H.T + r
        excess = (D / h) @ V.T + xi
    else:
        xi = np.diag(H) * X[1:] + r
        smooth = xi + quad_w * D / h
        excess = np.where(D != 0.0, smooth + sigma_w * np.sign(D),
                          np.maximum(np.abs(smooth) - sigma_w, 0.0))
    steps = []
    for x_k, xi_k, res in zip(X[1:], xi, np.linalg.norm(excess, axis=1)):
        u, force = np.array(anchor), np.zeros(system.dim)
        u[idx], force[idx] = x_k, xi_k
        steps.append((u, force, 1, float(res)))
    return steps


def block_plan(P, scheme, inner):
    """The steps ``(which, t_eval, h)`` of a block-split or block-amm run."""
    if scheme == "block-split":
        grid = P.refine(inner)
        which = np.where(grid.cell_is_left, 1, 2)
        return list(zip(which, grid.times[1:], grid.times[1:] - grid.times[:-1]))
    return [(j, t, P.taus[k] / 2.0) for k in range(P.N)
            for j, t in ((1, P.midpoints[k]), (2, P.nodes[k + 1]))]


def reference_run(system, scheme, P, u0, inner, per_step=False):
    """``(states, forces, iterations, residuals)``, one entry per prox solve.

    A block-split or block-amm run takes its legs from :func:`leg_reference`
    where the block has a leg kernel, else (or with ``per_step``) one step
    at a time from :func:`block_step_reference`.  The scheme
    ``"gauss-seidel"`` is the effective run by Gauss-Seidel sweeps."""
    u, entries = u0, []
    if scheme.startswith("block-"):
        for which, leg in groupby(block_plan(P, scheme, inner), lambda step: step[0]):
            leg = [(t, h) for _, t, h in leg]
            if has_leg_kernel(system, which) and not per_step:
                steps = leg_reference(system, which, leg, u)
                entries += steps
                u = steps[-1][0]
                continue
            for t, h in leg:
                u, xi, it, res = block_step_reference(system, which, t, u, h)
                entries.append((u, xi, it, res))
        return [list(column) for column in zip(*entries)]
    step = ActiveSetReference(system)
    if scheme == "gauss-seidel":
        step = partial(joint_step_reference, system)
    for k in range(P.N):
        u, xi, it, res = step(P.nodes[k + 1], u, P.taus[k])
        entries.append((u, xi, it, res))
    return [list(column) for column in zip(*entries)]


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
    near = "gauss-seidel" if scheme == "effective" else scheme
    if near != scheme or any(has_leg_kernel(system, j) for j in (1, 2)):
        # near the states of the Gauss-Seidel sweeps, or of one step at a time
        other = reference_run(system, near, P, u0, inner, per_step=True)[0]
        assert np.abs(np.array(states) - np.array(other)).max() <= 1e-9
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
    quadratic forms: every effective step settles without the Gauss-Seidel
    fallback and passes its acceptance test, and the run passes its audit."""
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
    assert sv._joint_block_step(system).func is sv._joint_active_set

    def no_fallback(*args):
        raise AssertionError("an active-set step fell back to Gauss-Seidel sweeps")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sv, "_gauss_seidel_step", no_fallback)
        out = sv.solve(system, "effective", P, u0, TOL, 2)
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
    runs match the leg reference bit for bit and stay within 1e-9 of one
    step at a time (a yield block whose Hessian block is not diagonal steps
    by FISTA, one step at a time), and pass their audits."""
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
