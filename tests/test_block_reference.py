"""The staggered block schemes and the effective block step against the
arithmetic they replaced.

The references below move a block the way the frozen-block view used to:
assemble the full state, take the gradient of both blocks with one
expression per block, and gather the active indices.  The joint step of
these quadratic systems is the active-set step: its reference assembles
K from the energy's blocks and the potentials on every step and reads the
gradient and the residual off the same full gradient.  The library's block
steps compute only the block that moves, with the same expressions, so
every node state, force, inner iteration count and residual must agree bit
for bit.  The Gauss-Seidel joint step that the active-set step replaced
for them is kept as a reference too: the effective runs stay within 1e-9
of its states.
"""

import math
from functools import partial

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


def reference_run(system, scheme, P, u0, inner):
    """``(states, forces, iterations, residuals)``, one entry per prox solve;
    the scheme ``"gauss-seidel"`` is the effective run by Gauss-Seidel sweeps."""
    if scheme == "block-split":
        grid = P.refine(inner)
        which = np.where(grid.cell_is_left, 1, 2)
        plan = [(lambda t, u, h, j=j: block_step_reference(system, j, t, u, h), b, b - a)
                for j, a, b in zip(which, grid.times[:-1], grid.times[1:])]
    elif scheme == "block-amm":
        plan = []
        for k in range(P.N):
            h = P.taus[k] / 2.0
            plan += [(lambda t, u, h: block_step_reference(system, 1, t, u, h),
                      P.midpoints[k], h),
                     (lambda t, u, h: block_step_reference(system, 2, t, u, h),
                      P.nodes[k + 1], h)]
    else:
        step = ActiveSetReference(system)
        if scheme == "gauss-seidel":
            step = partial(joint_step_reference, system)
        plan = [(step, P.nodes[k + 1], P.taus[k]) for k in range(P.N)]
    u, entries = u0, []
    for step, t, h in plan:
        u, xi, it, res = step(t, u, h)
        entries.append((u, xi, it, res))
    return [list(column) for column in zip(*entries)]


def assert_matches_reference(system, scheme, P, u0, inner):
    out = sv.solve(system, scheme, P, u0, TOL, inner)
    states, forces, iterations, residuals = reference_run(system, scheme, P, u0, inner)
    # each solve's state and force are held on the next n cells
    n = out.grid.n_cells // len(states)
    const = np.vstack([u0[None], np.repeat(states, n, axis=0)])
    assert out.u_const.values.tobytes() == const.tobytes()
    assert out.xi.cell_values.tobytes() == np.repeat(forces, n, axis=0).tobytes()
    assert out.stats["inner_iterations"] == iterations
    assert np.array(out.stats["inner_residuals"]).tobytes() == np.array(residuals).tobytes()
    if scheme == "effective":
        # every step passes the Gauss-Seidel acceptance test, near its states
        anchors = np.vstack([u0[None], states[:-1]])
        assert (np.array(residuals) <= TOL * (1.0 + np.linalg.norm(anchors, axis=1))).all()
        sweeps = reference_run(system, "gauss-seidel", P, u0, inner)[0]
        assert np.abs(np.array(states) - np.array(sweeps)).max() <= 1e-9


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
