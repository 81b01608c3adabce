"""The staggered block schemes and the effective block step against the
arithmetic they replaced.

The references below move a block the way the frozen-block view used to:
assemble the full state, take the gradient of both blocks with one
expression per block, and gather the active indices.  The joint step
takes its prox methods and shrinkage parts on every step and reads the
residual off the same full gradient.  The library's block steps compute
only the block that moves, with the same expressions, so every node
state, force, inner iteration count and residual must agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_run(system, scheme, P, u0, inner):
    """``(states, forces, iterations, residuals)``, one entry per prox solve."""
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
        plan = [(lambda t, u, h: joint_step_reference(system, t, u, h), P.nodes[k + 1],
                 P.taus[k]) for k in range(P.N)]
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
