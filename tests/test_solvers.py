import math

import numpy as np
import pytest

from splitflow import energies as en
from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.errors import InputError
from splitflow.models import make_model


def scalar_quadratic_energy():
    """E(u) = u^2/2 as a degenerate one-block quadratic energy."""
    return en.QuadraticBlockEnergy(A=np.eye(1))


def quad_identity():
    return pt.QuadraticForm(np.eye(1))


def counterexample_system():
    return make_model("counterexample").system


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def grid_search_prox_1d(E, R, t, anchor, h, lo=-3.0, hi=3.0):
    """Dense 1-D search, coarse sweep then local refinement to step 1e-6."""

    def objective(u):
        return h * R([(u - anchor) / h]) + E.eval(t, [u])

    for step in (1e-3, 1e-6):
        us = np.arange(lo, hi + step, step)
        vals = np.array([objective(u) for u in us])
        best = us[int(np.argmin(vals))]
        lo, hi = best - 2e-3, best + 2e-3
    return best


def coordinate_descent_prox(E, R, t, anchor, h, tol=1e-6, sweeps=400):
    """Independent prox oracle: per-coordinate golden-section minimization."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def line_min(u, j):
        lo, hi = u[j] - 2.0, u[j] + 2.0

        def f(x):
            w = np.array(u)
            w[j] = x
            return h * R((w - anchor) / h) + E.eval(t, w)

        a, b = lo, hi
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        while abs(b - a) > tol * 1e-3:
            if f(c) < f(d):
                b, d = d, c
                c = b - golden * (b - a)
            else:
                a, c = c, d
                d = a + golden * (b - a)
        return 0.5 * (a + b)

    u = np.array(anchor, dtype=float)
    for _ in range(sweeps):
        moved = 0.0
        for j in range(u.size):
            new = line_min(u, j)
            moved = max(moved, abs(new - u[j]))
            u[j] = new
        if moved < tol:
            break
    return u


# ---------------------------------------------------------------------------
# prox_step
# ---------------------------------------------------------------------------


def test_prox_quadratic_closed_form():
    E = scalar_quadratic_energy()
    u, xi = sv.prox_step(E, quad_identity(), 0.0, [1.0], 1.0)
    assert u[0] == pytest.approx(0.5)
    assert xi[0] == pytest.approx(0.5)


def test_prox_stationary_anchor():
    E = scalar_quadratic_energy()
    u, xi = sv.prox_step(E, quad_identity(), 0.0, [0.0], 1.0)
    assert u[0] == pytest.approx(0.0)
    assert xi[0] == pytest.approx(0.0)


def test_prox_allen_cahn_matches_coordinate_descent():
    E = en.AllenCahn1DEnergy(m=3)
    R = pt.Rescaled(pt.PowerNorm(2.0, dim=3))
    anchor = np.array([0.5, 0.5, 0.5])
    u, xi = sv.prox_step(E, R, 0.0, anchor, 0.1, tol=1e-12)
    oracle = coordinate_descent_prox(E, R, 0.0, anchor, 0.1)
    np.testing.assert_allclose(u, oracle, atol=1e-4)
    np.testing.assert_allclose(xi, E.grad(0.0, u), atol=1e-12)
    # descent of the incremental functional relative to the anchor
    F = lambda w: 0.1 * R((w - anchor) / 0.1) + E.eval(0.0, w)
    assert F(u) <= F(anchor) + 1e-14


def test_prox_positive_step_required():
    with pytest.raises(InputError):
        sv.prox_step(scalar_quadratic_energy(), quad_identity(), 0.0, [1.0], 0.0)


# ---------------------------------------------------------------------------
# substep_flow regime velocities
# ---------------------------------------------------------------------------


def test_substep_velocity_first_mechanism():
    sys = counterexample_system()
    curve = sv.substep_flow(sys, 1, (0.0, 0.25), [2.0, 1.0], inner_steps=2)
    rate = (curve.at(0.25) - curve.at(0.0)) / 0.25
    np.testing.assert_allclose(rate, [-2.0, 0.0], atol=1e-12)


def test_substep_velocity_second_mechanism():
    sys = counterexample_system()
    curve = sv.substep_flow(sys, 2, (0.0, 0.1), [2.0, 1.0], inner_steps=2)
    rate = (curve.at(0.1) - curve.at(0.0)) / 0.1
    np.testing.assert_allclose(rate, [-6.0, 0.0], atol=1e-12)


def test_effective_diagonal_velocity():
    sys = counterexample_system()
    P = pa.build_partition(0.25, N=2)
    out = sv.effective_solve(sys, P, [1.0, 1.0])
    rate = (out.u_linear.at(0.2) - out.u_linear.at(0.0)) / 0.2
    np.testing.assert_allclose(rate, [-2.0, -2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# split-step on the counterexample
# ---------------------------------------------------------------------------


def test_split_alternating_slopes_before_diagonal():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=64)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    tau = 1.0 / 64
    # first coordinate drops with slope -2 on left semis and -6 on right semis
    u_left = out.u_linear.at(tau / 2)
    assert (u_left[0] - 2.0) / (tau / 2) == pytest.approx(-2.0, abs=1e-9)
    u_right = out.u_linear.at(tau)
    assert (u_right[0] - u_left[0]) / (tau / 2) == pytest.approx(-6.0, abs=1e-9)
    # mean slope -4 per full step while in the first regime
    u_step = out.u_linear.at(8 * tau)
    assert (u_step[0] - 2.0) / (8 * tau) == pytest.approx(-4.0, abs=1e-9)
    assert u_step[1] == pytest.approx(1.0, abs=1e-12)


def test_split_diagonal_speed_and_time_to_zero():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=64)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    # on the diagonal both mechanisms move with speed (3/2, 3/2)
    u_a = out.u_linear.at(0.5)
    u_b = out.u_linear.at(0.6)
    rate = (u_b - u_a) / 0.1
    np.testing.assert_allclose(rate, [-1.5, -1.5], atol=1e-9)
    speed = float(np.linalg.norm(rate))
    assert speed == pytest.approx(1.5 * math.sqrt(2.0), abs=1e-9)
    ttz = sv.time_to_zero(out)
    assert ttz == pytest.approx(0.25 + 2.0 / 3.0, abs=2.0 / 64)


def test_split_stationary_at_minimizer():
    E = en.QuadraticBlockEnergy(A=np.eye(2))
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(2)), r2=pt.QuadraticForm(2 * np.eye(2))
    )
    P = pa.build_partition(1.0, N=4)
    out = sv.split_step_solve(sys, P, [0.0, 0.0])
    np.testing.assert_allclose(out.u_linear.values, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# alternating minimizing movements
# ---------------------------------------------------------------------------


def test_amm_scalar_sanity_step():
    # one step, tau = 1: the half-step functional reduces to
    # R((u - anchor)) + u^2/2, so U1 = 1/2 and U2 = 1/4
    E = scalar_quadratic_energy()
    sys = sv.GradientSystem(energy=E, r1=quad_identity(), r2=quad_identity())
    P = pa.build_partition(1.0, N=1)
    out = sv.amm_solve(sys, P, [1.0], tol=1e-13)
    u_mid = out.u_const.at(0.5)[0]
    u_end = out.u_const.at(1.0)[0]
    # frozen values verified against a dense 1-D search of the functional
    oracle_mid = grid_search_prox_1d(E, pt.Rescaled(quad_identity()), 0.25, 1.0, 0.5)
    assert u_mid == pytest.approx(0.5, abs=1e-10)
    assert oracle_mid == pytest.approx(0.5, abs=1e-5)
    oracle_end = grid_search_prox_1d(
        E, pt.Rescaled(quad_identity()), 1.0, oracle_mid, 0.5
    )
    assert u_end == pytest.approx(0.25, abs=1e-10)
    assert oracle_end == pytest.approx(0.25, abs=1e-5)


def test_amm_stationary():
    E = scalar_quadratic_energy()
    sys = sv.GradientSystem(energy=E, r1=quad_identity(), r2=quad_identity())
    P = pa.build_partition(1.0, N=3)
    out = sv.amm_solve(sys, P, [0.0])
    np.testing.assert_allclose(out.u_const.values, 0.0, atol=1e-14)


def test_amm_tracks_split_on_counterexample():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=64)
    split = sv.split_step_solve(sys, P, [2.0, 1.0])
    amm = sv.amm_solve(sys, P, [2.0, 1.0])
    gap = np.max(
        np.abs(split.u_linear.at(P.nodes) - amm.u_linear.at(P.nodes))
    )
    assert gap <= 6.0 / 64  # O(tau) agreement of the two schemes


def test_amm_interpolants_agree_at_nodes_and_midpoints():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, [2.0, 1.0])
    for t in np.concatenate([P.nodes[1:], P.midpoints]):
        np.testing.assert_allclose(
            out.u_linear.at(t), out.u_const.at(t), atol=1e-12
        )


def test_amm_forces_are_energy_subgradients():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, [2.0, 1.0], tol=1e-12)
    E = sys.energy
    for k in range(P.N):
        t_mid, t_end = P.midpoints[k], P.nodes[k + 1]
        for t_eval, t_probe in ((t_mid, t_mid), (t_end, t_end)):
            u = out.u_const.at(t_probe)
            xi = out.xi.at(t_probe)
            assert E.subdiff(t_eval, u).contains(xi, tol=1e-9)


def test_amm_variational_interpolant_matches_nodes():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=4)
    out = sv.amm_solve(sys, P, [2.0, 1.0], with_variational=True)
    assert out.scheme == "amm"
    # one entry per prox solve: two half-steps per step
    assert len(out.stats["inner_iterations"]) == 2 * P.N
    assert len(out.stats["inner_residuals"]) == 2 * P.N
    assert out.u_variational is not None
    for t in np.concatenate([P.midpoints, P.nodes[1:]]):
        np.testing.assert_allclose(
            out.u_variational.at(t), out.u_const.at(t), atol=1e-10
        )


def test_amm_energy_monotone_autonomous():
    preset = make_model("allen-cahn-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, preset.u0)
    E = sys.energy
    checkpoints = np.sort(np.concatenate([P.nodes[1:], P.midpoints]))
    vals = [E.eval(0.0, preset.u0)]
    vals += [E.eval(0.0, out.u_const.at(t)) for t in checkpoints]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# block solves
# ---------------------------------------------------------------------------


def test_block_y_half_step_is_linear_solve():
    preset = make_model("visco-plasticity-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=4)
    out = sv.block_solve(sys, P, preset.u0, mode="amm", tol=1e-12)
    idx_y, idx_z = sys.block_indices()
    tau = P.taus[0]
    y0 = preset.u0[idx_y]
    y1 = out.u_const.at(P.midpoints[0])[idx_y]
    rate = (y1 - y0) / (tau / 2.0)
    eta = out.xi.at(P.midpoints[0])[idx_y]
    Ry_t = pt.Rescaled(sys.r1.base)
    resid = np.linalg.norm(Ry_t.grad(rate) + eta)
    assert resid <= 1e-10


def test_block_z_frozen_on_left_y_frozen_on_right():
    preset = make_model("visco-plasticity-1d", m=6)
    sys = preset.system
    P = pa.build_partition(1.0, N=3)
    out = sv.block_solve(sys, P, preset.u0, mode="amm")
    idx_y, idx_z = sys.block_indices()
    for k in range(P.N):
        start = out.u_const.at(P.nodes[k] + 1e-12)
        mid = out.u_const.at(P.midpoints[k])
        end = out.u_const.at(P.nodes[k + 1])
        np.testing.assert_array_equal(mid[idx_z], start[idx_z])  # z frozen left
        np.testing.assert_array_equal(end[idx_y], mid[idx_y])  # y frozen right


def test_block_large_yield_freezes_z_exactly():
    preset = make_model("visco-plasticity-1d", m=6, sigma_yield=100.0)
    sys = preset.system
    P = pa.build_partition(1.0, N=5)
    for mode in ("amm", "split"):
        out = sv.block_solve(sys, P, preset.u0, mode=mode)
        idx_y, idx_z = sys.block_indices()
        z_vals = out.u_linear.values[:, idx_z]
        np.testing.assert_array_equal(z_vals, np.tile(preset.u0[idx_z], (len(z_vals), 1)))


def test_block_energy_monotone_zero_loads():
    preset = make_model("visco-plasticity-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=6)
    E = sys.energy
    for mode in ("amm", "split"):
        out = sv.block_solve(sys, P, preset.u0, mode=mode)
        checkpoints = np.sort(np.concatenate([P.nodes[1:], P.midpoints]))
        vals = [E.eval(0.0, preset.u0)]
        vals += [E.eval(0.0, out.u_const.at(t)) for t in checkpoints]
        assert all(b <= a + 1e-11 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# effective solve
# ---------------------------------------------------------------------------


def test_effective_counterexample_exact_regimes():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=64)
    out = sv.effective_solve(sys, P, [2.0, 1.0])
    assert out.segments is not None
    # first regime ends at t = 1/a = 0.25
    np.testing.assert_allclose(out.u_linear.at(0.25), [1.0, 1.0], atol=1e-12)
    rate = (out.u_linear.at(0.5) - out.u_linear.at(0.3)) / 0.2
    np.testing.assert_allclose(rate, [-2.0, -2.0], atol=1e-12)
    assert sv.time_to_zero(out) == pytest.approx(0.75, abs=1e-9)
    np.testing.assert_allclose(out.u_linear.at(0.0), [2.0, 1.0], atol=1e-14)


def test_effective_block_is_simultaneous_implicit_step():
    preset = make_model("visco-plasticity-1d", m=6)
    sys = preset.system
    P = pa.build_partition(0.5, N=2)
    out = sv.effective_solve(sys, P, preset.u0, tol=1e-12)
    idx_y, idx_z = sys.block_indices()
    tau = P.taus[0]
    u1 = out.u_const.at(P.nodes[1])
    rate = (u1 - preset.u0) / tau
    g = sys.energy.grad(P.nodes[1], u1)
    # joint optimality: -grad E in dR_y x dR_z at the accepted rates
    ry = np.linalg.norm(sys.r1.base.grad(rate[idx_y]) + g[idx_y])
    assert ry <= 1e-9
    sig_w, quad_w = sys.r2.base.shrinkage_parts()
    vz = rate[idx_z]
    smooth = quad_w * vz + g[idx_z]
    rz_vec = np.where(
        vz != 0.0,
        smooth + sig_w * np.sign(vz),
        np.maximum(np.abs(smooth) - sig_w, 0.0),
    )
    assert np.linalg.norm(rz_vec) <= 1e-9


def test_joint_block_step_takes_one_gradient_per_residual(monkeypatch):
    preset = make_model("visco-plasticity-1d", m=6)
    system = preset.system
    grads, probes = [], []
    grad, has_grad = en.QuadraticBlockEnergy.grad, sv._has_grad

    def counted_grad(self, t, u):
        grads.append(t)
        return grad(self, t, u)

    def counted_probe(R):
        probes.append(R)
        return has_grad(R)

    monkeypatch.setattr(en.QuadraticBlockEnergy, "grad", counted_grad)
    monkeypatch.setattr(sv, "_has_grad", counted_probe)
    res = sv._joint_block_residual(system, 0.5, preset.u0, preset.u0 + 0.01, 0.1, True)
    assert len(grads) == 1 and res > 0.0
    # the smoothness of the y potential is probed once per step, not per sweep
    _, _, stats = sv._joint_block_prox(system, 0.5, preset.u0, 0.25, 1e-12)
    assert stats.iterations > 1
    assert len(probes) == 1


def test_effective_stationary():
    E = en.QuadraticBlockEnergy(A=np.eye(2))
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(2)), r2=pt.QuadraticForm(np.eye(2))
    )
    P = pa.build_partition(1.0, N=4)
    out = sv.effective_solve(sys, P, [0.0, 0.0])
    np.testing.assert_allclose(out.u_linear.values, 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "solve, u0",
    [
        # R~_1 leaves the axis regime after (u1 - u2)/2
        (sv.split_step_solve, [1.0 + 2.0 * 6.75 / 64, 1.0]),
        # the effective flow leaves it after (u1 - u2)/4
        (sv.effective_solve, [1.0 + 4.0 * 6.75 / 64, 1.0]),
    ],
)
def test_exact_cell_force_is_taken_at_the_cell_right_end(solve, u0):
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=4)  # 64 cells of width 1/64
    out = solve(sys, P, u0)
    # the first regime switch lies in the second half of cell 6
    assert out.segments[0].t1 == pytest.approx(6.75 / 64, abs=1e-15)
    np.testing.assert_array_equal(out.xi.cell_values[6], out.segments[1].xi)
    for b, xi in zip(out.grid.times[1:], out.xi.cell_values):
        seg = next(seg for seg in out.segments if seg.t1 >= b - 1e-15)
        np.testing.assert_array_equal(xi, seg.xi)


# ---------------------------------------------------------------------------
# interpolant consistency under refinement
# ---------------------------------------------------------------------------


def test_interpolant_consistency_under_refinement():
    sys = counterexample_system()
    sups = []
    for N in (8, 16, 32, 64):
        P = pa.build_partition(1.0, N=N)
        out = sv.amm_solve(sys, P, [2.0, 1.0])
        ts = out.grid.cell_midpoints()
        gap = np.max(
            np.linalg.norm(out.u_const.at(ts) - out.u_delayed.at(ts), axis=1)
        )
        sups.append(gap)
    assert all(b < a for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# power control along runs, effective prox optimality, serialization
# ---------------------------------------------------------------------------


def test_power_control_on_solver_visited_states():
    E = en.QuadraticBlockEnergy(
        A=np.eye(2), B=np.zeros((1, 2)), G=np.eye(1),
        f=en.Load([0.1, 0.0], c1=[0.3, 0.1]),
        g=en.Load([0.0], amp=[0.2], omega=2.0),
        shift=4.0,
    )
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(3)), r2=pt.QuadraticForm(np.eye(3))
    )
    c_sharp = E.power_control_constant(horizon=1.0)
    assert math.isfinite(c_sharp)
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, [0.5, -0.2, 0.1])
    for t in np.sort(np.concatenate([P.nodes[1:], P.midpoints])):
        u = out.u_const.at(t)
        assert abs(E.power(t, u)) <= c_sharp * E.eval(t, u) + 1e-12


def test_effective_prox_rate_is_optimal_for_infconv():
    preset = make_model("allen-cahn-1d", m=6, p=3.0)
    sys = preset.system
    P = pa.build_partition(0.5, N=2)
    out = sv.effective_solve(sys, P, preset.u0, tol=1e-11)
    r_eff = pt.InfConvolution(sys.r1, sys.r2)
    states = out.node_states()
    for k in range(P.N):
        rate = (states[k + 1] - states[k]) / P.taus[k]
        xi = out.xi.at(P.nodes[k + 1])
        # accepted rate satisfies -xi in dR_eff(rate); the decomposition
        # value agrees with the effective potential at that rate
        assert pt.fenchel_young_residual(r_eff, rate, -xi) <= 1e-7
        dec = pt.inf_conv_decompose(r_eff, rate, tol=1e-11)
        assert dec.value == pytest.approx(r_eff(rate), abs=1e-9)


def test_effective_energy_monotone_zero_loads():
    preset = make_model("visco-plasticity-1d", m=6)
    sys = preset.system
    P = pa.build_partition(1.0, N=6)
    out = sv.effective_solve(sys, P, preset.u0)
    E = sys.energy
    vals = [E.eval(0.0, preset.u0)]
    vals += [E.eval(0.0, out.u_const.at(t)) for t in P.nodes[1:]]
    assert all(b <= a + 1e-11 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# non-uniform partitions
# ---------------------------------------------------------------------------


def test_split_exact_balance_on_non_uniform_partition():
    from splitflow import diagnostics as dg

    sys = counterexample_system()
    P = pa.build_partition(1.0, nodes=[0.0, 0.05, 0.2, 0.35, 0.6, 0.8, 1.0])
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    for k in range(P.N):
        rep = dg.edb_audit(out, sys, (P.nodes[k], P.nodes[k + 1]),
                           with_decomposition=False)
        assert abs(rep.residual) <= 1e-8


def test_amm_inequality_on_non_uniform_partition():
    from splitflow import diagnostics as dg

    preset = make_model("allen-cahn-1d", m=6)
    sys = preset.system
    P = pa.build_partition(1.0, nodes=[0.0, 0.1, 0.3, 0.4, 0.7, 1.0])
    out = sv.amm_solve(sys, P, preset.u0, with_variational=True)
    for i in range(P.N):
        for j in range(i + 1, P.N + 1):
            rep = dg.edb_audit(out, sys, (P.nodes[i], P.nodes[j]),
                               form="inequality", with_decomposition=False)
            assert rep.passed


def test_amm_time_to_zero_matches_split_limit():
    sys = counterexample_system()
    P = pa.build_partition(1.0, N=256)
    out = sv.amm_solve(sys, P, [2.0, 1.0])
    assert sv.time_to_zero(out, tol=1e-9) == pytest.approx(
        0.25 + 2.0 / 3.0, abs=2.0 / 256
    )


# ---------------------------------------------------------------------------
# exact kernels vs brute-force oracles
# ---------------------------------------------------------------------------


def test_maxnorm_prox_matches_dense_grid_oracle():
    E = en.MaxNormEnergy()
    rng = np.random.default_rng(29)
    for _ in range(15):
        c = rng.uniform(0.3, 3.0, size=2)  # dual weights of the metric
        R = pt.Rescaled(pt.AnisotropicDualQuadratic(c))
        anchor = rng.uniform(-2.0, 2.0, size=2)
        h = rng.uniform(0.05, 0.8)
        u, xi = sv.prox_step(E, R, 0.0, anchor, h)

        def F(w):
            return h * R((w - anchor) / h) + E.eval(0.0, w)

        span = np.linspace(-2.5, 2.5, 161)
        best = min(F(np.array([x, y])) for x in span for y in span)
        assert F(u) <= best + 1e-9
        # returned force is consistent with both optimality conditions
        assert E.subdiff(0.0, u).contains(xi, tol=1e-9)
        rate = (u - anchor) / h
        np.testing.assert_allclose(rate, -R.dual_rate(xi), atol=1e-9)


def test_regime_flow_matches_fine_prox_stepping():
    # march the first mechanism by many small incremental steps and compare
    # with the exact piecewise-affine flow
    sys = counterexample_system()
    R = pt.Rescaled(sys.r1)
    E = sys.energy
    u = np.array([1.4, 1.0])
    steps, dt = 4000, 1.0 / 4000
    for k in range(steps):
        u, _ = sv.prox_step(E, R, (k + 1) * dt, u, dt)
    exact = sv.substep_flow(sys, 1, (0.0, 1.0), [1.4, 1.0], inner_steps=2)
    np.testing.assert_allclose(u, exact.at(1.0), atol=5e-3)


# ---------------------------------------------------------------------------
# scheme dispatch
# ---------------------------------------------------------------------------


def test_solve_dispatch_matches_entry_points():
    ce = counterexample_system()
    vp = make_model("visco-plasticity-1d", m=4)
    P = pa.build_partition(1.0, N=4)
    tol, inner = 1e-11, 4
    direct = {
        "split": sv.split_step_solve(ce, P, [2.0, 1.0], inner_steps=inner, tol=tol),
        "amm": sv.amm_solve(ce, P, [2.0, 1.0], tol=tol, with_variational=True,
                            inner_factor=inner),
        "effective": sv.effective_solve(ce, P, [2.0, 1.0], tol=tol, inner_factor=inner),
        "block-split": sv.block_solve(vp.system, P, vp.u0, mode="split", tol=tol,
                                      inner_steps=inner),
        "block-amm": sv.block_solve(vp.system, P, vp.u0, mode="amm", tol=tol,
                                    inner_steps=inner),
    }
    assert set(direct) == set(sv.SCHEMES)
    for name, ref in direct.items():
        sys, u0 = (vp.system, vp.u0) if name.startswith("block-") else (ce, [2.0, 1.0])
        out = sv.solve(sys, name, P, u0, tol, inner)
        assert out.scheme == ref.scheme == name
        for attr in ("u_linear", "u_const", "u_delayed", "xi", "u_variational"):
            a, b = getattr(out, attr), getattr(ref, attr)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a.values, b.values)


def test_solve_rejects_unknown_scheme():
    P = pa.build_partition(1.0, N=2)
    with pytest.raises(InputError):
        sv.solve(counterexample_system(), "leapfrog", P, [2.0, 1.0], 1e-10, 8)
