import ast
import inspect
import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from splitflow import diagnostics as dg
from splitflow import energies as en
from splitflow import newton
from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.errors import InputError, NumericalError
from splitflow.models import make_model
from test_prox_reference import KernelReplay, _spd, _weights, replay_cell
from test_warm_start import _coupled_power_blocks


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
    # (u - 1) + u = 0, in one solve of the active-set kernel
    E = scalar_quadratic_energy()
    u, xi = sv.prox_step(E, quad_identity(), 0.0, [1.0], 1.0)
    assert u[0] == pytest.approx(0.5)
    assert xi[0] == pytest.approx(0.5)
    assert sv._prox(E, quad_identity(), 0.0, [1.0], 1.0, 1e-10)[2].iterations == 1


def test_quadratic_kernel_builds_one_matrix_per_step_size():
    rng = np.random.default_rng(3)
    E = en.QuadraticBlockEnergy(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                f=en.Load([1.0, 0.5], [2.0, 0.0]))
    R = pt.QuadraticForm(np.array([[3.0, 1.0], [1.0, 2.0]])).rescaled()
    VR = R.quadratic_matrix()
    kernel = sv._prox_kernel(E, R)
    assert kernel.matrices == {}
    close = float(np.nextafter(0.1, 1.0))
    for h in (0.1, 0.25, 0.1, close, 0.25, close):
        anchor = rng.standard_normal(2)
        u, xi, st = kernel(E, 0.5, anchor, h, 1e-10)
        # the increment -K^-1 c with K = H + VR / h built afresh
        d = -(np.linalg.inv(E.A + VR / h) @ E.grad(0.5, anchor))
        assert u.tobytes() == (anchor + d).tobytes()
        assert xi.tobytes() == E.grad(0.5, u).tobytes()
        assert (st.iterations, st.residual) == (1, float(np.linalg.norm(VR @ d / h + xi)))
    assert sorted(kernel.matrices) == [0.1, close, 0.25]


def _kind_table():
    """One row per pairing of an energy kind and potential kinds:
    ``(label, system, methods)``, with methods the method of each
    mechanism's step (1, 2 and ``sv._EFFECTIVE``): the method its stats
    name, "leg" for a leg kernel that steps in closed form, "active-set
    leg" for one that steps by the active-set kernel, or InputError."""
    eye = np.eye(2)
    H = np.array([[2.0, 0.5, 0.3], [0.5, 1.5, 0.2], [0.3, 0.2, 1.8]])
    quadratic = en.QuadraticBlockEnergy(A=H[:2, :2])
    # blocks y = {0} and z = {1, 2}, G not diagonal; and H as one block
    blocks = en.QuadraticBlockEnergy(H[:1, :1], H[1:, :1], H[1:, 1:])
    flat = en.QuadraticBlockEnergy(A=H)
    allen_cahn = make_model("allen-cahn-1d", m=4, p=3.0).system
    quad, yields = pt.QuadraticForm(eye), pt.OneHomPlusQuad(0.3, 1.0, dim=2)
    power = pt.PowerNorm(3.0, [1.0, 2.0])

    def pair(E, Ry, Rz):
        return sv.GradientSystem(E, pt.BlockIndicator(Ry, [0], 3),
                                 pt.BlockIndicator(Rz, [1, 2], 3))

    def methods(first, second, effective):
        return {1: first, 2: second, sv._EFFECTIVE: effective}

    return [
        ("quadratic energy, quadratic form and yield",
         sv.GradientSystem(quadratic, quad, yields),
         methods("active-set", "active-set", InputError)),
        ("quadratic energy, p = 3 norm and quadratic form",
         sv.GradientSystem(quadratic, power, quad),
         methods("newton", "active-set", "infconv-newton")),
        ("quadratic energy, p = 2 norm and quadratic form",
         sv.GradientSystem(quadratic, pt.PowerNorm(2.0, [1.0, 2.0]), quad),
         methods("active-set", "active-set", "active-set")),
        ("max-norm energy, dual quadratics", counterexample_system(),
         methods("maxnorm-cases", "maxnorm-cases", "maxnorm-cases")),
        ("allen-cahn energy, p = 3 norm and quadratic form", allen_cahn,
         methods("newton", "newton", "infconv-newton")),
        ("allen-cahn energy, yield",
         sv.GradientSystem(allen_cahn.energy, pt.OneHomPlusQuad(0.3, 1.0, dim=4),
                           pt.QuadraticForm(np.eye(4))),
         methods(InputError, "newton", InputError)),
        ("quadratic blocks, quadratic form on y and yield on z",
         pair(blocks, pt.QuadraticForm([[1.0]]), yields),
         methods("leg", "active-set leg", "active-set")),
        ("quadratic blocks, yield on y and p = 3 norm on z",
         pair(blocks, pt.OneHomPlusQuad(0.3, 1.0), power),
         methods("leg", "newton", InputError)),
        ("quadratic blocks, p = 3 norms", pair(blocks, pt.PowerNorm(3.0, [1.0]), power),
         methods("newton", "newton", "newton")),
        ("a quadratic energy of one block, split in two",
         pair(flat, pt.QuadraticForm([[1.0]]), yields),
         methods("active-set", "active-set", "active-set")),
    ]


_KINDS = _kind_table()
# the methods of the leg kernels, which report no stats of their own
_LEG_METHODS = {"leg", "active-set leg"}


def _own_calls(function):
    """The calls in the body of ``function``, outside the functions it defines."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _emitted_methods():
    """The method names that ``solvers`` can put into a ``_ProxStats``: the
    strings passed as its method, or passed to a function for a parameter
    that the function passes on as the method."""
    tree = ast.parse(inspect.getsource(sv))
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    methods, pending = set(), [("_ProxStats", 2)]  # a callee and the method's position
    while pending:
        callee, position = pending.pop()
        for function in functions:
            for call in _own_calls(function):
                if not (isinstance(call.func, ast.Name) and call.func.id == callee):
                    continue
                arg = call.args[position]
                if isinstance(arg, ast.Constant):
                    methods.add(arg.value)
                else:  # one of the caller's parameters
                    params = [a.arg for a in function.args.args]
                    pending.append((function.name, params.index(arg.id)))
    return methods


@pytest.mark.parametrize("label, system, methods", _KINDS, ids=[row[0] for row in _KINDS])
def test_each_kind_steps_by_its_method(label, system, methods):
    # the table reaches every method that a step can report, and no other
    reached = {m for _, _, row in _KINDS for m in row.values() if m is not InputError}
    assert reached == _emitted_methods() | _LEG_METHODS
    anchor = np.linspace(1.0, -0.5, system.dim)
    for mechanism, method in methods.items():
        if method is InputError:
            with pytest.raises(InputError, match="^no prox method for "):
                sv._step(system, mechanism)
            continue
        step = sv._step(system, mechanism)
        if isinstance(step, sv._BlockLeg):
            assert method == ("leg" if step.kernel is None else "active-set leg")
        else:
            assert step(0.5, anchor, 0.1, 1e-10)[2].method == method


def test_prox_stationary_anchor():
    E = scalar_quadratic_energy()
    u, xi = sv.prox_step(E, quad_identity(), 0.0, [0.0], 1.0)
    assert u[0] == pytest.approx(0.0)
    assert xi[0] == pytest.approx(0.0)


def test_prox_at_a_stationary_anchor_takes_no_step(monkeypatch):
    # a load that balances the energy's gradient at the anchor up to rounding
    m = 4
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    anchor = 0.4 * np.sin(np.pi * x)
    plain = en.AllenCahn1DEnergy(m)
    load = en.Load(plain.K @ anchor / plain.h + plain.well.d1(anchor))
    E = en.AllenCahn1DEnergy(m, load=load)
    R = pt.PowerNorm(3.0, np.full(m, plain.h)).rescaled()
    evals = []
    # the prox evaluates the energy through its unchecked core
    monkeypatch.setattr(en.AllenCahn1DEnergy, "_eval",
                        lambda self, t, u: evals.append(t) or 0.0)
    u, xi, stats = sv._prox(E, R, 0.3, anchor, 0.05, 1e-10)
    assert stats.iterations == 0 and evals == []
    np.testing.assert_array_equal(u, anchor)
    assert u is not anchor
    # the force is the gradient the stopping test already took
    assert xi.tobytes() == E.grad(0.3, u).tobytes()


def test_prox_allen_cahn_matches_coordinate_descent():
    E = en.AllenCahn1DEnergy(m=3)
    R = pt.PowerNorm(2.0, dim=3).rescaled()
    anchor = np.array([0.5, 0.5, 0.5])
    u, xi = sv.prox_step(E, R, 0.0, anchor, 0.1, tol=1e-12)
    oracle = coordinate_descent_prox(E, R, 0.0, anchor, 0.1)
    np.testing.assert_allclose(u, oracle, atol=1e-4)
    np.testing.assert_allclose(xi, E.grad(0.0, u), atol=1e-12)
    # descent of the incremental functional relative to the anchor
    F = lambda w: 0.1 * R((w - anchor) / 0.1) + E.eval(0.0, w)
    assert F(u) <= F(anchor) + 1e-14


@pytest.mark.parametrize("rescaled", [False, True])
def test_prox_of_a_smooth_inf_convolution_runs_newton_on_the_split(rescaled):
    # such a pair has no Hessian parts; its prox moves the members' shares
    E = en.AllenCahn1DEnergy(m=4)
    R = pt.InfConvolution(pt.PowerNorm(3.0, dim=4), pt.QuadraticForm(E.K))
    R = R.rescaled() if rescaled else R
    anchor = np.array([0.5, -0.2, 0.3, 0.1])
    u, xi = sv.prox_step(E, R, 0.0, anchor, 0.1, tol=1e-12)
    np.testing.assert_array_equal(xi, E.grad(0.0, u))
    # the Euler-Lagrange equation: the rate's gradient balances the force
    np.testing.assert_allclose(R.grad((u - anchor) / 0.1) + xi, 0.0, atol=1e-7)


def test_prox_of_a_twice_rescaled_inf_convolution_is_that_of_its_rescaled_members():
    # 2 (R1 # R2)(v/2) = R~1 # R~2 at every level of rescaling
    E = en.AllenCahn1DEnergy(m=4)
    left, right = pt.PowerNorm(3.0, dim=4), pt.QuadraticForm(E.K)

    def twice(R):
        return R.rescaled().rescaled()

    anchor = np.array([0.5, -0.2, 0.3, 0.1])
    u, xi = sv.prox_step(E, twice(pt.InfConvolution(left, right)), 0.0, anchor, 0.1, 1e-12)
    u_ref, xi_ref = sv.prox_step(E, pt.InfConvolution(twice(left), twice(right)), 0.0,
                                 anchor, 0.1, 1e-12)
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(xi, xi_ref)


def test_prox_positive_step_required():
    with pytest.raises(InputError):
        sv.prox_step(scalar_quadratic_energy(), quad_identity(), 0.0, [1.0], 0.0)


def test_maxnorm_prox_rejects_a_nearly_diagonal_metric():
    # the exact case table holds only for a diagonal metric; an off-diagonal
    # entry below np.allclose's floor still couples the two coordinates
    R = pt.QuadraticForm([[1.0, 5e-9], [5e-9, 1.0]])
    with pytest.raises(InputError):
        sv.prox_step(en.MaxNormEnergy(), R, 0.0, [2.0, 1.0], 0.1)


def test_counterexample_amm_scores_no_lone_max_norm_candidate(monkeypatch):
    # every prox of the preset run admits one regime, so no objective is evaluated
    preset = make_model("counterexample")
    calls = []
    evaluate = pt.AnisotropicDualQuadratic._eval

    def counted(self, v):
        calls.append(v)
        return evaluate(self, v)

    monkeypatch.setattr(pt.AnisotropicDualQuadratic, "_eval", counted)
    P = pa.build_partition(preset.horizon, N=128)
    out = sv.solve(preset.system, "amm", P, preset.u0, 1e-10, 8)
    assert len(out.stats["inner_iterations"]) == 256
    assert calls == []


# ---------------------------------------------------------------------------
# substep_flow regime velocities
# ---------------------------------------------------------------------------


def test_substep_velocity_first_mechanism():
    sys = counterexample_system()
    curve = sv.substep_flow(sys, 1, (0.0, 0.25), [2.0, 1.0], inner=2)
    rate = (curve.at(0.25) - curve.at(0.0)) / 0.25
    np.testing.assert_allclose(rate, [-2.0, 0.0], atol=1e-12)


def test_substep_velocity_second_mechanism():
    sys = counterexample_system()
    curve = sv.substep_flow(sys, 2, (0.0, 0.1), [2.0, 1.0], inner=2)
    rate = (curve.at(0.1) - curve.at(0.0)) / 0.1
    np.testing.assert_allclose(rate, [-6.0, 0.0], atol=1e-12)


def test_substep_prox_branch_is_a_loop_of_prox_steps():
    # allen-cahn pairs no mechanism exactly: one prox step of R~_1 per cell,
    # each started where the ones before left its kernel
    sys = make_model("allen-cahn-1d", m=4).system
    u = np.array([0.3, 0.5, -0.2, 0.1])
    curve = sv.substep_flow(sys, 1, (0.25, 0.75), u, inner=4)
    times = 0.25 + curve.grid.times
    expected, kernel, predicted = [u], KernelReplay(), 0
    for a, b in zip(times[:-1], times[1:]):
        predicted += len(kernel.rates) == 2
        u = replay_cell(sys.r1.rescaled(), sys.energy, b, u, b - a, kernel)[0]
        expected.append(u)
    assert predicted
    np.testing.assert_array_equal(curve.values, np.array(expected))


def test_substep_rejects_an_unknown_mechanism():
    with pytest.raises(InputError):
        sv.substep_flow(counterexample_system(), 3, (0.0, 0.25), [2.0, 1.0])


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
    oracle_mid = grid_search_prox_1d(E, quad_identity().rescaled(), 0.25, 1.0, 0.5)
    assert u_mid == pytest.approx(0.5, abs=1e-10)
    assert oracle_mid == pytest.approx(0.5, abs=1e-5)
    oracle_end = grid_search_prox_1d(
        E, quad_identity().rescaled(), 1.0, oracle_mid, 0.5
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
    # one entry per prox solve: two half-steps per step, each holding M cells
    assert len(out.stats["inner_iterations"]) == 2 * P.N
    assert len(out.stats["inner_residuals"]) == 2 * P.N
    assert out.step_cells == out.grid.M
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


def test_block_layout_is_read_off_the_indicators():
    # a block-split run moving coordinates 0 and 1 under the potential of
    # block [0, 2] read d_rate = inf in its audit: such a pair has no layout
    E = en.QuadraticBlockEnergy(np.eye(2), np.zeros((1, 2)), np.eye(1), f=en.Load([1.0, 0.5]))
    P = pa.build_partition(1.0, N=2)

    def indicator(active):
        return pt.BlockIndicator(pt.QuadraticForm(np.eye(len(active))), active, 3)

    y, z = indicator([0, 1]), indicator([2])
    for r1, r2 in ((z, y), (indicator([0, 2]), indicator([1]))):  # wrong order, gaps
        sys = sv.GradientSystem(E, r1, r2)
        assert sys.block_layout is None
        with pytest.raises(InputError, match="requires a system with a block layout"):
            sv.solve(sys, "block-split", P, np.ones(3), 1e-10, 2)
    sys = sv.GradientSystem(E, y, z)
    assert sys.block_layout == (2, 1)
    assert sys.block_indices() == (slice(0, 2), slice(2, 3))


def test_block_y_half_step_is_linear_solve():
    preset = make_model("visco-plasticity-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=4)
    out = sv.solve(sys, "block-amm", P, preset.u0, 1e-12, 8)
    idx_y, idx_z = sys.block_indices()
    tau = P.taus[0]
    y0 = preset.u0[idx_y]
    y1 = out.u_const.at(P.midpoints[0])[idx_y]
    rate = (y1 - y0) / (tau / 2.0)
    eta = out.xi.at(P.midpoints[0])[idx_y]
    Ry_t = sys.r1.base.rescaled()
    resid = np.linalg.norm(Ry_t.grad(rate) + eta)
    assert resid <= 1e-10


def test_block_amm_with_a_drawn_load_has_exact_end_nodes_and_passes_its_audit():
    # a nonzero load moves the state so that start + 1.0 * (end - start) can
    # miss a half step's end node; the block then frozen moved across that
    # node, and the block indicator's rate term was +inf
    rng = np.random.default_rng(64)
    for _ in range(20):
        c0, c1, amp = rng.standard_normal((3, 8))
        preset = make_model("visco-plasticity-1d", m=8, f_load=en.Load(c0, c1, amp, omega=6.0))
        sys = preset.system
        idx_y, idx_z = sys.block_indices()
        for N in (16, 64):
            out = sv.solve(sys, "block-amm", pa.build_partition(1.0, N=N), preset.u0, 1e-10, 8)
            M = out.grid.M
            linear = out.u_linear.values
            np.testing.assert_array_equal(linear[::M], out.u_const.values[::M])
            halves = linear[1:].reshape(N, 2, M, -1)
            # z is frozen on the left half steps, y on the right ones
            assert (halves[:, 0][..., idx_z] == linear[:-1 : 2 * M, None, idx_z]).all()
            assert (halves[:, 1][..., idx_y] == linear[M :: 2 * M, None, idx_y]).all()
            report = dg.edb_audit(out, sys)
            assert math.isfinite(report.d_rate)
            assert report.passed


def test_block_z_frozen_on_left_y_frozen_on_right():
    preset = make_model("visco-plasticity-1d", m=6)
    sys = preset.system
    P = pa.build_partition(1.0, N=3)
    out = sv.solve(sys, "block-amm", P, preset.u0, 1e-10, 8)
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
        out = sv.solve(sys, f"block-{mode}", P, preset.u0, 1e-10, 8)
        idx_y, idx_z = sys.block_indices()
        z_vals = out.u_linear.values[:, idx_z]
        np.testing.assert_array_equal(z_vals, np.tile(preset.u0[idx_z], (len(z_vals), 1)))


def test_block_energy_monotone_zero_loads():
    preset = make_model("visco-plasticity-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=6)
    E = sys.energy
    for mode in ("amm", "split"):
        out = sv.solve(sys, f"block-{mode}", P, preset.u0, 1e-10, 8)
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


@settings(max_examples=30, deadline=None)
@given(p_y=strategies.sampled_from([1.5, 2.5, 3.0]),
       p_z=strategies.sampled_from([1.5, 2.5, 3.0]), data=strategies.data())
def test_an_effective_block_sum_step_meets_the_joint_optimality_conditions(p_y, p_z, data):
    # a coupled quadratic energy on three coordinates with a drawn load; y
    # on {0, 1} and z on {2}, and the same system with y on {0, 2}, z on {1}
    H = _spd(data, 3)
    c0, c1 = _weights(data, 3, -1.0, 1.0), _weights(data, 3, -1.0, 1.0)
    Ry, Rz = pt.PowerNorm(p_y, _weights(data, 2)), pt.PowerNorm(p_z, _weights(data, 1))
    u0 = np.array(data.draw(strategies.lists(strategies.floats(-1.0, 1.0), min_size=3,
                                             max_size=3)))
    perm = np.array([0, 2, 1])  # state i of the permuted system is state perm[i]

    def system(y, z, order):
        E = en.QuadraticBlockEnergy(H[np.ix_(order, order)],
                                    f=en.Load(c0[order], c1[order], np.full(3, 0.3), omega=3.0))
        return sv.GradientSystem(E, pt.BlockIndicator(Ry, y, 3), pt.BlockIndicator(Rz, z, 3))

    plain, permuted = system([0, 1], [2], np.arange(3)), system([0, 2], [1], perm)
    assert permuted.block_layout is None  # a step of the block sum, not of a layout
    P = pa.build_partition(1.0, N=8)
    tol = 1e-10
    out = sv.solve(plain, "effective", P, u0, tol, 2)
    nodes = out.u_const.values[:: out.step_cells]
    for k in range(P.N):
        anchor, u = nodes[k], nodes[k + 1]
        v = (u - anchor) / P.taus[k]
        g = plain.energy.grad(P.nodes[k + 1], u)
        residual = np.concatenate([Ry.grad(v[:2]) + g[:2], Rz.grad(v[2:]) + g[2:]])
        assert np.linalg.norm(residual) <= tol * (1.0 + np.linalg.norm(anchor))
    # a p < 2 block asks for a quarter of the predicted decrease
    step = sv._step(plain, sv._EFFECTIVE)  # the kernel's partial, with E bound
    assert step.func is sv._prox_newton
    singular = min(p_y, p_z) < 2.0
    assert step.args[3] == (newton._SINGULAR_ARMIJO if singular else newton.ARMIJO)
    other = sv.solve(permuted, "effective", P, u0[perm], tol, 2)
    np.testing.assert_allclose(other.u_const.values, out.u_const.values[:, perm], rtol=0,
                               atol=1e-9)


def test_an_effective_block_step_takes_its_parts_once_per_run(monkeypatch):
    preset = make_model("visco-plasticity-1d", m=6)
    grads, cores, hessians = [], [], []
    grad, core = en.QuadraticBlockEnergy.grad, en.QuadraticBlockEnergy._grad
    hess_constant = pt.PowerNorm.hess_constant
    monkeypatch.setattr(en.QuadraticBlockEnergy, "grad",
                        lambda self, t, u: grads.append(t) or grad(self, t, u))
    monkeypatch.setattr(en.QuadraticBlockEnergy, "_grad",
                        lambda self, t, u: cores.append(t) or core(self, t, u))
    monkeypatch.setattr(pt.PowerNorm, "hess_constant",
                        lambda self: hessians.append(self) or hess_constant(self))
    power, power_u0 = _coupled_power_blocks()
    for system, u0 in ((power, power_u0), (preset.system, preset.u0)):
        grads.clear()
        cores.clear()
        out = sv.effective_solve(system, pa.build_partition(1.0, N=4), u0, tol=1e-12)
        assert len(out.stats["inner_iterations"]) == 4 and grads == []
    # the block sum's Newton kernel takes the bases' constant Hessians once
    # per run; the active-set step takes the energy's gradient at its anchor
    # and once at its solution, whose residual it measures itself
    assert hessians == [power.r1.base, power.r2.base]
    assert len(cores) == 2 * 4
    # a Newton step's force is the energy gradient of its last stopping test
    u, xi, _ = sv._step(power, sv._EFFECTIVE)(0.5, power_u0, 0.25, 1e-12)
    assert xi.tobytes() == grad(power.energy, 0.5, u).tobytes()


def _swapped(E, Ry, Rz, u0):
    """A quadratic block system with y moved by Ry and z by Rz, and the same
    system with its blocks in the other order: (system, swapped, u0 of the
    swapped system, the indices that take the swapped state back)."""
    n_y, n_z = E.n_y, E.n_z
    system = sv.GradientSystem(E, pt.BlockIndicator(Ry, np.arange(n_y), n_y + n_z),
                               pt.BlockIndicator(Rz, np.arange(n_y, n_y + n_z), n_y + n_z))
    E_swap = en.QuadraticBlockEnergy(E.G, E.B.T, E.A, f=E.g, g=E.f)
    swapped = sv.GradientSystem(E_swap, pt.BlockIndicator(Rz, np.arange(n_z), n_y + n_z),
                                pt.BlockIndicator(Ry, np.arange(n_z, n_y + n_z), n_y + n_z))
    back = np.concatenate([np.arange(n_z, n_y + n_z), np.arange(n_z)])
    return system, swapped, np.concatenate([u0[n_y:], u0[:n_y]]), back


def test_an_effective_block_step_measures_a_shrinkage_y_block():
    # a y potential with a yield term and no gradient, a quadratic z potential
    rng = np.random.default_rng(7)
    M = rng.uniform(-1.0, 1.0, (5, 5))
    H = M @ M.T + 5.0 * np.eye(5)
    f = en.Load(rng.uniform(-1.0, 1.0, 3), amp=np.full(3, 0.4), omega=2.0)
    E = en.QuadraticBlockEnergy(H[:3, :3], H[3:, :3], H[3:, 3:], f=f)
    Ry, Rz = pt.OneHomPlusQuad(0.3, 1.0, dim=3), pt.QuadraticForm(np.diag([1.0, 2.0]))
    P = pa.build_partition(1.0, N=8)
    u0 = rng.uniform(-1.0, 1.0, 5)
    system, swapped, u0_swapped, back = _swapped(E, Ry, Rz, u0)
    out = sv.effective_solve(system, P, u0, tol=1e-10)
    nodes = out.node_states()
    for k in range(P.N):
        anchor, u = nodes[k], nodes[k + 1]
        v = (u - anchor) / P.taus[k]
        g = E.grad(P.nodes[k + 1], u)
        sigma_w, quad_w = Ry.shrinkage_parts()
        smooth = quad_w * v[:3] + g[:3]
        ry = np.where(v[:3] != 0.0, smooth + sigma_w * np.sign(v[:3]),
                      np.maximum(np.abs(smooth) - sigma_w, 0.0))
        rz = Rz.grad(v[3:]) + g[3:]
        assert np.hypot(np.linalg.norm(ry), np.linalg.norm(rz)) <= (
            1e-10 * (1.0 + np.linalg.norm(anchor)))
    # a yield coordinate stays and others move: both rules of the y residual are met
    moves = np.diff(nodes, axis=0)[:, :3]
    assert (moves == 0.0).any() and (moves != 0.0).any()
    # the same run with the shrinkage block second, as z
    other = sv.effective_solve(swapped, P, u0_swapped, tol=1e-10)
    np.testing.assert_allclose(other.node_states()[:, back], nodes, rtol=0, atol=1e-12)


def test_an_effective_block_stall_carries_the_whole_state():
    system, u0 = _coupled_power_blocks()
    step = sv._step(system, sv._EFFECTIVE)
    # this step takes more than one Newton step to reach 1e-12
    with pytest.raises(NumericalError, match="^effective prox stagnated$") as failure:
        step(0.5, u0, 0.25, 1e-12, max_iter=1)
    best = failure.value.best
    assert failure.value.iterations == 1
    assert best.shape == (system.dim,) and np.isfinite(best).all()
    # y0 is at rest for z frozen at z0; in the joint step both blocks move
    assert (best != u0).all()


def test_an_active_set_step_that_does_not_settle_restarts_from_a_coordinate_sweep(
        monkeypatch):
    # K is positive definite and not an M-matrix: from -c, the sign pattern
    # of the yield coordinates 1 and 2 has not repeated after 8 solves
    K = np.array([[1.8, -0.75, -1.34], [-0.75, 1.6, 0.2], [-1.34, 0.2, 1.49]])
    c, sigma = np.array([1.4, 1.3, -1.5]), np.array([0.0, 0.8, 0.5])
    sweeps, sweep = [], sv._coordinate_sweep
    monkeypatch.setattr(sv, "_coordinate_sweep", lambda *args: sweeps.append(args[3])
                        or sweep(*args))
    d, signs, solves = sv._active_set(K, c, sigma, None, {})
    assert (len(sweeps), solves) == (2, 17)
    # the first sweep starts at d = 0
    np.testing.assert_array_equal(sweeps[0], np.zeros(3))
    # the minimizer, from the one pattern whose solve meets the optimality
    # conditions, of the 9 patterns of the yield coordinates
    found = []
    for s1, s2 in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        free = np.array([True, s1 != 0.0, s2 != 0.0])
        x = np.zeros(3)
        x[free] = np.linalg.solve(K[np.ix_(free, free)], -(c + sigma * [0.0, s1, s2])[free])
        g = K @ x + c
        if (np.sign(x[1:]) == [s1, s2]).all() and abs(g[0]) < 1e-12 and all(
                abs(g[i] + sigma[i] * s) < 1e-12 if s else abs(g[i]) <= sigma[i]
                for i, s in ((1, s1), (2, s2))):
            found.append(x)
    assert len(found) == 1
    np.testing.assert_allclose(d, found[0], rtol=0, atol=1e-14)
    np.testing.assert_array_equal(signs, np.sign(d) * (sigma > 0.0))
    # a kernel step on E(u) = u^T K u / 2 + c^T u from u = 0, with M = 0
    E = en.QuadraticBlockEnergy(A=K, f=en.Load(-c))
    kernel = sv._ActiveSet(K, np.zeros((3, 3)), sigma, "joint block prox")
    u, xi, st = kernel(E, 0.0, np.zeros(3), 1.0, 1e-12)
    assert (st.iterations, st.method) == (17, "active-set") and st.residual <= 1e-12
    assert u.tobytes() == d.tobytes()
    # without a sweep the step stagnates at its last solve
    monkeypatch.setattr(sv, "_ACTIVE_SET_SWEEPS", 0)
    fresh = sv._ActiveSet(K, np.zeros((3, 3)), sigma, "joint block prox")
    with pytest.raises(NumericalError, match="^joint block prox stagnated$") as failure:
        fresh(E, 0.0, np.zeros(3), 1.0, 1e-12)
    assert failure.value.iterations == 8
    assert np.isfinite(failure.value.best).all() and fresh.signs is None


def test_an_effective_block_step_whose_k_is_not_positive_definite_has_no_unique_minimizer():
    # K = H + M / tau is positive definite for tau below about 0.48, not at 1
    E = en.QuadraticBlockEnergy(A=[[-2.0]], B=[[0.5]], G=[[1.0]])
    system = sv.GradientSystem(E, pt.BlockIndicator(pt.QuadraticForm([[1.0]]), [0], 2),
                               pt.BlockIndicator(pt.OneHomPlusQuad(0.1, 1.0), [1], 2))
    step = sv._step(system, sv._EFFECTIVE)
    u0 = np.array([0.5, -0.3])
    assert step(0.0, u0, 0.4, 1e-10)[2].method == "active-set"
    message = "^prox step of size 1 has no unique minimizer: its curvature is not positive"
    with pytest.raises(NumericalError, match=message):
        step(0.0, u0, 1.0, 1e-10)


def test_a_shrinkage_prox_whose_curvature_is_indefinite_ends_at_once():
    # H + diag(q) / h has the eigenvalues -0.08 and 2.08 at h = 1
    E = en.QuadraticBlockEnergy(A=[[-2.0, 0.5], [0.5, 1.0]])
    message = "^prox step of size 1 has no unique minimizer: its curvature is not positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=message):
            sv._prox(E, pt.OneHomPlusQuad(0.1, 1.0, dim=2), 0.0, [0.5, -0.3], 1.0, 1e-10)


@pytest.mark.parametrize("scheme", ["block-split", "block-amm"])
def test_a_prox_step_whose_curvature_is_not_positive_raises(scheme):
    # A = -2 with V = 1 (y) and G = -3 with q = 1 (z): the leg kernels' steps
    # at h = 1/4 (block-split, inner 2) and 1/2 (block-amm) have curvatures
    # -2 + 1/(2h) and -3 + 1/(2h), not positive; at h <= 1/8 both are
    E = en.QuadraticBlockEnergy(A=[[-2.0]], B=[[0.5]], G=[[-3.0]])
    Ry, Rz = pt.QuadraticForm([[1.0]]), pt.OneHomPlusQuad(0.1, 1.0)
    system = sv.GradientSystem(E, pt.BlockIndicator(Ry, [0], 2), pt.BlockIndicator(Rz, [1], 2))
    u0 = np.array([0.5, -0.3])
    message = "^prox step of size (0.25|0.5) has no unique minimizer"
    with pytest.raises(NumericalError, match=message):
        sv.solve(system, scheme, pa.build_partition(1.0, N=1), u0, 1e-10, 2)
    fine = sv.solve(system, scheme, pa.build_partition(1.0, N=4), u0, 1e-10, 4)
    assert np.isfinite(fine.u_const.values).all()
    # the per-step kernels of each block raise the same error
    for R, H in ((Ry.rescaled(), [[-2.0]]), (Rz.rescaled(), [[-3.0]])):
        with pytest.raises(NumericalError, match="^prox step of size 0.5 has no unique"):
            sv._prox(en.QuadraticBlockEnergy(A=H), R, 0.0, [0.5], 0.5, 1e-10)


def test_a_non_finite_residual_never_counts_as_converged():
    # |anchor| above about 1.3e154 overflows the tolerance scale 1 + |anchor|
    # to inf, which every residual, inf included, would pass
    ac = make_model("allen-cahn-1d", p=3.0)
    anchor = np.zeros(ac.system.dim)
    anchor[0] = 1e200
    R = ac.system.r1.rescaled()
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="incremental minimization diverged") as failure:
        sv._prox(ac.system.energy, R, 0.1, anchor, 0.05, 1e-10)
    assert failure.value.iterations == 0
    np.testing.assert_array_equal(failure.value.best, anchor)

    # the effective block step by Newton (a p = 3 block), whose first
    # stopping test overflows, and by the active-set kernel (visco-plasticity);
    # both end with the whole state
    E = en.QuadraticBlockEnergy(np.array([[2.0, 0.3], [0.3, 1.5]]), np.zeros((2, 2)),
                                np.array([[1.8, -0.2], [-0.2, 2.2]]))
    mixed = sv.GradientSystem(E, pt.BlockIndicator(pt.QuadraticForm(np.eye(2)), [0, 1], 4),
                              pt.BlockIndicator(pt.PowerNorm(3.0, [1.5, 0.5]), [2, 3], 4))
    vp = make_model("visco-plasticity-1d", m=6)
    anchor = np.array(vp.u0)
    anchor[0] = 1e200
    for system, anchor, iterations in ((mixed, np.array([1e200, 0.0, 0.8, -0.6]), 0),
                                       (vp.system, anchor, 1)):
        step = sv._step(system, sv._EFFECTIVE)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^effective prox diverged$") as failure:
            step(0.5, anchor, 0.25, 1e-10)
        assert failure.value.iterations == iterations
        assert failure.value.best.shape == (system.dim,)

    # the active-set step of a yield potential on a coupled energy
    E = en.QuadraticBlockEnergy(A=np.array([[2.0, 0.5], [0.5, 1.0]]))
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="^incremental minimization diverged$") as failure:
        sv._prox(E, pt.OneHomPlusQuad(0.3, 1.0, dim=2), 0.0, np.array([1e200, 0.0]),
                 0.2, 1e-12)
    assert failure.value.iterations == 1


def test_a_newton_block_step_with_no_unique_minimizer_names_its_step_size():
    # the quadratic y block's curvature -5 + 1/0.25 is negative: the
    # objective is unbounded below along y, where Newton would stop at the
    # saddle, so the step ends before its first iteration
    E = en.QuadraticBlockEnergy(np.array([[-5.0, 0.3], [0.3, -5.0]]), np.zeros((2, 2)),
                                np.array([[1.8, -0.2], [-0.2, 2.2]]))
    mixed = sv.GradientSystem(E, pt.BlockIndicator(pt.QuadraticForm(np.eye(2)), [0, 1], 4),
                              pt.BlockIndicator(pt.PowerNorm(3.0, [1.5, 0.5]), [2, 3], 4))
    step = sv._step(mixed, sv._EFFECTIVE)
    anchor = np.array([1.0, 0.0, 0.8, -0.6])
    with pytest.raises(NumericalError, match="^prox step of size 0.25 has no unique minimizer"):
        step(0.5, anchor, 0.25, 1e-10)
    assert step(0.5, anchor, 0.05, 1e-10)[2].method == "newton"


@pytest.mark.parametrize("effective", [False, True], ids=["newton", "infconv"])
def test_a_newton_prox_that_runs_out_of_steps_stagnates(effective):
    # no state of these solves has a residual within 1e-300 (1 + |anchor|):
    # the solve runs out of steps with a finite residual, it does not diverge
    ac = make_model("allen-cahn-1d", p=3.0)
    if effective:
        R, name = sv.effective_potential(ac.system), "effective prox"
    else:
        R, name = ac.system.r1.rescaled(), "incremental minimization"
    with pytest.raises(NumericalError, match=f"^{name} stagnated$") as failure:
        sv._prox(ac.system.energy, R, 0.1, ac.u0, 0.05, 1e-300)
    assert failure.value.iterations == 100
    assert np.isfinite(failure.value.best).all()


@pytest.mark.parametrize("scheme, N", [("split", 8), ("amm", 32)])
def test_a_member_step_of_an_inf_convolution_names_the_incremental_minimization(scheme, N):
    # mechanism 1 steps with R~_1, the inf-convolution of the rescaled
    # members, not with the effective potential; that these steps stall on
    # a quadratic energy is open
    E = en.QuadraticBlockEnergy(A=np.eye(2))
    r1 = pt.InfConvolution(pt.PowerNorm(3.0, [1.0, 1.0]), pt.PowerNorm(3.0, [2.0, 1.0]))
    system = sv.GradientSystem(E, r1, pt.QuadraticForm(np.eye(2)))
    with pytest.raises(NumericalError, match="^incremental minimization stagnated$"):
        sv.solve(system, scheme, pa.build_partition(1.0, N=N), [1.0, 0.5], 1e-10, 8)


def test_a_shrinkage_kernel_tests_its_curvature_once_per_step_size(monkeypatch):
    A = np.array([[1.5, -0.6, 0.2], [-0.6, 1.2, 0.4], [0.2, 0.4, 2.0]])
    system = sv.GradientSystem(en.QuadraticBlockEnergy(A=A),
                               pt.OneHomPlusQuad(0.1, 1.0, dim=3), pt.QuadraticForm(np.eye(3)))
    tested, positive_definite = [], sv._positive_definite
    monkeypatch.setattr(sv, "_positive_definite",
                        lambda K, h: tested.append(h) or positive_definite(K, h))
    out = sv.solve(system, "split", pa.build_partition(1.0, N=8), np.array([1.0, -0.5, 0.8]),
                   1e-10, 2)
    # one kernel per mechanism, and every cell has the width 1/32
    assert tested == [1.0 / 32] * 2
    iterations = np.array(out.stats["inner_iterations"])
    # the quadratic mechanism's steps take one solve each
    assert (iterations[~out.grid.cell_is_left] == 1).all() and iterations.min() >= 1


def test_block_split_takes_the_energy_hessian_once_per_mechanism(monkeypatch):
    preset = make_model("visco-plasticity-1d", m=6)
    hessians = []
    hess_constant = en.QuadraticBlockEnergy.hess_constant

    # the frozen-block views build their Hessians from the energy's constant part
    def counted_hess(self):
        hessians.append(self)
        return hess_constant(self)

    monkeypatch.setattr(en.QuadraticBlockEnergy, "hess_constant", counted_hess)
    out = sv.solve(preset.system, "block-split", pa.build_partition(1.0, N=4),
                   preset.u0, 1e-10, 4)
    # one prox solve per cell: the y steps are linear solves, the z steps shrinkages
    assert len(out.stats["inner_iterations"]) == out.grid.n_cells == 32
    assert len(hessians) == 2


def test_a_leg_kernel_builds_its_matrices_once_per_step_size(monkeypatch):
    preset = make_model("visco-plasticity-1d", m=6)
    inverses, inv = [], np.linalg.inv

    def recorded(K):
        # the leg's inverses only: a rescaled quadratic form inverts its matrix too
        if inspect.currentframe().f_back.f_code is sv._BlockLeg.curvature.__code__:
            inverses.append(K)
        return inv(K)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    legs = [sv._step(preset.system, m) for m in (1, 2)]
    assert all(isinstance(leg, sv._BlockLeg) for leg in legs)
    # uneven nodes: each semi-interval's cells have their own width
    P = pa.build_partition(1.0, nodes=[0.0, 0.3, 1.0])
    out = sv.solve(preset.system, "block-split", P, preset.u0, 1e-10, 4)
    assert out.stats["inner_iterations"] == [1] * 16
    # one K^-1 per width of the y cells, the curvature of z needs none
    widths = set(out.grid.cell_widths[out.grid.cell_is_left].tolist())
    assert len(inverses) == len(widths) > 1


def test_the_movements_by_legs_replay_the_movements_by_entries(monkeypatch):
    """Runs whose steps are all per-step kernels are those of the loop that
    called the mechanism's step on every plan entry, bit for bit."""

    def per_step(system, m):  # the step of a mechanism before leg kernels
        E = system.energy
        if m == sv._EFFECTIVE:
            return partial(sv._prox_kernel(E, sv.effective_potential(system)), E)
        R = system.r1 if m == 1 else system.r2
        if system.block_layout is None:
            return partial(sv._prox_kernel(E, R.rescaled()), E)
        active = system.block_indices()[m - 1]
        frozen = sv._FrozenBlockEnergy(E, active, np.zeros(system.dim))
        return partial(sv._block_step, system, active,
                       sv._prox_kernel(frozen, R.base.rescaled()))

    def by_entries(system, grid, u0, plan, tol, stats):
        step = {m: per_step(system, m) for m in dict.fromkeys(m for m, _, _ in plan)}
        n = grid.n_cells // len(plan)
        const = np.empty((grid.n_nodes, u0.size))
        const[0] = u0
        forces = np.empty((grid.n_cells, u0.size))
        iterations, residuals = [], []
        stats.update(inner_iterations=iterations, inner_residuals=residuals)
        u = u0
        for k, (m, t_eval, h) in enumerate(plan):
            u, xi, st = step[m](t_eval, u, h, tol)
            iterations.append(st.iterations)
            residuals.append(st.residual)
            const[k * n + 1 : (k + 1) * n + 1] = u
            forces[k * n : (k + 1) * n] = xi
        return const, forces, n

    allen_cahn = make_model("allen-cahn-1d", p=3.0)
    power, power_u0 = _coupled_power_blocks()
    runs = [(allen_cahn.system, allen_cahn.u0, scheme, 16) for scheme in sv.SCHEMES[:3]]
    runs += [(power, power_u0, scheme, 8) for scheme in sv.SCHEMES[2:]]
    for system, u0, scheme, N in runs:
        P = pa.build_partition(1.0, N=N)
        out = sv.solve(system, scheme, P, u0, 1e-10, 4)
        with monkeypatch.context() as patch:
            patch.setattr(sv, "_movements", by_entries)
            replay = sv.solve(system, scheme, P, u0, 1e-10, 4)
        assert out.u_const.values.tobytes() == replay.u_const.values.tobytes()
        assert out.xi.values.tobytes() == replay.xi.values.tobytes()
        assert out.stats == replay.stats


@pytest.mark.parametrize("N", [4, 8])
def test_an_effective_block_run_takes_the_energy_hessian_once(monkeypatch, N):
    preset = make_model("visco-plasticity-1d", m=6)
    power, u0 = _coupled_power_blocks()
    hessians, matrices = [], []
    hess_constant, matrix = en.QuadraticBlockEnergy.hess_constant, sv._ActiveSet.matrix

    def counted_hess(self):
        hessians.append(self)
        return hess_constant(self)

    def recorded_matrix(self, tau):
        result = matrix(self, tau)
        matrices.append(result[0])
        return result

    monkeypatch.setattr(en.QuadraticBlockEnergy, "hess_constant", counted_hess)
    monkeypatch.setattr(sv._ActiveSet, "matrix", recorded_matrix)
    # the block sum's Newton kernel takes the Hessian once per run
    out = sv.solve(power, "effective", pa.build_partition(1.0, N=N), u0, 1e-10, 4)
    assert len(out.stats["inner_iterations"]) == N
    assert hessians == [power.energy] and matrices == []
    # the active-set step takes the Hessian once, and K once per step size
    hessians.clear()
    out = sv.solve(preset.system, "effective", pa.build_partition(1.0, N=N),
                   preset.u0, 1e-10, 4)
    assert len(out.stats["inner_iterations"]) == N
    assert hessians == [preset.system.energy]
    assert len(matrices) == N and all(K is matrices[0] for K in matrices)


def test_effective_prox_of_a_quadratic_pair_decomposes_nothing(monkeypatch):
    preset = make_model("allen-cahn-1d", p=2.0)
    calls = []
    decompose = pt.inf_conv_decompose

    def counted(P, v, tol=1e-10):
        calls.append(np.shape(v))
        return decompose(P, v, tol)

    monkeypatch.setattr(pt, "inf_conv_decompose", counted)
    out = sv.effective_solve(preset.system, pa.build_partition(preset.horizon, N=8),
                             preset.u0)
    assert out.stats["inner_iterations"] and calls == []


def test_systems_hash_and_compare_by_identity():
    a = make_model("allen-cahn-1d", m=4).system
    b = make_model("allen-cahn-1d", m=4).system
    assert hash(a) == hash(a) and a == a
    assert a != b and len({a, b, a}) == 2


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
    seg = out.segments
    assert seg.t1[0] == pytest.approx(6.75 / 64, abs=1e-15)
    np.testing.assert_array_equal(out.xi.cell_values[6], seg.xi[1])
    for b, xi in zip(out.grid.times[1:], out.xi.cell_values):
        k = next(k for k, t1 in enumerate(seg.t1) if t1 >= b - 1e-15)
        np.testing.assert_array_equal(xi, seg.xi[k])


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
# effective prox optimality, serialization
# ---------------------------------------------------------------------------


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
    out = sv.amm_solve(sys, P, preset.u0)
    for i in range(P.N):
        for j in range(i + 1, P.N + 1):
            rep = dg.edb_audit(out, sys, (P.nodes[i], P.nodes[j]),
                               with_decomposition=False)
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
        R = pt.AnisotropicDualQuadratic(c).rescaled()
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


def _grid_minimize(F, center, radius, num=41, levels=5):
    """Brute-force minimizer of a convex F on nested grids: each level
    searches a box of num**dim points around the previous level's best
    point, with a box ten times smaller than the last."""
    best = np.asarray(center, dtype=float)
    for _ in range(levels):
        axes = [np.linspace(c - radius, c + radius, num) for c in best]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, best.size)
        best = points[int(np.argmin(F(points)))]
        radius /= 10.0
    return best


@pytest.mark.parametrize(
    "A,sigma,anchor",
    [
        (np.array([[2.0, 0.5], [0.5, 1.0]]), 0.3, [1.0, -0.4]),
        (np.array([[1.0, 5e-9], [5e-9, 1.0]]), 0.2, [0.6, 0.1]),
        (np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]]), 0.25, [1.0, 0.1, -0.8]),
        (np.array([[1.5, -0.6, 0.2], [-0.6, 1.2, 0.4], [0.2, 0.4, 2.0]]), 0.1, [0.3, 0.9, 0.5]),
    ],
)
def test_shrinkage_prox_with_a_coupled_energy_matches_brute_force(A, sigma, anchor):
    E = en.QuadraticBlockEnergy(A=A)
    R = pt.OneHomPlusQuad(sigma, 1.0, dim=len(anchor))
    anchor, h = np.array(anchor), 0.2
    u, xi, st = sv._prox(E, R, 0.0, anchor, h, 1e-12)
    assert (st.method, st.iterations) == ("active-set", 1)

    def F(w):
        return h * R((w - anchor) / h) + E.eval(0.0, w)

    oracle = _grid_minimize(F, anchor, 2.0)
    np.testing.assert_allclose(u, oracle, atol=2e-5)
    assert F(u) <= F(oracle) + 1e-12
    np.testing.assert_array_equal(xi, E.grad(0.0, u))


def test_a_diagonal_shrinkage_takes_one_solve_and_reports_its_measured_residual():
    E = en.QuadraticBlockEnergy(A=np.diag([2.0, 0.5, 1.0]), f=en.Load([0.3, -1.2, 0.05]))
    R = pt.OneHomPlusQuad(0.2, 1.0, [1.0, 2.0, 0.5]).rescaled()
    sigma_w, quad_w = R.shrinkage_parts()
    rng = np.random.default_rng(5)
    residuals = []
    for h in (0.3, 1e-3, 0.07):
        anchor = rng.standard_normal(3)
        kernel = sv._prox_kernel(E, R)
        u, xi, st = kernel(E, 0.0, anchor, h, 1e-10)
        g = E.grad(0.0, anchor)  # the closed form's increment
        closed = -np.sign(g) * np.maximum(np.abs(g) - sigma_w, 0.0) / (np.diag(E.A) + quad_w / h)
        # the kernel's increment, from the pattern the step settled on
        d = kernel.increment(anchor, g, h)[1]
        assert (st.method, st.iterations) == ("active-set", 1)
        assert u.tobytes() == (anchor + d).tobytes()
        np.testing.assert_allclose(d, closed, rtol=1e-15, atol=0.0)
        excess = sv._shrinkage_excess(quad_w * d / h + xi, d, sigma_w)
        assert st.residual == float(np.linalg.norm(excess))
        residuals.append(st.residual)
    assert max(residuals) <= 1e-14 and max(residuals) > 0.0


def test_regime_flow_matches_fine_prox_stepping():
    # march the first mechanism by many small incremental steps and compare
    # with the exact piecewise-affine flow
    sys = counterexample_system()
    R = sys.r1.rescaled()
    E = sys.energy
    u = np.array([1.4, 1.0])
    steps, dt = 4000, 1.0 / 4000
    for k in range(steps):
        u, _ = sv.prox_step(E, R, (k + 1) * dt, u, dt)
    exact = sv.substep_flow(sys, 1, (0.0, 1.0), [1.4, 1.0], inner=2)
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
        "split": sv.split_step_solve(ce, P, [2.0, 1.0], inner=inner, tol=tol),
        "amm": sv.amm_solve(ce, P, [2.0, 1.0], tol=tol, inner=inner),
        "effective": sv.effective_solve(ce, P, [2.0, 1.0], tol=tol, inner=inner),
        "block-split": sv.split_step_solve(vp.system, P, vp.u0, inner=inner, tol=tol),
        "block-amm": sv.amm_solve(vp.system, P, vp.u0, tol=tol, inner=inner),
    }
    assert set(direct) == set(sv.SCHEMES)
    for name, ref in direct.items():
        sys, u0 = (vp.system, vp.u0) if name.startswith("block-") else (ce, [2.0, 1.0])
        out = sv.solve(sys, name, P, u0, tol, inner)
        assert out.scheme == ref.scheme == name
        # the counterexample's split and effective runs are exact flows
        assert out.step_cells == ref.step_cells == (inner if "amm" in name else 1)
        for attr in ("u_linear", "u_const", "u_delayed", "xi"):
            np.testing.assert_array_equal(getattr(out, attr).values, getattr(ref, attr).values)
    for name in ("block-split", "block-amm"):
        with pytest.raises(InputError):
            sv.solve(ce, name, P, [2.0, 1.0], tol, inner)


def test_every_entry_point_takes_tol_then_inner_positionally():
    ce = counterexample_system()
    vp = make_model("visco-plasticity-1d", m=4)
    P = pa.build_partition(1.0, N=2)
    tol, inner = 1e-9, 4
    for name in sv.SCHEMES:
        sys, u0 = (vp.system, vp.u0) if name.startswith("block-") else (ce, [2.0, 1.0])
        out = sv.solve(sys, name, P, u0, tol, inner)
        assert out.inner_tol == tol and out.grid.M == inner
    for entry in (sv.split_step_solve, sv.amm_solve, sv.effective_solve):
        out = entry(ce, P, [2.0, 1.0], tol, inner)
        assert out.inner_tol == tol and out.grid.M == inner
    params = [list(inspect.signature(f).parameters.values())
              for f in (sv.split_step_solve, sv.amm_solve, sv.effective_solve)]
    dispatch = [p for p in inspect.signature(sv.solve).parameters.values()
                if p.name != "scheme"]
    assert params[0] == params[1] == params[2] == dispatch
    assert [p.name for p in dispatch] == ["sys", "P", "u0", "tol", "inner"]


def test_solve_rejects_unknown_scheme():
    P = pa.build_partition(1.0, N=2)
    with pytest.raises(InputError):
        sv.solve(counterexample_system(), "leapfrog", P, [2.0, 1.0], 1e-10, 8)


def test_effective_scheme_of_a_yield_member_beside_a_smooth_one_is_an_input_error():
    # the pair's inf-convolution has no smooth Hessian, and its members are
    # not complementary block indicators, whose sum the effective step would
    # prox; split and AMM prox each member alone
    E = en.QuadraticBlockEnergy(np.eye(2))
    sys = sv.GradientSystem(E, pt.QuadraticForm(np.eye(2)), pt.OneHomPlusQuad(0.3, 1.0, dim=2))
    P = pa.build_partition(1.0, N=4)
    for scheme in ("split", "amm"):
        sv.solve(sys, scheme, P, [1.0, -0.5], 1e-10, 2)
    with pytest.raises(InputError) as info:
        sv.solve(sys, "effective", P, [1.0, -0.5], 1e-10, 2)
    assert str(info.value) == ("no prox method for InfConvolution on QuadraticBlockEnergy: "
                               "OneHomPlusQuad has no smooth Hessian")
    # a yield block beside a p = 3 block: the block sum has no Newton parts
    # either, and no metric for the active-set kernel
    blocks = sv.GradientSystem(E, pt.BlockIndicator(pt.OneHomPlusQuad(0.3, 1.0), [0], 2),
                               pt.BlockIndicator(pt.PowerNorm(3.0, [1.0]), [1], 2))
    with pytest.raises(InputError) as blocked:
        sv.solve(blocks, "effective", P, [1.0, -0.5], 1e-10, 2)
    assert str(blocked.value) == str(info.value)
