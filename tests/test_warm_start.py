"""Warm starts and rest reuse of the Newton prox kernels of a run.

Every Newton kernel of a run starts each solve at the rate its last two
solves predict for the solve's time, and at the anchor for its first solve
and after a solve that took no Newton step (``solvers._Warm``,
``solvers._prox_newton``, ``solvers._infconv_prox``).  A call that repeats
a cold solve that took no step, for an energy that does not depend on time,
gets that solve's result again.  A warm start moves the result only within
the prox tolerance, so these tests replay every solve of a run cold, from
the run's own anchor, through the references of ``test_prox_reference``:
the states and forces agree within the tolerance and the warm run takes
fewer Newton steps.  Every loop over a member with p < 2 asks for a quarter
of the predicted decrease (``newton.armijo_constant``), so the drawn p = 1.5
runs below finish.
"""

import numpy as np
import pytest

from splitflow import diagnostics as dg
from splitflow import newton
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import AllenCahn1DEnergy, Load, QuadraticBlockEnergy
from splitflow.errors import NumericalError
from splitflow.models import make_model
from splitflow.partitions import build_partition
from test_prox_reference import (
    KernelReplay,
    infconv_prox_reference,
    prox_newton_reference,
    replay_cell,
)

TOL = 1e-10


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _system(p, drawn, m=8):
    """The allen-cahn-1d preset, or with a drawn initial state and a drawn
    time-dependent load."""
    preset = make_model("allen-cahn-1d", m=m, p=p)
    if not drawn:
        return preset.system, preset.u0
    rng = np.random.default_rng([m, int(10 * p)])
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    u0 = sum(rng.uniform(-0.6, 0.6) * np.sin(k * np.pi * x) for k in (1, 2, 3))
    load = Load(rng.uniform(-2.0, 2.0, m), c1=rng.uniform(-1.0, 1.0, m),
                amp=rng.uniform(0.0, 1.0, m), omega=rng.uniform(1.0, 8.0))
    energy = AllenCahn1DEnergy(m, load=load, shift="auto")
    return sv.GradientSystem(energy, preset.system.r1, preset.system.r2), u0


def _solves(scheme, system, P, inner):
    """Each prox solve of a run, in solve order: ``(R, t, h, j)``, where the
    solve's anchor is node value ``j n``, its state ``(j + 1) n`` and its
    force cell ``j n``, with n the run's ``step_cells``.  Each mechanism's
    solves share one potential."""
    R1, R2 = system.r1.rescaled(), system.r2.rescaled()
    if scheme == "split":
        grid = P.refine(inner)
        times = grid.times
        return [(R1 if left else R2, b, b - a, i)
                for i, (left, a, b) in enumerate(zip(grid.cell_is_left, times[:-1],
                                                     times[1:]))]
    if scheme == "amm":
        return [entry for k in range(P.N)
                for entry in ((R1, P.midpoints[k], P.taus[k] / 2.0, 2 * k),
                              (R2, P.nodes[k + 1], P.taus[k] / 2.0, 2 * k + 1))]
    R_eff = sv.effective_potential(system)
    return [(R_eff, P.nodes[k + 1], P.taus[k], k) for k in range(P.N)]


def _cold(R, E, t, anchor, h):
    if isinstance(R, pt.InfConvolution) and R.quadratic_matrix() is None:
        return infconv_prox_reference(E, R, t, anchor, h, TOL)[:3]
    return prox_newton_reference(R, E, t, anchor, h, TOL)[:3]


@pytest.mark.parametrize("drawn", [False, True], ids=["preset", "drawn"])
@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_warm_runs_agree_with_their_cold_replay_within_the_prox_tolerance(p, scheme, drawn):
    system, u0 = _system(p, drawn)
    P = build_partition(1.0, N=64)
    out = sv.solve(system, scheme, P, u0, TOL, 4)
    n, nodes, forces = out.step_cells, out.u_const.values, out.xi.cell_values
    warm_steps = cold_steps = stalled = 0
    for k, (R, t, h, j) in enumerate(_solves(scheme, system, P, 4)):
        anchor = nodes[j * n]
        try:
            u, xi, it = _cold(R, system.energy, t, anchor, h)
        except NumericalError:
            # a cold start at v = 0, where the Hessian of |v|^1.5 is clamped,
            # can stall where the warm start converged: no reference there
            stalled += 1
            continue
        warm_steps += out.stats["inner_iterations"][k]
        cold_steps += it
        # both stop within tol (1 + |anchor|) of stationarity
        bound = TOL * (1.0 + np.linalg.norm(anchor))
        assert np.linalg.norm(nodes[(j + 1) * n] - u) <= bound
        assert np.linalg.norm(forces[j * n] - xi) <= bound
    assert warm_steps < cold_steps
    # the drawn p = 1.5 split run: 18 of its 512 cold replays stall (the
    # rescaled member's curvature is clamped at 1e12, as every PowerNorm's)
    assert stalled <= (20 if (p, scheme, drawn) == (1.5, "split", True) else 0)


@pytest.mark.parametrize("N", [32, 64, 128])
@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_the_drawn_p15_runs_finish_with_a_passing_audit(scheme, N):
    # Newton jumped across the kink of |v|^1.5 at 0 here until the iteration
    # limit while the prox asked for the default share of the decrease.  The
    # split run at N = 128 holds a warm solve of 54 steps whose cold retry
    # stalls, so it also needs the bound on warm solves above that
    system, u0 = _system(1.5, drawn=True)
    out = sv.solve(system, scheme, build_partition(1.0, N=N), u0, TOL, 4)
    assert max(out.stats["inner_iterations"]) < 100
    assert dg.edb_audit(out, system).passed


def test_a_warm_solve_that_fails_gives_way_to_the_cold_start(monkeypatch):
    preset = make_model("allen-cahn-1d", m=6, p=3.0)
    R, E = preset.system.r1.rescaled(), preset.system.energy
    minimize, starts = newton.minimize, []

    def warm_fails(x, *args, **kwargs):
        starts.append((np.array(x), kwargs["max_iter"]))
        if _bits(x) != _bits(first):  # not the cold start at the anchor
            raise NumericalError("forced", iterations=7, best=x)
        return minimize(x, *args, **kwargs)

    def warm_stalls(x, gradient, hessian, *args, **kwargs):
        starts.append((np.array(x), kwargs["max_iter"]))
        if _bits(x) != _bits(first):
            # steps of a millionth of Newton's: the residual barely falls,
            # and nothing raises before the iteration limit
            def slow(u, held):
                return 1e6 * hessian(u, held)

            return minimize(x, gradient, slow, *args, **kwargs)
        return minimize(x, gradient, hessian, *args, **kwargs)

    for fake, spent in ((warm_fails, 7), (warm_stalls, sv._WARM_ITERATIONS)):
        kernel = sv._prox_kernel(E, R)
        first = kernel(E, 0.1, preset.u0, 0.05, TOL)[0]
        starts.clear()
        monkeypatch.setattr(newton, "minimize", fake)
        u, xi, st = kernel(E, 0.2, first, 0.05, TOL)
        monkeypatch.undo()
        # the warm attempt is bounded, the cold retry keeps the full limit
        assert [limit for _, limit in starts] == [sv._WARM_ITERATIONS, 100]
        assert _bits(starts[1][0]) == _bits(first)
        cold = prox_newton_reference(R, E, 0.2, first, 0.05, TOL)
        assert _bits(u) == _bits(cold[0]) and _bits(xi) == _bits(cold[1])
        assert st.iterations == spent + cold[2]


def test_the_p3_split_run_comes_to_rest_bit_for_bit():
    preset = make_model("allen-cahn-1d", p=3.0)
    out = sv.solve(preset.system, "split", build_partition(1.0, N=64), preset.u0, TOL, 8)
    rest = out.u_const.values[-256:]
    assert len(out.u_const.values) == 1025
    assert (rest.view(np.uint64) == rest[:1].view(np.uint64)).all()


@pytest.mark.parametrize("effective", [False, True], ids=["newton", "infconv"])
def test_a_warm_kernel_at_a_converged_anchor_returns_the_anchor(effective):
    preset = make_model("allen-cahn-1d", p=3.0)
    system, E = preset.system, preset.system.energy
    R = sv.effective_potential(system) if effective else system.r1.rescaled()
    at_rest = sv.solve(system, "split", build_partition(1.0, N=64), preset.u0, TOL, 8)
    anchor = at_rest.u_const.values[-1]
    kernel = sv._prox_kernel(E, R)
    h = 1.0 / 64
    assert kernel(E, 0.5, preset.u0, h, TOL)[2].iterations > 0  # a rate to start from
    results = [kernel(E, 1.0, anchor, h, TOL) for _ in range(6)]
    iterations = [st.iterations for _, _, st in results]
    # at most one solve is accepted at the warm start, and from the next one on
    # every solve starts, and stays, at the anchor, or returns that result again
    first = iterations.index(0)
    assert first <= 2
    for u, _, st in results[first + 1:]:
        assert st.iterations == 0 and _bits(u) == _bits(anchor)


def _recorded_kernel(monkeypatch, name):
    """Wrap the kernel function ``name`` of ``solvers``; returns the list of
    its calls as (kernel state, anchor, start, iterations), with start None
    for a call that returned a kept result without a solve."""
    calls, starts = [], []
    minimize = newton.minimize

    def start_recorded(x, *args, **kwargs):
        starts.append(np.array(x))
        return minimize(x, *args, **kwargs)

    kernel = getattr(sv, name)

    def recorded(*args, **kwargs):
        # the parts the kernel binds end in its state; then E, t, anchor
        warm, anchor, solves = args[4], args[7], len(starts)
        result = kernel(*args, **kwargs)
        start = starts[-1] if len(starts) > solves else None
        calls.append((warm, anchor, start, result[2].iterations))
        return result

    monkeypatch.setattr(newton, "minimize", start_recorded)
    monkeypatch.setattr(sv, name, recorded)
    return calls


@pytest.mark.parametrize("scheme, name", [("split", "_prox_newton"), ("amm", "_prox_newton"),
                                          ("effective", "_infconv_prox")])
def test_a_solve_after_a_zero_step_solve_starts_at_its_anchor(monkeypatch, scheme, name):
    calls = _recorded_kernel(monkeypatch, name)
    preset = make_model("allen-cahn-1d", p=3.0)
    sv.solve(preset.system, scheme, build_partition(1.0, N=64), preset.u0, TOL, 8)
    restarts = reused = warm = 0
    # one kernel per mechanism; the p = 3 mechanism's solves come to rest
    kernel = calls[0][0]
    calls = [call for call in calls if call[0] is kernel]
    for (_, before, _, it), (_, anchor, start, _) in zip(calls, calls[1:]):
        cold = np.zeros(2 * len(anchor)) if name == "_infconv_prox" else anchor
        if it == 0:
            if start is None:  # the same anchor again: no solve
                reused += 1
                assert _bits(anchor) == _bits(before)
            else:
                restarts += 1
                assert _bits(start) == _bits(cold)
        else:
            assert start is not None
            warm += _bits(start) != _bits(cold)
    assert restarts and reused and warm


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_kernels_of_a_quadratic_potential_start_warm(scheme):
    # at p = 2 both members, and their inf-convolution, are quadratic
    preset = make_model("allen-cahn-1d", m=6, p=2.0)
    system, E = preset.system, preset.system.energy
    for R in (system.r1.rescaled(), system.r2.rescaled(), sv.effective_potential(system)):
        kernel = sv._prox_kernel(E, R)
        assert kernel.func is sv._prox_newton
        assert isinstance(kernel.args[4], sv._Warm) and kernel.args[4].rates == []
    P = build_partition(1.0, N=8)
    out = sv.solve(system, scheme, P, preset.u0, TOL, 4)
    n, nodes = out.step_cells, out.u_const.values
    replays, warm = {}, 0  # the state of each mechanism's kernel
    for k, (R, t, h, j) in enumerate(_solves(scheme, system, P, 4)):
        state = replays.setdefault(id(R), KernelReplay())
        warm += bool(state.rates)
        u, xi, it = replay_cell(R, E, t, nodes[j * n], h, state, TOL)
        assert _bits(u) == _bits(nodes[(j + 1) * n])
        assert _bits(xi) == _bits(out.xi.cell_values[j * n])
        assert it == out.stats["inner_iterations"][k]
    assert warm


def test_the_public_prox_step_starts_cold():
    preset = make_model("allen-cahn-1d", m=6, p=3.0)
    R, E = preset.system.r1.rescaled(), preset.system.energy
    first = sv.prox_step(E, R, 0.1, preset.u0, 0.05)
    again = sv.prox_step(E, R, 0.2, first[0], 0.05)
    cold = prox_newton_reference(R, E, 0.2, first[0], 0.05, TOL)
    assert _bits(again[0]) == _bits(cold[0]) and _bits(again[1]) == _bits(cold[1])


def test_the_predicted_rate_moves_on_along_the_last_two_clipped():
    warm = sv._Warm()
    v0, v1 = np.array([1.0, -2.0]), np.array([1.5, -1.0])
    warm.rates = [(0.25, v1)]
    assert warm.predict(0.5) is v1  # one rate: no extrapolation
    warm.rates = [(0.125, v0), (0.25, v1)]
    assert _bits(warm.predict(0.3125)) == _bits(v1 + 0.5 * (v1 - v0))
    assert _bits(warm.predict(1.0)) == _bits(v1 + (v1 - v0))  # r clipped to 1
    assert warm.predict(0.25) is v1 and warm.predict(0.0) is v1  # r = 0, or clipped to it
    warm.rates = [(0.25, v0), (0.25, v1)]  # a repeated time
    assert warm.predict(0.5) is v1


def _counted_minimize(monkeypatch):
    """Count the calls of ``newton.minimize``; returns the list of them."""
    calls, minimize = [], newton.minimize

    def counted(*args, **kwargs):
        calls.append(kwargs["max_iter"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(newton, "minimize", counted)
    return calls


@pytest.mark.parametrize("effective", [False, True], ids=["newton", "infconv"])
def test_a_kept_result_at_rest_is_the_cold_prox_bit_for_bit(monkeypatch, effective):
    preset = make_model("allen-cahn-1d", p=3.0)
    system, E = preset.system, preset.system.energy
    assert not E.depends_on_time
    R = sv.effective_potential(system) if effective else system.r1.rescaled()
    at_rest = sv.solve(system, "split", build_partition(1.0, N=64), preset.u0, TOL, 8)
    anchor, h = at_rest.u_const.values[-1], 1.0 / 64
    kernel = sv._prox_kernel(E, R)
    calls = _counted_minimize(monkeypatch)
    first = kernel(E, 0.5, anchor, h, TOL)
    assert first[2].iterations == 0 and len(calls) == 1
    # the same anchor bits, step and tolerance at another time: no solve
    again = kernel(E, 0.75, np.array(anchor), h, TOL)
    assert len(calls) == 1
    monkeypatch.undo()
    cold_u, cold_xi = sv.prox_step(E, R, 0.75, anchor, h, TOL)
    cold_stats = sv._prox(E, R, 0.75, anchor, h, TOL)[2]
    assert _bits(again[0]) == _bits(cold_u) and _bits(again[1]) == _bits(cold_xi)
    assert (again[2].iterations, again[2].residual) == (0, cold_stats.residual)
    # another step, tolerance or anchor is solved
    calls = _counted_minimize(monkeypatch)
    nudged = np.array(anchor)
    nudged[0] = np.nextafter(nudged[0], 1.0)
    for args in ((anchor, h / 2, TOL), (anchor, h, TOL / 2), (nudged, h, TOL)):
        kernel(E, 0.75, *args)
    assert len(calls) == 3
    # a result is kept only until the next solve
    kernel = sv._prox_kernel(E, R)
    kernel(E, 0.5, anchor, h, TOL)
    assert kernel(E, 0.5, preset.u0, h, TOL)[2].iterations > 0
    calls.clear()
    kernel(E, 0.75, anchor, h, TOL)
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_a_time_dependent_load_solves_at_every_call(monkeypatch, scheme):
    system, u0 = _system(3.0, drawn=True)
    assert system.energy.depends_on_time
    calls = _counted_minimize(monkeypatch)
    out = sv.solve(system, scheme, build_partition(1.0, N=64), u0, TOL, 8)
    assert len(calls) == len(out.stats["inner_iterations"])


def test_a_time_dependent_load_solves_again_at_a_rest_of_an_earlier_time(monkeypatch):
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    load = Load([1.0, -0.5], c1=[0.5, 0.25])
    E, R = QuadraticBlockEnergy(A, f=load), pt.PowerNorm(3.0, [1.0, 2.0]).rescaled()
    assert E.depends_on_time
    rest = np.linalg.solve(A, load.value(0.25))  # at rest at t = 0.25 only
    kernel = sv._prox_kernel(E, R)
    calls = _counted_minimize(monkeypatch)
    assert kernel(E, 0.25, rest, 0.1, TOL)[2].iterations == 0
    u, xi, st = kernel(E, 0.5, rest, 0.1, TOL)
    assert len(calls) == 2 and st.iterations > 0
    monkeypatch.undo()
    cold = prox_newton_reference(R, E, 0.5, rest, 0.1, TOL)
    assert _bits(u) == _bits(cold[0]) and _bits(xi) == _bits(cold[1])


def _coupled_power_blocks():
    """Two blocks of a quadratic energy without loads, coupled through B and
    moved by p = 3 norms, so that both blocks step by Newton; y0 is at rest
    for z frozen at z0, and z0 is not at rest."""
    A = np.array([[2.0, 0.3], [0.3, 1.5]])
    B = np.array([[0.5, -0.4], [0.3, 0.6]])
    G = np.array([[1.8, -0.2], [-0.2, 2.2]])
    E = QuadraticBlockEnergy(A, B, G)
    Ry, Rz = pt.PowerNorm(3.0, [1.0, 2.0]), pt.PowerNorm(3.0, [1.5, 0.5])
    system = sv.GradientSystem(E, pt.BlockIndicator(Ry, [0, 1], 4),
                               pt.BlockIndicator(Rz, [2, 3], 4))
    z0 = np.array([0.8, -0.6])
    return system, np.concatenate([-np.linalg.solve(A, B.T @ z0), z0])


def test_a_block_step_never_takes_a_result_of_other_frozen_values(monkeypatch):
    system, u0 = _coupled_power_blocks()
    assert not system.energy.depends_on_time
    # the y block's per-step Newton kernel, as block-split builds it
    step = sv._step(system, 1)
    assert step.func is sv._block_step
    u, xi, st = step(0.5, u0, 0.1, TOL)
    assert st.iterations == 0 and _bits(u) == _bits(u0)  # y0 is at rest for z0
    # the same anchor and step of y, with a z block that has moved since
    moved = u0 + np.array([0.0, 0.0, 0.1, -0.2])
    u, xi, st = step(0.5, moved, 0.1, TOL)
    assert st.iterations > 0 and _bits(u[2:]) == _bits(moved[2:])
    monkeypatch.setattr(sv, "_rest_key", lambda *args: None)  # no result is kept
    fresh = sv._step(system, 1)(0.5, moved, 0.1, TOL)
    assert _bits(u) == _bits(fresh[0]) and _bits(xi) == _bits(fresh[1])
    assert st.iterations == fresh[2].iterations


@pytest.mark.parametrize("scheme, keeps", [("block-split", True), ("block-amm", False),
                                           ("effective", False)])
def test_block_runs_with_kept_results_are_the_runs_without(monkeypatch, scheme, keeps):
    system, u0 = _coupled_power_blocks()
    P = build_partition(1.0, N=16)
    calls = _counted_minimize(monkeypatch)
    out = sv.solve(system, scheme, P, u0, TOL, 4)
    kept = len(calls)
    monkeypatch.setattr(sv, "_rest_key", lambda *args: None)
    calls.clear()
    fresh = sv.solve(system, scheme, P, u0, TOL, 4)
    assert _bits(out.u_const.values) == _bits(fresh.u_const.values)
    assert _bits(out.xi.values) == _bits(fresh.xi.values)
    assert out.stats["inner_iterations"] == fresh.stats["inner_iterations"]
    # y comes to rest in block-split, also between moves of z
    assert (kept < len(calls)) == keeps


@pytest.mark.parametrize("scheme, most", [("split", 650), ("amm", 125), ("effective", 85)])
def test_the_p3_preset_runs_take_fewer_newton_steps(scheme, most):
    # 827, 150 and 100 steps when every warm solve started at the last rate
    # and every solve at rest was solved again
    preset = make_model("allen-cahn-1d", p=3.0)
    out = sv.solve(preset.system, scheme, build_partition(1.0, N=64), preset.u0, TOL, 8)
    assert sum(out.stats["inner_iterations"]) <= most
