"""Warm starts of the Newton prox kernels of a run.

A run's Newton kernel for a potential that is not quadratic starts each
solve at the rate of its last solve, and at the anchor after a solve that
took no Newton step (``solvers._prox_newton``, ``solvers._infconv_prox``).
A warm start moves the result only within the prox tolerance, so these
tests replay every solve of a run cold, from the run's own anchor, through
the references of ``test_prox_reference``: the states and forces agree
within the tolerance and the warm run takes fewer Newton steps.
"""

import numpy as np
import pytest

from splitflow import newton
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import AllenCahn1DEnergy, Load
from splitflow.errors import NumericalError
from splitflow.models import make_model
from splitflow.partitions import build_partition
from test_prox_reference import infconv_prox_reference, prox_newton_reference

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
    force cell ``j n``, with n the run's ``step_cells``."""
    if scheme == "split":
        grid = P.refine(inner)
        times = grid.times
        return [(pt.Rescaled(system.r1 if left else system.r2), b, b - a, i)
                for i, (left, a, b) in enumerate(zip(grid.cell_is_left, times[:-1],
                                                     times[1:]))]
    if scheme == "amm":
        R1, R2 = pt.Rescaled(system.r1), pt.Rescaled(system.r2)
        return [entry for k in range(P.N)
                for entry in ((R1, P.midpoints[k], P.taus[k] / 2.0, 2 * k),
                              (R2, P.nodes[k + 1], P.taus[k] / 2.0, 2 * k + 1))]
    R_eff = sv.effective_potential(system)
    return [(R_eff, P.nodes[k + 1], P.taus[k], k) for k in range(P.N)]


def _cold(R, E, t, anchor, h):
    if isinstance(R, pt.InfConvolution):
        return infconv_prox_reference(E, R, t, anchor, h, TOL)[:3]
    return prox_newton_reference(R, E, t, anchor, h, TOL)[:3]


@pytest.mark.parametrize("drawn", [False, True], ids=["preset", "drawn"])
@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_warm_runs_agree_with_their_cold_replay_within_the_prox_tolerance(p, scheme, drawn):
    system, u0 = _system(p, drawn)
    P = build_partition(1.0, N=64)
    solves = _solves(scheme, system, P, 4)
    try:
        out = sv.solve(system, scheme, P, u0, TOL, 4)
    except NumericalError:
        # a warm run fails only where the cold run fails as well (the drawn
        # p = 1.5 split run: Newton stalls on a member with p < 2)
        with pytest.raises(NumericalError):
            u = u0
            for R, t, h, _ in solves:
                u = _cold(R, system.energy, t, u, h)[0]
        return
    n, nodes, forces = out.step_cells, out.u_const.values, out.xi.cell_values
    cold_steps = 0
    for R, t, h, j in solves:
        anchor = nodes[j * n]
        u, xi, it = _cold(R, system.energy, t, anchor, h)
        cold_steps += it
        # both stop within tol (1 + |anchor|) of stationarity
        bound = TOL * (1.0 + np.linalg.norm(anchor))
        assert np.linalg.norm(nodes[(j + 1) * n] - u) <= bound
        assert np.linalg.norm(forces[j * n] - xi) <= bound
    assert sum(out.stats["inner_iterations"]) < cold_steps


def test_a_warm_start_that_stalls_gives_way_to_the_cold_start():
    system, u0 = _system(1.5, drawn=True)
    P = build_partition(1.0, N=64)
    out = sv.solve(system, "amm", P, u0, TOL, 4)
    iterations = np.array(out.stats["inner_iterations"])
    stalled = np.flatnonzero(iterations > 100)  # 100 steps from the warm start
    assert stalled.size
    n, solves = out.step_cells, _solves("amm", system, P, 4)
    for k in stalled:
        R, t, h, j = solves[k]
        u, xi, it, _ = prox_newton_reference(R, system.energy, t, out.u_const.values[j * n],
                                             h, TOL)
        assert _bits(u) == _bits(out.u_const.values[(j + 1) * n])
        assert _bits(xi) == _bits(out.xi.cell_values[j * n])
        assert 100 + it == iterations[k]


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
    R = sv.effective_potential(system) if effective else pt.Rescaled(system.r1)
    at_rest = sv.solve(system, "split", build_partition(1.0, N=64), preset.u0, TOL, 8)
    anchor = at_rest.u_const.values[-1]
    kernel = sv._prox_kernel(E, R)
    h = 1.0 / 64
    assert kernel(E, 0.5, preset.u0, h, TOL)[2].iterations > 0  # a rate to start from
    results = [kernel(E, 1.0, anchor, h, TOL) for _ in range(6)]
    iterations = [st.iterations for _, _, st in results]
    # at most one solve is accepted at the warm start, and from the next one on
    # every solve starts, and stays, at the anchor
    first = iterations.index(0)
    assert first <= 2
    for u, _, st in results[first + 1:]:
        assert st.iterations == 0 and _bits(u) == _bits(anchor)


def _recorded_kernel(monkeypatch, name):
    """Wrap the kernel function ``name`` of ``solvers``; returns the list of
    its warm calls as (kernel state, anchor, start, iterations)."""
    calls, starts = [], []
    minimize = newton.minimize

    def start_recorded(x, *args, **kwargs):
        starts.append(np.array(x))
        return minimize(x, *args, **kwargs)

    kernel = getattr(sv, name)

    def recorded(*args, warm=None, **kwargs):
        anchor = args[5]  # after the parts the kernel binds: E, t, anchor
        result = kernel(*args, warm=warm, **kwargs)
        if warm is not None:
            calls.append((warm, anchor, starts[-1], result[2].iterations))
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
    restarts = warm = 0
    for (state, _, _, it), (next_state, anchor, start, _) in zip(calls, calls[1:]):
        assert next_state is state  # one kernel per mechanism, and one warm mechanism
        cold = np.zeros(2 * len(anchor)) if name == "_infconv_prox" else anchor
        if it == 0:
            restarts += 1
            assert _bits(start) == _bits(cold)
        else:
            warm += _bits(start) != _bits(cold)
    assert restarts and warm


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_kernels_of_a_quadratic_potential_start_cold(scheme):
    # at p = 2 both members, and their inf-convolution, are quadratic
    preset = make_model("allen-cahn-1d", m=6, p=2.0)
    system, E = preset.system, preset.system.energy
    for R in (pt.Rescaled(system.r1), pt.Rescaled(system.r2), sv.effective_potential(system)):
        kernel = sv._prox_kernel(E, R)
        assert kernel.func is sv._prox_newton and kernel.keywords["warm"] is None
    P = build_partition(1.0, N=8)
    out = sv.solve(system, scheme, P, preset.u0, TOL, 4)
    n, nodes = out.step_cells, out.u_const.values
    for k, (R, t, h, j) in enumerate(_solves(scheme, system, P, 4)):
        u, xi, it, _ = prox_newton_reference(R, E, t, nodes[j * n], h, TOL)
        assert _bits(u) == _bits(nodes[(j + 1) * n])
        assert _bits(xi) == _bits(out.xi.cell_values[j * n])
        assert it == out.stats["inner_iterations"][k]


def test_the_public_prox_step_starts_cold():
    preset = make_model("allen-cahn-1d", m=6, p=3.0)
    R, E = pt.Rescaled(preset.system.r1), preset.system.energy
    first = sv.prox_step(E, R, 0.1, preset.u0, 0.05)
    again = sv.prox_step(E, R, 0.2, first[0], 0.05)
    cold = prox_newton_reference(R, E, 0.2, first[0], 0.05, TOL)
    assert _bits(again[0]) == _bits(cold[0]) and _bits(again[1]) == _bits(cold[1])
