"""Warm starts of the Newton prox kernels of a run.

Every Newton kernel of a run starts each solve at the rate of its last
solve, and at the anchor for its first solve and after a solve that took no
Newton step (``solvers._prox_newton``, ``solvers._infconv_prox``).  A warm
start moves the result only within the prox tolerance, so these tests
replay every solve of a run cold, from the run's own anchor, through the
references of ``test_prox_reference``: the states and forces agree within
the tolerance and the warm run takes fewer Newton steps.  Every loop over a
member with p < 2 asks for a quarter of the predicted decrease
(``newton.armijo_constant``), so the drawn p = 1.5 runs below finish.
"""

import numpy as np
import pytest

from splitflow import diagnostics as dg
from splitflow import newton
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import AllenCahn1DEnergy, Load
from splitflow.errors import NumericalError
from splitflow.models import make_model
from splitflow.partitions import build_partition
from test_prox_reference import infconv_prox_reference, prox_newton_reference, replay_cell

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
    # the drawn p = 1.5 split run: 13 of its 512 cold replays stall
    assert stalled <= (20 if (p, scheme, drawn) == (1.5, "split", True) else 0)


@pytest.mark.parametrize("N", [32, 64, 128])
@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_the_drawn_p15_runs_finish_with_a_passing_audit(scheme, N):
    # Newton jumped across the kink of |v|^1.5 at 0 here until the iteration
    # limit while the prox asked for the default share of the decrease
    system, u0 = _system(1.5, drawn=True)
    out = sv.solve(system, scheme, build_partition(1.0, N=N), u0, TOL, 4)
    assert max(out.stats["inner_iterations"]) < 100
    assert dg.edb_audit(out, system).passed


def test_a_warm_solve_that_fails_gives_way_to_the_cold_start(monkeypatch):
    preset = make_model("allen-cahn-1d", m=6, p=3.0)
    R, E = pt.Rescaled(preset.system.r1), preset.system.energy
    kernel = sv._prox_kernel(E, R)
    first = kernel(E, 0.1, preset.u0, 0.05, TOL)[0]
    minimize, starts = newton.minimize, []

    def warm_fails(x, *args, **kwargs):
        starts.append(np.array(x))
        if _bits(x) != _bits(first):  # not the cold start at the anchor
            raise NumericalError("forced", iterations=7, best=x)
        return minimize(x, *args, **kwargs)

    monkeypatch.setattr(newton, "minimize", warm_fails)
    u, xi, st = kernel(E, 0.2, first, 0.05, TOL)
    assert len(starts) == 2 and _bits(starts[1]) == _bits(first)
    monkeypatch.undo()
    cold = prox_newton_reference(R, E, 0.2, first, 0.05, TOL)
    assert _bits(u) == _bits(cold[0]) and _bits(xi) == _bits(cold[1])
    assert st.iterations == 7 + cold[2]


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
    its calls as (kernel state, anchor, start, iterations)."""
    calls, starts = [], []
    minimize = newton.minimize

    def start_recorded(x, *args, **kwargs):
        starts.append(np.array(x))
        return minimize(x, *args, **kwargs)

    kernel = getattr(sv, name)

    def recorded(*args, **kwargs):
        # the parts the kernel binds end in its state; then E, t, anchor
        warm, anchor = args[4], args[7]
        result = kernel(*args, **kwargs)
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
    # one kernel per mechanism; the p = 3 mechanism's solves come to rest
    kernel = calls[0][0]
    calls = [call for call in calls if call[0] is kernel]
    for (_, _, _, it), (_, anchor, start, _) in zip(calls, calls[1:]):
        cold = np.zeros(2 * len(anchor)) if name == "_infconv_prox" else anchor
        if it == 0:
            restarts += 1
            assert _bits(start) == _bits(cold)
        else:
            warm += _bits(start) != _bits(cold)
    assert restarts and warm


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_kernels_of_a_quadratic_potential_start_warm(scheme):
    # at p = 2 both members, and their inf-convolution, are quadratic
    preset = make_model("allen-cahn-1d", m=6, p=2.0)
    system, E = preset.system, preset.system.energy
    for R in (pt.Rescaled(system.r1), pt.Rescaled(system.r2), sv.effective_potential(system)):
        kernel = sv._prox_kernel(E, R)
        assert kernel.func is sv._prox_newton and kernel.args[4] == [None]
    P = build_partition(1.0, N=8)
    out = sv.solve(system, scheme, P, preset.u0, TOL, 4)
    n, nodes = out.step_cells, out.u_const.values
    last, warm = {}, 0  # the state of each mechanism's kernel
    for k, (R, t, h, j) in enumerate(_solves(scheme, system, P, 4)):
        state = last.setdefault(id(getattr(R, "base", R)), [None])
        warm += state[0] is not None
        u, xi, it = replay_cell(R, E, t, nodes[j * n], h, state, TOL)
        assert _bits(u) == _bits(nodes[(j + 1) * n])
        assert _bits(xi) == _bits(out.xi.cell_values[j * n])
        assert it == out.stats["inner_iterations"][k]
    assert warm


def test_the_public_prox_step_starts_cold():
    preset = make_model("allen-cahn-1d", m=6, p=3.0)
    R, E = pt.Rescaled(preset.system.r1), preset.system.energy
    first = sv.prox_step(E, R, 0.1, preset.u0, 0.05)
    again = sv.prox_step(E, R, 0.2, first[0], 0.05)
    cold = prox_newton_reference(R, E, 0.2, first[0], 0.05, TOL)
    assert _bits(again[0]) == _bits(cold[0]) and _bits(again[1]) == _bits(cold[1])
