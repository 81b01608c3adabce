"""The Newton prox kernels against the assembly they replaced.

The references below build every Newton step's Hessian as whole matrices,
``R''(v)/h + E''(t, u)``, and the inf-convolution's as one ``np.block``,
with each kind's Hessian written out as it was before the kinds stated it
as parts; values and gradients come from the public, checked methods.  The
kernels take the constant Hessian parts once and write only the diagonal
per step, through the unchecked cores.  The arithmetic of every entry is the
same, so the results must agree bit for bit: the state, the force, the
iteration count and the residual.

A kernel of a run starts each solve from the rate that the run's last two
solves of that kernel predict (see ``solvers._Warm``); the references take
that start as ``start``, and the runs below replay it cell by cell through
``KernelReplay``.  Both take the Armijo constant of their potentials from
``newton.armijo_constant``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import newton
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import AllenCahn1DEnergy, EnergySpec, Load, QuadraticBlockEnergy
from splitflow.errors import NumericalError
from splitflow.models import make_model
from splitflow.partitions import build_partition


def potential_hess(R, v):
    if isinstance(R, pt.PowerNorm):
        with np.errstate(divide="ignore"):
            d = R.weights * (R.p - 1.0) * np.abs(v) ** (R.p - 2.0)
        return np.diag(np.minimum(d, 1e12))
    if isinstance(R, pt.AnisotropicDualQuadratic):
        return np.diag(1.0 / R.dual_weights)
    return np.array(R.quadratic_matrix())  # a quadratic form or pair


def energy_hess(E, t, u):
    if isinstance(E, FrozenReference):
        return energy_hess(E.base, t, E._assemble(u))[np.ix_(E.active, E.active)]
    if isinstance(E, AllenCahn1DEnergy):
        return E.K + E.h * np.diag(E.well.d2(u))
    return np.block([[E.A, E.B.T], [E.B, E.G]]) if E.n_z else np.array(E.A)


def prox_newton_reference(R, E, t, anchor, h, tol, max_iter=100, start=None):
    """The prox from ``start``, by default the anchor."""
    def gradient(u):
        v = (u - anchor) / h
        xi = E.grad(t, u)
        return R.grad(v) + xi, (v, xi)

    def hessian(u, held):
        return potential_hess(R, held[0]) / h + energy_hess(E, t, u)

    def objective(u):
        return h * R((u - anchor) / h) + E.eval(t, u)

    scale = 1.0 + float(np.linalg.norm(anchor))
    u, (_, xi), it, res = newton.minimize(
        np.array(anchor if start is None else start), gradient, hessian, objective,
        tol * scale, max_iter=max_iter, armijo=newton.armijo_constant(R),
        name="effective prox" if isinstance(R, pt.InfConvolution) else "incremental minimization")
    return u, xi, it, res


def infconv_prox_reference(E, R_eff, t, anchor, tau, tol, max_iter=100, start=None):
    """The effective prox from the split ``start`` = (v1, v2), by default 0;
    returns the prox's outcome and then the split it reached."""
    R1, R2 = R_eff.left, R_eff.right
    n = E.dim

    def state(w):
        return anchor + tau * (w[:n] + w[n:])

    def gradient(w):
        u = state(w)
        ge = E.grad(t, u)
        return np.concatenate([R1.grad(w[:n]) + ge, R2.grad(w[n:]) + ge]), (u, ge)

    def hessian(w, held):
        He = energy_hess(E, t, held[0]) * tau
        return np.block([[potential_hess(R1, w[:n]) + He, He],
                         [He, potential_hess(R2, w[n:]) + He]])

    def objective(w):
        return tau * (R1(w[:n]) + R2(w[n:])) + E.eval(t, state(w))

    scale = 1.0 + float(np.linalg.norm(anchor))
    w, (u, xi), it, res = newton.minimize(
        np.zeros(2 * n) if start is None else start, gradient, hessian, objective,
        tol * scale, chain=tau, max_iter=max_iter, armijo=newton.armijo_constant(R1, R2),
        name="effective prox")
    return u, xi, it, res, w


class FrozenReference(EnergySpec):
    """The frozen-block view through the base energy's public methods."""

    def __init__(self, base, active, full_state):
        self.base, self.active, self.full = base, active, np.array(full_state)

    @property
    def dim(self):
        return self.active.size

    def _assemble(self, x):
        u = np.array(self.full)
        u[self.active] = x
        return u

    def eval(self, t, x):
        return self.base.eval(t, self._assemble(x))

    def grad(self, t, x):
        return self.base.grad(t, self._assemble(x))[self.active]


def _outcome(solve):
    """``(u, xi, iterations, residual)`` as bytes, or the failure's message."""
    try:
        u, xi, it, res = solve()[:4]
    except NumericalError as exc:
        return str(exc)
    return u.tobytes(), xi.tobytes(), it, np.float64(res).tobytes()


def _spd(data, m):
    A = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m * m, max_size=m * m)))
    A = A.reshape(m, m)
    return A @ A.T + m * np.eye(m)


def _weights(data, m, lo=0.2, hi=3.0):
    return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))


def _potential(data, kind, m):
    if kind == "power":
        return pt.PowerNorm(data.draw(st.sampled_from([1.5, 2.0, 3.0])), _weights(data, m))
    if kind == "quadratic-form":
        return pt.QuadraticForm(_spd(data, m))
    if kind == "dual-quadratic":
        return pt.AnisotropicDualQuadratic(_weights(data, m))
    # a quadratic pair, as in the p = 2 effective prox of allen-cahn-1d
    return pt.InfConvolution(pt.PowerNorm(2.0, _weights(data, m)), pt.QuadraticForm(_spd(data, m)))


def _allen_cahn(data, m):
    load = None
    if data.draw(st.booleans()):
        load = Load(_weights(data, m, -1.0, 1.0), c1=np.full(m, 0.5), amp=np.full(m, 0.3),
                    omega=4.0)
    return AllenCahn1DEnergy(m, load=load)


def _anchor(data, m, scale=1.0):
    return scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))


_times = st.floats(0.0, 1.0)
_steps = st.floats(1e-3, 0.5)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["power", "quadratic-form", "dual-quadratic", "quadratic-pair"]),
       rescaled=st.booleans(), m=st.integers(1, 6), data=st.data())
def test_newton_prox_matches_the_public_assembly_on_allen_cahn(kind, rescaled, m, data):
    R = _potential(data, kind, m)
    R = R.rescaled() if rescaled else R
    E = _allen_cahn(data, m)
    t, h, anchor = data.draw(_times), data.draw(_steps), _anchor(data, m)
    kernel = sv._prox_kernel(E, R)
    assert kernel.func is sv._prox_newton

    def new():
        u, xi, st_ = kernel(E, t, anchor, h, 1e-10)
        return u, xi, st_.iterations, st_.residual

    assert _outcome(new) == _outcome(
        lambda: prox_newton_reference(R, E, t, anchor, h, 1e-10))


@settings(max_examples=40, deadline=None)
@given(n_y=st.integers(1, 4), n_z=st.integers(0, 3), frozen=st.booleans(),
       rescaled=st.booleans(), data=st.data())
def test_newton_prox_matches_the_public_assembly_on_a_block_energy(n_y, n_z, frozen,
                                                                  rescaled, data):
    dim = n_y + n_z
    H = _spd(data, dim)
    f = Load(_weights(data, n_y, -1.0, 1.0), amp=np.full(n_y, 0.4), omega=2.0)
    E = QuadraticBlockEnergy(H[:n_y, :n_y], H[n_y:, :n_y], H[n_y:, n_y:], f=f)
    full = _anchor(data, dim, 2.0)
    if frozen:
        # the kernel is built from one frozen view and called with another
        active = np.arange(n_y) if data.draw(st.booleans()) else np.arange(n_y, dim)
        if not active.size:
            active = np.arange(n_y)
        E_kernel = sv._FrozenBlockEnergy(E, active, np.zeros(dim))
        E_call = sv._FrozenBlockEnergy(E, active, full)
        E_ref = FrozenReference(E, active, full)
    else:
        E_kernel = E_call = E_ref = E
    m = E_call.dim
    R = pt.PowerNorm(data.draw(st.sampled_from([1.5, 3.0])), _weights(data, m))
    R = R.rescaled() if rescaled else R
    t, h, anchor = data.draw(_times), data.draw(_steps), _anchor(data, m, 2.0)
    kernel = sv._prox_kernel(E_kernel, R)
    assert kernel.func is sv._prox_newton

    def new():
        u, xi, st_ = kernel(E_call, t, anchor, h, 1e-10)
        return u, xi, st_.iterations, st_.residual

    assert _outcome(new) == _outcome(
        lambda: prox_newton_reference(R, E_ref, t, anchor, h, 1e-10))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1.5, 3.0]),
       other=st.sampled_from(["power", "quadratic-form", "dual-quadratic"]),
       m=st.integers(1, 6), data=st.data())
def test_infconv_prox_matches_the_block_assembly(p, other, m, data):
    R_eff = pt.InfConvolution(pt.PowerNorm(p, _weights(data, m)), _potential(data, other, m))
    E = _allen_cahn(data, m)
    t, tau, anchor = data.draw(_times), data.draw(_steps), _anchor(data, m)
    kernel = sv._prox_kernel(E, R_eff)
    assert kernel.func is sv._infconv_prox

    def new():
        u, xi, st_ = kernel(E, t, anchor, tau, 1e-10)
        return u, xi, st_.iterations, st_.residual

    assert _outcome(new) == _outcome(
        lambda: infconv_prox_reference(E, R_eff, t, anchor, tau, 1e-10))


class KernelReplay:
    """The state of one kernel of a run, replayed.

    ``rates`` holds the eval time and rate of the kernel's last two solves
    since it last started cold.  A solve starts at the rate v_k + r (v_k -
    v_{k-1}), r = (t - t_k) / (t_k - t_{k-1}) clipped to [0, 1], or v_k
    with one rate, or cold with none.  A solve that took no step empties
    ``rates``; a cold one that took no step is kept under its rest key,
    and a later solve with that key is one the kernel returns again without
    a solve: ``reused`` counts them.  The replay solves them all the same,
    from the cold start the kernel would take, so the comparisons of every
    cell show that a kept result is the one a solve gives.
    """

    def __init__(self):
        self.rates, self.rest, self.reused = [], None, 0

    def start(self, t):
        """The rate to start a solve at time t from, or None to start cold."""
        if not self.rates:
            return None
        t1, v1 = self.rates[-1]
        if len(self.rates) == 1:
            return v1
        t0, v0 = self.rates[0]
        r = min(max((t - t1) / (t1 - t0), 0.0), 1.0) if t1 > t0 else 0.0
        return v1 + r * (v1 - v0) if r else v1

    def solved(self, E, t, anchor, h, tol, rate, iterations):
        """Record a solve at time t from ``anchor`` that took ``iterations``
        Newton steps and ended at ``rate``."""
        key = None if E.depends_on_time else (anchor.tobytes(), h, tol)
        if key is not None and key == self.rest:
            assert not self.rates and iterations == 0
            self.reused += 1
        cold = not self.rates
        self.rates = self.rates[-1:] + [(t, rate)] if iterations else []
        self.rest = key if cold and not iterations else None


def replay_cell(R, E, t, anchor, h, kernel, tol=1e-10):
    """One cell of a run through the Newton reference, started as the run's
    kernel, replayed by the :class:`KernelReplay` ``kernel``, starts it: at
    ``anchor + h v`` with v its predicted rate, or at the anchor."""
    v = kernel.start(t)
    start = None if v is None else anchor + h * v
    u, xi, it, _ = prox_newton_reference(R, E, t, anchor, h, tol, start=start)
    kernel.solved(E, t, anchor, h, tol, (u - anchor) / h, it)
    return u, xi, it


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_a_split_run_matches_the_public_assembly_cell_by_cell(p):
    preset = make_model("allen-cahn-1d", m=6, p=p)
    system = preset.system
    out = sv.solve(system, "split", build_partition(1.0, N=4), preset.u0, 1e-10, 4)
    grid = out.grid
    u = preset.u0
    kernels = {True: KernelReplay(), False: KernelReplay()}  # per mechanism
    predicted = 0
    for i in range(grid.n_cells):
        left = bool(grid.cell_is_left[i])
        R = (system.r1 if left else system.r2).rescaled()
        a, b = grid.times[i], grid.times[i + 1]
        predicted += len(kernels[left].rates) == 2
        u, xi, it = replay_cell(R, system.energy, b, u, b - a, kernels[left])
        assert u.tobytes() == out.u_const.values[i + 1].tobytes()
        assert xi.tobytes() == out.xi.cell_values[i].tobytes()
        assert it == out.stats["inner_iterations"][i]
    assert predicted
    # at p = 3 mechanism 1's kernel also comes to rest, where it returns its
    # kept results again
    assert p == 1.5 or kernels[True].reused


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_an_effective_run_matches_the_block_assembly_step_by_step(p):
    preset = make_model("allen-cahn-1d", m=6, p=p)
    system, P = preset.system, build_partition(1.0, N=16)
    out = sv.solve(system, "effective", P, preset.u0, 1e-10, 4)
    R_eff, n = sv.effective_potential(system), out.step_cells
    assert sv._prox_kernel(system.energy, R_eff).func is sv._infconv_prox
    u, kernel, predicted = preset.u0, KernelReplay(), 0
    for k in range(P.N):
        t, tau = P.nodes[k + 1], P.taus[k]
        predicted += len(kernel.rates) == 2
        anchor = u
        u, xi, it, _, w = infconv_prox_reference(system.energy, R_eff, t, anchor, tau, 1e-10,
                                                 start=kernel.start(t))
        kernel.solved(system.energy, t, anchor, tau, 1e-10, w, it)
        assert u.tobytes() == out.u_const.values[(k + 1) * n].tobytes()
        assert xi.tobytes() == out.xi.cell_values[k * n].tobytes()
        assert it == out.stats["inner_iterations"][k]
    assert predicted
    assert p == 1.5 or kernel.reused
