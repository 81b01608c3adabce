"""The active-set kernel against the optimality conditions of its problem.

Every prox step of a quadratic energy whose potential is quadratic or has
shrinkage parts minimizes d^T K d / 2 + c^T d + sum_i sigma_i |d_i| in its
increment d, with K = H + M / h.  The draws below take dense positive
definite H that are not M-matrices, of dimensions 1 to 16, step sizes up to
10 and yield weights that are 0 on some coordinates; at the larger step
sizes the sign pattern of the active-set method can cycle, and the kernel
restarts it from a coordinate-descent sweep.  Each step is checked by the
optimality residual taken here, and the first step of each draw by its
objective against that of 50 steps of FISTA, an independent method.
"""

import numpy as np

from splitflow import solvers as sv
from splitflow.energies import Load, QuadraticBlockEnergy

DRAWS = 1000
STEP_SIZES = (0.01, 0.1, 0.5, 2.0, 5.0, 10.0)


def objective(K, c, sigma, d):
    return 0.5 * d @ K @ d + c @ d + sigma @ np.abs(d)


def optimality_residual(K, c, sigma, d):
    """The distance of -(K d + c) from sigma times the subdifferential of |d|."""
    g = K @ d + c
    return float(np.linalg.norm(np.where(d != 0.0, g + sigma * np.sign(d),
                                         np.maximum(np.abs(g) - sigma, 0.0))))


def fista(K, c, sigma, iterations=50):
    """A point of low objective by FISTA with the step 1 / |K|."""
    L = float(np.linalg.eigvalsh(K)[-1])
    d = y = np.zeros_like(c)
    momentum = 1.0
    for _ in range(iterations):
        step = y - (K @ y + c) / L
        d_new = np.sign(step) * np.maximum(np.abs(step) - sigma / L, 0.0)
        following = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        y = d_new + (momentum - 1.0) / following * (d_new - d)
        d, momentum = d_new, following
    return d


def draw(rng):
    n = int(rng.integers(1, 17))
    M = rng.standard_normal((n, n))
    H = M @ M.T + float(rng.uniform(0.01, 1.0)) * np.eye(n)
    q = rng.uniform(0.1, 2.0, n)
    sigma = np.where(rng.random(n) < rng.uniform(0.0, 1.0), rng.uniform(0.05, 2.0, n), 0.0)
    return H, q, sigma, float(rng.choice(STEP_SIZES))


def test_drawn_steps_meet_their_optimality_conditions(monkeypatch):
    sweeps, sweep = [0], sv._coordinate_sweep

    def counted(*args):
        sweeps[0] += 1
        return sweep(*args)

    monkeypatch.setattr(sv, "_coordinate_sweep", counted)
    rng = np.random.default_rng(2024)
    restarted = 0
    for k in range(DRAWS):
        H, q, sigma, h = draw(rng)
        n = len(H)
        K = H + np.diag(q) / h
        kernel = sv._ActiveSet(H, np.diag(q), sigma, "incremental minimization")
        # two steps of one kernel from drawn anchors: the second starts from
        # the sign pattern of the first
        load = Load(rng.standard_normal(n) * rng.uniform(0.1, 5.0))
        E = QuadraticBlockEnergy(A=H, f=load)
        for first, anchor in zip((True, False), rng.standard_normal((2, n))):
            sweeps[0] = 0
            u, xi, st = kernel(E, 0.0, anchor, h, 1e-10)
            restarted += sweeps[0] > 0
            c, d = E.grad(0.0, anchor), u - anchor
            scale = 1.0 + np.linalg.norm(c) + np.linalg.norm(K) * np.linalg.norm(anchor)
            assert optimality_residual(K, c, sigma, d) <= 1e-12 * scale, k
            f = objective(K, c, sigma, d)
            if first:
                assert f <= objective(K, c, sigma, fista(K, c, sigma)) + 1e-12 * (1.0 + abs(f)), k
            np.testing.assert_array_equal(xi, E.grad(0.0, u))
            assert st.method == "active-set" and st.iterations >= 1
            if not sigma.any():  # a quadratic potential takes one solve
                assert st.iterations == 1
    # the draws hold patterns that cycle
    assert restarted > 0
