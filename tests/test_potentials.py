import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import potentials as pt
from splitflow.errors import ConfigurationError, InputError


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def grid_search_conjugate(P, xi, radius=20.0, num=200001):
    """Brute-force sup_v <xi, v> - R(v) on a dense 1-D grid."""
    vs = np.linspace(-radius, radius, num)
    vals = [xi * v - P([v]) for v in vs]
    return max(vals)


def grid_search_infconv_1d(R1, R2, v, radius=2.0, step=1e-4):
    """Brute-force min over v1 of R1(v1) + R2(v - v1)."""
    v1s = np.arange(-radius, radius + step, step)
    best_val, best_v1 = math.inf, None
    for v1 in v1s:
        val = R1([v1]) + R2([v - v1])
        if val < best_val:
            best_val, best_v1 = val, v1
    return best_val, best_v1


def grid_search_infconv_2d(R1, R2, v, radius=3.0, num=121):
    vs = np.linspace(-radius, radius, num)
    best = math.inf
    for x in vs:
        for y in vs:
            v1 = np.array([x, y])
            val = R1(v1) + R2(np.asarray(v) - v1)
            best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_quadratic_identity():
    P = pt.QuadraticForm(np.eye(1))
    assert P([2.0]) == pytest.approx(2.0)


def test_eval_powernorm_zero():
    P = pt.PowerNorm(2.0, dim=1)
    assert P([0.0]) == 0.0


def test_eval_block_indicator_frozen_nonzero_is_infinite():
    base = pt.QuadraticForm(np.eye(1))
    P = pt.BlockIndicator(base, active=[0], total_dim=2)
    assert P([1.0, 0.5]) == math.inf
    assert P([1.0, 0.0]) == pytest.approx(0.5)


def test_eval_dimension_mismatch():
    P = pt.QuadraticForm(np.eye(2))
    with pytest.raises(InputError):
        P([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "P",
    [
        pt.QuadraticForm(np.array([[2.0, 0.3], [0.3, 1.0]])),
        pt.PowerNorm(3.0, [0.5, 1.5]),
        pt.AnisotropicDualQuadratic([1.0, 3.0]),
        pt.OneHomPlusQuad(1.0, 2.0, [1.0, 2.0]),
        pt.Rescaled(pt.PowerNorm(2.0, dim=2)),
    ],
)
def test_eval_nonnegative_zero_at_origin_convex(P):
    rng = np.random.default_rng(3)
    assert P(np.zeros(P.dim)) == 0.0
    for _ in range(50):
        v0 = rng.standard_normal(P.dim) * 2
        v1 = rng.standard_normal(P.dim) * 2
        th = rng.uniform()
        assert P(v0) >= 0.0
        mix = P(th * v0 + (1 - th) * v1)
        assert mix <= th * P(v0) + (1 - th) * P(v1) + 1e-10


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------


def test_conjugate_quadratic_identity():
    P = pt.QuadraticForm(np.eye(1))
    assert P.conjugate([3.0]) == pytest.approx(4.5)


def test_conjugate_powernorm_p3():
    P = pt.PowerNorm(3.0, dim=1)
    assert P.conjugate([1.0]) == pytest.approx(2.0 / 3.0)
    assert P.conjugate([1.0]) == pytest.approx(
        grid_search_conjugate(P, 1.0), abs=1e-8
    )


def test_conjugate_infconv_is_sum():
    left = pt.AnisotropicDualQuadratic([1.0])
    right = pt.AnisotropicDualQuadratic([3.0])
    P = pt.InfConvolution(left, right)
    assert P.conjugate([1.0]) == pytest.approx(0.5 + 1.5)


def test_conjugate_rescaled_doubles():
    base = pt.OneHomPlusQuad(1.0, 2.0, dim=1)
    P = pt.Rescaled(base)
    xi = [3.0]
    assert P.conjugate(xi) == pytest.approx(2.0 * base.conjugate(xi))
    # direct sup check of the rescaled primal
    assert P.conjugate(xi) == pytest.approx(grid_search_conjugate(P, 3.0), abs=1e-7)


def test_conjugate_block_indicator_ignores_frozen_duals():
    base = pt.QuadraticForm(np.eye(1))
    P = pt.BlockIndicator(base, active=[0], total_dim=2)
    assert P.conjugate([3.0, 100.0]) == pytest.approx(4.5)


def test_biconjugation_closed_form_kinds():
    rng = np.random.default_rng(11)
    kinds = [
        pt.QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.5]])),
        pt.PowerNorm(2.0, [0.7, 1.3]),
        pt.AnisotropicDualQuadratic([1.0, 3.0]),
        pt.OneHomPlusQuad(0.5, 1.5, dim=2),
    ]
    for P in kinds:
        for _ in range(100):
            v = rng.standard_normal(P.dim) * 3
            val = _biconjugate(P, v)
            assert val == pytest.approx(P(v), abs=1e-8, rel=1e-8)


def _biconjugate(P, v, max_iters=50000):
    # concave maximization of <v, xi> - R*(xi) by gradient ascent with
    # Barzilai-Borwein steps; the ascent gradient is v - dR*(xi)
    xi = np.zeros(P.dim)
    g = v - P.dual_rate(xi)
    step = 0.1
    for _ in range(max_iters):
        if np.linalg.norm(g) <= 1e-11 * (1.0 + np.linalg.norm(v)):
            break
        xi_new = xi + step * g
        g_new = v - P.dual_rate(xi_new)
        dx, dg = xi_new - xi, g_new - g
        denom = float(dg @ dg)
        step = abs(float(dx @ dg)) / denom if denom > 0 else step * 1.5
        step = min(max(step, 1e-8), 1e6)
        xi, g = xi_new, g_new
    return float(v @ xi) - P.conjugate(xi)


# ---------------------------------------------------------------------------
# dual rate
# ---------------------------------------------------------------------------


def test_dual_rate_shrinkage():
    P = pt.OneHomPlusQuad(1.0, 2.0, dim=1)
    assert P.dual_rate([3.0])[0] == pytest.approx(1.0)
    assert P.dual_rate([0.5])[0] == pytest.approx(0.0)


def test_dual_rate_quadratic():
    P = pt.QuadraticForm(np.diag([2.0]))
    assert P.dual_rate([4.0])[0] == pytest.approx(2.0)


def test_dual_rate_infconv_sum():
    left = pt.AnisotropicDualQuadratic([1.0, 3.0])
    right = pt.AnisotropicDualQuadratic([3.0, 1.0])
    P = pt.InfConvolution(left, right)
    np.testing.assert_allclose(P.dual_rate([1.0, 1.0]), [4.0, 4.0])


def test_dual_rate_singular_quadratic_rejected():
    with pytest.raises(ConfigurationError):
        pt.QuadraticForm(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "P",
    [
        pt.QuadraticForm(np.array([[2.0, 0.3], [0.3, 1.0]])),
        pt.PowerNorm(3.0, [0.5, 1.5]),
        pt.OneHomPlusQuad(1.0, 2.0, dim=2),
        pt.Rescaled(pt.AnisotropicDualQuadratic([1.0, 3.0])),
        pt.InfConvolution(
            pt.AnisotropicDualQuadratic([1.0, 3.0]),
            pt.AnisotropicDualQuadratic([3.0, 1.0]),
        ),
    ],
)
def test_dual_rate_consistency_via_fenchel_young(P):
    rng = np.random.default_rng(5)
    for _ in range(30):
        xi = rng.standard_normal(P.dim) * 2
        v = P.dual_rate(xi)
        assert pt.fenchel_young_residual(P, v, xi) <= 1e-8


# ---------------------------------------------------------------------------
# inf-convolution decomposition
# ---------------------------------------------------------------------------


def test_infconv_scalar_quadratics_closed_form():
    R1 = pt.AnisotropicDualQuadratic([1.0])
    R2 = pt.AnisotropicDualQuadratic([3.0])
    P = pt.InfConvolution(R1, R2)
    dec = pt.inf_conv_decompose(P, [4.0], 1e-12)
    assert dec.value == pytest.approx(16.0 / 8.0)
    assert dec.v1[0] == pytest.approx(1.0)
    assert dec.v2[0] == pytest.approx(3.0)


def test_infconv_zero_rate():
    P = pt.InfConvolution(
        pt.AnisotropicDualQuadratic([1.0]), pt.AnisotropicDualQuadratic([3.0])
    )
    dec = pt.inf_conv_decompose(P, [0.0], 1e-12)
    assert dec.value == 0.0
    assert dec.v1[0] == 0.0 and dec.v2[0] == 0.0


def test_infconv_yield_term_freezes_second_rate():
    R1 = pt.PowerNorm(2.0, dim=1)
    R2 = pt.OneHomPlusQuad(10.0, 1.0, dim=1)
    P = pt.InfConvolution(R1, R2)
    dec = pt.inf_conv_decompose(P, [0.5], 1e-10)
    oracle_val, oracle_v1 = grid_search_infconv_1d(R1, R2, 0.5)
    assert oracle_val == pytest.approx(0.125, abs=1e-6)
    assert oracle_v1 == pytest.approx(0.5, abs=1e-3)
    assert dec.value == pytest.approx(0.125, abs=1e-8)
    assert dec.v2[0] == pytest.approx(0.0, abs=1e-6)
    assert dec.v1[0] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize(
    "R1,R2,v",
    [
        (
            pt.QuadraticForm(np.array([[1.0, 0.2], [0.2, 2.0]])),
            pt.QuadraticForm(np.diag([3.0, 0.5])),
            [1.5, -0.75],
        ),
        (
            pt.PowerNorm(3.0, dim=2),
            pt.QuadraticForm(np.diag([1.0, 2.0])),
            [1.0, -0.5],
        ),
        (
            pt.PowerNorm(2.0, dim=2),
            pt.OneHomPlusQuad(0.4, 1.0, dim=2),
            [1.2, 0.3],
        ),
    ],
)
def test_infconv_decompose_matches_grid_oracle_2d(R1, R2, v):
    P = pt.InfConvolution(R1, R2)
    dec = pt.inf_conv_decompose(P, v, 1e-8)
    oracle = grid_search_infconv_2d(R1, R2, v, radius=2.0, num=161)
    # oracle grid step 0.025 -> value accurate to ~1e-3 on these smooth pairs
    assert dec.value <= oracle + 1e-9
    assert dec.value == pytest.approx(oracle, abs=1e-3)
    np.testing.assert_allclose(dec.v1 + dec.v2, np.asarray(v), atol=1e-10)


def test_infconv_requires_infconvolution_kind():
    with pytest.raises(InputError):
        pt.inf_conv_decompose(pt.PowerNorm(2.0, dim=1), [1.0], 1e-8)


# ---------------------------------------------------------------------------
# Fenchel-Young residual
# ---------------------------------------------------------------------------


def test_fenchel_young_gradient_pair():
    P = pt.QuadraticForm(np.eye(1))
    assert pt.fenchel_young_residual(P, [2.0], [2.0]) == pytest.approx(0.0, abs=1e-12)


def test_fenchel_young_zero_force():
    P = pt.QuadraticForm(np.eye(1))
    assert pt.fenchel_young_residual(P, [2.0], [0.0]) == pytest.approx(2.0)


def test_fenchel_young_shrinkage_pair():
    P = pt.OneHomPlusQuad(1.0, 2.0, dim=1)
    assert pt.fenchel_young_residual(P, [1.0], [3.0]) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    v=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    xi=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
)
def test_fenchel_young_nonnegative_property(v, xi):
    for P in (
        pt.QuadraticForm(np.array([[2.0, 0.4], [0.4, 1.0]])),
        pt.PowerNorm(3.0, [0.5, 2.0]),
        pt.OneHomPlusQuad(1.0, 0.5, dim=2),
    ):
        assert pt.fenchel_young_residual(P, v, xi) >= -1e-12


# ---------------------------------------------------------------------------
# Quantitative Young probe
# ---------------------------------------------------------------------------


def test_qye_quadratic_identity_am_gm():
    P = pt.QuadraticForm(np.eye(2))
    rng = np.random.default_rng(7)
    samples = [
        (rng.standard_normal(2) * 3, rng.standard_normal(2) * 3) for _ in range(500)
    ]
    # include a pair with ||v|| = ||xi|| so the AM-GM bound is tight
    samples.append((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    fit = pt.qye_probe(P, samples)
    assert fit.c_est >= 1.0 - 1e-6
    assert fit.C_est == pytest.approx(0.0, abs=1e-12)
    # c = 1 is attained on the added tight pair
    assert fit.c_est == pytest.approx(1.0, abs=1e-6)


def test_qye_worst_pair_minimizes_ratio():
    P = pt.QuadraticForm(np.eye(1))
    samples = [([1.0], [1.0]), ([2.0], [0.5]), ([1.0], [4.0])]
    fit = pt.qye_probe(P, samples)
    assert fit.worst_pair[0][0] == pytest.approx(1.0)
    assert fit.worst_pair[1][0] == pytest.approx(1.0)


def test_qye_c_is_the_largest_feasible_constant():
    P = pt.PowerNorm(3.0, dim=3)
    rng = np.random.default_rng(11)
    samples = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(300)]
    fit = pt.qye_probe(P, samples)
    s = [P(v) + P.conjugate(xi) for v, xi in samples]
    g = [pt.weighted_norm(v) * pt.weighted_dual_norm(xi) for v, xi in samples]

    def feasible(c):
        # R(v) + R*(xi) + C >= c ||v|| ||xi||_* on every pair, up to rounding
        return all(
            si + fit.C_est - c * gi >= -1e-14 * (1.0 + abs(si)) for si, gi in zip(s, g)
        )

    assert fit.c_est > 0.0
    assert feasible(fit.c_est * (1.0 - 1e-13))
    assert not feasible(fit.c_est * (1.0 + 1e-12))


def test_qye_all_zero_samples_rejected():
    P = pt.QuadraticForm(np.eye(1))
    with pytest.raises(InputError):
        pt.qye_probe(P, [([0.0], [0.0])])


# ---------------------------------------------------------------------------
# superlinear minorant
# ---------------------------------------------------------------------------


def test_psi_envelope_arithmetic():
    P = pt.QuadraticForm(np.eye(1))
    psi = pt.psi_minorant([P], [0.0, 1.0, 2.0], sample_radius=4.0, n_radii=4001)
    # exact S_K = K^2/2 -> Psi(2) = max(0, 2 - 0.5, 4 - 2) = 2
    np.testing.assert_allclose(psi.S_values, [0.0, 0.5, 2.0], atol=1e-5)
    assert psi(2.0) == pytest.approx(2.0, abs=1e-4)


def test_psi_zero_at_origin():
    P = pt.PowerNorm(3.0, dim=2)
    psi = pt.psi_minorant([P], [0.0, 0.5, 1.0, 2.0], sample_radius=5.0)
    assert psi(0.0) == pytest.approx(0.0, abs=1e-12)


def test_psi_below_both_powers():
    pots = [pt.PowerNorm(2.0, dim=1), pt.PowerNorm(3.0, dim=1)]
    K_grid = np.linspace(0.0, 8.0, 33)
    psi = pt.psi_minorant(pots, K_grid, sample_radius=10.0, n_radii=2001)
    # oracle: dense evaluation of both potentials over the sample ball
    for r in np.linspace(0.0, 10.0, 401):
        bound = min(r**2 / 2.0, r**3 / 3.0)
        assert psi(r) <= bound + 1e-8


def test_psi_convex_nondecreasing():
    pots = [pt.OneHomPlusQuad(1.0, 1.0, dim=1)]
    psi = pt.psi_minorant(pots, np.linspace(0, 4, 9), sample_radius=6.0)
    rs = np.linspace(0.0, 6.0, 301)
    vals = psi(rs)
    assert np.all(np.diff(vals) >= -1e-12)
    secants = np.diff(vals) / np.diff(rs)
    assert np.all(np.diff(secants) >= -1e-10)


def test_psi_empty_grid_rejected():
    with pytest.raises(InputError):
        pt.psi_minorant([pt.PowerNorm(2.0, dim=1)], [], 1.0)


def test_infconv_sandwich_bounds():
    # 2 Psi(||v||/(2 C_N)) <= R_eff(v) <= R1(v) with C_N = 1 (same norms)
    R1 = pt.PowerNorm(2.0, dim=2)
    R2 = pt.QuadraticForm(np.diag([2.0, 3.0]))
    P = pt.InfConvolution(R1, R2)
    psi = pt.psi_minorant([R1, R2], np.linspace(0, 6, 25), sample_radius=12.0)
    rng = np.random.default_rng(13)
    for _ in range(40):
        v = rng.standard_normal(2) * 2.0
        r_eff = P(v)
        assert r_eff <= R1(v) + 1e-10
        assert 2.0 * psi(0.5 * np.linalg.norm(v)) <= r_eff + 1e-8
