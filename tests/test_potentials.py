import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import potentials as pt
from splitflow.errors import ConfigurationError, InputError, NumericalError
from splitflow.newton import newton_step


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
        pt.PowerNorm(2.0, dim=2).rescaled(),
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


_SPD2 = [[2.0, 0.5], [0.5, 1.5]]
# every kind, with whether its rescaling has the bits of the arithmetic of
# R~(v) = 2 R(v/2) (a non-integer p rounds 2^(1-p) w |v|^p otherwise)
RESCALED_KINDS = [
    (pt.QuadraticForm(_SPD2), True),
    (pt.PowerNorm(2.0, [0.5, 1.5]), True),
    (pt.PowerNorm(3.0, [0.5, 1.5]), True),
    (pt.PowerNorm(1.5, [0.5, 1.5]), False),
    (pt.PowerNorm(2.5, [0.5, 1.5]), False),
    (pt.AnisotropicDualQuadratic([1.0, 3.0]), True),
    (pt.OneHomPlusQuad(1.0, 2.0, dim=1), True),
    (pt.OneHomPlusQuad(0.4, 1.5, [0.5, 2.0]), True),
    (pt.BlockIndicator(pt.PowerNorm(3.0, [0.5, 1.5]), [0, 2], 3), True),
    (pt.BlockIndicator(pt.OneHomPlusQuad(0.4, 1.5, [2.0]), [1], 2), True),
    (pt.InfConvolution(pt.QuadraticForm(_SPD2), pt.AnisotropicDualQuadratic([1.0, 3.0])),
     True),
    (pt.InfConvolution(pt.PowerNorm(3.0, [0.5, 1.5]), pt.AnisotropicDualQuadratic([1.0, 3.0])),
     True),
]


def _smooth_parts(P, v):
    """P's gradient and Hessian at v, or None for a kind without them."""
    try:
        return P.grad(v), P.hess(v)
    except NotImplementedError:
        return None


@pytest.mark.parametrize("base,exact", RESCALED_KINDS,
                         ids=[type(P).__name__ for P, _ in RESCALED_KINDS])
def test_conjugate_rescaled_doubles(base, exact):
    # R.rescaled() against the arithmetic of R~(v) = 2 R(v/2): R~* = 2 R*,
    # R~*' = 2 R*', R~'(v) = R'(v/2), R~''(v) = R''(v/2)/2 below the clamp
    def same(a, b):
        if a is None or b is None:
            assert a is None and b is None
        elif exact:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)

    P = base.rescaled()
    assert type(P) is type(base) and P.dim == base.dim
    rng = np.random.default_rng(5)
    V, Xi = rng.uniform(-3.0, 3.0, (2, 8, P.dim))
    V[:4, getattr(base, "frozen", [])] = 0.0  # a block indicator's rows at rest
    same(P(V), 2.0 * base(0.5 * V))
    same(P.conjugate(Xi), 2.0 * base.conjugate(Xi))
    same(P.rescaled()(V), 4.0 * base(0.25 * V))
    for v, xi in zip(V, Xi):
        same(P(v), 2.0 * base(0.5 * v))
        same(P.dual_rate(xi), 2.0 * base.dual_rate(xi))
        smooth = _smooth_parts(base, 0.5 * v)
        if smooth is not None:
            same(P.grad(v), smooth[0])
            same(P.hess(v), 0.5 * smooth[1])
    V = base.quadratic_matrix()
    same(P.quadratic_matrix(), None if V is None else 0.5 * V)
    parts = base.shrinkage_parts()
    same(P.shrinkage_parts(), None if parts is None else (parts[0], 0.5 * parts[1]))
    if P.dim == 1:  # direct sup check of the rescaled primal
        assert P.conjugate([3.0]) == pytest.approx(grid_search_conjugate(P, 3.0), abs=1e-7)


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
        pt.AnisotropicDualQuadratic([1.0, 3.0]).rescaled(),
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


def _quadratic_member(kind, dim, rng):
    weights = rng.uniform(0.5, 2.0, dim)
    if kind == "form":
        B = rng.uniform(-0.2, 0.2, (dim, dim))
        return pt.QuadraticForm(np.diag(weights) + 0.5 * (B + B.T) / dim)
    if kind == "power":
        return pt.PowerNorm(2.0, weights)
    if kind == "dual":
        return pt.AnisotropicDualQuadratic(weights)
    return pt.AnisotropicDualQuadratic(weights).rescaled()


_QUADRATIC_KINDS = ["form", "power", "dual", "rescaled"]


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(_QUADRATIC_KINDS), st.sampled_from(_QUADRATIC_KINDS)),
    dim=st.integers(1, 6),
    rows=st.integers(1, 5),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadratic_pair_value_of_one_vector_matches_its_split(kinds, dim, rows, scale,
                                                              seed):
    rng = np.random.default_rng(seed)
    P = pt.InfConvolution(*(_quadratic_member(k, dim, rng) for k in kinds))
    V = scale * rng.standard_normal((rows, dim))
    batch = P(V)
    for v, batch_value in zip(V, batch):
        value = P(v)
        v1, v2 = pt._closed_form_split(P, v)
        tol = 1e-14 * (1.0 + abs(value))
        assert abs(value - (P.left(v1) + P.right(v2))) <= tol
        assert abs(value - batch_value) <= tol
        assert value == pytest.approx(0.5 * v @ P.grad(v), rel=1e-14)


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


def _allen_cahn_pair(p=3.0, m=16):
    K = (m + 1.0) * (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    return pt.InfConvolution(pt.PowerNorm(p, np.full(m, 1.0 / (m + 1))), pt.QuadraticForm(K))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10, -math.inf])
def test_a_tolerance_that_is_not_positive_and_finite_is_an_input_error(tol):
    # at the parent, inf returned the start split v/2 with gaps near 2e3, and
    # nan ran 200 iterations and then raised "stagnated"
    P, v = _allen_cahn_pair(), np.random.default_rng(2).standard_normal((4, 16))
    with pytest.raises(InputError) as info:
        pt.inf_conv_decompose(P, v, tol)
    assert str(info.value) == f"tolerance must be a positive finite number, not {tol}"


def _nested_pair():
    inner = pt.InfConvolution(pt.PowerNorm(1.5, [1.0, 1.0]), pt.PowerNorm(1.5, [2.0, 1.0]))
    return pt.InfConvolution(inner, pt.QuadraticForm(np.eye(2)))


def test_a_smooth_pair_with_a_member_without_hessian_parts_is_an_input_error():
    with pytest.raises(InputError) as info:
        pt.inf_conv_decompose(_nested_pair(), np.array([[1.0, 0.5], [0.2, -0.3]]))
    assert str(info.value) == ("no Newton decomposition for InfConvolution # QuadraticForm: "
                               "only a quadratic inf-convolution has Hessian parts")


def test_rows_that_start_within_tolerance_need_no_hessian_parts(monkeypatch):
    def unread(*args):
        raise AssertionError("the Hessian parts were read")

    monkeypatch.setattr(pt, "_newton_parts", unread)
    dec = pt.inf_conv_decompose(_nested_pair(), np.zeros((3, 2)))
    np.testing.assert_array_equal(dec.gap, np.zeros(3))
    np.testing.assert_array_equal(dec.v1, np.zeros((3, 2)))


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


# ---------------------------------------------------------------------------
# batches of rows
# ---------------------------------------------------------------------------

_W3 = np.array([0.5, 1.0, 2.0])
_SPD3 = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]])

# kinds whose rows go through the arithmetic of a single call: bitwise equal
ELEMENTWISE_KINDS = [
    pt.PowerNorm(3.0, _W3),
    pt.PowerNorm(1.5, _W3),
    pt.AnisotropicDualQuadratic(_W3),
    pt.OneHomPlusQuad(0.4, 1.5, _W3),
    pt.BlockIndicator(pt.PowerNorm(3.0, dim=2), [0, 2], 3),
    pytest.param(pt.OneHomPlusQuad(0.4, 1.5, _W3).rescaled(), id="Rescaled-OneHomPlusQuad"),
    pt.InfConvolution(
        pt.BlockIndicator(pt.PowerNorm(3.0, dim=2), [0, 2], 3),
        pt.BlockIndicator(pt.OneHomPlusQuad(0.4, 1.5, dim=1), [1], 3),
    ),
    # no closed form: every row is decomposed on its own
    pt.InfConvolution(pt.PowerNorm(3.0, _W3), pt.AnisotropicDualQuadratic(_W3)),
    pt.InfConvolution(pt.OneHomPlusQuad(0.4, 1.5, _W3), pt.PowerNorm(2.0, _W3)),
]
# kinds with a matrix product: equal to rounding
MATRIX_KINDS = [
    pt.QuadraticForm(_SPD3),
    pt.BlockIndicator(pt.QuadraticForm(_SPD3[:2, :2]), [0, 1], 3),
    pytest.param(pt.QuadraticForm(_SPD3).rescaled(), id="Rescaled-QuadraticForm"),
    pt.InfConvolution(pt.QuadraticForm(_SPD3), pt.PowerNorm(2.0, _W3)),
    pt.InfConvolution(
        pt.BlockIndicator(pt.QuadraticForm(_SPD3[:2, :2]), [0, 1], 3),
        pt.BlockIndicator(pt.PowerNorm(3.0, dim=1), [2], 3),
    ),
]

rows_3 = st.lists(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3), min_size=1, max_size=5
)


def _assert_rows_match(P, rows, exact):
    rows = np.array(rows)
    for method in (P.__call__, P.conjugate):
        batch = method(rows)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(rows),)
        for row, value in zip(rows, batch):
            single = method(row)
            assert type(single) is float
            if exact:
                assert value == single or (math.isnan(value) and math.isnan(single))
            else:
                # the absolute floor only admits subnormal results
                assert math.isclose(value, single, rel_tol=1e-13, abs_tol=1e-300)


@pytest.mark.parametrize("P", ELEMENTWISE_KINDS, ids=lambda P: type(P).__name__)
@settings(max_examples=25, deadline=None)
@given(rows=rows_3)
def test_batch_rows_equal_single_calls_bitwise(P, rows):
    _assert_rows_match(P, rows, exact=True)


@pytest.mark.parametrize("P", MATRIX_KINDS, ids=lambda P: type(P).__name__)
@settings(max_examples=25, deadline=None)
@given(rows=rows_3)
def test_batch_rows_equal_single_calls_to_rounding(P, rows):
    _assert_rows_match(P, rows, exact=False)


@settings(max_examples=25, deadline=None)
@given(rows=rows_3, moves=st.lists(st.booleans(), min_size=5, max_size=5))
def test_batch_block_indicator_rows_moving_the_frozen_block_are_infinite(rows, moves):
    P = pt.BlockIndicator(pt.PowerNorm(3.0, dim=2), [0, 2], 3)
    rows = np.array(rows)
    rows[:, 1] = np.where(moves[: len(rows)], 1.0, 0.0)
    batch = P(rows)
    assert list(np.isinf(batch)) == moves[: len(rows)]
    assert list(batch) == [P(row) for row in rows]


def test_batch_row_length_is_checked():
    with pytest.raises(InputError):
        pt.PowerNorm(2.0, dim=3)(np.ones((4, 2)))


# every smooth kind, with whether its gradient is elementwise (rows bitwise
# equal to single calls) or a matrix product (equal to rounding)
_SMOOTH = [
    (pt.QuadraticForm(_SPD3), False),
    (pt.PowerNorm(3.0, _W3), True),
    (pt.PowerNorm(1.5, _W3), True),
    (pt.AnisotropicDualQuadratic(_W3), True),
    (pt.InfConvolution(pt.QuadraticForm(_SPD3), pt.PowerNorm(2.0, _W3)), False),
]
SMOOTH_KINDS = _SMOOTH + [(P.rescaled(), elementwise) for P, elementwise in _SMOOTH]
SMOOTH_IDS = [prefix + type(P).__name__ for prefix in ("", "Rescaled-") for P, _ in _SMOOTH]


@pytest.mark.parametrize("P,elementwise", SMOOTH_KINDS, ids=SMOOTH_IDS)
@settings(max_examples=25, deadline=None)
@given(rows=rows_3)
def test_batched_grad_and_hess_rows_equal_single_calls(P, elementwise, rows):
    rows = np.array(rows)
    grads, hessians = P.grad(rows), P.hess(rows)
    assert grads.shape == rows.shape and hessians.shape == (len(rows), 3, 3)
    for row, g, H in zip(rows, grads, hessians):
        assert H.tobytes() == P.hess(row).tobytes()
        if elementwise:
            assert g.tobytes() == P.grad(row).tobytes()
        else:
            np.testing.assert_allclose(g, P.grad(row), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("P,elementwise", SMOOTH_KINDS, ids=SMOOTH_IDS)
def test_grad_and_hess_reject_wrong_lengths(P, elementwise):
    for bad in (np.ones(2), np.ones(4), [1.0] * 4, np.ones((2, 4)), np.ones((2, 2))):
        for method in (P.grad, P.hess):
            with pytest.raises(InputError):
                method(bad)


def test_smooth_pair_has_an_envelope_gradient_but_no_hessian():
    pair = pt.InfConvolution(pt.PowerNorm(3.0, _W3), pt.QuadraticForm(_SPD3))
    v = np.array([0.4, -1.0, 0.7])
    dec = pt.inf_conv_decompose(pair, v, tol=1e-12)
    np.testing.assert_array_equal(pair.grad(v), pair.right.grad(dec.v2))
    with pytest.raises(NotImplementedError):
        pair.hess(v)


# ---------------------------------------------------------------------------
# batched decomposition
# ---------------------------------------------------------------------------


def _random_spd(rng, dim):
    B = rng.standard_normal((dim, dim))
    return B @ B.T + dim * np.eye(dim)


def _smooth_partner(kind, rng, dim):
    if kind == "quadratic":
        return pt.QuadraticForm(_random_spd(rng, dim))
    if kind == "dual-quadratic":
        return pt.AnisotropicDualQuadratic(rng.uniform(0.3, 3.0, dim))
    return pt.QuadraticForm(_random_spd(rng, dim)).rescaled()


@settings(max_examples=20, deadline=None)
@given(
    p=st.floats(1.5, 4.0),
    kind=st.sampled_from(["quadratic", "dual-quadratic", "rescaled"]),
    power_left=st.booleans(),
    dim=st.integers(1, 4),
    n=st.integers(1, 140),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_decomposition_rows_match_single_decompositions(
    p, kind, power_left, dim, n, seed
):
    rng = np.random.default_rng(seed)
    power = pt.PowerNorm(p, rng.uniform(0.2, 2.0, dim))
    partner = _smooth_partner(kind, rng, dim)
    P = pt.InfConvolution(*((power, partner) if power_left else (partner, power)))
    rows = rng.standard_normal((n, dim)) * rng.uniform(0.1, 3.0)
    try:
        batch = pt.inf_conv_decompose(P, rows, 1e-10)
    except NumericalError as err:
        _assert_batch_fails_like_its_rows(P, rows, err)
        return
    assert batch.v1.shape == batch.v2.shape == rows.shape
    assert batch.value.shape == batch.gap.shape == (n,)
    assert np.all(batch.gap <= 1e-10)
    # the first and last rows and both sides of every block boundary
    checked = {0, n - 1} | {i for b in range(64, n, 64) for i in (b - 1, b)}
    for i in sorted(checked):
        single = pt.inf_conv_decompose(P, rows[i], 1e-10)
        scale = 1.0 + np.linalg.norm(rows[i])
        np.testing.assert_allclose(batch.v1[i], single.v1, rtol=1e-13, atol=1e-13 * scale)
        np.testing.assert_allclose(batch.v2[i], single.v2, rtol=1e-13, atol=1e-13 * scale)
        assert math.isclose(batch.value[i], single.value, rel_tol=1e-13, abs_tol=1e-300)
    np.testing.assert_array_equal(P(rows), batch.value)


def _assert_batch_fails_like_its_rows(P, rows, err):
    """A batch fails exactly when a row fails on its own, and it reports the
    certificate of the worst failing row of the first block that fails.

    (Newton does fail on some rows for p < 2, where it can oscillate across
    the kink of |v|^p at zero, in the single decomposition as well.)
    """
    errors = {}
    for i, row in enumerate(rows):
        try:
            pt.inf_conv_decompose(P, row, 1e-10)
        except NumericalError as e:
            errors[i] = e
    assert errors
    block = min(errors) // 64
    in_block = [e for i, e in errors.items() if i // 64 == block]
    worst = max(in_block, key=lambda e: e.gap)
    assert math.isclose(err.gap, worst.gap, rel_tol=1e-9)
    np.testing.assert_allclose(err.best, worst.best, rtol=1e-9, atol=1e-12)


def test_batch_decomposition_of_closed_forms_has_zero_gaps():
    P = pt.InfConvolution(pt.QuadraticForm(_SPD3), pt.PowerNorm(2.0, _W3))
    dec = pt.inf_conv_decompose(P, np.ones((3, 3)), 1e-10)
    assert dec.value.shape == (3,)
    np.testing.assert_array_equal(dec.gap, np.zeros(3))


def test_decomposition_of_an_empty_batch_is_empty():
    P = pt.InfConvolution(pt.PowerNorm(3.0, _W3), pt.QuadraticForm(_SPD3))
    dec = pt.inf_conv_decompose(P, np.empty((0, 3)), 1e-10)
    assert dec.v1.shape == (0, 3) and dec.value.shape == (0,)


def test_nonconvergent_newton_row_raises_with_the_worst_rows_certificate():
    R1, R2 = pt.PowerNorm(3.0, _W3), pt.QuadraticForm(_SPD3)
    rows = np.array([[0.0, 0.0, 0.0], [0.5, -0.2, 0.1], [2.0, 1.0, -3.0]])
    # one iteration: the zero row converges at its first check, the others do not
    with pytest.raises(NumericalError) as info:
        pt._decompose_newton(R1, R2, rows, 1e-10, max_iter=1)
    err = info.value
    start = 0.5 * rows
    xi = R2.grad(start)
    gaps = R1(start) + R2(start) - (np.sum(xi * rows, axis=1) - R1.conjugate(xi)
                                    - R2.conjugate(xi))
    assert gaps[0] == 0.0 and gaps[2] == max(gaps)
    assert err.gap == gaps[2] and err.iterations == 1
    # the best iterate is the worst row's split after one damped Newton step
    assert err.best.shape == (3,)
    assert R1(err.best) + R2(rows[2] - err.best) < R1(start[2]) + R2(start[2])


def test_nan_row_never_counts_as_converged():
    R1, R2 = pt.PowerNorm(3.0, _W3), pt.AnisotropicDualQuadratic(_W3)
    rows = np.array([[1.0, 0.5, -0.5], [math.nan, 0.0, 0.0]])
    with pytest.raises(NumericalError) as info:
        pt._decompose_newton(R1, R2, rows, 1e-10, max_iter=20)
    assert math.isnan(info.value.gap) and info.value.best.shape == (3,)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("v", [0.001, -0.0042])
def test_newton_decomposition_with_a_member_below_p_two_converges(v, swapped):
    # a Newton step on |x|^1.5 jumps from x to -x; with the default Armijo
    # constant these rows stagnated at gaps 2.6e-4 and 6.8e-5
    quadratic, power = pt.AnisotropicDualQuadratic([1.7]), pt.PowerNorm(1.5, [1.9])
    pair = pt.InfConvolution(power, quadratic) if swapped else pt.InfConvolution(quadratic, power)
    dec = pt.inf_conv_decompose(pair, [v])
    assert dec.gap <= 1e-10
    assert dec.v1[0] + dec.v2[0] == pytest.approx(v, abs=1e-18)
    # the best split on a grid of the power member's share, which is below 2e-6
    z = np.linspace(-2e-5, 2e-5, 400001)[:, None]
    best = float(np.min(quadratic(v - z) + power(z)))
    assert dec.value == pytest.approx(best, abs=1e-10)


def test_newton_decomposition_with_two_members_below_p_two_converges():
    # the primal converges as v2 -> 0, but the dual point R2'(v2) = 2.83 |v2|^0.15
    # does not: measured there, the gap stalled at 1.3e-4 after 200 iterations
    pair = pt.InfConvolution(pt.PowerNorm(1.81, [1.44]), pt.PowerNorm(1.15, [2.83]))
    dec = pt.inf_conv_decompose(pair, [-4.9e-5])
    assert dec.gap <= 1e-10
    assert dec.v1[0] + dec.v2[0] == pytest.approx(-4.9e-5, abs=1e-18)
    xi = pair.left.grad(dec.v1)
    dual = float(xi @ [-4.9e-5]) - pair.conjugate(xi)
    assert dual <= dec.value <= dual + 1e-10


def _scan_member(data, dim, below_two):
    kind = "power" if below_two else data.draw(
        st.sampled_from(["power", "dual-quadratic", "quadratic"]))
    w = np.array(data.draw(st.lists(st.floats(0.2, 3.0), min_size=dim, max_size=dim)))
    if kind == "power":
        return pt.PowerNorm(data.draw(st.floats(1.1, 1.99) if below_two else st.floats(1.1, 4.0)), w)
    if kind == "dual-quadratic":
        return pt.AnisotropicDualQuadratic(w)
    B = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim**2, max_size=dim**2)))
    B = B.reshape(dim, dim)
    return pt.QuadraticForm(B @ B.T + dim * np.eye(dim))


@settings(max_examples=400, deadline=None)
@given(dim=st.integers(1, 3), swapped=st.booleans(), exponent=st.floats(-6.0, 1.0),
       data=st.data())
def test_newton_decomposition_with_a_member_below_p_two_converges_on_random_pairs(
        dim, swapped, exponent, data):
    below, other = _scan_member(data, dim, True), _scan_member(data, dim, False)
    pair = pt.InfConvolution(other, below) if swapped else pt.InfConvolution(below, other)
    d = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    if not np.linalg.norm(d) > 0.0:
        d = np.ones(dim)
    v = d / np.linalg.norm(d) * 10.0**exponent
    dec = pt.inf_conv_decompose(pair, v, 1e-10)
    assert dec.gap <= 1e-10
    # within the tolerance of giving the whole rate to either member
    assert dec.value <= min(pair.left(v), pair.right(v)) + 1e-10


_SEPARABLE_REPROS = [
    # both stagnated in Newton ("inf-convolution newton stagnated", gaps 7.3e-9
    # and 1.3e-8): p near 1.1 on both members, the first with subnormal entries
    (pt.PowerNorm(1.109375, [2.0, 2.0, 0.25]), pt.PowerNorm(1.109375, [0.25, 1.0, 2.0]),
     np.array([6.48e-297, 1.0, 6.48e-297]) / np.linalg.norm([6.48e-297, 1.0, 6.48e-297])),
    (pt.PowerNorm(1.109375, [1.0, 3.0, 0.25]), pt.PowerNorm(1.1015625, [1.0, 0.25, 2.0]),
     1e-6 * np.ones(3) / math.sqrt(3.0)),
]


@pytest.mark.parametrize("R1, R2, v", _SEPARABLE_REPROS)
def test_separable_pairs_near_p_one_split_at_their_dual_root(R1, R2, v, monkeypatch):
    monkeypatch.setattr(pt, "_decompose_newton", None)  # the dual root decides
    pair = pt.InfConvolution(R1, R2)
    dec = pt.inf_conv_decompose(pair, v, 1e-10)
    assert dec.gap <= 1e-10
    np.testing.assert_array_equal(dec.v2, v - dec.v1)
    assert dec.value <= min(R1(v), R2(v)) + 1e-10
    # the duality gap certifies the value from below at the dual point of R1
    xi = R1.grad(dec.v1)
    assert float(xi @ v) - pair.conjugate(xi) <= dec.value


def _separable_member(rng, dim, kind):
    w = rng.uniform(0.2, 3.0, dim)
    if kind == 0:
        member = pt.PowerNorm(rng.uniform(1.1, 4.0), w)
    elif kind == 1:
        member = pt.PowerNorm(rng.uniform(1.1, 1.99), w)
    elif kind == 2:
        member = pt.AnisotropicDualQuadratic(w)
    else:
        member = pt.QuadraticForm(np.diag(w))
    return member.rescaled() if rng.random() < 0.3 else member


@pytest.mark.parametrize("seed", range(12))
def test_the_dual_root_agrees_with_newton_to_the_gap_tolerance(seed, monkeypatch):
    rng = np.random.default_rng([seed, 21])
    dim = int(rng.choice([1, 2, 3, 5]))
    # a power member, so that the pair has no closed form
    R1, R2 = _separable_member(rng, dim, seed % 2), _separable_member(rng, dim, seed % 4)
    pair = pt.InfConvolution(R1, R2) if seed % 3 else pt.InfConvolution(R2, R1)
    rows = rng.standard_normal((int(rng.integers(1, 120)), dim)) * 10.0 ** rng.uniform(-4, 1)
    sent = []
    monkeypatch.setattr(pt, "_decompose_newton", lambda *args: sent.append(args))
    dec = pt.inf_conv_decompose(pair, rows, 1e-10)
    monkeypatch.undo()
    assert not sent  # separable members never reach Newton
    assert np.all(dec.gap <= 1e-10)
    try:
        v1, v2, gap = pt._decompose_newton(pair.left, pair.right, rows, 1e-10)
    except NumericalError:
        return  # Newton stagnates on some pairs below p = 2; the root does not
    # each value lies above the optimum by at most its own gap, up to rounding
    newton_value = pair.left(v1) + pair.right(v2)
    rounding = 1e-13 * (1.0 + np.abs(newton_value))
    assert np.all(dec.value <= newton_value + dec.gap + rounding)
    assert np.all(newton_value <= dec.value + gap + rounding)
    for i, row in enumerate(rows):  # a row splits alone as in its batch
        single = pt.inf_conv_decompose(pair, row, 1e-10)
        assert single.v1.tobytes() == dec.v1[i].tobytes()


def test_only_separable_smooth_members_take_the_dual_root():
    dense = pt.QuadraticForm(_SPD3)
    assert pt._coordinate_dual_rate(dense) is None
    assert pt._coordinate_dual_rate(dense.rescaled()) is None
    assert pt._coordinate_dual_rate(pt.OneHomPlusQuad(0.5, 1.0, _W3)) is None
    assert pt._coordinate_dual_rate(pt.InfConvolution(pt.PowerNorm(3.0, _W3), dense)) is None
    xi = np.array([[0.3, -1.2, 2.0], [-0.0, 4.0, -0.5]])
    for member in (pt.PowerNorm(1.5, _W3), pt.AnisotropicDualQuadratic(_W3),
                   pt.QuadraticForm(np.diag(_W3)), pt.PowerNorm(3.0, _W3).rescaled()):
        rates = pt._coordinate_dual_rate(member)(xi)
        for i, row in enumerate(xi):
            np.testing.assert_allclose(rates[i], member.dual_rate(row), rtol=1e-15)


def test_a_nan_row_misses_the_dual_roots_gap():
    pair = pt.InfConvolution(pt.PowerNorm(1.5, [1.0, 2.0]), pt.AnisotropicDualQuadratic([1.7, 0.4]))
    with pytest.raises(NumericalError, match="dual root") as info:
        pt.inf_conv_decompose(pair, np.array([[1.0, 0.5], [math.nan, 0.0]]), 1e-10)
    assert math.isnan(info.value.gap) and info.value.best.shape == (2,)


def test_newton_step_of_a_singular_row_is_the_gradient_step():
    H = np.stack([np.diag([2.0, 4.0]), np.zeros((2, 2))])
    g = np.array([[2.0, 4.0], [1.0, -1.0]])
    np.testing.assert_array_equal(newton_step(H, g), [[-1.0, -1.0], [-1.0, 1.0]])


def test_qye_probe_decomposes_the_whole_sample_in_one_call(monkeypatch):
    from splitflow.models import make_model
    from splitflow.solvers import effective_potential

    preset = make_model("allen-cahn-1d", p=3.0)
    r_eff = effective_potential(preset.system)
    rng = np.random.default_rng(2)
    samples = [(rng.standard_normal(r_eff.dim), rng.standard_normal(r_eff.dim))
               for _ in range(80)]
    calls = []
    decompose = pt.inf_conv_decompose

    def counted(P, v, tol=1e-10):
        calls.append(np.shape(v))
        return decompose(P, v, tol)

    monkeypatch.setattr(pt, "inf_conv_decompose", counted)
    fit = pt.qye_probe(r_eff, samples, weights=preset.norm_weights)
    assert calls == [(80, r_eff.dim)]
    # the same fit from one evaluation per sample
    monkeypatch.setattr(pt, "inf_conv_decompose", decompose)
    w = preset.norm_weights
    ratios = [
        (r_eff(v) + r_eff.conjugate(xi)) / (np.linalg.norm(w * v) * np.linalg.norm(xi / w))
        for v, xi in samples
    ]
    assert fit.c_est == pytest.approx(min(ratios), rel=1e-12)
    worst = int(np.argmin(ratios))
    np.testing.assert_array_equal(fit.worst_pair[0], samples[worst][0])


def _psi_reference(potentials, K, radii, seed, n_directions):
    """The per-radius loop: two scalar calls for each radius and direction."""
    rng = np.random.default_rng(seed)
    S = np.zeros_like(K)
    for P in potentials:
        dirs = rng.standard_normal((n_directions, P.dim))
        for d in np.vstack([dirs, np.eye(P.dim), -np.eye(P.dim)]):
            nd, dd = pt.weighted_norm(d), pt.weighted_dual_norm(d)
            for r in radii:
                for value in (P((r / nd) * d), P.conjugate((r / dd) * d)):
                    if math.isfinite(value):
                        S = np.maximum(S, K * r - value)
    return np.maximum(S, 0.0)


@pytest.mark.parametrize(
    "potentials,exact",
    [
        ([pt.PowerNorm(2.0, dim=1), pt.PowerNorm(3.0, dim=1)], True),
        ([pt.OneHomPlusQuad(0.4, 1.5, _W3), pt.AnisotropicDualQuadratic(_W3)], True),
        ([pt.BlockIndicator(pt.PowerNorm(3.0, dim=2), [0, 2], 3)], True),
        ([pt.QuadraticForm(_SPD3), pt.QuadraticForm(_SPD3).rescaled()], False),
    ],
)
def test_psi_minorant_matches_the_per_radius_loop(potentials, exact):
    K = np.linspace(0.0, 4.0, 9)
    psi = pt.psi_minorant(potentials, K, sample_radius=3.0, n_radii=64, n_directions=4)
    reference = _psi_reference(potentials, K, np.linspace(0.0, 3.0, 64), 0, 4)
    if exact:
        np.testing.assert_array_equal(psi.S_values, reference)
    else:
        np.testing.assert_allclose(psi.S_values, reference, rtol=1e-13, atol=0.0)
