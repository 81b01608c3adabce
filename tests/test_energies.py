import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import energies as en
from splitflow.errors import ConfigurationError, InputError


def quad_block_identity():
    return en.QuadraticBlockEnergy(A=np.eye(1), B=np.zeros((1, 1)), G=np.eye(1))


def allen_cahn_3():
    return en.AllenCahn1DEnergy(m=3)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_maxnorm_eval():
    E = en.MaxNormEnergy()
    assert E.eval(0.0, [2.0, 1.0]) == pytest.approx(2.0)


def test_quadratic_block_eval():
    E = quad_block_identity()
    assert E.eval(0.0, [1.0, 1.0]) == pytest.approx(1.0)


def test_allen_cahn_eval_zero_state():
    # oracle: direct summation over the 3 interior nodes, zero gradient term
    E = allen_cahn_3()
    direct = sum(E.h * E.well(0.0) for _ in range(3))
    assert direct == pytest.approx(0.1875)
    assert E.eval(0.0, np.zeros(3)) == pytest.approx(0.1875)


def test_allen_cahn_eval_matches_direct_sum():
    E = en.AllenCahn1DEnergy(m=5, load=en.Load.constant(np.full(5, 0.3)))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(5)
    ext = np.concatenate([[0.0], u, [0.0]])
    h = E.h
    direct = sum(0.5 * h * ((ext[i + 1] - ext[i]) / h) ** 2 for i in range(6))
    direct += sum(h * E.well(ui) for ui in u)
    direct -= h * float(np.full(5, 0.3) @ u)
    assert E.eval(0.0, u) == pytest.approx(direct, rel=1e-12)


def test_eval_dimension_mismatch():
    with pytest.raises(InputError):
        allen_cahn_3().eval(0.0, np.zeros(4))


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def test_maxnorm_power_is_zero():
    E = en.MaxNormEnergy()
    assert E.power(0.7, [3.0, -1.0]) == 0.0


def test_quadratic_block_power_linear_load():
    E = en.QuadraticBlockEnergy(
        A=np.eye(2),
        B=np.zeros((1, 2)),
        G=np.eye(1),
        f=en.Load(c0=[0.0, 0.0], c1=[1.0, 0.0]),
    )
    u = np.array([2.0, 0.0, 0.0])
    assert E.power(0.3, u) == pytest.approx(-2.0)


def test_allen_cahn_power_zero_load():
    E = allen_cahn_3()
    assert E.power(0.5, np.ones(3)) == 0.0


def test_load_requires_descriptor():
    with pytest.raises(ConfigurationError):
        en.QuadraticBlockEnergy(A=np.eye(1), f=lambda t: [t])


# ---------------------------------------------------------------------------
# subdifferential: max-norm five-case table
# ---------------------------------------------------------------------------


def test_maxnorm_subdiff_axis():
    E = en.MaxNormEnergy()
    s = E.subdiff(0.0, [2.0, 1.0])
    assert s.is_singleton
    np.testing.assert_allclose(s.a, [1.0, 0.0])
    s = E.subdiff(0.0, [-2.0, 1.0])
    np.testing.assert_allclose(s.a, [-1.0, 0.0])
    s = E.subdiff(0.0, [0.5, -1.0])
    np.testing.assert_allclose(s.a, [0.0, -1.0])


def test_maxnorm_subdiff_diagonal_segment():
    E = en.MaxNormEnergy()
    s = E.subdiff(0.0, [1.0, 1.0])
    assert s.kind == "segment"
    np.testing.assert_allclose(s.a, [1.0, 0.0])
    np.testing.assert_allclose(s.b, [0.0, 1.0])
    s = E.subdiff(0.0, [-1.0, 1.0])
    assert s.kind == "segment"
    np.testing.assert_allclose(s.a, [-1.0, 0.0])
    np.testing.assert_allclose(s.b, [0.0, 1.0])


def test_maxnorm_subdiff_origin_box():
    E = en.MaxNormEnergy()
    s = E.subdiff(0.0, [0.0, 0.0])
    assert s.kind == "box"
    np.testing.assert_allclose(s.a, [-1.0, -1.0])
    np.testing.assert_allclose(s.b, [1.0, 1.0])


def test_maxnorm_subdiff_elements_are_convex_subgradients():
    E = en.MaxNormEnergy()
    rng = np.random.default_rng(2)
    for u in ([2.0, 1.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 1.0], [0.3, -0.3]):
        s = E.subdiff(0.0, u)
        if s.kind == "box":
            # the reported box overestimates the subdifferential at 0; only
            # its cross-polytope part consists of actual subgradients
            candidates = [np.zeros(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                          np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        else:
            candidates = [s.element(th) for th in (0.0, 0.25, 0.5, 1.0)]
        for xi in candidates:
            for _ in range(20):
                w = rng.standard_normal(2) * 2
                lhs = E.eval(0.0, w) - E.eval(0.0, u)
                assert lhs >= float(xi @ (w - np.asarray(u))) - 1e-12


# ---------------------------------------------------------------------------
# block partials and cross-product identity
# ---------------------------------------------------------------------------


def test_partial_subdiff_identity_blocks():
    E = quad_block_identity()
    s = en.partial_subdiff(E, 0.0, [1.0], [2.0], "y")
    np.testing.assert_allclose(s.a, [1.0])
    s = en.partial_subdiff(E, 0.0, [1.0], [2.0], "z")
    np.testing.assert_allclose(s.a, [2.0])


def test_partial_subdiff_with_coupling():
    E = en.QuadraticBlockEnergy(A=np.eye(1), B=np.array([[1.0]]), G=np.eye(1))
    s = en.partial_subdiff(E, 0.0, [1.0], [1.0], "z")
    np.testing.assert_allclose(s.a, [2.0])


def test_cross_product_identity():
    rng = np.random.default_rng(4)
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    B = rng.standard_normal((3, 2))
    G = np.diag([1.0, 2.0, 3.0])
    E = en.QuadraticBlockEnergy(A, B, G, f=en.Load(np.zeros(2), c1=np.ones(2)))
    for _ in range(20):
        y = rng.standard_normal(2)
        z = rng.standard_normal(3)
        t = rng.uniform()
        full = E.subdiff(t, np.concatenate([y, z])).a
        py = E.partial_grad(t, y, z, "y")
        pz = E.partial_grad(t, y, z, "z")
        np.testing.assert_array_equal(full[:2], py)
        np.testing.assert_array_equal(full[2:], pz)


def test_partial_subdiff_rejects_non_block():
    with pytest.raises(InputError):
        en.partial_subdiff(en.MaxNormEnergy(), 0.0, [1.0], [1.0], "y")


# ---------------------------------------------------------------------------
# smooth gradients vs finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "E",
    [
        en.QuadraticBlockEnergy(
            A=np.array([[2.0, 0.4], [0.4, 1.5]]),
            B=np.array([[0.3, -0.2]]),
            G=np.array([[2.5]]),
            f=en.Load([0.1, -0.3], c1=[1.0, 0.0], amp=[0.2, 0.0], omega=2.0),
            g=en.Load([0.0], c1=[0.5]),
        ),
        en.AllenCahn1DEnergy(m=6, load=en.Load(np.full(6, 0.2), c1=np.full(6, 0.4))),
    ],
)
def test_gradient_matches_central_differences(E):
    rng = np.random.default_rng(8)
    step = 1e-5
    for _ in range(200):
        t = rng.uniform(0.0, 1.0)
        u = rng.standard_normal(E.dim)
        g = E.grad(t, u)
        for j in range(E.dim):
            e = np.zeros(E.dim)
            e[j] = step
            fd = (E.eval(t, u + e) - E.eval(t, u - e)) / (2 * step)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-7)


def test_power_matches_time_differences():
    E = en.QuadraticBlockEnergy(
        A=np.eye(1), G=np.eye(1), B=np.zeros((1, 1)),
        f=en.Load([0.3], c1=[0.7], amp=[0.1], omega=3.0),
        g=en.Load([0.0], c1=[-0.2]),
    )
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = rng.uniform(0.1, 0.9)
        u = rng.standard_normal(2)
        fd = (E.eval(t + 1e-6, u) - E.eval(t - 1e-6, u)) / 2e-6
        assert fd == pytest.approx(E.power(t, u), rel=1e-6, abs=1e-7)


# ---------------------------------------------------------------------------
# power control and lambda-convexity
# ---------------------------------------------------------------------------


def test_power_control_with_shift():
    E = en.QuadraticBlockEnergy(
        A=np.eye(2), B=np.zeros((0, 2)), G=np.zeros((0, 0)),
        f=en.Load([0.0, 0.0], c1=[0.5, 0.5]),
        shift=5.0,
    )
    c_sharp = E.power_control_constant()
    rng = np.random.default_rng(10)
    for _ in range(100):
        u = rng.standard_normal(2)
        t = rng.uniform()
        e_val = E.eval(t, u)
        if e_val > 0:
            assert abs(E.power(t, u)) <= c_sharp * e_val + 1e-9 * (1 + abs(e_val)) * (
                1 + float(np.linalg.norm(u))
            )


def test_lambda_convexity_secant_allen_cahn():
    E = en.AllenCahn1DEnergy(m=4)
    lam = E.lambda_convexity
    assert lam == pytest.approx(-1.0)  # quartic well: W'' >= -scale*pos^2 = -1
    rng = np.random.default_rng(12)
    w = np.sqrt(E.h)
    for _ in range(300):
        u0 = rng.standard_normal(4) * 2
        u1 = rng.standard_normal(4) * 2
        th = rng.uniform()
        mix = (1 - th) * u0 + th * u1
        lhs = E.eval(0.0, mix)
        rhs = (1 - th) * E.eval(0.0, u0) + th * E.eval(0.0, u1)
        gap = 0.5 * lam * th * (1 - th) * float(np.sum((w * (u0 - u1)) ** 2))
        assert lhs <= rhs - gap + 1e-9


def test_lambda_convexity_zero_for_convex_kinds():
    assert en.MaxNormEnergy().lambda_convexity == 0.0
    assert quad_block_identity().lambda_convexity == 0.0


def test_auto_shift_gives_positive_floor():
    E = en.MaxNormEnergy(shift="auto")
    assert E.shift == pytest.approx(1.0)  # max-norm is already nonnegative
    E2 = en.QuadraticBlockEnergy(
        A=np.eye(2), B=np.zeros((0, 2)), G=np.zeros((0, 0)),
        f=en.Load([2.0, -1.0]),
        shift="auto",
    )
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.standard_normal(2) * 3.0
        t = rng.uniform()
        assert E2.eval(t, u) > 0.0


# ---------------------------------------------------------------------------
# batches of states
# ---------------------------------------------------------------------------

_LOAD_Y = en.Load([0.3, -0.2], c1=[0.1, 0.4], amp=[0.5, -0.25], omega=3.0, phase=0.2)
_LOAD_Z = en.Load([0.1], c1=[-0.2], amp=[0.3], omega=2.0)
_A = np.array([[2.0, 0.3], [0.3, 1.0]])

BATCH_ENERGIES = [
    (en.MaxNormEnergy(shift=0.5), True),
    (en.QuadraticBlockEnergy(_A, B=[[0.2, -0.1]], G=[[1.5]], f=_LOAD_Y, g=_LOAD_Z,
                             shift=1.0), False),
    (en.AllenCahn1DEnergy(
        3, load=en.Load([1.0, 0.5, -0.5], amp=[0.2, 0.1, 0.3], omega=5.0), shift=0.3
    ), False),
]


@pytest.mark.parametrize(
    "E, exact", BATCH_ENERGIES, ids=[type(E).__name__ for E, _ in BATCH_ENERGIES]
)
@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                  min_size=1, max_size=5),
    times=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    one_time=st.booleans(),
)
def test_batch_rows_equal_single_calls(E, exact, rows, times, one_time):
    rows = np.array(rows)[:, : E.dim]
    ts = np.array(times[: len(rows)])
    for method in (E.eval, E.power):
        batch = method(ts[0] if one_time else ts, rows)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(rows),)
        for t, row, value in zip(ts, rows, batch):
            single = method(ts[0] if one_time else float(t), row)
            assert type(single) is float
            if exact:
                assert value == single
            else:
                # the power sums load terms of both signs: an absolute floor too
                assert math.isclose(value, single, rel_tol=1e-13, abs_tol=1e-13)
