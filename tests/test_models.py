import math

import numpy as np
import pytest

from splitflow import models as md
from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.errors import ConfigurationError, InputError


def test_counterexample_defaults_middle_velocity():
    preset = md.make_model("counterexample")
    P = pa.build_partition(1.0, N=8)
    out = sv.effective_solve(preset.system, P, preset.u0)
    rate = (out.u_linear.at(0.5) - out.u_linear.at(0.3)) / 0.2
    np.testing.assert_allclose(rate, [-2.0, -2.0], atol=1e-12)


def test_reference_trajectory_values():
    preset = md.make_model("counterexample")
    np.testing.assert_allclose(
        md.reference_trajectory(preset, 0.0), [2.0, 1.0], atol=1e-14
    )
    np.testing.assert_allclose(
        md.reference_trajectory(preset, 0.75), [0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        md.reference_trajectory(preset, 0.25 + 2.0 / 3.0, kind="split-limit"),
        [0.0, 0.0],
        atol=1e-12,
    )
    # the split limit lags the effective flow in the middle regime
    u_eff = md.reference_trajectory(preset, 0.5)
    u_lim = md.reference_trajectory(preset, 0.5, kind="split-limit")
    assert u_lim[0] > u_eff[0]


def test_reference_requires_counterexample():
    preset = md.make_model("allen-cahn-1d", m=4)
    with pytest.raises(InputError):
        md.reference_trajectory(preset, 0.5)


def test_reference_satisfies_effective_inclusion():
    preset = md.make_model("counterexample")
    r_eff = pt.InfConvolution(preset.system.r1, preset.system.r2)
    dt = 1e-6
    for t in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        u_prev = md.reference_trajectory(preset, t - dt)
        u_next = md.reference_trajectory(preset, t + dt)
        rate = (u_next - u_prev) / (2 * dt)
        xi = md.reference_force(preset, t)
        if np.all(u_next == 0.0):
            continue
        assert pt.fenchel_young_residual(r_eff, rate, -xi) <= 1e-10


def test_allen_cahn_well_growth_conditions():
    preset = md.make_model("allen-cahn-1d", m=8)
    well = preset.system.energy.well
    C1 = preset.params["C_W1"]
    C2 = preset.params["C_W2"]
    C3 = preset.params["C_W3"]
    s_p = preset.params["s_p"]
    for r in np.linspace(-10.0, 10.0, 4001):
        assert well.d2(r) >= -C1 - 1e-12
        assert well(r) >= -C2 - 1e-12
        assert abs(well.d1(r)) <= C3 * (1.0 + abs(r) ** s_p) + 1e-12


def test_allen_cahn_r2_conjugate_is_laplacian_solve():
    preset = md.make_model("allen-cahn-1d", m=16)
    sys = preset.system
    K = sys.energy.K
    rng = np.random.default_rng(21)
    h = sys.energy.h
    ratios = []
    for _ in range(200):
        xi = rng.standard_normal(16)
        # oracle: solve K v = xi and evaluate the dual energy directly
        v_star = np.linalg.solve(K, xi)
        oracle = 0.5 * float(xi @ v_star)
        assert sys.r2.conjugate(xi) == pytest.approx(oracle, rel=1e-12)
        dual_sq = float(np.sum(xi**2 / h))
        ratios.append(oracle / dual_sq)
    c_fit, C_fit = min(ratios), max(ratios)
    assert c_fit > 0.0
    assert C_fit / c_fit < 1e4


def test_visco_infinite_yield_freezes_plastic_strain():
    preset = md.make_model("visco-plasticity-1d", sigma_yield=1e6)
    P = pa.build_partition(1.0, N=4)
    out = sv.solve(preset.system, "block-amm", P, preset.u0, 1e-10, 8)
    _, idx_z = preset.system.block_indices()
    z_path = out.u_linear.values[:, idx_z]
    np.testing.assert_array_equal(z_path, np.tile(preset.u0[idx_z], (len(z_path), 1)))


def test_invalid_overrides_name_the_constraint():
    with pytest.raises(ConfigurationError, match="p must exceed 1"):
        md.make_model("allen-cahn-1d", p=0.5)
    with pytest.raises(ConfigurationError, match="sigma_yield"):
        md.make_model("visco-plasticity-1d", sigma_yield=-1.0)
    with pytest.raises(ConfigurationError, match="a1"):
        md.make_model("counterexample", a1=0.0)
    with pytest.raises(InputError):
        md.make_model("no-such-model")


def test_witness_ratio_decreases_at_p3():
    preset = md.make_model("allen-cahn-1d", m=64, p=3.0)
    r4 = md.allen_cahn_witness_ratio(preset, 4)
    r16 = md.allen_cahn_witness_ratio(preset, 16)
    assert r16 < r4


def test_block_layout_wiring():
    preset = md.make_model("visco-plasticity-1d", m=4)
    sys = preset.system
    assert sys.block_layout == (4, 5)
    assert isinstance(sys.r1, pt.BlockIndicator)
    assert isinstance(sys.r2, pt.BlockIndicator)
    assert sys.dim == 9
