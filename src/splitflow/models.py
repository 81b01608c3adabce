"""The packaged model problems.

* ``counterexample``: the max-norm energy on R^2 with two anisotropic
  quadratic dual potentials.  The effective flow is piecewise affine in
  closed form, and the split-step limit genuinely differs from it, which
  makes this the canonical stress test for the diagnostics.
* ``allen-cahn-1d``: a doubly nonlinear Allen-Cahn discretization on [0, 1]
  pairing a p-power dissipation with a gradient-seminorm dissipation.
* ``visco-plasticity-1d``: displacement/plastic-strain block system with
  viscous dissipation on the displacement rate and yield-plus-viscosity
  dissipation on the plastic strain rate.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from .energies import (
    AllenCahn1DEnergy,
    DoubleWell,
    Load,
    MaxNormEnergy,
    QuadraticBlockEnergy,
)
from .errors import ConfigurationError, InputError
from .potentials import (
    AnisotropicDualQuadratic,
    BlockIndicator,
    InfConvolution,
    OneHomPlusQuad,
    PowerNorm,
    QuadraticForm,
    inf_conv_decompose,
)
from .solvers import GradientSystem

__all__ = [
    "ModelPreset",
    "MODEL_NAMES",
    "make_model",
    "reference_trajectory",
    "allen_cahn_witness_ratio",
]

MODEL_NAMES = ("counterexample", "allen-cahn-1d", "visco-plasticity-1d")

# builder parameters that take a state vector (their defaults may be None)
_STATE_PARAMS = ("u0", "y0", "z0")
# the most float64 values an array sized by a count may hold: 2**45 values
# take 256 TiB, more than any machine's memory and far inside numpy's index
# range, so a count past it is bad input, not a numerical failure
_MAX_VALUES = 2**45


class ModelPreset:
    """A configured model: system, initial state, and reference metadata."""

    def __init__(self, name: str, params: dict, system: GradientSystem, u0: np.ndarray,
                 horizon: float = 1.0, norm_weights: np.ndarray = None):
        self.name = name
        self.params = params
        self.system = system
        self.u0 = u0
        self.horizon = horizon
        self.norm_weights = norm_weights


def make_model(name, **overrides) -> ModelPreset:
    """Build a preset by name; overrides are validated before use."""
    builders = {
        "counterexample": _make_counterexample,
        "allen-cahn-1d": _make_allen_cahn,
        "visco-plasticity-1d": _make_visco_plasticity,
    }
    if name not in builders:
        raise InputError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")
    allowed = inspect.signature(builders[name]).parameters
    unknown = sorted(set(overrides) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown override {', '.join(unknown)} for {name}; "
            f"allowed: {', '.join(allowed)}"
        )
    for key, value in overrides.items():
        _check_override_kind(key, value, allowed[key].default)
        # both mesh models build dense m x m matrices
        if key == "m" and value > math.isqrt(_MAX_VALUES):
            raise ConfigurationError(f"m = {value} makes m x m matrices of more than "
                                     "2**45 values")
    preset = builders[name](**overrides)
    dim = preset.system.dim
    if preset.u0.shape != (dim,):
        raise ConfigurationError(
            f"initial state has shape {preset.u0.shape}, expected ({dim},)"
        )
    if not np.all(np.isfinite(preset.u0)):
        raise ConfigurationError("initial state must be finite")
    return preset


def _check_override_kind(key, value, default):
    """Reject an override whose kind differs from its parameter's: an
    integer, a finite real number, a state vector of numbers, or a load."""
    if isinstance(default, int):
        ok, want = isinstance(value, numbers.Integral), "an integer"
    elif isinstance(default, float):
        want = "a finite number"
        try:
            ok = math.isfinite(value)  # an integer too large for a float overflows
        except (TypeError, OverflowError):
            ok = False
    elif key in _STATE_PARAMS:
        want = "a list of numbers"
        try:
            ok = np.asarray(value, dtype=float).ndim == 1
        except (TypeError, ValueError):
            ok = False
    elif key in ("load", "f_load", "g_load"):
        want, ok = "a Load descriptor", value is None or isinstance(value, Load)
    else:
        return
    if not ok or isinstance(value, bool):
        raise ConfigurationError(f"override {key} must be {want}, got {value!r}")


def _make_counterexample(a1=1.0, b1=3.0, a2=3.0, b2=1.0, u0=(2.0, 1.0), T=1.0):
    for label, val in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
        if val <= 0:
            raise ConfigurationError(f"dual weight {label} must be positive, got {val}")
    system = GradientSystem(
        energy=MaxNormEnergy(shift="auto"),
        r1=AnisotropicDualQuadratic([a1, b1]),
        r2=AnisotropicDualQuadratic([a2, b2]),
    )
    params = {"a1": a1, "b1": b1, "a2": a2, "b2": b2, "u0": list(u0), "T": T}
    return ModelPreset(
        name="counterexample",
        params=params,
        system=system,
        u0=np.asarray(u0, dtype=float),
        horizon=float(T),
    )


def _make_allen_cahn(m=16, p=2.0, well_scale=1.0, well_pos=1.0, load=None,
                     u0=None, T=1.0):
    if p <= 1:
        raise ConfigurationError(f"exponent p must exceed 1, got {p}")
    if well_scale <= 0 or well_pos <= 0:
        raise ConfigurationError("double-well parameters must be positive")
    well = DoubleWell(well_scale, well_pos)
    try:  # a float power that overflows raises
        # growth data of the quartic well: W'' >= -C1, W >= -C2, |W'| <= C3(1+|r|^s)
        growth = {"C_W1": well.curvature_bound, "C_W2": well.lower_bound,
                  "C_W3": well.growth_constant, "s_p": well.growth_exponent}
    except OverflowError:
        growth = {"C_W1": math.inf}
    if not all(map(math.isfinite, growth.values())):
        raise ConfigurationError(f"well_scale = {well_scale} and well_pos = {well_pos} make "
                                 "the double well's growth constants overflow")
    if m < 1:
        raise ConfigurationError("mesh needs at least one interior node")
    energy = AllenCahn1DEnergy(m, well=well, load=load, shift="auto")
    h = energy.h
    r1 = PowerNorm(p, np.full(m, h))
    r2 = QuadraticForm(energy.K)
    system = GradientSystem(energy=energy, r1=r1, r2=r2)
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    u0 = 0.5 * np.sin(math.pi * x) if u0 is None else np.asarray(u0, dtype=float)
    params = {
        "m": m,
        "p": p,
        "well_scale": well_scale,
        "well_pos": well_pos,
        "T": T,
        **growth,
    }
    return ModelPreset(
        name="allen-cahn-1d",
        params=params,
        system=system,
        u0=u0,
        horizon=float(T),
        norm_weights=np.full(m, math.sqrt(h)),
    )


def _make_visco_plasticity(m=8, C_el=1.0, H_hard=0.5, D_visc=1.0,
                           sigma_yield=0.1, rho=1.0, f_load=None, g_load=None,
                           y0=None, z0=None, T=1.0):
    for label, val in (
        ("C_el", C_el),
        ("H_hard", H_hard),
        ("D_visc", D_visc),
        ("sigma_yield", sigma_yield),
        ("rho", rho),
    ):
        if val <= 0:
            raise ConfigurationError(f"parameter {label} must be positive, got {val}")
    if m < 1:
        raise ConfigurationError("mesh needs at least one interior node")
    h = 1.0 / (m + 1)
    n_el = m + 1
    # elementwise strain e(y)_i = (y_{i+1} - y_i)/h with Dirichlet ends
    D = np.eye(n_el, m) - np.eye(n_el, m, k=-1)
    E_op = D / h
    A = C_el * h * (E_op.T @ E_op)
    B = -C_el * h * E_op
    G = (C_el + H_hard) * h * np.eye(n_el)
    energy = QuadraticBlockEnergy(A, B, G, f=f_load, g=g_load, shift="auto")
    Ry = QuadraticForm(D_visc * h * (E_op.T @ E_op))
    Rz = OneHomPlusQuad(sigma_yield, rho, np.full(n_el, h))
    dim = m + n_el
    system = GradientSystem(energy, BlockIndicator(Ry, np.arange(m), dim),
                            BlockIndicator(Rz, np.arange(m, dim), dim))
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    y0 = 0.3 * np.sin(math.pi * x) if y0 is None else np.asarray(y0, dtype=float)
    z0 = np.zeros(n_el) if z0 is None else np.asarray(z0, dtype=float)
    params = {
        "m": m,
        "C_el": C_el,
        "H_hard": H_hard,
        "D_visc": D_visc,
        "sigma_yield": sigma_yield,
        "rho": rho,
        "T": T,
    }
    return ModelPreset(
        name="visco-plasticity-1d",
        params=params,
        system=system,
        u0=np.concatenate([y0, z0]),
        horizon=float(T),
    )


def reference_trajectory(preset: ModelPreset, t, kind="effective"):
    """Closed-form reference for the counterexample.

    ``kind='effective'`` returns the three-regime piecewise-affine solution
    of the inf-convolution flow; ``kind='split-limit'`` the limit of the
    split trajectories, whose middle regime moves with the mean of the two
    single-mechanism velocities.
    """
    if preset.name != "counterexample":
        raise InputError("closed-form reference exists only for the counterexample")
    p = preset.params
    a = p["a1"] + p["a2"]
    b = p["b1"] + p["b2"]
    u01, u02 = preset.u0
    if not (u01 >= u02 > 0):
        raise InputError("reference assumes an initial state with u1 >= u2 > 0")
    t = float(t)
    t1 = (u01 - u02) / a
    if kind == "effective":
        speed = a * b / (a + b)
    elif kind == "split-limit":
        speed = (
            p["a1"] * p["b1"] / (p["a1"] + p["b1"])
            + p["a2"] * p["b2"] / (p["a2"] + p["b2"])
        )
    else:
        raise InputError(f"unknown reference kind {kind!r}")
    if t <= t1:
        return np.array([u01 - a * t, u02])
    level = u02 - speed * (t - t1)
    if level <= 0.0:
        return np.zeros(2)
    return np.array([level, level])


def reference_force(preset: ModelPreset, t):
    """Force selection xi(t) in dE(u(t)) along the effective reference."""
    p = preset.params
    a = p["a1"] + p["a2"]
    b = p["b1"] + p["b2"]
    u = reference_trajectory(preset, t, "effective")
    if u[0] > abs(u[1]):
        return np.array([1.0, 0.0])
    if np.all(u == 0.0):
        return np.zeros(2)
    theta = b / (a + b)
    return np.array([theta, 1.0 - theta])


def _witness_profiles(m, p, n):
    """Discrete witness pair: a fixed smooth profile and the oscillating force.

    The force density is n sin(pi n^{1-p*/2} x): frequencies are scaled by
    pi, the fundamental mode of the unit Dirichlet interval, so that the
    gradient-dual term is oscillation-suppressed already at small n.  The
    profile amplitude 0.1 keeps the effective-potential term out of its
    preasymptotic growth range on desk-scale grids.
    """
    h = 1.0 / (m + 1)
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    p_star = p / (p - 1.0)
    v = 0.1 * np.sin(math.pi * x)
    xi_fun = n * np.sin(math.pi * n ** (1.0 - p_star / 2.0) * x)
    xi_vec = h * xi_fun  # Euclidean dual vector of the L^{p*} density
    return v, xi_vec, h


def allen_cahn_witness_ratio(preset: ModelPreset, n, tol=1e-8):
    """(R_eff(lam v) + R_eff*(xi_n)) / (||lam v||_p ||xi_n||_{p*}).

    The force sequence oscillates with n; the scaling lam matches the dual
    norm so that the ratio degenerates exactly when the quantitative Young
    estimate fails (p > 2) and stays bounded below when it holds (p <= 2).
    """
    if preset.name != "allen-cahn-1d":
        raise InputError("witness ratios are defined for the allen-cahn-1d model")
    sys = preset.system
    p = preset.params["p"]
    m = preset.params["m"]
    p_star = p / (p - 1.0)
    v, xi_vec, h = _witness_profiles(m, p, n)

    norm_dual = float(np.sum(h * (np.abs(xi_vec) / h) ** p_star)) ** (1.0 / p_star)
    lam = norm_dual ** (p_star / 2.0)
    v_scaled = lam * v
    norm_primal = float(np.sum(h * np.abs(v_scaled) ** p)) ** (1.0 / p)

    r_eff = InfConvolution(sys.r1, sys.r2)
    scale = 1.0 + float(sys.r2(v_scaled))
    dec = inf_conv_decompose(r_eff, v_scaled, tol=tol * scale)
    numer = dec.value + r_eff.conjugate(xi_vec)
    return numer / (norm_primal * norm_dual)
