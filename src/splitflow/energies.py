"""Time-dependent driving energies with power derivative and subdifferential.

Three families are provided:

* :class:`QuadraticBlockEnergy` on a product state (y, z),
      E(t, y, z) = <Ay, y>/2 + <By, z> + <Gz, z>/2 - <f(t), y> - <g(t), z>,
  with time-dependent loads given by closed-form descriptors;
* :class:`MaxNormEnergy` on R^2, E(u) = max(|u_1|, |u_2|), whose Frechet
  subdifferential is genuinely set-valued (segments on the diagonals, a box
  at the origin);
* :class:`AllenCahn1DEnergy`, an interior-node finite-difference energy on
  [0, 1] with homogeneous Dirichlet data,
      E(t, u) = sum_i h [ ((u_{i+1}-u_i)/h)^2/2 + W(u_i) - l_i(t) u_i ].

All subdifferentials are taken in the plain Euclidean pairing; mesh factors
are folded into the discrete functionals.

``eval`` and ``power`` take one state and return a float, or a batch of
states as rows of shape (n, dim), with one time per row or one time for
all, and return one value per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

__all__ = [
    "Load",
    "SubdiffSet",
    "EnergySpec",
    "QuadraticBlockEnergy",
    "MaxNormEnergy",
    "AllenCahn1DEnergy",
    "DoubleWell",
    "subdiff",
    "partial_subdiff",
]


def _is_time_array(t):
    return isinstance(t, np.ndarray) and t.ndim == 1


@dataclass(frozen=True)
class Load:
    """Closed-form load c0 + c1 t + amp sin(omega t + phase), per coordinate.

    Keeping loads in closed form makes the power term exact, which the
    energy-dissipation audits rely on.
    """

    c0: np.ndarray
    c1: np.ndarray
    amp: np.ndarray
    omega: float = 0.0
    phase: float = 0.0

    def __init__(self, c0, c1=None, amp=None, omega=0.0, phase=0.0):
        c0 = np.atleast_1d(np.asarray(c0, dtype=float))
        c1 = np.zeros_like(c0) if c1 is None else np.atleast_1d(np.asarray(c1, float))
        amp = np.zeros_like(c0) if amp is None else np.atleast_1d(np.asarray(amp, float))
        if not (c0.shape == c1.shape == amp.shape):
            raise ConfigurationError("load coefficient shapes disagree")
        for name, val in (("c0", c0), ("c1", c1), ("amp", amp)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "phase", float(phase))

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros(dim))

    @classmethod
    def constant(cls, c):
        return cls(c)

    @property
    def dim(self):
        return self.c0.size

    def value(self, t):
        """l(t); one row per time for a one-dimensional array of times."""
        if not _is_time_array(t):
            return self.c0 + self.c1 * t + self.amp * math.sin(self.omega * t + self.phase)
        t = t[:, None]
        return self.c0 + self.c1 * t + self.amp * np.sin(self.omega * t + self.phase)

    def derivative(self, t):
        """l'(t); one row per time for a one-dimensional array of times."""
        if not _is_time_array(t):
            return self.c1 + self.amp * self.omega * math.cos(self.omega * t + self.phase)
        t = t[:, None]
        return self.c1 + self.amp * self.omega * np.cos(self.omega * t + self.phase)

    def bound(self, horizon=1.0):
        """(sup_t ||l(t)||, sup_t ||l'(t)||) over [0, horizon]."""
        if self.c0.size == 0:
            return 0.0, 0.0
        val = float(
            np.linalg.norm(self.c0)
            + horizon * np.linalg.norm(self.c1)
            + np.linalg.norm(self.amp)
        )
        der = float(
            np.linalg.norm(self.c1) + abs(self.omega) * np.linalg.norm(self.amp)
        )
        return val, der


def _dot(a, b):
    """<a, b> for two vectors, else row by row (a single vector broadcasts)."""
    if a.ndim == b.ndim == 1:
        return a @ b
    return np.einsum("...i,...i->...", a, b)


def _value(x):
    """A float for a single-state result, the array of row values otherwise."""
    return x if isinstance(x, np.ndarray) else float(x)


def _as_load(obj, dim, name):
    if obj is None:
        return Load.zero(dim)
    if not isinstance(obj, Load):
        raise ConfigurationError(
            f"{name} must be a Load descriptor with analytic derivative"
        )
    if obj.dim != dim:
        raise ConfigurationError(f"{name} has dimension {obj.dim}, expected {dim}")
    return obj


@dataclass(frozen=True)
class SubdiffSet:
    """Exact geometric description of a Frechet subdifferential.

    kind is one of 'singleton', 'segment' (endpoints a, b), or 'box'
    (per-coordinate lower/upper bounds).
    """

    kind: str
    a: np.ndarray
    b: np.ndarray = None

    @classmethod
    def singleton(cls, xi):
        return cls("singleton", np.asarray(xi, dtype=float))

    @classmethod
    def segment(cls, xi_a, xi_b):
        return cls("segment", np.asarray(xi_a, dtype=float), np.asarray(xi_b, float))

    @classmethod
    def box(cls, lower, upper):
        return cls("box", np.asarray(lower, dtype=float), np.asarray(upper, float))

    @property
    def is_singleton(self):
        return self.kind == "singleton"

    def element(self, theta=0.5):
        """A representative element; theta picks the point on a segment."""
        if self.kind == "singleton":
            return np.array(self.a)
        if self.kind == "segment":
            return (1.0 - theta) * self.a + theta * self.b
        return 0.5 * (self.a + self.b)

    def contains(self, xi, tol=1e-9):
        xi = np.asarray(xi, dtype=float)
        if self.kind == "singleton":
            return bool(np.all(np.abs(xi - self.a) <= tol))
        if self.kind == "box":
            return bool(np.all(xi >= self.a - tol) and np.all(xi <= self.b + tol))
        d = self.b - self.a
        denom = float(d @ d)
        theta = 0.0 if denom == 0.0 else float((xi - self.a) @ d) / denom
        theta = min(max(theta, 0.0), 1.0)
        return bool(np.all(np.abs(xi - (self.a + theta * d)) <= tol))


def _auto_shift(energy, radius=4.0, n_samples=128, seed=0):
    """1 + max(0, -min sampled energy): makes E positive on the sample ball."""
    rng = np.random.default_rng(seed)
    lo = math.inf
    for t in np.linspace(0.0, 1.0, 9):
        for _ in range(n_samples // 8):
            u = rng.standard_normal(energy.dim) * radius
            lo = min(lo, energy.eval(t, u))
    return 1.0 + max(0.0, -lo)


class EnergySpec:
    """Common interface of the energy families."""

    dim: int
    shift: float
    lambda_convexity: float

    def _resolve_shift(self, shift):
        """Numeric shifts pass through; 'auto' samples for a positive floor."""
        if shift == "auto":
            self.shift = 0.0
            self.shift = _auto_shift(self)
        else:
            self.shift = float(shift)

    def eval(self, t, u):
        """E(t, u): a float for one state, one value per row for an (n, dim)
        batch, with ``t`` one time for all rows or one time per row."""
        raise NotImplementedError

    def power(self, t, u):
        """The power d_t E(t, u), for one state or a batch like ``eval``."""
        raise NotImplementedError

    def subdiff(self, t, u) -> SubdiffSet:
        raise NotImplementedError

    def grad(self, t, u) -> np.ndarray:
        s = self.subdiff(t, u)
        if not s.is_singleton:
            raise InputError("energy is not differentiable at this state")
        return s.a

    def hess(self, t, u) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no smooth Hessian")

    @property
    def is_smooth(self):
        return True

    def _check(self, u):
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.size != self.dim:
            raise InputError(f"state has length {u.size}, expected {self.dim}")
        return u

    def _batch(self, u):
        """``u`` as one state, or as a batch of rows when it is two-dimensional."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            return self._check(u)
        if u.shape[1] != self.dim:
            raise InputError(f"state rows have length {u.shape[1]}, expected {self.dim}")
        return u


def _power_control_bound(c, L, Ld, s):
    """max over r >= 0 of Ld r / (c r^2 - L r + s), or inf if unbounded."""
    if Ld == 0.0:
        return 0.0
    if c <= 0.0 or s <= 0.0 or L**2 >= 4.0 * c * s:
        return math.inf
    r_star = math.sqrt(s / c)
    return Ld * r_star / (2.0 * s - L * r_star)


class QuadraticBlockEnergy(EnergySpec):
    """Quadratic energy on a block state (y, z) with time-dependent loads."""

    def __init__(self, A, B=None, G=None, f=None, g=None, shift=0.0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n_y = A.shape[0]
        if G is None:
            G = np.zeros((0, 0))
        G = np.atleast_2d(np.asarray(G, dtype=float))
        n_z = G.shape[0]
        if B is None:
            B = np.zeros((n_z, n_y))
        B = np.asarray(B, dtype=float).reshape(n_z, n_y)
        if A.shape != (n_y, n_y) or G.shape != (n_z, n_z):
            raise ConfigurationError("block matrices have inconsistent shapes")
        if not np.allclose(A, A.T) or not np.allclose(G, G.T):
            raise ConfigurationError("A and G must be symmetric")
        self.A, self.B, self.G = A, B, G
        self.n_y, self.n_z = n_y, n_z
        self.f = _as_load(f, n_y, "f")
        self.g = _as_load(g, n_z, "g")
        H = np.block([[A, B.T], [B, G]]) if n_z else A
        self._H = H
        self.lambda_convexity = 0.0 if n_y + n_z == 0 else min(
            0.0, float(np.min(np.linalg.eigvalsh(H)))
        )
        self._resolve_shift(shift)

    @property
    def dim(self):
        return self.n_y + self.n_z

    def split_state(self, u):
        u = self._check(u)
        return u[: self.n_y], u[self.n_y :]

    def _blocks(self, u):
        u = self._batch(u)
        return u[..., : self.n_y], u[..., self.n_y :]

    def eval(self, t, u):
        y, z = self._blocks(u)
        # B y for one state; for a batch, the rows y B^T (equal to rounding)
        By = self.B @ y if y.ndim == 1 else y @ self.B.T
        val = 0.5 * _dot(y @ self.A, y) + 0.5 * _dot(z @ self.G, z)
        val += _dot(By, z)
        val -= _dot(self.f.value(t), y) + _dot(self.g.value(t), z)
        return _value(val + self.shift)

    def power(self, t, u):
        y, z = self._blocks(u)
        return _value(-_dot(self.f.derivative(t), y) - _dot(self.g.derivative(t), z))

    def grad(self, t, u):
        y, z = self.split_state(u)
        gy = self.A @ y + self.B.T @ z - self.f.value(t)
        gz = self.B @ y + self.G @ z - self.g.value(t)
        return np.concatenate([gy, gz])

    def hess(self, t, u):
        return np.array(self._H)

    def subdiff(self, t, u):
        return SubdiffSet.singleton(self.grad(t, u))

    def partial_grad(self, t, y, z, block):
        y = np.asarray(y, dtype=float).reshape(-1)
        z = np.asarray(z, dtype=float).reshape(-1)
        if y.size != self.n_y or z.size != self.n_z:
            raise InputError("block state sizes disagree with the energy")
        if block == "y":
            return self.A @ y + self.B.T @ z - self.f.value(t)
        if block == "z":
            return self.B @ y + self.G @ z - self.g.value(t)
        raise InputError(f"unknown block {block!r}")

    def power_control_constant(self, horizon=1.0):
        """C_# with |d_t E| <= C_# E globally, derived from the load bounds.

        With E >= c r^2 - L r + s and |d_t E| <= L' r for r = ||u||, the
        best constant is the maximum of L' r / (c r^2 - L r + s); infinite
        when the quadratic lower bound is not everywhere positive.
        """
        fb, fdb = self.f.bound(horizon)
        gb, gdb = self.g.bound(horizon)
        c = 0.5 * float(np.min(np.linalg.eigvalsh(self._H))) if self.dim else 0.0
        return _power_control_bound(c, fb + gb, fdb + gdb, self.shift)


class MaxNormEnergy(EnergySpec):
    """E(u) = max(|u_1|, |u_2|) on R^2, autonomous and convex.

    The subdifferential follows the five-case table: signed unit vectors off
    the diagonals, segments on the diagonals, and the full unit box at 0.
    """

    dim = 2

    def __init__(self, shift=0.0):
        self.lambda_convexity = 0.0
        self._resolve_shift(shift)

    @property
    def is_smooth(self):
        return False

    def eval(self, t, u):
        u = self._batch(u)
        return _value(np.abs(u).max(axis=-1) + self.shift)

    def power(self, t, u):
        u = self._batch(u)
        return 0.0 if u.ndim == 1 else np.zeros(len(u))

    def subdiff(self, t, u):
        u = self._check(u)
        u1, u2 = u
        if u1 == 0.0 and u2 == 0.0:
            return SubdiffSet.box([-1.0, -1.0], [1.0, 1.0])
        if abs(u1) > abs(u2):
            return SubdiffSet.singleton([math.copysign(1.0, u1), 0.0])
        if abs(u2) > abs(u1):
            return SubdiffSet.singleton([0.0, math.copysign(1.0, u2)])
        s = math.copysign(1.0, u1)
        if u1 == u2:
            return SubdiffSet.segment([s, 0.0], [0.0, s])
        return SubdiffSet.segment([s, 0.0], [0.0, -s])


@dataclass(frozen=True)
class DoubleWell:
    """Quartic well W(u) = scale (u^2 - pos^2)^2 / 4 with analytic bounds.

    Satisfies W'' >= -C1, W >= -C2 and |W'| <= C3 (1 + |r|^3) with
    C1 = scale pos^2, C2 = 0, C3 = 2 scale.
    """

    scale: float = 1.0
    pos: float = 1.0

    def __call__(self, u):
        return self.scale * (u**2 - self.pos**2) ** 2 / 4.0

    def d1(self, u):
        return self.scale * u * (u**2 - self.pos**2)

    def d2(self, u):
        return self.scale * (3.0 * u**2 - self.pos**2)

    @property
    def curvature_bound(self):
        return self.scale * self.pos**2

    @property
    def lower_bound(self):
        return 0.0

    @property
    def growth_constant(self):
        return 2.0 * self.scale

    @property
    def growth_exponent(self):
        return 3.0


class AllenCahn1DEnergy(EnergySpec):
    """Interior-node finite-difference Allen-Cahn energy on [0, 1]."""

    def __init__(self, m, well=None, load=None, shift=0.0):
        if m < 1:
            raise ConfigurationError("need at least one interior node")
        self.m = int(m)
        self.h = 1.0 / (m + 1)
        self.well = well if well is not None else DoubleWell()
        self.load = _as_load(load, m, "load")
        # Dirichlet stiffness (1/h) tridiag(-1, 2, -1); grad term is u'Ku/2.
        K = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1) - np.diag(
            np.ones(m - 1), -1)) / self.h
        self.K = K
        # W'' >= -C1 gives lambda-convexity wrt the h-weighted L2 norm.
        self.lambda_convexity = -self.well.curvature_bound
        self._resolve_shift(shift)

    @property
    def dim(self):
        return self.m

    def eval(self, t, u):
        u = self._batch(u)
        grad_part = 0.5 * _dot(u @ self.K, u)
        well_part = self.h * self.well(u).sum(axis=-1)
        load_part = self.h * _dot(self.load.value(t), u)
        return _value(grad_part + well_part - load_part + self.shift)

    def power(self, t, u):
        u = self._batch(u)
        return _value(-self.h * _dot(self.load.derivative(t), u))

    def grad(self, t, u):
        u = self._check(u)
        return self.K @ u + self.h * (self.well.d1(u) - self.load.value(t))

    def hess(self, t, u):
        u = self._check(u)
        return self.K + self.h * np.diag(self.well.d2(u))

    def subdiff(self, t, u):
        return SubdiffSet.singleton(self.grad(t, u))

    def l2_weights(self):
        """Diagonal weights of the discrete L2 norm, sqrt(h) per node."""
        return np.full(self.m, math.sqrt(self.h))

    def power_control_constant(self, horizon=1.0):
        # the quartic well is nonnegative, so only the shift raises the floor
        lb, ld = self.load.bound(horizon)
        c = 0.5 * float(np.min(np.linalg.eigvalsh(self.K)))
        return _power_control_bound(c, self.h * lb, self.h * ld, self.shift)


def subdiff(E: EnergySpec, t, u) -> SubdiffSet:
    """Frechet subdifferential of E(t, .) at u."""
    return E.subdiff(t, u)


def partial_subdiff(E: EnergySpec, t, y, z, block) -> SubdiffSet:
    """Partial subdifferential of a block energy; singleton gradients here."""
    if not isinstance(E, QuadraticBlockEnergy):
        raise InputError("partial_subdiff requires a block energy")
    return SubdiffSet.singleton(E.partial_grad(t, y, z, block))
