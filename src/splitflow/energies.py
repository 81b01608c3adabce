"""Time-dependent driving energies with gradient and subdifferential.

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

``eval`` takes one state and returns a float, or a batch of states as
rows of shape (n, dim), with one time per row or one time for all, and
returns one value per row.  Time enters only through ``eval`` (and the
gradient): the audit takes the power integral as an exact energy
difference.  :class:`EnergySpec` owns the checked entries ``eval`` and
``grad``: each checks the state once and calls the family's core (``_eval``,
``_grad``), so a family states only its cores.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, Frozen, InputError
from .potentials import Potential, _value

__all__ = [
    "Load",
    "SubdiffSet",
    "EnergySpec",
    "QuadraticBlockEnergy",
    "MaxNormEnergy",
    "AllenCahn1DEnergy",
    "DoubleWell",
]


def _is_time_array(t):
    return isinstance(t, np.ndarray) and t.ndim == 1


class Load(Frozen):
    """Closed-form load c0 + c1 t + amp sin(omega t + phase), per coordinate."""

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

    @property
    def dim(self):
        return self.c0.size

    @property
    def is_zero(self):
        """True when l(t) = 0 for every t: every coefficient is zero."""
        return not (self.c0.any() or self.c1.any() or self.amp.any())

    def value(self, t):
        """l(t); one row per time for a one-dimensional array of times."""
        if not _is_time_array(t):
            return self.c0 + self.c1 * t + self.amp * math.sin(self.omega * t + self.phase)
        t = t[:, None]
        return self.c0 + self.c1 * t + self.amp * np.sin(self.omega * t + self.phase)


def _dot(a, b):
    """<a, b> for two vectors, else row by row (a single vector broadcasts)."""
    if a.ndim == b.ndim == 1:
        return a @ b
    return np.einsum("...i,...i->...", a, b)


def _as_load(obj, dim, name):
    if obj is None:
        return Load(np.zeros(dim))
    if not isinstance(obj, Load):
        raise ConfigurationError(f"{name} must be a Load descriptor")
    if obj.dim != dim:
        raise ConfigurationError(f"{name} has dimension {obj.dim}, expected {dim}")
    return obj


class SubdiffSet(Frozen):
    """Exact geometric description of a Frechet subdifferential.

    kind is one of 'singleton', 'segment' (endpoints a, b), or 'box'
    (per-coordinate lower/upper bounds).
    """

    def __init__(self, kind, a, b=None):
        for name, val in (("kind", kind), ("a", a), ("b", b)):
            object.__setattr__(self, name, val)

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
    """1 + max(0, -min sampled energy): makes E positive on the sample ball.

    The 144 states are drawn in one call, which gives the numbers of one
    draw per state, and evaluated as one batch.
    """
    rng = np.random.default_rng(seed)
    times = np.repeat(np.linspace(0.0, 1.0, 9), n_samples // 8)
    states = rng.standard_normal((times.size, energy.dim)) * radius
    return 1.0 + max(0.0, -float(energy.eval(times, states).min()))


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

    # whether a load is set; a family that does not say is taken to have one
    _loaded = True

    @property
    def depends_on_time(self):
        """True unless E(t, u) is the same at every time t for each state u.
        Time enters only through a load, so this is True when a load is set,
        also a constant one."""
        return self._loaded

    # -- checked entries: each checks the state once and calls a core -------

    def eval(self, t, u):
        """E(t, u): a float for one state, one value per row for an (n, dim)
        batch, with ``t`` one time for all rows or one time per row."""
        return _value(self._eval(t, self._batch(u, "state")))

    def grad(self, t, u) -> np.ndarray:
        """The gradient at (t, u) of a differentiable energy."""
        return self._grad(t, self._check(u, "state"))

    def subdiff(self, t, u) -> SubdiffSet:
        """The Frechet subdifferential at (t, u): the singleton of ``grad``
        unless a family describes a set."""
        return SubdiffSet.singleton(self.grad(t, u))

    def hess(self, t, u) -> np.ndarray:
        """The Hessian at (t, u), built from its parts."""
        u = self._check(u, "state")
        H = np.array(self.hess_constant())
        H.reshape(-1)[:: len(H) + 1] = self._hess_diagonal(t, u)
        return H

    # -- cores: unchecked, called by the entries above and the Newton kernels --

    def _eval(self, t, u):
        raise NotImplementedError

    def _grad(self, t, u):
        raise NotImplementedError(f"{type(self).__name__} has no smooth gradient")

    def _block_grad(self, t, y, z, block):
        """The ``y`` or ``z`` block of the gradient at the state (y, z),
        unchecked.  This default assembles the state and slices ``_grad``."""
        g = self._grad(t, np.concatenate([y, z]))
        return g[: y.size] if block == "y" else g[y.size :]

    def hess_constant(self):
        """The part of the Hessian that depends on neither t nor u: the Hessian
        is this matrix with its diagonal replaced by ``_hess_diagonal(t, u)``."""
        raise NotImplementedError(f"{type(self).__name__} has no smooth Hessian")

    def _hess_diagonal(self, t, u):
        """The Hessian's diagonal at (t, u), unchecked."""
        raise NotImplementedError(f"{type(self).__name__} has no smooth Hessian")

    # the potentials' input checks, called with the input named "state"
    _check = Potential._check
    _batch = Potential._batch


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
        # without loads, eval and grad skip the load terms; their values are
        # +0.0 and x - 0.0 == x, so the skip changes no bit
        self._loaded = not (self.f.is_zero and self.g.is_zero)
        H = np.block([[A, B.T], [B, G]]) if n_z else A
        self._H = H
        self._H_diagonal = np.diag(H)
        self.lambda_convexity = 0.0 if n_y + n_z == 0 else min(
            0.0, float(np.min(np.linalg.eigvalsh(H)))
        )
        self._resolve_shift(shift)

    @property
    def dim(self):
        return self.n_y + self.n_z

    def _eval(self, t, u):
        y, z = u[..., : self.n_y], u[..., self.n_y :]
        # B y for one state; for a batch, the rows y B^T (equal to rounding)
        By = self.B @ y if y.ndim == 1 else y @ self.B.T
        val = 0.5 * _dot(y @ self.A, y) + 0.5 * _dot(z @ self.G, z)
        val += _dot(By, z)
        if self._loaded:
            val -= _dot(self.f.value(t), y) + _dot(self.g.value(t), z)
        return val + self.shift

    def _grad(self, t, u):
        y, z = u[: self.n_y], u[self.n_y :]
        return np.concatenate([self._block_grad(t, y, z, block) for block in "yz"])

    def _block_grad(self, t, y, z, block):
        if y.size != self.n_y:  # a split other than the energy's own blocks
            return super()._block_grad(t, y, z, block)
        if block == "y":
            g, load = self.A @ y + self.B.T @ z, self.f
        else:
            g, load = self.B @ y + self.G @ z, self.g
        return g - load.value(t) if self._loaded else g

    def hess_constant(self):
        return self._H

    def _hess_diagonal(self, t, u):
        return self._H_diagonal

    def partial_grad(self, t, y, z, block):
        y = np.asarray(y, dtype=float).reshape(-1)
        z = np.asarray(z, dtype=float).reshape(-1)
        if y.size != self.n_y or z.size != self.n_z:
            raise InputError("block state sizes disagree with the energy")
        if block not in ("y", "z"):
            raise InputError(f"unknown block {block!r}")
        return self._block_grad(t, y, z, block)


class MaxNormEnergy(EnergySpec):
    """E(u) = max(|u_1|, |u_2|) on R^2, autonomous and convex.

    The subdifferential follows the five-case table: signed unit vectors off
    the diagonals, segments on the diagonals, and the full unit box at 0.
    """

    dim = 2
    _loaded = False

    def __init__(self, shift=0.0):
        self.lambda_convexity = 0.0
        self._resolve_shift(shift)

    def _eval(self, t, u):
        return np.abs(u).max(axis=-1) + self.shift

    def grad(self, t, u):
        # the one family whose gradient reads its set-valued subdifferential
        s = self.subdiff(t, u)
        if not s.is_singleton:
            raise InputError("energy is not differentiable at this state")
        return s.a

    def subdiff(self, t, u):
        u = self._check(u, "state")
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


class DoubleWell(Frozen):
    """Quartic well W(u) = scale (u^2 - pos^2)^2 / 4 with analytic bounds.

    Satisfies W'' >= -C1, W >= -C2 and |W'| <= C3 (1 + |r|^3) with
    C1 = scale pos^2, C2 = 0, C3 = 2 scale.
    """

    def __init__(self, scale=1.0, pos=1.0):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "pos", pos)

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
        # a zero load is skipped in eval and grad, exactly as in QuadraticBlockEnergy
        self._loaded = not self.load.is_zero
        # Dirichlet stiffness (1/h) tridiag(-1, 2, -1); grad term is u'Ku/2.
        K = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1) - np.diag(
            np.ones(m - 1), -1)) / self.h
        self.K = K
        self._K_diagonal = np.diag(K)
        # W'' >= -C1 gives lambda-convexity wrt the h-weighted L2 norm.
        self.lambda_convexity = -self.well.curvature_bound
        self._resolve_shift(shift)

    @property
    def dim(self):
        return self.m

    def _eval(self, t, u):
        val = 0.5 * _dot(u @ self.K, u) + self.h * self.well(u).sum(axis=-1)
        if self._loaded:
            val = val - self.h * _dot(self.load.value(t), u)
        return val + self.shift

    def _grad(self, t, u):
        d1 = self.well.d1(u)
        if self._loaded:
            d1 = d1 - self.load.value(t)
        return self.K @ u + self.h * d1

    def hess_constant(self):
        return self.K

    def _hess_diagonal(self, t, u):
        return self._K_diagonal + self.h * self.well.d2(u)
