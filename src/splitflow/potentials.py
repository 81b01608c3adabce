"""Convex-analysis kernel for dissipation potentials.

A dissipation potential here is a convex, nonnegative function R with
R(0) = 0 whose conjugate R*(xi) = sup_v(<xi, v> - R(v)) is finite on the
probe range.  Evaluation returns an extended real: indicator-type kinds
yield ``math.inf`` and IEEE arithmetic saturates, so infinite values flow
through compositions without exceptions.

``R(v)`` and ``R.conjugate(xi)`` take one vector and return a float, or a
batch of rows of shape (n, dim) and return one value per row.  The single
vector goes through the same arithmetic as one row of a batch, except where
a matrix product is involved (quadratic forms and the quadratic-pair
inf-convolution), where rows agree with single calls to rounding.

Kinds provided:

* :class:`QuadraticForm`           R(v) = <Vv, v>/2
* :class:`PowerNorm`               R(v) = (1/p) sum_i w_i |v_i|^p
* :class:`AnisotropicDualQuadratic`  defined from R*(xi) = sum_i c_i xi_i^2 / 2
* :class:`OneHomPlusQuad`          R(v) = sum_i w_i (sigma |v_i| + rho v_i^2/2)
* :class:`BlockIndicator`          base potential on an active block, the
  complementary block frozen at rate 0
* :class:`Rescaled`                R~(v) = 2 R(v/2), with conjugate 2 R*(xi)
* :class:`InfConvolution`          (R1 # R2)(v) = min_{v1+v2=v} R1(v1)+R2(v2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, NumericalError

__all__ = [
    "Potential",
    "QuadraticForm",
    "PowerNorm",
    "AnisotropicDualQuadratic",
    "OneHomPlusQuad",
    "BlockIndicator",
    "Rescaled",
    "InfConvolution",
    "Decomposition",
    "QyeFit",
    "PsiMinorant",
    "dual_rate",
    "inf_conv_decompose",
    "fenchel_young_residual",
    "qye_probe",
    "psi_minorant",
    "weighted_norm",
    "weighted_dual_norm",
]


def _as_vector(x, dim, what="vector"):
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != dim:
        raise InputError(f"{what} has length {v.size}, expected {dim}")
    return v


def _value(x):
    """A float for a single-vector result, the array of row values otherwise."""
    return x if isinstance(x, np.ndarray) else float(x)


def _quadratic(x, M):
    """<Mx, x>/2 for one vector or for each row of a batch."""
    if x.ndim == 1:
        return 0.5 * float(x @ M @ x)
    return 0.5 * np.einsum("ij,ij->i", x @ M, x)


def weighted_norm(v, weights=None):
    """Euclidean norm ||w * v||_2; ``weights`` defaults to ones."""
    v = np.asarray(v, dtype=float)
    if weights is None:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(np.asarray(weights) * v))


def weighted_dual_norm(xi, weights=None):
    """Dual norm of :func:`weighted_norm`, i.e. ||xi / w||_2."""
    xi = np.asarray(xi, dtype=float)
    if weights is None:
        return float(np.linalg.norm(xi))
    return float(np.linalg.norm(xi / np.asarray(weights)))


class Potential:
    """Common interface of all dissipation-potential kinds.

    Instances are immutable after construction and all methods are pure,
    so values can be shared freely across concurrent evaluations.
    """

    dim: int

    # -- extended-real primal/dual evaluation --------------------------------

    def __call__(self, v):
        """R(v): a float for one vector, one value per row for an (n, dim) batch."""
        raise NotImplementedError

    def conjugate(self, xi):
        """R*(xi), for one vector or a batch of rows like ``__call__``."""
        raise NotImplementedError

    def dual_rate(self, xi) -> np.ndarray:
        """An element of the conjugate subdifferential at ``xi``."""
        raise NotImplementedError

    # -- smooth structure (used by the inner solvers) -------------------------

    def grad(self, v) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no smooth gradient")

    def hess(self, v) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no smooth Hessian")

    def quadratic_matrix(self):
        """Matrix V with R(v) = <Vv, v>/2, or None if not purely quadratic."""
        return None

    def shrinkage_parts(self):
        """(sigma_weights, quad_diag) for per-coordinate sigma_i|v_i| + q_i v_i^2/2,
        or None when the kind has no such structure."""
        return None

    def _check(self, x, what="v"):
        return _as_vector(x, self.dim, what)

    def _batch(self, x, what="v"):
        """``x`` as one vector, or as a batch of rows when it is two-dimensional."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            return _as_vector(x, self.dim, what)
        if x.shape[1] != self.dim:
            raise InputError(f"{what} rows have length {x.shape[1]}, expected {self.dim}")
        return x


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadraticForm(Potential):
    """R(v) = <Vv, v>/2 for a symmetric positive definite matrix V."""

    V: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if V.shape[0] != V.shape[1]:
            raise ConfigurationError("quadratic form matrix must be square")
        if not np.allclose(V, V.T, atol=1e-12):
            raise ConfigurationError("quadratic form matrix must be symmetric")
        object.__setattr__(self, "V", _freeze(V))
        try:
            object.__setattr__(self, "_Vinv", _freeze(np.linalg.inv(V)))
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("quadratic form matrix is singular") from exc

    @property
    def dim(self):
        return self.V.shape[0]

    def __call__(self, v):
        return _quadratic(self._batch(v), self.V)

    def conjugate(self, xi):
        return _quadratic(self._batch(xi, "xi"), self._Vinv)

    def dual_rate(self, xi):
        xi = self._check(xi, "xi")
        return self._Vinv @ xi

    def grad(self, v):
        return self.V @ self._check(v)

    def hess(self, v):
        return np.array(self.V)

    def quadratic_matrix(self):
        return np.array(self.V)


@dataclass(frozen=True)
class PowerNorm(Potential):
    """R(v) = (1/p) sum_i w_i |v_i|^p with p > 1 and positive weights.

    With w_i the quadrature weights of a 1D mesh this is the discrete
    (1/p)||v||_{L^p}^p dissipation.
    """

    p: float
    weights: np.ndarray

    def __init__(self, p, weights=None, dim=None):
        if p <= 1:
            raise ConfigurationError(f"PowerNorm exponent must exceed 1, got {p}")
        if weights is None:
            weights = np.ones(1 if dim is None else dim)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if np.any(w <= 0):
            raise ConfigurationError("PowerNorm weights must be positive")
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def dim(self):
        return self.weights.size

    @property
    def p_star(self):
        return self.p / (self.p - 1.0)

    def __call__(self, v):
        v = self._batch(v)
        return _value((self.weights * np.abs(v) ** self.p).sum(axis=-1) / self.p)

    def conjugate(self, xi):
        xi = self._batch(xi, "xi")
        q = self.p_star
        return _value((self.weights * (np.abs(xi) / self.weights) ** q).sum(axis=-1) / q)

    def dual_rate(self, xi):
        xi = self._check(xi, "xi")
        s = np.abs(xi) / self.weights
        return np.sign(xi) * s ** (self.p_star - 1.0)

    def grad(self, v):
        v = self._check(v)
        return self.weights * np.sign(v) * np.abs(v) ** (self.p - 1.0)

    def hess(self, v):
        v = self._check(v)
        # For p < 2 the curvature blows up at v_i = 0; clamp for Newton use.
        with np.errstate(divide="ignore"):
            d = self.weights * (self.p - 1.0) * np.abs(v) ** (self.p - 2.0)
        return np.diag(np.minimum(d, 1e12))

    def quadratic_matrix(self):
        if self.p == 2.0:
            return np.diag(self.weights)
        return None


@dataclass(frozen=True)
class AnisotropicDualQuadratic(Potential):
    """Potential defined through its conjugate R*(xi) = sum_i c_i xi_i^2 / 2.

    The primal is R(v) = sum_i v_i^2 / (2 c_i); for two coordinates the dual
    weights are conventionally written (a, b).
    """

    dual_weights: np.ndarray

    def __init__(self, dual_weights):
        c = np.asarray(dual_weights, dtype=float).reshape(-1)
        if np.any(c <= 0):
            raise ConfigurationError("dual weights must be positive")
        object.__setattr__(self, "dual_weights", _freeze(c))

    @property
    def dim(self):
        return self.dual_weights.size

    def __call__(self, v):
        v = self._batch(v)
        return _value((v**2 / self.dual_weights).sum(axis=-1) / 2.0)

    def conjugate(self, xi):
        xi = self._batch(xi, "xi")
        return _value((self.dual_weights * xi**2).sum(axis=-1) / 2.0)

    def dual_rate(self, xi):
        xi = self._check(xi, "xi")
        return self.dual_weights * xi

    def grad(self, v):
        return self._check(v) / self.dual_weights

    def hess(self, v):
        return np.diag(1.0 / self.dual_weights)

    def quadratic_matrix(self):
        return np.diag(1.0 / self.dual_weights)


@dataclass(frozen=True)
class OneHomPlusQuad(Potential):
    """R(v) = sum_i w_i (sigma |v_i| + rho v_i^2 / 2): yield plus viscosity.

    Conjugate and dual rate are the classical shrinkage formulas: the dual
    rate is sign(s) max(|s| - sigma, 0)/rho with s = xi_i / w_i.
    """

    sigma: float
    rho: float
    weights: np.ndarray

    def __init__(self, sigma, rho, weights=None, dim=None):
        if sigma < 0:
            raise ConfigurationError("yield stress sigma must be nonnegative")
        if rho <= 0:
            raise ConfigurationError("viscosity rho must be positive")
        if weights is None:
            weights = np.ones(1 if dim is None else dim)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if np.any(w <= 0):
            raise ConfigurationError("weights must be positive")
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def dim(self):
        return self.weights.size

    def __call__(self, v):
        v = self._batch(v)
        terms = self.weights * (self.sigma * np.abs(v) + 0.5 * self.rho * v**2)
        return _value(terms.sum(axis=-1))

    def conjugate(self, xi):
        xi = self._batch(xi, "xi")
        s = np.abs(xi) / self.weights
        shrunk = np.maximum(s - self.sigma, 0.0)
        return _value((self.weights * shrunk**2 / (2.0 * self.rho)).sum(axis=-1))

    def dual_rate(self, xi):
        xi = self._check(xi, "xi")
        s = xi / self.weights
        return np.sign(s) * np.maximum(np.abs(s) - self.sigma, 0.0) / self.rho

    def shrinkage_parts(self):
        return self.sigma * self.weights, self.rho * self.weights


@dataclass(frozen=True)
class BlockIndicator(Potential):
    """Base potential on an active block; the complementary block is frozen.

    R(v) = base(v_active) if v_frozen = 0, +inf otherwise.  The conjugate
    ignores the frozen dual components entirely (the sup over a frozen rate
    is taken at 0), and the dual rate is 0 there.
    """

    base: Potential
    active: np.ndarray
    total_dim: int

    def __init__(self, base, active, total_dim):
        idx = np.asarray(active, dtype=int).reshape(-1)
        if idx.size != base.dim:
            raise ConfigurationError("active index set must match base dimension")
        if idx.size and (idx.min() < 0 or idx.max() >= total_dim):
            raise ConfigurationError("active indices out of range")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "active", _freeze(idx).astype(int))
        object.__setattr__(self, "total_dim", int(total_dim))
        frozen = np.setdiff1d(np.arange(total_dim), idx)
        object.__setattr__(self, "frozen", _freeze(frozen).astype(int))

    @property
    def dim(self):
        return self.total_dim

    def __call__(self, v):
        v = self._batch(v)
        if v.ndim == 1:
            if np.any(v[self.frozen] != 0.0):
                return math.inf
            return self.base(v[self.active])
        out = np.full(len(v), math.inf)
        still = ~np.any(v[:, self.frozen] != 0.0, axis=1)
        out[still] = self.base(v[np.ix_(still, self.active)])
        return out

    def conjugate(self, xi):
        xi = self._batch(xi, "xi")
        return self.base.conjugate(xi[..., self.active])

    def dual_rate(self, xi):
        xi = self._check(xi, "xi")
        out = np.zeros(self.total_dim)
        out[self.active] = self.base.dual_rate(xi[self.active])
        return out


@dataclass(frozen=True)
class Rescaled(Potential):
    """R~(v) = 2 R(v/2); the conjugate doubles, R~*(xi) = 2 R*(xi).

    This is the half-interval rescaling used by the alternating schemes: a
    step of R~ over half an interval moves like a full step of R.
    """

    base: Potential

    @property
    def dim(self):
        return self.base.dim

    def __call__(self, v):
        v = self._batch(v)
        return 2.0 * self.base(0.5 * v)

    def conjugate(self, xi):
        return 2.0 * self.base.conjugate(xi)

    def dual_rate(self, xi):
        return 2.0 * self.base.dual_rate(xi)

    def grad(self, v):
        return self.base.grad(0.5 * self._check(v))

    def hess(self, v):
        return 0.5 * self.base.hess(0.5 * self._check(v))

    def quadratic_matrix(self):
        V = self.base.quadratic_matrix()
        return None if V is None else 0.5 * V

    def shrinkage_parts(self):
        parts = self.base.shrinkage_parts()
        if parts is None:
            return None
        sigma_w, quad_w = parts
        # 2 [sigma|v/2| + rho (v/2)^2/2] = sigma|v| + (rho/2) v^2/2
        return np.array(sigma_w), 0.5 * np.array(quad_w)


@dataclass(frozen=True)
class InfConvolution(Potential):
    """Infimal convolution of two potentials sharing one state space.

    Evaluation minimizes R1(v1) + R2(v - v1) over v1; the conjugate is the
    sum of the member conjugates and the dual rate is the sum of the member
    dual rates.
    """

    left: Potential
    right: Potential

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise ConfigurationError("inf-convolution members must share a dimension")
        V1 = self.left.quadratic_matrix()
        V2 = self.right.quadratic_matrix()
        V = None
        if V1 is not None and V2 is not None:
            V = _freeze(np.linalg.inv(np.linalg.inv(V1) + np.linalg.inv(V2)))
        object.__setattr__(self, "_V", V)

    @property
    def dim(self):
        return self.left.dim

    def __call__(self, v):
        """The inf-convolution value; rows of a batch without a closed-form
        split are decomposed one at a time."""
        v = self._batch(v)
        if v.ndim == 1:
            return inf_conv_decompose(self, v, tol=1e-10).value
        split = _closed_form_split(self, v)
        if split is None:
            return np.array([inf_conv_decompose(self, row, tol=1e-10).value for row in v])
        return self.left(split[0]) + self.right(split[1])

    def conjugate(self, xi):
        return self.left.conjugate(xi) + self.right.conjugate(xi)

    def dual_rate(self, xi):
        return self.left.dual_rate(xi) + self.right.dual_rate(xi)

    def quadratic_matrix(self):
        return self._V

    def grad(self, v):
        V = self.quadratic_matrix()
        if V is not None:
            return V @ self._check(v)
        dec = inf_conv_decompose(self, v, tol=1e-12)
        # Envelope: the gradient of the value equals the shared dual variable.
        smooth = self.right if self.right.shrinkage_parts() is None else self.left
        part = dec.v2 if smooth is self.right else dec.v1
        return smooth.grad(part)

    def hess(self, v):
        V = self.quadratic_matrix()
        if V is not None:
            return np.array(V)
        # resolvent combination of the member curvatures at the optimal split
        dec = inf_conv_decompose(self, v, tol=1e-10)
        eps = 1e-10 * np.eye(self.dim)
        H1 = self.left.hess(dec.v1) + eps
        H2 = self.right.hess(dec.v2) + eps
        return np.linalg.inv(np.linalg.inv(H1) + np.linalg.inv(H2))

    def _complementary_blocks(self):
        if isinstance(self.left, BlockIndicator) and isinstance(
            self.right, BlockIndicator
        ):
            if (
                np.array_equal(self.left.frozen, self.right.active)
                and np.array_equal(self.right.frozen, self.left.active)
            ):
                return self.left, self.right
        return None


@dataclass(frozen=True)
class Decomposition:
    """Optimal split v = v1 + v2 realizing an inf-convolution value."""

    v1: np.ndarray
    v2: np.ndarray
    value: float
    gap: float = 0.0


def dual_rate(P: Potential, xi) -> np.ndarray:
    """An element of the conjugate subdifferential at xi."""
    return P.dual_rate(xi)


def fenchel_young_residual(P: Potential, v, xi) -> float:
    """R(v) + R*(xi) - <xi, v>; nonnegative, zero iff xi lies in dR(v)."""
    v = _as_vector(v, P.dim, "v")
    xi = _as_vector(xi, P.dim, "xi")
    val = P(v)
    if not math.isfinite(val):
        raise InputError("fenchel_young_residual requires a finite primal value")
    return val + P.conjugate(xi) - float(xi @ v)


def inf_conv_decompose(P: InfConvolution, v, tol: float = 1e-10) -> Decomposition:
    """Minimize R1(v1) + R2(v - v1); returns the split and its value.

    Closed forms cover quadratic pairs and complementary block indicators;
    otherwise an accelerated proximal-gradient iteration runs until the
    Fenchel duality gap drops below ``tol``.
    """
    if not isinstance(P, InfConvolution):
        raise InputError("inf_conv_decompose requires an InfConvolution potential")
    if tol <= 0:
        raise InputError("tolerance must be positive")
    v = _as_vector(v, P.dim, "v")
    R1, R2 = P.left, P.right
    split = _closed_form_split(P, v)
    if split is not None:
        v1, v2 = split
        return Decomposition(v1, v2, R1(v1) + R2(v2), 0.0)
    return _decompose_fista(R1, R2, v, tol)


def _closed_form_split(P, v):
    """The optimal split (v1, v2) of one vector or of each row of a batch,
    for complementary block indicators or a quadratic pair; None otherwise."""
    blocks = P._complementary_blocks()
    if blocks is not None:
        b1, b2 = blocks
        v1 = np.zeros_like(v)
        v2 = np.zeros_like(v)
        v1[..., b1.active] = v[..., b1.active]
        v2[..., b2.active] = v[..., b2.active]
        return v1, v2

    V1 = P.left.quadratic_matrix()
    V2 = P.right.quadratic_matrix()
    if V1 is None or V2 is None:
        return None
    if v.ndim == 1:
        v1 = np.linalg.solve(V1 + V2, V2 @ v)
    else:
        v1 = np.linalg.solve(V1 + V2, V2 @ v.T).T
    return v1, v - v1


def _duality_gap(R1, R2, v, v1, xi):
    primal = R1(v1) + R2(v - v1)
    dual = float(xi @ v) - R1.conjugate(xi) - R2.conjugate(xi)
    return primal - dual, primal


def _decompose_fista(R1, R2, v, tol, max_iter=20000):
    # Put a shrinkage-structured member, if any, on the prox side.
    swapped = False
    if R1.shrinkage_parts() is not None and R2.shrinkage_parts() is None:
        R1, R2 = R2, R1
        swapped = True
    parts = R2.shrinkage_parts()

    if parts is None:
        try:
            return _decompose_newton(R1, R2, v, tol, swapped)
        except NotImplementedError:
            pass

    # Curvature bound for the gradient step.
    try:
        L = float(np.linalg.norm(R1.hess(v), 2))
        if parts is None:
            L += float(np.linalg.norm(R2.hess(np.zeros_like(v)), 2))
    except NotImplementedError:
        L = 1.0
    L = max(L, 1e-8)

    def objective(v1):
        return R1(v1) + R2(v - v1)

    def prox_map(y, step):
        if parts is None:
            return y
        sigma_w, quad_w = parts
        # v2 = v - v1: minimize over v1 the shrinkage term in v2.
        v2 = v - y
        denom = 1.0 + step * quad_w
        v2 = np.sign(v2) * np.maximum(np.abs(v2) - step * sigma_w, 0.0) / denom
        return v - v2

    x = 0.5 * v
    y = x.copy()
    t_mom = 1.0
    gap = math.inf
    for it in range(max_iter):
        if parts is None:
            g = R1.grad(y) - R2.grad(v - y)
            x_new = y - g / L
        else:
            g = R1.grad(y)
            x_new = prox_map(y - g / L, 1.0 / L)
            if objective(x_new) > objective(y) + 1e-15:
                L *= 2.0
                continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
        y = x_new + (t_mom - 1.0) / t_new * (x_new - x)
        x, t_mom = x_new, t_new
        if it % 8 == 0 or it == max_iter - 1:
            xi = R1.grad(x) if parts is not None else R2.grad(v - x)
            gap, _ = _duality_gap(R1, R2, v, x, xi)
            if gap <= tol:
                break
    else:
        raise NumericalError(
            "inf-convolution minimization stagnated", gap=gap, best=x
        )
    if gap > tol:
        raise NumericalError("inf-convolution minimization stagnated", gap=gap, best=x)
    v1 = v - x if swapped else x
    v2 = x if swapped else v - x
    if swapped:
        R1, R2 = R2, R1
    return Decomposition(v1, v2, R1(v1) + R2(v2), gap)


def _decompose_newton(R1, R2, v, tol, swapped, max_iter=200):
    """Damped Newton on v1 for a smooth pair, stopped on the duality gap."""
    v1 = 0.5 * v
    n = v1.size
    gap = math.inf
    for it in range(max_iter):
        xi = R2.grad(v - v1)
        gap, _ = _duality_gap(R1, R2, v, v1, xi)
        if gap <= tol:
            break
        g = R1.grad(v1) - xi
        H = R1.hess(v1) + R2.hess(v - v1)
        try:
            step = np.linalg.solve(H + 1e-12 * np.eye(n), -g)
        except np.linalg.LinAlgError:
            step = -g
        f0 = R1(v1) + R2(v - v1)
        alpha = 1.0
        slack = 16.0 * np.finfo(float).eps * (1.0 + abs(f0))
        for _ in range(40):
            trial = v1 + alpha * step
            if R1(trial) + R2(v - trial) <= f0 + 1e-4 * alpha * float(g @ step) + slack:
                v1 = trial
                break
            alpha *= 0.5
        else:
            v1 = v1 + step
    else:
        raise NumericalError("inf-convolution newton stagnated", gap=gap, best=v1)
    if gap > tol:
        raise NumericalError("inf-convolution newton stagnated", gap=gap, best=v1)
    a, b = (v - v1, v1) if swapped else (v1, v - v1)
    if swapped:
        R1, R2 = R2, R1
    return Decomposition(a, b, R1(a) + R2(b), gap)


@dataclass(frozen=True)
class QyeFit:
    """Fitted constants of the estimate R(v) + R*(xi) >= c ||v|| ||xi||_* - C."""

    c_est: float
    C_est: float
    worst_pair: tuple


def qye_probe(P: Potential, samples, weights=None) -> QyeFit:
    """Fit the largest c and smallest C >= 0 valid on the sample.

    The offset C is taken from a small quantile (1%) of the violation
    distribution at c = 0 (identically zero for nonnegative potentials).
    Then c is the largest value, at least 0, for which every sampled pair
    satisfies R(v) + R*(xi) + C >= c ||v|| ||xi||_* up to a rounding
    tolerance of 1e-14 (1 + |R(v) + R*(xi)|).
    """
    pairs = [(np.asarray(v, float), np.asarray(xi, float)) for v, xi in samples]
    if not pairs:
        raise InputError("qye_probe needs a nonempty sample list")
    s_vals = np.array([P(v) + P.conjugate(xi) for v, xi in pairs])
    g_vals = np.array(
        [weighted_norm(v, weights) * weighted_dual_norm(xi, weights) for v, xi in pairs]
    )
    if np.all(g_vals == 0.0):
        raise InputError("qye_probe needs at least one pair with nonzero norms")

    violations_at_c0 = np.maximum(0.0, -s_vals)
    C_est = float(np.quantile(violations_at_c0, 0.99))

    mask = g_vals > 0.0
    s, g = s_vals[mask], g_vals[mask]
    ratios = (s + C_est) / g
    c_est = max(0.0, float(np.min((s + C_est + 1e-14 * (1.0 + np.abs(s))) / g)))

    worst = int(np.argmin(ratios))
    worst_pair = [p for p, m in zip(pairs, mask) if m][worst]
    return QyeFit(float(c_est), C_est, (worst_pair[0], worst_pair[1]))


@dataclass
class PsiMinorant:
    """Piecewise-linear lower envelope Psi(r) = max_K (K r - S_K).

    Convex and nondecreasing by construction, with Psi(0) = 0.  The S_K
    are certified only on the sampled ball, whose radius is recorded.
    """

    K_grid: np.ndarray
    S_values: np.ndarray
    sample_radius: float

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        vals = np.max(
            self.K_grid[:, None] * r.reshape(1, -1) - self.S_values[:, None], axis=0
        )
        return float(vals[0]) if r.ndim == 0 else vals.reshape(r.shape)


def psi_minorant(
    potentials,
    K_grid,
    sample_radius,
    weights=None,
    seed=0,
    n_radii=512,
    n_directions=16,
) -> PsiMinorant:
    """Sampled superlinear minorant shared by a family of potentials.

    For each K the constant S_K estimates the largest violation of
    K||v|| - R_j(v) and K||xi||_* - R_j*(xi) over a ball of the given
    radius, so that Psi(||v||) <= R_j(v) and Psi(||xi||_*) <= R_j*(xi)
    hold on the sample for every member j.
    """
    K = np.asarray(K_grid, dtype=float).reshape(-1)
    if K.size == 0:
        raise InputError("psi_minorant needs a nonempty K grid")
    if K[0] != 0.0 or np.any(np.diff(K) <= 0) or np.any(K < 0):
        raise InputError("K grid must be nonnegative, increasing, and include 0")
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, sample_radius, n_radii)

    S = np.zeros_like(K)
    for P in potentials:
        dirs = rng.standard_normal((n_directions, P.dim))
        dirs = np.vstack([dirs, np.eye(P.dim), -np.eye(P.dim)])
        for d in dirs:
            nd = weighted_norm(d, weights)
            dd = weighted_dual_norm(d, weights)
            if nd == 0.0 or dd == 0.0:
                continue
            for r in radii:
                vp = (r / nd) * d
                xp = (r / dd) * d
                Rv = P(vp)
                Rx = P.conjugate(xp)
                if math.isfinite(Rv):
                    S = np.maximum(S, K * r - Rv)
                if math.isfinite(Rx):
                    S = np.maximum(S, K * r - Rx)
    S = np.maximum(S, 0.0)
    return PsiMinorant(K, S, float(sample_radius))
