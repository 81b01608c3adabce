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
inf-convolution), where rows agree with single calls to rounding.  The
smooth kinds' ``grad`` and ``hess`` take batches as well, returning arrays
of shape (n, dim) and (n, dim, dim).

:class:`Potential` owns these checked entries: each checks its input once
and calls a core of the kind (``_eval``, ``_conjugate``, ``_dual_rate``,
``_grad``) or, for ``hess``, the Hessian parts.  A kind states only its
cores, which take checked input, so the composite kinds and the Newton
kernels call them directly.

Kinds provided:

* :class:`QuadraticForm`           R(v) = <Vv, v>/2
* :class:`PowerNorm`               R(v) = (1/p) sum_i w_i |v_i|^p
* :class:`AnisotropicDualQuadratic`  defined from R*(xi) = sum_i c_i xi_i^2 / 2
* :class:`OneHomPlusQuad`          R(v) = sum_i w_i (sigma |v_i| + rho v_i^2/2)
* :class:`BlockIndicator`          base potential on an active block, the
  complementary block frozen at rate 0
* :class:`InfConvolution`          (R1 # R2)(v) = min_{v1+v2=v} R1(v1)+R2(v2)

Every kind is closed under the half-interval rescaling R~(v) = 2 R(v/2) of
the alternating schemes, whose conjugate is 2 R*(xi): ``R.rescaled()``
returns R~ as a potential of R's own kind.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, Frozen, InputError, NumericalError
from .newton import ARMIJO, accepts, armijo_constant, newton_step

__all__ = [
    "Potential",
    "QuadraticForm",
    "PowerNorm",
    "AnisotropicDualQuadratic",
    "OneHomPlusQuad",
    "BlockIndicator",
    "InfConvolution",
    "Decomposition",
    "QyeFit",
    "PsiMinorant",
    "inf_conv_decompose",
    "fenchel_young_residual",
    "qye_probe",
    "psi_minorant",
    "weighted_norm",
    "weighted_dual_norm",
]

_FLOAT = np.dtype(float)
_TINY = float(np.finfo(float).tiny)


def _is_vector(x, dim):
    """True for a float64 ndarray of shape (dim,), which passes checks as is."""
    return type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT and len(x) == dim


def _as_vector(x, dim, what="vector"):
    if _is_vector(x, dim):
        return x
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


def _norm(x):
    """Euclidean norm of one vector, or of each row of a batch."""
    return np.linalg.norm(x, axis=1) if x.ndim == 2 else float(np.linalg.norm(x))


def weighted_norm(v, weights=None):
    """Euclidean norm ||w * v||_2, of one vector or of each row of a batch;
    ``weights`` defaults to ones."""
    v = np.asarray(v, dtype=float)
    return _norm(v if weights is None else np.asarray(weights) * v)


def weighted_dual_norm(xi, weights=None):
    """Dual norm of :func:`weighted_norm`, i.e. ||xi / w||_2."""
    xi = np.asarray(xi, dtype=float)
    return _norm(xi if weights is None else xi / np.asarray(weights))


class Potential(Frozen):
    """Common interface of all dissipation-potential kinds.

    Instances are immutable after construction and all methods are pure,
    so values can be shared freely across concurrent evaluations.
    """

    dim: int

    # -- checked entries: each checks its input once and calls a core --------

    def __call__(self, v):
        """R(v): a float for one vector, one value per row for an (n, dim) batch."""
        return _value(self._eval(self._batch(v)))

    def conjugate(self, xi):
        """R*(xi), for one vector or a batch of rows like ``__call__``."""
        return _value(self._conjugate(self._batch(xi, "xi")))

    def dual_rate(self, xi) -> np.ndarray:
        """An element of the conjugate subdifferential at ``xi``."""
        return self._dual_rate(self._check(xi, "xi"))

    def grad(self, v) -> np.ndarray:
        """dR(v) for one vector; rows of shape (n, dim) for a batch."""
        return self._grad(self._batch(v))

    def hess(self, v) -> np.ndarray:
        """The Hessian at v, built from its parts; shape (n, dim, dim) for a batch."""
        v = self._batch(v)
        H = self.hess_constant()
        H = np.array(H) if v.ndim == 1 else np.repeat(H[None], len(v), axis=0)
        i = np.arange(H.shape[-1])
        H[..., i, i] = self._hess_diagonal(v)
        return H

    def quadratic_matrix(self):
        """Matrix V with R(v) = <Vv, v>/2, or None if not purely quadratic."""
        return None

    def shrinkage_parts(self):
        """(sigma_weights, quad_diag) for per-coordinate sigma_i|v_i| + q_i v_i^2/2,
        or None when the kind has no such structure."""
        return None

    def rescaled(self) -> Potential:
        """R~(v) = 2 R(v/2), a potential of this kind; its conjugate is 2 R*."""
        raise NotImplementedError

    # -- cores: unchecked, one vector or a batch of rows (``_dual_rate`` one) --

    def _eval(self, v):
        raise NotImplementedError

    def _conjugate(self, xi):
        raise NotImplementedError

    def _dual_rate(self, xi):
        raise NotImplementedError

    def _grad(self, v):
        raise NotImplementedError(f"{type(self).__name__} has no smooth gradient")

    # -- Hessian parts (used by ``hess`` and the Newton kernels) ---------------

    def hess_constant(self):
        """The part of the Hessian that does not depend on v: the Hessian at
        any v is this matrix with its diagonal replaced by the diagonal at v."""
        raise NotImplementedError(f"{type(self).__name__} has no smooth Hessian")

    def _hess_diagonal(self, v):
        """The Hessian's diagonal at v, unchecked; one row per row of a batch."""
        raise NotImplementedError(f"{type(self).__name__} has no smooth Hessian")

    def _check(self, x, what="v"):
        return x if _is_vector(x, self.dim) else _as_vector(x, self.dim, what)

    def _batch(self, x, what="v"):
        """``x`` as one vector, or as a batch of rows when it is two-dimensional."""
        if _is_vector(x, self.dim):
            return x
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


class QuadraticForm(Potential):
    """R(v) = <Vv, v>/2 for a symmetric positive definite matrix V."""

    def __init__(self, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if V.shape[0] != V.shape[1]:
            raise ConfigurationError("quadratic form matrix must be square")
        if not np.allclose(V, V.T, atol=1e-12):
            raise ConfigurationError("quadratic form matrix must be symmetric")
        object.__setattr__(self, "V", _freeze(V))
        object.__setattr__(self, "_V_diagonal", np.diag(self.V))
        try:
            object.__setattr__(self, "_Vinv", _freeze(np.linalg.inv(V)))
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("quadratic form matrix is singular") from exc

    @property
    def dim(self):
        return self.V.shape[0]

    def _eval(self, v):
        return _quadratic(v, self.V)

    def _conjugate(self, xi):
        return _quadratic(xi, self._Vinv)

    def _dual_rate(self, xi):
        return self._Vinv @ xi

    def _grad(self, v):
        return self.V @ v if v.ndim == 1 else v @ self.V.T

    def hess_constant(self):
        return self.V

    def _hess_diagonal(self, v):
        return self._V_diagonal

    def quadratic_matrix(self):
        return np.array(self.V)

    def rescaled(self):
        return QuadraticForm(0.5 * self.V)


class PowerNorm(Potential):
    """R(v) = (1/p) sum_i w_i |v_i|^p with p > 1 and positive weights.

    With w_i the quadrature weights of a 1D mesh this is the discrete
    (1/p)||v||_{L^p}^p dissipation.
    """

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
        object.__setattr__(self, "_curvature", _freeze(w * (self.p - 1.0)))

    @property
    def dim(self):
        return self.weights.size

    @property
    def p_star(self):
        return self.p / (self.p - 1.0)

    def _eval(self, v):
        return (self.weights * np.abs(v) ** self.p).sum(axis=-1) / self.p

    def _conjugate(self, xi):
        q = self.p_star
        return (self.weights * (np.abs(xi) / self.weights) ** q).sum(axis=-1) / q

    def _dual_rate(self, xi):
        s = np.abs(xi) / self.weights
        return np.sign(xi) * s ** (self.p_star - 1.0)

    def _grad(self, v):
        return self.weights * np.sign(v) * np.abs(v) ** (self.p - 1.0)

    def hess_constant(self):
        return np.zeros((self.dim, self.dim))

    def _hess_diagonal(self, v):
        # For p < 2 the curvature blows up at v_i = 0; clamp for Newton use.
        if self.p >= 2.0:
            return np.minimum(self._curvature * np.abs(v) ** (self.p - 2.0), 1e12)
        with np.errstate(divide="ignore"):
            d = self._curvature * np.abs(v) ** (self.p - 2.0)
        return np.minimum(d, 1e12)

    def quadratic_matrix(self):
        if self.p == 2.0:
            return np.diag(self.weights)
        return None

    def rescaled(self):
        """The weights 2^(1-p) w; an exponent above the one at which they
        leave the normal floats raises :class:`ConfigurationError`."""
        weights = 2.0 ** (1.0 - self.p) * self.weights
        if weights.min() < _TINY:
            limit = 1.0 + math.log2(self.weights.min()) - math.log2(_TINY)
            raise ConfigurationError(
                f"PowerNorm exponent p = {self.p:g} is above {limit:g}, the largest "
                "whose rescaled weights 2^(1-p) w are normal floats")
        return PowerNorm(self.p, weights)


class AnisotropicDualQuadratic(Potential):
    """Potential defined through its conjugate R*(xi) = sum_i c_i xi_i^2 / 2.

    The primal is R(v) = sum_i v_i^2 / (2 c_i); for two coordinates the dual
    weights are conventionally written (a, b).
    """

    def __init__(self, dual_weights):
        c = np.asarray(dual_weights, dtype=float).reshape(-1)
        if np.any(c <= 0):
            raise ConfigurationError("dual weights must be positive")
        object.__setattr__(self, "dual_weights", _freeze(c))
        object.__setattr__(self, "_curvature", _freeze(1.0 / c))

    @property
    def dim(self):
        return self.dual_weights.size

    def _eval(self, v):
        return (v**2 / self.dual_weights).sum(axis=-1) / 2.0

    def _conjugate(self, xi):
        return (self.dual_weights * xi**2).sum(axis=-1) / 2.0

    def _dual_rate(self, xi):
        return self.dual_weights * xi

    def _grad(self, v):
        return v / self.dual_weights

    def hess_constant(self):
        return np.diag(self._curvature)

    def _hess_diagonal(self, v):
        return self._curvature

    def quadratic_matrix(self):
        return np.diag(self._curvature)

    def rescaled(self):
        return AnisotropicDualQuadratic(2.0 * self.dual_weights)


class OneHomPlusQuad(Potential):
    """R(v) = sum_i w_i (sigma |v_i| + rho v_i^2 / 2): yield plus viscosity.

    Conjugate and dual rate are the classical shrinkage formulas: the dual
    rate is sign(s) max(|s| - sigma, 0)/rho with s = xi_i / w_i.
    """

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

    def _eval(self, v):
        terms = self.weights * (self.sigma * np.abs(v) + 0.5 * self.rho * v**2)
        return terms.sum(axis=-1)

    def _conjugate(self, xi):
        s = np.abs(xi) / self.weights
        shrunk = np.maximum(s - self.sigma, 0.0)
        return (self.weights * shrunk**2 / (2.0 * self.rho)).sum(axis=-1)

    def _dual_rate(self, xi):
        s = xi / self.weights
        return np.sign(s) * np.maximum(np.abs(s) - self.sigma, 0.0) / self.rho

    def shrinkage_parts(self):
        return self.sigma * self.weights, self.rho * self.weights

    def rescaled(self):
        # 2 [sigma |v/2| + rho (v/2)^2 / 2] = sigma |v| + (rho/2) v^2 / 2
        return OneHomPlusQuad(self.sigma, 0.5 * self.rho, self.weights)


class BlockIndicator(Potential):
    """Base potential on an active block; the complementary block is frozen.

    R(v) = base(v_active) if v_frozen = 0, +inf otherwise.  The conjugate
    ignores the frozen dual components entirely (the sup over a frozen rate
    is taken at 0), and the dual rate is 0 there.
    """

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

    def _eval(self, v):
        if v.ndim == 1:
            if np.any(v[self.frozen] != 0.0):
                return math.inf
            return self.base._eval(v[self.active])
        out = np.full(len(v), math.inf)
        still = ~np.any(v[:, self.frozen] != 0.0, axis=1)
        out[still] = self.base._eval(v[np.ix_(still, self.active)])
        return out

    def _conjugate(self, xi):
        return self.base._conjugate(xi[..., self.active])

    def _dual_rate(self, xi):
        out = np.zeros(self.total_dim)
        out[self.active] = self.base._dual_rate(xi[self.active])
        return out

    def rescaled(self):
        return BlockIndicator(self.base.rescaled(), self.active, self.total_dim)


class InfConvolution(Potential):
    """Infimal convolution of two potentials sharing one state space.

    Evaluation minimizes R1(v1) + R2(v - v1) over v1; the conjugate is the
    sum of the member conjugates and the dual rate is the sum of the member
    dual rates.
    """

    def __init__(self, left, right):
        if left.dim != right.dim:
            raise ConfigurationError("inf-convolution members must share a dimension")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        V1 = left.quadratic_matrix()
        V2 = right.quadratic_matrix()
        V = None
        if V1 is not None and V2 is not None:
            V = _freeze(np.linalg.inv(np.linalg.inv(V1) + np.linalg.inv(V2)))
        object.__setattr__(self, "_V", V)
        object.__setattr__(self, "_V_diagonal", None if V is None else np.diag(V))

    @property
    def dim(self):
        return self.left.dim

    def _eval(self, v):
        """The inf-convolution value; a batch without a closed-form split is
        decomposed by one call for all its rows.

        One vector of a quadratic pair is <V v, v>/2 with the combined matrix
        V, the value whose gradient and Hessian ``grad`` and ``hess`` give.
        """
        if v.ndim == 1 and self._V is not None:
            return _quadratic(v, self._V)
        split = None if v.ndim == 1 else _closed_form_split(self, v)
        if split is None:
            return inf_conv_decompose(self, v, tol=1e-10).value
        return self.left._eval(split[0]) + self.right._eval(split[1])

    def _conjugate(self, xi):
        return self.left._conjugate(xi) + self.right._conjugate(xi)

    def _dual_rate(self, xi):
        return self.left._dual_rate(xi) + self.right._dual_rate(xi)

    def _grad(self, v):
        if self._V is not None:
            return self._V @ v if v.ndim == 1 else v @ self._V.T
        dec = inf_conv_decompose(self, v, tol=1e-12)
        # Envelope: the gradient of the value equals the shared dual variable.
        smooth = self.right if self.right.shrinkage_parts() is None else self.left
        return smooth._grad(dec.v2 if smooth is self.right else dec.v1)

    def quadratic_matrix(self):
        return self._V

    def hess_constant(self):
        # only a quadratic pair has a constant Hessian; a smooth pair's prox
        # runs Newton on the members (``solvers._infconv_prox``)
        if self._V is None:
            raise NotImplementedError("only a quadratic inf-convolution has Hessian parts")
        return self._V

    def _hess_diagonal(self, v):
        return self._V_diagonal

    def rescaled(self):
        # 2 (R1 # R2)(v/2) = min over v1 + v2 = v of 2 R1(v1/2) + 2 R2(v2/2)
        return InfConvolution(self.left.rescaled(), self.right.rescaled())

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


class Decomposition(Frozen):
    """Optimal split v = v1 + v2 realizing an inf-convolution value.

    For a batch of rows, ``v1`` and ``v2`` hold the splits row by row and
    ``value`` and ``gap`` hold one entry per row.
    """

    def __init__(self, v1, v2, value, gap=0.0):
        for name, val in (("v1", v1), ("v2", v2), ("value", value), ("gap", gap)):
            object.__setattr__(self, name, val)


def fenchel_young_residual(P: Potential, v, xi) -> float:
    """R(v) + R*(xi) - <xi, v>; nonnegative, zero iff xi lies in dR(v)."""
    v = _as_vector(v, P.dim, "v")
    xi = _as_vector(xi, P.dim, "xi")
    val = P(v)
    if not math.isfinite(val):
        raise InputError("fenchel_young_residual requires a finite primal value")
    return val + P.conjugate(xi) - float(xi @ v)


# Rows per Newton pass (arrays of rows * dim floats), per stack of a dense
# pair's Hessians (rows * dim**2 floats), and the fewest active rows whose
# tridiagonal steps are eliminated: below 30 rows at dim 16 the stacked solve
# is faster.
_NEWTON_BLOCK = 512
_DENSE_BLOCK = 64
_ELIMINATION_ROWS = 32


def inf_conv_decompose(P: InfConvolution, v, tol: float = 1e-10) -> Decomposition:
    """Minimize R1(v1) + R2(v - v1); returns the split and its value.

    ``v`` is one vector, or a batch of rows of shape (n, dim) that is
    decomposed row by row.  Closed forms cover quadratic pairs and
    complementary block indicators.  A pair of separable members splits
    coordinate by coordinate at the root of the summed dual rates (see
    :func:`_decompose_dual_root`).  Any other smooth pair runs one damped
    Newton iteration over each block of rows (see :func:`_decompose_newton`;
    a failure names a row of the first block that fails); a pair with a
    shrinkage member runs an accelerated proximal-gradient iteration per
    row.  Both stop once a row's Fenchel duality gap drops below ``tol``, a
    positive finite number.  A row that repeats the row before it bit for
    bit is decomposed once with it.
    """
    if not isinstance(P, InfConvolution):
        raise InputError("inf_conv_decompose requires an InfConvolution potential")
    if not 0.0 < tol < math.inf:
        raise InputError(f"tolerance must be a positive finite number, not {tol}")
    v = P._batch(v)
    R1, R2 = P.left, P.right
    split = _closed_form_split(P, v)
    if split is not None:
        v1, v2 = split
        gap = 0.0 if v.ndim == 1 else np.zeros(len(v))
        return Decomposition(v1, v2, R1(v1) + R2(v2), gap)
    rates = _coordinate_dual_rate(R1), _coordinate_dual_rate(R2)
    if None not in rates:
        return _decompose_dual_root(R1, R2, rates, v, tol)

    rows = np.atleast_2d(v)
    if R1.shrinkage_parts() is None and R2.shrinkage_parts() is None:
        solve, size = _decompose_newton, _NEWTON_BLOCK
    else:
        solve, size = _decompose_fista, 1
    # the first row of each run of rows equal bit for bit (so 0.0 and -0.0
    # differ); a batch without repeats keeps its rows and blocks
    bits = rows.view(np.uint64)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    distinct = rows if first.all() else rows[first]
    v1, v2 = np.empty_like(distinct), np.empty_like(distinct)
    gap = np.empty(len(distinct))
    for i in range(0, len(distinct), size):
        block = slice(i, i + size)
        v1[block], v2[block], gap[block] = solve(R1, R2, distinct[block], tol)
    if distinct is not rows:
        run = np.cumsum(first) - 1
        v1, v2, gap = v1[run], v2[run], gap[run]
    value = R1(v1) + R2(v2)
    if v.ndim == 1:
        return Decomposition(v1[0], v2[0], float(value[0]), float(gap[0]))
    return Decomposition(v1, v2, value, gap)


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


def _is_diagonal(M):
    """True when every off-diagonal entry of M is exactly zero, whatever
    the diagonal holds (an infinite entry too)."""
    return not np.count_nonzero(M[~np.eye(len(M), dtype=bool)])


def _coordinate_dual_rate(R):
    """The dual rate of a separable member, applied entry by entry to an
    array whose last axis is the state; None for a member that couples its
    coordinates or has a yield part."""
    if isinstance(R, (PowerNorm, AnisotropicDualQuadratic)):
        return R._dual_rate
    if isinstance(R, QuadraticForm) and _is_diagonal(R.V):
        c = 1.0 / R._V_diagonal
        return lambda xi: c * xi
    return None


def _decompose_dual_root(R1, R2, rates, v, tol):
    """The split of v, one vector or a batch of rows, for separable members
    whose coordinate dual rates are ``rates``.

    Coordinate i decouples: its dual point xi solves r1*'(xi) + r2*'(xi) =
    v_i, and then v1_i = r1*'(xi).  The rates are odd and increasing, so
    |xi| is bracketed by doubling from 1 and found by bisection on its float
    bits, down to adjacent floats, of which the one nearer the root is kept.
    The gap is taken at xi.  A row whose gap is not within ``tol`` (a rate
    that overflows, a NaN) raises :class:`NumericalError`.
    """
    def summed(xi):
        return rates[0](xi) + rates[1](xi)

    target = np.abs(v)
    with np.errstate(over="ignore"):
        hi = np.ones_like(target)
        while (short := summed(hi) < target).any():
            hi[short] *= 2.0  # the sum at inf is inf
        lo, hi = np.zeros(target.shape, np.uint64), hi.view(np.uint64)
        while (open_ := hi - lo > 1).any():
            mid = lo + (hi - lo) // 2
            below = open_ & (summed(mid.view(float)) < target)
            lo, hi = np.where(below, mid, lo), np.where(open_ & ~below, mid, hi)
        lo, hi = lo.view(float), hi.view(float)
        nearer = target - summed(lo) <= summed(hi) - target
        xi = np.copysign(np.where(nearer, lo, hi), v)
        v1 = rates[0](xi)
    v2 = v - v1
    value = R1(v1) + R2(v2)
    gap = np.atleast_1d(value - _dual_value(R1, R2, v, xi))
    missed = ~(gap <= tol)
    if missed.any():
        worst = int(np.argmax(np.where(missed, np.nan_to_num(gap, nan=math.inf), -math.inf)))
        raise NumericalError("inf-convolution dual root missed the gap tolerance",
                             gap=float(gap[worst]), best=np.atleast_2d(v1)[worst])
    return Decomposition(v1, v2, value, float(gap[0]) if v.ndim == 1 else gap)


def _dual_value(R1, R2, v, xi):
    """The Fenchel dual objective at xi, for one row or each row: a lower
    bound of every split's primal value R1(v1) + R2(v - v1)."""
    return np.sum(xi * v, axis=-1) - R1.conjugate(xi) - R2.conjugate(xi)


def _decompose_fista(R1, R2, rows, tol, max_iter=20000):
    """Accelerated proximal gradient for a block of one row, with the
    shrinkage-structured member on the prox side.  Returns (v1, v2, gap)."""
    (v,) = rows
    swapped = R2.shrinkage_parts() is None
    if swapped:
        R1, R2 = R2, R1
    sigma_w, quad_w = R2.shrinkage_parts()

    # Curvature bound for the gradient step.
    try:
        L = float(np.linalg.norm(R1.hess(v), 2))
    except NotImplementedError:
        L = 1.0
    L = max(L, 1e-8)

    def objective(v1):
        return R1(v1) + R2(v - v1)

    def prox_map(y, step):
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
        x_new = prox_map(y - R1.grad(y) / L, 1.0 / L)
        if objective(x_new) > objective(y) + 1e-15:
            L *= 2.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
        y = x_new + (t_mom - 1.0) / t_new * (x_new - x)
        x, t_mom = x_new, t_new
        if it % 8 == 0 or it == max_iter - 1:
            gap = objective(x) - _dual_value(R1, R2, v, R1.grad(x))
            if gap <= tol:
                return (v - x, x, gap) if swapped else (x, v - x, gap)
    raise NumericalError("inf-convolution minimization stagnated", gap=gap, best=x)


def _decompose_newton(R1, R2, v, tol, max_iter=200):
    """Damped Newton on v1 for the rows of a smooth pair.

    The rows still active share one linear solve per iteration; each has
    its own line search and stops on its own duality gap.  Returns
    (v1, v2, gap) with one row per row of ``v``.  The members' constant
    Hessian parts are read at the first step: rows that all start within
    tolerance need none, and a member without them raises
    :class:`InputError`.  A tridiagonal sum takes all
    rows in one pass, steps of many rows by :func:`_tridiagonal_steps`; a
    dense one goes in blocks, each step by :func:`newton.newton_step`.
    Running out of iterations raises :class:`NumericalError` naming the
    active row of largest gap (NaN first) of the pass or of the first block
    that fails.
    """
    n, dim = v.shape
    v1 = 0.5 * v
    gap = np.full(n, math.inf)
    active = np.arange(n)
    armijo = armijo_constant(R1, R2)
    singular = armijo != ARMIJO  # a member with p < 2
    constant = band = primal = None
    for _ in range(max_iter):
        va, x = v[active], v1[active]
        xi = R2.grad(va - x)
        if primal is None:
            primal = R1(x) + R2(va - x)
        row_gap = primal - _dual_value(R1, R2, va, xi)
        if singular:
            # Every dual point bounds the gap from above.  As v2 -> 0 the dual
            # point R2'(v2) of a member with p < 2 stalls while R1'(v1)
            # converges, so a row stops at the better of the two.
            row_gap = np.fmin(row_gap, primal - _dual_value(R1, R2, va, R1.grad(x)))
        gap[active] = row_gap
        going = ~(row_gap <= tol)  # a NaN gap keeps its row going
        active = active[going]
        if not active.size:
            return v1, v - v1, gap
        if constant is None:
            constant, band = _newton_parts(R1, R2)
            if band is None and n > _DENSE_BLOCK:
                blocks = [_decompose_newton(R1, R2, v[i : i + _DENSE_BLOCK], tol, max_iter)
                          for i in range(0, n, _DENSE_BLOCK)]
                return tuple(map(np.concatenate, zip(*blocks)))
        va, x, xi, f0 = va[going], x[going], xi[going], primal[going]
        g = R1.grad(x) - xi
        # the diagonals of the Hessians R1.hess(x) + R2.hess(va - x) + ridge
        d = (R1._hess_diagonal(x) + R2._hess_diagonal(va - x)) + 1e-12
        if band is not None and len(x) >= _ELIMINATION_ROWS:
            step = _tridiagonal_steps(band, constant, d, g)
        else:
            step = newton_step(_hessians(constant, d), g)
        slope = np.sum(g * step, axis=-1)
        v1[active], primal = _line_search(R1, R2, va, x, step, f0, slope, armijo)
    worst = active[np.argmax(gap[active])]
    raise NumericalError(
        "inf-convolution newton stagnated",
        gap=float(gap[worst]), iterations=max_iter, best=v1[worst],
    )


def _newton_parts(R1, R2):
    """The members' constant Hessian parts plus the ridge, and its
    off-diagonals (lower, upper) if it is tridiagonal, else None."""
    try:
        C = R1.hess_constant() + R2.hess_constant() + 1e-12 * np.eye(R1.dim)
    except NotImplementedError as exc:  # a kind without the parts Newton needs
        raise InputError(f"no Newton decomposition for {type(R1).__name__} # "
                         f"{type(R2).__name__}: {exc}") from None
    lower, upper = C.diagonal(-1), C.diagonal(1)
    if np.count_nonzero(C) > sum(map(np.count_nonzero, (C.diagonal(), lower, upper))):
        return C, None
    return C, (lower.tolist(), upper.tolist())


def _hessians(constant, d):
    """One copy of ``constant`` per row of ``d``, with that row as its diagonal."""
    n = len(constant)
    H = np.repeat(constant[None], len(d), axis=0)
    H.reshape(len(d), n * n)[:, :: n + 1] = d
    return H


def _tridiagonal_steps(band, constant, d, g):
    """The steps -H^-1 g of the rows of g, H being ``constant`` with the
    row of ``d`` as diagonal: one elimination without pivoting (H is
    positive definite) for all rows, on (dim, rows) arrays.  A step that is
    not finite is taken by :func:`newton.newton_step` from the dense H."""
    lower, upper = band
    with np.errstate(all="ignore"):
        x = np.negative(g.T, order="C")
        pivot, r = list(d.T.copy()), list(x)  # row views, updated in place
        for i in range(1, len(r)):
            w = lower[i - 1] / pivot[i - 1]
            pivot[i] -= w * upper[i - 1]
            r[i] -= w * r[i - 1]
        r[-1] /= pivot[-1]
        for i in range(len(r) - 2, -1, -1):
            r[i] -= upper[i] * r[i + 1]
            r[i] /= pivot[i]
    step = x.T.copy()
    bad = ~np.isfinite(x).all(axis=0)
    if bad.any():
        step[bad] = newton_step(_hessians(constant, d[bad]), g[bad])
    return step


def _line_search(R1, R2, v, x, step, f0, slope, armijo):
    """Armijo backtracking of each row of x along its step.

    Rows are accepted by the shared test :func:`newton.accepts` with the
    constant ``armijo``; a row whose search runs out takes the full step,
    since its objective differences are then below rounding.  Returns the
    new rows and, when every row takes its full step, their objective
    values (None otherwise).
    """
    new = x + step
    alpha = np.ones(len(x))
    todo = np.arange(len(x))
    for _ in range(40):
        trial = x[todo] + alpha[todo, None] * step[todo]
        f = R1(trial) + R2(v[todo] - trial)
        ok = accepts(f, f0[todo], alpha[todo], slope[todo], armijo)
        if len(todo) == len(x) and ok.all():
            # the next iteration evaluates these rows, in this order: only a
            # whole batch, since a matrix product may round a row by its batch
            return trial, f
        new[todo[ok]] = trial[ok]
        todo = todo[~ok]
        if not todo.size:
            break
        alpha[todo] *= 0.5
    return new, None


class QyeFit(Frozen):
    """Fitted constants of the estimate R(v) + R*(xi) >= c ||v|| ||xi||_* - C."""

    def __init__(self, c_est, C_est, worst_pair):
        for name, val in (("c_est", c_est), ("C_est", C_est), ("worst_pair", worst_pair)):
            object.__setattr__(self, name, val)


def qye_probe(P: Potential, samples, weights=None) -> QyeFit:
    """Fit the largest c and smallest C >= 0 valid on the sample.

    ``samples`` holds the pairs (v, xi): an array of shape (n, 2, dim), or
    what ``np.asarray`` makes one of, such as a list of pairs.  The offset C
    is taken from a small quantile (1%) of the violation distribution at
    c = 0 (identically zero for nonnegative potentials).
    Then c is the largest value, at least 0, for which every sampled pair
    satisfies R(v) + R*(xi) + C >= c ||v|| ||xi||_* up to a rounding
    tolerance of 1e-14 (1 + |R(v) + R*(xi)|).
    """
    try:
        pairs = np.asarray(samples, dtype=float)
    except (TypeError, ValueError):  # ragged pairs, or entries that are not numbers
        raise InputError(f"qye_probe samples must be pairs (v, xi) of {P.dim} numbers "
                         "each") from None
    if pairs.ndim != 3 or pairs.shape[1:] != (2, P.dim):
        raise InputError(
            f"qye_probe samples have shape {pairs.shape}, expected (n, 2, {P.dim})")
    if not len(pairs):
        raise InputError("qye_probe needs a nonempty sample list")
    V, Xi = pairs[:, 0], pairs[:, 1]
    s_vals = P(V) + P.conjugate(Xi)
    g_vals = weighted_norm(V, weights) * weighted_dual_norm(Xi, weights)
    if np.all(g_vals == 0.0):
        raise InputError("qye_probe needs at least one pair with nonzero norms")

    violations_at_c0 = np.maximum(0.0, -s_vals)
    C_est = float(np.quantile(violations_at_c0, 0.99))

    mask = g_vals > 0.0
    s, g = s_vals[mask], g_vals[mask]
    ratios = (s + C_est) / g
    c_est = max(0.0, float(np.min((s + C_est + 1e-14 * (1.0 + np.abs(s))) / g)))

    worst = np.flatnonzero(mask)[np.argmin(ratios)]
    return QyeFit(float(c_est), C_est, (V[worst], Xi[worst]))


class PsiMinorant:
    """Piecewise-linear lower envelope Psi(r) = max_K (K r - S_K).

    Convex and nondecreasing by construction, with Psi(0) = 0.  The S_K
    are certified only on the sampled ball, whose radius is recorded.
    """

    def __init__(self, K_grid, S_values, sample_radius):
        self.K_grid = K_grid
        self.S_values = S_values
        self.sample_radius = sample_radius

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
            # one row per radius: the sphere points of the primal and dual norms
            for values in (P(np.outer(radii / nd, d)), P.conjugate(np.outer(radii / dd, d))):
                finite = np.isfinite(values)
                gaps = K * radii[finite, None] - values[finite, None]
                S = np.maximum(S, np.max(gaps, axis=0, initial=-math.inf))
    S = np.maximum(S, 0.0)
    return PsiMinorant(K, S, float(sample_radius))
