"""The Newton inf-convolution decomposition against a reference, bit for bit.

The reference is the decomposition as it was before repeated rows were
merged, the Hessian stack was built once per iteration and the line search
handed its values on: one Hessian per member plus a ridge matrix and the
primal value taken anew at every duality gap, in passes of 512 rows.  A
pair whose constant Hessian parts sum to a dense matrix goes in blocks of
64 rows, every stacked Newton step through ``np.linalg.solve``.  In a pass
of a tridiagonal pair, the steps of 32 or more active rows come from an
elimination in Python floats, one row at a time, and a row whose
elimination step is not finite, like every step of fewer rows, through
``np.linalg.solve``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import cli
from splitflow import potentials as pt
from splitflow.errors import InputError, NumericalError
from splitflow.models import make_model
from splitflow.newton import ARMIJO, accepts, armijo_constant, newton_step
from splitflow.solvers import effective_potential


def _gap_reference(R1, R2, v, v1, xi):
    primal = R1(v1) + R2(v - v1)
    dual = np.sum(xi * v, axis=-1) - R1.conjugate(xi) - R2.conjugate(xi)
    return primal - dual, primal


def _steps_reference(H, g):
    try:
        return np.linalg.solve(H, -g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return -g
        return np.concatenate([_steps_reference(H[i : i + 1], g[i : i + 1])
                               for i in range(len(g))])


def _line_search_reference(R1, R2, v, x, step, f0, slope, armijo):
    new = x + step
    alpha = np.ones(len(x))
    todo = np.arange(len(x))
    for _ in range(40):
        trial = x[todo] + alpha[todo, None] * step[todo]
        f = R1(trial) + R2(v[todo] - trial)
        ok = accepts(f, f0[todo], alpha[todo], slope[todo], armijo)
        new[todo[ok]] = trial[ok]
        todo = todo[~ok]
        if not todo.size:
            break
        alpha[todo] *= 0.5
    return new


def _tridiagonal_step_reference(H, g):
    """-H^-1 g by elimination without pivoting, in Python floats; None when
    a pivot is zero or the step is not finite."""
    lower, upper = np.diag(H, -1).tolist(), np.diag(H, 1).tolist()
    pivot, x = np.diag(H).tolist(), (-g).tolist()
    try:
        for i in range(1, len(x)):
            w = lower[i - 1] / pivot[i - 1]
            pivot[i] = pivot[i] - w * upper[i - 1]
            x[i] = x[i] - w * x[i - 1]
        x[-1] = x[-1] / pivot[-1]
        for i in range(len(x) - 2, -1, -1):
            x[i] = (x[i] - upper[i] * x[i + 1]) / pivot[i]
    except ZeroDivisionError:
        return None
    return x if all(map(math.isfinite, x)) else None


def _eliminated_steps_reference(H, g):
    steps = [_tridiagonal_step_reference(Hi, gi) for Hi, gi in zip(H, g)]
    solved = [i for i, step in enumerate(steps) if step is None]
    out = np.array([[0.0] * g.shape[1] if step is None else step for step in steps])
    if solved:
        out[solved] = _steps_reference(H[solved], g[solved])
    return out


def _is_tridiagonal(R1, R2):
    C = R1.hess_constant() + R2.hess_constant()
    return not (np.triu(C, 2).any() or np.tril(C, -2).any())


def _pass_reference(R1, R2, v, tol, max_iter, tridiagonal):
    n, dim = v.shape
    v1 = 0.5 * v
    gap = np.full(n, math.inf)
    active = np.arange(n)
    ridge = 1e-12 * np.eye(dim)
    armijo = armijo_constant(R1, R2)
    singular = armijo != ARMIJO
    for _ in range(max_iter):
        va, x = v[active], v1[active]
        xi = R2.grad(va - x)
        row_gap, f0 = _gap_reference(R1, R2, va, x, xi)
        if singular:
            row_gap = np.fmin(row_gap, _gap_reference(R1, R2, va, x, R1.grad(x))[0])
        gap[active] = row_gap
        going = ~(row_gap <= tol)
        active = active[going]
        if not active.size:
            return v1, v - v1, gap
        va, x, xi, f0 = va[going], x[going], xi[going], f0[going]
        g = R1.grad(x) - xi
        H = R1.hess(x) + R2.hess(va - x) + ridge
        if tridiagonal and len(x) >= 32:
            step = _eliminated_steps_reference(H, g)
        else:
            step = _steps_reference(H, g)
        slope = np.sum(g * step, axis=-1)
        v1[active] = _line_search_reference(R1, R2, va, x, step, f0, slope, armijo)
    worst = active[np.argmax(gap[active])]
    raise NumericalError("inf-convolution newton stagnated",
                         gap=float(gap[worst]), iterations=max_iter, best=v1[worst])


def _newton_reference(R1, R2, v, tol, max_iter=200):
    """One pass of all rows for a tridiagonal pair, else blocks of 64 rows.
    A dense pass of more than 64 rows takes its first gaps over all rows and
    starts over block by block once a row needs a step."""
    tridiagonal = _is_tridiagonal(R1, R2)
    if tridiagonal or len(v) <= 64:
        return _pass_reference(R1, R2, v, tol, max_iter, tridiagonal)
    try:
        return _pass_reference(R1, R2, v, tol, 1, False)
    except NumericalError:
        pass
    blocks = [_pass_reference(R1, R2, v[i : i + 64], tol, max_iter, False)
              for i in range(0, len(v), 64)]
    return tuple(map(np.concatenate, zip(*blocks)))


def _decompose_reference(P, rows, tol=1e-10):
    R1, R2 = P.left, P.right
    v1, v2, gap = np.empty_like(rows), np.empty_like(rows), np.empty(len(rows))
    for i in range(0, len(rows), 512):
        block = slice(i, i + 512)
        v1[block], v2[block], gap[block] = _newton_reference(R1, R2, rows[block], tol)
    return v1, v2, R1(v1) + R2(v2), gap


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture
def newton_path(monkeypatch):
    """Send every smooth pair to Newton.  A pair of separable members (every
    pair below but those with a dense quadratic form) would otherwise split
    at its dual root, which this reference does not replay."""
    monkeypatch.setattr(pt, "_coordinate_dual_rate", lambda R: None)


def _power(rng, dim, below_two):
    p = rng.uniform(1.1, 1.95) if below_two else rng.uniform(2.05, 4.0)
    return pt.PowerNorm(p, rng.uniform(0.2, 3.0, dim))


def _partner(kind, rng, dim):
    if kind == "quadratic":
        B = rng.standard_normal((dim, dim))
        return pt.QuadraticForm(B @ B.T + dim * np.eye(dim))
    if kind == "tridiagonal":  # B B^T for a lower bidiagonal B, like a 1-D stiffness
        B = np.diag(rng.uniform(0.5, 2.0, dim)) + np.diag(rng.uniform(-1.0, 1.0, dim - 1), -1)
        return pt.QuadraticForm(B @ B.T)
    if kind == "dual-quadratic":
        return pt.AnisotropicDualQuadratic(rng.uniform(0.2, 3.0, dim))
    if kind == "rescaled-power":
        return pt.PowerNorm(rng.uniform(1.5, 3.5), rng.uniform(0.2, 3.0, dim)).rescaled()
    return pt.AnisotropicDualQuadratic(rng.uniform(0.2, 3.0, dim)).rescaled()


_PARTNERS = ["quadratic", "dual-quadratic", "rescaled-power", "rescaled-dual-quadratic",
             "tridiagonal"]


def _assert_same_outcome(reference, decompose):
    """Both return the same bits, or both raise the same certificate; True
    when they raise."""
    try:
        expected = reference()
    except NumericalError as err:
        with pytest.raises(NumericalError) as info:
            decompose()
        got, want = info.value, err
        assert (got.iterations, _bits(got.best)) == (want.iterations, _bits(want.best))
        assert _bits(got.gap) == _bits(want.gap)
        return True
    for got, want in zip(decompose(), expected):
        assert _bits(got) == _bits(want)
    return False


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("power_left", [True, False])
@pytest.mark.parametrize("kind", _PARTNERS)
@pytest.mark.parametrize("below_two", [True, False])
def test_decomposition_equals_the_reference_bit_for_bit(below_two, kind, power_left, seed,
                                                       newton_path):
    rng = np.random.default_rng([seed, len(kind), below_two, power_left])
    dim = int(rng.choice([1, 2, 3, 5, 16]))
    n = int(rng.integers(1, 201))
    power, partner = _power(rng, dim, below_two), _partner(kind, rng, dim)
    if below_two and rng.random() < 0.5:
        power = power.rescaled()
    P = pt.InfConvolution(*((power, partner) if power_left else (partner, power)))
    rows = rng.standard_normal((n, dim)) * rng.uniform(0.1, 3.0)

    def decompose():
        dec = pt.inf_conv_decompose(P, rows, 1e-10)
        return dec.v1, dec.v2, dec.value, dec.gap

    _assert_same_outcome(lambda: _decompose_reference(P, rows), decompose)


@pytest.mark.parametrize("seed", [11, 73, 116, 157])
def test_wide_quadratic_pairs_below_p_two_equal_the_reference_bit_for_bit(seed):
    # line searches that backtrack on pairs whose matrix product rounds a
    # row by its batch: values of a smaller batch would change the gaps
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([9, 16, 24, 33]))
    p = float(rng.choice([1.2, 1.5, 1.8, 3.0]))
    power = pt.PowerNorm(p, rng.uniform(0.2, 3.0, dim))
    B = rng.standard_normal((dim, dim))
    quadratic = pt.QuadraticForm(B @ B.T + dim * np.eye(dim))
    rows = rng.standard_normal((int(rng.integers(1, 100)), dim)) * 10.0 ** rng.uniform(-3, 1)
    P = pt.InfConvolution(power, quadratic) if seed % 2 else pt.InfConvolution(quadratic, power)

    def decompose():
        dec = pt.inf_conv_decompose(P, rows, 1e-10)
        return dec.v1, dec.v2, dec.value, dec.gap

    _assert_same_outcome(lambda: _decompose_reference(P, rows), decompose)


@pytest.mark.parametrize("seed", range(8))
def test_failing_rows_below_p_two_carry_the_reference_certificate(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    R1 = _power(rng, dim, below_two=True)
    R2 = _partner(_PARTNERS[seed % 4], rng, dim)
    rows = rng.standard_normal((int(rng.integers(2, 80)), dim))
    raised = [
        _assert_same_outcome(lambda: _newton_reference(R1, R2, rows, 1e-10, max_iter),
                             lambda: pt._decompose_newton(R1, R2, rows, 1e-10, max_iter))
        for max_iter in (1, 2, 4, 200)
    ]
    assert raised[0]


@pytest.mark.parametrize("seed", range(6))
def test_failing_tridiagonal_rows_carry_the_reference_certificate(seed):
    # enough rows that the first steps come from the elimination
    rng = np.random.default_rng([seed, 27])
    dim = int(rng.choice([2, 3, 16]))
    R1, R2 = _power(rng, dim, below_two=seed % 2 == 0), _partner("tridiagonal", rng, dim)
    if seed % 3 == 0:
        R1, R2 = R2, R1
    rows = rng.standard_normal((int(rng.integers(pt._ELIMINATION_ROWS, 150)), dim))
    raised = [
        _assert_same_outcome(lambda: _newton_reference(R1, R2, rows, 1e-10, max_iter),
                             lambda: pt._decompose_newton(R1, R2, rows, 1e-10, max_iter))
        for max_iter in (1, 2, 4, 200)
    ]
    assert raised[0] and not raised[-1]


def _blocks_reference(R1, R2, v, tol):
    """The decomposition before the elimination: blocks of 64 rows."""
    blocks = [_pass_reference(R1, R2, v[i : i + 64], tol, 200, False)
              for i in range(0, len(v), 64)]
    return tuple(map(np.concatenate, zip(*blocks)))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_nan_rows_of_a_tridiagonal_pass_carry_the_certificate_of_blocks(p):
    # the Allen-Cahn pair: a NaN row's steps are the stacked dense solve's,
    # and the first pass names its first NaN row, as the first block did
    P = effective_potential(make_model("allen-cahn-1d", p=p).system)
    rows = np.random.default_rng(3).standard_normal((700, P.dim))
    rows[[5, 40]] = math.nan
    rows[[90, 600], 3] = math.nan
    with pytest.raises(NumericalError) as info:
        pt.inf_conv_decompose(P, rows, 1e-10)
    got = info.value
    for reference in (lambda: _decompose_reference(P, rows),
                      lambda: _blocks_reference(P.left, P.right, rows, 1e-10)):
        with pytest.raises(NumericalError) as want:
            reference()
        assert math.isnan(got.gap) and math.isnan(want.value.gap)
        assert (got.iterations, _bits(got.best)) == (want.value.iterations,
                                                     _bits(want.value.best))


@pytest.mark.parametrize("n", [31, 32, 33, 1500])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_the_probe_rows_of_the_allen_cahn_pair_equal_the_reference_bit_for_bit(p, n):
    # 31 to 33 rows: the first step on either side of the elimination's threshold
    P = effective_potential(make_model("allen-cahn-1d", p=p).system)
    rows = np.random.default_rng(1).standard_normal((n, 2, P.dim))[:, 0]

    def decompose():
        dec = pt.inf_conv_decompose(P, rows, 1e-10)
        return dec.v1, dec.v2, dec.value, dec.gap

    assert not _assert_same_outcome(lambda: _decompose_reference(P, rows), decompose)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_nan_rows_carry_the_reference_certificate(p):
    R1, R2 = pt.PowerNorm(p, [1.0, 2.0]), pt.QuadraticForm([[2.0, 0.5], [0.5, 1.0]])
    rows = np.array([[1.0, 0.5], [math.nan, 0.0], [0.3, -0.2], [0.0, math.nan]])
    with pytest.raises(NumericalError) as info:
        pt.inf_conv_decompose(pt.InfConvolution(R1, R2), rows, 1e-10)
    assert math.isnan(info.value.gap)
    assert _assert_same_outcome(
        lambda: _newton_reference(R1, R2, rows, 1e-10),
        lambda: pt.inf_conv_decompose(pt.InfConvolution(R1, R2), rows, 1e-10))


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 33])
def test_newton_steps_equal_linalg_solve_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    M = rng.standard_normal((40, dim, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1, 1))
    H = M @ np.swapaxes(M, 1, 2) + 1e-3 * np.eye(dim)
    H[1::2] = M[1::2] + np.swapaxes(M[1::2], 1, 2)  # indefinite
    H[[3, 17, 30]] = 0.0  # singular rows: the gradient step
    H[22] = np.outer(np.ones(dim), np.arange(dim))  # rank one
    g = rng.standard_normal((40, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1))
    g[9, 0] = math.nan
    steps = newton_step(H, g)
    assert _bits(steps) == _bits(_steps_reference(H, g))
    for i in range(len(g)):  # each row is its one-system step
        assert _bits(steps[i]) == _bits(newton_step(H[i], g[i]))
    keep = np.setdiff1d(np.arange(40), [3, 9, 17, 22, 30])
    assert _bits(newton_step(H[keep], g[keep])) == _bits(np.linalg.solve(
        H[keep], -g[keep][..., None])[..., 0])


# -- the batched tridiagonal elimination ----------------------------------------


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 1500])
@pytest.mark.parametrize("dim", [1, 2, 3, 16, 33])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0), clamps=st.floats(0.0, 1.0),
       nan_rows=st.integers(0, 3))
def test_the_elimination_equals_the_dense_step_to_rounding(dim, rows, seed, zeros, clamps,
                                                            nan_rows):
    rng = np.random.default_rng(seed)
    # an SPD tridiagonal constant with the ridge: B B^T for a lower bidiagonal
    # B, some of whose diagonal entries are zero
    B = np.diag(rng.uniform(0.0, 2.0, dim) * (rng.random(dim) >= zeros))
    B += np.diag(rng.uniform(-2.0, 2.0, dim - 1), -1)
    C = 10.0 ** rng.uniform(-3.0, 3.0) * (B @ B.T) + 1e-12 * np.eye(dim)
    # each row's diagonal adds member curvatures: zero, over 18 decades, or the clamp
    curvature = 10.0 ** rng.uniform(-12.0, 6.0, (rows, dim))
    draw = rng.random((rows, dim))
    curvature[draw < clamps / 2] = 1e12
    curvature[draw > 1.0 - zeros / 2] = 0.0
    d = C.diagonal() + curvature
    g = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-6.0, 6.0, (rows, 1))
    nan = rng.choice(rows, min(nan_rows, rows), replace=False)
    g[nan[::2], 0] = math.nan
    d[nan[1::2], -1] = math.nan
    H = np.repeat(C[None], rows, axis=0)
    H[:, np.arange(dim), np.arange(dim)] = d
    band = (C.diagonal(-1).tolist(), C.diagonal(1).tolist())

    steps = pt._tridiagonal_steps(band, C, d, g)
    dense = newton_step(H, g)
    assert steps.shape == (rows, dim) and steps.flags.c_contiguous
    # a NaN row takes the dense step, bits and all
    assert _bits(steps[nan]) == _bits(dense[nan])
    finite = np.setdiff1d(np.arange(rows), nan)
    H, g, steps, dense = H[finite], g[finite], steps[finite], dense[finite]
    assert np.isfinite(steps).all()
    # the step solves a system within rounding of H, entry by entry ...
    eps = np.finfo(float).eps
    residual = np.abs(np.einsum("nij,nj->ni", H, steps) + g)
    scale = np.einsum("nij,nj->ni", np.abs(H), np.abs(steps)) + np.abs(g)
    assert np.all(residual <= 8.0 * eps * scale)
    # ... and so lies within the condition number's rounding of the dense step
    if len(finite):
        bound = 8.0 * eps * np.linalg.cond(H, np.inf) * np.abs(dense).max(axis=1)
        assert np.all(np.abs(steps - dense).max(axis=1) <= bound)


# -- repeated rows -------------------------------------------------------------


def _elementwise_pair(p):
    return pt.InfConvolution(pt.PowerNorm(p, [0.7, 1.3, 2.0]),
                             pt.AnisotropicDualQuadratic([1.5, 0.4, 2.2]).rescaled())


def _counted_rows(monkeypatch):
    rows = []
    decompose = pt._decompose_newton

    def counted(R1, R2, v, tol, max_iter=200):
        rows.append(len(v))
        return decompose(R1, R2, v, tol, max_iter)

    monkeypatch.setattr(pt, "_decompose_newton", counted)
    return rows


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_repeated_rows_equal_their_rows_decomposed_one_at_a_time(p, monkeypatch, newton_path):
    # members without a matrix product round a row the same in every batch
    P = _elementwise_pair(p)
    rng = np.random.default_rng(7)
    distinct = rng.standard_normal((50, 3))
    counts = rng.integers(1, 6, len(distinct))
    rows = np.repeat(distinct, counts, axis=0)
    sent = _counted_rows(monkeypatch)
    dec = pt.inf_conv_decompose(P, rows, 1e-10)
    assert sent == [50]
    for i, row in enumerate(rows):
        single = pt.inf_conv_decompose(P, row, 1e-10)
        assert _bits(dec.v1[i]) == _bits(single.v1)
        assert _bits(dec.v2[i]) == _bits(single.v2)
        assert _bits(dec.value[i]) == _bits(single.value)
        assert _bits(dec.gap[i]) == _bits(single.gap)


def test_signed_zero_rows_are_not_merged(monkeypatch, newton_path):
    P = _elementwise_pair(3.0)
    rows = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]])
    sent = _counted_rows(monkeypatch)
    dec = pt.inf_conv_decompose(P, rows, 1e-10)
    assert sent == [2]
    for i, row in enumerate(rows):
        assert _bits(dec.v1[i]) == _bits(pt.inf_conv_decompose(P, row, 1e-10).v1)


def test_repeated_nan_rows_fail_like_one_nan_row(newton_path):
    P = _elementwise_pair(3.0)
    nan_row = [math.nan, 1.0, 0.0]
    one = np.array([[1.0, 0.0, 0.0], nan_row])
    many = np.array([[1.0, 0.0, 0.0], nan_row, nan_row])
    assert _assert_same_outcome(lambda: pt.inf_conv_decompose(P, one, 1e-10),
                                lambda: pt.inf_conv_decompose(P, many, 1e-10))


def test_effective_audit_decomposes_each_repeated_rate_once(tmp_path, monkeypatch):
    # within a step, consecutive cells of the effective run often share their
    # rate bit for bit; the audit decomposes one row per run of equal rates,
    # in passes of 512 rows
    outputs = []
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda *args: outputs.append(solve(*args)) or outputs[-1])
    sent = _counted_rows(monkeypatch)
    code = cli.main(["run", "--model", "allen-cahn-1d", "--override", "p=3",
                     "--scheme", "effective", "--N", "64", "--out", str(tmp_path / "e")])
    assert code == 0
    (out,) = outputs
    bits = out.rate.cell_values.view(np.uint64)
    runs = 1 + int(np.count_nonzero(np.any(bits[1:] != bits[:-1], axis=1)))
    assert len(bits) == 1024 and runs < len(bits)
    assert sum(sent) == runs and len(sent) == -(-runs // 512)


# -- qye_probe on arrays ----------------------------------------------------------


def _qye_reference(P, pairs, weights):
    """The fit from contiguous rows, one per pair."""
    V = np.array([v for v, _ in pairs])
    Xi = np.array([xi for _, xi in pairs])
    s = P(V) + P.conjugate(Xi)
    g = pt.weighted_norm(V, weights) * pt.weighted_dual_norm(Xi, weights)
    C = float(np.quantile(np.maximum(0.0, -s), 0.99))
    mask = g > 0.0
    c = max(0.0, float(np.min((s[mask] + C + 1e-14 * (1.0 + np.abs(s[mask]))) / g[mask])))
    return c, C, pairs[np.flatnonzero(mask)[np.argmin((s[mask] + C) / g[mask])]]


@pytest.mark.parametrize("model, params", [
    ("allen-cahn-1d", {"p": 3.0}), ("allen-cahn-1d", {"p": 1.5, "m": 8}),
    ("counterexample", {}), ("visco-plasticity-1d", {"m": 4}),
])
def test_qye_probe_fits_arrays_and_lists_alike(model, params):
    preset = make_model(model, **params)
    P = effective_potential(preset.system)
    samples = np.random.default_rng(5).standard_normal((300, 2, P.dim))
    pairs = [(v, xi) for v, xi in samples]
    from_array = pt.qye_probe(P, samples, weights=preset.norm_weights)
    from_list = pt.qye_probe(P, pairs, weights=preset.norm_weights)
    c, C, worst = _qye_reference(P, pairs, preset.norm_weights)
    for fit in (from_array, from_list):
        assert (_bits(fit.c_est), _bits(fit.C_est)) == (_bits(c), _bits(C))
        assert _bits(fit.worst_pair) == _bits(worst)


@pytest.mark.parametrize("samples", [np.ones(shape) for shape in (
    (10, 3), (10, 3, 2, 1), (10, 3, 3), (10, 2, 4), (0, 2, 3))] + [
    [([1.0, 2.0, 3.0], [1.0, 2.0])],  # ragged
    [([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), ([1.0], [1.0, 2.0, 3.0])],  # ragged
    [([1.0, 2.0], [1.0, 2.0])],  # pairs of the wrong dimension
    [([1.0, 2.0, 3.0],)],  # not a pair
    [([1.0, 2.0, "x"], [1.0, 2.0, 3.0])],  # not numbers
    [],
])
def test_malformed_samples_raise_one_line(samples):
    with pytest.raises(InputError) as info:
        pt.qye_probe(pt.PowerNorm(3.0, [1.0, 1.0, 1.0]), samples)
    assert len(str(info.value).splitlines()) == 1


def test_one_draw_gives_the_pairs_of_single_draws():
    dim, n = 16, 40
    one = np.random.default_rng(11).standard_normal((n, 2, dim))
    rng = np.random.default_rng(11)
    single = [(rng.standard_normal(dim), rng.standard_normal(dim)) for _ in range(n)]
    assert _bits(one) == _bits(np.array(single))
