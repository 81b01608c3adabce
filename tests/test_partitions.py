import io
import math
import os
import tempfile
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow.errors import InputError


def curve_from_cells(grid, cell_vals, kind="piecewise-constant", v0=None):
    cell_vals = np.asarray(cell_vals, dtype=float)
    if cell_vals.ndim == 1:
        cell_vals = cell_vals[:, None]
    v0 = cell_vals[:1] if v0 is None else np.atleast_2d(v0)
    return pa.SampledCurve(grid, np.vstack([v0, cell_vals]), kind)


# ---------------------------------------------------------------------------
# build_partition
# ---------------------------------------------------------------------------


def test_uniform_partition_nodes_and_midpoints():
    P = pa.build_partition(1.0, N=2)
    np.testing.assert_allclose(P.nodes, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(P.midpoints, [0.25, 0.75])


def test_explicit_partition_steps():
    P = pa.build_partition(1.0, nodes=[0.0, 0.3, 1.0])
    np.testing.assert_allclose(P.taus, [0.3, 0.7])


def test_non_monotone_nodes_rejected():
    with pytest.raises(InputError):
        pa.build_partition(1.0, nodes=[0.0, 0.6, 0.5, 1.0])
    with pytest.raises(InputError):
        pa.build_partition(1.0, nodes=[0.0, np.nan, 1.0])


def test_steps_and_midpoints_are_read_only_arrays_built_once():
    P = pa.build_partition(1.0, nodes=[0.0, 0.3, 0.35, 1.0])
    assert P.taus is P.taus and P.midpoints is P.midpoints
    assert not P.taus.flags.writeable and not P.midpoints.flags.writeable
    np.testing.assert_array_equal(P.taus, np.diff(P.nodes))
    np.testing.assert_array_equal(P.midpoints, 0.5 * (P.nodes[:-1] + P.nodes[1:]))


def grid_times_reference(P, M):
    """The refined grid's nodes built one semi-interval at a time."""
    times = [0.0]
    for k in range(P.N):
        a, mid, b = P.nodes[k], P.midpoints[k], P.nodes[k + 1]
        times.extend(np.linspace(a, mid, M + 1)[1:])
        times.extend(np.linspace(mid, b, M + 1)[1:])
    return np.asarray(times)


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40),
    uniform=st.booleans(),
    M=st.sampled_from([2, 4, 6, 8, 16]),
)
def test_refined_grid_times_equal_the_per_semi_interval_loop(widths, uniform, M):
    if uniform:
        P = pa.build_partition(float(np.sum(widths)), N=len(widths))
    else:
        P = pa.build_partition(float(np.sum(widths)),
                               nodes=np.concatenate([[0.0], np.cumsum(widths)]))
    grid = P.refine(M)
    reference = grid_times_reference(P, M)
    np.testing.assert_array_equal(grid.times.view(np.uint64), reference.view(np.uint64))
    assert grid.n_nodes == reference.size


# ---------------------------------------------------------------------------
# the semi-interval indicator
# ---------------------------------------------------------------------------


def test_single_step_semi_intervals():
    grid = pa.build_partition(1.0, N=1).refine(2)
    # cells (0, 0.25], (0.25, 0.5], (0.5, 0.75], (0.75, 1]
    assert grid.cell_is_left.tolist() == [True, True, False, False]
    # a cell holds its right end, so the left semi-interval is right-closed:
    # the cell ending at the midpoint 0.5 is a left cell, the next is not
    ends = grid.times[1:]
    assert ends[1] == 0.5 and grid.cell_is_left[1] and not grid.cell_is_left[2]
    assert grid.cell_is_left.tolist() == (ends <= 0.5).tolist()


# ---------------------------------------------------------------------------
# repetition operators
# ---------------------------------------------------------------------------


def test_repetition_single_cell_copies():
    P = pa.build_partition(1.0, N=1)
    grid = P.refine(2)
    # two cells per semi-interval: values (L, L, R, R)
    g = curve_from_cells(grid, [3.0, 3.0, 7.0, 7.0])
    t1 = pa.repetition_apply(1, P, g)
    np.testing.assert_allclose(t1.cell_values.ravel(), [3.0, 3.0, 3.0, 3.0])
    t2 = pa.repetition_apply(2, P, g)
    np.testing.assert_allclose(t2.cell_values.ravel(), [7.0, 7.0, 7.0, 7.0])


def test_repetition_average_single_cell():
    P = pa.build_partition(1.0, N=1)
    grid = P.refine(2)
    g = curve_from_cells(grid, [3.0, 3.0, 7.0, 7.0])
    t1 = pa.repetition_apply(1, P, g)
    t2 = pa.repetition_apply(2, P, g)
    avg = 0.5 * (t1.cell_values + t2.cell_values)
    np.testing.assert_allclose(avg.ravel(), [5.0, 5.0, 5.0, 5.0])


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    n_steps=st.sampled_from([1, 2]),
)
def test_repetition_operator_norm_bound(vals, n_steps):
    P = pa.build_partition(1.0, N=n_steps)
    M = 4 // n_steps
    grid = P.refine(max(M, 2))
    cells = np.resize(np.asarray(vals), grid.n_cells)
    g = curve_from_cells(grid, cells)
    for j in (1, 2):
        tg = pa.repetition_apply(j, P, g)
        assert tg.l1_norm() <= 2.0 * g.l1_norm() + 1e-12


def test_repetition_converges_for_continuous_function():
    errs = []
    for N in (4, 8, 16, 32, 64):
        P = pa.build_partition(1.0, N=N)
        grid = P.refine(2)
        cells = np.sin(2 * np.pi * grid.cell_midpoints())
        g = curve_from_cells(grid, cells)
        tg = pa.repetition_apply(1, P, g)
        diff = curve_from_cells(grid, tg.cell_values - g.cell_values)
        errs.append(diff.l1_norm())
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 0.1 * errs[0]


def test_repetition_idempotent_on_semi_constant_curves():
    P = pa.build_partition(1.0, N=3)
    grid = P.refine(4)
    rng = np.random.default_rng(1)
    per_semi = rng.standard_normal(2 * P.N)
    cells = np.repeat(per_semi, grid.M)
    g = curve_from_cells(grid, cells)
    for j in (1, 2):
        once = pa.repetition_apply(j, P, g)
        twice = pa.repetition_apply(j, P, once)
        np.testing.assert_array_equal(once.cell_values, twice.cell_values)


def test_repetition_identity_rate_rewriting():
    # int chi^j R~_j(V) == int R_j(T^j V / 2) exactly under the shared grid
    rng = np.random.default_rng(6)
    P = pa.build_partition(1.0, nodes=[0.0, 0.4, 1.0])
    grid = P.refine(4)
    for R in (
        pt.QuadraticForm(np.array([[2.0, 0.2], [0.2, 1.0]])),
        pt.PowerNorm(3.0, [1.0, 0.5]),
        pt.OneHomPlusQuad(0.7, 1.3, dim=2),
    ):
        Rt = R.rescaled()
        V = curve_from_cells(grid, rng.standard_normal((grid.n_cells, 2)))
        for j in (1, 2):
            mask = grid.cell_is_left if j == 1 else ~grid.cell_is_left
            lhs = sum(
                w * Rt(v)
                for w, v, m in zip(grid.cell_widths, V.cell_values, mask)
                if m
            )
            TV = pa.repetition_apply(j, P, V)
            rhs = sum(
                w * R(0.5 * v) for w, v in zip(grid.cell_widths, TV.cell_values)
            )
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


def test_repetition_even_inner_factor_required():
    P = pa.build_partition(1.0, N=1)
    with pytest.raises(InputError):
        P.refine(3)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_integrate_constant_curve():
    P = pa.build_partition(1.0, N=2)
    grid = P.refine(2)
    g = curve_from_cells(grid, np.full(grid.n_cells, 2.0))
    assert g.l1_norm() == pytest.approx(2.0)


def test_l1_norm_of_a_linear_curve_takes_cell_midpoints():
    P = pa.build_partition(1.0, N=512)
    grid = P.refine(2)  # 2048 cells
    # v(t) = (t, t) sampled at nodes: |v(t)| = sqrt(2) t is linear, so the
    # midpoint rule integrates it to rounding
    g = pa.SampledCurve(grid, np.column_stack([grid.times, grid.times]), "piecewise-linear")
    assert g.l1_norm() == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# curve evaluation and serialization
# ---------------------------------------------------------------------------


def test_piecewise_linear_is_continuous():
    P = pa.build_partition(1.0, N=2)
    grid = P.refine(2)
    rng = np.random.default_rng(3)
    g = pa.SampledCurve(grid, rng.standard_normal((grid.n_nodes, 2)))
    for i, t in enumerate(grid.times):
        np.testing.assert_allclose(g.at(t), g.values[i], atol=1e-14)


def test_pwc_evaluation_left_open_right_closed():
    P = pa.build_partition(1.0, N=1)
    grid = P.refine(2)
    g = curve_from_cells(grid, [1.0, 2.0, 3.0, 4.0], v0=[0.5])
    assert g.at(0.0)[0] == 0.5
    assert g.at(0.25)[0] == 1.0  # node value carries its cell (0, 0.25]
    assert g.at(0.26)[0] == 2.0


def test_csv_round_trip(tmp_path):
    P = pa.build_partition(1.0, N=2)
    grid = P.refine(2)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((grid.n_nodes, 3))
    values[1] = [0.0, -0.0, np.inf]
    values[2] = [-np.inf, np.nan, 5e-324]
    g = pa.SampledCurve(grid, values)
    path = tmp_path / "curve.csv"
    g.to_csv(path)
    text = path.read_text()
    assert text.startswith("# interpolant_kind: piecewise-linear")
    lines = text.splitlines()
    assert lines[1] == "t,v_1,v_2,v_3"
    for i in (1, 2):
        row = [grid.times[i], *values[i]]
        assert lines[2 + i] == ",".join(f"{x:.16e}" for x in row)
    back = pa.SampledCurve.from_csv(path, grid)
    np.testing.assert_array_equal(back.values, g.values)
    assert back.kind == g.kind


def test_csv_text_equals_savetxt_across_row_blocks(tmp_path):
    # more rows than one format call takes, with every special value
    P = pa.build_partition(1.0, N=40)
    grid = P.refine(8)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((grid.n_nodes, 3)) * 10.0 ** rng.integers(
        -300, 300, (grid.n_nodes, 3))
    values[1] = [0.0, -0.0, np.inf]
    values[300] = [-np.inf, np.nan, 5e-324]
    values[-1] = [-5e-324, 1.7976931348623157e308, -0.0]
    assert grid.n_nodes > 256
    g = pa.SampledCurve(grid, values, "piecewise-constant")
    g.to_csv(tmp_path / "curve.csv")
    with open(tmp_path / "savetxt.csv", "w", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([grid.times, values]), fmt="%.16e", delimiter=",",
                   header="# interpolant_kind: piecewise-constant\nt,v_1,v_2,v_3",
                   comments="")
    assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


# zeros of both signs, NaN of both signs, infinities, the extreme subnormals
# and finite values, and three-digit exponents
_CSV_SPECIALS = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324,
                 -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300,
                 -2.5e-310, 6.02e200]


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 18), M=st.sampled_from([2, 4, 6, 8]), dim=st.integers(1, 40),
       hold=st.integers(1, 20), constant=st.lists(st.integers(0, 39), max_size=5),
       pool=st.lists(st.floats(width=64), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_csv_bytes_equal_savetxt_on_repeated_and_special_values(N, M, dim, hold, constant,
                                                                 pool, seed):
    # 5 to 289 rows: the writer's last row block is full or partial
    grid = pa.build_partition(1.0, N=N).refine(M)
    rng = np.random.default_rng(seed)
    choices = np.concatenate([pool, _CSV_SPECIALS,
                              rng.standard_normal(6) * 10.0 ** rng.integers(-320, 300, 6)])
    # every row repeats `hold` times, and the listed columns are constant
    rows = rng.choice(choices, (-(-grid.n_nodes // hold), dim))
    values = np.repeat(rows, hold, axis=0)[: grid.n_nodes]
    for j in constant:
        values[:, j % dim] = values[0, j % dim]
    values[1:3, 0] = [0.0, -0.0]
    g = pa.SampledCurve(grid, values, "delayed-constant")
    buf = io.BytesIO()
    header = ",".join(["t"] + [f"v_{j + 1}" for j in range(dim)])
    np.savetxt(buf, np.column_stack([grid.times, values]), fmt="%.16e", delimiter=",",
               header=f"# interpolant_kind: delayed-constant\n{header}", comments="")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.csv")
        g.to_csv(path)
        with open(path, "rb") as fh:
            assert fh.read() == buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 80), dim=st.integers(1, 12), hold=st.integers(1, 10),
       pool=st.lists(st.floats(width=64), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_csv_fields_give_each_run_head_one_field(rows, dim, hold, pool, seed):
    rng = np.random.default_rng(seed)
    choices = np.concatenate([pool, _CSV_SPECIALS, rng.standard_normal(4)])
    values = np.repeat(rng.choice(choices, (-(-rows // hold), dim + 1)), hold, axis=0)[:rows]
    values[rng.random(rows) < 0.2, -1] = -0.0
    values[:2, 0] = [0.0, -0.0][:rows]
    # the first column stands for the time column, which may hold runs too;
    # the second pass takes its text from the first
    grid = types.SimpleNamespace(times=values[:, 0].copy())
    for _ in range(2):
        table, index = pa._csv_fields(grid, values[:, 1:])
        assert table.dtype == "S25" and index.dtype == np.int32 and index.shape == values.shape
        # each value's field is its %.16e text and its "," or "\n", up to blanks
        fields = [field.replace(b" ", b"") for field in table[index].ravel().tolist()]
        suffix = [b","] * dim + [b"\n"]
        assert fields == [b"%.16e%s" % (x, suffix[j % (dim + 1)])
                          for j, x in enumerate(values.ravel().tolist())]
        # a value heads a run, and gets a field of its own, exactly where its
        # bits differ from the value above it: 0.0 and -0.0 are two runs
        bits = values.view(np.uint64)
        assert np.array_equal(index[1:] != index[:-1], bits[1:] != bits[:-1])
        runs = rows * (dim + 1) - np.count_nonzero(bits[1:] == bits[:-1])
        assert np.array_equal(np.unique(index), np.arange(runs)) and table.size == runs


def _e16_text(x):
    """Each value of ``x`` as the formatter writes it, blanks removed."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, 24), dtype=np.uint8)
    pa._write_e16(x, out)
    return np.char.strip(out.view("S24").ravel())


def _percent_text(x):
    return np.array([b"%.16e" % v for v in np.asarray(x, dtype=float).tolist()])


def _targeted_e16_values():
    tens = 10.0 ** np.arange(-12, 45)
    window = [1e-11, 1e44, 1e16, 1e17, 9.999999999999999e43, 1.0000000000000001e-11]
    ints = [2.0**53, 2.0**53 + 2, 2.0**60 + 2**8, 2.0**63, 1e17 - 16, 1e17 + 16, 1e22, 1e23]
    # values whose 18th significant digit is 5: the exact value lies near a
    # rounding tie of the 17 printed digits
    rng = np.random.default_rng(5)
    digits = rng.integers(10**16, 10**17, 400).tolist()
    exponents = rng.integers(-12, 45, 400).tolist()
    ties = np.array([float(f"{m}5e{e - 17}") for m, e in zip(digits, exponents)])
    ties = np.concatenate([ties, [0.15, 0.25, 2.5, 0.35, 1.5e-5, 7.5e30]])
    near = np.concatenate([tens, window, ints, ties])
    near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    return np.concatenate([near, -near, _CSV_SPECIALS, [1e100, -3.5e-105, 2.2250738585072014e-308]])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_e16_formatter_equals_percent_on_arbitrary_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert (_e16_text(x) == _percent_text(x)).all()


def test_e16_formatter_equals_percent_on_targeted_values():
    x = _targeted_e16_values()
    assert (_e16_text(x) == _percent_text(x)).all()


def test_e16_formatter_equals_percent_on_a_million_value_sweep():
    # many chunks of the formatter per piece, each piece compared in one pass
    # (raw bits mostly take the slow path: 3-digit exponents)
    rng = np.random.default_rng(11)
    n = 1 << 18
    for x in (rng.standard_normal(n),
              np.exp(rng.uniform(-40.0, 40.0, n) * np.log(10.0)) * rng.choice([-1.0, 1.0], n),
              rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-12, 45, n),
              rng.integers(0, 2**64, n // 4, dtype=np.uint64).view(np.float64)):
        out = np.full((x.size, 25), ord("\n"), dtype=np.uint8)
        pa._write_e16(x, out[:, :24])
        expected = ("%.16e\n" * x.size) % tuple(x.tolist())
        assert out.tobytes().replace(b" ", b"") == expected.encode("ascii")


def _neighbours(x, n=1):
    """x with its n nearest doubles on each side."""
    x = np.asarray(x, dtype=float)
    out, below, above = [x], x, x
    for _ in range(n):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def _least_in_range(a, m, lo, hi):
    """The least t >= 0 with lo <= a t mod m <= hi, for 0 <= lo <= hi < m,
    or None: Euclid's recursion on (a, m)."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    t = -(-lo // a)
    if a * t <= hi:
        return t
    y = _least_in_range(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def _near_ties():
    """Doubles x whose D = x 10**(16 - e) lies within 2**-54 of a rounding
    tie of its 17 digits: in each binade of each decade e of the window,
    the least significand s with frac(s 2**E 10**(16 - e)) that near 1/2.
    Random draws meet none of them; they are where the decision margin
    matters."""
    found = []
    for e in range(-99, 100):
        first = math.floor(math.log2(10.0**e)) - 52
        for E in range(first, first + 5):
            r = Fraction(2) ** E * Fraction(10) ** (16 - e)
            n, m = r.numerator, r.denominator
            width = m >> 54
            if not width:  # D's fraction is a multiple of 2**-54 or coarser
                continue
            b = (n << 52) % m
            lo, hi = (m // 2 - width - b) % m, (m // 2 + width - b) % m
            pieces = [(lo, hi)] if lo <= hi else [(lo, m - 1), (0, hi)]
            ts = [t for t in (_least_in_range(n, m, *piece) for piece in pieces) if t is not None]
            x = math.ldexp(2**52 + min(ts), E) if ts and min(ts) < 2**52 else 0.0
            if 10.0**e <= x < 10.0 ** (e + 1):
                found.append(x)
    return np.array(found)


_NEAR_TIES = _near_ties()
# the fast path's window edges; each power of ten in it with its
# neighbours, where log10 may round e up or down; and the near-ties
_MARGIN_CASES = np.concatenate([[1e-99, np.nextafter(1e-99, 0.0), 1e100, np.nextafter(1e100, 0.0)],
                                _neighbours([float(f"1e{m}") for m in range(-99, 101)]),
                                _NEAR_TIES])


def test_the_near_ties_lie_within_the_decision_margin():
    x = _NEAR_TIES
    assert x.size > 100
    for v in x.tolist():
        D = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert abs(D - math.floor(D) - Fraction(1, 2)) <= 2.0**-54
    # all of them are left to %
    assert not pa._e16_digits(x)[0].any()


@settings(max_examples=300, deadline=None)
@given(st.integers(10**16, 10**17 - 1), st.integers(-99, 99))
def test_e16_formatter_equals_percent_at_the_decision_margin(d, e):
    # the double nearest the rounding tie (d + 1/2) 10**(e - 16) of the 17
    # digits d, and two neighbours on each side
    tie = float(Fraction(2 * d + 1, 2) * Fraction(10) ** (e - 16))
    x = np.concatenate([_neighbours([tie, -tie], 2), _MARGIN_CASES, -_MARGIN_CASES])
    assert (_e16_text(x) == _percent_text(x)).all()


def _wide_curve():
    # the shape of a visco-plasticity-1d m=16 trajectory at N=64: 34 columns
    grid = pa.build_partition(1.0, N=64).refine(8)
    values = np.random.default_rng(2).standard_normal((grid.n_nodes, 33))
    return pa.SampledCurve(grid, values, "piecewise-linear")


def test_e16_fast_path_takes_most_values_of_a_normal_curve():
    g = _wide_curve()
    ok = pa._e16_digits(np.column_stack([g.grid.times, g.values]).ravel())[0]
    assert ok.size == 1025 * 34
    assert ok.mean() >= 0.95


def test_e16_fast_path_decides_near_ties_by_the_exact_product():
    # a counterexample trajectory: a progression whose step 3/4096 is a short
    # decimal keeps D's fraction within 2**-7 of 1/2 on 90% of its values
    x = 0.9999044763145539 - (3 / 4096) * np.arange(1, 1366)
    e = np.floor(np.log10(x)).astype(int)
    D = [Fraction(v) * Fraction(10) ** (16 - k) for v, k in zip(x.tolist(), e.tolist())]
    frac = np.array([float(v - math.floor(v)) for v in D])
    assert np.mean(np.abs(frac - 0.5) <= 2.0**-7) > 0.85
    assert pa._e16_digits(x)[0].all()
    assert (_e16_text(x) == _percent_text(x)).all()
    # an exact tie, x = 623945832457931.125, is still left to %
    assert not pa._e16_digits(np.array([623945832457931.125]))[0][0]
    assert _e16_text([623945832457931.125]) == _percent_text([623945832457931.125])


def test_to_csv_transient_memory_stays_within_four_file_sizes(tmp_path):
    g = _wide_curve()
    g.to_csv(tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        g.to_csv(tmp_path / "curve.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * os.path.getsize(tmp_path / "curve.csv")


class _Grid:
    """The two attributes of a refined grid that a curve's writer reads, for
    any number of rows."""

    def __init__(self, rows):
        self.times = np.linspace(0.0, 1.0, rows)
        self.n_nodes = rows


@pytest.mark.parametrize("columns", [1, 3, 34])
def test_csv_bytes_equal_savetxt_at_the_row_block_edges(tmp_path, monkeypatch, columns):
    # a row block holds about the same bytes at every width: one header
    # write, then one write per block
    block = pa._CSV_BLOCK_BYTES // (25 * columns)
    writes = []

    class Counted(io.FileIO):
        def write(self, data):
            writes.append(len(data))
            return super().write(data)

    monkeypatch.setattr(pa, "open", lambda path, mode: Counted(path, "w"), raising=False)
    rng = np.random.default_rng(columns)
    for rows in [1] + [k * block + d for k in (1, 2) for d in (-1, 0, 1)]:
        values = rng.choice(np.concatenate([_CSV_SPECIALS, rng.standard_normal(40)]),
                            (rows, columns - 1))
        g = pa.SampledCurve(_Grid(rows), values, "piecewise-constant")
        writes.clear()
        g.to_csv(tmp_path / "curve.csv")
        assert len(writes) == 1 + -(-rows // block)
        header = ",".join(["t"] + [f"v_{j + 1}" for j in range(columns - 1)])
        buf = io.BytesIO()
        np.savetxt(buf, np.column_stack([g.grid.times, values]), fmt="%.16e", delimiter=",",
                   header=f"# interpolant_kind: piecewise-constant\n{header}", comments="")
        assert (tmp_path / "curve.csv").read_bytes() == buf.getvalue()


@pytest.mark.parametrize("columns", [2, 3, 34])
def test_csv_bytes_equal_savetxt_where_runs_outnumber_distinct_values(tmp_path, columns):
    # zeros of both signs next to each other and between non-zero values, and
    # values that come back after a gap: each column has many more runs than
    # distinct values
    block = pa._CSV_BLOCK_BYTES // (25 * columns)
    pool = np.array([0.0, -0.0, 1.25, 0.0, -3.5e-7, -0.0, 0.0, 2.0**-30, -0.0, 1.25, 6.02e23])
    rng = np.random.default_rng(columns)
    for rows in [1, 2] + [k * block + d for k in (1, 2) for d in (-1, 0, 1)]:
        values = pool[(np.arange(rows)[:, None] // rng.integers(1, 4, columns - 1)
                       + rng.integers(0, pool.size, columns - 1)) % pool.size]
        bits = values.view(np.uint64)
        if rows > 2 * pool.size:
            runs = 1 + np.count_nonzero(bits[1:] != bits[:-1], axis=0)
            assert (runs > [len(set(column)) for column in bits.T.tolist()]).all()
        g = pa.SampledCurve(_Grid(rows), values, "delayed-constant")
        g.to_csv(tmp_path / "curve.csv")
        header = ",".join(["t"] + [f"v_{j + 1}" for j in range(columns - 1)])
        buf = io.BytesIO()
        np.savetxt(buf, np.column_stack([g.grid.times, values]), fmt="%.16e", delimiter=",",
                   header=f"# interpolant_kind: delayed-constant\n{header}", comments="")
        assert (tmp_path / "curve.csv").read_bytes() == buf.getvalue()


def test_csv_bytes_equal_savetxt_on_grids_written_in_alternation(tmp_path):
    # each grid keeps the text of its own times: two grids of different N,
    # then two of the same N over different horizons, written turn about
    rng = np.random.default_rng(8)
    for pair in [(pa.build_partition(1.0, N=3), pa.build_partition(1.0, N=5)),
                 (pa.build_partition(1.0, N=4), pa.build_partition(2.5, N=4))]:
        grids = [P.refine(4) for P in pair]
        for grid in grids + grids + grids:
            values = rng.choice([0.0, -0.0, 1.5, rng.standard_normal()], (grid.n_nodes, 2))
            pa.SampledCurve(grid, values, "piecewise-constant").to_csv(tmp_path / "curve.csv")
            buf = io.BytesIO()
            np.savetxt(buf, np.column_stack([grid.times, values]), fmt="%.16e", delimiter=",",
                       header="# interpolant_kind: piecewise-constant\nt,v_1,v_2", comments="")
            assert (tmp_path / "curve.csv").read_bytes() == buf.getvalue()


def test_the_four_files_of_a_run_format_its_time_column_once(tmp_path, monkeypatch):
    from splitflow import cli

    calls, write = [], pa._write_e16

    def counted(x, out):
        calls.append(np.array(x))
        write(x, out)

    monkeypatch.setattr(pa, "_write_e16", counted)
    assert cli.main(["run", "--model", "counterexample", "--scheme", "split", "--N", "8",
                     "--out", str(tmp_path)]) == 0
    names = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert names == ["decomposition_v1.csv", "decomposition_v2.csv", "forces.csv",
                     "trajectory.csv"]
    # the grid's times increase, so every time heads a run of its own
    times = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=2, usecols=0)
    assert np.all(np.diff(times) > 0)
    formatted = [x for x in calls if np.array_equal(x[: times.size], times)]
    assert len(formatted) == 1


@pytest.mark.parametrize("model, override, scheme", [
    ("allen-cahn-1d", "p=3", "split"), ("visco-plasticity-1d", "m=16", "block-split")])
def test_the_fast_path_takes_every_value_of_a_run(tmp_path, monkeypatch, model, override,
                                                   scheme):
    from splitflow import cli

    formatted, write = [], pa._write_e16

    def kept(x, out):
        formatted.append(np.array(x))
        write(x, out)

    monkeypatch.setattr(pa, "_write_e16", kept)
    assert cli.main(["run", "--model", model, "--scheme", scheme, "--N", "8",
                     "--override", override, "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 4
    x = np.concatenate(formatted)
    assert pa._e16_digits(x)[0].all()


def test_e16_formatter_takes_signed_zeros_on_the_fast_path():
    ok, digits, e = pa._e16_digits(np.array([0.0, -0.0, 1.5, -0.0]))
    assert ok.all()
    assert digits[[0, 1, 3]].tolist() == [0, 0, 0] and e[[0, 1, 3]].tolist() == [0, 0, 0]
    assert (_e16_text([0.0, -0.0]) == [b"0.0000000000000000e+00",
                                       b"-0.0000000000000000e+00"]).all()
