"""Partitions, semi-intervals, sampled curves, and repetition operators.

Every step (t^{k-1}, t^k] of a partition splits at its midpoint into a left
semi-interval (t^{k-1}, t^{k-1/2}] and a right one (t^{k-1/2}, t^k].  All
L^1-type objects live on a refined grid with an even inner factor M: each
semi-interval carries M equal cells, values are attached to cells via their
right node, and integrals use the composite midpoint rule.  On this grid the
repetition operators are exact cell shuffles, which makes the rate/slope
rewriting identities hold to machine precision.
"""

from __future__ import annotations

import numpy as np

from .errors import Frozen, InputError

__all__ = [
    "Partition",
    "RefinedGrid",
    "SampledCurve",
    "build_partition",
    "repetition_apply",
]

DEFAULT_INNER_FACTOR = 8
# "%.16e" text is at most 24 characters ("-1.7976931348623157e+308"); a CSV
# field is that text left-justified in 24, then its "," or "\n" suffix
_CSV_FIELD = "%-24.16e"
# bytes of fields gathered per write of SampledCurve.to_csv: 128 rows of 34
# columns, about 270 kB of transient bytes at any width.  A block costs a
# gather, a strip and a write whatever its size: narrow tables take long ones
_CSV_BLOCK_BYTES = 128 * 34 * 25


class Partition(Frozen):
    """Strictly increasing nodes 0 = t^0 < ... < t^N = T with midpoints.

    The step lengths ``taus`` and the ``midpoints`` are read-only arrays
    computed once, with the nodes.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float).reshape(-1)
        if nodes.size < 2:
            raise InputError("a partition needs at least two nodes")
        if nodes[0] != 0.0:
            raise InputError("partitions must start at t = 0")
        taus = np.diff(nodes)
        if not np.all(taus > 0):  # also false for a NaN node
            raise InputError("partition nodes must be strictly increasing")
        midpoints = 0.5 * (nodes[:-1] + nodes[1:])
        for name, value in (("nodes", nodes), ("taus", taus), ("midpoints", midpoints)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def T(self):
        return float(self.nodes[-1])

    @property
    def N(self):
        return self.nodes.size - 1

    def refine(self, inner_factor=DEFAULT_INNER_FACTOR):
        return RefinedGrid(self, inner_factor)


def build_partition(T, N=None, nodes=None) -> Partition:
    """Uniform partition with N steps, or one from an explicit node list."""
    if nodes is not None:
        nodes = np.asarray(nodes, dtype=float)
        if abs(nodes[-1] - T) > 1e-12 * max(1.0, abs(T)):
            raise InputError("explicit nodes must end at the horizon T")
        return Partition(nodes)
    if N is None or N < 1:
        raise InputError("need a step count N or explicit nodes")
    if T <= 0:
        raise InputError("horizon T must be positive")
    return Partition(np.linspace(0.0, T, N + 1))


class RefinedGrid:
    """Partition refined by M equal cells per semi-interval (M even)."""

    def __init__(self, partition: Partition, inner_factor=DEFAULT_INNER_FACTOR):
        M = int(inner_factor)
        if M < 1 or M % 2:
            raise InputError("inner factor must be a positive even count")
        self.partition = partition
        self.M = M
        # the 2N semi-intervals in time order, each split by one linspace row
        ends = np.column_stack([partition.midpoints, partition.nodes[1:]]).ravel()
        starts = np.concatenate([[0.0], ends[:-1]])
        cells = np.linspace(starts, ends, M + 1, axis=1)[:, 1:]
        self.n_cells = 2 * M * partition.N
        self.times = np.concatenate([[0.0], cells.ravel()])
        self.cell_widths = np.diff(self.times)
        self.cell_steps = np.repeat(np.arange(1, partition.N + 1), 2 * M)
        # the characteristic function of the left semi-intervals, per cell
        self.cell_is_left = np.tile(np.repeat([True, False], M), partition.N)
        for array in (self.times, self.cell_widths, self.cell_steps, self.cell_is_left):
            array.setflags(write=False)

    @property
    def n_nodes(self):
        return self.n_cells + 1

    def cell_midpoints(self):
        return 0.5 * (self.times[:-1] + self.times[1:])


INTERPOLANT_KINDS = ("piecewise-constant", "delayed-constant", "piecewise-linear")


class SampledCurve:
    """Function of time sampled on a refined grid.

    Node i carries the value on the half-open cell (t_{i-1}, t_i]; node 0
    holds the initial value.  Piecewise-constant kinds evaluate to the cell
    value, piecewise-linear kinds interpolate between adjacent nodes (and
    are therefore continuous across the grid).
    """

    def __init__(self, grid: RefinedGrid, values, kind="piecewise-linear"):
        if kind not in INTERPOLANT_KINDS:
            raise InputError(f"unknown interpolant kind {kind!r}")
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.n_nodes:
            raise InputError(
                f"curve has {values.shape[0]} samples, grid wants {grid.n_nodes}"
            )
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.kind = kind

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def cell_values(self):
        """Value on each cell (attached to the cell's right node)."""
        return self.values[1:]

    def at(self, t):
        """Evaluate at time t (scalar) or an array of times."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        T = self.grid.partition.T
        outside = (ts < 0.0) | (ts > T)
        if np.any(outside):
            raise InputError(f"time {float(ts[outside][0])} outside [0, {T}]")
        times = self.grid.times
        # cell i holds (times[i], times[i+1]]; t = 0 maps to the first cell
        i = np.maximum(np.searchsorted(times, ts, side="left") - 1, 0)
        if self.kind == "piecewise-linear":
            t0, t1 = times[i], times[i + 1]
            lam = np.divide(ts - t0, t1 - t0, out=np.zeros_like(ts), where=t1 != t0)
            lam = lam[:, None]
            out = (1 - lam) * self.values[i] + lam * self.values[i + 1]
        else:
            out = self.values[np.where(ts > 0.0, i + 1, 0)]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def derivative(self):
        """Piecewise-constant rate (v_i - v_{i-1}) / w_i per cell."""
        rates = np.diff(self.values, axis=0) / self.grid.cell_widths[:, None]
        return SampledCurve(self.grid, np.vstack([rates[:1], rates]), "piecewise-constant")

    def with_values(self, values, kind=None):
        return SampledCurve(self.grid, values, kind or self.kind)

    def l1_norm(self):
        """The L^1 norm over [0, T] by the composite midpoint rule; the value
        of a piecewise-linear curve at a cell midpoint is the mean of the
        cell's two nodes."""
        cells = self.cell_values
        if self.kind == "piecewise-linear":
            cells = 0.5 * (self.values[:-1] + cells)
        return float(self.grid.cell_widths @ np.linalg.norm(cells, axis=1))

    def to_csv(self, path):
        """Write the curve as CSV: a kind line, a header, then one ``%.16e`` row
        per node, the bytes ``np.savetxt(fmt="%.16e", delimiter=",")`` writes.

        Each run of equal values down a column is formatted once, and the
        time column once per grid (see ``_csv_fields``).
        """
        cols = ",".join(["t"] + [f"v_{j + 1}" for j in range(self.dim)])
        table, index = _csv_fields(self.grid, self.values)
        with open(path, "wb") as fh:
            fh.write(f"# interpolant_kind: {self.kind}\n{cols}\n".encode("utf-8"))
            block = max(1, _CSV_BLOCK_BYTES // (25 * index.shape[1]))
            for i in range(0, len(index), block):
                rows = index[i : i + block]
                if i == 0 or len(rows) < block:  # a shorter last block takes its own
                    buf = bytearray(25 * rows.size)
                    fields = np.frombuffer(buf, "S25").reshape(rows.shape)
                np.take(table, rows, out=fields, mode="clip")
                # fields are padded with spaces, which no formatted number holds
                fh.write(buf.translate(None, b" "))

    @classmethod
    def from_csv(cls, path, grid):
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
            kind = first.split(":", 1)[1].strip()
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        return cls(grid, data[:, 1:], kind)


def _csv_fields(grid, values):
    """Fixed-width CSV fields of the times of ``grid`` and the columns of
    ``values``: a table of ``S25`` fields and the ``(rows, 1 + columns)``
    int32 index of each value's field in it.

    The schemes hold values over runs of rows (a movement over its cells, a
    frozen block, an equilibrium), so the table holds a field only for each
    run head (``_run_heads``).  The times' heads lead: the first write on a
    grid formats them and keeps their text on it (its times are read-only);
    the values' heads are formatted in one pass (``_write_e16``).  A field
    is ``_CSV_FIELD`` text, possibly with blanks on its left, followed by
    "," or, in the last column, "\n".
    """
    heads, index, n_last = _run_heads([grid.times, *values.T])
    n = int(index[-1, 0]) + 1
    table = np.empty((heads.size, 25), dtype=np.uint8)
    table[:, 24] = ord(",")
    table[heads.size - n_last :, 24] = ord("\n")
    if getattr(grid, "_csv_times", None) is None:
        _write_e16(heads[:n], table[:n, :24])
        grid._csv_times = table[:n, :24].copy()
    table[:n, :24] = grid._csv_times
    _write_e16(heads[n:], table[n:, :24])
    return table.view("S25").reshape(-1), index


def _run_heads(columns):
    """The run heads of each column -- the values whose float64 bits differ
    from the value above them -- one column after the other; the
    ``(rows, columns)`` int32 index of each value's head among them; and the
    number of the last column's.

    Comparing bits, not values, keeps 0.0 and -0.0 apart.  A value's index
    is the number of heads up to it, over all columns in turn, less one.
    """
    bits = np.stack(columns).view(np.uint64)
    new = np.empty(bits.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    index = np.cumsum(new, dtype=np.int32).reshape(bits.shape).T
    index -= 1
    return bits[new].view(np.float64), index, int(np.count_nonzero(new[-1]))


# fast-path decimal exponents: every two-digit exponent of "%.16e"
_E_MIN, _E_MAX = -99, 99
# Veltkamp's splitter: c a - (c a - a) is a's high 26 bits; halves multiply exactly
_SPLIT = 2.0**27 + 1
# 10**k = P / Q, k = 16 - e for each e of the window, as doubles hi + lo: hi
# is P / Q rounded once (int / int), lo the rest P / Q - hi rounded once
_EXACT = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(16 - _E_MIN, 15 - _E_MAX, -1)]
_HI = np.array([P / Q for P, Q in _EXACT])
_LO = np.array([(P * d - n * Q) / (Q * d)
                for (P, Q), (n, d) in zip(_EXACT, map(float.as_integer_ratio, _HI.tolist()))])
_HI_HIGH = _SPLIT * _HI - (_SPLIT * _HI - _HI)
del _EXACT
# a field as six 4-byte words: blank, sign, lead digit and "."; four groups
# of 4 digits; "e", the exponent's sign and its 2 digits
_HEADS = np.frombuffer(b"".join(b" %s%d." % (s, d) for s in (b" ", b"-") for d in range(10)),
                       dtype=np.uint32)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_GROUPS = np.empty((100, 100, 2), dtype=np.uint16)  # "abcd" at 100 ab + cd
_GROUPS[..., 0], _GROUPS[..., 1] = _PAIRS[:, None], _PAIRS
_GROUPS = _GROUPS.view(np.uint32).ravel()
_TAILS = np.frombuffer(("e%+03d" * (_E_MAX - _E_MIN + 1) % (*range(_E_MIN, _E_MAX + 1),)).encode(),
                       np.uint32)
# values per chunk of _write_e16: its temporaries stay under 1 MB, and one
# chunk of 100,000 values is slower than chunks of 4096
_E16_CHUNK = 4096


def _e16_digits(x):
    """Where float64 arithmetic decides ``"%.16e" % x``: a mask ``ok``; on
    it the 17 significant digits of |x| as an int64, and 0 elsewhere; and
    the decimal exponent.

    For e = floor(log10|x|) in [-99, 99], D = |x| 10**(16 - e) is p + r:
    p + q = |x| hi exactly (Dekker's product), r = q + |x| lo, and as hi + lo
    is off by 2**-106 of itself and |x| lo (< 11.2) and r (< 20) round once,
    |p + r - D| < 2**-106 1e17 + 2**-50 + 2**-49 < 4e-15.  A p >= 1e16 is an
    integer and frac = r - floor(r) exact: where frac is farther than 2**-30
    from 1/2, p + floor(r) >= 1e16 and the rounded digits stay below 1e17,
    they are the printed digits (only the double below a power of ten could
    make D < 1e16 by under 4e-15, and none in the window does).  ±0 is 17
    zero digits with exponent 0; subnormals, NaN, infinities, exponents
    outside the window and exact ties are left to ``%``.
    """
    a = np.abs(x)
    ok = (a >= 10.0**_E_MIN) & (a < 10.0 ** (_E_MAX + 1))
    a = np.where(ok, a, 1.0)  # keeps the arithmetic below finite; a zero's e is 0
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.int64)
    hi, lo, hh = (table[e - _E_MIN] for table in (_HI, _LO, _HI_HIGH))
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al, hl = a - ah, hi - hh
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    floor = np.floor(r)
    frac = r - floor
    whole = p.astype(np.int64) + floor.astype(np.int64)
    digits = whole + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > 2.0**-30) & (whole >= 10**16) & (digits < 10**17)
    return ok | (x == 0.0), np.where(ok, digits, 0), e


def _divmod(n, unit):
    """``np.divmod(n, unit)`` by one division and a product, which is faster."""
    high = n // unit
    return high, n - high * unit


def _write_e16(x, out):
    """Write ``"%-24.16e" % value`` of each of ``x`` into the rows of the
    ``(len(x), 24)`` uint8 array ``out``, up to blanks: a fast-path field
    starts with a blank, then one for the sign of a positive value.
    """
    for lo in range(0, len(x), _E16_CHUNK):
        chunk = x[lo : lo + _E16_CHUNK]
        ok, digits, e = _e16_digits(chunk)
        high, low = (half.astype(np.int32) for half in _divmod(digits, 10**8))
        lead, high = _divmod(high, 10**8)
        words = np.empty((len(chunk), 6), dtype=np.uint32)
        np.take(_HEADS, np.signbit(chunk) * 10 + lead, out=words[:, 0], mode="clip")
        for k, group in enumerate(_divmod(high, 10**4) + _divmod(low, 10**4), 1):
            np.take(_GROUPS, group, out=words[:, k], mode="clip")
        np.take(_TAILS, e - _E_MIN, out=words[:, 5], mode="clip")
        rows = out[lo : lo + _E16_CHUNK]
        rows[:] = words.view(np.uint8)
        slow = np.flatnonzero(~ok)
        if slow.size:
            text = (_CSV_FIELD * slow.size) % tuple(chunk[slow].tolist())
            rows[slow] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 24)


def repetition_apply(j, P: Partition, g: SampledCurve) -> SampledCurve:
    """Repetition operator T^(j) as an exact cell shuffle.

    T^(1) copies each left semi-interval's cells onto the following right
    semi-interval; T^(2) copies each right semi-interval's cells onto the
    preceding left one.
    """
    if j not in (1, 2):
        raise InputError("repetition operator index must be 1 or 2")
    grid = g.grid
    if grid.partition is not P and not np.array_equal(grid.partition.nodes, P.nodes):
        raise InputError("curve grid does not match the partition")
    # cells as (step, semi-interval, cell, component): T^(j) repeats the
    # j-th semi-interval of every step over the whole step
    cells = g.cell_values.reshape(P.N, 2, grid.M, g.dim)
    values = np.empty_like(g.values)
    values[0] = g.values[0]
    values[1:].reshape(cells.shape)[:] = cells[:, j - 1 : j]
    return SampledCurve(grid, values, g.kind)

