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

import io
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Partition",
    "RefinedGrid",
    "SampledCurve",
    "build_partition",
    "chi",
    "repetition_apply",
    "integrate",
]

DEFAULT_INNER_FACTOR = 8


@dataclass(frozen=True)
class Partition:
    """Strictly increasing nodes 0 = t^0 < ... < t^N = T with midpoints."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).reshape(-1)
        if nodes.size < 2:
            raise InputError("a partition needs at least two nodes")
        if nodes[0] != 0.0:
            raise InputError("partitions must start at t = 0")
        if np.any(np.diff(nodes) <= 0):
            raise InputError("partition nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def T(self):
        return float(self.nodes[-1])

    @property
    def N(self):
        return self.nodes.size - 1

    @property
    def taus(self):
        return np.diff(self.nodes)

    @property
    def midpoints(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def max_step(self):
        return float(np.max(self.taus))

    def step_index(self, t):
        """k with t in (t^{k-1}, t^k]; t = 0 maps to the first step."""
        t = float(t)
        if t < 0.0 or t > self.T:
            raise InputError(f"time {t} outside [0, {self.T}]")
        if t == 0.0:
            return 1
        return int(np.searchsorted(self.nodes, t, side="left"))

    def in_left_semi(self, t):
        """True iff t lies in a left semi-interval (t^{k-1}, t^{k-1/2}]."""
        k = self.step_index(t)
        return t <= self.midpoints[k - 1]

    def local_tau(self, t):
        return float(self.taus[self.step_index(t) - 1])

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


def chi(P: Partition, t) -> int:
    """Characteristic function of the union of left semi-intervals."""
    t = float(t)
    if not 0.0 < t < P.T:
        raise InputError(f"time {t} outside (0, {P.T})")
    return 1 if P.in_left_semi(t) else 0


class RefinedGrid:
    """Partition refined by M equal cells per semi-interval (M even)."""

    def __init__(self, partition: Partition, inner_factor=DEFAULT_INNER_FACTOR):
        M = int(inner_factor)
        if M < 1 or M % 2:
            raise InputError("inner factor must be a positive even count")
        self.partition = partition
        self.M = M
        times = [0.0]
        for k in range(partition.N):
            a = partition.nodes[k]
            mid = partition.midpoints[k]
            b = partition.nodes[k + 1]
            times.extend(np.linspace(a, mid, M + 1)[1:])
            times.extend(np.linspace(mid, b, M + 1)[1:])
        self.times = np.asarray(times)
        self.times.setflags(write=False)
        self.n_cells = 2 * M * partition.N
        widths = np.diff(self.times)
        widths.setflags(write=False)
        self.cell_widths = widths
        steps = np.repeat(np.arange(1, partition.N + 1), 2 * M)
        steps.setflags(write=False)
        self.cell_steps = steps
        left = np.tile(np.concatenate([np.ones(M), np.zeros(M)]), partition.N)
        left = left.astype(bool)
        left.setflags(write=False)
        self.cell_is_left = left

    @property
    def n_nodes(self):
        return self.n_cells + 1

    def cell_index(self, t):
        """i with t in (times[i], times[i+1]]; t = 0 maps to the first cell."""
        t = float(t)
        if t < 0.0 or t > self.partition.T:
            raise InputError(f"time {t} outside [0, {self.partition.T}]")
        if t == 0.0:
            return 0
        return int(np.searchsorted(self.times, t, side="left")) - 1

    def cell_midpoints(self):
        return 0.5 * (self.times[:-1] + self.times[1:])

    def node_index_of(self, t, tol=1e-12):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol * max(1.0, self.partition.T):
            raise InputError(f"time {t} is not a grid node")
        return i


INTERPOLANT_KINDS = (
    "piecewise-constant",
    "delayed-constant",
    "piecewise-linear",
    "variational",
)


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
        return SampledCurve(
            self.grid, np.vstack([rates[:1], rates]), "piecewise-constant"
        )

    def with_values(self, values, kind=None):
        return SampledCurve(self.grid, values, kind or self.kind)

    def l1_norm(self, interval=None):
        return integrate(self, lambda v: float(np.linalg.norm(v)), interval)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self._csv_text())

    def _csv_text(self):
        buf = io.StringIO()
        buf.write(f"# interpolant_kind: {self.kind}\n")
        cols = ["t"] + [f"v_{j + 1}" for j in range(self.dim)]
        buf.write(",".join(cols) + "\n")
        for t, row in zip(self.grid.times, self.values):
            cells = [format(t, ".16e")] + [format(x, ".16e") for x in row]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path, grid):
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
            kind = first.split(":", 1)[1].strip()
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        return cls(grid, data[:, 1:], kind)


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


def integrate(curve: SampledCurve, f, interval=None) -> float:
    """Composite midpoint quadrature of f(curve(t)) over [s, t].

    Partial cells at the interval ends are split exactly.  For piecewise
    constant curves the rule integrates cell values exactly; for piecewise
    linear kinds the integrand is evaluated at cell midpoints.
    """
    grid = curve.grid
    T = grid.partition.T
    if interval is None:
        s, t = 0.0, T
    else:
        s, t = float(interval[0]), float(interval[1])
    if s > t:
        raise InputError(f"empty or reversed interval [{s}, {t}]")
    if s < 0.0 or t > T:
        raise InputError(f"interval [{s}, {t}] outside [0, {T}]")
    if s == t:
        return 0.0

    times = grid.times
    total = 0.0
    i0 = grid.cell_index(s) if s > 0 else 0
    # s may sit exactly on a node; start from the first cell whose right node
    # exceeds s.
    while times[i0 + 1] <= s:
        i0 += 1
    i = i0
    while i < grid.n_cells and times[i] < t:
        a = max(times[i], s)
        b = min(times[i + 1], t)
        if b <= a:
            i += 1
            continue
        if curve.kind == "piecewise-linear":
            val = curve.at(0.5 * (a + b))
        else:
            val = curve.values[i + 1]
        total += (b - a) * float(f(val))
        i += 1
    return total
