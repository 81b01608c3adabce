"""Energy-dissipation-balance audits and convergence studies.

The rate term integrates the rescaled primal potentials along the scheme
rate, alternating between the two mechanisms on left/right semi-intervals;
the slope term does the same with the conjugates at the negative force.
Both admit an equivalent rewriting through the repetition operators, which
holds exactly on the shared cell grid and is asserted on every call.

An audit report combines those terms with the energy drop and the power
integral into the balance residual

    E(t, U(t)) + D_rate + D_slope - E(s, U(s)) - integral of d_t E,

which vanishes for exact flows and is nonpositive (up to slack) in the
inequality form satisfied by the minimizing-movement schemes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvariantError
from .partitions import SampledCurve, repetition_apply
from .potentials import Potential, Rescaled
from .solvers import (
    GradientSystem,
    SchemeOutput,
    effective_potential,
    effective_solve,
    solve,
)

__all__ = [
    "EDBReport",
    "rate_term",
    "slope_term",
    "edb_audit",
    "remainder_term",
    "convergence_study",
    "StudyTable",
]

SLACK_FACTOR = 10.0
REPETITION_RTOL = 1e-10


def _tilde(R: Potential) -> Potential:
    return R if isinstance(R, Rescaled) else Rescaled(R)


def _clip_cells(grid, interval):
    """(cells, lo, hi): the cells overlapping [s, t] and their ends clipped to
    it.  The overlapping cells are contiguous, so ``cells`` is a slice and
    selecting rows with it copies nothing."""
    s, t = float(interval[0]), float(interval[1])
    if s > t:
        raise InputError("reversed audit interval")
    lo = np.maximum(grid.times[:-1], s)
    hi = np.minimum(grid.times[1:], t)
    idx = np.flatnonzero(hi > lo)
    cells = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
    return cells, lo[cells], hi[cells]


def _segment_pieces(out, interval):
    """(widths, first, velocities, forces) of the pieces of the run's segments
    inside ``interval``; ``first`` flags the pieces of mechanism 1."""
    segs = out.segments
    s, t = interval
    lo = np.maximum([seg.t0 for seg in segs], s)
    hi = np.minimum([seg.t1 for seg in segs], t)
    keep = np.flatnonzero(hi > lo)
    dim = out.u_linear.dim
    first = np.array([segs[i].mechanism == "1" for i in keep], dtype=bool)
    vel = np.array([segs[i].velocity for i in keep]).reshape(-1, dim)
    xi = np.array([segs[i].xi for i in keep]).reshape(-1, dim)
    return (hi - lo)[keep], first, vel, xi


def _by_mechanism(widths, first, rows, f1, f2):
    """Sum of widths * f(rows), with f1 on the rows where ``first`` holds and
    f2 on the others; each function sees only its own rows."""
    vals = np.empty(len(rows))
    vals[first] = f1(rows[first])
    vals[~first] = f2(rows[~first])
    return float(widths @ vals)


def _is_node_aligned(P, interval, tol=1e-12):
    s, t = interval
    return bool(
        np.any(np.abs(P.nodes - s) <= tol) and np.any(np.abs(P.nodes - t) <= tol)
    )


def _check_repetition(chi_val, rep_val):
    if not math.isclose(chi_val, rep_val, rel_tol=REPETITION_RTOL, abs_tol=1e-12):
        raise InvariantError(f"repetition identity violated: {chi_val} vs {rep_val}")


def rate_term(out: SchemeOutput, pair, interval=None) -> float:
    """Dissipation-rate integral: chi R~_1(U') + (1 - chi) R~_2(U').

    Also evaluates the repetition-operator form R_1(T1 U'/2) + R_2(T2 U'/2)
    on node-aligned intervals and asserts agreement to quadrature exactness.
    """
    r1, r2 = pair
    t1, t2 = _tilde(r1), _tilde(r2)
    interval = (0.0, out.partition.T) if interval is None else interval
    rate = out.rate

    cells, lo, hi = _clip_cells(out.grid, interval)
    widths = hi - lo
    chi_val = _by_mechanism(
        widths, out.grid.cell_is_left[cells], rate.cell_values[cells], t1, t2
    )

    if _is_node_aligned(out.partition, interval):
        v1 = repetition_apply(1, out.partition, rate).cell_values[cells]
        v2 = repetition_apply(2, out.partition, rate).cell_values[cells]
        _check_repetition(chi_val, float(widths @ (r1(0.5 * v1) + r2(0.5 * v2))))

    if out.segments is not None:
        widths, first, vel, _ = _segment_pieces(out, interval)
        return _by_mechanism(widths, first, vel, t1, t2)
    return chi_val


def slope_term(out: SchemeOutput, pair, interval=None) -> float:
    """Dual-dissipation integral: chi R~_1*(-xi) + (1 - chi) R~_2*(-xi)."""
    r1, r2 = pair
    t1, t2 = _tilde(r1), _tilde(r2)
    interval = (0.0, out.partition.T) if interval is None else interval
    if out.xi is None:
        raise InputError("scheme output carries no force curve")

    cells, lo, hi = _clip_cells(out.grid, interval)
    widths = hi - lo
    chi_val = _by_mechanism(
        widths, out.grid.cell_is_left[cells], -out.xi.cell_values[cells],
        t1.conjugate, t2.conjugate,
    )

    if _is_node_aligned(out.partition, interval):
        x1 = repetition_apply(1, out.partition, out.xi).cell_values[cells]
        x2 = repetition_apply(2, out.partition, out.xi).cell_values[cells]
        rep_val = float(widths @ (r1.conjugate(-x1) + r2.conjugate(-x2)))
        _check_repetition(chi_val, rep_val)

    if out.segments is not None:
        widths, first, _, xi = _segment_pieces(out, interval)
        return _by_mechanism(widths, first, -xi, t1.conjugate, t2.conjugate)
    return chi_val


@dataclass
class EDBReport:
    """All terms of one energy-dissipation audit."""

    interval: tuple
    form: str
    d_rate: float
    d_slope: float
    power_integral: float
    energy_start: float
    energy_end: float
    residual: float
    slack: float
    passed: bool
    remainder: float = None
    remainder_bound: float = None
    decomposition_defect: float = None
    decomposition_value_gap: float = None
    quadrature_error: float = 0.0
    inner_budget: float = 0.0
    v1: SampledCurve = field(default=None, repr=False)
    v2: SampledCurve = field(default=None, repr=False)

    def to_dict(self):
        d = {
            "interval": [self.interval[0], self.interval[1]],
            "form": self.form,
            "d_rate": self.d_rate,
            "d_slope": self.d_slope,
            "power_integral": self.power_integral,
            "energy_start": self.energy_start,
            "energy_end": self.energy_end,
            "residual": self.residual,
            "slack": self.slack,
            "passed": self.passed,
            "quadrature_error": self.quadrature_error,
            "inner_budget": self.inner_budget,
        }
        for key in ("remainder", "remainder_bound", "decomposition_defect",
                    "decomposition_value_gap"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def _trajectory_state(out, t):
    """State at time t; exact for segment-backed runs."""
    if out.segments:
        for seg in out.segments:
            if seg.t0 <= t <= seg.t1:
                return seg.state(t)
        return out.segments[-1].state(out.segments[-1].t1)
    curve = out.u_const if out.is_movement else out.u_linear
    return curve.at(t)


def _power_integral(E, out, interval):
    """Midpoint quadrature of d_t E along the run, with an error estimate."""
    curve = out.u_variational
    if curve is None:
        curve = out.u_const if out.is_movement else out.u_linear
    cells, lo, hi = _clip_cells(out.grid, interval)
    widths = hi - lo
    start, end = curve.values[:-1][cells], curve.values[1:][cells]
    # constant kinds hold the cell value on the whole cell
    continuous = curve.kind in ("piecewise-linear", "variational")
    mid_state = 0.5 * (start + end) if continuous else end
    f_mid = E.power(0.5 * (lo + hi), mid_state)
    f_trap = 0.5 * (E.power(lo, start) + E.power(hi, end))
    return float(widths @ f_mid), float(widths @ np.abs(f_mid - f_trap))


def _decomposition(out, sys, interval, r_eff):
    v1 = repetition_apply(1, out.partition, out.rate)
    v1 = v1.with_values(0.5 * v1.values)
    v2 = repetition_apply(2, out.partition, out.rate)
    v2 = v2.with_values(0.5 * v2.values)
    cells, lo, hi = _clip_cells(out.grid, interval)
    widths = hi - lo
    # the node-to-node affine interpolant has one rate per step, so the
    # effective potential is evaluated once per step the interval touches
    steps, step_of_cell = np.unique(out.grid.cell_steps[cells] - 1, return_inverse=True)
    rates = np.diff(out.node_states(), axis=0) / out.partition.taus[:, None]
    step_rates = rates[steps]
    c1, c2 = v1.cell_values[cells], v2.cell_values[cells]
    defect = widths @ np.linalg.norm(c1 + c2 - step_rates[step_of_cell], axis=1)
    rep_value = widths @ (sys.r1(c1) + sys.r2(c2))
    eff_value = widths @ r_eff(step_rates)[step_of_cell]
    return v1, v2, defect, rep_value - eff_value


def _effective_terms(out, r_eff, interval):
    """Rate and slope integrals of the effective potential along a run."""
    if out.segments is not None:
        widths, _, rates, xi = _segment_pieces(out, interval)
    else:
        cells, lo, hi = _clip_cells(out.grid, interval)
        widths = hi - lo
        rates, xi = out.rate.cell_values[cells], out.xi.cell_values[cells]
    return float(widths @ r_eff(rates)), float(widths @ r_eff.conjugate(-xi))


def edb_audit(
    out: SchemeOutput,
    sys: GradientSystem,
    interval=None,
    form="balance",
    with_decomposition=True,
) -> EDBReport:
    """Full energy-dissipation audit of a scheme output on an interval."""
    E = sys.energy
    interval = (0.0, out.partition.T) if interval is None else (
        float(interval[0]),
        float(interval[1]),
    )
    s, t = interval

    if out.scheme == "effective":
        d_rate, d_slope = _effective_terms(out, effective_potential(sys), interval)
    else:
        pair = (sys.r1, sys.r2)
        d_rate = rate_term(out, pair, interval)
        d_slope = slope_term(out, pair, interval)

    e_start = E.eval(s, _trajectory_state(out, s))
    e_end = E.eval(t, _trajectory_state(out, t))
    power, quad_err = _power_integral(E, out, interval)
    residual = e_end + d_rate + d_slope - e_start - power

    n_steps = max(
        1, int(np.sum((out.partition.nodes[1:] > s) & (out.partition.nodes[:-1] < t)))
    )
    # prox solves per step: 2 half-steps, or 2 * inner factor cells per step
    per_step = 2.0 if out.is_movement else 2.0 * out.grid.M
    inner_budget = per_step * n_steps * out.inner_tol
    scale = 1.0 + abs(e_start) + abs(e_end)
    slack = SLACK_FACTOR * (inner_budget + quad_err) + 1e-11 * scale

    remainder = remainder_bound = None
    if out.u_delayed is not None:
        remainder, remainder_bound = remainder_term(out, E, interval)
    if (
        form == "inequality"
        and out.u_variational is None
        and remainder_bound is not None
    ):
        # without the variational interpolant the one-sided estimate carries
        # the convexity-defect remainder on its right-hand side
        slack += remainder_bound

    if form == "balance":
        passed = abs(residual) <= slack
    elif form == "inequality":
        passed = residual <= slack
    else:
        raise InputError(f"unknown audit form {form!r}")

    report = EDBReport(
        interval=interval,
        form=form,
        d_rate=float(d_rate),
        d_slope=float(d_slope),
        power_integral=float(power),
        energy_start=float(e_start),
        energy_end=float(e_end),
        residual=float(residual),
        slack=float(slack),
        passed=bool(passed),
        quadrature_error=float(quad_err),
        inner_budget=float(inner_budget),
        remainder=remainder,
        remainder_bound=remainder_bound,
    )

    if with_decomposition and sys.r2 is not None and out.scheme != "effective":
        r_eff = effective_potential(sys)
        v1, v2, defect, gap = _decomposition(out, sys, interval, r_eff)
        report.v1, report.v2 = v1, v2
        report.decomposition_defect = float(defect)
        report.decomposition_value_gap = float(gap)
    return report


def remainder_term(out: SchemeOutput, E, interval=None, weights=None):
    """Midpoint-shift remainder of the discrete balance, with its bound.

    Computes (1/tau) int [E(t_k, U(r)) - E(t_k, U(r - tau/2))
    - <xi(r), U(r) - U(r - tau/2)>] dr together with the convexity-defect
    bound (|lambda|/2) int ||U_lin'|| ||U(r) - U(r - tau/2)|| dr.
    """
    if out.u_delayed is None:
        raise InputError("remainder needs the delayed interpolant")
    interval = (0.0, out.partition.T) if interval is None else interval
    P = out.partition
    cells, lo, hi = _clip_cells(out.grid, interval)
    widths = hi - lo
    steps = out.grid.cell_steps[cells]
    t_bar = P.nodes[steps]
    tau = P.taus[steps - 1]
    lam = abs(getattr(E, "lambda_convexity", 0.0))
    w_vec = 1.0 if weights is None else np.asarray(weights)

    u_now = out.u_const.cell_values[cells]
    u_del = out.u_delayed.cell_values[cells]
    diff = u_now - u_del
    defect = E.eval(t_bar, u_now) - E.eval(t_bar, u_del)
    defect -= np.einsum("ij,ij->i", out.xi.cell_values[cells], diff)
    total = (widths / tau) @ defect
    rate_norms = np.linalg.norm(w_vec * out.rate.cell_values[cells], axis=1)
    diff_norms = np.linalg.norm(w_vec * diff, axis=1)
    bound = 0.5 * lam * (widths @ (rate_norms * diff_norms))
    return float(total), float(bound)


class StudyTable:
    """Rows of a refinement study with CSV serialization."""

    COLUMNS = (
        "N",
        "sup_error",
        "empirical_order",
        "edb_residual",
        "rate_gap",
        "slope_gap",
        "decomposition_defect",
    )

    def __init__(self, rows):
        self.rows = rows

    def column(self, name):
        return [row[name] for row in self.rows]

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for c in self.COLUMNS:
                    val = row[c]
                    if val is None:
                        cells.append("")
                    elif c == "N":
                        cells.append(str(val))
                    else:
                        cells.append(format(val, ".16e"))
                fh.write(",".join(cells) + "\n")


def _reference_rate(ref_out, times):
    """Rate of the reference run at each of ``times``; a time on a segment
    boundary takes the earlier segment."""
    segs = ref_out.segments
    if segs:
        k = np.searchsorted([seg.t1 for seg in segs], times, side="left")
        return np.array([seg.velocity for seg in segs])[np.minimum(k, len(segs) - 1)]
    return ref_out.rate.at(times)


def convergence_study(
    sys: GradientSystem,
    u0,
    scheme,
    N_list,
    T=1.0,
    reference_factor=16,
    tol=1e-10,
    inner=None,
    jobs=None,
) -> StudyTable:
    """Refinement study of a scheme against the effective reference.

    The reference is the effective solve on a partition refined by
    ``reference_factor`` relative to the finest tested N (for systems with
    an exact regime solver that trajectory is exact regardless of N).
    """
    from concurrent.futures import ThreadPoolExecutor

    from .partitions import DEFAULT_INNER_FACTOR, build_partition

    N_list = list(N_list)
    if any(n2 <= n1 for n1, n2 in zip(N_list, N_list[1:])):
        raise InputError("N list must be increasing")
    inner = DEFAULT_INNER_FACTOR if inner is None else inner
    ref_P = build_partition(T, N=reference_factor * max(N_list))
    ref_out = effective_solve(sys, ref_P, u0, tol=tol, inner_factor=2)
    ref_rate_int, ref_slope_int = _effective_terms(
        ref_out, effective_potential(sys), (0.0, ref_P.T)
    )

    def one_row(N):
        P = build_partition(T, N=N)
        out = solve(sys, scheme, P, u0, tol, inner)
        states = out.node_states()
        errs = [
            float(np.linalg.norm(states[i] - _trajectory_state(ref_out, tn)))
            for i, tn in enumerate(P.nodes)
        ]
        form = "inequality" if out.is_movement else "balance"
        report = edb_audit(out, sys, form=form)
        pair_rate = report.d_rate
        pair_slope = report.d_slope
        v1 = repetition_apply(1, P, out.rate).cell_values
        v2 = repetition_apply(2, P, out.rate).cell_values
        ref_rate = _reference_rate(ref_out, out.grid.cell_midpoints())
        defect = float(
            out.grid.cell_widths @ np.linalg.norm(0.5 * (v1 + v2) - ref_rate, axis=1)
        )
        return {
            "N": N,
            "sup_error": max(errs),
            "empirical_order": None,
            "edb_residual": report.residual,
            "rate_gap": abs(pair_rate - ref_rate_int),
            "slope_gap": abs(pair_slope - ref_slope_int),
            "decomposition_defect": defect,
        }

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one_row, N_list))
    else:
        rows = [one_row(N) for N in N_list]

    for prev, row in zip(rows, rows[1:]):
        e0, e1 = prev["sup_error"], row["sup_error"]
        n0, n1 = prev["N"], row["N"]
        if e0 > 0 and e1 > 0:
            row["empirical_order"] = math.log(e0 / e1) / math.log(n1 / n0)
    return StudyTable(rows)
