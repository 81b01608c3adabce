"""Energy-dissipation-balance audit and convergence studies.

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

import math

import numpy as np

from .errors import InputError, InvariantError
from .partitions import DEFAULT_INNER_FACTOR, SampledCurve, build_partition, repetition_apply
from .solvers import (
    GradientSystem,
    SchemeOutput,
    _tilde,
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
    seg = out.segments
    s, t = interval
    lo = np.maximum(seg.t0, s)
    hi = np.minimum(seg.t1, t)
    keep = np.flatnonzero(hi > lo)
    return (hi - lo)[keep], seg.first[keep], seg.velocity[keep], seg.xi[keep]


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


class EDBReport:
    """All terms of one energy-dissipation audit, and the decomposition
    curves ``v1`` and ``v2`` when they were taken."""

    # the scalar terms, the keys of edb.json
    _TERMS = ("interval", "form", "d_rate", "d_slope", "power_integral", "energy_start",
             "energy_end", "residual", "slack", "passed", "remainder", "remainder_bound",
             "decomposition_defect", "decomposition_value_gap", "quadrature_error",
             "inner_budget")

    def __init__(self, interval, form, d_rate, d_slope, power_integral, energy_start,
                 energy_end, residual, slack, passed, remainder=None, remainder_bound=None,
                 decomposition_defect=None, decomposition_value_gap=None,
                 quadrature_error=0.0, inner_budget=0.0, v1: SampledCurve = None,
                 v2: SampledCurve = None):
        self.interval = interval
        self.form = form
        self.d_rate = d_rate
        self.d_slope = d_slope
        self.power_integral = power_integral
        self.energy_start = energy_start
        self.energy_end = energy_end
        self.residual = residual
        self.slack = slack
        self.passed = passed
        self.remainder = remainder
        self.remainder_bound = remainder_bound
        self.decomposition_defect = decomposition_defect
        self.decomposition_value_gap = decomposition_value_gap
        # the power is exact, so no quadrature error; kept as a key of edb.json
        self.quadrature_error = quadrature_error
        self.inner_budget = inner_budget
        self.v1 = v1
        self.v2 = v2

    def to_dict(self):
        """Every scalar term that was computed; the curves are left out."""
        return {name: getattr(self, name) for name in self._TERMS
                if getattr(self, name) is not None}


def _trajectory_state(out, t):
    """State at time t; exact for segment-backed runs, where it is the state
    on the first segment that holds t, or the end state if none does."""
    seg = out.segments
    if seg is not None:
        # segments follow each other, so a later one holds t only if this one does
        k = int(np.searchsorted(seg.t1, t))
        if k == len(seg.t1) or not seg.t0[k] <= t:
            k, t = -1, seg.t1[-1]
        return seg.u0[k] + (t - seg.t0[k]) * seg.velocity[k]
    curve = out.u_const if out.is_movement else out.u_linear
    return curve.at(t)


def _anchored_power(E, out, interval):
    """The integral of d_t E over the audited cells, on each cell at the
    anchor of the prox step that holds it.

    A step from anchor a with eval time t_k is minimal, so it bounds
    E(t_k, u_k) + ... by E(t_k, a) = E(t_{k-1}, a) + int d_t E(r, a) dr.
    At a fixed state the integral is an energy difference, exact with no
    quadrature, and exactly 0 for an energy that does not depend on time.
    """
    cells, lo, hi = _clip_cells(out.grid, interval)
    i = np.arange(cells.start, cells.stop)
    anchors = out.u_const.values[i - i % out.step_cells]
    return float(np.sum(E.eval(hi, anchors) - E.eval(lo, anchors)))


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
    with_decomposition=True,
) -> EDBReport:
    """Full energy-dissipation audit of a scheme output on an interval.

    An exact flow (one with ``segments``) is audited as the balance, every
    other run as the one-sided inequality of the minimizing movements.
    """
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
    power = _anchored_power(E, out, interval)
    residual = e_end + d_rate + d_slope - e_start - power

    n_steps = max(
        1, int(np.sum((out.partition.nodes[1:] > s) & (out.partition.nodes[:-1] < t)))
    )
    # the prox solves the run made per step: none for an exact flow, one for
    # an effective run, 2 half-steps for AMM, one per cell for a split run
    per_step = len(out.stats.get("inner_iterations", ())) / out.partition.N
    inner_budget = per_step * n_steps * out.inner_tol
    scale = 1.0 + abs(e_start) + abs(e_end)
    slack = SLACK_FACTOR * inner_budget + 1e-11 * scale

    form = "balance" if out.segments is not None else "inequality"
    remainder, remainder_bound = remainder_term(out, E, interval)
    if form == "inequality" and out.scheme != "amm":
        # the one-sided estimate of a prox step carries the convexity-defect
        # remainder on its right-hand side; an amm run is audited without it
        # (README, "The AMM slack rule")
        slack += remainder_bound

    if form == "balance":
        passed = abs(residual) <= slack
    else:
        passed = residual <= slack
    # fail closed: an infinite slack or a non-finite term would pass anything
    terms = (d_rate, d_slope, power, e_start, e_end, residual, slack,
             remainder, remainder_bound)
    passed = passed and all(map(math.isfinite, terms))

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
        inner_budget=float(inner_budget),
        remainder=remainder,
        remainder_bound=remainder_bound,
    )

    if with_decomposition and out.scheme != "effective":
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
    seg = ref_out.segments
    if seg is not None:
        k = np.searchsorted(seg.t1, times, side="left")
        return seg.velocity[np.minimum(k, len(seg.t1) - 1)]
    return ref_out.rate.at(times)


def convergence_study(
    sys: GradientSystem,
    u0,
    scheme,
    N_list,
    T=1.0,
    reference_factor=16,
    tol=1e-10,
    inner=DEFAULT_INNER_FACTOR,
) -> StudyTable:
    """Refinement study of a scheme against the effective reference.

    The reference is the effective solve on a partition refined by
    ``reference_factor`` relative to the finest tested N (for systems with
    an exact regime solver that trajectory is exact regardless of N).
    """
    N_list = list(N_list)
    if any(n2 <= n1 for n1, n2 in zip(N_list, N_list[1:])):
        raise InputError("N list must be increasing")
    ref_P = build_partition(T, N=reference_factor * max(N_list))
    ref_out = effective_solve(sys, ref_P, u0, tol, 2)
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
        report = edb_audit(out, sys)
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
            "rate_gap": abs(report.d_rate - ref_rate_int),
            "slope_gap": abs(report.d_slope - ref_slope_int),
            "decomposition_defect": defect,
        }

    rows = [one_row(N) for N in N_list]
    for prev, row in zip(rows, rows[1:]):
        e0, e1 = prev["sup_error"], row["sup_error"]
        n0, n1 = prev["N"], row["N"]
        if e0 > 0 and e1 > 0:
            row["empirical_order"] = math.log(e0 / e1) / math.log(n1 / n0)
    return StudyTable(rows)
