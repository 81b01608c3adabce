"""Energy-dissipation-balance audit and convergence studies.

The rate term integrates the rescaled primal potentials along the scheme
rate, alternating between the two mechanisms on left/right semi-intervals;
the slope term does the same with the conjugates at the negative force.
Both admit an equivalent rewriting through the repetition operators, which
holds exactly on the shared cell grid and is asserted wherever a term is
taken over the cells of a node-aligned interval.

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
from .solvers import GradientSystem, SchemeOutput, effective_potential, effective_solve, solve

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


def _audit_interval(out, interval):
    """The audited interval (s, t) as floats: [0, T] for None; any other
    interval must lie inside [0, T]."""
    T = out.partition.T
    s, t = (0.0, T) if interval is None else (float(interval[0]), float(interval[1]))
    if not 0.0 <= s <= t <= T:
        raise InputError(f"audit interval ({s}, {t}) is not inside [0, {T}]")
    return s, t


def _clip_cells(grid, interval):
    """(cells, lo, hi): the cells overlapping [s, t] and their ends clipped to
    it.  The overlapping cells are contiguous, so ``cells`` is a slice and
    selecting rows with it copies nothing."""
    s, t = interval
    lo = np.maximum(grid.times[:-1], s)
    hi = np.minimum(grid.times[1:], t)
    idx = np.flatnonzero(hi > lo)
    cells = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
    return cells, lo[cells], hi[cells]


def _pieces(out, interval):
    """(widths, first, rates, forces) of the run inside ``interval``: one row
    per clipped segment of an exact flow, else per clipped grid cell;
    ``first`` flags the rows of mechanism 1."""
    seg = out.segments
    if seg is None:
        cells, lo, hi = _clip_cells(out.grid, interval)
        forces = None if out.xi is None else out.xi.cell_values[cells]
        return hi - lo, out.grid.cell_is_left[cells], out.rate.cell_values[cells], forces
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


def _dissipation(out, pair, interval, dual):
    """chi R~_1(U') + (1 - chi) R~_2(U') integrated over the run's pieces, or
    with ``dual`` chi R~_1*(-xi) + (1 - chi) R~_2*(-xi).

    On a node-aligned interval of a run held on the grid cells, the value is
    checked against the repetition form R_1(T1 U'/2) + R_2(T2 U'/2), or
    R_1*(-T1 xi) + R_2*(-T2 xi), which equals it exactly on the cells.  An
    exact flow is integrated over its segments, which are not cells.
    """
    interval = _audit_interval(out, interval)
    widths, first, rates, forces = _pieces(out, interval)
    tilde = [R.rescaled() for R in pair]
    if dual:
        pair, tilde = [R.conjugate for R in pair], [R.conjugate for R in tilde]
        rows, curve, scale = -forces, out.xi, -1.0
    else:
        rows, curve, scale = rates, out.rate, 0.5
    value = _by_mechanism(widths, first, rows, *tilde)

    nodes = out.partition.nodes
    if out.segments is None and all(np.any(np.abs(nodes - x) <= 1e-12) for x in interval):
        cells = _clip_cells(out.grid, interval)[0]
        rep = [R(scale * repetition_apply(j, out.partition, curve).cell_values[cells])
               for j, R in zip((1, 2), pair)]
        rep_value = float(widths @ (rep[0] + rep[1]))
        if not math.isclose(value, rep_value, rel_tol=REPETITION_RTOL, abs_tol=1e-12):
            raise InvariantError(f"repetition identity violated: {value} vs {rep_value}")
    return value


def rate_term(out: SchemeOutput, pair, interval=None) -> float:
    """Dissipation-rate integral: chi R~_1(U') + (1 - chi) R~_2(U').

    Also evaluates the repetition-operator form R_1(T1 U'/2) + R_2(T2 U'/2)
    on node-aligned intervals of a run held on the grid cells and asserts
    agreement to quadrature exactness.
    """
    return _dissipation(out, pair, interval, dual=False)


def slope_term(out: SchemeOutput, pair, interval=None) -> float:
    """Dual-dissipation integral: chi R~_1*(-xi) + (1 - chi) R~_2*(-xi)."""
    if out.xi is None:
        raise InputError("scheme output carries no force curve")
    return _dissipation(out, pair, interval, dual=True)


class EDBReport:
    """All terms of one energy-dissipation audit, and the decomposition
    curves ``v1`` and ``v2`` when they were taken."""

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
        """Every scalar term that was computed, the keys of edb.json; the
        curves are left out."""
        return {name: value for name, value in vars(self).items()
                if value is not None and name not in ("v1", "v2")}


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


def _decomposition(out, sys, interval, r_eff, v1, v2):
    """The defect and the value gap of the decomposition (v1, v2) of the
    rate against the effective potential."""
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
    return defect, rep_value - eff_value


def _effective_terms(out, r_eff, interval):
    """Rate and slope integrals of the effective potential along a run."""
    widths, _, rates, forces = _pieces(out, interval)
    return float(widths @ r_eff(rates)), float(widths @ r_eff.conjugate(-forces))


def edb_audit(
    out: SchemeOutput,
    sys: GradientSystem,
    interval=None,
    with_decomposition=True,
) -> EDBReport:
    """Full energy-dissipation audit of a scheme output on an interval
    inside [0, T], by default all of it.

    An exact flow (one with ``segments``) is audited as the balance, every
    other run as the one-sided inequality of the minimizing movements.
    """
    E = sys.energy
    s, t = interval = _audit_interval(out, interval)

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

    if with_decomposition:
        # the halved repetitions v_j = T_j U'/2; the run of the effective flow
        # is not scored against its own potential
        repeated = [repetition_apply(j, out.partition, out.rate) for j in (1, 2)]
        report.v1, report.v2 = (curve.with_values(0.5 * curve.values) for curve in repeated)
        if out.scheme != "effective":
            defect, gap = _decomposition(out, sys, interval, effective_potential(sys),
                                         report.v1, report.v2)
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
    interval = _audit_interval(out, interval)
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
        halves = report.v1.cell_values + report.v2.cell_values
        ref_rate = _reference_rate(ref_out, out.grid.cell_midpoints())
        defect = float(out.grid.cell_widths @ np.linalg.norm(halves - ref_rate, axis=1))
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
