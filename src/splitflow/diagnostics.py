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
    """(indices, effective widths) of cells overlapping [s, t]."""
    s, t = float(interval[0]), float(interval[1])
    if s > t:
        raise InputError("reversed audit interval")
    times = grid.times
    idx, widths = [], []
    for i in range(grid.n_cells):
        a, b = max(times[i], s), min(times[i + 1], t)
        if b > a:
            idx.append(i)
            widths.append(b - a)
    return np.array(idx, dtype=int), np.array(widths)


def _segment_pieces(segments, interval):
    s, t = interval
    for seg in segments:
        a, b = max(seg.t0, s), min(seg.t1, t)
        if b > a:
            yield seg, a, b


def _is_node_aligned(P, interval, tol=1e-12):
    s, t = interval
    return any(abs(s - x) <= tol for x in P.nodes) and any(
        abs(t - x) <= tol for x in P.nodes
    )


def rate_term(out: SchemeOutput, pair, interval=None) -> float:
    """Dissipation-rate integral: chi R~_1(U') + (1 - chi) R~_2(U').

    Also evaluates the repetition-operator form R_1(T1 U'/2) + R_2(T2 U'/2)
    on node-aligned intervals and asserts agreement to quadrature exactness.
    """
    r1, r2 = pair
    t1, t2 = _tilde(r1), _tilde(r2)
    interval = (0.0, out.partition.T) if interval is None else interval
    rate = out.u_linear.derivative()

    idx, widths = _clip_cells(out.grid, interval)
    cells = rate.cell_values
    is_left = out.grid.cell_is_left
    chi_val = 0.0
    for i, w in zip(idx, widths):
        R = t1 if is_left[i] else t2
        chi_val += w * R(cells[i])

    if _is_node_aligned(out.partition, interval):
        rep_val = _repetition_rate(out, (r1, r2), rate, idx, widths)
        if not math.isclose(
            chi_val, rep_val, rel_tol=REPETITION_RTOL, abs_tol=1e-12
        ):
            raise InvariantError(
                f"repetition identity violated: {chi_val} vs {rep_val}"
            )

    if out.segments is not None:
        exact = 0.0
        for seg, a, b in _segment_pieces(out.segments, interval):
            R = t1 if seg.mechanism == "1" else t2
            exact += (b - a) * R(seg.velocity)
        return exact
    return chi_val


def _repetition_rate(out, pair, rate, idx, widths):
    r1, r2 = pair
    v1 = repetition_apply(1, out.partition, rate)
    v2 = repetition_apply(2, out.partition, rate)
    total = 0.0
    for i, w in zip(idx, widths):
        total += w * (r1(0.5 * v1.cell_values[i]) + r2(0.5 * v2.cell_values[i]))
    return total


def slope_term(out: SchemeOutput, pair, interval=None) -> float:
    """Dual-dissipation integral: chi R~_1*(-xi) + (1 - chi) R~_2*(-xi)."""
    r1, r2 = pair
    t1, t2 = _tilde(r1), _tilde(r2)
    interval = (0.0, out.partition.T) if interval is None else interval
    if out.xi is None:
        raise InputError("scheme output carries no force curve")

    idx, widths = _clip_cells(out.grid, interval)
    cells = out.xi.cell_values
    is_left = out.grid.cell_is_left
    chi_val = 0.0
    for i, w in zip(idx, widths):
        R = t1 if is_left[i] else t2
        chi_val += w * R.conjugate(-cells[i])

    if _is_node_aligned(out.partition, interval):
        x1 = repetition_apply(1, out.partition, out.xi)
        x2 = repetition_apply(2, out.partition, out.xi)
        rep_val = 0.0
        for i, w in zip(idx, widths):
            rep_val += w * (
                r1.conjugate(-x1.cell_values[i]) + r2.conjugate(-x2.cell_values[i])
            )
        if not math.isclose(chi_val, rep_val, rel_tol=REPETITION_RTOL, abs_tol=1e-12):
            raise InvariantError(
                f"repetition identity violated: {chi_val} vs {rep_val}"
            )

    if out.segments is not None:
        exact = 0.0
        for seg, a, b in _segment_pieces(out.segments, interval):
            R = t1 if seg.mechanism == "1" else t2
            exact += (b - a) * R.conjugate(-seg.xi)
        return exact
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
    idx, widths = _clip_cells(out.grid, interval)
    times = out.grid.times
    total, err = 0.0, 0.0
    vals = curve.values
    continuous = curve.kind in ("piecewise-linear", "variational")
    for i, w in zip(idx, widths):
        a = max(times[i], interval[0])
        b = min(times[i + 1], interval[1])
        # constant kinds hold the cell value on the whole cell
        mid_state = 0.5 * (vals[i] + vals[i + 1]) if continuous else vals[i + 1]
        f_mid = E.power(0.5 * (a + b), mid_state)
        f_trap = 0.5 * (E.power(a, vals[i]) + E.power(b, vals[i + 1]))
        total += w * f_mid
        err += w * abs(f_mid - f_trap)
    return total, err


def _node_affine_rate(out):
    """Rate of the node-to-node affine interpolant, constant per step."""
    P = out.partition
    states = out.node_states()
    step_rates = np.diff(states, axis=0) / P.taus[:, None]
    cells = step_rates[out.grid.cell_steps - 1]
    values = np.vstack([cells[:1], cells])
    return SampledCurve(out.grid, values, "piecewise-constant")


def _decomposition(out, sys, interval, r_eff):
    rate = out.u_linear.derivative()
    rep1 = repetition_apply(1, out.partition, rate)
    rep2 = repetition_apply(2, out.partition, rate)
    v1 = rep1.with_values(0.5 * rep1.values)
    v2 = rep2.with_values(0.5 * rep2.values)
    coarse = _node_affine_rate(out)
    idx, widths = _clip_cells(out.grid, interval)
    defect = 0.0
    rep_value = 0.0
    eff_value = 0.0
    for i, w in zip(idx, widths):
        s = v1.cell_values[i] + v2.cell_values[i]
        defect += w * float(np.linalg.norm(s - coarse.cell_values[i]))
        rep_value += w * (sys.r1(v1.cell_values[i]) + sys.r2(v2.cell_values[i]))
        eff_value += w * r_eff(coarse.cell_values[i])
    return v1, v2, defect, rep_value - eff_value


def _effective_terms(out, r_eff, interval):
    """Rate and slope integrals of the effective potential along a run."""
    if out.segments is not None:
        pieces = list(_segment_pieces(out.segments, interval))
        d_rate = sum((b - a) * r_eff(seg.velocity) for seg, a, b in pieces)
        d_slope = sum((b - a) * r_eff.conjugate(-seg.xi) for seg, a, b in pieces)
        return d_rate, d_slope
    rate = out.u_linear.derivative()
    idx, widths = _clip_cells(out.grid, interval)
    d_rate = sum(w * r_eff(rate.cell_values[i]) for i, w in zip(idx, widths))
    d_slope = sum(
        w * r_eff.conjugate(-out.xi.cell_values[i]) for i, w in zip(idx, widths)
    )
    return d_rate, d_slope


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
    idx, widths = _clip_cells(out.grid, interval)
    rate = out.u_linear.derivative()
    lam = abs(getattr(E, "lambda_convexity", 0.0))
    w_vec = None if weights is None else np.asarray(weights)

    def nrm(x):
        return float(np.linalg.norm(x if w_vec is None else w_vec * x))

    total, bound = 0.0, 0.0
    for i, w in zip(idx, widths):
        k = out.grid.cell_steps[i]
        t_bar = P.nodes[k]
        tau = P.taus[k - 1]
        u_now = out.u_const.cell_values[i]
        u_del = out.u_delayed.cell_values[i]
        xi = out.xi.cell_values[i]
        diff = u_now - u_del
        total += (w / tau) * (
            E.eval(t_bar, u_now) - E.eval(t_bar, u_del) - float(xi @ diff)
        )
        bound += 0.5 * lam * w * nrm(rate.cell_values[i]) * nrm(diff)
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


def _reference_rate(ref_out, t):
    if ref_out.segments:
        for seg in ref_out.segments:
            if seg.t0 <= t <= seg.t1:
                return seg.velocity
        return ref_out.segments[-1].velocity
    return ref_out.u_linear.derivative().at(t)


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
        rate_c = out.u_linear.derivative()
        v1 = repetition_apply(1, P, rate_c)
        v2 = repetition_apply(2, P, rate_c)
        mids = out.grid.cell_midpoints()
        defect = 0.0
        for i, w in enumerate(out.grid.cell_widths):
            s = 0.5 * (v1.cell_values[i] + v2.cell_values[i])
            defect += w * float(np.linalg.norm(s - _reference_rate(ref_out, mids[i])))
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
