"""The array-form audit terms against per-cell reference loops.

The loops below evaluate every term one cell (or one segment) at a time
with single-vector potential and energy calls.  The array forms sum the
same values in another order, so they agree to rounding.
"""

import numpy as np
import pytest

from splitflow import diagnostics as dg
from splitflow.energies import Load
from splitflow.models import make_model
from splitflow.partitions import build_partition, repetition_apply
from splitflow.solvers import SCHEMES, effective_potential, solve
from test_exact_reference import segment_rows


def clip_cells(grid, interval):
    s, t = interval
    times = grid.times
    for i in range(grid.n_cells):
        a, b = max(times[i], s), min(times[i + 1], t)
        if b > a:
            yield i, a, b


def segment_pieces(segments, interval):
    s, t = interval
    for seg in segments:
        a, b = max(seg.t0, s), min(seg.t1, t)
        if b > a:
            yield seg, a, b


def rate_reference(out, pair, interval):
    t1, t2 = pair[0].rescaled(), pair[1].rescaled()
    if out.segments is not None:
        return sum(
            (b - a) * (t1 if seg.mechanism == "1" else t2)(seg.velocity)
            for seg, a, b in segment_pieces(segment_rows(out.segments), interval)
        )
    cells = out.u_linear.derivative().cell_values
    return sum(
        (b - a) * (t1 if out.grid.cell_is_left[i] else t2)(cells[i])
        for i, a, b in clip_cells(out.grid, interval)
    )


def slope_reference(out, pair, interval):
    t1, t2 = pair[0].rescaled(), pair[1].rescaled()
    if out.segments is not None:
        return sum(
            (b - a) * (t1 if seg.mechanism == "1" else t2).conjugate(-seg.xi)
            for seg, a, b in segment_pieces(segment_rows(out.segments), interval)
        )
    cells = out.xi.cell_values
    return sum(
        (b - a) * (t1 if out.grid.cell_is_left[i] else t2).conjugate(-cells[i])
        for i, a, b in clip_cells(out.grid, interval)
    )


def effective_reference(out, r_eff, interval):
    if out.segments is not None:
        pieces = list(segment_pieces(segment_rows(out.segments), interval))
        return (
            sum((b - a) * r_eff(seg.velocity) for seg, a, b in pieces),
            sum((b - a) * r_eff.conjugate(-seg.xi) for seg, a, b in pieces),
        )
    rate = out.u_linear.derivative().cell_values
    xi = out.xi.cell_values
    pieces = list(clip_cells(out.grid, interval))
    return (
        sum((b - a) * r_eff(rate[i]) for i, a, b in pieces),
        sum((b - a) * r_eff.conjugate(-xi[i]) for i, a, b in pieces),
    )


def power_reference(E, out, interval):
    # a prox step holds one cell of a split or exact run, M cells of an AMM
    # half-step and 2M of an effective step; its anchor is the state before it
    M = out.grid.M
    cells = 1 if out.segments is not None else {
        "amm": M, "block-amm": M, "effective": 2 * M}.get(out.scheme, 1)
    total = 0.0
    for i, a, b in clip_cells(out.grid, interval):
        anchor = out.u_const.values[i // cells * cells]
        total += E.eval(b, anchor) - E.eval(a, anchor)
    return total


def decomposition_reference(out, sys, interval):
    r_eff = effective_potential(sys)
    rate = out.u_linear.derivative()
    v1 = repetition_apply(1, out.partition, rate).cell_values
    v2 = repetition_apply(2, out.partition, rate).cell_values
    P = out.partition
    nodes = out.node_states()
    defect = rep_value = eff_value = 0.0
    for i, a, b in clip_cells(out.grid, interval):
        w = b - a
        k = out.grid.cell_steps[i]
        coarse = (nodes[k] - nodes[k - 1]) / P.taus[k - 1]
        c1, c2 = 0.5 * v1[i], 0.5 * v2[i]
        defect += w * float(np.linalg.norm(c1 + c2 - coarse))
        rep_value += w * (sys.r1(c1) + sys.r2(c2))
        eff_value += w * r_eff(coarse)
    return defect, rep_value - eff_value


def remainder_reference(out, E, interval):
    P = out.partition
    rate = out.u_linear.derivative().cell_values
    lam = abs(E.lambda_convexity)
    total = bound = 0.0
    for i, a, b in clip_cells(out.grid, interval):
        w = b - a
        k = out.grid.cell_steps[i]
        t_bar, tau = P.nodes[k], P.taus[k - 1]
        u_now = out.u_const.cell_values[i]
        u_del = out.u_delayed.cell_values[i]
        diff = u_now - u_del
        total += (w / tau) * (
            E.eval(t_bar, u_now) - E.eval(t_bar, u_del) - float(out.xi.cell_values[i] @ diff)
        )
        bound += 0.5 * lam * w * float(np.linalg.norm(rate[i])) * float(np.linalg.norm(diff))
    return total, bound


# loads make the energy time-dependent, so the power integral and the
# remainder's node times are checked too
PRESETS = {
    "counterexample": ("counterexample", {}),
    "allen-cahn-p2": ("allen-cahn-1d", {
        "m": 6, "load": Load(np.full(6, 0.5), c1=np.linspace(-1.0, 1.0, 6),
                             amp=np.full(6, 0.3), omega=4.0),
    }),
    "allen-cahn-p3": ("allen-cahn-1d", {"m": 6, "p": 3.0}),
    "visco-plasticity": ("visco-plasticity-1d", {
        "m": 4, "f_load": Load(np.full(4, 0.2), amp=np.full(4, 0.5), omega=3.0),
        "g_load": Load(np.zeros(5), c1=np.full(5, 0.4)),
    }),
}
CASES = [
    (preset, scheme)
    for preset, (name, _) in PRESETS.items()
    for scheme in SCHEMES
    if name == "visco-plasticity-1d" or not scheme.startswith("block-")
]


def _close(value, reference):
    return abs(value - reference) <= 1e-13 * (1.0 + abs(reference))


@pytest.mark.parametrize("preset, scheme", CASES)
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
def test_edb_audit_matches_per_cell_reference(preset, scheme, interval):
    name, overrides = PRESETS[preset]
    model = make_model(name, **overrides)
    sys = model.system
    out = solve(sys, scheme, build_partition(1.0, N=8), model.u0, 1e-10, 8)
    report = dg.edb_audit(out, sys, interval=interval)

    if out.scheme == "effective":
        d_rate, d_slope = effective_reference(out, effective_potential(sys), interval)
    else:
        pair = (sys.r1, sys.r2)
        d_rate = rate_reference(out, pair, interval)
        d_slope = slope_reference(out, pair, interval)
        defect, gap = decomposition_reference(out, sys, interval)
        assert _close(report.decomposition_defect, defect)
        assert _close(report.decomposition_value_gap, gap)
    power = power_reference(sys.energy, out, interval)
    remainder, remainder_bound = remainder_reference(out, sys.energy, interval)

    assert _close(report.d_rate, d_rate)
    assert _close(report.d_slope, d_slope)
    assert _close(report.power_integral, power)
    assert report.quadrature_error == 0.0
    assert _close(report.remainder, remainder)
    assert _close(report.remainder_bound, remainder_bound)
