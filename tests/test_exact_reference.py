"""The counterexample's exact flows, time to zero and max-norm prox against
the per-cell code they replaced.

The references below build an exact flow as a list of ``Segment`` objects,
one per regime; sample it one cell at a time, with a pointer over the
segments and ``Segment.state``; find the time to zero and the state at a
time with loops over the segments; and build the max-norm prox from a numpy
vector per regime, evaluated through the checked potential.  The solvers
take the same arithmetic per element as array expressions, so every result
must agree bit for bit.  The CLI test pins the SHA-256 of the
counterexample's outputs as the per-cell code wrote them.
"""

import hashlib
import json
import math
import types
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import cli
from splitflow import diagnostics as dg
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.energies import MaxNormEnergy
from splitflow.errors import NumericalError
from splitflow.partitions import build_partition


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# references: the per-cell and per-segment code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One affine piece of an exactly solved flow."""

    t0: float
    t1: float
    u0: np.ndarray
    velocity: np.ndarray
    xi: np.ndarray
    mechanism: str

    def state(self, t):
        return self.u0 + (t - self.t0) * self.velocity


def segment_rows(segments):
    """The rows of a run's ``SegmentArrays`` as ``Segment`` objects; a row
    not of mechanism 1 is labelled "2"."""
    return [Segment(*row, "1" if first else "2")
            for *row, first in zip(segments.t0, segments.t1, segments.u0,
                                   segments.velocity, segments.xi, segments.first)]


def regime_classify_reference(u, tol):
    u1, u2 = u
    if abs(u1) <= tol and abs(u2) <= tol:
        return "zero"
    if abs(abs(u1) - abs(u2)) <= tol:
        return "diag" if u1 * u2 > 0 else "anti"
    return "axis1" if abs(u1) > abs(u2) else "axis2"


def regime_flow_reference(dual_weights, t0, t1, u0, mechanism):
    """The flow of one piece, one ``Segment`` per regime."""
    alpha, beta = float(dual_weights[0]), float(dual_weights[1])
    gamma = alpha * beta / (alpha + beta)
    theta = beta / (alpha + beta)
    u = np.array(u0, dtype=float)
    t = float(t0)
    segments = []
    scale = max(1.0, float(np.max(np.abs(u))))
    while t < t1 - sv._TIME_TOL:
        kind = regime_classify_reference(u, sv._ZERO_TOL * scale)
        if kind == "zero":
            u = np.zeros(2)
            vel = np.zeros(2)
            xi = np.zeros(2)
            t_next = t1
        elif kind == "axis1":
            s = math.copysign(1.0, u[0])
            xi = np.array([s, 0.0])
            vel = np.array([-alpha * s, 0.0])
            t_next = min(t1, t + (abs(u[0]) - abs(u[1])) / alpha)
        elif kind == "axis2":
            s = math.copysign(1.0, u[1])
            xi = np.array([0.0, s])
            vel = np.array([0.0, -beta * s])
            t_next = min(t1, t + (abs(u[1]) - abs(u[0])) / beta)
        else:
            s = math.copysign(1.0, u[0])
            sign2 = 1.0 if kind == "diag" else -1.0
            xi = np.array([s * theta, sign2 * s * (1.0 - theta)])
            vel = np.array([-gamma * s, -sign2 * gamma * s])
            t_next = min(t1, t + abs(u[0]) / gamma)
        if t_next <= t:
            t_next = t1
        seg = Segment(t, t_next, np.array(u), vel, xi, mechanism)
        segments.append(seg)
        u = seg.state(t_next)
        # snap onto the invariant manifold reached at the crossing
        if t_next < t1:
            if kind == "axis1":
                u[0] = math.copysign(abs(u[1]), u[0]) if abs(u[1]) > 0 else 0.0
            elif kind == "axis2":
                u[1] = math.copysign(abs(u[0]), u[1]) if abs(u[0]) > 0 else 0.0
            else:
                u = np.zeros(2)
        t = t_next
    return u, segments


def exact_flow_reference(sys, scheme, grid, u0):
    """The segments of an exact split or effective run of ``sys`` on ``grid``:
    mechanism 1 on the left semi-intervals and 2 on the right ones, each with
    the dual weights of R~* = 2 R*, or one effective piece."""
    r1, r2 = sys.r1.dual_weights, sys.r2.dual_weights
    if scheme == "split":
        ends = grid.times[:: grid.M]
        pieces = [(float(a), float(b), 2.0 * (r1, r2)[j % 2], str(1 + j % 2))
                  for j, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]
    else:
        pieces = [(0.0, grid.partition.T, r1 + r2, "eff")]
    u, segments = u0, []
    for t0, t1, weights, label in pieces:
        u, segs = regime_flow_reference(weights, t0, t1, u, label)
        segments += segs
    return segments


def assert_segments_are(out, segments):
    """The run's ``SegmentArrays`` hold the reference segments bit for bit."""
    arrays = out.segments
    assert len(arrays) == len(segments)
    assert same_bits(arrays.t0, [seg.t0 for seg in segments])
    assert same_bits(arrays.t1, [seg.t1 for seg in segments])
    for name in ("u0", "velocity", "xi"):
        assert same_bits(getattr(arrays, name), [getattr(seg, name) for seg in segments])
    assert arrays.first.dtype == bool
    assert arrays.first.tolist() == [seg.mechanism == "1" for seg in segments]


def sample_reference(times, u0, segments):
    """States at ``times`` and cell forces, one cell at a time."""
    nodes, forces = [u0], []
    si = 0
    for b in times[1:]:
        while segments[si].t1 < b - sv._TIME_TOL and si + 1 < len(segments):
            si += 1
        nodes.append(segments[si].state(min(b, segments[si].t1)))
        forces.append(segments[si].xi)
    return np.array(nodes), np.array(forces)


def time_to_zero_reference(segments, tol=1e-9):
    for seg in segments:
        norms0 = float(np.max(np.abs(seg.u0)))
        if norms0 <= tol:
            return seg.t0
        vel = float(np.max(np.abs(seg.velocity)))
        end_state = seg.state(seg.t1)
        if float(np.max(np.abs(end_state))) <= tol and vel > 0:
            return seg.t0 + norms0 / vel
    return None


def trajectory_state_reference(segments, t):
    for seg in segments:
        if seg.t0 <= t <= seg.t1:
            return seg.state(t)
    return segments[-1].state(segments[-1].t1)


def reference_rate_reference(segments, times):
    k = np.searchsorted([seg.t1 for seg in segments], times, side="left")
    return np.array([seg.velocity for seg in segments])[np.minimum(k, len(segments) - 1)]


def prox_maxnorm_reference(R, VR, E, t, anchor, h):
    c = 1.0 / np.diag(VR)
    a1, a2 = anchor
    c1, c2 = c

    def objective(u, xi):
        return h * R((u - anchor) / h) + E._eval(t, u)

    candidates = []
    for anti in (False, True):
        for s in (1.0, -1.0):
            rhs = (a1 - a2) if not anti else (a1 + a2)
            theta = (s * rhs / h + c2) / (c1 + c2)
            if not (0.0 <= theta <= 1.0):
                continue
            xi = np.array([s * theta, (s if not anti else -s) * (1.0 - theta)])
            u = anchor - h * c * xi
            ok = (u[0] * s > 0) and (
                abs(u[0] - u[1]) <= 1e-12 if not anti else abs(u[0] + u[1]) <= 1e-12
            )
            if ok:
                u[1] = u[0] if not anti else -u[0]
                candidates.append((0, objective(u, xi), u, xi))
    for s in (1.0, -1.0):
        xi = np.array([s, 0.0])
        u = anchor - h * c * xi
        if abs(u[0]) > abs(u[1]) and math.copysign(1.0, u[0]) == s:
            candidates.append((1, objective(u, xi), u, xi))
        xi = np.array([0.0, s])
        u = anchor - h * c * xi
        if abs(u[1]) > abs(u[0]) and math.copysign(1.0, u[1]) == s:
            candidates.append((1, objective(u, xi), u, xi))
    xi = VR @ anchor / h
    if float(np.sum(np.abs(xi))) <= 1.0 + 1e-14:
        u = np.zeros(2)
        candidates.append((2, objective(u, xi), u, xi))
    if not candidates:
        raise NumericalError("max-norm prox found no admissible regime", best=anchor)
    f_min = min(f for _, f, _, _ in candidates)
    tol_tie = 1e-12 * (1.0 + abs(f_min))
    best = min(
        (cand for cand in candidates if cand[1] <= f_min + tol_tie),
        key=lambda cand: cand[0],
    )
    return best[2], best[3]


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

coordinate = st.floats(-3.0, 3.0, allow_subnormal=False)
weight = st.floats(0.2, 5.0)
# the extremes: weights down to the least subnormal, where alpha beta
# underflows and gamma = alpha beta / (alpha + beta) is 0, or up to 1e300,
# where it overflows; coordinates from subnormal to 1e300
wide_weight = st.one_of(weight, st.floats(5e-324, 1e300),
                        st.sampled_from([5e-324, 1.5e-323, 1e-320, 1e-160, 1e300]))
wide_coordinate = st.one_of(coordinate, st.floats(-1e300, 1e300),
                            st.sampled_from([5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
                                             1e-160, 1e300, -1e300]))


@st.composite
def states(draw, coordinates=coordinate):
    """A state, with |u1| = |u2|, a zero coordinate and the origin as cases."""
    kind = draw(st.sampled_from(["free", "diagonal", "zero-coordinate", "origin"]))
    a, b = draw(coordinates), draw(coordinates)
    if kind == "diagonal":
        b = draw(st.sampled_from([1.0, -1.0])) * a
    elif kind == "zero-coordinate":
        a, b = draw(st.permutations([a, 0.0]))
    elif kind == "origin":
        a = b = 0.0
    return np.array([a, b])


@st.composite
def partitions(draw):
    """A uniform partition, or one of drawn non-uniform steps."""
    if draw(st.booleans()):
        return build_partition(draw(st.sampled_from([0.75, 1.0, 2.0])),
                               N=draw(st.integers(1, 12)))
    widths = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    return build_partition(nodes[-1], nodes=nodes)


@st.composite
def anchors(draw):
    """Anchors near a face, near an axis, near the origin, or anywhere."""
    kind = draw(st.sampled_from(["free", "face", "axis", "origin"]))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.0]))
    a, b = draw(coordinate), draw(coordinate)
    if kind == "face":
        b = draw(st.sampled_from([1.0, -1.0])) * a + draw(st.floats(-0.05, 0.05))
    elif kind == "axis":
        a, b = draw(st.permutations([a, 0.0]))
    elif kind == "origin":
        scale *= 1e-3
    return scale * np.array([a, b])


def counterexample_system(weights):
    a1, b1, a2, b2 = weights
    return sv.GradientSystem(
        energy=MaxNormEnergy(shift=1.0),
        r1=pt.AnisotropicDualQuadratic([a1, b1]),
        r2=pt.AnisotropicDualQuadratic([a2, b2]),
    )


# ---------------------------------------------------------------------------
# exact flows
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(u0=states(), P=partitions(), weights=st.lists(weight, min_size=4, max_size=4),
       M=st.sampled_from([2, 4, 8]), scheme=st.sampled_from(["split", "effective"]))
def test_exact_runs_match_the_per_cell_sampler(u0, P, weights, M, scheme):
    sys = counterexample_system(weights)
    out = sv.solve(sys, scheme, P, u0, 1e-10, M)
    segs = exact_flow_reference(sys, scheme, out.grid, u0)
    assert_segments_are(out, segs)
    nodes, forces = sample_reference(out.grid.times, u0, segs)
    assert same_bits(out.u_linear.values, nodes)
    assert same_bits(out.u_const.values, nodes)
    assert same_bits(out.xi.values[1:], forces)

    arrays = out.segments

    for tol in (1e-9, 1e-6, 0.0):
        got, ref = sv.time_to_zero(out, tol), time_to_zero_reference(segs, tol)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert type(got) is float and same_bits(got, ref)

    times = np.concatenate([P.nodes, arrays.t0, arrays.t1, out.grid.cell_midpoints(),
                            [-0.1, P.T + 0.1]])
    for t in [*times, *map(float, times[:4])]:
        assert same_bits(dg._trajectory_state(out, t), trajectory_state_reference(segs, t))
    assert same_bits(dg._reference_rate(out, times), reference_rate_reference(segs, times))


@settings(max_examples=300, deadline=None)
@given(u0=states(wide_coordinate), P=partitions(),
       weights=st.lists(wide_weight, min_size=4, max_size=4), M=st.sampled_from([2, 4]),
       scheme=st.sampled_from(["split", "effective"]))
def test_exact_flows_match_the_reference_at_extreme_weights_and_states(u0, P, weights, M,
                                                                      scheme):
    # the flows step in floats, the reference in numpy scalars and vectors:
    # the bits must agree also where a step by gamma = 0 is infinite and
    # where states overflow to infinities and NaNs
    grid = P.refine(M)
    if scheme == "split":
        ends = grid.times[::M]
        legs = [(a, b, 1 + j % 2) for j, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]
    else:
        legs = [(0.0, P.T, sv._EFFECTIVE)]
    with np.errstate(all="ignore"):  # a subnormal weight's metric 1 / c is infinite
        sys = counterexample_system(weights)
        dual = {m: sv._dual_weights(sys, m) for m in {leg[2] for leg in legs}}
        nodes, forces, arrays = sv._exact_flows(grid.times, u0, legs, dual)
        segs = exact_flow_reference(sys, scheme, grid, u0)
        ref_nodes, ref_forces = sample_reference(grid.times, u0, segs)
    assert_segments_are(types.SimpleNamespace(segments=arrays), segs)
    assert same_bits(nodes, ref_nodes) and same_bits(forces, ref_forces)


@pytest.mark.parametrize("ulps", [0, 1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("scheme, N, M, alpha", [("effective", 4, 2, 4.0),
                                                 ("split", 1, 4, 2.0)])
def test_a_crossing_just_before_a_cell_end_matches_the_per_cell_sampler(
        scheme, N, M, alpha, ulps):
    # the first regime ends at d / alpha = 0.25 - ulps * ulp(0.25), a cell end
    # less a few ulps: within _TIME_TOL of it up to 16 ulps, beyond it from 32
    offset = ulps * 2.0**-54
    u0 = np.array([0.25 + alpha * (0.25 - offset), 0.25])
    sys = counterexample_system([1.0, 3.0, 3.0, 1.0])
    out = sv.solve(sys, scheme, build_partition(1.0, N=N), u0, 1e-10, M)
    assert out.segments.t1[0] == 0.25 - offset
    segs = exact_flow_reference(sys, scheme, out.grid, u0)
    assert_segments_are(out, segs)
    nodes, forces = sample_reference(out.grid.times, u0, segs)
    assert same_bits(out.u_linear.values, nodes)
    assert same_bits(out.xi.values[1:], forces)


def test_time_to_zero_of_the_preset_runs_is_the_paper_anchor():
    sys = counterexample_system([1.0, 3.0, 3.0, 1.0])
    P = build_partition(1.0, N=64)
    u0 = np.array([2.0, 1.0])
    effective = sv.solve(sys, "effective", P, u0, 1e-10, 8)
    split = sv.solve(sys, "split", P, u0, 1e-10, 8)
    assert sv.time_to_zero(effective) == 0.75
    assert sv.time_to_zero(split) == pytest.approx(0.25 + 2.0 / 3.0, abs=1.0 / 64)
    for out in (effective, split):
        assert sv.time_to_zero(out) == time_to_zero_reference(segment_rows(out.segments))


# ---------------------------------------------------------------------------
# max-norm prox
# ---------------------------------------------------------------------------


def assert_prox_matches(R, E, t, anchor, h):
    VR = R.quadratic_matrix()
    try:
        ref = prox_maxnorm_reference(R, VR, E, t, anchor, h)
    except NumericalError:
        with pytest.raises(NumericalError):
            sv._prox_kernel(E, R)(E, t, anchor, h, 1e-10)
        return None
    u, xi, stats = sv._prox_kernel(E, R)(E, t, anchor, h, 1e-10)
    assert same_bits(u, ref[0]) and same_bits(xi, ref[1])
    assert (stats.iterations, stats.residual, stats.method) == (1, 0.0, "maxnorm-cases")
    return u, xi


@settings(max_examples=400, deadline=None)
@given(anchor=anchors(), h=st.floats(1e-3, 2.0), weights=st.lists(weight, min_size=2,
       max_size=2), rescaled=st.booleans(), t=st.floats(0.0, 1.0),
       shift=st.floats(0.0, 2.0))
def test_maxnorm_prox_matches_the_vector_candidates(anchor, h, weights, rescaled, t, shift):
    R = pt.AnisotropicDualQuadratic(weights)
    assert_prox_matches(R.rescaled() if rescaled else R, MaxNormEnergy(shift=shift), t,
                        anchor, h)


@pytest.mark.parametrize("anchor, h, regime", [
    ([1.0, 1.0], 1 / 32, "face"),
    ([-1.0, 1.0], 1 / 32, "face"),
    ([1.0, -1.0 - 1e-3], 1 / 32, "face"),
    ([2.0, 1.0], 1 / 32, "axis"),
    ([0.0, -2.0], 1 / 32, "axis"),
    ([-0.0, 0.5], 1 / 32, "axis"),
    ([0.01, 0.0], 0.5, "origin"),
    ([0.0, 0.0], 1 / 32, "origin"),
])
def test_maxnorm_prox_matches_in_each_regime(anchor, h, regime):
    R = pt.AnisotropicDualQuadratic([1.0, 3.0]).rescaled()
    u, xi = assert_prox_matches(R, MaxNormEnergy(shift=1.0), 0.5, np.array(anchor), h)
    if regime == "face":
        assert abs(u[0]) == abs(u[1]) > 0 and np.all(xi != 0.0)
    elif regime == "axis":
        assert abs(u[0]) != abs(u[1]) and np.count_nonzero(xi) == 1
    else:
        assert np.all(u == 0.0)


# ---------------------------------------------------------------------------
# the CLI outputs, as the per-cell code wrote them
# ---------------------------------------------------------------------------

CLI_CASES = {
    "preset": ["--N", "16"],
    "anti-face": ["--N", "12", "--override", "u0=[-0.7,0.7]"],
    "zero-coordinate": ["--nodes", "0,0.1,0.35,0.5,0.8,1", "--override", "u0=[1.5,0.0]"],
    # alpha beta underflows: gamma = 0, and the face regime's step by it is infinite
    "subnormal-weights": ["--N", "4", "--override", "a1=5e-324", "--override", "b1=5e-324"],
}

# (time_to_zero, SHA-256 of each CSV and of edb.json)
CLI_PINNED = {
    "preset/split": (0.9166666666666666, {
        "decomposition_v1.csv": "124f53332df76cda8ca2056b1dabc6a2bd7c99cd47b84ae066f2edd6f6156f27",
        "decomposition_v2.csv": "d456b4b10353c940ccf05ccb28332c4d8927abc9904a2c7a08d2f773db61162b",
        "edb.json": "43c5a7a967485fce7ab7a47e0c0b550a8472f7a8c05c2a27ebf9f2aa6419855c",
        "forces.csv": "fa1b707604f49d18a4422e0a14d143b9ed83aebee0fd40e25279780a26141724",
        "trajectory.csv": "e5047fcf1f2f7b78513d6b814b80d39fa5b5213561f2283d6e950b8e95f062c7",
    }),
    "preset/amm": (0.937499998, {
        "decomposition_v1.csv": "124f53332df76cda8ca2056b1dabc6a2bd7c99cd47b84ae066f2edd6f6156f27",
        "decomposition_v2.csv": "140b81b05d2c531b833ebc93401728c819e403d9de9198ae64b047dd153e28a6",
        "edb.json": "34f8b7c860a3f9ec5f0a3f73bcb64419b6f4abd9ab081bdfe25e1e8501e05e18",
        "forces.csv": "9e8dfc3ade260978110d5376042b4d103a9ca8a8e21ecba6892aeacfb4a55a7f",
        "trajectory.csv": "572868552770fd7f64d152c0203efeb764113a017adbd822a7cc5a28b0839511",
    }),
    "preset/effective": (0.75, {
        "edb.json": "20049821f7ad6d68cdb8e3bebad28196a7d48781a42a8563392e14225b765397",
        "forces.csv": "de9785013bda179d97663a6689ef321532083f127b9fa48f373a9593a6185455",
        "trajectory.csv": "0819201929c32674916b1efd3dd564f9a1e03693a1cd96ec7735c214c5449788",
    }),
    "anti-face/split": (0.4666666666666666, {
        "decomposition_v1.csv": "17ec41d2e440cfead3754a9c52eb7dffba877b688c19a9505b4d0e039aba62e0",
        "decomposition_v2.csv": "a9e173f9774f169ec0c6a194893d445ee854af47f372bf29231bdca889173035",
        "edb.json": "57bca77bf09310e22acf8fb02fb313ac9b3b0a73ec6bf064a51c04417ff418b2",
        "forces.csv": "3f022415eb4cbb4368f1349020a1c28201f3312dddbd110f03de688f5629a6ef",
        "trajectory.csv": "556d733e7ddbbe1cc0afe58a79a00d612f66fc76f74e87d3b717fb8dd08678d4",
    }),
    "anti-face/amm": (0.49999999666666667, {
        "decomposition_v1.csv": "b85d26b1967f506439359fb7ebbbdf67c52175a68cb9f2203bb864fa7e8d4769",
        "decomposition_v2.csv": "1e1ed0d8f1d6f4feafb40bba987a27d3117b391cda33d77490ee62cdbc81a141",
        "edb.json": "27b238471076aa23de4e45940f07bf86a4f6cb53aa5684d0a1a6f5945bda4e52",
        "forces.csv": "dc00c93df95f7d7b0634ff758f0377bc6aabf75b0ff0c935bba8a7ea024dfad2",
        "trajectory.csv": "8e58e0e579e4c20603b9b8ca0aba4e8f86b718fad8258f218c1c145093244ec2",
    }),
    "anti-face/effective": (0.35, {
        "edb.json": "2b412062bb92216d3d767a333fd188c3fda5d1c3fb8d2d64fca650cfbf3a7179",
        "forces.csv": "4832bb06a5e4b96c743a342f99b75d2c2467d9e1d9fc462cee134606f8eb083e",
        "trajectory.csv": "0adbc8aaef97141370d01c45ec5c03152059535c9c9d17f7c0a37c4f97744b71",
    }),
    "zero-coordinate/split": (0.3999999999999999, {
        "decomposition_v1.csv": "565e474de7fb34dc2b876f159b4c854b9b81b68e7adea5b2182eddbee1c5ef62",
        "decomposition_v2.csv": "18d19a252fcabe25d514f1ae3c2aa2164782c9b15acea370d54e3efd032f5504",
        "edb.json": "9f7e4372fd92e852a6a901356c68eaf8656da6d5ddc5e08e4c51fdaa6918485b",
        "forces.csv": "4654def3577b1ae55c69ee22de6bfcc1ed75fe21dafaa670ea106e903a4ed42d",
        "trajectory.csv": "286af8404929b0c4caad29b35fe44c46552534fe685188297c13c7d9a2b5dde0",
    }),
    "zero-coordinate/amm": (0.42499999925, {
        "decomposition_v1.csv": "7c466420c683aac34ce5f9b6e6779fe9aebae83c1be619bd61655f59f16e8b67",
        "decomposition_v2.csv": "98d45074a88c5f6da85b607a4b7cc58eb5e69fbe1dbfbcc4f9bb828411cc7d69",
        "edb.json": "73f912ecf0b77131e98ed67597791c2b98fe0f50afdcf44a69bd3e28541eba5f",
        "forces.csv": "853921ced130033033f0f124f9bb9c3dfe4b8302f5d0ed3a7908f0f262c71e0a",
        "trajectory.csv": "396d7858346fe70d0633d37e19dff0b030c6d52fecad4f1d1ce135d6d6e2ac55",
    }),
    "subnormal-weights/split": (None, {
        "decomposition_v1.csv": "af2e07b1fae31f7aa11015cbecb78cdb7ed2e2da1a7c6e2a3dbffe6b883117f7",
        "decomposition_v2.csv": "7d1fbe692f27dfdbcea89e65d3bbae0a6f1456f05eb9de59ac65ef1b0859910c",
        "edb.json": "b3b1a4fec2d1e5171d2762fdffc0ce2ff1e8122e586a9eeee6bd9f54dbe6437a",
        "forces.csv": "91992235a181938b34b1cc4e5ba84fe2a9a8b9464434e71a49143c9fefcca93b",
        "trajectory.csv": "3ebef873c3ab9001a3bd04c4c810195d774e0c84231e88da862b1eeb51c89753",
    }),
    "zero-coordinate/effective": (0.375, {
        "edb.json": "9e33befd98791ab0fde0077fef89b69d6dc9c8ee12190c65b6b1ea6d7d6c7872",
        "forces.csv": "19c063cf142d371fda43986e52b5ea9948d13d1416c2d2605e2d44825a4a6df8",
        "trajectory.csv": "c3e8a97d36b12b99d1686f626053395688877d6c7d82dd9747ba050662604880",
    }),
}


@pytest.mark.parametrize("key", sorted(CLI_PINNED))
def test_counterexample_outputs_keep_their_bytes(key, tmp_path, capsys):
    case, scheme = key.split("/")
    rc = cli.main(["run", "--model", "counterexample", "--scheme", scheme,
                   "--out", str(tmp_path)] + CLI_CASES[case])
    assert rc == 0
    time_to_zero, pinned = CLI_PINNED[key]
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())
               if path.suffix == ".csv" or path.name == "edb.json"}
    assert written == pinned
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary.get("time_to_zero") == time_to_zero
