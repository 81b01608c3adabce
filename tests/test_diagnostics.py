import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import diagnostics as dg
from splitflow import energies as en
from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.errors import InputError, InvariantError
from splitflow.models import make_model


def synthetic_linear_output(P, M, slope, xi_value, scheme="split"):
    """SchemeOutput with u(t) = u0 + slope t and a constant force curve."""
    grid = P.refine(M)
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    values = grid.times[:, None] * slope[None, :]
    u_linear = pa.SampledCurve(grid, values, "piecewise-linear")
    u_const = pa.SampledCurve(grid, values, "piecewise-constant")
    xi_vals = np.tile(np.atleast_1d(xi_value), (grid.n_nodes, 1)).astype(float)
    xi = pa.SampledCurve(grid, xi_vals, "piecewise-constant")
    return sv.SchemeOutput(
        scheme=scheme,
        partition=P,
        grid=grid,
        u_const=u_const,
        u_delayed=u_const,
        u_linear=u_linear,
        xi=xi,
        stats={"tol": 1e-12},
    )


def quad_pair():
    return pt.QuadraticForm(np.eye(1)), pt.QuadraticForm(np.eye(1))


# ---------------------------------------------------------------------------
# rate term
# ---------------------------------------------------------------------------


def test_rate_term_constant_rate_single_potential():
    P = pa.build_partition(1.0, N=4)
    out = synthetic_linear_output(P, 2, slope=[2.0], xi_value=[0.0])
    val = dg.rate_term(out, quad_pair(), (0.0, 1.0))
    # R~(2) = 2 R(1) = 1 for the quadratic identity
    assert val == pytest.approx(1.0, rel=1e-12)


def test_rate_term_zero_rate():
    P = pa.build_partition(1.0, N=4)
    out = synthetic_linear_output(P, 2, slope=[0.0], xi_value=[0.3])
    assert dg.rate_term(out, quad_pair(), (0.0, 1.0)) == 0.0


def test_rate_term_counterexample_middle_regime_average():
    sys = make_model("counterexample").system
    P = pa.build_partition(1.0, N=256)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    window = (0.25, 0.75)
    avg = dg.rate_term(out, (sys.r1, sys.r2), window) / 0.5
    assert avg == pytest.approx(0.75, abs=1e-9)


def test_repetition_check_raises_library_error_on_non_finite_run():
    P = pa.build_partition(1.0, N=4)
    out = synthetic_linear_output(P, 2, slope=[math.nan], xi_value=[math.nan])
    with pytest.raises(InvariantError):
        dg.rate_term(out, quad_pair(), (0.0, 1.0))
    with pytest.raises(InvariantError):
        dg.slope_term(out, quad_pair(), (0.0, 1.0))


# ---------------------------------------------------------------------------
# slope term
# ---------------------------------------------------------------------------


def test_slope_term_zero_force():
    P = pa.build_partition(1.0, N=4)
    out = synthetic_linear_output(P, 2, slope=[1.0], xi_value=[0.0])
    assert dg.slope_term(out, quad_pair(), (0.0, 1.0)) == 0.0


def test_slope_term_counterexample_first_regime():
    sys = make_model("counterexample").system
    P = pa.build_partition(1.0, N=64)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    # on (0, tau/2) the force is (1, 0) and R~_1*(-xi) = 2 (a1/2) = a1 = 1
    tau = 1.0 / 64
    val = dg.slope_term(out, (sys.r1, sys.r2), (0.0, tau / 2))
    assert val == pytest.approx(1.0 * tau / 2, rel=1e-12)


def test_quadratic_sanity_amm_step_balances():
    # analytic recomputation of every term for the scalar closed-form step
    E = en.QuadraticBlockEnergy(A=np.eye(1))
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(1)), r2=pt.QuadraticForm(np.eye(1))
    )
    P = pa.build_partition(1.0, N=1)
    out = sv.amm_solve(sys, P, [1.0], tol=1e-13)
    d_rate = dg.rate_term(out, (sys.r1, sys.r2))
    d_slope = dg.slope_term(out, (sys.r1, sys.r2))
    # U1 = 1/2, U2 = 1/4: rates -1 and -1/2, forces 1/2 and 1/4
    assert d_rate == pytest.approx(0.5 * (2 * 0.125) + 0.5 * (2 * 0.03125), rel=1e-12)
    assert d_slope == pytest.approx(0.5 * (0.25) + 0.5 * (0.0625), rel=1e-12)
    report = dg.edb_audit(out, sys)
    drop = E.eval(1.0, [0.25]) - E.eval(0.0, [1.0])
    assert report.residual == pytest.approx(drop + d_rate + d_slope, rel=1e-12)
    assert report.residual == pytest.approx(-5.0 / 32.0, rel=1e-12)
    assert report.passed


# ---------------------------------------------------------------------------
# EDB audits
# ---------------------------------------------------------------------------


def test_edb_exact_split_residual_per_interval():
    sys = make_model("counterexample").system
    P = pa.build_partition(1.0, N=32)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    for k in range(P.N):
        rep = dg.edb_audit(out, sys, (P.nodes[k], P.nodes[k + 1]))
        assert abs(rep.residual) <= 1e-8
    rep = dg.edb_audit(out, sys)
    assert abs(rep.residual) <= 1e-8
    assert rep.passed


def test_edb_exact_effective_residual():
    sys = make_model("counterexample").system
    P = pa.build_partition(1.0, N=16)
    out = sv.effective_solve(sys, P, [2.0, 1.0])
    rep = dg.edb_audit(out, sys)
    assert abs(rep.residual) <= 1e-8


def test_edb_amm_inequality_allen_cahn():
    preset = make_model("allen-cahn-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, preset.u0)
    nodes = list(P.nodes)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes), 3):
            rep = dg.edb_audit(out, sys, (nodes[i], nodes[j]))
            assert rep.residual <= rep.slack
            assert rep.passed


def test_audit_of_a_nested_inf_convolution_is_an_input_error():
    # the split run solves, but the audit's effective potential has a member
    # without Hessian parts for the Newton decomposition
    inner = pt.InfConvolution(pt.PowerNorm(1.5, [1.0, 1.0]), pt.PowerNorm(1.5, [2.0, 1.0]))
    sys = sv.GradientSystem(en.QuadraticBlockEnergy(A=np.eye(2)), inner,
                            pt.QuadraticForm(np.eye(2)))
    out = sv.solve(sys, "split", pa.build_partition(1.0, N=8), [1.0, 0.5], 1e-10)
    with pytest.raises(InputError) as info:
        dg.edb_audit(out, sys)
    assert len(str(info.value).splitlines()) == 1
    assert "InfConvolution # QuadraticForm" in str(info.value)


def test_edb_stationary_all_terms_zero():
    E = en.QuadraticBlockEnergy(A=np.eye(2))
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(2)), r2=pt.QuadraticForm(np.eye(2))
    )
    P = pa.build_partition(1.0, N=4)
    out = sv.amm_solve(sys, P, [0.0, 0.0])
    rep = dg.edb_audit(out, sys)
    assert rep.d_rate == 0.0
    assert rep.d_slope == 0.0
    assert rep.power_integral == 0.0
    assert rep.energy_end - rep.energy_start == 0.0


AUDIT_FORM_CASES = [
    (model, scheme)
    for model in ("counterexample", "allen-cahn-1d", "visco-plasticity-1d")
    for scheme in sv.SCHEMES
    if model == "visco-plasticity-1d" or not scheme.startswith("block-")
]

# the keys of edb.json: every scalar term, the decomposition's two only
# where the run is not of the effective flow itself
EDB_TERMS = {"interval", "form", "d_rate", "d_slope", "power_integral", "energy_start",
             "energy_end", "residual", "slack", "passed", "remainder", "remainder_bound",
             "quadrature_error", "inner_budget"}


@pytest.mark.parametrize("model, scheme", AUDIT_FORM_CASES)
def test_edb_report_serialization(model, scheme):
    preset = make_model(model)
    P = pa.build_partition(preset.horizon, N=4)
    out = sv.solve(preset.system, scheme, P, preset.u0, 1e-10, 2)
    data = json.loads(json.dumps(dg.edb_audit(out, preset.system).to_dict()))
    decomposed = set() if scheme == "effective" else {
        "decomposition_defect", "decomposition_value_gap"}
    assert set(data) == EDB_TERMS | decomposed


@pytest.mark.parametrize("model, scheme", AUDIT_FORM_CASES)
def test_audit_form_is_the_balance_exactly_for_exact_flows(model, scheme):
    preset = make_model(model)
    P = pa.build_partition(preset.horizon, N=8)
    out = sv.solve(preset.system, scheme, P, preset.u0, 1e-10, 8)
    # only the counterexample's split and effective flows are solved exactly
    exact = model == "counterexample" and scheme in ("split", "effective")
    assert (out.segments is not None) == exact
    form = dg.edb_audit(out, preset.system).form
    assert (form == "balance") == exact and form in ("balance", "inequality")


@pytest.mark.parametrize("model, scheme", AUDIT_FORM_CASES)
def test_inner_budget_counts_the_prox_solves_of_the_run(model, scheme):
    # at N=8 and M=4: no solve for an exact flow, one per step for an
    # effective run, two for AMM and one per cell (2M) for a split run
    tol = 1e-10
    preset = make_model(model)
    out = sv.solve(preset.system, scheme, pa.build_partition(preset.horizon, N=8),
                   preset.u0, tol, 4)
    if out.segments is not None:
        budget = 0
    else:
        budget = {"effective": 8, "amm": 16, "split": 64}[scheme.removeprefix("block-")]
    assert dg.edb_audit(out, preset.system).inner_budget == budget * tol


def test_split_with_one_exact_mechanism_is_audited_over_the_whole_run():
    # r1 pairs exactly with the max-norm energy, r2 does not; the run must
    # dissipate through both mechanisms, not through mechanism 1 alone
    E = en.MaxNormEnergy(shift=2.0)
    sys = sv.GradientSystem(E, pt.AnisotropicDualQuadratic([1.0, 3.0]),
                            pt.QuadraticForm(np.diag([1.0 / 3.0, 1.0])))
    P = pa.build_partition(1.0, N=64)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    assert out.segments is None
    assert len(out.stats["inner_iterations"]) == out.grid.n_cells
    rep = dg.edb_audit(out, sys)
    drop = rep.energy_start - rep.energy_end
    assert rep.d_rate == pytest.approx(0.5 * drop, rel=1e-3)
    assert rep.passed


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_a_rescaled_member_runs_and_audits_as_its_doubled_weights(scheme):
    # ADQ([1, 3]).rescaled() is ADQ([2, 6]): its rescaling R~ doubles it once
    # more, and its dual weights are twice its base's
    P = pa.build_partition(1.0, N=64)
    systems = [
        sv.GradientSystem(en.MaxNormEnergy(shift="auto"), r1,
                          pt.AnisotropicDualQuadratic([3.0, 1.0]))
        for r1 in (pt.AnisotropicDualQuadratic([1.0, 3.0]).rescaled(),
                   pt.AnisotropicDualQuadratic([2.0, 6.0]))
    ]
    runs = [sv.solve(sys, scheme, P, [2.0, 1.0]) for sys in systems]
    np.testing.assert_allclose(runs[0].node_states(), runs[1].node_states(),
                               rtol=0.0, atol=1e-12)
    assert sv.time_to_zero(runs[0]) == pytest.approx(sv.time_to_zero(runs[1]), abs=1e-12)
    rescaled, doubled = (dg.edb_audit(out, sys) for out, sys in zip(runs, systems))
    assert rescaled.passed and doubled.passed
    for term in ("d_rate", "d_slope", "residual"):
        assert getattr(rescaled, term) == pytest.approx(getattr(doubled, term), abs=1e-12)


@pytest.mark.parametrize("scheme", ["split", "amm", "effective"])
def test_intervals_not_inside_the_run_are_rejected(scheme):
    sys = make_model("counterexample").system
    out = sv.solve(sys, scheme, pa.build_partition(1.0, N=16), [2.0, 1.0])
    pair = (sys.r1, sys.r2)
    audits = (
        lambda iv: dg.edb_audit(out, sys, iv),
        lambda iv: dg.rate_term(out, pair, iv),
        lambda iv: dg.slope_term(out, pair, iv),
        lambda iv: dg.remainder_term(out, sys.energy, iv),
    )
    for interval in ((-0.5, 1.0), (0.0, 2.0), (0.75, 0.25), (0.0, math.nan)):
        for audit in audits:
            with pytest.raises(InputError, match="not inside"):
                audit(interval)


def test_the_audit_calls_its_terms_through_the_module(monkeypatch):
    # the bench tracer times each term by wrapping these module attributes
    calls = {}

    def counted(name):
        term = getattr(dg, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return term(*args, **kwargs)
        return wrapper

    for name in ("rate_term", "slope_term", "remainder_term"):
        monkeypatch.setattr(dg, name, counted(name))
    sys = make_model("counterexample").system
    out = sv.split_step_solve(sys, pa.build_partition(1.0, N=16), [2.0, 1.0])
    dg.edb_audit(out, sys)
    assert calls == {"rate_term": 1, "slope_term": 1, "remainder_term": 1}


def test_edb_decomposition_counterexample():
    sys = make_model("counterexample").system
    P = pa.build_partition(1.0, N=128)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    rep = dg.edb_audit(out, sys)
    # V1 = V2 on the diagonal, so the summed repeated rates track the
    # step-averaged rate closely; the value gap carries the 3/4 vs 9/16 drop
    assert rep.decomposition_defect <= 0.2
    assert rep.decomposition_value_gap >= 0.05
    assert rep.decomposition_value_gap >= -1e-10


def test_fenchel_young_pointwise_along_run():
    sys = make_model("counterexample").system
    P = pa.build_partition(1.0, N=32)
    out = sv.split_step_solve(sys, P, [2.0, 1.0])
    rate = out.u_linear.derivative()
    t1 = sys.r1.rescaled()
    t2 = sys.r2.rescaled()
    for i in range(out.grid.n_cells):
        R = t1 if out.grid.cell_is_left[i] else t2
        v = rate.cell_values[i]
        xi = out.xi.cell_values[i]
        res = R(v) + R.conjugate(-xi) + float(xi @ v)
        assert res >= -1e-10


# coefficients of a drawn load: zero, or bounded away from zero
NONZERO = st.one_of(st.floats(0.25, 2.0), st.floats(-2.0, -0.25))
COEF = st.one_of(st.just(0.0), NONZERO)


@st.composite
def loads(draw, dim):
    """(constant, Load) for a load that is constant, drifting (c1 != 0),
    oscillating (amp != 0 and omega != 0), or has an amplitude but omega = 0,
    which is constant too."""
    kind = draw(st.sampled_from(("constant", "drift", "wave", "frozen-wave")))

    def vec(nonzero=False):
        v = draw(st.lists(COEF, min_size=dim, max_size=dim))
        if nonzero:
            v[draw(st.integers(0, dim - 1))] = draw(NONZERO)
        return v

    c1 = amp = [0.0] * dim
    omega = 0.0
    if kind == "drift":
        c1, amp = vec(nonzero=True), vec()
        omega = draw(st.sampled_from([0.0, 3.0]))
    elif kind != "constant":
        amp = vec(nonzero=True)
        omega = draw(st.floats(0.5, 8.0)) if kind == "wave" else 0.0
    load = en.Load(vec(), c1, amp, omega, draw(st.floats(0.0, 3.0)))
    return kind in ("constant", "frozen-wave"), load


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4), N=st.integers(1, 4), data=st.data())
def test_power_integral_is_zero_exactly_for_a_load_constant_in_time(m, N, data):
    constant, load = data.draw(loads(m))
    # the AMM inequality audit passes with and without a power term
    preset = make_model("allen-cahn-1d", m=m, load=load)
    P = pa.build_partition(1.0, N=N)
    out = sv.solve(preset.system, "amm", P, preset.u0, 1e-10, pa.DEFAULT_INNER_FACTOR)
    report = dg.edb_audit(out, preset.system)
    assert report.passed
    assert (report.power_integral == 0.0) is constant


DRAWN_LOAD_CASES = [
    (model, load_key, scheme)
    for model, load_key, schemes in (
        ("allen-cahn-1d", "load", ("split", "amm", "effective")),
        ("visco-plasticity-1d", "f_load", ("block-split", "block-amm", "effective")),
    )
    for scheme in schemes
]


@pytest.mark.parametrize("model, load_key, scheme", DRAWN_LOAD_CASES)
def test_audits_pass_under_drawn_time_dependent_loads(model, load_key, scheme):
    # the power of a prox step is taken at its anchor, where the step's
    # minimality bounds the energy; taken at the step's end state, the
    # effective visco-plasticity audits failed (residual 7.2e-3 against a
    # slack of 4.7e-4 at N=16)
    rng = np.random.default_rng(64)
    failed = []
    for draw in range(5):
        c0, c1, amp = rng.standard_normal((3, 8))
        preset = make_model(model, m=8, **{load_key: en.Load(c0, c1, amp, omega=6.0)})
        sys = preset.system
        for N in (16, 64):
            out = sv.solve(sys, scheme, pa.build_partition(1.0, N=N), preset.u0, 1e-10, 8)
            report = dg.edb_audit(out, sys)
            assert report.power_integral != 0.0
            if not report.passed:
                failed.append((draw, N, report.residual, report.slack))
    assert failed == []


# ---------------------------------------------------------------------------
# remainder
# ---------------------------------------------------------------------------


def test_remainder_convex_energy_nonpositive():
    E = en.QuadraticBlockEnergy(A=np.eye(1))
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(1)), r2=pt.QuadraticForm(np.eye(1))
    )
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, [1.0])
    rem, bound = dg.remainder_term(out, E)
    assert bound == 0.0  # lambda = 0 for convex kinds
    assert rem <= 1e-10


def test_remainder_constant_trajectory_zero():
    E = en.QuadraticBlockEnergy(A=np.eye(1))
    sys = sv.GradientSystem(
        energy=E, r1=pt.QuadraticForm(np.eye(1)), r2=pt.QuadraticForm(np.eye(1))
    )
    P = pa.build_partition(1.0, N=4)
    out = sv.amm_solve(sys, P, [0.0])
    rem, bound = dg.remainder_term(out, E)
    assert rem == pytest.approx(0.0, abs=1e-14)
    assert bound == pytest.approx(0.0, abs=1e-14)


def test_remainder_decreases_under_refinement_allen_cahn():
    preset = make_model("allen-cahn-1d", m=8)
    sys = preset.system
    rems = []
    for N in (8, 16, 32):
        P = pa.build_partition(1.0, N=N)
        out = sv.amm_solve(sys, P, preset.u0)
        rem, _ = dg.remainder_term(out, sys.energy)
        rems.append(abs(rem))
    assert rems[0] > rems[1] > rems[2]


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


def smooth_block_system():
    A = np.array([[2.0, 0.4], [0.4, 1.5]])
    B = np.array([[0.3, -0.1]])
    G = np.array([[1.2]])
    E = en.QuadraticBlockEnergy(
        A, B, G,
        f=en.Load([0.2, -0.1], c1=[0.5, 0.0], amp=[0.3, 0.0], omega=2.0),
        g=en.Load([0.1], c1=[-0.2]),
    )
    r1 = pt.QuadraticForm(np.diag([1.0, 2.0, 1.5]))
    r2 = pt.QuadraticForm(np.diag([2.0, 1.0, 1.0]))
    return sv.GradientSystem(energy=E, r1=r1, r2=r2)


@pytest.mark.parametrize("scheme", ["split", "amm"])
def test_study_quadratic_block_orders(scheme):
    sys = smooth_block_system()
    table = dg.convergence_study(
        sys, [1.0, -0.5, 0.3], scheme, [4, 8, 16], reference_factor=16
    )
    errs = table.column("sup_error")
    assert errs[0] > errs[1] > errs[2]
    for order in table.column("empirical_order")[1:]:
        assert order >= 0.5
    defects = table.column("decomposition_defect")
    assert defects[0] > defects[1] > defects[2]


def test_study_counterexample_nonconvergence():
    sys = make_model("counterexample").system
    table = dg.convergence_study(
        sys, [2.0, 1.0], "split", [16, 32, 64], reference_factor=4
    )
    errs = table.column("sup_error")
    # split trajectories do not approach the effective solution: the
    # terminal gap stays near the distance of the two closed-form paths
    assert min(errs) > 0.2
    ratio = errs[0] / errs[-1]
    assert ratio < 2.0


def test_study_table_csv(tmp_path):
    sys = smooth_block_system()
    table = dg.convergence_study(sys, [1.0, -0.5, 0.3], "split", [4, 8])
    path = tmp_path / "study.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("N,sup_error")
    assert len(lines) == 3


def test_study_of_the_effective_scheme_matches_its_exact_reference():
    sys = make_model("counterexample").system
    table = dg.convergence_study(sys, [2.0, 1.0], "effective", [4, 8])
    assert table.column("sup_error") == [0.0, 0.0]
    assert table.column("decomposition_defect") == [0.0, 0.0]


def test_rate_term_dominates_effective_rate_smooth_system():
    # inf-convolution lower bound: D_rate >= int R_eff(U') - quadrature tol
    sys = smooth_block_system()
    P = pa.build_partition(1.0, N=8)
    out = sv.amm_solve(sys, P, [1.0, -0.5, 0.3])
    rep = dg.edb_audit(out, sys)
    assert rep.decomposition_value_gap >= -1e-10


def test_enhanced_convergence_of_dissipation_terms():
    # along a convergent refinement the rate and slope integrals approach
    # the effective ones
    sys = smooth_block_system()
    table = dg.convergence_study(sys, [1.0, -0.5, 0.3], "amm", [4, 8, 16, 32])
    for col in ("rate_gap", "slope_gap"):
        gaps = table.column(col)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        # first-order decay: three halvings shrink the gap by ~8x
        assert gaps[-1] < 0.25 * gaps[0]


def test_remainder_respects_convexity_bound():
    preset = make_model("allen-cahn-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=16)
    out = sv.amm_solve(sys, P, preset.u0)
    rem, bound = dg.remainder_term(out, sys.energy,
                                   weights=preset.norm_weights)
    assert rem <= bound + 1e-10
