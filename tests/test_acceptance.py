"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from splitflow import cli
from splitflow import diagnostics as dg
from splitflow import energies as en
from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow import solvers as sv
from splitflow.models import allen_cahn_witness_ratio, make_model


def record(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {label}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_effective_time_to_zero():
    t0 = time.perf_counter()
    preset = make_model("counterexample")
    P = pa.build_partition(1.0, N=64)
    out = sv.effective_solve(preset.system, P, preset.u0)
    ttz = sv.time_to_zero(out)
    elapsed = time.perf_counter() - t0
    ok = abs(ttz - 0.75) <= 1e-6 and elapsed < 1.0
    record(1, "effective trajectory reaches zero at t = 0.75",
           ok, f"t={ttz:.9f}, {elapsed:.2f}s")


def test_criterion_2_split_time_to_zero_convergence():
    t0 = time.perf_counter()
    preset = make_model("counterexample")
    limit = 0.25 + 2.0 / 3.0
    gaps = {}
    ok = True
    for N in (16, 32, 64, 128, 256):
        P = pa.build_partition(1.0, N=N)
        out = sv.split_step_solve(preset.system, P, preset.u0)
        ttz = sv.time_to_zero(out)
        gaps[N] = abs(ttz - limit)
        ok = ok and gaps[N] <= 2.0 / N
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    record(2, "split time-to-zero converges to 1/4 + 2/3",
           ok, f"gaps={ {n: round(g, 6) for n, g in gaps.items()} }, {elapsed:.2f}s")


def test_criterion_3_dissipation_drop():
    preset = make_model("counterexample")
    sys = preset.system
    P = pa.build_partition(1.0, N=256)
    out = sv.split_step_solve(sys, P, preset.u0)
    window = (0.25, 0.75)
    avg_rate = dg.rate_term(out, (sys.r1, sys.r2), window) / 0.5
    ok_rate = abs(avg_rate - 0.75) <= 1e-2

    from splitflow.models import reference_trajectory

    v_lim = (
        reference_trajectory(preset, 0.7, "split-limit")
        - reference_trajectory(preset, 0.3, "split-limit")
    ) / 0.4
    r_eff = pt.InfConvolution(sys.r1, sys.r2)
    eff_avg = r_eff(v_lim)  # constant velocity on (t1, t2)
    ok_eff = abs(eff_avg - 9.0 / 16.0) <= 1e-6
    record(3, "rate-term drop: split 3/4 vs effective 9/16",
           ok_rate and ok_eff, f"split={avg_rate:.6f}, effective={eff_avg:.9f}")


def _smooth_block_system():
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


def test_criterion_4_singleton_condition_convergence():
    sys = _smooth_block_system()
    u0 = [1.0, -0.5, 0.3]
    detail = []
    ok = True
    for scheme in ("split", "amm"):
        table = dg.convergence_study(sys, u0, scheme, [8, 16, 32, 64])
        errs = table.column("sup_error")
        orders = table.column("empirical_order")[1:]
        defects = table.column("decomposition_defect")
        mono_err = all(b < a for a, b in zip(errs, errs[1:]))
        mono_def = all(b < a for a, b in zip(defects, defects[1:]))
        ok = ok and mono_err and mono_def and all(o >= 0.5 for o in orders)
        detail.append(f"{scheme}: err {errs[0]:.2e}->{errs[-1]:.2e}, "
                      f"min order {min(orders):.2f}")
    record(4, "smooth block system: monotone convergence, order >= 0.5",
           ok, "; ".join(detail))


def test_criterion_5_edb_audits():
    ok = True
    details = []
    # exact-regime runs: balance residual per node interval
    preset = make_model("counterexample")
    sys = preset.system
    for scheme, solve in (
        ("split", sv.split_step_solve),
        ("effective", sv.effective_solve),
    ):
        P = pa.build_partition(1.0, N=32)
        out = solve(sys, P, preset.u0)
        worst = 0.0
        for k in range(P.N):
            rep = dg.edb_audit(out, sys, (P.nodes[k], P.nodes[k + 1]),
                               with_decomposition=False)
            worst = max(worst, abs(rep.residual))
        ok = ok and worst <= 1e-8
        details.append(f"{scheme} worst |res|={worst:.2e}")

    # AMM runs: inequality form on node pairs across all presets
    runs = []
    ce = make_model("counterexample")
    runs.append((ce.system, ce.u0, "amm", 16))
    ac = make_model("allen-cahn-1d", m=8)
    runs.append((ac.system, ac.u0, "amm", 8))
    vp = make_model("visco-plasticity-1d", m=6)
    runs.append((vp.system, vp.u0, "block-amm", 8))
    for sysd, u0, scheme, N in runs:
        P = pa.build_partition(1.0, N=N)
        if scheme == "block-amm":
            out = sv.solve(sysd, "block-amm", P, u0, 1e-10, 8)
        else:
            out = sv.amm_solve(sysd, P, u0)
        worst_gap = -math.inf
        for i in range(0, P.N + 1, 2):
            for j in range(i + 1, P.N + 1, 2):
                rep = dg.edb_audit(out, sysd, (P.nodes[i], P.nodes[j]),
                                   with_decomposition=False)
                worst_gap = max(worst_gap, rep.residual - rep.slack)
                ok = ok and rep.passed
        details.append(f"{scheme} worst res-slack={worst_gap:.2e}")
    record(5, "EDB audits: exact balances and AMM inequalities", ok,
           "; ".join(details))


def test_criterion_6_repetition_operators():
    rng = np.random.default_rng(17)
    P = pa.build_partition(1.0, N=4)
    grid = P.refine(2)
    ok = True
    for _ in range(1000):
        cells = rng.standard_normal((grid.n_cells, 2)) * rng.uniform(0.1, 5.0)
        g = pa.SampledCurve(grid, np.vstack([cells[:1], cells]),
                            "piecewise-constant")
        n_g = g.l1_norm()
        for j in (1, 2):
            if pa.repetition_apply(j, P, g).l1_norm() > 2.0 * n_g + 1e-12:
                ok = False
    # exact single-cell averaging identity
    P1 = pa.build_partition(1.0, N=1)
    g1 = P1.refine(2)
    vals = np.array([[3.0], [3.0], [7.0], [7.0]])
    g = pa.SampledCurve(g1, np.vstack([vals[:1], vals]), "piecewise-constant")
    avg = 0.5 * (
        pa.repetition_apply(1, P1, g).cell_values
        + pa.repetition_apply(2, P1, g).cell_values
    )
    ok = ok and np.array_equal(avg.ravel(), np.full(4, 5.0))

    # rate/slope rewriting identities are asserted inside every audit call;
    # exercise them on a split and on an amm run
    preset = make_model("counterexample")
    for solve in (sv.split_step_solve, sv.amm_solve):
        out = solve(preset.system, pa.build_partition(1.0, N=16), preset.u0)
        dg.rate_term(out, (preset.system.r1, preset.system.r2))
        dg.slope_term(out, (preset.system.r1, preset.system.r2))
    record(6, "repetition operators: norm bound, averaging, identities", ok)


def test_criterion_7_convex_kernel():
    rng = np.random.default_rng(23)
    kinds = [
        pt.QuadraticForm(np.array([[2.0, 0.4], [0.4, 1.0]])),
        pt.PowerNorm(3.0, [0.5, 2.0]),
        pt.OneHomPlusQuad(1.0, 0.5, dim=2),
        pt.AnisotropicDualQuadratic([1.0, 3.0]).rescaled(),
    ]
    worst = math.inf
    for _ in range(10000):
        P = kinds[rng.integers(len(kinds))]
        v = rng.standard_normal(2) * 10
        xi = rng.standard_normal(2) * 10
        worst = min(worst, pt.fenchel_young_residual(P, v, xi))
    ok = worst >= -1e-12

    a1, a2 = 1.0, 3.0
    ic = pt.InfConvolution(
        pt.AnisotropicDualQuadratic([a1]), pt.AnisotropicDualQuadratic([a2])
    )
    worst_ic = 0.0
    for v in np.linspace(-5.0, 5.0, 100):
        dec = pt.inf_conv_decompose(ic, [v], 1e-12)
        worst_ic = max(worst_ic, abs(dec.value - v**2 / (2.0 * (a1 + a2))))
    ok = ok and worst_ic <= 1e-10
    record(7, "convex kernel: Fenchel-Young, inf-convolution closed forms",
           ok, f"worst FY={worst:.2e}, worst closed-form gap={worst_ic:.2e}")


def test_criterion_7b_decompose_grid_oracle():
    # 2-D decomposition against a dense grid search
    R1 = pt.PowerNorm(2.0, dim=2)
    R2 = pt.OneHomPlusQuad(0.4, 1.0, dim=2)
    P = pt.InfConvolution(R1, R2)
    vs = np.linspace(-3.0, 3.0, 121)
    worst = 0.0
    for v in ([1.2, 0.3], [-0.7, 1.4], [0.0, 2.0]):
        dec = pt.inf_conv_decompose(P, v, 1e-9)
        best = math.inf
        for x in vs:
            for y in vs:
                v1 = np.array([x, y])
                best = min(best, R1(v1) + R2(np.asarray(v) - v1))
        worst = max(worst, abs(dec.value - best))
    ok = worst <= 1e-3
    record(7, "inf_conv_decompose matches the 2-D grid oracle", ok,
           f"worst gap={worst:.2e}")


def test_criterion_8_qye_dichotomy():
    t0 = time.perf_counter()
    preset2 = make_model("allen-cahn-1d", m=16, p=2.0)
    r_eff = pt.InfConvolution(preset2.system.r1, preset2.system.r2)
    rng = np.random.default_rng(42)
    cs = []
    for n in (1000, 2000):
        samples = [
            (rng.standard_normal(16), rng.standard_normal(16)) for _ in range(n)
        ]
        fit = pt.qye_probe(r_eff, samples, weights=preset2.norm_weights)
        cs.append(fit.c_est)
    ok_p2 = cs[1] > 0.5 and cs[1] >= 0.5 * cs[0]

    preset3 = make_model("allen-cahn-1d", m=64, p=3.0)
    r4 = allen_cahn_witness_ratio(preset3, 4)
    r64 = allen_cahn_witness_ratio(preset3, 64)
    ok_p3 = r4 / r64 >= 2.0
    elapsed = time.perf_counter() - t0
    ok = ok_p2 and ok_p3 and elapsed < 10.0
    record(8, "QYE dichotomy: certified at p=2, fails along witness at p=3",
           ok, f"c_est={cs}, witness drop={r4 / r64:.3f}x, {elapsed:.2f}s")


def _drawn_allen_cahn_state(seed, m=16):
    """Random multiples of the first three sine modes near the preset's
    0.5 sin(pi x): the drawn states of the p=3 runs."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    modes = [(0.48, 0.52), (-0.02, 0.02), (-0.02, 0.02)]
    return sum(rng.uniform(lo, hi) * np.sin((k + 1) * math.pi * x)
               for k, (lo, hi) in enumerate(modes))


def test_criterion_8b_effective_p3_converges(tmp_path):
    # at p=3 the Young estimate fails, and the effective flow is still the
    # reference that split steps and AMM are measured against
    cases = [("preset", [], N) for N in (48, 64, 128)]
    for seed in range(10):
        u0 = json.dumps([float(v) for v in _drawn_allen_cahn_state(seed)])
        cases.append((f"seed{seed}", ["--override", f"u0={u0}"], 64))
    failed = []
    for label, extra, N in cases:
        out = tmp_path / f"{label}-N{N}"
        code = cli.main(["run", "--model", "allen-cahn-1d", "--override", "p=3", *extra,
                         "--scheme", "effective", "--N", str(N), "--out", str(out)])
        if code != 0 or not json.loads((out / "edb.json").read_text())["passed"]:
            failed.append(f"{label} N={N} (exit {code})")
    record(8, "effective p=3 prox converges and passes the EDB inequality",
           not failed, f"{len(cases) - len(failed)} of {len(cases)} runs; failed: {failed}")


def test_criterion_8c_p3_study_converges():
    # a measured property of this preset, not a theorem of the paper
    preset = make_model("allen-cahn-1d", p=3.0)
    ok, detail = True, []
    for scheme in ("amm", "split"):
        table = dg.convergence_study(preset.system, preset.u0, scheme, [4, 8, 16])
        errors = table.column("sup_error")
        orders = table.column("empirical_order")[1:]
        ok &= all(b < a for a, b in zip(errors, errors[1:]))
        ok &= all(order >= 0.75 for order in orders)
        detail.append(f"{scheme} orders " + ", ".join(f"{o:.2f}" for o in orders))
    record(8, "split and AMM converge to the effective flow at p=3", ok,
           "; ".join(detail))


def test_criterion_9_block_system():
    preset = make_model("visco-plasticity-1d", m=8)
    sys = preset.system
    P = pa.build_partition(1.0, N=8)
    E = sys.energy
    ok = True
    for mode in ("amm", "split"):
        out = sv.solve(sys, f"block-{mode}", P, preset.u0, 1e-10, 8)
        times = np.sort(np.concatenate([P.nodes[1:], P.midpoints]))
        vals = [E.eval(0.0, preset.u0)]
        vals += [E.eval(0.0, out.u_const.at(t)) for t in times]
        ok = ok and all(b <= a + 1e-11 for a, b in zip(vals, vals[1:]))

    stiff = make_model("visco-plasticity-1d", m=8, sigma_yield=50.0)
    out = sv.solve(stiff.system, "block-amm", P, stiff.u0, 1e-10, 8)
    _, idx_z = stiff.system.block_indices()
    z_path = out.u_linear.values[:, idx_z]
    frozen = np.array_equal(z_path, np.tile(stiff.u0[idx_z], (len(z_path), 1)))
    ok = ok and frozen
    record(9, "visco-plasticity block runs: energy decay, exact yield freeze",
           ok, f"z frozen exactly: {frozen}")


def test_criterion_10_cli_determinism(tmp_path):
    payloads = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        code = cli.main(
            ["run", "--model", "counterexample", "--scheme", "amm",
             "--N", "32", "--out", str(out_dir)]
        )
        assert code == 0
        payloads.append(
            tuple((out_dir / name).read_bytes()
                  for name in ("trajectory.csv", "forces.csv"))
        )
    ok = payloads[0] == payloads[1]
    record(10, "identical CLI runs produce byte-identical CSVs", ok)
