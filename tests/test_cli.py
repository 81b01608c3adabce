import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import cli


def run_cli(args):
    return cli.main(args)


@contextlib.contextmanager
def no_warning_escapes():
    """Fail if a warning of any kind leaves the block: main prints one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]


def test_list_models(capsys):
    assert run_cli(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in ("counterexample", "allen-cahn-1d", "visco-plasticity-1d"):
        assert name in out


def test_run_split_counterexample(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = run_cli(
        ["run", "--model", "counterexample", "--scheme", "split", "--N", "64",
         "--out", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "edb.json").exists()
    assert (out_dir / "config.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["time_to_zero"] == pytest.approx(0.25 + 2.0 / 3.0, abs=2.0 / 64)
    assert summary["edb_passed"]
    cfg = json.loads((out_dir / "config.json").read_text())
    assert cfg["version"] == summary["version"]


def test_run_effective_counterexample(tmp_path):
    out_dir = tmp_path / "run-eff"
    code = run_cli(
        ["run", "--model", "counterexample", "--scheme", "effective", "--N", "64",
         "--out", str(out_dir)]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["time_to_zero"] == pytest.approx(0.75, abs=1e-6)


def test_run_is_deterministic(tmp_path):
    dirs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert run_cli(
            ["run", "--model", "counterexample", "--scheme", "amm", "--N", "16",
             "--out", str(out_dir)]
        ) == 0
        dirs.append(out_dir)
    for name in ("trajectory.csv", "forces.csv"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b


def test_study_writes_table(tmp_path):
    out_dir = tmp_path / "study"
    code = run_cli(
        ["study", "--model", "allen-cahn-1d", "--scheme", "amm",
         "--study", "4,8", "--override", "m=6", "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "study.csv").read_text().splitlines()
    assert lines[0].startswith("N,sup_error")
    assert len(lines) == 3
    e4 = float(lines[1].split(",")[1])
    e8 = float(lines[2].split(",")[1])
    assert e8 < e4


def test_probe_qye(tmp_path, capsys):
    out_dir = tmp_path / "qye"
    code = run_cli(
        ["probe-qye", "--model", "allen-cahn-1d", "--override", "m=8",
         "--samples", "200", "--seed", "3", "--out", str(out_dir)]
    )
    assert code == 0
    data = json.loads((out_dir / "qye.json").read_text())
    assert data["c_est"] > 0.0
    assert data["seed"] == 3


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_non_positive_sample_count_exits_one_with_one_line(tmp_path, capsys, samples):
    code = run_cli(["probe-qye", "--model", "allen-cahn-1d", "--samples", samples,
                    "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seed", range(6))
def test_probe_qye_draws_the_pairs_of_single_draws(tmp_path, capsys, seed):
    # the pairs (v, xi) of 2 * samples single draws, fitted from a list
    from splitflow.models import make_model
    from splitflow.potentials import qye_probe
    from splitflow.solvers import effective_potential

    out_dir = tmp_path / "qye"
    assert run_cli(["probe-qye", "--model", "allen-cahn-1d", "--override", "p=3",
                    "--samples", "120", "--seed", str(seed), "--out", str(out_dir)]) == 0
    preset = make_model("allen-cahn-1d", p=3)
    r_eff = effective_potential(preset.system)
    rng = np.random.default_rng(seed)
    pairs = [(rng.standard_normal(r_eff.dim), rng.standard_normal(r_eff.dim))
             for _ in range(120)]
    fit = qye_probe(r_eff, pairs, weights=preset.norm_weights)
    data = json.loads((out_dir / "qye.json").read_text())
    assert (data["c_est"], data["C_est"]) == (fit.c_est, fit.C_est)
    assert data["worst_pair"] == [fit.worst_pair[0].tolist(), fit.worst_pair[1].tolist()]


def _written_files(out_dir):
    """The bytes of every file in ``out_dir``, with ``config.json``'s ``out``
    replaced: it names the directory."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "config.json":
            assert json.loads(data)["config"]["out"] == str(out_dir)
            data = data.replace(json.dumps(str(out_dir)).encode(), b'"OUT"')
        files[path.name] = data
    return files


_REUSE_CALLS = [
    ["run", "--model", "allen-cahn-1d", "--scheme", "amm", "--N", "4",
     "--override", "p=3", "--override", "m=6"],
    ["run", "--model", "allen-cahn-1d", "--scheme", "amm", "--N", "4",
     "--override", "well_scale=2.0"],
    ["run", "--model", "allen-cahn-1d", "--scheme", "amm", "--N", "4"],
    ["study", "--model", "allen-cahn-1d", "--scheme", "amm", "--study", "2,4"],
    ["probe-qye", "--model", "allen-cahn-1d", "--samples", "50", "--seed", "3"],
]


def test_calls_in_one_process_write_what_a_fresh_process_writes(tmp_path):
    # main keeps one parser for the process, and each config its own
    # overrides; no call may leave state in either
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    script = "import sys; from splitflow import cli; sys.exit(cli.main(sys.argv[1:]))"
    assert cli._parser() is cli._parser()
    for i, argv in enumerate(_REUSE_CALLS):
        fresh, reused = tmp_path / f"fresh-{i}", tmp_path / f"reused-{i}"
        done = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(fresh)],
                              env=env, capture_output=True, check=False)
        assert done.returncode == 0, done.stderr
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(argv + ["--out", str(reused)]) == 0
        assert _written_files(reused) == _written_files(fresh)


def test_configs_do_not_share_their_overrides():
    first, second = cli.RunConfig(), cli.RunConfig()
    first.overrides["p"] = 3.0
    assert second.overrides == {} and cli.RunConfig().overrides == {}


def test_importing_the_cli_leaves_dataclasses_unimported():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    script = "import sys, splitflow.cli; sys.exit('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          check=False)
    assert done.returncode == 0, done.stderr


# sizes past np.intp: numpy would refuse them before allocating anything
@pytest.mark.parametrize("argv, field", [
    (["run", "--N", "100000000000000000000000"], "N = 100000000000000000000000"),
    (["run", "--inner-steps", "1000000000000000000000"],
     "inner steps = 1000000000000000000000"),
    (["run", "--nodes", "0,1", "--inner-steps", "1000000000000000000000"],
     "inner steps = 1000000000000000000000"),
    (["probe-qye", "--samples", "1000000000000000000000"],
     "samples = 1000000000000000000000"),
    (["study", "--study", "4,1000000000000000000000"], "study N = 1000000000000000000000"),
])
def test_an_oversized_count_exits_one_with_one_line_naming_it(tmp_path, capsys, argv,
                                                              field):
    out = tmp_path / "out"
    assert run_cli(argv + ["--model", "counterexample", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and field in err
    assert not out.exists()  # rejected before the config echo


# meshes whose m x m matrices numpy refuses before allocating anything
@pytest.mark.parametrize("model, m", [
    ("visco-plasticity-1d", 10**10),
    ("visco-plasticity-1d", 10**20),
    ("allen-cahn-1d", 10**20),
])
def test_an_oversized_mesh_override_exits_one_with_one_line_naming_it(tmp_path, capsys,
                                                                      model, m):
    out = tmp_path / "out"
    assert run_cli(["run", "--model", model, "--override", f"m={m}",
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and f"m = {m}" in err
    assert not out.exists()  # rejected before the config echo


def test_running_out_of_memory_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "solve", exhausted)
    assert run_cli(["run", "--model", "counterexample", "--N", "4",
                    "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"


def test_env_var_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITFLOW_OUT", str(tmp_path / "root"))
    code = run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--N", "8"])
    assert code == 0
    assert (tmp_path / "root" / "counterexample-split" / "summary.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "counterexample", "scheme": "split",
                                    "N": 8}))
    out_dir = tmp_path / "cfg-run"
    code = run_cli(["run", "--config", str(cfg_path), "--scheme", "effective",
                    "--out", str(out_dir)])
    assert code == 0
    echo = json.loads((out_dir / "config.json").read_text())
    assert echo["config"]["scheme"] == "effective"
    assert echo["config"]["N"] == 8


@pytest.mark.parametrize(
    "text",
    ['{"N": "x"}', "N = 8", "[1]", '{"validate": 1}', '{"nodes": []}',
     '{"study": [4, 8.5]}', '{"tol": true}'],
)
def test_malformed_config_exits_one_with_one_line(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli(["study", "--config", str(cfg_path), "--study", "2",
                    "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_every_config_field_has_a_kind(tmp_path):
    # a config has one attribute per field of the list, and each has a kind
    # that the --config check can name and that its default is of, if not None
    assert set(vars(cli.RunConfig())) == set(cli._FIELDS)
    for name, (default, kind) in cli._FIELDS.items():
        assert kind in cli._KIND_NAMES, name
        assert default is None or cli._is_kind(default, kind), name
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": "counterexample", "overrides": {"u0": [1.0, 0.5]}, "scheme": "amm",
        "N": 4, "nodes": [0, 0.5, 1.0], "inner_steps": 2, "tol": 1, "out": None,
        "seed": 3, "study": [2], "samples": 10,
    }))
    cfg = cli._load_config(str(cfg_path))
    assert cfg.nodes == [0, 0.5, 1.0] and cfg.tol == 1 and cfg.study == [2]


def test_bad_flags_exit_nonzero(tmp_path, capsys):
    assert run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--N", "0", "--out", str(tmp_path / "x")]) == 1
    assert run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--inner-steps", "3", "--out", str(tmp_path / "y")]) == 1


_BAD_VALUES = [("tol", "inf", "Infinity"), ("tol", "nan", "NaN"), ("tol", "-inf", "-Infinity"),
               ("tol", "0", "0"), ("seed", "-1", "-1")]


@pytest.mark.parametrize("field, flag_value, json_value", _BAD_VALUES)
@pytest.mark.parametrize("argv", [
    ["study", "--model", "allen-cahn-1d", "--scheme", "amm", "--study", "2,4"],
    ["run", "--model", "visco-plasticity-1d", "--scheme", "effective", "--N", "4"],
    ["probe-qye", "--model", "allen-cahn-1d", "--samples", "10"],
], ids=["study", "run", "probe-qye"])
def test_a_tolerance_that_is_not_positive_and_finite_or_a_negative_seed_exits_one(
        tmp_path, capsys, argv, field, flag_value, json_value):
    # argparse takes "--tol inf" and "--tol nan" as floats; the config holds JSON's
    # NaN and Infinity literals
    out = ["--out", str(tmp_path / "x")]
    assert run_cli(argv + [f"--{field}={flag_value}"] + out) == 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"{field}": {json_value}}}')
    assert run_cli(argv + ["--config", str(cfg_path)] + out) == 1
    err = capsys.readouterr().err.splitlines()
    word = {"tol": "tolerance", "seed": "seed"}[field]
    assert len(err) == 2 and all(line.startswith(f"error: {word} must") for line in err)
    assert not (tmp_path / "x").exists()  # rejected before any output


@pytest.mark.parametrize(
    "override",
    ["foo=1", "u0=[NaN,1.0]", "u0=[0.1,0.2,0.3]", 'a1="x"', 'u0=[1,"a"]'],
)
def test_bad_override_exits_one_without_traceback(tmp_path, capsys, override):
    code = run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--N", "8", "--override", override, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("model, key, value", [
    ("visco-plasticity-1d", "f_load", 1), ("visco-plasticity-1d", "g_load", [1, 2]),
    ("allen-cahn-1d", "load", 0.5)])
def test_a_load_override_exits_one_with_one_line_naming_its_key(tmp_path, capsys, model, key,
                                                                value):
    code = run_cli(["run", "--model", model, "--scheme", "split", "--N", "4",
                    "--override", f"{key}={json.dumps(value)}", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: override {key} must be a Load descriptor, got {value!r}"]
    assert not (tmp_path / "x").exists()


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--N", "8", "--out", str(blocker / "sub")])
    assert code == 2


def test_explicit_nodes_flag(tmp_path):
    out_dir = tmp_path / "nodes-run"
    code = run_cli(["run", "--model", "counterexample", "--scheme", "effective",
                    "--nodes", "0,0.3,1.0", "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["N"] == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from splitflow.errors import NumericalError

    def boom(cfg):
        raise NumericalError("solver diverged at step 3", iterations=100)

    monkeypatch.setattr(cli, "cmd_run", boom)
    code = run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--N", "8", "--out", str(tmp_path / "x")])
    assert code == 3


def test_run_with_an_overflowing_state_fails_its_audit(tmp_path, capsys):
    # the energies overflow, so the audit slack is infinite: it must not pass
    out_dir = tmp_path / "overflow"
    with no_warning_escapes():
        code = run_cli(["run", "--model", "counterexample", "--scheme", "amm",
                        "--N", "8", "--override", "u0=[1e308,1e308]",
                        "--out", str(out_dir)])
    assert code == 1
    report = json.loads((out_dir / "edb.json").read_text())
    assert report["slack"] == math.inf and report["passed"] is False
    assert "EDB audit failed: a term of the audit is not finite" in capsys.readouterr().err


def test_run_whose_solve_overflows_exits_3_at_the_first_bad_step(tmp_path, capsys):
    out_dir = tmp_path / "overflow"
    u0 = json.dumps([1e200] + [0.0] * 15)
    with no_warning_escapes():
        code = run_cli(["run", "--model", "allen-cahn-1d", "--scheme", "split",
                        "--N", "4", "--override", f"u0={u0}", "--out", str(out_dir)])
    assert code == 3
    err = capsys.readouterr().err
    # the first prox meets an overflowed residual and stops there
    assert err == "numerical failure: incremental minimization diverged (after 0 iterations)\n"
    assert not (out_dir / "trajectory.csv").exists()


def test_a_tolerance_that_no_solve_reaches_exits_3_as_stagnated(tmp_path, capsys):
    code = run_cli(["run", "--model", "allen-cahn-1d", "--override", "p=3", "--tol", "1e-300",
                    "--N", "4", "--out", str(tmp_path / "unreachable")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: incremental minimization stagnated (after 100 iterations)\n"


@pytest.mark.parametrize(
    "certificate, shown",
    [
        ({"gap": 2.6e-4, "iterations": 200}, " (gap 2.6e-04 after 200 iterations)"),
        ({"iterations": 100}, " (after 100 iterations)"),
        ({"gap": 1.5e-3, "best": [0.5]}, " (gap 1.5e-03)"),
        ({"best": [0.5]}, ""),
    ],
)
def test_numerical_failure_prints_its_certificate(tmp_path, capsys, monkeypatch,
                                                  certificate, shown):
    from splitflow.errors import NumericalError

    def boom(cfg):
        raise NumericalError("effective prox stagnated", **certificate)

    monkeypatch.setattr(cli, "cmd_run", boom)
    code = run_cli(["run", "--model", "counterexample", "--N", "8",
                    "--out", str(tmp_path / "x")])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: effective prox stagnated{shown}\n"


@pytest.mark.parametrize(
    "argv",
    [[], ["run", "--N", "x"], ["run", "--no-such-flag"], ["run", "--scheme", "nope"],
     ["run", "--override", "p"], ["run", "--override", "p=[1,"], ["study", "--study", "4,x"],
     ["run", "--nodes", "0,a,1"], ["run", "--nodes", "0,nan,1"]],
)
def test_malformed_command_line_exits_one_with_one_line(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("model, scheme", [("visco-plasticity-1d", "block-amm"),
                                           ("allen-cahn-1d", "effective")])
def test_run_csvs_are_savetxt_text_and_read_back_bit_for_bit(tmp_path, model, scheme):
    from splitflow.models import make_model
    from splitflow.partitions import SampledCurve, build_partition
    from splitflow.solvers import solve

    out_dir = tmp_path / scheme
    assert run_cli(["run", "--model", model, "--scheme", scheme, "--N", "4",
                    "--out", str(out_dir)]) == 0
    cfg, preset = cli.RunConfig(), make_model(model)
    out = solve(preset.system, scheme, build_partition(preset.horizon, N=4), preset.u0,
                cfg.tol, cfg.inner_steps)
    # the values the writer formats once: a force is held over the cells of
    # its movement, and a block run freezes a block on each semi-interval
    forces = out.xi.values
    assert np.unique(forces, axis=0).shape[0] < forces.shape[0]
    if scheme == "block-amm":
        y = out.u_linear.values[:, : preset.system.block_layout[0]]
        assert np.unique(y, axis=0).shape[0] < y.shape[0]
    for name, curve in (("trajectory.csv", out.u_linear), ("forces.csv", out.xi)):
        buf = io.BytesIO()
        header = ",".join(["t"] + [f"v_{j + 1}" for j in range(curve.dim)])
        np.savetxt(buf, np.column_stack([curve.grid.times, curve.values]), fmt="%.16e",
                   delimiter=",", header=f"# interpolant_kind: {curve.kind}\n{header}",
                   comments="")
        assert (out_dir / name).read_bytes() == buf.getvalue()
        back = SampledCurve.from_csv(out_dir / name, curve.grid)
        assert back.kind == curve.kind
        assert np.array_equal(back.values.view(np.uint64), curve.values.view(np.uint64))


# every model and scheme, on tables of 3, 17 and 10 columns; the
# counterexample starts on its axis at u2 = -0.0, a signed zero it keeps
_WRITER_RUNS = [(model, override, scheme)
                for model, override, schemes in [
                    ("counterexample", "u0=[1.5,-0.0]", ("split", "amm", "effective")),
                    ("allen-cahn-1d", "p=3", ("split", "amm", "effective")),
                    ("visco-plasticity-1d", "m=4", ("block-split", "block-amm", "effective"))]
                for scheme in schemes]


@pytest.mark.parametrize("model, override, scheme", _WRITER_RUNS)
def test_every_csv_of_a_run_is_the_savetxt_text_of_the_values_it_reads_back(
        tmp_path, model, override, scheme):
    from splitflow.partitions import SampledCurve, build_partition

    assert run_cli(["run", "--model", model, "--scheme", scheme, "--N", "4",
                    "--override", override, "--out", str(tmp_path)]) == 0
    grid = build_partition(1.0, N=4).refine(cli.RunConfig().inner_steps)
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == (2 if scheme == "effective" else 4)
    signed_zeros = 0
    for path in paths:
        curve = SampledCurve.from_csv(path, grid)
        assert curve.dim + 1 == {"counterexample": 3, "allen-cahn-1d": 17}.get(model, 10)
        buf = io.BytesIO()
        header = ",".join(["t"] + [f"v_{j + 1}" for j in range(curve.dim)])
        np.savetxt(buf, np.column_stack([grid.times, curve.values]), fmt="%.16e",
                   delimiter=",", header=f"# interpolant_kind: {curve.kind}\n{header}",
                   comments="")
        assert path.read_bytes() == buf.getvalue()
        signed_zeros += np.count_nonzero((curve.values == 0.0) & np.signbit(curve.values))
        if path.name == "forces.csv":  # a force is held over runs of cells
            assert np.unique(curve.values, axis=0).shape[0] < curve.values.shape[0]
    if model == "counterexample":
        assert signed_zeros > 0


@pytest.mark.parametrize(
    "model, override",
    [("counterexample", "a1=Infinity"), ("counterexample", "T=1e400"),
     ("counterexample", "T=" + "1" * 400), ("visco-plasticity-1d", "m=-1"),
     ("visco-plasticity-1d", "m=0"), ("counterexample", "T=7e-121")],
    ids=["infinite-weight", "infinite-T", "integer-T-beyond-float", "negative-m", "zero-m",
         "T-below-time-resolution"],
)
def test_inputs_the_fuzz_found_exit_one(tmp_path, capsys, model, override):
    # each escaped main with a traceback: a singular inverse of an infinite
    # weight, a float overflow, a division by zero, no flow segment at all
    code = run_cli(["run", "--model", model, "--scheme", "split", "--N", "1",
                    "--override", override, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("scheme", ["split", "amm"])
@pytest.mark.parametrize("p", [1025, 1100])
def test_an_exponent_whose_rescaled_weights_are_not_normal_floats_exits_one(
        tmp_path, capsys, p, scheme):
    # the alternating schemes step with the weights 2^(1-p) w, w = 1/17 on the
    # allen-cahn mesh: subnormal at p = 1025, zero at p = 1100
    code = run_cli(["run", "--model", "allen-cahn-1d", "--scheme", scheme, "--N", "4",
                    "--override", f"p={p}", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: PowerNorm exponent p = {p} is above 1018.91, the largest whose "
        "rescaled weights 2^(1-p) w are normal floats\n")


@pytest.mark.parametrize("a1", ["1e-320", "4e-324"])
def test_amm_at_a_subnormal_dual_weight_passes_its_audit(tmp_path, a1):
    # the rescaled metric's diagonal entry 1 / (2 a1) is infinite; it is
    # still a diagonal metric, which the max-norm prox takes
    out = tmp_path / "x"
    code = run_cli(["run", "--model", "counterexample", "--scheme", "amm",
                    "--override", f"a1={a1}", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["edb_passed"]


@pytest.mark.parametrize(
    "model, override, err",
    [("visco-plasticity-1d", "C_el=1e308", "LinAlgError: Eigenvalues did not converge")],
)
def test_overflowing_model_parameter_is_a_numerical_failure(tmp_path, capsys, model,
                                                            override, err):
    # the products overflow; the failure is the only line
    with no_warning_escapes():
        code = run_cli(["run", "--model", model, "--scheme", "split", "--N", "1",
                        "--override", override, "--out", str(tmp_path / "x")])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {err}\n"


@pytest.mark.parametrize("override, shown", [
    ("well_pos=1e155", "well_scale = 1.0 and well_pos = 1e+155"),
    ("well_pos=1e200", "well_scale = 1.0 and well_pos = 1e+200"),
    ("well_pos=1e308", "well_scale = 1.0 and well_pos = 1e+308"),
    # 2 well_scale overflows, and so does a power of an integer past the floats
    ("well_scale=1e308", "well_scale = 1e+308 and well_pos = 1.0"),
    ("well_pos=1" + "0" * 200, "well_scale = 1.0 and well_pos = 1" + "0" * 200),
])
def test_a_double_well_whose_growth_constants_overflow_is_bad_input(tmp_path, capsys,
                                                                     override, shown):
    with no_warning_escapes():
        code = run_cli(["run", "--model", "allen-cahn-1d", "--scheme", "split", "--N", "2",
                        "--override", override, "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {shown} make the double well's growth constants overflow\n")


# each model's override keys; the fuzz also draws unknown keys
_MODEL_KEYS = {
    "counterexample": ["a1", "b1", "a2", "b2", "u0", "T"],
    "allen-cahn-1d": ["m", "p", "well_scale", "well_pos", "load", "u0", "T"],
    "visco-plasticity-1d": ["m", "C_el", "H_hard", "D_visc", "sigma_yield", "rho",
                            "f_load", "g_load", "y0", "z0", "T"],
}
# integers stay small: m sizes the mesh, and a large one only costs time and memory
_numbers = st.one_of(st.integers(-3, 10), st.floats(width=64),
                     st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324]))
_values = st.one_of(
    _numbers, _numbers, st.lists(_numbers, max_size=40),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
    st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.lists(_numbers, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["c1", "amp", "omega", "x"]), _numbers, max_size=2))


@st.composite
def _argv(draw):
    # unknown subcommands, models and schemes are in
    # test_malformed_command_line_exits_one_with_one_line; here most draws of
    # N and of the override keys are valid, so that most examples reach a solve
    model = draw(st.sampled_from(list(_MODEL_KEYS)))
    argv = [draw(st.sampled_from(["run", "run", "study", "probe-qye", "list-models"])),
            "--model", model, "--scheme", draw(st.sampled_from(list(cli.SCHEMES))),
            "--N", draw(st.sampled_from([str(n) for n in range(1, 9)] * 2
                                        + ["0", "-1", "x", "2.5", "", "nan"])),
            "--samples", str(draw(st.integers(-1, 20))),
            "--inner-steps", "2"]
    if argv[0] == "study":
        argv += ["--study", draw(st.sampled_from(["2,4", "2,4", "0,2", "x"]))]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(_MODEL_KEYS[model] * 2 + ["foo", ""]))
        raw = draw(st.one_of(_values.map(json.dumps), st.sampled_from(["", "[1,", "x"])))
        argv += ["--override", f"{key}={raw}"]
    return argv


@settings(max_examples=80, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_ends_in_an_exit_code_with_at_most_one_line(argv):
    stderr = io.StringIO()
    # overflowing inputs end in one line too, with no warning before it
    with tempfile.TemporaryDirectory() as tmp, no_warning_escapes():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--out", os.path.join(tmp, "out")])
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert len(err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err
