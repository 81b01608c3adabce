import json
import os

import pytest

from splitflow import cli


def run_cli(args):
    return cli.main(args)


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
         "--study", "4,8", "--override", "m=6", "--out", str(out_dir),
         "--jobs", "2"]
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


def test_bad_flags_exit_nonzero(tmp_path, capsys):
    assert run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--N", "0", "--out", str(tmp_path / "x")]) == 1
    assert run_cli(["run", "--model", "counterexample", "--scheme", "split",
                    "--inner-steps", "3", "--out", str(tmp_path / "y")]) == 1


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
