"""Batch front-end: run schemes on presets, studies, and probes.

A run configuration is a single JSON document; command-line flags override
config fields.  Every output directory receives the validated config echo
and the library version so runs are machine-diffable.  Repeated runs of an
identical config produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys as _sys

import numpy as np

from . import __version__
from .diagnostics import convergence_study, edb_audit
from .errors import InputError, NumericalError, SplitflowError
from .models import _MAX_VALUES, MODEL_NAMES, make_model
from .partitions import build_partition
from .potentials import qye_probe
from .solvers import SCHEMES, effective_potential, solve, time_to_zero


# every config field with its default and its kind, as its flag's argparse
# type gives it: a (kind, element kind) pair for lists, and None allowed where
# it is the default.  Each config gets its own copy of a dict default
_FIELDS = {
    "model": ("counterexample", str),
    "overrides": ({}, dict),
    "scheme": ("split", str),
    "N": (64, int),
    "nodes": (None, (list, float)),
    "inner_steps": (8, int),
    "tol": (1e-10, float),
    "out": (None, str),
    "seed": (0, int),
    "study": (None, (list, int)),
    "samples": (1000, int),
}
_KIND_NAMES = {
    str: "a string", dict: "an object", int: "an integer", float: "a number",
    (list, float): "a non-empty list of numbers",
    (list, int): "a non-empty list of integers",
}


class RunConfig:
    """Validated description of one batch run: one attribute per field of
    ``_FIELDS``, at its default until set."""

    def __init__(self):
        for name, (default, _) in _FIELDS.items():
            setattr(self, name, default.copy() if isinstance(default, dict) else default)

    def validate(self):
        if self.model not in MODEL_NAMES:
            raise InputError(f"unknown model {self.model!r}")
        if self.scheme not in SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}")
        if self.nodes is None and self.N < 1:
            raise InputError("need N >= 1 or an explicit node list")
        if self.inner_steps < 2 or self.inner_steps % 2:
            raise InputError("inner steps must be an even count >= 2")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InputError(f"tolerance must be a positive finite number, not {self.tol}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, not {self.seed}")
        if self.samples < 1:
            raise InputError("need samples >= 1")
        # a grid has 2 * inner steps cells per step; a probe draws 2 * samples vectors
        steps = [("N", self.N) if self.nodes is None else ("node steps", len(self.nodes) - 1)]
        steps += [("study N", n) for n in self.study or ()]
        for name, n in steps:
            if 2 * n * self.inner_steps > _MAX_VALUES:
                raise InputError(f"{name} = {n} and inner steps = {self.inner_steps} "
                                 "make more than 2**45 grid cells")
        if 2 * self.samples > _MAX_VALUES:
            raise InputError(f"samples = {self.samples} make more than 2**45 vectors")
        return self


def _default_out_root():
    return os.environ.get("SPLITFLOW_OUT", os.path.join(os.getcwd(), "splitflow-out"))


def _is_kind(val, kind):
    if isinstance(kind, tuple):
        return isinstance(val, list) and bool(val) and all(
            _is_kind(x, kind[1]) for x in val)
    if isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if kind is float else kind)


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise InputError(f"config {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object of fields")
    cfg = RunConfig()
    for key, val in data.items():
        if key not in _FIELDS:
            raise InputError(f"unknown config field {key!r}")
        default, kind = _FIELDS[key]
        if not (_is_kind(val, kind) or (val is None and default is None)):
            raise InputError(f"config field {key!r} must be {_KIND_NAMES[kind]}, "
                             f"not {json.dumps(val)}")
        setattr(cfg, key, val)
    return cfg


def _apply_flags(cfg: RunConfig, args):
    for attr in ("model", "scheme", "N", "nodes", "inner_steps", "tol", "out", "seed",
                 "samples", "study"):
        val = getattr(args, attr, None)
        if val is not None:
            setattr(cfg, attr, val)
    if getattr(args, "override", None):
        cfg.overrides.update(args.override)
    return cfg


# argparse types; argparse reports their ValueError (json's decode error is
# one) as "invalid <__name__> value"
def _comma_list(kind):
    def parse(text):
        return [kind(x) for x in text.split(",")]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _override(item):
    key, _, raw = item.partition("=")
    return key, json.loads(raw)


_override.__name__ = "KEY=JSON"


def _write(out_dir, files):
    """Write each ``{name: payload}`` into ``out_dir``: CSV payloads through
    their own ``to_csv(path)``, anything else as sorted, indented JSON."""
    for name, payload in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            payload.to_csv(path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)


def _setup(cfg: RunConfig, suffix):
    """The preset and the output directory of a command; the directory gets
    the config echo before any solve."""
    preset = make_model(cfg.model, **cfg.overrides)
    out_dir = cfg.out or os.path.join(_default_out_root(), f"{cfg.model}{suffix}")
    os.makedirs(out_dir, exist_ok=True)
    echo = {name: getattr(cfg, name) for name in _FIELDS}
    _write(out_dir, {"config.json": {"version": __version__, "config": echo}})
    return preset, out_dir


def cmd_run(cfg: RunConfig) -> int:
    preset, out_dir = _setup(cfg, f"-{cfg.scheme}")
    P = build_partition(preset.horizon, N=cfg.N, nodes=cfg.nodes)
    out = solve(preset.system, cfg.scheme, P, preset.u0, cfg.tol, cfg.inner_steps)
    _write(out_dir, {"trajectory.csv": out.u_linear, "forces.csv": out.xi})

    report = edb_audit(out, preset.system)
    summary = {
        "model": cfg.model,
        "scheme": cfg.scheme,
        "N": P.N,
        "version": __version__,
        "terminal_state": out.node_states()[-1].tolist(),
        "edb_residual": report.residual,
        "edb_passed": report.passed,
    }
    ttz = time_to_zero(out)
    if ttz is not None:
        summary["time_to_zero"] = ttz
    files = {"edb.json": report.to_dict(), "summary.json": summary}
    if report.decomposition_defect is not None:
        files.update({"decomposition_v1.csv": report.v1, "decomposition_v2.csv": report.v2})
    _write(out_dir, files)
    if not report.passed:
        numbers = [x for x in report.to_dict().values() if isinstance(x, float)]
        why = (
            f"residual {report.residual:.3e} exceeds slack {report.slack:.3e}"
            if all(map(math.isfinite, numbers))
            else "a term of the audit is not finite"
        )
        print(f"EDB audit failed: {why}", file=_sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0 if report.passed else 1


def cmd_study(cfg: RunConfig) -> int:
    if not cfg.study:
        raise InputError("study needs a comma-separated N list (--study)")
    preset, out_dir = _setup(cfg, f"-{cfg.scheme}-study")
    table = convergence_study(
        preset.system,
        preset.u0,
        cfg.scheme,
        cfg.study,
        T=preset.horizon,
        tol=cfg.tol,
        inner=cfg.inner_steps,
    )
    _write(out_dir, {"study.csv": table})
    print(f"study written to {os.path.join(out_dir, 'study.csv')}")
    return 0


def cmd_probe_qye(cfg: RunConfig) -> int:
    preset, out_dir = _setup(cfg, "-qye")
    r_eff = effective_potential(preset.system)
    # one draw: the pairs (v, xi) in the order of 2 * samples single draws
    samples = np.random.default_rng(cfg.seed).standard_normal((cfg.samples, 2, r_eff.dim))
    fit = qye_probe(r_eff, samples, weights=preset.norm_weights)
    payload = {
        "model": cfg.model,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "c_est": fit.c_est,
        "C_est": fit.C_est,
        "worst_pair": [fit.worst_pair[0].tolist(), fit.worst_pair[1].tolist()],
        "version": __version__,
    }
    _write(out_dir, {"qye.json": payload})
    print(json.dumps({"c_est": fit.c_est, "C_est": fit.C_est}, sort_keys=True))
    return 0


def cmd_list_models(_cfg) -> int:
    for name in MODEL_NAMES:
        print(name)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a validation failure (exit 1, one
    line) instead of argparse's usage text and exit 2, the I/O failure code."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(
        prog="splitflow",
        description="Audited split-step / alternating minimizing-movement runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="path to a JSON run configuration")
        sp.add_argument("--model", choices=MODEL_NAMES)
        sp.add_argument("--scheme", choices=SCHEMES)
        sp.add_argument("--N", type=int, dest="N")
        sp.add_argument("--nodes", type=_comma_list(float),
                        help="comma-separated explicit node list")
        sp.add_argument("--inner-steps", type=int, dest="inner_steps")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument(
            "--override",
            action="append",
            type=_override,
            metavar="KEY=JSON",
            help="model parameter override, e.g. --override p=3",
        )
        sp.add_argument("--study", type=_comma_list(int),
                        help="comma-separated N list for studies")

    for name in ("run", "study", "probe-qye", "list-models"):
        add_common(sub.add_parser(name))
    return parser


@functools.cache
def _parser():
    """The parser of ``main``, built once per process: parsing fills a new
    namespace on every call and changes nothing in the parser."""
    return build_parser()


def _certificate(exc: NumericalError):
    """The duality gap and iteration count a failed solve carries, if any."""
    parts = []
    if exc.gap is not None:
        parts.append(f"gap {exc.gap:.1e}")
    if exc.iterations is not None:
        parts.append(f"after {exc.iterations} iterations")
    return f" ({' '.join(parts)})" if parts else ""


def main(argv=None) -> int:
    # numpy's floating-point warnings stay silent: a run that meets a number
    # that is not finite ends on the one line of the failure it causes (the
    # finiteness checks of the solve and the audit, or a linear-algebra error)
    with np.errstate(all="ignore"):
        try:
            args = _parser().parse_args(argv)
            cfg = _load_config(args.config) if args.config else RunConfig()
            cfg = _apply_flags(cfg, args).validate()
            handler = {
                "run": cmd_run,
                "study": cmd_study,
                "probe-qye": cmd_probe_qye,
                "list-models": cmd_list_models,
            }[args.command]
            return handler(cfg)
        except OSError as exc:
            print(f"I/O failure: {exc}", file=_sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure: {exc}{_certificate(exc)}", file=_sys.stderr)
            return 3
        except MemoryError as exc:
            # a size within _MAX_VALUES can still ask for more than this machine has
            print(f"error: out of memory: {exc}", file=_sys.stderr)
            return 1
        except (np.linalg.LinAlgError, OverflowError) as exc:
            # arithmetic broke down, e.g. on model parameters whose products overflow
            print(f"numerical failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
            return 3
        except SplitflowError as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
