"""One workload pass in a fresh interpreter.

Times ``import splitflow.cli``, then drives ``splitflow.cli.main(argv)`` for
each invocation of the pass as a closed loop with one client: an invocation
starts only after the previous one returned and its outputs were read.  The
pass result (timings, failures, CSV hashes, peak RSS and, when traced, the
per-layer metrics) is written as JSON to ``--result``.

    python3 bench/worker.py --src SRC --result OUT.json [--spec SPEC.json
        --work DIR] [--spans SPANS.json.gz]
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def calibrate(steps=2500):
    """Seconds taken by a fixed piece of work independent of the program.

    Small dense solves, array arithmetic and Python float arithmetic, the
    mix that splitflow's solves are made of.  It is timed next to every
    invocation, so that the run can tell a slow core from a slow program.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((8, 8))
    a = a @ a.T + 8.0 * np.eye(8)
    v = rng.standard_normal(8)
    acc = 0.0
    start = time.perf_counter()
    for k in range(steps):
        w = np.linalg.solve(a, v)
        acc += float(np.dot(w, v)) + math.sqrt(abs(acc) + k)
        v = 0.5 * (v + w / (1.0 + np.abs(w).max()))
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration diverged")
    return elapsed


def run_invocation(cli, inv, out_dir, tracer=None):
    """Run one invocation and check what it wrote.

    Every way an invocation can fail is recorded in ``failures`` instead of
    propagating: an exception escaping ``cli.main``, a nonzero exit code, or
    an audit verdict of ``edb_passed: false``.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = inv["argv"] + ["--out", out_dir]
    rec = {"id": inv["id"], "rc": None, "failures": [], "wrong": False}
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.invocation = inv["id"]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rec["rc"] = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rec["rc"] = exc.code
    except Exception as exc:  # the harness must outlive any program fault
        where = traceback.extract_tb(exc.__traceback__)[-1]
        rec["failures"].append(f"uncaught {type(exc).__name__}: {exc} "
                               f"({os.path.basename(where.filename)}:{where.lineno})")
    rec["seconds"] = time.perf_counter() - start
    if tracer is not None:
        tracer.invocation = None

    if rec["rc"] not in (0, None):
        lines = stderr.getvalue().strip().splitlines()
        rec["failures"].append(f"exit code {rec['rc']}: {lines[-1] if lines else ''}")
    summary_path = os.path.join(out_dir, "summary.json")
    if inv["argv"][0] == "run" and os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        rec["time_to_zero"] = summary.get("time_to_zero")
        if summary.get("edb_passed") is not True:
            rec["failures"].append(f"edb_passed is {summary.get('edb_passed')!r}")
    rec["csv_sha256"] = {
        name: _sha256(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")
    } if os.path.isdir(out_dir) else {}
    return rec


def arrival_time(preset, kind):
    """First time ``models.reference_trajectory`` reaches the origin.

    Bisection on the closed form to the last bit of [0, horizon].
    """
    from splitflow.models import reference_trajectory

    def at_zero(t):
        return not reference_trajectory(preset, t, kind).any()

    lo, hi = 0.0, preset.horizon
    if not at_zero(hi):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if at_zero(mid) else (mid, hi)


def check_anchor(rec, anchor):
    """Compare a counterexample time-to-zero with the closed form."""
    from splitflow.models import make_model

    if rec["rc"] != 0:
        return
    preset = make_model("counterexample",
                        **({} if anchor["u0"] is None else {"u0": anchor["u0"]}))
    targets = {"closed form": arrival_time(preset, anchor["kind"])}
    if "paper" in anchor:
        targets["paper anchor"] = anchor["paper"]
    ttz = rec.get("time_to_zero")
    for label, target in targets.items():
        if ttz is None or target is None or abs(ttz - target) > anchor["tol"]:
            rec["failures"].append(
                f"time to zero {ttz!r} misses the {label} {target!r} "
                f"({anchor['kind']}) by more than {anchor['tol']:.3g}")
            rec["wrong"] = True


def run_pass(cli, invocations, work_dir, tracer=None, calibration=None):
    """Run every invocation once, in order; returns the invocation records.

    With a ``calibration`` list, a calibration is timed after each
    invocation and appended to it.
    """
    records = []
    for inv in invocations:
        records.append(run_invocation(cli, inv, os.path.join(work_dir, inv["id"]), tracer))
        if calibration is not None:
            calibration.append(calibrate())
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding splitflow/")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spec", help="JSON list of invocations; omit to time the import only")
    parser.add_argument("--work", help="directory for the program's outputs")
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  timed on its own as well: see run.rescaled_import
    t1 = time.perf_counter()
    import splitflow.cli as cli
    t2 = time.perf_counter()
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"splitflow was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = {"import_s": t2 - t0, "numpy_import_s": t1 - t0}

    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            invocations = json.load(fh)
        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer().install()
        result["calibration_s"] = [calibrate()]
        records = run_pass(cli, invocations, args.work, tracer,
                           result["calibration_s"])
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.dump(args.spans)
        for inv, rec in zip(invocations, records):
            if "anchor" in inv:
                check_anchor(rec, inv["anchor"])
        shutil.rmtree(args.work, ignore_errors=True)
        result["invocations"] = records
        result["wall_s"] = sum(rec["seconds"] for rec in records)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
