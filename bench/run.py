"""Benchmark of audited splitflow CLI runs.

Each workload pass runs in a fresh interpreter (``bench/worker.py``) that
drives ``splitflow.cli.main(argv)`` in-process as a closed loop with one
client.  A run repeats passes for ``--seconds`` (at least two of each kind),
checks the outputs, and prints a report followed by one JSON line:

    python3 bench/run.py --workload ce-exact --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced passes.  Times
are rescaled to a reference core speed: an invocation by a fixed
calibration timed next to it, the import by numpy's own import (see
``rescaled_times`` and ``rescaled_import``).  The unscaled times are
printed beside them and stored.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.
``--workload all`` runs every workload in turn.  Results, CSV hashes and the
environment record go to ``bench/out/results/``; spans of traced passes to
``bench/out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

E2E_METRICS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Seconds the calibration in worker.py takes on a core in its fast state, on
# the 2-vCPU Xeon VM the benchmark was written on.  Times are reported at
# this core speed; see rescaled_times.  On a shared machine a core switches
# between a fast and a slow state, about 1.7x apart, for stretches from a
# fraction of a second to minutes, so raw times move with the share of slow
# time in a run, and a run can stay slow throughout.
REFERENCE_CALIBRATION_S = 0.0225
# Seconds ``import numpy`` takes in a fresh interpreter on the same machine's
# fast core; ``setup_s`` is reported at this speed (see rescaled_import).
REFERENCE_NUMPY_IMPORT_S = 0.045
MIN_PASSES = 2  # per pass kind, so that every run repeats each seed
SETUP_SAMPLES = 5  # import-only interpreters per run, besides the passes
HARD_LIMIT_S = 150.0  # a run never outlives this, whatever --seconds says
# every matrix here is at most 33x33: extra BLAS threads only add noise
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class HarnessError(Exception):
    """The benchmark itself could not run (missing program, crashed worker)."""


def environment():
    """Interpreter, numpy and BLAS build, CPU and cache sizes."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "worker_env": WORKER_ENV,
    }


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * i / (n - 1), sorted(samples)[i]


def rescaled_times(p):
    """Each invocation's time in pass ``p`` at the reference core speed.

    The time is divided by the mean of the two calibrations timed just
    before and after the invocation, and multiplied by
    ``REFERENCE_CALIBRATION_S``.
    """
    cal = p["calibration_s"]
    return {
        rec["id"]: REFERENCE_CALIBRATION_S * rec["seconds"] / (0.5 * (cal[k] + cal[k + 1]))
        for k, rec in enumerate(p["invocations"])
    }


def rescaled_wall(passes):
    """Wall time of a pass: each invocation's median rescaled time, summed."""
    times = [rescaled_times(p) for p in passes]
    return sum(statistics.median(t[inv] for t in times) for inv in times[0])


def rescaled_import(result):
    """Import time at the reference core speed.

    The import of ``splitflow.cli`` is scaled by the part of it that
    ``import numpy`` took, timed apart in the same interpreter, and
    multiplied by ``REFERENCE_NUMPY_IMPORT_S``.  A slow core slows an import
    less than it slows the calibration (about 1.2x against 1.5x), so the
    calibration would overcorrect; numpy's own import slows alike.
    """
    return REFERENCE_NUMPY_IMPORT_S * result["import_s"] / result["numpy_import_s"]


def fastest_wall(passes):
    """Each invocation's fastest time over ``passes``, summed (unscaled)."""
    ids = [rec["id"] for rec in passes[0]["invocations"]]
    return sum(
        min(rec["seconds"] for p in passes for rec in p["invocations"] if rec["id"] == inv)
        for inv in ids
    )


def compare_repeats(passes):
    """Identical configs must write byte-identical CSVs in every pass.

    Marks every invocation whose CSV hashes differ from the first repeat of
    the same invocation as failed and wrong; returns the first hashes.
    """
    first = {}
    for p in passes:
        for rec in p["invocations"]:
            ref = first.setdefault(rec["id"], rec["csv_sha256"])
            if rec["csv_sha256"] != ref:
                changed = sorted(f for f in set(ref) | set(rec["csv_sha256"])
                                 if ref.get(f) != rec["csv_sha256"].get(f))
                rec["failures"].append(
                    f"CSVs differ from the first repeat: {', '.join(changed)}")
                rec["wrong"] = True
    return first


def tally(passes):
    """(attempted, failed, correct, failures) over every invocation of every pass.

    An invocation fails for any recorded reason; the run is incorrect only if
    some output was wrong (a missed anchor or a changed CSV), not merely
    because an invocation failed.
    """
    records = [(k, rec) for k, p in enumerate(passes) for rec in p["invocations"]]
    failures = [(k, rec["id"], reason) for k, rec in records for reason in rec["failures"]]
    failed = sum(1 for _, rec in records if rec["failures"])
    correct = not any(rec["wrong"] for _, rec in records)
    return len(records), failed, correct, failures


class Run:
    """One benchmark run: set-up samples, then repeated passes of a workload."""

    def __init__(self, name, seed, seconds, trace, smoke):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.invocations = workloads.build(name, seed, smoke)
        self.dir = OUT / f"work-{os.getpid()}"
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ, **WORKER_ENV)

    def _worker(self, tag, *extra):
        result = self.dir / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
               "--result", str(result), *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"run exceeded {HARD_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker {tag} timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise HarnessError(f"worker {tag} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def _pass(self, k, traced):
        extra = ["--spec", str(self.dir / "spec.json"), "--work", str(self.dir / "out")]
        if traced:
            spans = OUT / "spans" / f"{self.name}-seed{self.seed}-pass{k}.json.gz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            extra += ["--spans", str(spans)]
        started = time.monotonic()
        result = self._worker(f"pass{k}", *extra)
        result["mode"] = "traced" if traced else "plain"
        result["process_s"] = time.monotonic() - started
        return result

    def execute(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        try:
            with open(self.dir / "spec.json", "w", encoding="utf-8") as fh:
                json.dump(self.invocations, fh)
            self._worker("warmup")  # compiles bytecode and fills the page cache
            self.setup_runs = [self._worker(f"setup{i}")
                               for i in range(1 if self.smoke else SETUP_SAMPLES)]
            self.setup = [rescaled_import(r) for r in self.setup_runs]
            self.raw_setup = [r["import_s"] for r in self.setup_runs]
            modes = (False, True) if self.trace else (False,)
            self.passes = []
            begun = time.monotonic()
            while True:
                traced = modes[len(self.passes) % len(modes)]
                kind = "traced" if traced else "plain"
                done = [p["process_s"] for p in self.passes if p["mode"] == kind]
                estimate = statistics.median(done) if done else 0.0
                enough = len(self.passes) >= MIN_PASSES * len(modes)
                if enough and time.monotonic() - begun + estimate > self.seconds:
                    break
                if enough and time.monotonic() + 2 * estimate > self.deadline:
                    break
                self.passes.append(self._pass(len(self.passes), traced))
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.hashes = compare_repeats(self.passes)
        return self.summarize()

    def summarize(self):
        self.plain = plain = [p for p in self.passes if p["mode"] == "plain"]
        traced = [p for p in self.passes if p["mode"] == "traced"]
        self.attempted, self.failed, self.correct, self.failures = tally(self.passes)
        self.wall = [sum(rescaled_times(p).values()) for p in plain]
        self.raw_wall = [p["wall_s"] for p in plain]
        self.setup += [rescaled_import(p) for p in self.passes]
        self.raw_setup += [p["import_s"] for p in self.passes]
        self.e2e = {
            "wall_s": rescaled_wall(plain),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        self.layers = {}
        if traced:
            self.layers = {name: statistics.median(p["layers"][name] for p in traced)
                           for name in traced[0]["layers"]}
            self.layers["trace.overhead_frac"] = (
                rescaled_wall(traced) / self.e2e["wall_s"] - 1.0)
        return self

    def line(self):
        """The result object the last line of the output carries."""
        chosen = LAYER_METRICS if self.trace else E2E_METRICS
        values = self.layers if self.trace else self.e2e
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in chosen},
        }

    def report(self):
        kinds = "untraced and traced" if self.trace else "untraced"
        lines = [f"== {self.name}  seed {self.seed}  {len(self.passes)} {kinds} passes "
                 f"of {len(self.invocations)} invocations"]
        tail = tail_percentile(self.wall)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        notes = {
            "wall_s": f"per-invocation medians of {len(self.wall)} untraced passes at "
                      f"reference speed, summed; pass {tail_text}; unscaled: median "
                      f"{statistics.median(self.raw_wall):.4f} s, fastest per invocation "
                      f"summed {fastest_wall(self.plain):.4f} s",
            "setup_s": f"median of {len(self.setup)} fresh interpreters at reference speed; "
                       f"unscaled: median {statistics.median(self.raw_setup):.4f} s, "
                       f"fastest {min(self.raw_setup):.4f} s",
            "peak_rss_mb": f"median of {len(self.wall)} untraced passes",
        }
        for name, unit in E2E_METRICS:
            lines.append(f"{name:<34} {self.e2e[name]:<14.6g} {unit:<6} {notes[name]}")
        lines.append(f"{'failed_frac':<34} {self.failed / self.attempted:<14.6g} {'1':<6} "
                     f"{self.failed} failed of {self.attempted} attempted")
        for name, unit in LAYER_METRICS if self.trace else ():
            value = self.layers[name]
            shown = f"{value:.15g}" if unit in ("count", "bytes") else f"{value:.6g}"
            lines.append(f"{name:<34} {shown:<14} {unit}")
        seen = {}
        for k, inv, reason in self.failures:
            seen.setdefault((inv, reason), []).append(k)
        for (inv, reason), ks in seen.items():
            lines.append(f"failed in pass {','.join(map(str, ks))}: {inv}: {reason}")
        lines.append(f"correct: {self.correct}; results in {self.results_path().relative_to(ROOT)}")
        return "\n".join(lines)

    def results_path(self):
        tag = "-smoke" if self.smoke else ""
        return OUT / "results" / f"{self.name}-seed{self.seed}-trace{int(self.trace)}{tag}.json"

    def save(self, env):
        path = self.results_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "smoke": self.smoke, "environment": env,
            **self.line(),
            "failed_frac": self.failed / self.attempted,
            "end_to_end": self.e2e, "reference_calibration_s": REFERENCE_CALIBRATION_S,
            "reference_numpy_import_s": REFERENCE_NUMPY_IMPORT_S,
            "per_layer": self.layers,
            "samples": {"wall_s": self.wall, "setup_s": self.setup,
                        "unscaled_wall_s": self.raw_wall, "unscaled_setup_s": self.raw_setup,
                        "setup_numpy_import_s": [r["numpy_import_s"] for r in self.setup_runs]},
            "csv_sha256": self.hashes,
            "failures": [{"pass": k, "id": inv, "reason": r} for k, inv, r in self.failures],
            "invocations": self.invocations,
            "passes": [{"mode": p["mode"], "wall_s": p["wall_s"], "import_s": p["import_s"],
                        "numpy_import_s": p["numpy_import_s"], "calibration_s": p["calibration_s"],
                        "rss_mb": p["rss_mb"],
                        "seconds": {r["id"]: r["seconds"] for r in p["invocations"]}}
                       for p in self.passes],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to test the harness in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "splitflow" / "cli.py").is_file():
        print(f"bench: no program to measure at {SRC / 'splitflow'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    lines = {}
    for name in names:
        try:
            run = Run(name, args.seed, args.seconds, bool(args.trace), args.smoke).execute()
        except HarnessError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        run.save(env)
        print(run.report(), flush=True)
        lines[name] = run.line()
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
