"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces every public function of the library's modules
with a wrapper that records a span (name, start, end, parent, invocation),
and wraps the hot methods of the potential, energy and curve classes with
plain counters.  Modules that import a function by name (``cli`` and
``diagnostics`` do) get the wrapper on their own attribute too.  Spans stay
in memory; ``layer_metrics`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "models", "partitions", "solvers", "diagnostics", "potentials",
          "energies")

# scheme entry points of ``solvers`` and the metric each one's time goes to
SCHEMES = {
    "split_step_solve": "split",
    "amm_solve": "amm",
    "block_solve": "block",
    "effective_solve": "effective",
}

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("diagnostics.audit_s", "s"),
    ("diagnostics.audit.self_s", "s"),
    ("diagnostics.rate_term_s", "s"),
    ("diagnostics.slope_term_s", "s"),
    ("diagnostics.remainder_term_s", "s"),
    ("diagnostics.study.self_s", "s"),
    ("solvers.split_s", "s"),
    ("solvers.amm_s", "s"),
    ("solvers.block_s", "s"),
    ("solvers.effective_s", "s"),
    ("solvers.prox_solves", "count"),
    ("solvers.inner_iterations", "count"),
    ("solvers.segments", "count"),
    ("solvers.cells", "count"),
    ("potentials.evals", "count"),
    ("potentials.decompose_calls", "count"),
    ("potentials.decompose_s", "s"),
    ("potentials.qye_probe_s", "s"),
    ("potentials.quadratic_matrix_calls", "count"),
    ("energies.evals", "count"),
    ("partitions.to_csv_s", "s"),
    ("partitions.csv_bytes", "bytes"),
    ("partitions.at_calls", "count"),
    ("partitions.derivative_calls", "count"),
    ("partitions.repetition_calls", "count"),
    ("models.make_model_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "1"),
)

# methods wrapped with counters only: a span on each would cost more than the
# work they do
COUNTED_METHODS = (
    ("potentials", "Potential", ("__call__", "conjugate"), "potentials.evals"),
    ("potentials", "Potential", ("quadratic_matrix",), "potentials.quadratic_matrix_calls"),
    ("energies", "EnergySpec", ("eval", "grad", "hess", "power"), "energies.evals"),
    ("partitions", "SampledCurve", ("at",), "partitions.at_calls"),
    ("partitions", "SampledCurve", ("derivative",), "partitions.derivative_calls"),
)
SOLVER_COUNTS = ("solvers.prox_solves", "solvers.inner_iterations", "solvers.segments",
                 "solvers.cells")
CSV_SPAN = "partitions.SampledCurve.to_csv"


def _scheme(name):
    """The scheme entry point a span name stands for, or None."""
    layer, _, fn = name.partition(".")
    return fn if layer == "solvers" and fn in SCHEMES else None


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Overlapping children are counted
    once, and a child is clipped to its parent's interval.
    """
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        pieces = sorted(
            (max(spans[c][0], start), min(spans[c][1], end)) for c in children[i]
        )
        covered, reach = 0.0, start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


class Tracer:
    """In-memory spans and counters for one worker process."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent, invocation]
        self.counts = {key: 0 for _, _, _, key in COUNTED_METHODS}
        self.counts.update(dict.fromkeys(SOLVER_COUNTS, 0))
        self.csv_bytes = 0
        self.invocation = None
        self._stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        self.names.append(name)
        name_id = len(self.names) - 1
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name_id, 0.0, 0.0, stack[-1] if stack else -1,
                          self.invocation])
            stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[i][1], spans[i][2] = start, end
            if after is not None:
                after(i, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_scheme(self, i, args, kwargs, out):
        """Count the work of an outermost scheme call from its ``stats``."""
        parent = self.spans[i][3]
        while parent >= 0:
            if _scheme(self.names[self.spans[parent][0]]):
                return  # block_solve delegates; count its result once
            parent = self.spans[parent][3]
        iters = out.stats.get("inner_iterations", [])
        self.counts["solvers.prox_solves"] += len(iters)
        self.counts["solvers.inner_iterations"] += int(sum(iters))
        self.counts["solvers.segments"] += len(out.segments or ())
        self.counts["solvers.cells"] += out.grid.n_cells

    def _after_csv(self, i, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[1]
        self.csv_bytes += os.path.getsize(path)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the library in place; ``uninstall`` restores it."""
        modules = {layer: importlib.import_module(f"splitflow.{layer}") for layer in LAYERS}
        package = [m for name, m in sys.modules.items()
                   if name == "splitflow" or name.startswith("splitflow.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                after = self._after_scheme if _scheme(name) else None
                wrapper = self._span(name, fn, after)
                for importer in package:
                    for alias, value in list(vars(importer).items()):
                        if value is fn:
                            self._patch(importer, alias, wrapper)
        for layer, base, methods, key in COUNTED_METHODS:
            for cls in _subclasses(getattr(modules[layer], base)):
                for meth in methods:
                    if meth in vars(cls):
                        self._patch(cls, meth, self._count(key, vars(cls)[meth]))
        curve = modules["partitions"].SampledCurve
        self._patch(curve, "to_csv", self._span(CSV_SPAN, curve.to_csv, self._after_csv))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric but ``trace.overhead_frac`` (a ratio of runs)."""
        names = [self.names[s[0]] for s in self.spans]
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        scheme_s = dict.fromkeys(SCHEMES.values(), 0.0)
        for i, (name, span) in enumerate(zip(names, self.spans)):
            total[name] += span[2] - span[1]
            self_s[name] += own[i]
            calls[name] += 1
            outer = _scheme(name)
            if outer:
                # nested scheme calls (block_solve -> amm_solve) count as the outer one
                parent = span[3]
                while parent >= 0:
                    outer = _scheme(names[parent]) or outer
                    parent = self.spans[parent][3]
                scheme_s[SCHEMES[outer]] += own[i]
        return {
            "diagnostics.audit_s": total["diagnostics.edb_audit"],
            "diagnostics.audit.self_s": self_s["diagnostics.edb_audit"],
            "diagnostics.rate_term_s": self_s["diagnostics.rate_term"],
            "diagnostics.slope_term_s": self_s["diagnostics.slope_term"],
            "diagnostics.remainder_term_s": self_s["diagnostics.remainder_term"],
            "diagnostics.study.self_s": self_s["diagnostics.convergence_study"],
            **{f"solvers.{scheme}_s": t for scheme, t in scheme_s.items()},
            "potentials.decompose_calls": calls["potentials.inf_conv_decompose"],
            "potentials.decompose_s": self_s["potentials.inf_conv_decompose"],
            "potentials.qye_probe_s": self_s["potentials.qye_probe"],
            "partitions.to_csv_s": self_s[CSV_SPAN],
            "partitions.csv_bytes": self.csv_bytes,
            "partitions.repetition_calls": calls["partitions.repetition_apply"],
            "models.make_model_s": self_s["models.make_model"],
            "cli.self_s": sum(t for name, t in self_s.items() if name.startswith("cli.")),
            **self.counts,
        }

    def dump(self, path):
        """Write the spans as gzipped JSON: a name table and one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "invocation"],
                       "names": self.names, "spans": self.spans}, fh)
