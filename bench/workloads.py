"""Workload definitions: the CLI invocations of one pass, built from a seed.

Seed 0 uses each preset's own initial state, so the paper anchors hold
exactly.  Any other seed draws an initial state from the model's admissible
set and passes it to the program as ``--override u0=...`` (``y0=...`` for
the visco-plasticity model).  The same seed always gives the same argv.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Sizes per workload.  They are smaller than the sizes first timed
# (ce-exact N=1024, ac-newton N=128 with 4000 samples, vp-block N=256,
# ac-study 8,16,32,64) so that one invocation takes 0.1-0.8 s and a 25 s
# run repeats each one 9 to 45 times.  The calibrations timed just before
# and after an invocation then describe the core speed during it; a shared
# core changes speed every second or so (see run.rescaled_times).
# ac-newton keeps N=64, where the effective p=3 solve still fails (it fails
# for every N >= 48 tried).  ``smoke`` shrinks every solve so that the
# harness itself can be tested in seconds.
SIZES = {
    "full": {
        "ce_N": 128,
        "ac_N": 64,
        "ac_samples": 1500,
        "vp_N": 64,
        "study": "4,8,16",
    },
    "smoke": {
        "ce_N": 16,
        "ac_N": 8,
        "ac_samples": 200,
        "vp_N": 8,
        "study": "2,4",
    },
}

AC_M = 16  # interior nodes of the packaged allen-cahn-1d mesh
VP_M = 16
# Amplitude ranges of the sine modes of a drawn initial state.  They stay
# near the preset's own state (0.5 sin for allen-cahn-1d, 0.3 sin for the
# displacement of visco-plasticity-1d): the Newton and prox iteration counts
# depend on the state, and a wider draw spreads the work of a pass by
# about 20% from seed to seed.
AC_MODES = [(0.48, 0.52), (-0.02, 0.02), (-0.02, 0.02)]
VP_MODES = [(0.28, 0.32), (-0.02, 0.02)]


def _override(key, values):
    return ["--override", f"{key}={json.dumps([float(v) for v in values])}"]


def _sine_modes(rng, m, amplitudes):
    """A smooth Dirichlet profile: random multiples of the first sine modes."""
    x = np.linspace(0.0, 1.0, m + 2)[1:-1]
    return sum(
        rng.uniform(lo, hi) * np.sin((k + 1) * math.pi * x)
        for k, (lo, hi) in enumerate(amplitudes)
    )


def _counterexample_u0(rng):
    """u1 >= u2 > 0 with both closed-form arrival times inside [0, 1].

    With the preset's dual weights the first regime lasts d = (u1 - u2)/4;
    the effective flow then needs u2/2 more and the split limit u2/1.5, so
    d <= 0.25 and u2 <= 1.05 keep the later arrival below 0.95.
    """
    u2 = rng.uniform(0.95, 1.05)
    d = rng.uniform(0.22, 0.25)
    return [u2 + 4.0 * d, u2]


def _ce_exact(seed, size, rng):
    u0 = None if seed == 0 else _counterexample_u0(rng)
    extra = [] if u0 is None else _override("u0", u0)
    N = size["ce_N"]
    anchors = {
        # the effective flow is exact: the closed form to rounding
        "effective": {"kind": "effective", "tol": 1e-12, "paper": 0.75},
        # the split scheme converges to the split limit at rate 1/N
        "split": {"kind": "split-limit", "tol": 1.0 / N, "paper": 11.0 / 12.0},
    }
    invocations = []
    for scheme in ("split", "amm", "effective"):
        inv = {
            "id": f"run-counterexample-{scheme}",
            "argv": ["run", "--model", "counterexample", "--scheme", scheme,
                     "--N", str(N)] + extra,
        }
        if scheme in anchors:
            inv["anchor"] = dict(anchors[scheme], u0=u0)
            if seed != 0:
                del inv["anchor"]["paper"]
        invocations.append(inv)
    return invocations


def _ac_newton(seed, size, rng):
    """Every invocation draws its state from the seed, except ``effective``.

    The effective p=3 solve keeps the preset's state at every seed, where it
    fails at every N >= 48.  From a drawn state it failed for about 4 seeds
    in 5, so the failed share and the pass time depended on the seed.
    """
    model = ["--model", "allen-cahn-1d", "--override", "p=3"]
    drawn = [] if seed == 0 else _override("u0", _sine_modes(rng, AC_M, AC_MODES))
    invocations = [
        {
            "id": f"run-allen-cahn-p3-{scheme}",
            "argv": ["run"] + model + ([] if scheme == "effective" else drawn)
                    + ["--scheme", scheme, "--N", str(size["ac_N"])],
        }
        for scheme in ("split", "amm", "effective")
    ]
    invocations.append({
        "id": "probe-qye-allen-cahn-p3",
        "argv": ["probe-qye"] + model + drawn + ["--samples", str(size["ac_samples"]),
                                                 "--seed", str(seed)],
    })
    return invocations


def _vp_block(seed, size, rng):
    model = ["--model", "visco-plasticity-1d", "--override", f"m={VP_M}"]
    if seed != 0:
        model += _override("y0", _sine_modes(rng, VP_M, VP_MODES))
    return [
        {
            "id": f"run-visco-plasticity-{scheme}",
            "argv": ["run"] + model + ["--scheme", scheme, "--N", str(size["vp_N"])],
        }
        for scheme in ("block-split", "block-amm", "effective")
    ]


def _ac_study(seed, size, rng):
    model = ["--model", "allen-cahn-1d"]
    if seed != 0:
        model += _override("u0", _sine_modes(rng, AC_M, AC_MODES))
    return [{
        "id": "study-allen-cahn-amm",
        "argv": ["study"] + model + ["--scheme", "amm", "--study", size["study"]],
    }]


WORKLOADS = {
    "ce-exact": _ce_exact,
    "ac-newton": _ac_newton,
    "vp-block": _vp_block,
    "ac-study": _ac_study,
}


def build(name, seed, smoke=False):
    """The invocations of one pass of workload ``name`` for ``seed``."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[name](seed, SIZES["smoke" if smoke else "full"], rng)
