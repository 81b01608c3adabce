"""Boundary checks of potentials and energies.

A float64 vector of the right length passes a check as it is; every other
form of the same numbers is converted first, and must give the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import energies as en
from splitflow import potentials as pt
from splitflow.errors import InputError

_SPD3 = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.25], [0.0, 0.25, 1.5]])
_W3 = np.array([0.5, 1.0, 2.0])
_SMOOTH = ("__call__", "conjugate", "dual_rate", "grad", "hess")
_NONSMOOTH = ("__call__", "conjugate", "dual_rate")

# (name, object, methods); energy methods take (t, u), potential methods one vector
POTENTIALS = [
    ("quadratic-form", pt.QuadraticForm(_SPD3), _SMOOTH),
    ("power-norm", pt.PowerNorm(3.0, _W3), _SMOOTH),
    ("dual-quadratic", pt.AnisotropicDualQuadratic(_W3), _SMOOTH),
    ("one-hom-plus-quad", pt.OneHomPlusQuad(0.4, 1.5, _W3), _NONSMOOTH),
    ("block-indicator", pt.BlockIndicator(pt.PowerNorm(2.0, dim=2), [0, 2], 3),
     _NONSMOOTH),
    ("rescaled", pt.PowerNorm(3.0, _W3).rescaled(), _SMOOTH),
    ("inf-convolution", pt.InfConvolution(pt.PowerNorm(3.0, _W3), pt.QuadraticForm(_SPD3)),
     _SMOOTH),
]
ENERGIES = [
    ("quadratic-block", en.QuadraticBlockEnergy(
        A=_SPD3[:2, :2], B=[[0.3, -0.2]], G=[[1.0]],
        f=en.Load([0.1, -0.2], c1=[0.5, 0.0]), g=en.Load([0.3], amp=[0.2], omega=2.0)),
     ("eval", "grad")),
    ("max-norm", en.MaxNormEnergy(), ("eval", "grad")),
    ("allen-cahn", en.AllenCahn1DEnergy(3, load=en.Load([0.1, 0.0, -0.3], c1=[1.0, 0, 0])),
     ("eval", "grad", "hess")),
]
CASES = [(name, obj, meth, False) for name, obj, methods in POTENTIALS for meth in methods]
CASES += [(name, obj, meth, True) for name, obj, methods in ENERGIES for meth in methods]


def _call(obj, meth, timed, x):
    fn = getattr(obj, meth)
    return fn(0.25, x) if timed else fn(x)


def _outcome(obj, meth, timed, x):
    """The bits of a result, or the type of the exception raised instead."""
    try:
        out = _call(obj, meth, timed, x)
    except (InputError, NotImplementedError) as exc:
        return type(exc)
    return np.asarray(out, dtype=float).tobytes(), np.shape(out)


@pytest.mark.parametrize("name,obj,meth,timed", CASES,
                         ids=[f"{c[0]}-{c[2].strip('_')}" for c in CASES])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_every_input_form_gives_the_same_bits(name, obj, meth, timed, ints):
    dim = obj.dim
    values = ints[:dim]
    reference = _outcome(obj, meth, timed, np.array(values, dtype=np.float64))
    for form in (values, np.array(values), np.array(values, dtype=np.float32),
                 [float(v) for v in values]):
        assert _outcome(obj, meth, timed, form) == reference


@pytest.mark.parametrize("name,obj,meth,timed", CASES,
                         ids=[f"{c[0]}-{c[2].strip('_')}" for c in CASES])
def test_wrong_shapes_still_raise(name, obj, meth, timed):
    dim = obj.dim
    for bad in (np.ones(dim + 1), np.ones(dim - 1), np.ones((2, dim + 1)), [1.0] * (dim + 1)):
        with pytest.raises(InputError):
            _call(obj, meth, timed, bad)
