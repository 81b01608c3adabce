"""Potentials, loads, partitions, systems and their records reject assigning
and deleting attributes once built; methods of their classes can still be
replaced."""

import numpy as np
import pytest

from splitflow import energies as en
from splitflow import partitions as pa
from splitflow import potentials as pt
from splitflow import solvers as sv


def _system():
    return sv.GradientSystem(en.QuadraticBlockEnergy(np.eye(2)), pt.QuadraticForm(np.eye(2)),
                             pt.PowerNorm(3.0, dim=2))


# (an instance, one of its attributes) per class that rejects assignment
FROZEN = {
    "QuadraticForm": (lambda: pt.QuadraticForm(np.eye(2)), "V"),
    "PowerNorm": (lambda: pt.PowerNorm(3.0, dim=2), "p"),
    "AnisotropicDualQuadratic": (lambda: pt.AnisotropicDualQuadratic([1.0, 2.0]),
                                 "dual_weights"),
    "OneHomPlusQuad": (lambda: pt.OneHomPlusQuad(0.5, 1.0, dim=2), "sigma"),
    "BlockIndicator": (lambda: pt.BlockIndicator(pt.QuadraticForm(np.eye(1)), [0], 2),
                       "active"),
    "InfConvolution": (lambda: pt.InfConvolution(pt.QuadraticForm(np.eye(2)),
                                                 pt.PowerNorm(3.0, dim=2)), "left"),
    "Decomposition": (lambda: pt.Decomposition(np.zeros(2), np.zeros(2), 0.0), "gap"),
    "QyeFit": (lambda: pt.QyeFit(1.0, 0.0, (np.ones(2), np.ones(2))), "c_est"),
    "Load": (lambda: en.Load([1.0, 2.0]), "omega"),
    "SubdiffSet": (lambda: en.SubdiffSet.singleton([1.0, 0.0]), "kind"),
    "DoubleWell": (lambda: en.DoubleWell(), "scale"),
    "Partition": (lambda: pa.Partition([0.0, 0.5, 1.0]), "taus"),
    "GradientSystem": (_system, "block_layout"),
    "SegmentArrays": (lambda: sv.SegmentArrays(*(np.zeros(1) for _ in range(6))), "t0"),
}


@pytest.mark.parametrize("kind", FROZEN)
def test_assigning_or_deleting_an_attribute_raises(kind):
    make, name = FROZEN[kind]
    obj = make()
    value = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unheard_of = 0
    assert getattr(obj, name) is value and not hasattr(obj, "unheard_of")


def test_a_method_of_a_frozen_class_can_be_replaced(monkeypatch):
    R = pt.PowerNorm(3.0, dim=2)
    monkeypatch.setattr(pt.PowerNorm, "_eval", lambda self, v: -1.0)
    assert R(np.ones(2)) == -1.0
