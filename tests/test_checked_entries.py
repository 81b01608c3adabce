"""Each checked entry is defined once, in its base class.

``Potential`` owns ``__call__``, ``conjugate``, ``dual_rate``, ``grad`` and
``hess``, and ``EnergySpec`` owns ``eval``, ``power`` and ``grad``: each
checks its input and calls a core.  A kind that stated its own entry would
check its input a second time, or not at all.
"""

import inspect

from splitflow import energies, potentials, solvers
from splitflow.energies import EnergySpec, MaxNormEnergy
from splitflow.potentials import Potential

POTENTIAL_ENTRIES = ("__call__", "conjugate", "dual_rate", "grad", "hess")
ENERGY_ENTRIES = ("eval", "power", "grad")
# the one family whose gradient reads its set-valued subdifferential
ENERGY_EXCEPTIONS = {(MaxNormEnergy, "grad")}


def _kinds(module, base):
    """The subclasses of ``base`` that ``module`` defines."""
    return [obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, base) and obj is not base
            and obj.__module__ == module.__name__]


def test_potential_kinds_state_only_cores():
    kinds = _kinds(potentials, Potential)
    assert len(kinds) == 6
    stated = [(kind.__name__, name) for kind in kinds
              for name in POTENTIAL_ENTRIES if name in vars(kind)]
    assert stated == []


def test_energy_families_state_only_cores():
    families = _kinds(energies, EnergySpec) + _kinds(solvers, EnergySpec)
    assert {kind.__name__ for kind in families} >= {
        "QuadraticBlockEnergy", "MaxNormEnergy", "AllenCahn1DEnergy", "_FrozenBlockEnergy"}
    stated = [(kind.__name__, name) for kind in families for name in ENERGY_ENTRIES
              if name in vars(kind) and (kind, name) not in ENERGY_EXCEPTIONS]
    assert stated == []

