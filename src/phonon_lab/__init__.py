"""phonon-lab: modeling chain for a qubit-controlled SAW resonator.

Subpackages cover the four stages of the chain:

* :mod:`phonon_lab.saw` -- coupling-of-modes electromechanical model of the
  resonator and the equivalent-circuit fit;
* :mod:`phonon_lab.circuit` -- lumped-element qubit/coupler network,
  coupling strength, and loss spectrum;
* :mod:`phonon_lab.lindblad` -- master-equation dynamics and pulse
  sequences;
* :mod:`phonon_lab.tomography` -- phonon-number fits, Wigner values, and
  density-matrix reconstruction;
* :mod:`phonon_lab.cli` -- scenario runner (``phonon-lab`` console script).
"""

__version__ = "0.1.0"

from .saw import AdmittanceSpectrum, BvdParams, SawModelParams
from .circuit import CircuitParams
from .lindblad import PulseSequence, SystemParams
from .tomography import PopulationFit, ReconstructedState, TomographyDataset

__all__ = [
    "__version__",
    "AdmittanceSpectrum",
    "BvdParams",
    "SawModelParams",
    "CircuitParams",
    "PulseSequence",
    "SystemParams",
    "PopulationFit",
    "ReconstructedState",
    "TomographyDataset",
]
