"""Dispersive qubit readout through a driven, damped resonator.

Closed-form pointer-state observables (analytic), a truncated-Fock-space
master-equation oracle (lindblad), second-order detector back-action rates
(backaction), shared linear algebra and propagators (core), and a
deterministic CSV command line (cli).
"""

from .core import (DensityMatrix, FockSpace, NumericsError, SystemParams,
                   annihilation, expm_action, integrate, number_operator,
                   qubit_operator, tensor)
from .analytic import (PointerState, alpha_of_t, gamma_m, outcome_probability,
                       pointer_state, signal_amplitude)
from .lindblad import (EvolutionRecord, Liouvillian, RepeatabilityStats,
                       build_liouvillian, evolve, repeatability_experiment)
from .backaction import (QubitEigenbasis, RateSet, ReducedRecord, eigenbasis,
                         evolve_reduced, rates, spectral_density)

__version__ = "0.1.0"
