"""Dispersive qubit readout through a driven, damped resonator.

Closed-form pointer-state observables (analytic), a truncated-Fock-space
master-equation oracle (lindblad), second-order detector back-action rates
(backaction), shared linear algebra and propagators (core), and a
deterministic CSV command line (cli).
"""

from .core import (DensityMatrix, FockSpace, NumericsError, SystemParams,
                   annihilation, expectation, expm_action, integrate,
                   is_hermitian, number_operator, partial_trace,
                   qubit_operator, tensor)
from .analytic import (OverlapDecay, PointerState, SteadyAmplitudes,
                       alpha_of_t, conditional_signal_pdf, gamma_m,
                       gamma_m_from_amplitudes, outcome_probability,
                       overlap_decay, pointer_state, signal_amplitude,
                       signal_separation, steady_amplitudes,
                       weak_coupling_gamma_m)
from .lindblad import (EvolutionRecord, Liouvillian, RepeatabilityStats,
                       build_liouvillian, coherence_solution,
                       conditional_amplitude, evolve, repeatability_experiment)
from .backaction import (NoiseSpectrum, QubitEigenbasis, RateSet,
                         ReducedRecord, eigenbasis, evolve_reduced,
                         noise_spectrum, number_correlator, rates,
                         redfield_tensor, spectral_density)

__version__ = "0.1.0"
