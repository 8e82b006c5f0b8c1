"""Dispersive qubit readout through a driven, damped resonator.

Closed-form pointer-state observables (analytic), a truncated-Fock-space
master-equation oracle (lindblad), second-order detector back-action rates
(backaction), shared linear algebra and propagators (core), the
parameter types they share (params) and a deterministic CSV command line
(cli).  Import names from those modules; the package root loads none of
them, so `import qndsim.cli` does not load numpy.
"""

__version__ = "0.1.0"
