"""The model's parameters, the qubit's energy eigenbasis and the error an
evolution raises: the plain-number types every module shares.

This module needs nothing beyond the standard library, so the closed-form
subcommands (fig2, fig3, analytic) run without importing numpy.  core
re-exports every name here.

Units: hbar = 1 and every frequency, rate and coupling is an angular
frequency in 1/ns (figure-caption values quoted in GHz are used verbatim,
no 2*pi factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["NumericsError", "SystemParams", "QubitEigenbasis", "eigenbasis"]


class NumericsError(RuntimeError):
    """An evolution produced a non-finite or inconsistent state."""


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the driven qubit-resonator readout model.

    epsilon      qubit energy bias
    delta        qubit tunneling amplitude (off-diagonal in the flux basis)
    g            qubit-state-dependent resonator frequency shift
    kappa        resonator energy decay rate (> 0)
    gamma1       qubit relaxation rate
    gamma2       qubit pure-dephasing rate
    f            drive amplitude (>= 0)
    delta_omega  resonator-drive detuning at the operating point
    s_ii         white current-noise spectral density of the readout line

    A non-finite field raises ValueError naming it, before any range check.
    """

    epsilon: float = 10.0
    delta: float = 0.0
    g: float = 0.3
    kappa: float = 0.1
    gamma1: float = 0.0
    gamma2: float = 0.0
    f: float = 1.0
    delta_omega: float = 0.0
    s_ii: float = 20.0

    def __post_init__(self) -> None:
        for fld in fields(self):
            value = getattr(self, fld.name)
            if not math.isfinite(value):
                raise ValueError(f"{fld.name} must be finite, got {value}")
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if not self.s_ii > 0.0:
            raise ValueError(f"s_ii must be > 0, got {self.s_ii}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.f < 0.0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        if self.gamma1 < 0.0:
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1}")
        if self.gamma2 < 0.0:
            raise ValueError(f"gamma2 must be >= 0, got {self.gamma2}")

    def steady_amplitude(self, det: float) -> complex:
        """Steady resonator amplitude -if/(kappa/2 + i det) at detuning det."""
        return -1j * self.f / (self.kappa / 2.0 + 1j * det)

    def photon_number(self, det: float) -> float:
        """|steady_amplitude(det)|^2; ValueError where that overflows a
        float, which it does exactly when the amplitude reaches 2^512."""
        r = abs(self.steady_amplitude(det))
        if not r < 2.0 ** 512:
            raise ValueError(f"steady photon number overflows a float at "
                             f"f = {self.f:g}")
        return r ** 2


@dataclass(frozen=True)
class QubitEigenbasis:
    """Energy eigenbasis of (epsilon/2) sigma_z + (delta/2) sigma_x: the
    mixing angle eta = atan2(delta, epsilon) and the splitting E."""

    eta: float
    splitting: float


def eigenbasis(epsilon: float, delta: float) -> QubitEigenbasis:
    """Mixing angle and splitting; errors at epsilon = delta = 0."""
    if epsilon == 0.0 and delta == 0.0:
        raise ValueError("eigenbasis undefined for epsilon = delta = 0")
    return QubitEigenbasis(eta=math.atan2(delta, epsilon),
                           splitting=math.hypot(epsilon, delta))
