"""Closed-form readout observables: pointer-state amplitudes, the signal
amplitude and its optimal detuning, outcome probabilities and the
measurement-induced dephasing rate.

Everything here is a pure function of SystemParams; the master-equation
module provides the independent numerical check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SystemParams

__all__ = [
    "PointerState",
    "pointer_state",
    "alpha_of_t",
    "signal_amplitude",
    "optimal_detuning",
    "outcome_probability",
    "gamma_m",
]


@dataclass(frozen=True)
class PointerState:
    """Resonator response conditioned on one qubit sigma_z eigenvalue.

    detuning is the qubit-shifted value delta_omega - g*sigma_z; the
    trajectory alpha_i(t) spirals from 0 to the steady point with
    magnitude amplitude and phase `phase`.
    """

    sigma_z: int
    amplitude: float
    phase: float
    detuning: float

    def steady_value(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase)


def pointer_state(params: SystemParams, sigma_z: int) -> PointerState:
    """Conditional amplitude/phase for the given qubit eigenvalue (+1/-1).

    phase = arg(-if / (kappa/2 + i det)) = -atan2(det, kappa/2) - pi/2, the
    argument of the steady drive response, so steady_value() and alpha_of_t()
    track the master-equation conditional amplitude in every sector.  (The
    opposite atan2 sign describes the same circle traversed in the conjugate
    frame; only phase differences enter the outcome probabilities.)  At
    f = 0 the amplitude is 0 and the phase carries no information.
    """
    if sigma_z not in (1, -1):
        raise ValueError(f"sigma_z must be +1 or -1, got {sigma_z}")
    det = params.delta_omega - params.g * sigma_z
    alpha = params.steady_amplitude(det)
    return PointerState(sigma_z=sigma_z, amplitude=abs(alpha),
                        phase=cmath.phase(alpha), detuning=det)


def alpha_of_t(ps: PointerState, kappa: float, t):
    """Conditional resonator amplitude alpha_i(t); accepts scalar or array t.

    alpha_i(t) = A_i e^(i phi_i) [1 - e^(-i delta_i t - kappa t / 2)],
    starting from vacuum and converging to the steady point.  Equals the
    vacuum-start solution of d<a>/dt = -if - (i delta_i + kappa/2) <a>, the
    conditional master-equation amplitude.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise ValueError("t must be >= 0")
    decay = np.exp(-(1j * ps.detuning + kappa / 2.0) * t)
    out = ps.steady_value() * (1.0 - decay)
    return complex(out) if out.ndim == 0 else out


def signal_amplitude(params: SystemParams) -> complex:
    """Linearized signal-separation amplitude A = f(e^{2i phi_0} - e^{2i phi_1})/sqrt(2).

    phi_0, phi_1 are the pointer phases for sigma_z = +1, -1.  Only |A|
    matters for outcome probabilities (the measured quadrature is rotated
    to arg A).
    """
    phi0 = pointer_state(params, +1).phase
    phi1 = pointer_state(params, -1).phase
    return params.f * (np.exp(2j * phi0) - np.exp(2j * phi1)) / math.sqrt(2.0)


def optimal_detuning(params: SystemParams) -> float:
    """The detuning delta_omega* >= 0 at which |signal_amplitude| and gamma_m
    both peak: sqrt(g^2 - kappa^2/4) for |g| > kappa/2, else 0.

    For |g| > kappa/2 the peaks sit at +-delta_omega*, where the pointer
    phases differ by pi/2, |A| = sqrt(2) f and gamma_m = 2 f^2/kappa
    whatever g; below, the single peak is at zero detuning.  delta_omega*
    tends to g as kappa -> 0: the rate is largest where the detuning
    equals the coupling strength.
    """
    return math.sqrt(max(params.g ** 2 - params.kappa ** 2 / 4.0, 0.0))


def outcome_probability(params: SystemParams, sz0: float, t,
                        outcome: int, variance: Optional[float] = None):
    """P(measurement result = outcome) after integrating the signal for time t.

    P = (1 + outcome * sz0 * erf(|A| t / sqrt(2 var))) / 2 with
    var = S_II * t by default.  Passing variance = 0.5 replaces the
    integrated detector noise by the zero-point quadrature variance.
    sz0 is the initial qubit polarization <sigma_z>(0).

    Accepts scalar or array t: a scalar gives a float, an array an array
    of the same shape.  |A| depends only on params and is computed once
    per call; entries at t = 0 are exactly 1/2.  numpy has no erf, so the
    formula runs per element on Python floats, which also keeps a scalar
    call free of numpy's per-operation overhead.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if not abs(sz0) <= 1.0 + 1e-12:
        raise ValueError(f"|sz0| must be <= 1, got {sz0}")
    t = np.asarray(t, dtype=float)
    times = t.ravel().tolist()
    if any(not tk >= 0.0 for tk in times):
        raise ValueError("t must be >= 0")
    amp = float(abs(signal_amplitude(params)))
    sign = outcome * sz0
    probs = []
    for tk in times:
        if tk == 0.0:
            probs.append(0.5)
            continue
        var = params.s_ii * tk if variance is None else float(variance)
        if not var > 0.0:
            raise ValueError(f"variance must be > 0, got {var}")
        probs.append(0.5 * (1.0 + sign * math.erf(amp * tk / math.sqrt(2.0 * var))))
    return probs[0] if t.ndim == 0 else np.array(probs).reshape(t.shape)


def gamma_m(params: SystemParams) -> float:
    """Measurement-induced dephasing rate (n_+ + n_-) kappa g^2 / (kappa^2/4 + g^2 + dw^2).

    n_+ and n_- are the steady photon numbers at detunings dw + g
    (sigma_z = -1) and dw - g (sigma_z = +1).
    """
    n_plus = pointer_state(params, -1).amplitude ** 2
    n_minus = pointer_state(params, +1).amplitude ** 2
    return ((n_plus + n_minus) * params.kappa * params.g ** 2
            / (params.kappa ** 2 / 4.0 + params.g ** 2 + params.delta_omega ** 2))
