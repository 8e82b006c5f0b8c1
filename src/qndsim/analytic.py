"""Closed-form readout observables: pointer-state amplitudes, the signal
amplitude and its optimal detuning, outcome probabilities and the
measurement-induced dephasing rate.

Everything here is a pure function of SystemParams; the master-equation
module provides the independent numerical check.  The closed forms run on
Python floats with math and cmath, and this module never imports numpy.
The two functions of time, alpha_of_t and outcome_probability, take one
time (a number back) or a list or tuple of times (a list back).
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .params import SystemParams

__all__ = [
    "pointer_state",
    "alpha_of_t",
    "signal_amplitude",
    "optimal_detuning",
    "outcome_probability",
    "photon_numbers",
    "gamma_m",
]


def _detuning(params: SystemParams, sigma_z: int) -> float:
    if sigma_z not in (1, -1):
        raise ValueError(f"sigma_z must be +1 or -1, got {sigma_z}")
    return params.delta_omega - params.g * sigma_z


def pointer_state(params: SystemParams, sigma_z: int) -> complex:
    """Steady resonator amplitude alpha = -if/(kappa/2 + i det) at the
    qubit-conditioned detuning det = delta_omega - g*sigma_z (sigma_z = +-1).

    |alpha|^2 is the photon number.  The phase, -atan2(det, kappa/2) - pi/2,
    is that of the steady drive response, which the master-equation
    conditional amplitude reaches in every sector; only phase differences
    enter the outcome probabilities.
    """
    return params.steady_amplitude(_detuning(params, sigma_z))


def _times(t) -> list:
    # one time, or a list or tuple of them, as floats; NaN fails like t < 0
    times = [float(tk) for tk in t] if isinstance(t, (list, tuple)) else [float(t)]
    if any(not tk >= 0.0 for tk in times):
        raise ValueError("t must be >= 0")
    return times


def alpha_of_t(params: SystemParams, sigma_z: int, t):
    """Conditional resonator amplitude alpha(t) = alpha [1 - e^(-(i det +
    kappa/2) t)] from vacuum, alpha = pointer_state(params, sigma_z); the
    vacuum-start solution of d<a>/dt = -if - (i det + kappa/2) <a>.

    One time gives a complex, a list or tuple of times a list.
    """
    det = _detuning(params, sigma_z)
    times = _times(t)
    alpha, rate = params.steady_amplitude(det), 1j * det + params.kappa / 2.0
    out = [alpha * (1.0 - cmath.exp(-rate * tk)) for tk in times]
    return out if isinstance(t, (list, tuple)) else out[0]


def signal_amplitude(params: SystemParams) -> complex:
    """Linearized signal-separation amplitude A = f(e^{2i phi_0} - e^{2i phi_1})/sqrt(2).

    phi_0, phi_1 are the pointer phases for sigma_z = +1, -1.  Only |A|
    matters for outcome probabilities (the measured quadrature is rotated
    to arg A).  The division by sqrt(2) is a product with its reciprocal,
    the way numpy divides a complex by a real, which keeps A bit-identical
    to that form.
    """
    phi0 = cmath.phase(pointer_state(params, +1))
    phi1 = cmath.phase(pointer_state(params, -1))
    return (params.f * (cmath.exp(2j * phi0) - cmath.exp(2j * phi1))
            * (1.0 / math.sqrt(2.0)))


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

    One time gives a float, a list or tuple of times a list.  |A| depends
    only on params and is computed once per call; entries at t = 0 are
    exactly 1/2.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if not abs(sz0) <= 1.0 + 1e-12:
        raise ValueError(f"|sz0| must be <= 1, got {sz0}")
    times = _times(t)
    if not (variance is None or variance > 0.0):
        raise ValueError(f"variance must be > 0, got {variance}")
    amp = float(abs(signal_amplitude(params)))
    sign = outcome * sz0
    probs = []
    for tk in times:
        if tk == 0.0:
            probs.append(0.5)
            continue
        var = params.s_ii * tk if variance is None else float(variance)
        if not var > 0.0:
            # only S_II * t can get here: a given variance is checked above
            raise ValueError(f"variance must be > 0, got {var}: s_ii * t = "
                             f"{params.s_ii} * {tk} underflows to 0")
        probs.append(0.5 * (1.0 + sign * math.erf(amp * tk / math.sqrt(2.0 * var))))
    return probs if isinstance(t, (list, tuple)) else probs[0]


def photon_numbers(params: SystemParams) -> tuple[float, float]:
    """The steady photon numbers (n_+, n_-) at detunings dw + g
    (sigma_z = -1) and dw - g (sigma_z = +1)."""
    return (params.photon_number(_detuning(params, -1)),
            params.photon_number(_detuning(params, +1)))


def gamma_m(params: SystemParams) -> float:
    """Measurement-induced dephasing rate (n_+ + n_-) kappa g^2 / (kappa^2/4 + g^2 + dw^2),
    n_+ and n_- from photon_numbers."""
    n_plus, n_minus = photon_numbers(params)
    return ((n_plus + n_minus) * params.kappa * params.g ** 2
            / (params.kappa ** 2 / 4.0 + params.g ** 2 + params.delta_omega ** 2))
