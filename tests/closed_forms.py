"""Closed-form references that more than one test file compares qndsim
against.  None of them is used by the package itself.

Conventions are the package's: the qubit index is the slowest axis of the
joint state, qubit index 0 is the sigma_z = +1 state, and the +/- labels of
the pointer amplitudes follow the detuning sign, alpha_+ at
delta_omega + g (sigma_z = -1) and alpha_- at delta_omega - g.
"""

import numpy as np

from qndsim.core import DensityMatrix, SystemParams, annihilation


def partial_trace(rho: DensityMatrix, keep: str) -> np.ndarray:
    """Trace out one subsystem; keep is 'qubit' or 'resonator'."""
    dim = rho.space.dim
    blocks = rho.matrix.reshape(2, dim, 2, dim)
    if keep == "qubit":
        return np.einsum("imjm->ij", blocks)
    if keep == "resonator":
        return np.einsum("imin->mn", blocks)
    raise ValueError(f"keep must be 'qubit' or 'resonator', got {keep!r}")


def expectation(rho: DensityMatrix, op: np.ndarray) -> complex:
    """tr(op rho).  For Hermitian op the imaginary part is diagnostic only."""
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {op.shape} does not match state "
                         f"shape {rho.matrix.shape}")
    return complex(np.einsum("ij,ji->", op, rho.matrix))


def conditional_amplitude(state: DensityMatrix, qubit_index: int) -> complex:
    """<a> within one qubit branch: tr(a rho_kk) / tr(rho_kk)."""
    if qubit_index not in (0, 1):
        raise ValueError(f"qubit_index must be 0 or 1, got {qubit_index}")
    dim = state.space.dim
    lo = qubit_index * dim
    block = state.matrix[lo:lo + dim, lo:lo + dim]
    weight = block.trace().real
    if weight <= 1e-14:
        raise ValueError(f"qubit branch {qubit_index} has no population")
    a = annihilation(state.space)
    return complex(np.einsum("ij,ji->", a, block) / weight)


def _ramp(lam: complex, t: float) -> complex:
    # (1 - e^{-lam t}) / lam, with expm1 keeping small |lam t| accurate
    return complex(-np.expm1(-lam * t) / lam)


def _pointer_integral(params: SystemParams, t: float) -> complex:
    """Integral_0^t alpha_+(s) alpha_-(s)* ds for the vacuum-start pointers.

    alpha_+-(s) = (-if/lam_+-)(1 - e^{-lam_+- s}) with
    lam_+- = kappa/2 + i(delta_omega +- g), so the integrand is a sum of
    four exponentials and integrates in closed form:
    f^2/(lam_+ lam_-*) [t - ramp(lam_+) - ramp(lam_-*) + ramp(kappa + 2ig)].
    """
    lam_p = params.kappa / 2.0 + 1j * (params.delta_omega + params.g)
    lam_mc = params.kappa / 2.0 - 1j * (params.delta_omega - params.g)
    return params.f ** 2 / (lam_p * lam_mc) * (
        t - _ramp(lam_p, t) - _ramp(lam_mc, t) + _ramp(lam_p + lam_mc, t))


def coherence_solution(params: SystemParams, t: float, a10_0: complex) -> complex:
    """Closed-form qubit coherence a_10(t) for delta = 0, gamma1 = 0.

    a_10(t) = a_10(0) exp[-i(epsilon - i gamma2) t
                          - 2ig Integral_0^t alpha_+(s) alpha_-(s)* ds]
    with the vacuum-start pointer trajectories.  |a_10(t)| equals twice the
    master-equation coherence magnitude |rho_01(t)| for the |+> initial
    state; the phase depends on the sigma_z labeling convention.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return complex(a10_0)
    integral = _pointer_integral(params, float(t))
    exponent = -1j * (params.epsilon - 1j * params.gamma2) * t \
        - 2j * params.g * integral
    return complex(a10_0 * np.exp(exponent))
