"""Detector back-action on the qubit through the photon-number noise.

The qubit is diagonalized to its energy eigenbasis (mixing angle eta,
splitting E); the resonator occupation couples through
sigma_n = cos(eta) sigma_z + sin(eta) sigma_x, and second-order transition
and dephasing rates follow from the Lorentzian number-noise spectrum.

Basis order everywhere in this module: index 0 = ground |down>,
index 1 = excited |up>, so populations[..., 1] relaxes toward
gamma_up / (gamma_up + gamma_down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# QubitEigenbasis and eigenbasis live in params; core re-exports them,
# and so does this module, because bench/reduced_job.py reads them here
from .core import (NumericsError, QubitEigenbasis, SystemParams, _check_grid,
                   _eigenvalue_below, _state_errors, eigenbasis, integrate)

__all__ = [
    "QubitEigenbasis",
    "RateSet",
    "ReducedRecord",
    "eigenbasis",
    "spectral_density",
    "rates",
    "evolve_reduced",
]


@dataclass(frozen=True)
class RateSet:
    """Second-order back-action rates and the effective temperature.

    gamma_phi = (gamma_up + gamma_down)/2 + gamma_phi_pure by construction;
    t_eff solves gamma_up/gamma_down = exp(-splitting/t_eff), +inf when the
    ratio is 1 and negative under population inversion.
    """

    gamma_up: float
    gamma_down: float
    gamma_phi: float
    gamma_phi_pure: float
    t_eff: float


@dataclass(frozen=True, eq=False)
class ReducedRecord:
    """Interaction-picture reduced qubit evolution (energy basis)."""

    t_grid: np.ndarray
    matrices: np.ndarray      # (n, 2, 2) complex
    populations: np.ndarray   # (n, 2) real, [ground, excited]
    coherence01: np.ndarray   # |rho_01|
    sigma_z: np.ndarray       # excited minus ground population


def spectral_density(params: SystemParams, omega: float) -> float:
    """Lorentzian photon-number noise spectrum, peaked at omega = -delta_omega:
    n_bar kappa / ((omega + delta_omega)^2 + kappa^2/4), the full-axis
    transform of the number correlator n_bar e^(i dw tau - kappa|tau|/2),
    n_bar the bare driven cavity's steady occupation at the operating point."""
    return float(params.photon_number(params.delta_omega) * params.kappa
                 / ((np.asarray(omega, dtype=float) + params.delta_omega) ** 2
                    + params.kappa ** 2 / 4.0))


def rates(params: SystemParams, basis: QubitEigenbasis) -> RateSet:
    """Excitation, relaxation and dephasing rates for the sigma_n coupling.

    gamma_down = g^2 sin^2(eta) S(E), gamma_up = g^2 sin^2(eta) S(-E),
    gamma_phi_pure = g^2 cos^2(eta) S(0).
    """
    w01 = basis.splitting
    g2 = params.g ** 2
    sin2 = math.sin(basis.eta) ** 2
    cos2 = math.cos(basis.eta) ** 2
    gamma_down = g2 * sin2 * spectral_density(params, w01)
    gamma_up = g2 * sin2 * spectral_density(params, -w01)
    gamma_phi_pure = g2 * cos2 * spectral_density(params, 0.0)
    gamma_phi = 0.5 * (gamma_up + gamma_down) + gamma_phi_pure

    if gamma_down == 0.0 and gamma_up > 0.0:
        raise ValueError("gamma_down = 0 with gamma_up > 0: no balance "
                         "temperature exists for this spectrum")
    if gamma_down == 0.0 or gamma_up == gamma_down:
        t_eff = math.inf
    else:
        t_eff = -w01 / math.log(gamma_up / gamma_down)
    return RateSet(gamma_up=gamma_up, gamma_down=gamma_down,
                   gamma_phi=gamma_phi, gamma_phi_pure=gamma_phi_pure,
                   t_eff=t_eff)


def _assemble(sig_t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # M(t, tau) / g^2 with x = c(tau) sigma(t - tau), y = c*(tau) sigma(t - tau);
    # linear in x and y, so K(t) / g^2 is this applied to their tau-integrals.
    # Leading axes of the (..., 2, 2) inputs carry through to (..., 2, 2, 2, 2).
    eye = np.eye(2, dtype=complex)
    return (np.einsum("...kl,pq->...kplq", sig_t @ x, eye)
            - np.einsum("...kl,...qp->...kplq", x, sig_t)
            + np.einsum("...qp,kl->...kplq", y @ sig_t, eye)
            - np.einsum("...kl,...qp->...kplq", sig_t, y))


def _interaction_sigma(basis: QubitEigenbasis, t):
    # sigma_n(t) in the interaction picture and the gaps E_k - E_l it rotates
    # at; t is a scalar or an array of shape (..., 1, 1).  sigma_n is the
    # flux operator sigma_z written in the (down, up) energy basis
    c, s, e = math.cos(basis.eta), math.sin(basis.eta), basis.splitting
    sigma_n = np.array([[-c, -s], [-s, c]], dtype=complex)
    de = np.array([[0.0, -e], [e, 0.0]])
    return np.exp(1j * de * t) * sigma_n, de


def _memory_kernel(params: SystemParams, basis: QubitEigenbasis,
                   t) -> np.ndarray:
    """K(t) = Integral_0^t M(t, tau) dtau in closed form, shape
    t.shape + (2, 2, 2, 2): elementwise in t, so one call over an array of
    times equals the scalar calls bit for bit.

    Entry by entry, c(tau) sigma(t - tau) = n_bar sigma(t) e^(lam tau) with
    lam = i(dw - de) - kappa/2, and c*(tau) sigma(t - tau) the same with
    lam = -i(dw + de) - kappa/2, so each integrates to
    n_bar sigma(t) expm1(lam t) / lam; kappa > 0 keeps lam away from 0.
    """
    t = np.asarray(t, dtype=float)[..., None, None]
    sig_t, de = _interaction_sigma(basis, t)
    half_kappa = params.kappa / 2.0
    lam = 1j * (params.delta_omega - de) - half_kappa
    lam_bar = -1j * (params.delta_omega + de) - half_kappa
    scaled = params.photon_number(params.delta_omega) * sig_t
    return params.g ** 2 * _assemble(sig_t, scaled * np.expm1(lam * t) / lam,
                                     scaled * np.expm1(lam_bar * t) / lam_bar)


def _check_rho0(rho0: np.ndarray) -> np.ndarray:
    m = np.asarray(rho0, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"rho0 must be 2x2, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rho0 contains non-finite entries")
    tr_dev, herm = _state_errors(m)
    if tr_dev > 1e-9:
        raise ValueError("rho0 trace must be 1")
    if herm > 1e-10:
        raise ValueError("rho0 must be Hermitian")
    if _eigenvalue_below(m, -1e-9) is not None:
        raise ValueError("rho0 must be positive semidefinite")
    return m


def evolve_reduced(params: SystemParams, basis: QubitEigenbasis,
                   rho0_qubit: np.ndarray, t_grid: Sequence[float],
                   mode: str = "markov") -> ReducedRecord:
    """Interaction-picture reduced qubit dynamics under the number noise.

    markov mode: constant-rate equations built from rates() (memory integral
    extended to infinity), solved in closed form: with G = gamma_up +
    gamma_down and r = rho_00 + rho_11,
    rho_11(t) = rho_11(0) + (gamma_up r - G rho_11(0)) (1 - e^(-G t)) / G
    (t in place of the ramp at G = 0), rho_00 likewise with gamma_down,
    and rho_01(t) = rho_01(0) e^(-gamma_phi t).
    time_dependent mode: integrates the time-local equation by RK4
    (core.integrate) with the finite-memory kernel K(t) and step
    1/(50 max(E, kappa, |delta_omega|)), exposing the short-time
    (t < 1/kappa) transient; K is evaluated once per grid interval, at
    all of its RK4 stage times.
    """
    rho0 = _check_rho0(rho0_qubit)
    t = _check_grid(t_grid)

    if mode == "markov":
        rs = rates(params, basis)
        g_tot = rs.gamma_up + rs.gamma_down
        ramp = t if g_tot == 0.0 else -np.expm1(-g_tot * t) / g_tot
        r = rho0[0, 0] + rho0[1, 1]
        decay = np.exp(-rs.gamma_phi * t)
        mats = np.empty((len(t), 2, 2), dtype=complex)
        mats[:, 0, 0] = rho0[0, 0] + (rs.gamma_down * r - g_tot * rho0[0, 0]) * ramp
        mats[:, 1, 1] = rho0[1, 1] + (rs.gamma_up * r - g_tot * rho0[1, 1]) * ramp
        mats[:, 0, 1] = rho0[0, 1] * decay
        mats[:, 1, 0] = rho0[1, 0] * decay
    elif mode == "time_dependent":
        step = 1.0 / (50.0 * max(basis.splitting, params.kappa,
                                 abs(params.delta_omega)))
        mats = integrate(
            lambda ts: -_memory_kernel(params, basis, ts).reshape(-1, 4, 4),
            rho0.reshape(4), t, step)
    else:
        raise ValueError(f"mode must be 'markov' or 'time_dependent', got {mode!r}")

    out = np.stack(mats).reshape(-1, 2, 2)
    tr_dev, herm = _state_errors(out)
    bad = np.flatnonzero((tr_dev > 1e-8) | (herm > 1e-9))
    if bad.size:
        k = bad[0]
        what = ("reduced trace drifted" if tr_dev[k] > 1e-8
                else "reduced state lost Hermiticity")
        raise NumericsError(f"{what} at t = {t[k]:.6g}")
    pops = out[:, [0, 1], [0, 1]].real
    return ReducedRecord(t_grid=t, matrices=out, populations=pops,
                         coherence01=np.abs(out[:, 0, 1]),
                         sigma_z=pops[:, 1] - pops[:, 0])
