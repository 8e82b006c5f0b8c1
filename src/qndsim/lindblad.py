"""Master-equation integrator for the joint qubit-resonator state.

rho' = -i[H, rho] + kappa D[a] rho + gamma1 D[sigma_-] rho
       + (gamma2/2) D[sigma_z] rho,      D[L] rho = (2 L rho L+ - {L+L, rho})/2

in the frame rotating at the drive frequency, on a truncated Fock space.
The qubit-conditioned resonator detuning is delta_omega - g*sigma_z, so the
sigma_z = +1 sector sees delta_omega - g (matching the pointer-state
formulas in `analytic`).

The generator does not depend on time in this frame, so evolve propagates
it exactly: core.expm_action applies the truncated Taylor series of
exp(L dt) through Liouvillian.apply alone, never forming the
(2 dim)^2 x (2 dim)^2 superoperator.  The RK4 integrator in core remains
only for the time-dependent reduced kernel in `backaction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# integrate is unused here but stays importable as lindblad.integrate,
# which bench/trace_job.py wraps by that name
from .core import (DensityMatrix, FockSpace, NumericsError, SystemParams,  # noqa: F401
                   annihilation, expm_action, integrate,
                   number_operator, qubit_operator, tensor)

__all__ = [
    "Liouvillian",
    "EvolutionRecord",
    "RepeatabilityStats",
    "build_liouvillian",
    "evolve",
    "coherence_solution",
    "conditional_amplitude",
    "repeatability_experiment",
]

# branches lighter than this are dropped from the measurement tree
_BRANCH_PRUNE = 1e-12


@dataclass(frozen=True)
class Liouvillian:
    """Precomputed generator: Hamiltonian plus weighted jump operators.

    dissipators holds (coefficient, L, L+) triples with the coefficient
    already including any rate prefactor.  Construction folds the
    anticommutators into the effective Hamiltonian
    h_eff = H - (i/2) sum_k c_k L+L, so that
    apply(rho) = -i(h_eff rho - rho h_eff+) + sum_k c_k L rho L+,
    and bounds the 1-norm of that superoperator on rho flattened:
    norm_bound = 2 ||h_eff - mu I||_1 + sum_k c_k ||L||_1^2, with mu the
    midpoint of H's real diagonal (the shift cancels in the commutator).
    Immutable and safe to share across threads.
    """

    params: SystemParams
    space: FockSpace
    coupling_mode: str
    hamiltonian: np.ndarray
    dissipators: tuple = field(default_factory=tuple)
    h_eff: np.ndarray = field(init=False, repr=False, compare=False)
    h_eff_dag: np.ndarray = field(init=False, repr=False, compare=False)
    norm_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h_eff = np.array(self.hamiltonian, dtype=complex)
        for c, l_op, l_dag in self.dissipators:
            h_eff -= (0.5j * c) * (l_dag @ l_op)
        diag = self.hamiltonian.diagonal().real
        mu = 0.5 * (diag.max() + diag.min())
        bound = 2.0 * np.linalg.norm(h_eff - mu * np.eye(len(h_eff)), 1)
        bound += sum(c * np.linalg.norm(l_op, 1) ** 2
                     for c, l_op, _ in self.dissipators)
        object.__setattr__(self, "h_eff", h_eff)
        object.__setattr__(self, "h_eff_dag", np.ascontiguousarray(h_eff.conj().T))
        object.__setattr__(self, "norm_bound", float(bound))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.h_eff @ rho - rho @ self.h_eff_dag)
        for c, l_op, l_dag in self.dissipators:
            out += c * (l_op @ rho @ l_dag)
        return out


@dataclass(frozen=True)
class EvolutionRecord:
    """Time series of states and derived observables from one evolve() call.

    valid is False when the top two Fock levels ever exceed the space's
    population threshold (truncation no longer trustworthy).
    """

    t_grid: np.ndarray
    states: list
    sigma_z: np.ndarray
    sigma_x: np.ndarray
    a_mean: np.ndarray
    n_mean: np.ndarray
    coherence01: np.ndarray
    top_fock: np.ndarray
    valid: bool


@dataclass(frozen=True)
class RepeatabilityStats:
    """Consecutive-outcome statistics from repeatability_experiment."""

    pair_agreement: np.ndarray   # P(outcome j+1 == outcome j), length n_meas-1
    n_branches: int
    valid: bool

    @property
    def mean_agreement(self) -> float:
        return float(self.pair_agreement.mean())


def build_liouvillian(params: SystemParams, space: FockSpace,
                      coupling_mode: str = "sigma_z") -> Liouvillian:
    """Assemble the generator in the drive frame.

    sigma_z mode: qubit term (epsilon/2) sigma_z, coupling operator sigma_z,
    delta ignored (dispersive approximation).  sigma_n mode: qubit term
    (E/2) sigma_z with E = sqrt(epsilon^2 + delta^2) in the energy
    eigenbasis, coupling sigma_n = cos(eta) sigma_z + sin(eta) sigma_x with
    eta = atan2(delta, epsilon); this keeps the QND-violating off-diagonal
    piece.  Intrinsic qubit dissipators act in the same qubit basis as the
    Hamiltonian.
    """
    sz = qubit_operator("sigma_z")
    ident = qubit_operator("identity")
    if coupling_mode == "sigma_z":
        qubit_h = (params.epsilon / 2.0) * sz
        coupling = sz
    elif coupling_mode == "sigma_n":
        if params.epsilon == 0.0 and params.delta == 0.0:
            raise ValueError("sigma_n mode undefined for epsilon = delta = 0")
        eta = math.atan2(params.delta, params.epsilon)
        energy = math.hypot(params.epsilon, params.delta)
        qubit_h = (energy / 2.0) * sz
        coupling = math.cos(eta) * sz + math.sin(eta) * qubit_operator("sigma_x")
    else:
        raise ValueError(f"coupling_mode must be 'sigma_z' or 'sigma_n', "
                         f"got {coupling_mode!r}")

    a = annihilation(space)
    n_op = number_operator(space)
    i_f = np.eye(space.dim, dtype=complex)
    h = (tensor(qubit_h, i_f)
         + tensor(params.delta_omega * ident - params.g * coupling, n_op)
         + tensor(ident, params.f * (a + a.conj().T)))

    dissipators = []
    if params.kappa > 0.0:
        l_op = tensor(ident, a)
        dissipators.append((params.kappa, l_op, l_op.conj().T))
    if params.gamma1 > 0.0:
        l_op = tensor(qubit_operator("sigma_minus"), i_f)
        dissipators.append((params.gamma1, l_op, l_op.conj().T))
    if params.gamma2 > 0.0:
        l_op = tensor(sz, i_f)
        dissipators.append((params.gamma2 / 2.0, l_op, l_op.conj().T))

    return Liouvillian(params=params, space=space, coupling_mode=coupling_mode,
                       hamiltonian=h, dissipators=tuple(dissipators))


def _observable_ops(space: FockSpace) -> dict:
    ident = qubit_operator("identity")
    i_f = np.eye(space.dim, dtype=complex)
    top = np.zeros((space.dim, space.dim), dtype=complex)
    top[space.dim - 1, space.dim - 1] = 1.0
    top[space.dim - 2, space.dim - 2] = 1.0
    return {
        "sz": tensor(qubit_operator("sigma_z"), i_f),
        "sx": tensor(qubit_operator("sigma_x"), i_f),
        "a": tensor(ident, annihilation(space)),
        "n": tensor(ident, number_operator(space)),
        "top": tensor(ident, top),
    }


def evolve(liou: Liouvillian, rho0: DensityMatrix,
           t_grid: Sequence[float]) -> EvolutionRecord:
    """Propagate the master equation exactly over t_grid (must start at 0).

    Raises NumericsError if an evolved state stops satisfying the
    density-matrix tolerances.
    """
    if rho0.space.dim != liou.space.dim:
        raise ValueError("rho0 lives on a different Fock space than the generator")
    t = np.asarray(t_grid, dtype=float)
    mats = expm_action(liou.apply, rho0.matrix, t, liou.norm_bound)

    states = []
    for tk, m in zip(t, mats):
        try:
            states.append(DensityMatrix(liou.space, m))
        except ValueError as exc:
            raise NumericsError(f"state invalid at t = {tk:.6g}: {exc}") from exc

    ops = _observable_ops(liou.space)
    n_t = len(states)
    sz = np.empty(n_t)
    sx = np.empty(n_t)
    a_mean = np.empty(n_t, dtype=complex)
    n_mean = np.empty(n_t)
    coh = np.empty(n_t)
    top = np.empty(n_t)
    for k, st in enumerate(states):
        m = st.matrix
        sz[k] = np.einsum("ij,ji->", ops["sz"], m).real
        sx[k] = np.einsum("ij,ji->", ops["sx"], m).real
        a_mean[k] = np.einsum("ij,ji->", ops["a"], m)
        n_mean[k] = np.einsum("ij,ji->", ops["n"], m).real
        coh[k] = abs(st.reduced_qubit()[0, 1])
        top[k] = np.einsum("ij,ji->", ops["top"], m).real

    valid = bool(np.all(top <= liou.space.top_population_threshold))
    return EvolutionRecord(t_grid=t, states=states, sigma_z=sz, sigma_x=sx,
                           a_mean=a_mean, n_mean=n_mean, coherence01=coh,
                           top_fock=top, valid=valid)


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


def repeatability_experiment(liou: Liouvillian, rho0: DensityMatrix,
                             t_meas: float, n_meas: int) -> RepeatabilityStats:
    """Consecutive projective qubit measurements separated by free windows.

    Each round evolves every branch for t_meas, then projects the qubit
    onto its sigma_z basis (the energy basis in sigma_n mode), keeping both
    outcomes as weighted branches.  Branch weights below 1e-12 are dropped.
    Returns the probability that consecutive outcomes agree, per pair.
    """
    if t_meas <= 0.0:
        raise ValueError(f"t_meas must be > 0, got {t_meas}")
    if not 2 <= n_meas <= 6:
        raise ValueError(f"n_meas must be in 2..6, got {n_meas}")

    dim = liou.space.dim
    window = np.array([0.0, t_meas])
    # (weight, state, last outcome); outcome +1 <-> qubit index 0
    branches = [(1.0, rho0, 0)]
    agree = np.zeros(n_meas - 1)
    total = np.zeros(n_meas - 1)
    all_valid = True

    for round_idx in range(n_meas):
        next_branches = []
        for weight, state, last in branches:
            rec = evolve(liou, state, window)
            all_valid = all_valid and rec.valid
            m = rec.states[-1].matrix
            for k in (0, 1):
                lo = k * dim
                block = m[lo:lo + dim, lo:lo + dim]
                w_k = block.trace().real
                w_new = weight * w_k
                if w_new < _BRANCH_PRUNE:
                    continue
                if round_idx > 0:
                    total[round_idx - 1] += w_new
                    if k == last:
                        agree[round_idx - 1] += w_new
                mat = np.zeros_like(m)
                mat[lo:lo + dim, lo:lo + dim] = block / w_k
                next_branches.append((w_new, DensityMatrix(liou.space, mat), k))
        branches = next_branches

    if np.any(total <= 0.0):
        raise NumericsError("all branches pruned; no surviving outcome weight")
    return RepeatabilityStats(pair_agreement=agree / total,
                              n_branches=len(branches), valid=all_valid)
