"""The master equation of the joint qubit-resonator state, propagated exactly.

rho' = -i[H, rho] + kappa D[a] rho + gamma1 D[sigma_-] rho
       + (gamma2/2) D[sigma_z] rho,      D[L] rho = (2 L rho L+ - {L+L, rho})/2

in the frame rotating at the drive frequency, on a truncated Fock space.
The qubit-conditioned resonator detuning is delta_omega - g*sigma_z, so the
sigma_z = +1 sector sees delta_omega - g (matching `analytic`).

The generator is constant in this frame: evolve propagates it with
core.expm_action through Liouvillian.apply alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# bench/trace_job.py wraps lindblad.integrate
from .core import (DensityMatrix, FockSpace, NumericsError, SystemParams,  # noqa: F401
                   annihilation, expm_action, integrate,
                   number_operator, qubit_operator, tensor)

__all__ = [
    "Liouvillian",
    "EvolutionRecord",
    "RepeatabilityStats",
    "build_liouvillian",
    "evolve",
    "repeatability_experiment",
]

# repeatability_experiment drops (mixture, outcome) pieces lighter than this
_BRANCH_PRUNE = 1e-12


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Precomputed generator: a real Hamiltonian (else ValueError) plus
    weighted jump operators.

    dissipators holds one (c, o, v) triple per jump operator L: the
    coefficient c, rate prefactor included, and L's one nonzero diagonal
    v at offset o, L[i, i + o] = v_i, of length 2 dim - |o| (else
    ValueError).  With the diagonal Gamma = (1/2) sum_k c_k L+L,
    apply(rho)[i, j] = -i[H, rho][i, j] - (Gamma_i + Gamma_j) rho[i, j]
                       + sum_k c_k v_i v_j* rho[i+o_k, j+o_k].
    The decay joins the offset-0 weight and terms sharing an offset merge;
    each offset is one product and one add over the flattened arrays,
    shifted by |o|(n + 1), with zero weights where the shift wraps.
    norm_bound = 2 ||H - i Gamma - mu I||_1 + sum_k c_k max|v_k|^2, mu the
    midpoint of H's diagonal, bounds the superoperator's 1-norm.

    frame is a qubit splitting left out of H: the lab generator adds
    -i[(frame/2) sigma_z (x) I, rho], which evolve restores.

    apply takes Hermitian rho only: then rho H = (H rho)+, so one real
    matmul X = H rho gives -i(X - X+), and with real jump weights the
    result is exactly Hermitian.  H is kept as a stack of its qubit blocks
    when its off-diagonal blocks are zero, so X is one batched matmul.
    apply uses a scratch array, so it is not re-entrant.
    """

    space: FockSpace
    hamiltonian: np.ndarray
    dissipators: tuple = field(default_factory=tuple)
    frame: float = 0.0
    norm_bound: float = field(init=False, repr=False)
    _h_stack: np.ndarray = field(init=False, repr=False)    # (k, n/k, n/k)
    # (flat weights, target slice, source slice) per distinct offset
    _jumps: tuple = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)
    _x_stack: np.ndarray = field(init=False, repr=False)    # _scratch as (k, n/k, 2n)

    def __post_init__(self) -> None:
        n = len(self.hamiltonian)
        if np.any(np.imag(self.hamiltonian)):
            raise ValueError("hamiltonian must be real")
        h_eff = np.array(self.hamiltonian, dtype=complex)    # H - i Gamma
        weights = {}    # offset -> n x n weights, zero outside [:k, :k]
        for c, o, v in self.dissipators:
            k = n - abs(o)
            if not (abs(o) < n and np.shape(v) == (k,)):
                raise ValueError(f"jump diagonal at offset {o} must have length "
                                 f"{k}, got shape {np.shape(v)}")
            src = slice(max(o, 0), n + min(o, 0))    # where L+L is nonzero
            h_eff[src, src] -= np.diag((0.5j * c) * (v.conj() * v))
            w = np.zeros((n, n), dtype=complex)
            w[:k, :k] = c * np.outer(v, v.conj())
            weights[o] = weights.get(o, 0j) + w
        if weights:
            minus_gamma = h_eff.diagonal().imag
            weights[0] = weights.get(0, 0j) + (minus_gamma[:, None] + minus_gamma)
        jumps = []
        for o, w in weights.items():
            shift = abs(o) * (n + 1)
            head, tail = slice(0, n * n - shift), slice(shift, n * n)
            jumps.append((w.reshape(-1)[:n * n - shift].copy(),
                          *((head, tail) if o >= 0 else (tail, head))))
        diag = self.hamiltonian.diagonal().real
        mu = 0.5 * (diag.max() + diag.min())
        bound = 2.0 * np.linalg.norm(h_eff - mu * np.eye(n), 1)
        bound += sum(c * np.abs(v).max() ** 2 for c, _, v in self.dissipators)
        h, m = self.hamiltonian.real, n // 2
        blocks = 2 * m == n and not (h[:m, m:].any() or h[m:, :m].any())
        h = np.stack([h[:m, :m], h[m:, m:]]) if blocks else h[None]
        tmp = np.empty_like(h_eff)
        object.__setattr__(self, "norm_bound", float(bound))
        object.__setattr__(self, "_h_stack", np.ascontiguousarray(h, dtype=float))
        object.__setattr__(self, "_jumps", tuple(jumps))
        object.__setattr__(self, "_scratch", tmp)
        object.__setattr__(self, "_x_stack", tmp.view(float).reshape(len(h), -1, 2 * n))

    def apply(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The generator on Hermitian rho, written into out and returned
        (a new array for out=None).  out must be C-contiguous, else
        ValueError, and must not overlap rho.
        """
        # C order, for the float and flat views below
        rho = np.ascontiguousarray(rho, dtype=complex)
        tmp = self._scratch
        if out is None:
            out = np.empty_like(tmp)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        x = self._x_stack
        np.matmul(self._h_stack, rho.view(float).reshape(x.shape), out=x)
        np.conjugate(tmp.T, out=out)
        np.subtract(tmp, out, out=out)
        out *= -1j
        rho_f, tmp_f, out_f = rho.reshape(-1), tmp.reshape(-1), out.reshape(-1)
        for w, dst, src in self._jumps:
            out_f[dst] += np.multiply(w, rho_f[src], out=tmp_f[dst])
        return out


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class RepeatabilityStats:
    """Consecutive-outcome statistics from repeatability_experiment.

    n_branches counts the last outcomes still carrying weight (at most 2).
    peak_top_fock is the largest top-two-level population of any propagated
    mixture at any window node (a weighted mean of its branches', so it
    bounds the truncation error of what is propagated).  peak_round is the
    earliest 1-based round whose own peak is within 1e-12 (relative) of it.
    """

    pair_agreement: np.ndarray   # P(outcome j+1 == outcome j), length n_meas-1
    n_branches: int
    valid: bool
    peak_top_fock: float
    peak_round: int


def build_liouvillian(params: SystemParams, space: FockSpace) -> Liouvillian:
    """Assemble the generator in the drive frame; delta picks the coupling.

    delta == 0: coupling sigma_z, the dispersive QND model.  The qubit term
    (epsilon/2) sigma_z commutes with the rest of H and with every
    dissipator, so it is the frame, not part of H.  delta > 0: qubit term
    (E/2) sigma_z, E = sqrt(epsilon^2 + delta^2), in the energy eigenbasis
    and coupling sigma_n = cos(eta) sigma_z + sin(eta) sigma_x with
    eta = atan2(delta, epsilon), which keeps the QND-violating piece.
    Qubit dissipators act in the same qubit basis.  Each jump operator is
    its one nonzero diagonal: I (x) a at offset +1, sigma_- (x) I at -dim
    and sigma_z (x) I at 0.
    """
    sz = qubit_operator("sigma_z")
    ident = qubit_operator("identity")
    if params.delta == 0.0:
        energy, coupling, frame = 0.0, sz, params.epsilon
    else:
        eta = math.atan2(params.delta, params.epsilon)
        energy, frame = math.hypot(params.epsilon, params.delta), 0.0
        coupling = math.cos(eta) * sz + math.sin(eta) * qubit_operator("sigma_x")

    d = space.dim
    a = annihilation(space)
    n_op = number_operator(space)
    i_f = np.eye(d, dtype=complex)
    h = (tensor((energy / 2.0) * sz, i_f)
         + tensor(params.delta_omega * ident - params.g * coupling, n_op)
         + tensor(ident, params.f * (a + a.conj().T)))

    dissipators = []
    if params.kappa > 0.0:
        dissipators.append((params.kappa, 1, _ladder_diagonal(space)))
    if params.gamma1 > 0.0:
        dissipators.append((params.gamma1, -d, np.ones(d, dtype=complex)))
    if params.gamma2 > 0.0:
        dissipators.append((params.gamma2 / 2.0, 0, np.repeat([1.0 + 0j, -1.0], d)))

    return Liouvillian(space=space, hamiltonian=h,
                      dissipators=tuple(dissipators), frame=frame)


def _ladder_diagonal(space: FockSpace) -> np.ndarray:
    # the +1 diagonal of I (x) a: sqrt(1..dim-1) in each qubit block, 0
    # where the blocks meet
    root_n = np.diagonal(annihilation(space), 1)
    return np.concatenate([root_n, [0.0], root_n])


def evolve(liou: Liouvillian, rho0: DensityMatrix,
           t_grid: Sequence[float]) -> EvolutionRecord:
    """Propagate the master equation exactly over t_grid (must start at 0).

    The apply calls depend on the span and norm_bound, not on the node
    count (see core.expm_action).  Each node at time t returns to the lab
    frame: rho01 times e^(-i frame t), rho10 its conjugate transpose.

    rho0 is first projected onto its Hermitian part (m + m+)/2 (rho0 bit
    for bit when exactly Hermitian), so every node is exactly Hermitian.
    Raises NumericsError if an evolved state is not a density matrix.

    The observables come from three diagonals of each node: populations,
    the +dim diagonal (sums to tr rho01) and the -1 diagonal (a_mean).
    """
    if rho0.space.dim != liou.space.dim:
        raise ValueError("rho0 lives on a different Fock space than the generator")
    t = np.asarray(t_grid, dtype=float)
    m0 = rho0.matrix
    mats = expm_action(liou.apply, 0.5 * (m0 + m0.conj().T), t, liou.norm_bound)
    d = liou.space.dim
    if liou.frame:
        for m, phase in zip(mats, np.exp(-1j * liou.frame * t)):
            m[:d, d:] *= phase
            np.conjugate(m[:d, d:].T, out=m[d:, :d])

    states = []
    for tk, m in zip(t, mats):
        try:
            states.append(DensityMatrix(liou.space, m))
        except ValueError as exc:
            raise NumericsError(f"state invalid at t = {tk:.6g}: {exc}") from exc

    pop = np.array([m.diagonal().real for m in mats])
    tr01 = np.array([m.diagonal(d).sum() for m in mats])
    top = pop[:, [d - 2, d - 1, -2, -1]].sum(axis=1)
    return EvolutionRecord(
        t_grid=t, states=states,
        sigma_z=pop[:, :d].sum(axis=1) - pop[:, d:].sum(axis=1),
        sigma_x=2.0 * tr01.real,
        a_mean=np.array([m.diagonal(-1) for m in mats]) @ _ladder_diagonal(liou.space),
        n_mean=pop @ np.tile(np.arange(d, dtype=float), 2),
        coherence01=np.abs(tr01), top_fock=top,
        valid=bool(np.all(top <= liou.space.top_population_threshold)))


def _earliest_peak(round_peaks: Sequence[float]) -> tuple[float, int]:
    # the largest per-round peak, and the first 1-based round within 1e-12
    # (relative) of it
    peak = max(round_peaks)
    first = next(k for k, p in enumerate(round_peaks, 1)
                 if p >= peak - 1e-12 * peak)
    return peak, first


def repeatability_experiment(liou: Liouvillian, rho0: DensityMatrix,
                             t_meas: float, n_meas: int) -> RepeatabilityStats:
    """Consecutive projective qubit measurements separated by free windows.

    Each round evolves the state for t_meas, then projects the qubit onto
    its sigma_z basis (the energy basis when delta > 0), keeping both
    outcomes.  Evolution is linear and the statistics need only each
    branch's last outcome, so branches sharing one are carried exactly as
    one trace-weighted mixture: 1 + 2(n_meas - 1) evolutions, not the
    outcome tree's 2^n_meas - 1.  Pieces lighter than 1e-12 are dropped.
    Returns the probability that consecutive outcomes agree, per pair.
    """
    if not t_meas > 0.0:
        raise ValueError(f"t_meas must be > 0, got {t_meas}")
    if not 2 <= n_meas <= 6:
        raise ValueError(f"n_meas must be in 2..6, got {n_meas}")

    dim = liou.space.dim
    window = np.array([0.0, t_meas])
    # last outcome -> (weight, normalized mixture); outcome +1 <-> qubit index 0
    mixtures = {0: (1.0, rho0)}
    agree = np.zeros(n_meas - 1)
    total = np.zeros(n_meas - 1)
    round_peaks = [0.0] * n_meas

    for round_idx in range(n_meas):
        acc = {}  # outcome -> sum of weight * its projected block
        for last, (weight, state) in mixtures.items():
            rec = evolve(liou, state, window)
            round_peaks[round_idx] = max(round_peaks[round_idx],
                                         float(rec.top_fock.max()))
            m = rec.states[-1].matrix
            for k in (0, 1):
                sl = slice(k * dim, (k + 1) * dim)
                block = m[sl, sl]
                w_new = weight * block.trace().real
                if w_new < _BRANCH_PRUNE:
                    continue
                if round_idx > 0:
                    total[round_idx - 1] += w_new
                    if k == last:
                        agree[round_idx - 1] += w_new
                acc.setdefault(k, np.zeros_like(m))[sl, sl] += weight * block
        mixtures = {}
        for k, mat in acc.items():
            w = mat.trace().real
            mixtures[k] = (w, DensityMatrix(liou.space, mat / w))

    if np.any(total <= 0.0):
        raise NumericsError("all branches pruned; no surviving outcome weight")
    peak, peak_round = _earliest_peak(round_peaks)
    return RepeatabilityStats(pair_agreement=agree / total,
                              n_branches=len(mixtures),
                              valid=peak <= liou.space.top_population_threshold,
                              peak_top_fock=peak, peak_round=peak_round)
