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
from types import SimpleNamespace
from typing import Sequence

# core before numpy: without a bytecode cache, core is then compiled
# before numpy loads rather than after, which lowers a master-equation
# run's peak RSS by ~0.5 MB.  bench/trace_job.py wraps lindblad.integrate
from .core import (DensityMatrix, NumericsError, SystemParams,  # noqa: F401
                   annihilation, eigenbasis, expm_action, integrate,
                   number_operator, tensor)

import numpy as np

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
# the top-two-level population above which a run's truncation is untrusted
_TOP_POPULATION_THRESHOLD = 1e-6


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

    @property
    def space(self) -> SimpleNamespace:
        # read only by bench/trace_job.py's flop counter, as space.dim; goes
        # when that counter reads len(hamiltonian)
        return SimpleNamespace(dim=len(self.hamiltonian) // 2)

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

    truncation is None, or says how far and when the top two Fock levels
    passed their threshold.
    """

    t_grid: np.ndarray
    states: list
    sigma_z: np.ndarray
    sigma_x: np.ndarray
    a_mean: np.ndarray
    n_mean: np.ndarray
    coherence01: np.ndarray
    top_fock: np.ndarray
    truncation: str | None


@dataclass(frozen=True, eq=False)
class RepeatabilityStats:
    """Consecutive-outcome statistics from repeatability_experiment.

    n_branches counts the last outcomes still carrying weight (at most 2).
    top_fock holds each round's peak top-two-level population of a
    propagated mixture (a weighted mean of its branches', so it bounds
    the truncation error of what is propagated), truncation its verdict.
    """

    pair_agreement: np.ndarray   # P(outcome j+1 == outcome j), length n_meas-1
    n_branches: int
    top_fock: np.ndarray
    truncation: str | None


def build_liouvillian(params: SystemParams, fock_dim: int) -> Liouvillian:
    """Assemble the generator in the drive frame; delta picks the coupling.

    delta == 0: coupling sigma_z, the dispersive QND model.  The qubit term
    (epsilon/2) sigma_z commutes with the rest of H and with every
    dissipator, so it is the frame, not part of H.  delta > 0: qubit term
    (E/2) sigma_z, E = sqrt(epsilon^2 + delta^2), in the energy eigenbasis
    and coupling sigma_n = cos(eta) sigma_z + sin(eta) sigma_x, eta and E
    from core.eigenbasis, which keeps the QND-violating piece.
    Qubit dissipators act in the same qubit basis.  Each jump operator is
    its one nonzero diagonal: I (x) a at offset +1, sigma_- (x) I at -dim
    and sigma_z (x) I at 0.  fock_dim < 2 raises ValueError.
    """
    if not fock_dim >= 2:
        raise ValueError(f"Fock dimension must be >= 2, got {fock_dim}")
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    ident = np.eye(2, dtype=complex)
    if params.delta == 0.0:
        energy, coupling, frame = 0.0, sz, params.epsilon
    else:
        basis = eigenbasis(params.epsilon, params.delta)
        energy, frame = basis.splitting, 0.0
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        coupling = math.cos(basis.eta) * sz + math.sin(basis.eta) * sx

    d = fock_dim
    a = annihilation(d)
    n_op = number_operator(d)
    i_f = np.eye(d, dtype=complex)
    h = (tensor((energy / 2.0) * sz, i_f)
         + tensor(params.delta_omega * ident - params.g * coupling, n_op)
         + tensor(ident, params.f * (a + a.conj().T)))

    dissipators = []
    if params.kappa > 0.0:
        dissipators.append((params.kappa, 1, _ladder_diagonal(d)))
    if params.gamma1 > 0.0:
        dissipators.append((params.gamma1, -d, np.ones(d, dtype=complex)))
    if params.gamma2 > 0.0:
        dissipators.append((params.gamma2 / 2.0, 0, np.repeat([1.0 + 0j, -1.0], d)))

    return Liouvillian(hamiltonian=h, dissipators=tuple(dissipators), frame=frame)


def _ladder_diagonal(dim: int) -> np.ndarray:
    # the +1 diagonal of I (x) a: sqrt(1..dim-1) in each qubit block, 0
    # where the blocks meet
    root_n = np.diagonal(annihilation(dim), 1)
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
    m0 = rho0.matrix
    if m0.shape != liou.hamiltonian.shape:
        raise ValueError("rho0 lives on a different Fock space than the generator")
    t = np.asarray(t_grid, dtype=float)
    mats = expm_action(liou.apply, 0.5 * (m0 + m0.conj().T), t, liou.norm_bound)
    d = len(liou.hamiltonian) // 2
    if liou.frame:
        for m, phase in zip(mats, np.exp(-1j * liou.frame * t)):
            m[:d, d:] *= phase
            np.conjugate(m[:d, d:].T, out=m[d:, :d])

    states = []
    for tk, m in zip(t, mats):
        try:
            states.append(DensityMatrix(m))
        except ValueError as exc:
            raise NumericsError(f"state invalid at t = {tk:.6g}: {exc}") from exc

    pop = np.array([m.diagonal().real for m in mats])
    tr01 = np.array([m.diagonal(d).sum() for m in mats])
    top = pop[:, [d - 2, d - 1, -2, -1]].sum(axis=1)
    return EvolutionRecord(
        t_grid=t, states=states,
        sigma_z=pop[:, :d].sum(axis=1) - pop[:, d:].sum(axis=1),
        sigma_x=2.0 * tr01.real,
        a_mean=np.array([m.diagonal(-1) for m in mats]) @ _ladder_diagonal(d),
        n_mean=pop @ np.tile(np.arange(d, dtype=float), 2),
        coherence01=np.abs(tr01), top_fock=top,
        truncation=_truncation(top, "at t = {:g}", t))


def _truncation(top: np.ndarray, label: str, where: Sequence) -> str | None:
    # None if top stays under the threshold; else the peak, at the first
    # entry within 1e-12 (relative) of it, and the first entry over the
    # threshold, placed by label.format(where[k])
    thr = _TOP_POPULATION_THRESHOLD
    peak = top.max()
    if peak <= thr:
        return None
    at, first = np.argmax(top >= peak - 1e-12 * peak), np.argmax(top > thr)
    return (f"peak top-two-level population {peak:.2e} {label.format(where[at])}, "
            f"threshold {thr:g}, first exceeded {label.format(where[first])}")


def repeatability_experiment(liou: Liouvillian, rho0: DensityMatrix,
                             t_meas: float, n_meas: int) -> RepeatabilityStats:
    """Consecutive projective qubit measurements separated by free windows.

    Each round evolves the state for t_meas, then projects the qubit onto
    its sigma_z basis (the energy basis when delta > 0), keeping both
    outcomes.  Evolution is linear and the statistics need only each
    branch's last outcome, so branches sharing one are carried exactly as
    one trace-weighted mixture: 1 + 2(n_meas - 1) evolutions, not the
    outcome tree's 2^n_meas - 1, less pieces lighter than _BRANCH_PRUNE.
    """
    if not t_meas > 0.0:
        raise ValueError(f"t_meas must be > 0, got {t_meas}")
    if not 2 <= n_meas <= 6:
        raise ValueError(f"n_meas must be in 2..6, got {n_meas}")

    dim = len(liou.hamiltonian) // 2
    window = np.array([0.0, t_meas])
    # last outcome -> (weight, normalized mixture); outcome +1 <-> qubit index 0
    mixtures = {0: (1.0, rho0)}
    agree = np.zeros(n_meas - 1)
    total = np.zeros(n_meas - 1)
    top = np.zeros(n_meas)

    for round_idx in range(n_meas):
        acc = {}  # outcome -> sum of weight * its projected block
        for last, (weight, state) in mixtures.items():
            rec = evolve(liou, state, window)
            top[round_idx] = max(top[round_idx], rec.top_fock.max())
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
            mixtures[k] = (w, DensityMatrix(mat / w))

    if np.any(total <= 0.0):
        raise NumericsError("all branches pruned; no surviving outcome weight")
    return RepeatabilityStats(pair_agreement=agree / total,
                              n_branches=len(mixtures), top_fock=top,
                              truncation=_truncation(top, "in measurement round {}",
                                                     range(1, n_meas + 1)))
