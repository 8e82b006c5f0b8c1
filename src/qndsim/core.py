"""Shared state types, operators and the two propagators.

integrate is fixed-step RK4 for a time-dependent right-hand side;
expm_action propagates a constant linear operator exactly (to double
precision) through its truncated Taylor series, planned once over the
whole time span, with every reporting node evaluated from the terms of
the step that contains it.

Conventions used across the package: hbar = 1 and every frequency, rate
and coupling is an angular frequency in 1/ns (figure-caption values quoted
in GHz are used verbatim, no 2*pi factor).  The qubit basis is {|0>, |1>}
with sigma_z = diag(1, -1), so |0> is the sigma_z = +1 state.  Joint
qubit (x) resonator operators are Kronecker products with the qubit index
slowest-varying: joint index = qubit_index * dim + fock_index.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "SystemParams",
    "FockSpace",
    "DensityMatrix",
    "annihilation",
    "number_operator",
    "qubit_operator",
    "tensor",
    "integrate",
    "expm_action",
]


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


@dataclass(frozen=True)
class FockSpace:
    """Truncated resonator Hilbert space holding photon numbers 0..dim-1."""

    dim: int
    # a class constant, not a field: the top-two-level population above
    # which a run's truncation is untrusted
    top_population_threshold = 1e-6

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"Fock dimension must be >= 2, got {self.dim}")


# Construction-time admissibility tolerances for density matrices.
_TRACE_TOL = 1e-9
_HERM_TOL = 1e-10
_EIG_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Joint qubit (x) resonator state, validated on construction.

    The matrix is 2*dim x 2*dim complex with unit trace (within 1e-9),
    Hermitian (within 1e-10 entrywise) and no eigenvalue below -1e-7
    (see _eigenvalue_below).
    """

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        # contiguous, so the real view below is defined for any input
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = 2 * self.space.dim
        if m.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix contains non-finite entries")
        tr_dev, herm = _state_errors(m)
        if tr_dev > _TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        if herm > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        lo = _eigenvalue_below(m, -_EIG_TOL)
        if lo is not None:
            raise ValueError(f"negative eigenvalue {lo:.3e} below -1e-7")

    @classmethod
    def from_product(cls, space: FockSpace, qubit: np.ndarray,
                     fock: np.ndarray) -> "DensityMatrix":
        """Build the product state qubit (x) fock."""
        return cls(space, tensor(np.asarray(qubit, dtype=complex),
                                 np.asarray(fock, dtype=complex)))


def fock_vacuum(space: FockSpace) -> np.ndarray:
    """|0><0| in the truncated resonator space."""
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 0] = 1.0
    return m


def annihilation(space: FockSpace) -> np.ndarray:
    """Resonator lowering operator: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    return np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), 1).astype(complex)


def number_operator(space: FockSpace) -> np.ndarray:
    return np.diag(np.arange(space.dim, dtype=float)).astype(complex)


_QUBIT_OPS = {
    "sigma_z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "sigma_x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    # Lowers the sigma_z eigenvalue: |0> -> |1>.
    "sigma_minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "identity": np.eye(2, dtype=complex),
}


def qubit_operator(which: str) -> np.ndarray:
    try:
        return _QUBIT_OPS[which].copy()
    except KeyError:
        raise ValueError(
            f"unknown qubit operator {which!r}; expected one of "
            f"{sorted(_QUBIT_OPS)}") from None


def tensor(qubit_part: np.ndarray, fock_part: np.ndarray) -> np.ndarray:
    """Kronecker product with the qubit index slowest-varying."""
    q = np.asarray(qubit_part, dtype=complex)
    f = np.asarray(fock_part, dtype=complex)
    if q.shape != (2, 2):
        raise ValueError(f"qubit factor must be 2x2, got {q.shape}")
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"resonator factor must be square, got {f.shape}")
    return np.kron(q, f)


def _state_errors(m: np.ndarray) -> tuple:
    """|tr m - 1| and the largest |m - m^dagger| entry of a density matrix,
    or of each matrix in a stack (..., n, n).  The caller compares them
    with its own floors."""
    tr_dev = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    herm = np.abs(m - np.swapaxes(m, -2, -1).conj()).max(axis=(-2, -1))
    return tr_dev, herm


def _eigenvalue_below(m: np.ndarray, floor: float) -> float | None:
    """The smallest eigenvalue of Hermitian m if below floor (< 0), else
    None.  A Cholesky factorization of m + (1 - 1e-6)|floor| I succeeds
    only if all of them exceed floor (the margin beats its ~n eps ||m||
    backward error); eigvalsh decides only when it fails."""
    shifted = np.array(m, dtype=complex)
    shifted.flat[::len(m) + 1] += (1.0 - 1e-6) * abs(floor)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(m).min())
        return lo if lo < floor else None
    return None


def _check_grid(t_grid: Sequence[float]) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a non-empty 1-D sequence")
    if t[0] != 0.0:
        raise ValueError(f"t_grid must start at 0, got {t[0]}")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray],
              t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _substep_plan(t: np.ndarray, step: float) -> list[tuple[float, float, int]]:
    """(t0, h, n_sub) for each interval [t0, t1] of the grid t: ceil(dt/step)
    equal substeps of length h, so none exceeds step or the interval."""
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    plan = []
    for t0, t1 in zip(t[:-1], t[1:]):
        n_sub = max(1, math.ceil((t1 - t0) / step))
        plan.append((t0, (t1 - t0) / n_sub, n_sub))
    return plan


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: np.ndarray,
              t_grid: Sequence[float],
              step: float) -> list[np.ndarray]:
    """Fixed-step RK4 from t_grid[0] = 0, reporting the state at each node.

    Each grid interval [t0, t1] is split into ceil(dt/step) equal substeps
    of length h so the integrator lands exactly on every node.  The step
    never exceeds `step` or the local grid spacing.  Substep i starts at
    tk = t0 + i*h, taken from the index rather than accumulated, so rhs is
    called at exactly tk, tk + 0.5*h and tk + h and a caller can tabulate
    those times in advance from _substep_plan.  Raises NumericsError on
    non-finite values, identifying the time at which they appeared.
    """
    plan = _substep_plan(_check_grid(t_grid), step)

    y = np.array(y0, dtype=complex)
    out = [y.copy()]
    for t0, h, n_sub in plan:
        for i in range(n_sub):
            tk = t0 + i * h
            y = _rk4_step(rhs, tk, y, h)
            if not np.all(np.isfinite(y.view(float))):
                raise NumericsError(f"non-finite state at t = {tk + h:.6g}")
        out.append(y.copy())
    return out


# theta_m for tolerance 2^-53 (Al-Mohy & Higham 2011, SIAM J. Sci. Comput.
# 33:488, Table 3.1): s substeps of the degree-m Taylor series meet the
# tolerance in backward error whenever norm * dt / s <= theta_m.
_THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
          6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
          11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
          16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
          21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64,
          27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
          45: 7.2, 50: 8.5, 55: 9.9}
_TAYLOR_TOL = 2.0 ** -53
# _inf_norm is at least 1/sqrt(2) of the complex max-abs norm, so the
# stopping test at this tolerance never stops before the same test on
# complex norms at _TAYLOR_TOL would
_STOP_TOL = _TAYLOR_TOL / math.sqrt(2.0)
# for a partial sum y, y_bound (its start's norm plus its terms') times
# _STOP_BOUND >= _inf_norm(y) * _STOP_TOL, the margin covering rounding
_STOP_BOUND = _STOP_TOL * (1.0 + 1e-12)


def _taylor_plan(x: float) -> tuple[int, int]:
    """Degree m and substep count s minimising m*s for norm*dt = x, ties
    going to fewer substeps."""
    def cost(m: int) -> tuple[int, int]:
        s = max(1, math.ceil(x / _THETA[m]))
        return m * s, s

    m = min(_THETA, key=cost)
    return m, cost(m)[1]


def _inf_norm(y: np.ndarray) -> float:
    # max-abs over the real and imaginary parts: half the cost of a hypot
    # per entry
    return float(np.abs(y.reshape(-1).view(float)).max())


def expm_action(apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                y0: np.ndarray,
                t_grid: Sequence[float],
                norm: float) -> list[np.ndarray]:
    """exp(A t) y0 at every node of t_grid (which starts at 0), for a
    constant linear operator A given only through apply(y, out), which
    writes A y into the preallocated complex array out (same shape as y,
    never overlapping it) and returns out.

    norm bounds the 1-norm of A acting on y flattened.  One plan covers
    the whole span t_grid[-1]: s equal steps of length h of the Taylor
    series of degree m <= 55, with (m, s) from the Al-Mohy-Higham theta_m
    table, step i starting at i*h.  Each step builds its terms T_j once
    and gives every node inside it as the same series at its offset,
    sum_j r^j T_j with r = (t_node - i*h)/h (dense output), so the number
    of apply calls does not depend on how many nodes the grid has; a node
    exactly on a step end is that step's partial sum.  A step stops early
    once two consecutive terms fall below 2^-53/sqrt(2) times the partial
    sum, at the step end and, with their weights r^j, at every node inside
    it, in the max-abs norm over real and imaginary parts (never earlier
    than the same test at 2^-53 in the complex max-abs norm), taking the
    partial sum's norm only when its bound lets the test pass.  The terms
    alternate between two buffers, each weighted term is formed in the one
    apply has just read, and the sums accumulate in place, so no
    state-sized array is allocated per term; each returned node is its own
    array and y0 is left untouched.  Raises NumericsError on non-finite
    values, identifying the step end at which they appeared.
    """
    t = _check_grid(t_grid)
    if not (norm >= 0.0 and math.isfinite(norm)):
        raise ValueError(f"norm must be finite and >= 0, got {norm}")

    y = np.array(y0, dtype=complex)
    bufs = (np.empty_like(y), np.empty_like(y))
    out = [y.copy()]
    if t.size == 1:
        return out
    t = t.tolist()    # Python floats: bisect and scalar arithmetic stay cheap
    m, n_steps = _taylor_plan(norm * t[-1])
    h = t[-1] / n_steps
    k = 1    # the next node to fill
    for i in range(n_steps):
        t_b = t[-1] if i == n_steps - 1 else (i + 1) * h
        k_end = bisect.bisect_left(t, t_b, k)
        r = [(tk - i * h) / h for tk in t[k:k_end]]
        nodes = [y.copy() for _ in r]
        w = w_prev = [1.0] * len(r)    # r^j and r^(j-1) per node
        term = y
        c1 = y_bound = _inf_norm(term)
        for j in range(1, m + 1):
            term = apply(term, bufs[j & 1])
            term *= h / j
            c2 = _inf_norm(term)
            y_bound += c2
            y += term
            if r:
                spent = bufs[(j + 1) & 1]
                w_prev, w = w, [wk * rk for wk, rk in zip(w, r)]
                for z, wk in zip(nodes, w):
                    z += np.multiply(term, wk, out=spent)
            if c1 + c2 <= _STOP_BOUND * y_bound and \
                    c1 + c2 <= _STOP_TOL * _inf_norm(y) and all(
                    wp * c1 + wk * c2 <= _STOP_TOL * _inf_norm(z)
                    for z, wp, wk in zip(nodes, w_prev, w)):
                break
            c1 = c2
        if not np.all(np.isfinite(y.view(float))):
            raise NumericsError(f"non-finite state at t = {(i + 1) * h:.6g}")
        out.extend(nodes)
        if t[k_end] == t_b:
            out.append(y.copy())
            k_end += 1
        k = k_end
    return out
