"""Shared state types, operators and the two propagators.

integrate is fixed-step RK4 for a time-dependent right-hand side;
expm_action propagates a constant linear operator exactly (to double
precision) through its truncated Taylor series.

Conventions used across the package: hbar = 1 and every frequency, rate
and coupling is an angular frequency in 1/ns (figure-caption values quoted
in GHz are used verbatim, no 2*pi factor).  The qubit basis is {|0>, |1>}
with sigma_z = diag(1, -1), so |0> is the sigma_z = +1 state.  Joint
qubit (x) resonator operators are Kronecker products with the qubit index
slowest-varying: joint index = qubit_index * dim + fock_index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "partial_trace",
    "expectation",
    "is_hermitian",
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

    @property
    def dispersive_valid(self) -> bool:
        """Whether the bias dominates the tunneling term (delta < epsilon/10).

        delta == 0 keeps the coupling exactly diagonal, so it is always valid.
        """
        return self.delta == 0.0 or self.delta < self.epsilon / 10.0


@dataclass(frozen=True)
class FockSpace:
    """Truncated resonator Hilbert space holding photon numbers 0..dim-1."""

    dim: int
    top_population_threshold: float = 1e-6

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"Fock dimension must be >= 2, got {self.dim}")
        if not self.top_population_threshold > 0.0:
            raise ValueError("top_population_threshold must be > 0")


# Construction-time admissibility tolerances for density matrices.
_TRACE_TOL = 1e-9
_HERM_TOL = 1e-10
_EIG_TOL = 1e-7


@dataclass(frozen=True)
class DensityMatrix:
    """Joint qubit (x) resonator state, validated on construction.

    The matrix is 2*dim x 2*dim complex with unit trace (within 1e-9),
    Hermitian (within 1e-10 entrywise) and no eigenvalue below -1e-7.
    """

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = 2 * self.space.dim
        if m.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix contains non-finite entries")
        tr = m.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if not is_hermitian(m, _HERM_TOL):
            raise ValueError("density matrix is not Hermitian within 1e-10")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -_EIG_TOL:
            raise ValueError(f"negative eigenvalue {lo:.3e} below -1e-7")

    @classmethod
    def from_product(cls, space: FockSpace, qubit: np.ndarray,
                     fock: np.ndarray) -> "DensityMatrix":
        """Build the product state qubit (x) fock."""
        return cls(space, tensor(np.asarray(qubit, dtype=complex),
                                 np.asarray(fock, dtype=complex)))

    def reduced_qubit(self) -> np.ndarray:
        return partial_trace(self, "qubit")

    def reduced_resonator(self) -> np.ndarray:
        return partial_trace(self, "resonator")


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


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


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


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: np.ndarray,
              t_grid: Sequence[float],
              step: float) -> list[np.ndarray]:
    """Fixed-step RK4 from t_grid[0] = 0, reporting the state at each node.

    Each grid interval is split into ceil(dt/step) equal substeps so the
    integrator lands exactly on every node.  The step never exceeds `step`
    or the local grid spacing.  Raises NumericsError on non-finite values,
    identifying the time at which they appeared.
    """
    t = _check_grid(t_grid)
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")

    y = np.array(y0, dtype=complex)
    out = [y.copy()]
    for t0, t1 in zip(t[:-1], t[1:]):
        span = t1 - t0
        n_sub = max(1, math.ceil(span / step))
        h = span / n_sub
        tk = t0
        for _ in range(n_sub):
            y = _rk4_step(rhs, tk, y, h)
            tk += h
            if not np.all(np.isfinite(y.view(float))):
                raise NumericsError(f"non-finite state at t = {tk:.6g}")
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


def _taylor_plan(x: float) -> tuple[int, int]:
    """Degree m and substep count s minimising m*s for norm*dt = x, ties
    going to fewer substeps."""
    def cost(m: int) -> tuple[int, int]:
        s = max(1, math.ceil(x / _THETA[m]))
        return m * s, s

    m = min(_THETA, key=cost)
    return m, cost(m)[1]


def _inf_norm(y: np.ndarray) -> float:
    return float(np.abs(y).max())


def expm_action(apply: Callable[[np.ndarray], np.ndarray],
                y0: np.ndarray,
                t_grid: Sequence[float],
                norm: float) -> list[np.ndarray]:
    """exp(A t) y0 at every node of t_grid (which starts at 0), for a
    constant linear operator A given only through apply(y) = A y.

    norm bounds the 1-norm of A acting on y flattened.  Each grid interval
    takes s substeps of the Taylor series of degree m <= 55, with (m, s)
    from the Al-Mohy-Higham theta_m table; a substep stops early once two
    consecutive terms fall below 2^-53 times the partial sum (max-abs
    norm).  Raises NumericsError on non-finite values, identifying the time
    at which they appeared.
    """
    t = _check_grid(t_grid)
    if not (norm >= 0.0 and math.isfinite(norm)):
        raise ValueError(f"norm must be finite and >= 0, got {norm}")

    y = np.array(y0, dtype=complex)
    out = [y]
    for t0, t1 in zip(t[:-1], t[1:]):
        m, n_sub = _taylor_plan(norm * (t1 - t0))
        h = (t1 - t0) / n_sub
        for i in range(n_sub):
            term = y
            c1 = _inf_norm(term)
            for j in range(1, m + 1):
                term = (h / j) * apply(term)
                c2 = _inf_norm(term)
                y = y + term
                if c1 + c2 <= _TAYLOR_TOL * _inf_norm(y):
                    break
                c1 = c2
            if not np.all(np.isfinite(y.view(float))):
                raise NumericsError(f"non-finite state at t = {t0 + (i + 1) * h:.6g}")
        out.append(y)
    return out
