"""Density matrices, resonator operators and the two propagators,
integrate (RK4) and expm_action (Taylor); the parameter types live in
params and are re-exported here.

Conventions used across the package: units as in params.  The qubit
basis is {|0>, |1>} with sigma_z = diag(1, -1), so |0> is the
sigma_z = +1 state.  Joint qubit (x) resonator operators are Kronecker
products with the qubit index slowest-varying: joint index =
qubit_index * dim + fock_index.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .params import NumericsError, QubitEigenbasis, SystemParams, eigenbasis

__all__ = [
    "NumericsError",
    "SystemParams",
    "QubitEigenbasis",
    "eigenbasis",
    "DensityMatrix",
    "annihilation",
    "number_operator",
    "tensor",
    "integrate",
    "expm_action",
]


_TRACE_TOL = 1e-9
_HERM_TOL = 1e-10
_EIG_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Joint qubit (x) resonator state, a square complex matrix, checked
    on construction against _TRACE_TOL, _HERM_TOL and _EIG_TOL."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # contiguous, so the real view below is defined for any input
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected shape (n, n), got {m.shape}")
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


def fock_vacuum(dim: int) -> np.ndarray:
    """|0><0| in the resonator space truncated to photon numbers 0..dim-1."""
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return m


def annihilation(dim: int) -> np.ndarray:
    """Resonator lowering operator on dim levels: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


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
    or of each matrix in a stack (..., n, n)."""
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


def integrate(generator: Callable[[np.ndarray], np.ndarray],
              y0: np.ndarray,
              t_grid: Sequence[float],
              step: float) -> list[np.ndarray]:
    """Fixed-step RK4 for y' = A(t) y from t_grid[0] = 0, reporting y at
    each node.

    Each grid interval [t0, t1] takes n = ceil((t1 - t0)/step) equal
    substeps of length h, starting at t0 + i*h, so the step never exceeds
    `step` or the local spacing.  generator is called once per interval,
    on the stage times concatenate([starts, starts + h/2, starts + h]),
    and returns A at each of them, shape (3n, d, d).
    Raises NumericsError on non-finite values, identifying the time.
    """
    t = _check_grid(t_grid)
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")

    y = np.array(y0, dtype=complex)
    out = [y.copy()]
    for t0, t1 in zip(t[:-1], t[1:]):
        n_sub = max(1, math.ceil((t1 - t0) / step))
        h = (t1 - t0) / n_sub
        starts = t0 + np.arange(n_sub) * h
        a = generator(np.concatenate([starts, starts + 0.5 * h, starts + h]))
        for tk, a1, a2, a3 in zip(starts, *np.split(a, 3)):
            k1 = a1 @ y
            k2 = a2 @ (y + (0.5 * h) * k1)
            k3 = a2 @ (y + (0.5 * h) * k2)
            k4 = a3 @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.isfinite(y).all():
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
# expm_action's term block: 6 rows at fock_dim 12, 2 from 18 up
_BLOCK_BYTES = 56 * 1024
# Taylor steps expm_action allows, each up to 55 apply calls
_MAX_STEPS = 10 ** 6


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


def _block_rows(y: np.ndarray) -> int:
    return min(max(_BLOCK_BYTES // y.nbytes, 2), 8)


def expm_action(apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                y0: np.ndarray,
                t_grid: Sequence[float],
                norm: float) -> Iterator[np.ndarray]:
    """exp(A t) y0 at every node of t_grid (which starts at 0), yielded in
    grid order, for a constant linear operator A given only through
    apply(y, out), which writes A y into the C-contiguous complex array
    out (shaped like y, never overlapping it) and returns out.

    norm bounds the 1-norm of A on y flattened.  s steps of length h of
    the degree-m Taylor series, (m, s) from the theta_m table, cover the
    span; a node in step i is sum_j r^j T_j, r = (t_node - i*h)/h, so the
    apply calls do not depend on the node count.  A step stops once two
    consecutive terms fall below _STOP_TOL of the partial sum, at its end
    and at each node.

    The grid, norm and step budget are checked at the call (ValueError
    past _MAX_STEPS steps), and y0 is copied then and left untouched.
    The nodes come from a generator: a step's nodes are yielded once its
    last term is in, and the generator keeps none it has yielded, so
    only the current step's nodes are held.  Each node is a fresh array
    that nothing writes to after it is yielded.  Iterating raises
    NumericsError on non-finite values, naming the step end.
    """
    # Python floats: bisect and scalar arithmetic stay cheap
    t = _check_grid(t_grid).tolist()
    if not (norm >= 0.0 and math.isfinite(norm)):
        raise ValueError(f"norm must be finite and >= 0, got {norm}")
    least = norm * t[-1] / _THETA[55]    # no plan takes fewer steps
    if not least <= _MAX_STEPS:
        raise ValueError(f"span {t[-1]:.6g} is too long to propagate at "
                         f"norm {norm:.6g}: it needs at least {least:.3g} "
                         f"Taylor steps, limit {_MAX_STEPS:.0e}")
    return _taylor_nodes(apply, np.array(y0, dtype=complex), t, norm)


def _taylor_nodes(apply, y, t, norm):
    # expm_action's generator; y is its own copy of y0, the partial sum
    yield y.copy()
    if len(t) == 1:
        return
    # terms fill the rows of one block, reaching the nodes c - 1 at a time
    c = _block_rows(y)
    block = np.empty((c,) + y.shape, dtype=complex)
    bufs = list(block)
    rows = block.reshape(c, -1).view(float)    # real weights fold re and im
    m, n_steps = _taylor_plan(norm * t[-1])
    h = t[-1] / n_steps
    k = 1    # the next node to fill
    for i in range(n_steps):
        t_b = t[-1] if i == n_steps - 1 else (i + 1) * h
        k_end = bisect.bisect_left(t, t_b, k)
        r = [(tk - i * h) / h for tk in t[k:k_end]]
        nodes = [y.copy() for _ in r]
        w = w_prev = [1.0] * len(r)    # r^j and r^(j-1) per node
        lo, run = 1, []    # unfolded terms bufs[lo:lo + len(run)] and,
        term = y           # per term, its weight per node
        c1 = y_bound = _inf_norm(term)
        for j in range(1, m + 1):
            term = apply(term, bufs[lo + len(run)])
            term *= h / j
            c2 = _inf_norm(term)
            y_bound += c2
            y += term
            end = c1 + c2 <= _STOP_BOUND * y_bound and \
                c1 + c2 <= _STOP_TOL * _inf_norm(y)
            if not r:
                # no node in this step: only the next term's row changes
                lo = 1 - lo
            else:
                w_prev, w = w, [wk * rk for wk, rk in zip(w, r)]
                run.append(w)
                if end or len(run) == c - 1 or j == m:
                    # the free row: below the run, or above it
                    free = lo - 1 if lo else c - 1
                    spent = bufs[free]
                    if len(run) == 1:
                        for z, wk in zip(nodes, w):
                            z += np.multiply(term, wk, out=spent)
                    else:
                        run_rows, out_f = rows[lo:lo + len(run)], rows[free]
                        for z, wv in zip(nodes, np.array(run).T):
                            wv.dot(run_rows, out=out_f)
                            z += spent
                    # the next run must not start on the row apply reads next
                    lo, run = int(lo + len(run) == 1), []
            if end and all(wp * c1 + wk * c2 <= _STOP_TOL * _inf_norm(z)
                           for z, wp, wk in zip(nodes, w_prev, w)):
                break
            c1 = c2
        if not np.all(np.isfinite(y.view(float))):
            raise NumericsError(f"non-finite state at t = {(i + 1) * h:.6g}")
        yield from nodes
        # let go before the next step's nodes are made, so that no node
        # outlives its step here
        nodes = z = None
        if t[k_end] == t_b:
            yield y.copy()
            k_end += 1
        k = k_end
