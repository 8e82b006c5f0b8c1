"""Independent output checks for the benchmark jobs.

Every check re-derives the expected numbers from closed forms written out
here (or from the committed golden grids), never from qndsim itself, and
raises CheckFailed on the first disagreement.  Each Check also names a
tamper: one CSV column scaled by a small relative amount.  self_test()
applies it and demands that the check rejects the result, so a check that
has gone blind fails the run instead of passing it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"

# pinned qnd constants the checks rely on: the analytic sweep's measurement
# time and the default FockSpace population threshold behind exit code 3
MEASURE_TIME = 0.1
TOP_FOCK_THRESHOLD = 1e-6


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


@dataclass(frozen=True)
class Table:
    columns: tuple
    data: np.ndarray   # (rows, columns) float

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


def read_table(text: str) -> Table:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CheckFailed("empty CSV")
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    return Table(columns=tuple(rows[0]), data=data.reshape(len(rows) - 1, len(rows[0])))


@dataclass(frozen=True)
class Check:
    """fn(table, **params) raises CheckFailed; tamper = (column, relative change)."""

    fn: Callable
    tamper: tuple
    params: dict = field(default_factory=dict)

    def __call__(self, table: Table) -> None:
        self.fn(table, **self.params)


def self_test(check: Check, table: Table) -> None:
    """Raise CheckFailed unless check rejects table with its tamper applied."""
    column, rel = check.tamper
    bad = table.data.copy()
    bad[:, table.columns.index(column)] *= 1.0 + rel
    try:
        check(Table(table.columns, bad))
    except CheckFailed:
        return
    raise CheckFailed(f"self-test: check {check.fn.__name__} accepted "
                      f"{column} scaled by 1{rel:+g}")


# ---------------------------------------------------------------- helpers

def _expect(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise CheckFailed(what)


def _close(got, want, what: str, rtol: float = 0.0, atol: float = 0.0) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if not np.all(err <= lim):
        k = int(np.argmax(err - lim))
        raise CheckFailed(f"{what}: worst at row {k}: got {got.flat[k]!r}, "
                          f"want {want.flat[k]!r} (rtol {rtol:g}, atol {atol:g})")


def _columns(table: Table, want: tuple, n_rows: int) -> None:
    if table.columns != want:
        raise CheckFailed(f"columns {table.columns} != {want}")
    if table.data.shape[0] != n_rows:
        raise CheckFailed(f"{table.data.shape[0]} rows, want {n_rows}")


def _alpha(f, kappa, dw, g, sz, t):
    # vacuum-start pointer amplitude in the qubit sector sigma_z = sz
    lam = kappa / 2.0 + 1j * (dw - g * sz)
    return (-1j * f / lam) * (1.0 - np.exp(-lam * t))


def _p_measure(f, kappa, dw, g, t, var):
    # (1 + erf(|A| t / sqrt(2 var)))/2 with |A| = sqrt(2) f |sin(phi_0 - phi_1)|
    dphi = np.arctan2(dw + g, kappa / 2.0) - np.arctan2(dw - g, kappa / 2.0)
    amp = math.sqrt(2.0) * f * np.abs(np.sin(dphi))
    arg = amp * t / np.sqrt(2.0 * var)
    return 0.5 * (1.0 + np.vectorize(math.erf)(arg))


def _lorentzian(f, kappa, dw, omega):
    n_bar = f ** 2 / (kappa ** 2 / 4.0 + dw ** 2)
    return n_bar * kappa / ((omega + dw) ** 2 + kappa ** 2 / 4.0)


def _flip_rate(epsilon, delta, g, kappa, f, dw):
    # gamma_up + gamma_down = g^2 sin^2(eta) (S(E) + S(-E))
    e2 = epsilon ** 2 + delta ** 2
    e = math.sqrt(e2)
    return g ** 2 * (delta ** 2 / e2) * (_lorentzian(f, kappa, dw, e)
                                         + _lorentzian(f, kappa, dw, -e))


def _time_grid(table: Table, t_max: float, t_step: float) -> np.ndarray:
    n = int(round(t_max / t_step))
    t = table.col("t")
    _close(t, np.linspace(0.0, n * t_step, n + 1), "time grid", rtol=1e-12, atol=1e-12)
    return t


# ---------------------------------------------------------------- closed-form sweeps

def check_fig2(table: Table, kappa=0.1, g=0.3, f=1.0, t_max=2.0,
               n_detuning=201, n_time=200) -> None:
    """qnd fig2: its 41 x 25 sub-grid against the golden file, every row
    against the erf closed form."""
    _columns(table, ("delta_omega", "t", "p_zero_point", "p_backaction"),
             n_detuning * n_time)
    grid = table.data.reshape(n_detuning, n_time, 4)
    dw = np.linspace(-1.0, 1.0, n_detuning)
    t = np.array([(k * t_max) / n_time for k in range(1, n_time + 1)])
    _close(grid[:, :, 0], np.repeat(dw[:, None], n_time, axis=1), "delta_omega",
           rtol=1e-12, atol=1e-15)
    _close(grid[:, :, 1], np.repeat(t[None, :], n_detuning, axis=0), "t", rtol=1e-12)
    golden = read_table((GOLDEN_DIR / "fig2_golden.csv").read_text())
    # the golden grid is linspace(-1, 1, 41) x (0.08 k): every 5th detuning,
    # every 8th time of the CLI grid
    sub = grid[::5, 7::8, :].reshape(-1, 4)
    _close(sub, golden.data, "fig2 vs golden", rtol=1e-12, atol=1e-15)
    dwg, tg = grid[:, :, 0], grid[:, :, 1]
    _close(grid[:, :, 2], _p_measure(f, kappa, dwg, g, tg, 0.5),
           "p_zero_point closed form", rtol=1e-12)
    _close(grid[:, :, 3], _p_measure(f, kappa, dwg, g, tg, (2.0 / kappa) * tg),
           "p_backaction closed form", rtol=1e-12)


def check_fig3(table: Table) -> None:
    """qnd fig3 against the golden file."""
    golden = read_table((GOLDEN_DIR / "fig3_golden.csv").read_text())
    _columns(table, golden.columns, golden.data.shape[0])
    _close(table.data, golden.data, "fig3 vs golden", rtol=1e-12, atol=1e-15)


def check_analytic_sweep(table: Table, kappa, g, f, start, stop, count) -> None:
    """delta_omega sweep: photon numbers f^2/(kappa^2/4 + (dw +/- g)^2),
    gamma_m as 2g Im(alpha_+* alpha_-), P(measure 0) from the erf form."""
    _columns(table, ("delta_omega", "p_measure_0", "gamma_m", "n_plus", "n_minus"), count)
    dw = table.col("delta_omega")
    _close(dw, np.linspace(start, stop, count), "sweep grid", rtol=1e-12, atol=1e-15)
    _close(table.col("n_plus"), f ** 2 / (kappa ** 2 / 4.0 + (dw + g) ** 2),
           "n_plus", rtol=1e-12)
    _close(table.col("n_minus"), f ** 2 / (kappa ** 2 / 4.0 + (dw - g) ** 2),
           "n_minus", rtol=1e-12)
    a_p = -1j * f / (kappa / 2.0 + 1j * (dw + g))
    a_m = -1j * f / (kappa / 2.0 + 1j * (dw - g))
    _close(table.col("gamma_m"), 2.0 * g * (np.conj(a_p) * a_m).imag,
           "gamma_m amplitude form", rtol=1e-10)
    _close(table.col("p_measure_0"),
           _p_measure(f, kappa, dw, g, MEASURE_TIME, (2.0 / kappa) * MEASURE_TIME),
           "p_measure_0", rtol=1e-12)


def check_backaction_sweep(table: Table, epsilon, g, kappa, f, delta_omega,
                           start, stop, count) -> None:
    """delta sweep: detailed balance gamma_up/gamma_down = S(-E)/S(E) and
    gamma_phi = (gamma_up + gamma_down)/2 + gamma_phi_pure at 1e-12, the
    rates themselves against the Lorentzian golden-rule forms."""
    _columns(table, ("delta", "gamma_up", "gamma_down", "gamma_phi",
                     "gamma_phi_pure", "t_eff", "s_nn_zero"), count)
    delta = table.col("delta")
    _close(delta, np.linspace(start, stop, count), "sweep grid", rtol=1e-12, atol=1e-15)
    up, down = table.col("gamma_up"), table.col("gamma_down")
    phi, pure = table.col("gamma_phi"), table.col("gamma_phi_pure")
    e = np.hypot(epsilon, delta)
    s_plus = _lorentzian(f, kappa, delta_omega, e)
    s_minus = _lorentzian(f, kappa, delta_omega, -e)
    _close(up / down, s_minus / s_plus, "detailed balance", rtol=1e-12)
    _close(phi, 0.5 * (up + down) + pure, "gamma_phi decomposition", rtol=1e-12)
    sin2 = delta ** 2 / e ** 2
    _close(down, g ** 2 * sin2 * s_plus, "gamma_down", rtol=1e-10)
    _close(up, g ** 2 * sin2 * s_minus, "gamma_up", rtol=1e-10)
    _close(pure, g ** 2 * (1.0 - sin2) * _lorentzian(f, kappa, delta_omega, 0.0),
           "gamma_phi_pure", rtol=1e-10)
    _close(table.col("t_eff"), -e / np.log(up / down), "t_eff", rtol=1e-9)
    _close(table.col("s_nn_zero"),
           np.full(count, _lorentzian(f, kappa, delta_omega, 0.0)), "s_nn_zero", rtol=1e-12)


# ---------------------------------------------------------------- master equation

_LINDBLAD_COLUMNS = ("t", "sigma_z", "sigma_x", "re_a", "im_a", "n_photon",
                     "coherence01", "top_fock")


def check_sigma_z_run(table: Table, kappa, g, f, delta_omega, t_max, t_step) -> None:
    """qnd lindblad in sigma_z mode from |+> x vacuum: <a> is the mean of
    the two pointer amplitudes (1e-6), |rho_01| is half the closed-form
    coherence with the pointer-product integral done exactly (1e-4)."""
    _columns(table, _LINDBLAD_COLUMNS, int(round(t_max / t_step)) + 1)
    t = _time_grid(table, t_max, t_step)
    a_p = _alpha(f, kappa, delta_omega, g, 1, t)
    a_m = _alpha(f, kappa, delta_omega, g, -1, t)
    _close(table.col("re_a") + 1j * table.col("im_a"), 0.5 * (a_p + a_m), "<a>", atol=1e-6)
    _close(table.col("n_photon"), 0.5 * (np.abs(a_p) ** 2 + np.abs(a_m) ** 2),
           "<n>", atol=1e-6)
    lp = kappa / 2.0 + 1j * (delta_omega + g)
    lmc = kappa / 2.0 - 1j * (delta_omega - g)
    mu = kappa + 2j * g
    integral = f ** 2 / (lp * lmc) * (t + np.expm1(-lp * t) / lp
                                      + np.expm1(-lmc * t) / lmc
                                      - np.expm1(-mu * t) / mu)
    _close(table.col("coherence01"), 0.5 * np.exp(2.0 * g * integral.imag),
           "coherence01", atol=1e-4)
    _close(table.col("sigma_z"), np.zeros_like(t), "sigma_z (QND)", atol=1e-9)
    _expect(table.col("top_fock") <= TOP_FOCK_THRESHOLD, "top Fock population over threshold")


def check_sigma_n_run(table: Table, gamma1, gamma2, t_max, t_step) -> None:
    """qnd lindblad in sigma_n mode from |+> x vacuum: <sigma_z> follows the
    gamma1 rate equation -1 + e^(-gamma1 t) to 5e-3 (back-action flips are
    O(1e-3) here), and |rho_01| never exceeds its intrinsic decay envelope
    (1/2) e^(-(gamma1/2 + gamma2) t): measurement only adds dephasing."""
    _columns(table, _LINDBLAD_COLUMNS, int(round(t_max / t_step)) + 1)
    t = _time_grid(table, t_max, t_step)
    _close(table.col("sigma_z"), -1.0 + np.exp(-gamma1 * t), "sigma_z relaxation", atol=5e-3)
    _expect(table.col("coherence01") <= 0.5 * np.exp(-(gamma1 / 2.0 + gamma2) * t) + 1e-9,
            "coherence above the intrinsic decay envelope")
    _expect(np.abs(table.col("sigma_x")) <= 1.0, "|sigma_x| > 1")
    _expect(table.col("n_photon") >= 0.0, "negative photon number")
    _expect(table.col("top_fock") <= TOP_FOCK_THRESHOLD, "top Fock population over threshold")


def check_reduced_relaxation(table: Table, epsilon, delta, g, kappa, f, t_max) -> None:
    """evolve_reduced(time_dependent) from the excited state at delta_omega = 0
    (so the equilibrium population is 1/2): after the memory transient the
    excited-population slope of log(p_1 - 1/2) is -(gamma_up + gamma_down)
    within 2%, and the trace stays 1."""
    if table.columns != ("t", "p_ground", "p_excited", "coherence01"):
        raise CheckFailed(f"columns {table.columns}")
    t, p1 = table.col("t"), table.col("p_excited")
    _close(table.col("p_ground") + p1, np.ones_like(t), "trace", atol=1e-12)
    late = t >= t_max / 2.0
    _expect(p1[late] > 0.5, "excited population fell through equilibrium")
    slope = np.polyfit(t[late], np.log(p1[late] - 0.5), 1)[0]
    rate = _flip_rate(epsilon, delta, g, kappa, f, 0.0)
    if not abs(-slope / rate - 1.0) <= 0.02:
        raise CheckFailed(f"relaxation slope {-slope:.6e} vs gamma_up + gamma_down "
                          f"{rate:.6e} (tol 2%)")


def check_repeat_qnd(table: Table) -> None:
    """sigma_z coupling is QND: consecutive outcomes agree to 1e-6."""
    _columns(table, ("pair", "agreement"), 2)
    _close(table.col("pair"), np.array([1.0, 2.0]), "pair index")
    _close(table.col("agreement"), np.ones(2), "QND agreement", atol=1e-6)


def check_repeat_sigma_n(table: Table, epsilon, delta, g, kappa, f, delta_omega,
                         t_max) -> None:
    """sigma_n coupling flips the qubit between measurements: each pair's
    disagreement lies within [1/4, 2] x (gamma_up + gamma_down) t_max.  The
    lower factor allows for the resonator ring-up (~2/kappa) inside a short
    window, during which no back-action flips happen yet."""
    _columns(table, ("pair", "agreement"), 2)
    _close(table.col("pair"), np.array([1.0, 2.0]), "pair index")
    ratio = (1.0 - table.col("agreement")) / (
        _flip_rate(epsilon, delta, g, kappa, f, delta_omega) * t_max)
    if not np.all((ratio >= 0.25) & (ratio <= 2.0)):
        raise CheckFailed(f"disagreement / (flip rate x t) = {ratio} outside [0.25, 2]")
