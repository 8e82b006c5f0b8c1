"""Unit tests for the detector back-action rates and reduced dynamics.

Oracles: scipy quadrature of the correlator/spectrum pair and of the
memory tensor over tau (for the closed-form kernel; the correlator and
the tensor are written below from their definitions, sharing no code
with the kernel), scalar kernel calls
(for the kernel over an array of times), scipy.linalg.expm of the 4x4
markov rate generator (for the closed-form markov mode), an adaptive
DOP853 solve driven by the scalar kernel (for time-dependent mode),
quantum regression on the full master equation for the number
correlator, and frozen values computed from the defining formulas at
pinned points.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate as sci_integrate

from qndsim import backaction
from qndsim.backaction import eigenbasis, evolve_reduced, rates, spectral_density
from qndsim.backaction import _memory_kernel
from qndsim.core import (
    NumericsError,
    SystemParams,
    expm_action,
    number_operator,
    tensor,
)
from qndsim.lindblad import build_liouvillian

from closed_forms import qubit_operator
from tables import seeded_cases

# symmetric-spectrum pinned point: equal up/down rates, infinite t_eff
P_SYM = SystemParams(epsilon=1.0, delta=0.1, g=0.05, kappa=0.1, f=0.3,
                     delta_omega=0.0, s_ii=20.0)
B_SYM = eigenbasis(1.0, 0.1)


# ---------------------------------------------------------------- references

def number_correlator(p: SystemParams, tau):
    """Photon-number fluctuation correlator n_bar e^(i dw tau - kappa|tau|/2)
    of the bare driven cavity, n_bar = f^2/(kappa^2/4 + dw^2).

    Accepts scalar or array tau; C(-tau) = C(tau)* by construction.
    """
    tau = np.asarray(tau, dtype=float)
    n_bar = p.f ** 2 / (p.kappa ** 2 / 4.0 + p.delta_omega ** 2)
    out = n_bar * np.exp(1j * p.delta_omega * tau - 0.5 * p.kappa * np.abs(tau))
    return complex(out) if out.ndim == 0 else out


def eigenvectors(eta: float) -> np.ndarray:
    """Columns |down> = (-sin(eta/2), cos(eta/2)) and |up> = (cos(eta/2),
    sin(eta/2)): the energy eigenvectors of the qubit in the flux basis,
    from the half-angle form rather than backaction's closed-form sigma_n."""
    c, s = math.cos(eta / 2.0), math.sin(eta / 2.0)
    return np.array([[-s, c], [c, s]], dtype=complex)


def _interaction_sigma_n(p: SystemParams, basis, t: float) -> np.ndarray:
    # the flux operator sigma_z in the interaction picture of the qubit
    # Hamiltonian H = (epsilon/2) sigma_z + (delta/2) sigma_x, in the
    # (down, up) basis: V+ e^(iHt) sigma_z e^(-iHt) V
    h = 0.5 * np.array([[p.epsilon, p.delta], [p.delta, -p.epsilon]])
    u = scipy.linalg.expm(1j * t * h)
    v = eigenvectors(basis.eta)
    return v.conj().T @ u @ np.diag([1.0, -1.0]) @ u.conj().T @ v


def redfield_tensor(p: SystemParams, basis, t: float, tau: float) -> np.ndarray:
    """Second-order memory tensor M(t, tau), shape (2, 2, 2, 2), from the
    commutator form

        M(t, tau) rho = g^2 (C(tau) [s(t), s(t - tau) rho]
                             - C(tau)* [s(t), rho s(t - tau)])

    with s the interaction-picture sigma_n and C the number correlator, so
    that rho'_{kk'}(t) = -Integral_0^t dtau Sum_{ll'} M_{kk'll'}(t, tau)
    rho_{ll'}(t).  M[..., l, l'] is M applied to the basis matrix |l><l'|.
    """
    s_t = _interaction_sigma_n(p, basis, t)
    s_past = _interaction_sigma_n(p, basis, t - tau)
    c = number_correlator(p, tau)
    m = np.empty((2, 2, 2, 2), dtype=complex)
    for l in range(2):
        for q in range(2):
            rho = np.zeros((2, 2), dtype=complex)
            rho[l, q] = 1.0
            left, right = s_past @ rho, rho @ s_past
            m[:, :, l, q] = p.g ** 2 * (c * (s_t @ left - left @ s_t)
                                        - np.conj(c) * (s_t @ right - right @ s_t))
    return m


# ---------------------------------------------------------------- eigenbasis

def test_eigenbasis_angles_and_limits():
    b = eigenbasis(1.0, 0.1)
    assert b.eta == pytest.approx(math.atan2(0.1, 1.0), rel=1e-15)
    assert b.splitting == pytest.approx(math.hypot(1.0, 0.1), rel=1e-15)
    assert eigenbasis(1.0, 0.0).eta == 0.0
    assert eigenbasis(0.0, 1.0).eta == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError, match="undefined"):
        eigenbasis(0.0, 0.0)


def test_eigenbasis_compares_by_value():
    a, b = eigenbasis(1.0, 0.1), eigenbasis(1.0, 0.1)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != eigenbasis(1.0, 0.2)
    assert len({a, b}) == 1


def test_eigenbasis_diagonalizes_the_qubit():
    # epsilon < 0 puts eta past pi/2, where cos(eta) changes sign
    for eps, dlt in ((1.0, 0.1), (0.3, 0.9), (2.0, 0.0), (-1.0, 0.1),
                     (-0.3, 0.9), (-2.0, 0.0)):
        b = eigenbasis(eps, dlt)
        v = eigenvectors(b.eta)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)
        h = 0.5 * (eps * qubit_operator("sigma_z")
                   + dlt * qubit_operator("sigma_x"))
        np.testing.assert_allclose(v.conj().T @ h @ v,
                                   np.diag([-0.5, 0.5]) * b.splitting,
                                   atol=1e-14)
        # backaction's closed-form sigma_n is the flux sigma_z in this basis
        np.testing.assert_allclose(backaction._interaction_sigma(b, 0.0)[0],
                                   v.conj().T @ qubit_operator("sigma_z") @ v,
                                   rtol=0, atol=1e-15)


# ---------------------------------------------------------------- noise model

def test_number_correlator_structure():
    p = SystemParams(epsilon=1.0, g=0.05, kappa=0.2, f=0.4, delta_omega=0.3,
                     s_ii=1.0)
    n_bar = p.f ** 2 / (p.kappa ** 2 / 4.0 + p.delta_omega ** 2)
    assert number_correlator(p, 0.0) == pytest.approx(n_bar, rel=1e-14)
    tau = np.array([-2.0, 0.5, 4.0])
    c = number_correlator(p, tau)
    np.testing.assert_allclose(number_correlator(p, -tau), np.conj(c),
                               rtol=1e-14)
    np.testing.assert_allclose(np.abs(c),
                               n_bar * np.exp(-0.5 * p.kappa * np.abs(tau)),
                               rtol=1e-13)


def test_spectrum_is_correlator_transform():
    p = SystemParams(epsilon=1.0, g=0.05, kappa=0.3, f=0.4, delta_omega=0.25,
                     s_ii=1.0)
    for w in (0.0, 1.0, -1.0, -0.25):
        # S(w) = 2 Re Integral_0^inf e^{i w tau} C(tau) dtau
        val, _ = sci_integrate.quad(
            lambda tau: (np.exp(1j * w * tau)
                         * number_correlator(p, tau)).real, 0.0, np.inf)
        assert spectral_density(p, w) == pytest.approx(2.0 * val, rel=1e-9)


def test_spectrum_normalization_and_peak():
    p = SystemParams(epsilon=1.0, g=0.05, kappa=0.3, f=0.4, delta_omega=0.25,
                     s_ii=1.0)
    n_bar = p.f ** 2 / (p.kappa ** 2 / 4.0 + p.delta_omega ** 2)
    total, _ = sci_integrate.quad(lambda w: spectral_density(p, w), -np.inf, np.inf)
    assert total / (2.0 * math.pi) == pytest.approx(n_bar, rel=1e-10)
    peak = spectral_density(p, -p.delta_omega)
    assert peak == pytest.approx(4.0 * n_bar / p.kappa, rel=1e-13)
    assert peak > spectral_density(p, 0.0) > spectral_density(p, 1.0)


def _numpy_spectral_density(params, omega):
    # the same formula evaluated through numpy: the oracle for its bits
    return float(params.photon_number(params.delta_omega) * params.kappa
                 / ((np.asarray(omega, dtype=float) + params.delta_omega) ** 2
                    + params.kappa ** 2 / 4.0))


def test_spectral_density_is_the_numpy_form_bit_for_bit():
    # S is computed on Python floats; it must equal the numpy form exactly,
    # so no backaction CSV moves: at omega = +-E and 0, as rates reads it,
    # and at a random omega, over 10,000 draws across decades
    rng = np.random.default_rng(20261028)
    n = 10_000

    def decades(lo, hi, signed=False):
        sign = rng.choice((-1.0, 1.0), n) if signed else 1.0
        return (sign * 10.0 ** rng.uniform(lo, hi, n)).tolist()

    draws = zip(decades(-3.0, 2.0, signed=True), decades(-3.0, 2.0),
                decades(-3.0, 1.0), decades(-3.0, 3.0),
                decades(-3.0, 1.0, signed=True), decades(-3.0, 3.0, signed=True))
    differ = []
    for epsilon, delta, kappa, f, dw, w in draws:
        p = SystemParams(epsilon=epsilon, delta=delta, kappa=kappa, f=f,
                         delta_omega=dw)
        e = eigenbasis(epsilon, delta).splitting
        for omega in (e, -e, 0.0, w, -dw):
            got = spectral_density(p, omega)
            if type(got) is not float or got != _numpy_spectral_density(p, omega):
                differ.append((p, omega))
    assert differ == []


def test_number_correlator_matches_quantum_regression():
    # cross-check against the full master equation at zero detuning, where
    # the driven cavity rests in the exact coherent steady state
    p = SystemParams(epsilon=0.0, g=0.0, kappa=0.1, f=0.05, delta_omega=0.0,
                     s_ii=20.0)
    dim = 12
    alpha = -1j * p.f / (p.kappa / 2.0)   # one steady photon
    k = np.arange(dim)
    coh = alpha ** k / np.sqrt([math.factorial(int(m)) for m in k])
    coh *= math.exp(-abs(alpha) ** 2 / 2.0)
    rho_res = np.outer(coh, coh.conj())
    rho_res /= rho_res.trace().real
    qubit0 = np.zeros((2, 2), dtype=complex)
    qubit0[0, 0] = 1.0
    rho_ss = tensor(qubit0, rho_res)

    liou = build_liouvillian(p, dim)
    n_full = tensor(qubit_operator("identity"), number_operator(dim))
    n_bar = np.einsum("ij,ji->", n_full, rho_ss).real
    assert n_bar == pytest.approx(1.0, abs=1e-8)

    taus = np.linspace(0.0, 30.0, 16)   # kappa tau up to 3
    y0 = (n_full - n_bar * np.eye(2 * dim)) @ rho_ss
    # apply takes Hermitian input only: by linearity, propagate the
    # Hermitian parts of y0 = h1 + i h2 separately and recombine
    h1, h2 = 0.5 * (y0 + y0.conj().T), -0.5j * (y0 - y0.conj().T)
    ys1, ys2 = (list(expm_action(liou.apply, h, taus, liou.norm_bound))
                for h in (h1, h2))
    assert len(ys1) == len(ys2) == len(taus)
    c_me = np.array([np.einsum("ij,ji->", n_full, a + 1j * b)
                     for a, b in zip(ys1, ys2)])
    c_model = number_correlator(p, taus)
    assert np.max(np.abs(c_me - c_model)) / n_bar < 2e-2


# ---------------------------------------------------------------- golden rates

def test_rates_refuse_a_spectrum_with_no_balance_temperature():
    # at E = delta_omega ~ 1e150 and kappa = 1e-10, S(E) underflows to 0
    # while S(-E) = 3.96e-10 stays finite
    p = SystemParams(epsilon=1e150, delta=1e149, kappa=1e-10, f=1e140,
                     delta_omega=math.hypot(1e150, 1e149), s_ii=1.0)
    basis = eigenbasis(p.epsilon, p.delta)
    assert basis.splitting == p.delta_omega
    assert spectral_density(p, basis.splitting) == 0.0
    assert spectral_density(p, -basis.splitting) == pytest.approx(3.96e-10,
                                                                  rel=1e-3)
    with pytest.raises(ValueError, match="^gamma_down = 0 with gamma_up > 0"):
        rates(p, basis)


def test_rates_frozen_symmetric_point():
    rs = rates(P_SYM, B_SYM)
    assert rs.gamma_up == pytest.approx(8.800880088008808e-05, rel=1e-13)
    assert rs.gamma_down == pytest.approx(rs.gamma_up, rel=1e-14)
    assert rs.gamma_phi_pure == pytest.approx(3.564356435643564, rel=1e-13)
    assert rs.gamma_phi == pytest.approx(3.564444444444444, rel=1e-13)
    assert math.isinf(rs.t_eff)
    assert spectral_density(P_SYM, 0.0) == pytest.approx(1440.0, rel=1e-12)


def test_rates_decomposition_and_balance():
    for dw in (0.0, 0.4, -0.8, B_SYM.splitting):
        p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                         delta_omega=dw, s_ii=20.0)
        rs = rates(p, B_SYM)
        assert rs.gamma_phi == pytest.approx(
            0.5 * (rs.gamma_up + rs.gamma_down) + rs.gamma_phi_pure, abs=1e-15)
        e = B_SYM.splitting
        assert rs.gamma_up / rs.gamma_down == pytest.approx(
            spectral_density(p, -e) / spectral_density(p, e), rel=1e-12)
        if math.isfinite(rs.t_eff):
            assert math.exp(-e / rs.t_eff) == pytest.approx(
                rs.gamma_up / rs.gamma_down, rel=1e-12)


def test_rates_frozen_detuned_point():
    e = B_SYM.splitting
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=e, s_ii=20.0)
    rs = rates(p, B_SYM)
    assert rs.gamma_up == pytest.approx(1.4081408140814088e-05, rel=1e-13)
    assert rs.gamma_down == pytest.approx(8.708353828580145e-09, rel=1e-13)
    # population inversion: more up- than down-rate gives a negative t_eff
    assert rs.t_eff == pytest.approx(-0.13602368238293264, rel=1e-12)
    # mirror detuning swaps the roles
    p2 = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                      delta_omega=-e, s_ii=20.0)
    rs2 = rates(p2, B_SYM)
    assert rs2.gamma_down == pytest.approx(rs.gamma_up, rel=1e-14)
    assert rs2.gamma_up == pytest.approx(rs.gamma_down, rel=1e-14)
    assert rs2.t_eff > 0.0


def test_rates_vanish_without_coupling_mixing():
    # delta = 0: sigma_n is diagonal, no transitions, only pure dephasing
    p = SystemParams(epsilon=1.0, delta=0.0, g=0.05, kappa=0.5, f=0.4,
                     delta_omega=0.0, s_ii=1.0)
    rs = rates(p, eigenbasis(1.0, 0.0))
    assert rs.gamma_up == 0.0 and rs.gamma_down == 0.0
    assert rs.gamma_phi == rs.gamma_phi_pure > 0.0
    assert math.isinf(rs.t_eff)


# ---------------------------------------------------------------- memory tensor

def test_redfield_tensor_invariants():
    p = SystemParams(epsilon=1.0, delta=0.3, g=0.05, kappa=0.5, f=0.4,
                     delta_omega=0.2, s_ii=4.0)
    b = eigenbasis(1.0, 0.3)
    tensors = [redfield_tensor(p, b, t, tau)
               for t, tau in ((0.7, 0.3), (2.0, 1.5), (5.0, 0.1))]
    tensors += [_memory_kernel(p, b, t) for t in (1e-6, 0.7, 5.0)]
    for m in tensors:
        scale = np.abs(m).max()
        # trace preservation: sum_k M_{kk l l'} = 0
        assert np.abs(m[0, 0] + m[1, 1]).max() < 1e-14 * scale
        # Hermiticity preservation: M_{pk ql} = conj(M_{kp lq})
        assert np.abs(m - np.conj(np.einsum("kplq->pkql", m))).max() \
            < 1e-13 * scale


def test_memory_kernel_reaches_golden_rule_rates():
    e = B_SYM.splitting
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=-e, s_ii=20.0)
    rs = rates(p, B_SYM)
    k = _memory_kernel(p, B_SYM, 400.0)
    # excited-population loss and gain converge on the spectral rates
    assert k[1, 1, 1, 1].real == pytest.approx(rs.gamma_down, rel=1e-6)
    assert k[1, 1, 0, 0].real == pytest.approx(-rs.gamma_up, rel=1e-3)
    assert abs(k[1, 1, 1, 1].imag) < 1e-12 * rs.gamma_down


# the kernel's parameter ranges, shared by its two tests below
_KERNEL_DRAW = dict(epsilon=(0.05, 2.0), delta=(0.0, 1.0), g=(0.005, 0.1),
                    kappa=(0.05, 1.0), f=(0.1, 1.0), delta_omega=(-1.5, 1.5))


@seeded_cases(2711, 40, dict(_KERNEL_DRAW, log_t=(-6.0, math.log10(60.0))))
def test_memory_kernel_matches_quadrature(epsilon, delta, g, kappa, f,
                                          delta_omega, log_t):
    # the closed form against adaptive quadrature of M(t, tau) over tau,
    # from the expm1 regime (kappa t ~ 1e-7) to many memory times
    p = SystemParams(epsilon=epsilon, delta=delta, g=g, kappa=kappa, f=f,
                     delta_omega=delta_omega, s_ii=1.0)
    b = eigenbasis(epsilon, delta)
    t = 10.0 ** log_t
    ref, _ = sci_integrate.quad_vec(lambda tau: redfield_tensor(p, b, t, tau),
                                    0.0, t, epsabs=0.0, epsrel=1e-13,
                                    limit=2000)
    got = _memory_kernel(p, b, t)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@seeded_cases(2712, 30, dict(_KERNEL_DRAW, times=lambda rng: rng.uniform(
    0.0, 400.0, rng.integers(0, 12, endpoint=True)).tolist()))
def test_memory_kernel_over_array_equals_scalar_calls(epsilon, delta, g, kappa,
                                                      f, delta_omega, times):
    # time_dependent mode tabulates K over all stage times of an interval in
    # one call; that must be exactly what per-time calls give, at the ends
    # of [0, 400], the smallest positive time and up to 12 drawn times
    p = SystemParams(epsilon=epsilon, delta=delta, g=g, kappa=kappa, f=f,
                     delta_omega=delta_omega, s_ii=1.0)
    b = eigenbasis(epsilon, delta)
    t = np.array([0.0, 5e-324, 400.0] + times)
    got = _memory_kernel(p, b, t)
    assert got.shape == t.shape + (2, 2, 2, 2)
    want = np.stack([_memory_kernel(p, b, float(tk)) for tk in t])
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- reduced dynamics

def test_markov_relaxation_matches_rate_equation():
    e = B_SYM.splitting
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=e, s_ii=20.0)
    rs = rates(p, B_SYM)
    g_tot = rs.gamma_up + rs.gamma_down
    tg = np.linspace(0.0, 2.0 / g_tot, 9)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rec = evolve_reduced(p, B_SYM, rho0, tg, mode="markov")
    # oracle: scipy.linalg.expm of the 4x4 rate generator acting on
    # (rho_00, rho_01, rho_10, rho_11)
    gen = np.array([[-rs.gamma_up, 0.0, 0.0, rs.gamma_down],
                    [0.0, -rs.gamma_phi, 0.0, 0.0],
                    [0.0, 0.0, -rs.gamma_phi, 0.0],
                    [rs.gamma_up, 0.0, 0.0, -rs.gamma_down]])
    expected = np.array([(scipy.linalg.expm(gen * t) @ rho0.ravel())[3]
                         for t in tg]).real
    np.testing.assert_allclose(rec.populations[:, 1], expected, rtol=1e-8)
    np.testing.assert_allclose(rec.populations.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(rec.sigma_z,
                               rec.populations[:, 1] - rec.populations[:, 0],
                               atol=1e-15)
    np.testing.assert_allclose(rec.coherence01, 0.0, atol=1e-15)


def test_markov_coherence_decays_at_gamma_phi():
    p = SystemParams(epsilon=1.0, delta=0.0, g=0.01, kappa=1.0, f=0.5,
                     delta_omega=0.0, s_ii=2.0)
    b = eigenbasis(1.0, 0.0)
    rs = rates(p, b)
    tg = np.linspace(0.0, 5000.0, 51)
    rec = evolve_reduced(p, b, 0.5 * np.ones((2, 2), dtype=complex), tg,
                         mode="markov")
    np.testing.assert_allclose(rec.coherence01,
                               0.5 * np.exp(-rs.gamma_phi * tg), rtol=1e-6)


def test_time_dependent_coherence_doubles_the_markov_rate():
    # the finite-memory kernel keeps both frequency components of the
    # dephasing integrand; for the diagonal coupling this doubles the
    # stationary pure-dephasing rate relative to the one-sided formula
    p = SystemParams(epsilon=1.0, delta=0.0, g=0.01, kappa=1.0, f=0.5,
                     delta_omega=0.0, s_ii=2.0)
    b = eigenbasis(1.0, 0.0)
    rs = rates(p, b)
    tg = np.linspace(0.0, 16.0, 33)
    rec = evolve_reduced(p, b, 0.5 * np.ones((2, 2), dtype=complex), tg,
                         mode="time_dependent")
    mask = tg >= 8.0
    slope = np.polyfit(tg[mask], np.log(rec.coherence01[mask]), 1)[0]
    assert -slope / (2.0 * rs.gamma_phi_pure) == pytest.approx(1.0, abs=5e-2)


def test_time_dependent_relaxation_matches_rates_when_dominant():
    # near eta = pi/2 pure dephasing is negligible and the post-transient
    # population slope must reproduce gamma_up + gamma_down
    p = SystemParams(epsilon=0.05, delta=1.0, g=0.05, kappa=1.0, f=1.0,
                     delta_omega=0.0, s_ii=2.0)
    b = eigenbasis(0.05, 1.0)
    rs = rates(p, b)
    g_tot = rs.gamma_up + rs.gamma_down
    assert rs.gamma_phi_pure < 0.01 * g_tot
    tg = np.linspace(0.0, 40.0, 21)
    rec = evolve_reduced(p, b, np.diag([0.0, 1.0]).astype(complex), tg,
                         mode="time_dependent")
    mask = tg >= 20.0
    slope = np.polyfit(tg[mask],
                       np.log(rec.populations[mask, 1] - 0.5), 1)[0]
    assert -slope == pytest.approx(g_tot, rel=2e-2)


def test_evolve_reduced_validation():
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="mode must be"):
        evolve_reduced(P_SYM, B_SYM, rho0, [0.0, 1.0], mode="secular")
    with pytest.raises(ValueError, match="rho0 must be 2x2"):
        evolve_reduced(P_SYM, B_SYM, np.eye(3), [0.0, 1.0])
    with pytest.raises(ValueError, match="trace"):
        evolve_reduced(P_SYM, B_SYM, np.diag([1.0, 1.0]), [0.0, 1.0])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_reduced(P_SYM, B_SYM, np.array([[0.5, 0.2], [0.0, 0.5]]),
                       [0.0, 1.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        evolve_reduced(P_SYM, B_SYM, np.diag([1.5, -0.5]), [0.0, 1.0])
    with pytest.raises(ValueError, match="must start at 0"):
        evolve_reduced(P_SYM, B_SYM, rho0, [1.0, 2.0])


@pytest.mark.parametrize("mode", ["markov", "time_dependent"])
@pytest.mark.parametrize("where, bad", [((0, 0), np.nan), ((0, 1), np.inf)])
def test_evolve_reduced_rejects_non_finite_rho0(mode, where, bad):
    # bad input is named as such in both modes, not passed on as nan
    # populations or as a NumericsError from the integration
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    rho0[where] = bad
    with pytest.raises(ValueError, match="^rho0 contains non-finite entries$"):
        evolve_reduced(P_SYM, B_SYM, rho0, [0.0, 1.0], mode=mode)


@pytest.mark.parametrize("lo", [-1e-9 * (1.0 + 1e-3), -1e-9 * (1.0 - 1e-3),
                                -1e-9 - 1e-12, -1e-9 + 1e-12,
                                -1e-9 * (1.0 - 5e-7), 0.0])
def test_rho0_positivity_verdict_matches_eigvalsh(lo):
    # the -1e-9 floor on either side, inside the Cholesky margin and at 0,
    # judged against eigvalsh as the oracle
    c, s = math.cos(0.3), math.sin(0.3) * np.exp(0.7j)
    u = np.array([[c, -s.conjugate()], [s, c]])
    m = (u * [lo, 1.0 - lo]) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    if np.linalg.eigvalsh(m).min() < -1e-9:
        with pytest.raises(ValueError, match="^rho0 must be positive semidefinite$"):
            evolve_reduced(P_SYM, B_SYM, m, [0.0, 1.0])
    else:
        evolve_reduced(P_SYM, B_SYM, m, [0.0, 1.0])


# the reduced-job relaxation point and the coherence-doubling point
_TD_CASES = [
    (SystemParams(epsilon=0.05, delta=1.0, g=0.05, kappa=1.0, f=1.0,
                  delta_omega=0.0, s_ii=2.0),
     np.diag([0.0, 1.0]).astype(complex), np.linspace(0.0, 40.0, 21)),
    (SystemParams(epsilon=1.0, delta=0.0, g=0.01, kappa=1.0, f=0.5,
                  delta_omega=0.0, s_ii=2.0),
     0.5 * np.ones((2, 2), dtype=complex), np.linspace(0.0, 16.0, 33)),
]


def _assert_time_dependent_matches_dop853(p, rho0, tg):
    # independent integrator: DOP853 on rho' = -K(t) rho with K from
    # scalar kernel calls at whatever times the adaptive stepper picks
    b = eigenbasis(p.epsilon, p.delta)
    rec = evolve_reduced(p, b, rho0, tg, mode="time_dependent")
    sol = sci_integrate.solve_ivp(
        lambda t, y: -(_memory_kernel(p, b, t).reshape(4, 4) @ y),
        (tg[0], tg[-1]), rho0.reshape(4), method="DOP853", t_eval=tg,
        rtol=1e-12, atol=1e-14)
    assert sol.success
    ref = sol.y.T.reshape(-1, 2, 2)
    assert np.abs(rec.matrices - ref).max() <= 1e-10


@pytest.mark.parametrize("p, rho0, tg", _TD_CASES)
def test_time_dependent_matches_adaptive_ode_oracle(p, rho0, tg):
    _assert_time_dependent_matches_dop853(p, rho0, tg)


@seeded_cases(2713, 10, dict(g=(0.04, 0.06), f=(0.8, 1.2),
                             epsilon=[(-2.0, -0.05), (0.05, 2.0)],
                             delta=[0.0, (0.05, 2.0)], kappa=(0.5, 2.0),
                             delta_omega=(-1.0, 1.0), mix=(0.0, 1.0),
                             phase=(-math.pi, math.pi)),
              # the reduced job's point, at its largest g and f, from |+>
              reduced_job=dict(g=0.06, f=1.2, epsilon=0.05, delta=1.0,
                               kappa=1.0, delta_omega=0.0, mix=1.0, phase=0.0))
def test_time_dependent_step_matches_adaptive_ode_oracle_over_draws(
        g, f, epsilon, delta, kappa, delta_omega, mix, phase):
    # the step rule against DOP853 over the reduced job's (g, f) ranges,
    # at its operating point and at general epsilon, delta, kappa and
    # delta_omega, from a mixed state with a complex coherence
    p = SystemParams(epsilon=epsilon, delta=delta, g=g, kappa=kappa, f=f,
                     delta_omega=delta_omega, s_ii=2.0)
    coh = 0.5 * mix * np.exp(1j * phase)
    rho0 = np.array([[0.5, coh], [np.conj(coh), 0.5]])
    _assert_time_dependent_matches_dop853(p, rho0, np.linspace(0.0, 40.0, 21))


def test_time_dependent_tabulates_the_kernel_once_per_interval(monkeypatch):
    # an irregular grid with several substeps per interval: one kernel call
    # (over an array of times) per grid interval, and the same matrices
    # (the stage times themselves are test_core's contract for integrate)
    p, rho0, _ = _TD_CASES[0]
    b = eigenbasis(p.epsilon, p.delta)
    grid = np.array([0.0, 0.3, 1.0, 1.7])
    step = 1.0 / (50.0 * max(b.splitting, p.kappa, abs(p.delta_omega)))
    assert np.ceil(np.diff(grid) / step).max() > 1
    want = evolve_reduced(p, b, rho0, grid, mode="time_dependent")

    kernel_times, steps = [], []
    kernel, run = backaction._memory_kernel, backaction.integrate

    def counted_kernel(params, basis, t):
        kernel_times.append(np.array(t))
        return kernel(params, basis, t)

    def recording_integrate(generator, y0, t_grid, h_max):
        steps.append(h_max)
        return run(generator, y0, t_grid, h_max)

    monkeypatch.setattr(backaction, "_memory_kernel", counted_kernel)
    monkeypatch.setattr(backaction, "integrate", recording_integrate)
    got = evolve_reduced(p, b, rho0, grid, mode="time_dependent")

    assert np.array_equal(got.matrices, want.matrices)
    assert steps == [step]
    assert len(kernel_times) == len(grid) - 1
    assert all(k.ndim == 1 for k in kernel_times)


def test_evolve_reduced_names_the_first_invalid_node(monkeypatch):
    # the per-node check runs over the whole record at once but must still
    # report the earliest failing node, trace before Hermiticity
    ok = 0.5 * np.eye(2, dtype=complex)
    skewed = ok + np.array([[0.0, 2e-9], [0.0, 0.0]])
    drifted = 1.1 * skewed
    grid = [0.0, 0.25, 0.5, 0.75]
    for nodes, message in (([ok, ok, skewed, drifted],
                            "lost Hermiticity at t = 0.5"),
                           ([ok, drifted, skewed, ok],
                            "trace drifted at t = 0.25")):
        monkeypatch.setattr(backaction, "integrate",
                            lambda gen, y0, t, step, nodes=nodes: nodes)
        with pytest.raises(NumericsError, match=message):
            evolve_reduced(P_SYM, B_SYM, ok, grid, mode="time_dependent")
