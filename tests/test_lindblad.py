"""Unit tests for the joint master-equation integrator.

Oracles: block structure of hand-assembled Hamiltonians, the exactly
solvable driven cavity (g = 0), the conditional-amplitude ODE solution,
the elementary antiderivative and scipy quadrature of the pointer product
that feeds the closed-form coherence, and scipy.linalg.expm of the
explicitly assembled superoperator for the exact propagator.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.analytic import alpha_of_t, gamma_m, pointer_state
from qndsim.core import (
    DensityMatrix,
    FockSpace,
    NumericsError,
    SystemParams,
    annihilation,
    expm_action,
    fock_vacuum,
    integrate,
    number_operator,
    qubit_operator,
    tensor,
)
from qndsim.lindblad import (
    build_liouvillian,
    coherence_solution,
    conditional_amplitude,
    evolve,
    repeatability_experiment,
)

# the weak-drive operating point exercised throughout: conditioned
# detunings 0 and 0.6, about one steady photon in the shifted sector
P_ME = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05,
                    delta_omega=0.3, s_ii=20.0)


def plus_vacuum(space):
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    return DensityMatrix(space, tensor(plus, fock_vacuum(space)))


# ---------------------------------------------------------------- generator

def test_sigma_z_hamiltonian_blocks():
    space = FockSpace(6)
    p = SystemParams(epsilon=2.0, g=0.3, kappa=0.1, f=0.7, delta_omega=0.5,
                     s_ii=1.0)
    h = build_liouvillian(p, space).hamiltonian
    n_op = number_operator(space)
    a = annihilation(space)
    drive = p.f * (a + a.conj().T)
    eye = np.eye(6)
    d = space.dim
    # sigma_z = +1 sector sees detuning delta_omega - g
    np.testing.assert_allclose(h[:d, :d],
                               (p.epsilon / 2.0) * eye
                               + (p.delta_omega - p.g) * n_op + drive,
                               atol=1e-14)
    np.testing.assert_allclose(h[d:, d:],
                               -(p.epsilon / 2.0) * eye
                               + (p.delta_omega + p.g) * n_op + drive,
                               atol=1e-14)
    np.testing.assert_allclose(h[:d, d:], np.zeros((d, d)), atol=0)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_sigma_n_hamiltonian_blocks():
    space = FockSpace(5)
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=0.4, s_ii=1.0)
    h = build_liouvillian(p, space, coupling_mode="sigma_n").hamiltonian
    eta = math.atan2(p.delta, p.epsilon)
    energy = math.hypot(p.epsilon, p.delta)
    n_op = number_operator(space)
    a = annihilation(space)
    drive = p.f * (a + a.conj().T)
    eye = np.eye(5)
    d = space.dim
    np.testing.assert_allclose(h[:d, :d],
                               (energy / 2.0) * eye
                               + (p.delta_omega - p.g * math.cos(eta)) * n_op
                               + drive, atol=1e-14)
    # the QND-violating piece couples the sectors through -g sin(eta) n
    np.testing.assert_allclose(h[:d, d:], -p.g * math.sin(eta) * n_op,
                               atol=1e-14)


def test_build_liouvillian_validation():
    space = FockSpace(4)
    with pytest.raises(ValueError, match="sigma_n mode undefined"):
        build_liouvillian(SystemParams(epsilon=0.0, delta=0.0, s_ii=1.0),
                          space, coupling_mode="sigma_n")
    with pytest.raises(ValueError, match="coupling_mode must be"):
        build_liouvillian(P_ME, space, coupling_mode="dispersive")


def test_dissipators_only_for_nonzero_rates():
    space = FockSpace(4)
    liou = build_liouvillian(P_ME, space)
    assert len(liou.dissipators) == 1
    assert liou.dissipators[0][0] == P_ME.kappa
    p = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     gamma1=0.02, gamma2=0.05, s_ii=1.0)
    liou2 = build_liouvillian(p, space)
    assert [c for c, _, _ in liou2.dissipators] == [0.1, 0.02, 0.025]


# random generators for the property tests: both coupling modes, all
# three dissipators on, fock_dim 6..8
_GENERATOR_DRAW = dict(
    fock_dim=st.integers(6, 8),
    mode=st.sampled_from(["sigma_z", "sigma_n"]),
    epsilon=st.floats(0.5, 10.0),
    delta=st.floats(0.05, 0.5),
    g=st.floats(0.0, 0.3),
    kappa=st.floats(0.05, 1.0),
    gamma1=st.floats(0.001, 0.1),
    gamma2=st.floats(0.001, 0.1),
    f=st.floats(0.0, 1.0),
    delta_omega=st.floats(-1.0, 1.0),
)
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _draw_liouvillian(fock_dim, mode, **phys):
    return build_liouvillian(SystemParams(s_ii=1.0, **phys), FockSpace(fock_dim),
                             coupling_mode=mode)


def _superoperator(liou):
    # row-major vec: vec(A X B) = kron(A, B.T) vec(X); built from the
    # commutator/anticommutator form, independently of apply()
    h = liou.hamiltonian
    eye = np.eye(len(h))
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c, l_op, _ in liou.dissipators:
        ldl = l_op.conj().T @ l_op
        sup += c * (np.kron(l_op, l_op.conj())
                    - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return sup


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / rho.trace()


@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), **_GENERATOR_DRAW)
def test_apply_matches_commutator_form(seed, fock_dim, mode, **phys):
    liou = _draw_liouvillian(fock_dim, mode, **phys)
    rng = np.random.default_rng(seed)
    n = 2 * fock_dim
    rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = liou.hamiltonian
    ref = -1j * (h @ rho - rho @ h)
    for c, l_op, _ in liou.dissipators:
        ldl = l_op.conj().T @ l_op
        ref += c * (l_op @ rho @ l_op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    got = liou.apply(rho)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@_PROPERTY
@given(**_GENERATOR_DRAW)
def test_norm_bound_dominates_superoperator_norm(fock_dim, mode, **phys):
    liou = _draw_liouvillian(fock_dim, mode, **phys)
    assert liou.norm_bound >= np.linalg.norm(_superoperator(liou), 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(log_x=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1),
       **_GENERATOR_DRAW)
def test_expm_action_matches_dense_exponential(log_x, seed, fock_dim, mode,
                                               **phys):
    # norm * dt from 1e-3 to 1e3 on the last interval of an irregular grid
    liou = _draw_liouvillian(fock_dim, mode, **phys)
    span = 10.0 ** log_x / liou.norm_bound
    grid = np.array([0.0, 0.013, 0.31, 0.31 + span])
    rho0 = _random_state(2 * fock_dim, seed)
    got = expm_action(liou.apply, rho0, grid, liou.norm_bound)
    sup = _superoperator(liou)
    for t, m in zip(grid, got):
        ref = scipy.linalg.expm(sup * t) @ rho0.ravel()
        assert np.max(np.abs(m.ravel() - ref)) <= 1e-10


def test_liouvillian_apply_is_traceless():
    space = FockSpace(5)
    liou = build_liouvillian(P_ME, space)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = m @ m.conj().T
    rho /= rho.trace()
    assert abs(liou.apply(rho).trace()) < 1e-14


# ---------------------------------------------------------------- evolution

def test_driven_cavity_reaches_coherent_steady_state():
    # g = 0: the resonator decouples from the qubit and settles on the
    # coherent state -if/(kappa/2 + i delta_omega)
    p = SystemParams(epsilon=0.0, g=0.0, kappa=0.1, f=0.05, delta_omega=0.2,
                     s_ii=1.0)
    space = FockSpace(12)
    rec = evolve(build_liouvillian(p, space), plus_vacuum(space),
                 np.array([0.0, 400.0]))
    alpha = -1j * p.f / (p.kappa / 2.0 + 1j * p.delta_omega)
    assert rec.a_mean[-1] == pytest.approx(alpha, rel=1e-6)
    assert rec.n_mean[-1] == pytest.approx(abs(alpha) ** 2, rel=1e-6)
    assert rec.valid


def test_evolution_record_observables():
    space = FockSpace(10)
    rec = evolve(build_liouvillian(P_ME, space), plus_vacuum(space),
                 np.linspace(0.0, 10.0, 6))
    # sigma_z commutes with the generator in sigma_z mode
    np.testing.assert_allclose(rec.sigma_z, np.zeros(6), atol=1e-10)
    assert rec.coherence01[0] == pytest.approx(0.5, abs=1e-14)
    assert rec.a_mean[0] == 0.0
    assert np.all(np.diff(rec.n_mean[:3]) > 0.0)
    assert rec.valid
    traces = [abs(st.matrix.trace() - 1.0) for st in rec.states]
    assert max(traces) < 1e-9


def test_evolve_rejects_mismatched_space():
    liou = build_liouvillian(P_ME, FockSpace(8))
    with pytest.raises(ValueError, match="different Fock space"):
        evolve(liou, plus_vacuum(FockSpace(6)), [0.0, 1.0])


def test_truncation_overflow_flags_invalid():
    # one steady photon against a 4-level space: the top levels fill up
    p = SystemParams(epsilon=0.0, g=0.0, kappa=0.1, f=0.05, delta_omega=0.0,
                     s_ii=1.0)
    space = FockSpace(4)
    rec = evolve(build_liouvillian(p, space), plus_vacuum(space),
                 np.array([0.0, 60.0]))
    assert not rec.valid


def test_unstable_step_raises_numerics_error():
    # RK4 at step 1 is unstable on this generator (|h lambda| ~ 13) and
    # overflows near t = 118
    p = SystemParams(epsilon=10.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     s_ii=1.0)
    space = FockSpace(6)
    liou = build_liouvillian(p, space)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at t ="):
            integrate(lambda t, y: liou.apply(y), plus_vacuum(space).matrix,
                      np.array([0.0, 200.0]), step=1.0)


# ---------------------------------------------------------------- conditional amplitudes

def test_conditional_amplitudes_follow_pointer_trajectories():
    space = FockSpace(12)
    tg = np.linspace(0.0, 10.0, 21)
    rec = evolve(build_liouvillian(P_ME, space), plus_vacuum(space), tg)
    for qubit_index, sz in ((0, +1), (1, -1)):
        me = np.array([conditional_amplitude(st, qubit_index)
                       for st in rec.states])
        ref = alpha_of_t(pointer_state(P_ME, sz), P_ME.kappa, tg)
        assert np.max(np.abs(me - ref)) < 1e-6


def test_conditional_amplitude_validation():
    space = FockSpace(6)
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    rho = DensityMatrix(space, tensor(ground, fock_vacuum(space)))
    assert conditional_amplitude(rho, 0) == 0.0
    with pytest.raises(ValueError, match="no population"):
        conditional_amplitude(rho, 1)
    with pytest.raises(ValueError, match="qubit_index must be"):
        conditional_amplitude(rho, 2)


# ---------------------------------------------------------------- closed-form coherence

def _pointer_integral_closed(p: SystemParams, t: float) -> complex:
    # antiderivative of (f^2/(lam_p lam_m*)) (1 - e^{-lam_p s})(1 - e^{-lam_m* s})
    lam_p = p.kappa / 2.0 + 1j * (p.delta_omega + p.g)
    lam_mc = p.kappa / 2.0 - 1j * (p.delta_omega - p.g)
    pref = p.f ** 2 / (lam_p * lam_mc)

    def ramp(lam):
        return (np.exp(-lam * t) - 1.0) / lam

    return pref * (t + ramp(lam_p) + ramp(lam_mc) - ramp(lam_p + lam_mc))


def test_coherence_solution_matches_closed_integral():
    p = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     gamma2=0.01, s_ii=20.0)
    for t in (0.5, 3.0, 17.0, 40.0):
        expected = 0.5 * np.exp(-1j * (p.epsilon - 1j * p.gamma2) * t
                                - 2j * p.g * _pointer_integral_closed(p, t))
        got = coherence_solution(p, t, 0.5)
        assert got == pytest.approx(expected, rel=1e-9)
    assert coherence_solution(p, 0.0, 0.5) == 0.5
    with pytest.raises(ValueError):
        coherence_solution(p, -1.0, 0.5)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kappa=st.floats(0.05, 1.0), g=st.floats(0.0, 0.5), f=st.floats(0.0, 1.0),
       delta_omega=st.floats(-1.0, 1.0), gamma2=st.floats(0.0, 0.05),
       epsilon=st.floats(0.0, 10.0), t=st.floats(1e-4, 60.0))
def test_coherence_solution_matches_quadrature(kappa, g, f, delta_omega,
                                               gamma2, epsilon, t):
    p = SystemParams(epsilon=epsilon, g=g, kappa=kappa, f=f,
                     delta_omega=delta_omega, gamma2=gamma2, s_ii=1.0)
    lam_p = kappa / 2.0 + 1j * (delta_omega + g)
    lam_m = kappa / 2.0 + 1j * (delta_omega - g)

    def product(s):
        a_p = (-1j * f / lam_p) * (1.0 - np.exp(-lam_p * s))
        a_m = (-1j * f / lam_m) * (1.0 - np.exp(-lam_m * s))
        return a_p * np.conj(a_m)

    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=400)
    integral = (scipy.integrate.quad(lambda s: product(s).real, 0.0, t, **opts)[0]
                + 1j * scipy.integrate.quad(lambda s: product(s).imag, 0.0, t,
                                            **opts)[0])
    expected = 0.5 * np.exp(-1j * (epsilon - 1j * gamma2) * t
                            - 2j * g * integral)
    assert coherence_solution(p, t, 0.5) == pytest.approx(expected, rel=1e-9)


def test_coherence_solution_matches_master_equation():
    p = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     gamma2=0.01, s_ii=20.0)
    space = FockSpace(12)
    tg = np.linspace(0.0, 15.0, 16)
    rec = evolve(build_liouvillian(p, space), plus_vacuum(space), tg)
    for k in range(1, len(tg)):
        closed = abs(coherence_solution(p, tg[k], 0.5))
        assert closed == pytest.approx(rec.coherence01[k], rel=1e-6)


def test_coherence_pure_dephasing_limit():
    # g = 0 removes the measurement back-action entirely
    p = SystemParams(epsilon=0.0, g=0.0, kappa=0.1, f=0.05, delta_omega=0.3,
                     gamma2=0.02, s_ii=1.0)
    for t in (1.0, 10.0, 50.0):
        assert abs(coherence_solution(p, t, 0.5)) == pytest.approx(
            0.5 * math.exp(-p.gamma2 * t), rel=1e-12)


def test_long_time_coherence_decays_at_gamma_m():
    # after the pointer transient (kappa t >~ a few) the master-equation
    # coherence decays exponentially at the steady dephasing rate
    space = FockSpace(12)
    tg = np.linspace(0.0, 90.0, 31)
    rec = evolve(build_liouvillian(P_ME, space), plus_vacuum(space), tg)
    mask = tg >= 60.0
    slope = np.polyfit(tg[mask], np.log(rec.coherence01[mask]), 1)[0]
    assert -slope == pytest.approx(gamma_m(P_ME), rel=5e-2)


# ---------------------------------------------------------------- repeatability

def test_repeated_measurements_agree_in_sigma_z_mode():
    space = FockSpace(12)
    liou = build_liouvillian(P_ME, space)
    stats = repeatability_experiment(liou, plus_vacuum(space),
                                     t_meas=20.0, n_meas=3)
    np.testing.assert_allclose(stats.pair_agreement, 1.0, atol=1e-12)
    assert stats.mean_agreement == pytest.approx(1.0, abs=1e-12)
    assert stats.n_branches == 2
    assert stats.valid


def test_repeatability_single_branch_from_pure_sector():
    space = FockSpace(12)
    liou = build_liouvillian(P_ME, space)
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    rho0 = DensityMatrix(space, tensor(ground, fock_vacuum(space)))
    stats = repeatability_experiment(liou, rho0, t_meas=10.0, n_meas=2)
    assert stats.n_branches == 1
    assert stats.pair_agreement[0] == pytest.approx(1.0, abs=1e-12)


def test_repeatability_validation():
    space = FockSpace(6)
    liou = build_liouvillian(P_ME, space)
    rho0 = plus_vacuum(space)
    with pytest.raises(ValueError, match="t_meas must be > 0"):
        repeatability_experiment(liou, rho0, t_meas=0.0, n_meas=2)
    with pytest.raises(ValueError, match="n_meas must be in 2..6"):
        repeatability_experiment(liou, rho0, t_meas=1.0, n_meas=1)
    with pytest.raises(ValueError, match="n_meas must be in 2..6"):
        repeatability_experiment(liou, rho0, t_meas=1.0, n_meas=7)
