"""Unit tests for the closed-form readout observables.

Oracles: the scalar pointer ODE integrated with the package RK4 stepper,
the Gaussian cdf for the outcome probabilities, the amplitude and
weak-coupling forms of the dephasing rate below, and frozen values
computed from the defining formulas at pinned parameter points.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import stats

from qndsim.analytic import (
    alpha_of_t,
    gamma_m,
    optimal_detuning,
    outcome_probability,
    pointer_state,
    signal_amplitude,
)
from qndsim.core import SystemParams, integrate

from tables import seeded_cases

# the detuning-sweep operating point used for the figure grids
P_FIG = SystemParams(f=1.0, kappa=0.1, g=0.3, delta_omega=0.3, s_ii=20.0)
P_WEAK = SystemParams(epsilon=1.0, g=0.01, kappa=1.0, f=0.5,
                      delta_omega=0.0, s_ii=2.0)


def _steady_amplitudes(p: SystemParams) -> tuple:
    # alpha_+ and alpha_- = -if/(kappa/2 + i(delta_omega +- g)), labelled by
    # the detuning sign: alpha_+ belongs to sigma_z = -1
    return tuple(-1j * p.f / (p.kappa / 2.0 + 1j * (p.delta_omega + s * p.g))
                 for s in (1.0, -1.0))


def gamma_m_from_amplitudes(p: SystemParams) -> float:
    """The amplitude form 2g Im(alpha_+* alpha_-) of gamma_m.

    The conjugation is placed so the rate is non-negative and even in
    delta_omega; the unconjugated product is odd in delta_omega and
    cannot be a decay rate.
    """
    a_plus, a_minus = _steady_amplitudes(p)
    return 2.0 * p.g * (np.conj(a_plus) * a_minus).imag


def weak_coupling_gamma_m(p: SystemParams) -> float:
    """Weak-coupling dephasing kappa * nbar * arctan(2g/kappa)^2, valid at
    delta_omega = 0 (where n_+ = n_-) and g << kappa."""
    n_bar = abs(p.steady_amplitude(p.g)) ** 2
    theta0 = math.atan(2.0 * p.g / p.kappa)
    return p.kappa * n_bar * theta0 ** 2


# ---------------------------------------------------------------- pointer states

def test_pointer_state_detunings_and_amplitudes():
    a_p = pointer_state(P_FIG, +1)
    a_m = pointer_state(P_FIG, -1)
    # qubit-conditioned detuning delta_omega - g sigma_z
    assert P_FIG.delta_omega - P_FIG.g * (+1) == pytest.approx(0.0, abs=1e-15)
    assert P_FIG.delta_omega - P_FIG.g * (-1) == pytest.approx(0.6)
    # A = f / sqrt(det^2 + kappa^2/4); frozen at this point
    assert abs(a_p) == pytest.approx(20.0, rel=1e-14)
    assert abs(a_m) == pytest.approx(1.6609095970747996, rel=1e-12)


def test_pointer_state_phase_is_steady_drive_response():
    # at zero conditioned detuning the response lags the drive by pi/2
    assert cmath.phase(pointer_state(P_FIG, +1)) == pytest.approx(-math.pi / 2.0)
    assert cmath.phase(pointer_state(P_FIG, -1)) == pytest.approx(
        -3.058451421701352, rel=1e-12)
    # the amplitude must equal -if/(kappa/2 + i det) in every sector
    for sz in (+1, -1):
        det = P_FIG.delta_omega - P_FIG.g * sz
        ref = -1j * P_FIG.f / (P_FIG.kappa / 2.0 + 1j * det)
        assert pointer_state(P_FIG, sz) == pytest.approx(ref, rel=1e-13)


def test_pointer_state_validates_sigma_z():
    with pytest.raises(ValueError, match="sigma_z must be"):
        pointer_state(P_FIG, 0)


def test_pointer_state_is_the_steady_amplitude_at_the_conditioned_detuning():
    # one formula for the steady amplitude: pointer_state is
    # SystemParams.steady_amplitude at delta_omega - g sigma_z, bit for bit
    for p in (P_FIG, P_WEAK,
              SystemParams(f=0.8, kappa=0.15, g=0.3, delta_omega=-0.45)):
        for sz in (+1, -1):
            assert pointer_state(p, sz) == p.steady_amplitude(
                p.delta_omega - p.g * sz)
    for call in (lambda: pointer_state(P_FIG, 0),
                 lambda: alpha_of_t(P_FIG, 0, 1.0)):
        with pytest.raises(ValueError, match="sigma_z must be \\+1 or -1"):
            call()


def test_alpha_of_t_solves_the_conditional_ode():
    # oracle: integrate d<a>/dt = -if - (i det + kappa/2) <a> from 0
    for sz in (+1, -1):
        tg = np.linspace(0.0, 60.0, 31)
        det = P_FIG.delta_omega - P_FIG.g * sz
        lam = 1j * det + P_FIG.kappa / 2.0
        # linear in the augmented state (<a>, 1)
        gen = np.array([[-lam, -1j * P_FIG.f], [0.0, 0.0]])
        ys = integrate(lambda ts: np.broadcast_to(gen, (len(ts), 2, 2)),
                       np.array([0.0, 1.0 + 0j]), tg, step=0.02)
        ode = np.array([y[0] for y in ys])
        np.testing.assert_allclose(alpha_of_t(P_FIG, sz, tg.tolist()), ode,
                                   atol=1e-9)


def test_alpha_of_t_endpoints():
    assert alpha_of_t(P_FIG, -1, 0.0) == 0.0
    late = alpha_of_t(P_FIG, -1, 1000.0)
    assert late == pytest.approx(pointer_state(P_FIG, -1), rel=1e-12)
    # a NaN time is rejected like a negative one, alone or in a list
    for t in (-1.0, math.nan, [0.1, math.nan], (0.1, -1.0)):
        with pytest.raises(ValueError, match="t must be >= 0"):
            alpha_of_t(P_FIG, -1, t)


def test_steady_amplitudes_frozen():
    # alpha_- (detuning delta_omega - g) is the sigma_z = +1 pointer and
    # alpha_+ the sigma_z = -1 one; n_-+ = |alpha_-+|^2 are the photon
    # numbers gamma_m and the analytic CSV read
    a_minus, a_plus = pointer_state(P_FIG, +1), pointer_state(P_FIG, -1)
    assert a_minus == pytest.approx(-20j, rel=1e-14)
    assert a_plus == pytest.approx(-1.6551724137931036
                                   - 0.13793103448275865j, rel=1e-13)
    assert abs(a_minus) ** 2 == pytest.approx(400.0, rel=1e-14)
    assert abs(a_plus) ** 2 == pytest.approx(2.758620689655173, rel=1e-13)
    for alpha, a in zip((a_plus, a_minus), _steady_amplitudes(P_FIG)):
        assert alpha == pytest.approx(a, rel=1e-13)


# ---------------------------------------------------------------- dephasing rate

def test_gamma_m_frozen_values():
    assert gamma_m(P_FIG) == pytest.approx(19.862068965517246, rel=1e-13)
    p = SystemParams(epsilon=0.0, f=0.05, kappa=0.1, g=0.3,
                     delta_omega=0.3, s_ii=20.0)
    assert gamma_m(p) == pytest.approx(0.0496551724137931, rel=1e-13)


def test_gamma_m_three_equivalent_forms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = SystemParams(g=rng.uniform(0.05, 0.5), kappa=rng.uniform(0.05, 1.0),
                         f=rng.uniform(0.1, 2.0), delta_omega=rng.uniform(-1, 1),
                         s_ii=1.0)
        ref = gamma_m(p)
        assert gamma_m_from_amplitudes(p) == pytest.approx(ref, rel=1e-12)
        a_plus, a_minus = _steady_amplitudes(p)
        sep_form = 0.5 * p.kappa * abs(a_plus - a_minus) ** 2
        assert sep_form == pytest.approx(ref, rel=1e-12)


def test_gamma_m_even_in_detuning():
    base = dict(g=0.3, kappa=0.2, f=0.7, s_ii=1.0)
    for dw in (0.1, 0.45, 0.9):
        gp = gamma_m(SystemParams(delta_omega=dw, **base))
        gm = gamma_m(SystemParams(delta_omega=-dw, **base))
        assert gp == pytest.approx(gm, rel=1e-14)


# ---------------------------------------------------------------- signal amplitude

def test_signal_amplitude_phase_difference_form():
    # |A| = sqrt(2) f |sin(phi_0 - phi_1)|
    for dw in (0.0, 0.2, -0.45):
        p = SystemParams(f=0.8, kappa=0.15, g=0.3, delta_omega=dw, s_ii=1.0)
        dphi = (cmath.phase(pointer_state(p, +1))
                - cmath.phase(pointer_state(p, -1)))
        assert abs(signal_amplitude(p)) == pytest.approx(
            math.sqrt(2.0) * p.f * abs(math.sin(dphi)), rel=1e-12)


def test_signal_amplitude_peaks_at_quadrature_detuning():
    # |A| is maximal (= sqrt(2) f) exactly where the pointer phases differ
    # by pi/2, i.e. delta_omega = +/- sqrt(g^2 - kappa^2/4)
    dstar = math.sqrt(P_FIG.g ** 2 - P_FIG.kappa ** 2 / 4.0)
    for sign in (+1.0, -1.0):
        p = SystemParams(f=1.0, kappa=0.1, g=0.3, delta_omega=sign * dstar,
                         s_ii=20.0)
        assert abs(signal_amplitude(p)) == pytest.approx(math.sqrt(2.0),
                                                         rel=1e-12)
    # strictly smaller slightly off the peak
    for dw in (dstar - 1e-3, dstar + 1e-3):
        p = SystemParams(f=1.0, kappa=0.1, g=0.3, delta_omega=dw, s_ii=20.0)
        assert abs(signal_amplitude(p)) < math.sqrt(2.0)


def _numpy_signal_amplitude(p: SystemParams) -> complex:
    # the numpy form: complex exponentials from np.exp, and numpy's
    # division of a complex by a real
    phi0 = cmath.phase(pointer_state(p, +1))
    phi1 = cmath.phase(pointer_state(p, -1))
    return p.f * (np.exp(2j * phi0) - np.exp(2j * phi1)) / math.sqrt(2.0)


def test_signal_amplitude_is_the_numpy_form_bit_for_bit():
    # A is computed with cmath; it must equal the numpy form exactly, so
    # no figure or sweep CSV moves: on the fig2 grid (the default kappa),
    # the fig3 grid (four kappas) and 10,000 random draws over decades
    dws = np.linspace(-1.0, 1.0, 201).tolist()
    points = [SystemParams(kappa=kappa, delta_omega=dw)
              for kappa in (0.1, 0.2, 0.3, 0.4) for dw in dws]
    rng = np.random.default_rng(20261020)
    n = 10_000
    draws = zip(10.0 ** rng.uniform(-3.0, 1.0, n),
                rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 1.0, n),
                10.0 ** rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n))
    points += [SystemParams(kappa=kappa, g=g, f=f, delta_omega=dw)
               for kappa, g, f, dw in draws]
    assert all(type(signal_amplitude(p)) is complex for p in points[:3])
    differ = [p for p in points if signal_amplitude(p) != _numpy_signal_amplitude(p)]
    assert differ == []


def _peak_scan(kappa, g, f, dstar):
    # |A| and gamma_m on a detuning scan with 400 steps out to
    # dstar + 2 |g| on each side, plus dstar itself and its neighbours
    # 1e-3 away
    half = dstar + 2.0 * abs(g) + kappa
    dws = np.concatenate((np.linspace(-half, half, 401),
                          [dstar, dstar - 1e-3, dstar + 1e-3]))
    ps = [SystemParams(g=g, kappa=kappa, f=f, delta_omega=dw, s_ii=1.0)
          for dw in dws]
    return (dws, np.array([abs(signal_amplitude(p)) for p in ps]),
            np.array([gamma_m(p) for p in ps]))


@seeded_cases(2701, 30, dict(kappa=(0.01, 1.0), ratio=(1.05, 20.0),
                             f=(0.05, 2.0), sign=[1.0, -1.0]))
def test_readout_peaks_at_optimal_detuning_above_half_linewidth(kappa, ratio, f,
                                                                sign):
    # g > kappa/2: at delta_omega* = sqrt(g^2 - kappa^2/4) the pointer
    # phases differ by pi/2, so |A| = sqrt(2) f and gamma_m = 2 f^2/kappa
    # whatever g, and both are the global maxima over the detuning
    g = sign * ratio * kappa / 2.0
    dstar = optimal_detuning(SystemParams(g=g, kappa=kappa, f=f, s_ii=1.0))
    assert dstar == pytest.approx(math.sqrt(g ** 2 - kappa ** 2 / 4.0), rel=1e-15)
    dws, amp, rate = _peak_scan(kappa, g, f, dstar)
    assert amp[-3] == pytest.approx(math.sqrt(2.0) * f, rel=1e-12)
    assert rate[-3] == pytest.approx(2.0 * f ** 2 / kappa, rel=1e-12)
    step = dws[1] - dws[0]
    for y in (amp, rate):
        assert np.all(y <= y[-3] * (1.0 + 1e-12))
        assert y[-2] < y[-3] and y[-1] < y[-3]
        # the scan's best node on the positive side is next to dstar
        pos = dws[:-3] >= 0.0
        best = dws[:-3][pos][np.argmax(y[:-3][pos])]
        assert abs(best - dstar) <= step


@seeded_cases(2702, 30, dict(kappa=(0.01, 1.0), ratio=(0.1, 0.9),
                             f=(0.05, 2.0)))
def test_readout_single_peak_at_zero_detuning_below_half_linewidth(kappa, ratio,
                                                                   f):
    # g <= kappa/2: one maximum, at delta_omega = 0, for both |A| and gamma_m
    g = ratio * kappa / 2.0
    assert optimal_detuning(SystemParams(g=g, kappa=kappa, f=f, s_ii=1.0)) == 0.0
    dws, amp, rate = _peak_scan(kappa, g, f, 0.0)
    for y in (amp[:-3], rate[:-3]):
        mid = int(np.argmax(y))
        assert dws[mid] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.diff(y[:mid + 1]) > 0.0)
        assert np.all(np.diff(y[mid:]) < 0.0)


@pytest.mark.parametrize("kappa, g, f, rate", [(0.1, 0.3, 1.0, 20.0),
                                                (0.4, 0.3, 0.7, 2.45)])
def test_peak_dephasing_rate_is_independent_of_coupling(kappa, g, f, rate):
    p = SystemParams(g=g, kappa=kappa, f=f, s_ii=1.0,
                     delta_omega=optimal_detuning(
                         SystemParams(g=g, kappa=kappa, s_ii=1.0)))
    assert gamma_m(p) == pytest.approx(rate, rel=1e-14)
    assert abs(signal_amplitude(p)) / (math.sqrt(2.0) * f) == pytest.approx(
        1.0, rel=1e-15)


# ---------------------------------------------------------------- outcome probability

def test_outcome_probability_against_gaussian_cdf():
    # P(outcome +1 | sz0 = +1) = Phi(|A| t / sqrt(S_II t))
    for t in (0.05, 0.1, 0.5):
        expected = stats.norm.cdf(abs(signal_amplitude(P_FIG)) * t
                                  / math.sqrt(P_FIG.s_ii * t))
        assert outcome_probability(P_FIG, 1.0, t, +1) == pytest.approx(
            expected, rel=1e-12)


def test_outcome_probability_frozen_point():
    p = SystemParams(f=1.0, kappa=0.1, g=0.3, delta_omega=-0.3, s_ii=20.0)
    assert outcome_probability(p, 1.0, 0.1, +1) == pytest.approx(
        0.5396907179051225, rel=1e-13)


def test_outcome_probability_structure():
    assert outcome_probability(P_FIG, 1.0, 0.0, +1) == 0.5
    assert outcome_probability(P_FIG, 0.0, 1.0, +1) == 0.5
    p_plus = outcome_probability(P_FIG, 1.0, 1.0, +1)
    p_minus = outcome_probability(P_FIG, 1.0, 1.0, -1)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)
    assert p_plus > 0.5 > p_minus
    # zero-point variance sharpens the outcome whenever S_II t > 1/2
    t = 0.1  # S_II t = 2 > 1/2
    assert outcome_probability(P_FIG, 1.0, t, +1) <= outcome_probability(
        P_FIG, 1.0, t, +1, variance=0.5)


def test_outcome_probability_validation():
    with pytest.raises(ValueError, match="outcome must be"):
        outcome_probability(P_FIG, 1.0, 1.0, 0)
    for sz0 in (1.5, math.nan):
        with pytest.raises(ValueError, match="sz0"):
            outcome_probability(P_FIG, sz0, 1.0, +1)
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match="t must be >= 0"):
            outcome_probability(P_FIG, 1.0, t, +1)
    # a given variance is checked once, also where t = 0 never reads it
    for variance in (-1.0, 0.0, math.nan):
        for t in (1.0, 0.0, [0.0, 0.0]):
            with pytest.raises(ValueError, match="variance must be > 0"):
                outcome_probability(P_FIG, 1.0, t, +1, variance=variance)


def _scalar_outcome_probability(params, sz0, t, outcome, variance=None):
    # the one-t-at-a-time formula the list path must reproduce bit for bit
    if t == 0.0:
        return 0.5
    var = params.s_ii * t if variance is None else variance
    if var <= 0.0:
        raise ValueError("variance must be > 0")
    arg = abs(signal_amplitude(params)) * t / math.sqrt(2.0 * var)
    return 0.5 * (1.0 + outcome * sz0 * math.erf(arg))


def _assert_row_matches_scalar_loop(params, sz0, t, outcome, variance):
    got = outcome_probability(params, sz0, t, outcome, variance=variance)
    assert type(got) is list and len(got) == len(t)
    loop = [outcome_probability(params, sz0, tk, outcome, variance=variance)
            for tk in t]
    assert all(isinstance(v, float) for v in loop)
    ref = [_scalar_outcome_probability(params, sz0, tk, outcome, variance)
           for tk in t]
    assert got == loop == ref


@pytest.mark.parametrize("outcome", (+1, -1))
@pytest.mark.parametrize("variance", (None, 0.5))
def test_outcome_probability_array_equals_scalar_loop(outcome, variance):
    t = [0.0] + [k * 2.0 / 50 for k in range(1, 51)] + [0.0, 1e-300, 40.0]
    for sz0 in (1.0, -0.3, 0.0):
        _assert_row_matches_scalar_loop(P_FIG, sz0, t, outcome, variance)
    # t = 0 entries are exactly 1/2, also in an all-zero row
    got = outcome_probability(P_FIG, 1.0, t, outcome, variance=variance)
    assert all(pk == 0.5 for pk, tk in zip(got, t) if tk == 0.0)
    assert outcome_probability(P_FIG, 1.0, [0.0] * 3, outcome,
                               variance=variance) == [0.5] * 3


def test_outcome_probability_list_gives_list():
    # a list or tuple of times, as the cli passes, gives a list holding
    # the one-time values
    t = [0.0, 0.1, 1.0, 40.0]
    for variance in (None, 0.5):
        ref = [outcome_probability(P_FIG, 1.0, tk, +1, variance=variance)
               for tk in t]
        for seq in (t, tuple(t)):
            got = outcome_probability(P_FIG, 1.0, seq, +1, variance=variance)
            assert type(got) is list and got == ref


def _times(rng):
    # 1 to 30 times in [0, 50], about half of them exactly 0
    return [0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 50.0))
            for _ in range(int(rng.integers(1, 30, endpoint=True)))]


@seeded_cases(2703, 40, dict(kappa=(0.01, 2.0), g=(0.0, 1.0), f=(0.0, 2.0),
                             delta_omega=(-2.0, 2.0), s_ii=(0.01, 100.0),
                             sz0=(-1.0, 1.0), outcome=[1, -1],
                             variance=[None, (1e-3, 10.0)], t=_times))
def test_outcome_probability_array_property(kappa, g, f, delta_omega, s_ii, sz0,
                                            outcome, variance, t):
    params = SystemParams(kappa=kappa, g=g, f=f, delta_omega=delta_omega, s_ii=s_ii)
    try:
        [_scalar_outcome_probability(params, sz0, tk, outcome, variance) for tk in t]
    except ValueError:
        # S_II t underflowing to 0 must be rejected by the list path too
        with pytest.raises(ValueError, match="variance must be > 0"):
            outcome_probability(params, sz0, t, outcome, variance=variance)
        return
    _assert_row_matches_scalar_loop(params, sz0, t, outcome, variance)


def test_outcome_probability_array_validation():
    t = [0.0, 0.5, -1e-9, 1.0]
    with pytest.raises(ValueError, match="t must be >= 0"):
        outcome_probability(P_FIG, 1.0, t, +1)
    with pytest.raises(ValueError, match="t must be >= 0"):
        outcome_probability(P_FIG, 1.0, tuple(t), +1, variance=0.5)
    with pytest.raises(ValueError, match="t must be >= 0"):
        outcome_probability(P_FIG, 1.0, [0.1, math.nan], +1)
    live = [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="variance must be > 0"):
        outcome_probability(P_FIG, 1.0, live, +1, variance=0.0)
    with pytest.raises(ValueError, match="variance must be > 0"):
        outcome_probability(P_FIG, 1.0, live, +1, variance=-2.0)
    with pytest.raises(ValueError, match="outcome must be"):
        outcome_probability(P_FIG, 1.0, live, 0)
    with pytest.raises(ValueError, match="sz0"):
        outcome_probability(P_FIG, -1.5, live, +1)
    # a given variance is checked even where every entry has t = 0
    with pytest.raises(ValueError, match="variance must be > 0"):
        outcome_probability(P_FIG, 1.0, [0.0, 0.0], +1, variance=0.0)


# ---------------------------------------------------------------- weak coupling

def test_weak_coupling_gamma_m_frozen():
    val = weak_coupling_gamma_m(P_WEAK)
    assert val == pytest.approx(0.00039973347264466266, rel=1e-13)
    # the full steady-amplitude rate carries twice the weak-coupling value
    assert gamma_m(P_WEAK) / val == pytest.approx(2.0, rel=1e-2)
