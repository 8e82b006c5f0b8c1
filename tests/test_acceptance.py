"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (the pytest config runs with -s so the
lines reach the log on success too) and then asserts.  Tolerances and time
budgets are pinned in the assertions.

Criterion 2b factorizes the coherence.  The static Gaussian-overlap envelope
(1/2) e^{-gamma2 t} exp(-|da(t)|^2 / 2), da = alpha_+ - alpha_-, is only the
intracavity part: the which-state record also leaves the resonator in the
emitted field.  The pointer equations give
d|da|^2/dt = -kappa |da|^2 + 4 g Im(alpha_+^* alpha_-), so the
measurement-induced decay exp(-int_0^t 2 g Im(alpha_+^* alpha_-)) equals
exp(-|da(t)|^2 / 2) * F(t) with F(t) = exp(-(kappa/2) int_0^t |da|^2).  The
test checks |rho01| = envelope * F at every node, with F by scipy quadrature
of the closed-form pointer trajectories (independent of the propagator that
2a checks), and that the envelope bounds |rho01| from above, so the
envelope's departure once the pointers saturate is a checked statement.
"""

import math
from time import perf_counter

import numpy as np
from scipy import integrate as sci_integrate

from qndsim.analytic import alpha_of_t, gamma_m, optimal_detuning
from qndsim.backaction import eigenbasis, evolve_reduced, rates, spectral_density
from qndsim.cli import main, parse_config, run_fig2, run_fig3
from qndsim.core import (
    DensityMatrix,
    SystemParams,
    fock_vacuum,
    integrate,
    tensor,
)
from qndsim.lindblad import build_liouvillian, evolve, repeatability_experiment

from closed_forms import coherence_solution, conditional_amplitude
from node_states import evolve_keeping_states
from test_lindblad import _superoperator

# pinned master-equation operating point: conditioned detunings 0 and 0.6
P_BASE = dict(epsilon=0.0, delta=0.0, g=0.3, kappa=0.1, f=0.05,
              delta_omega=0.3, s_ii=20.0)
N_FOCK = 12

_SHARED = {}


def _report(tag: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    print(line)
    return line


def _plus_vacuum(dim: int) -> DensityMatrix:
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    return DensityMatrix(tensor(plus, fock_vacuum(dim)))


def _sector_vacuum(dim: int, qubit_index: int) -> DensityMatrix:
    q = np.zeros((2, 2), dtype=complex)
    q[qubit_index, qubit_index] = 1.0
    return DensityMatrix(tensor(q, fock_vacuum(dim)))


def test_criterion_1_conditional_amplitudes_track_pointer_states():
    t0 = perf_counter()
    p = SystemParams(gamma1=0.0, gamma2=0.0, **P_BASE)
    tg = np.linspace(0.0, 40.0, 81)
    rec, states = evolve_keeping_states(build_liouvillian(p, N_FOCK),
                                        _plus_vacuum(N_FOCK), tg)
    worst = 0.0
    for qubit_index, sz in ((0, +1), (1, -1)):
        me = np.array([conditional_amplitude(st, qubit_index)
                       for st in states])
        ref = np.array(alpha_of_t(p, sz, tg.tolist()))
        worst = max(worst, float(np.max(np.abs(me - ref))))
    elapsed = perf_counter() - t0
    ok = worst <= 1e-6 and rec.truncation is None and elapsed <= 30.0
    detail = (f"conditional <a>(t) vs alpha_i(t), both sectors, t in [0, 40]: "
              f"max |diff| {worst:.3e} (tol 1e-06), {elapsed:.1f}s (budget 30s)")
    _report("criterion-1", ok, detail)
    assert ok, detail


def _dephasing_record():
    if "c2" not in _SHARED:
        p = SystemParams(gamma2=0.01, **P_BASE)
        tg = np.linspace(0.0, 40.0, 81)
        rec = evolve(build_liouvillian(p, N_FOCK), _plus_vacuum(N_FOCK), tg)
        _SHARED["c2"] = (p, tg, rec)
    return _SHARED["c2"]


def test_criterion_2a_closed_form_coherence():
    t0 = perf_counter()
    p, tg, rec = _dephasing_record()
    worst = 0.0
    for k in range(1, len(tg)):
        closed = abs(coherence_solution(p, tg[k], 0.5))
        worst = max(worst, abs(closed - rec.coherence01[k])
                    / rec.coherence01[k])
    elapsed = perf_counter() - t0
    ok = worst <= 1e-4 and elapsed <= 60.0
    detail = (f"|rho01(t)| vs closed-form |a10(t)|/2, gamma2 = 0.01: "
              f"max rel dev {worst:.3e} (tol 1e-04), {elapsed:.1f}s (budget 60s)")
    _report("criterion-2a", ok, detail)
    assert ok, detail


def _emitted_field_overlap(p: SystemParams, tg: np.ndarray) -> np.ndarray:
    """F(t_k) = exp(-(kappa/2) int_0^t_k |alpha_+(s) - alpha_-(s)|^2 ds).

    scipy quadrature of the closed-form pointer trajectories, one grid
    interval at a time.
    """
    def sep2(s: float) -> float:
        return abs(alpha_of_t(p, -1, s) - alpha_of_t(p, +1, s)) ** 2

    pieces = [sci_integrate.quad(sep2, a, b, epsabs=0.0, epsrel=1e-13)[0]
              for a, b in zip(tg[:-1], tg[1:])]
    return np.exp(-0.5 * p.kappa * np.concatenate(([0.0], np.cumsum(pieces))))


def test_criterion_2b_overlap_envelope():
    t0 = perf_counter()
    p, tg, rec = _dephasing_record()
    t, coh = tg[1:], rec.coherence01[1:]
    envelope = np.array([0.5 * math.exp(-p.gamma2 * tk)
                         * math.exp(-abs(alpha_of_t(p, -1, tk)
                                         - alpha_of_t(p, +1, tk)) ** 2 / 2.0)
                         for tk in t])
    dev = np.abs(envelope * _emitted_field_overlap(p, tg)[1:] - coh) / coh
    excess = envelope / coh - 1.0
    bounded = bool(np.all(envelope >= coh * (1.0 - 1e-12)))
    k, j = int(np.argmax(dev)), int(np.argmax(excess))
    elapsed = perf_counter() - t0
    ok = dev[k] <= 1e-4 and bounded and elapsed <= 60.0
    detail = (f"|rho01(t)| vs (1/2) e^(-gamma2 t) exp(-|da(t)|^2/2) "
              f"exp(-(kappa/2) int_0^t |da|^2): max rel dev {dev[k]:.3e} at "
              f"t = {t[k]:g} (tol 1e-04); bare envelope >= |rho01| at all "
              f"{len(t)} nodes: {bounded}, largest excess {excess[j]:.3e} "
              f"at t = {t[j]:g}; {elapsed:.1f}s (budget 60s)")
    _report("criterion-2b", ok, detail)
    assert ok, detail


def test_criterion_3_detuning_map_peak_structure():
    t0 = perf_counter()
    res = run_fig3(parse_config("", mode="fig3"))
    rows = np.array(res.rows)
    kappas = (0.1, 0.2, 0.3, 0.4)
    grid_step = 1e-2
    ok = True
    notes = []
    prominences = {2: [], 3: []}
    peak_locs = {2: [], 3: []}
    for kappa in kappas:
        blk = rows[np.isclose(rows[:, 0], kappa)]
        dw = blk[:, 1]
        mid = int(np.argmin(np.abs(dw)))
        for col in (2, 3):
            y = blk[:, col]
            peaks = [i for i in range(1, len(y) - 1)
                     if y[i] > y[i - 1] and y[i] > y[i + 1]]
            # (a) exactly two maxima, mirror-symmetric in the detuning
            if len(peaks) != 2:
                ok = False
                notes.append(f"kappa={kappa} col={col}: {len(peaks)} maxima")
                continue
            lo, hi = sorted(peaks)
            if abs(dw[lo] + dw[hi]) > 1e-9 or \
                    abs(y[lo] - y[hi]) > 1e-9 * max(y[lo], y[hi]):
                ok = False
                notes.append(f"kappa={kappa} col={col}: asymmetric maxima")
            prominences[col].append(y[hi] - y[mid])
            peak_locs[col].append((dw[lo], dw[hi]))
    # (b) every probability and dephasing-rate argmax lies within half a
    # grid step of +-delta_omega* = sqrt(g^2 - kappa^2/4), the closed-form
    # peak (so the two argmaxes also coincide within one step)
    cfg = parse_config("", mode="fig3")
    for kappa, locs2, locs3 in zip(kappas, peak_locs[2], peak_locs[3]):
        dstar = optimal_detuning(cfg.system_params(kappa=kappa))
        for lo, hi in (locs2, locs3):
            if abs(lo + dstar) > 0.5 * grid_step + 1e-12 or \
                    abs(hi - dstar) > 0.5 * grid_step + 1e-12:
                ok = False
                notes.append(f"kappa={kappa}: argmaxes {lo:+.2f}/{hi:+.2f} not "
                             f"within half a grid step of +-{dstar:.4f}")
    # (c) peak prominence strictly decreasing with linewidth
    for col in (2, 3):
        d = np.diff(prominences[col])
        if not np.all(d < 0.0):
            ok = False
            notes.append(f"col={col} prominences not decreasing")
    elapsed = perf_counter() - t0
    ok = ok and elapsed <= 5.0
    locs = ["%+.2f" % hi for _, hi in peak_locs[2]]
    detail = (f"two symmetric maxima per linewidth at |dw| = {locs}, "
              f"probability/dephasing argmaxes within half a grid step "
              f"of delta_omega*, "
              f"prominences decreasing {['%.4f' % v for v in prominences[2]]}, "
              f"{elapsed:.1f}s (budget 5s)"
              + (f"; problems: {notes}" if notes else ""))
    _report("criterion-3", ok, detail)
    assert ok, detail


def test_criterion_4_weak_coupling_dephasing_factor_two():
    t0 = perf_counter()
    p = SystemParams(epsilon=1.0, delta=0.0, g=0.01, kappa=1.0, f=0.5,
                     delta_omega=0.0, s_ii=2.0)   # g = kappa/100, eta = 0
    basis = eigenbasis(p.epsilon, p.delta)
    tg = np.linspace(0.0, 5000.0, 51)
    rec = evolve_reduced(p, basis, 0.5 * np.ones((2, 2), dtype=complex), tg,
                         mode="markov")
    fitted = -np.polyfit(tg, np.log(rec.coherence01), 1)[0]
    n_bar = p.f ** 2 / (p.kappa ** 2 / 4.0)
    target = p.kappa * n_bar * (2.0 * p.g / p.kappa) ** 2
    gap = gamma_m(p) / fitted
    elapsed = perf_counter() - t0
    ok = (abs(fitted / target - 1.0) <= 1e-2
          and abs(gap - 2.0) <= 2e-2
          and elapsed <= 1.0)
    detail = (f"back-action dephasing fit {fitted:.6e} vs kappa nbar (2g/kappa)^2 "
              f"= {target:.6e} (tol 1%), pointer-separation rate / fit = {gap:.4f} "
              f"(expected factor 2 within 1%), {elapsed:.2f}s (budget 1s)")
    _report("criterion-4", ok, detail)
    assert ok, detail


def test_criterion_5_rate_identities_over_random_draws():
    t0 = perf_counter()
    rng = np.random.default_rng(20260815)
    worst_ratio = worst_decomp = worst_fit = 0.0
    for _ in range(100):
        p = SystemParams(epsilon=rng.uniform(0.5, 2.0),
                         delta=rng.uniform(0.05, 0.5),
                         g=rng.uniform(0.005, 0.05),
                         kappa=rng.uniform(0.1, 1.0),
                         f=rng.uniform(0.1, 0.8),
                         delta_omega=rng.uniform(-1.0, 1.0),
                         s_ii=1.0)
        basis = eigenbasis(p.epsilon, p.delta)
        rs = rates(p, basis)
        e = basis.splitting
        spec_ratio = spectral_density(p, -e) / spectral_density(p, e)
        worst_ratio = max(worst_ratio,
                          abs(rs.gamma_up / rs.gamma_down - spec_ratio)
                          / spec_ratio)
        worst_decomp = max(worst_decomp,
                           abs(rs.gamma_phi - (0.5 * (rs.gamma_up
                                                      + rs.gamma_down)
                                               + rs.gamma_phi_pure))
                           / rs.gamma_phi)
        g_tot = rs.gamma_up + rs.gamma_down
        tg = np.linspace(0.0, 2.0 / g_tot, 21)
        rec = evolve_reduced(p, basis, np.diag([1.0, 0.0]).astype(complex),
                             tg, mode="markov")
        p_eq = rs.gamma_up / g_tot
        slope = -np.polyfit(tg, np.log(np.abs(rec.populations[:, 1] - p_eq)
                                       / p_eq), 1)[0]
        worst_fit = max(worst_fit, abs(slope - g_tot) / g_tot)
    elapsed = perf_counter() - t0
    ok = (worst_ratio <= 1e-12 and worst_decomp <= 1e-12
          and worst_fit <= 1e-6 and elapsed <= 10.0)
    detail = (f"100 draws: gamma_up/gamma_down vs S(-w01)/S(w01) dev "
              f"{worst_ratio:.1e} (tol 1e-12), gamma_phi decomposition dev "
              f"{worst_decomp:.1e} (tol 1e-12), markov relaxation vs "
              f"gamma_up+gamma_down dev {worst_fit:.1e} (tol 1e-06), "
              f"{elapsed:.1f}s (budget 10s)")
    _report("criterion-5", ok, detail)
    assert ok, detail


def test_criterion_6_measurement_repeatability():
    t0 = perf_counter()

    # QND coupling: consecutive outcomes always agree
    p_qnd = SystemParams(**P_BASE)
    stats = repeatability_experiment(build_liouvillian(p_qnd, N_FOCK),
                                     _plus_vacuum(N_FOCK), t_meas=20.0,
                                     n_meas=3)
    qnd_dev = float(np.max(np.abs(stats.pair_agreement - 1.0)))

    # tunneling admixture: disagreement grows at the spectral flip rate
    eps, dlt = 1.0, 0.1
    basis = eigenbasis(eps, dlt)
    p_n = SystemParams(epsilon=eps, delta=dlt, g=0.02, kappa=0.1, f=0.3,
                       delta_omega=basis.splitting, s_ii=20.0)
    rs = rates(p_n, basis)
    flip_rate = rs.gamma_up + rs.gamma_down
    liou_n = build_liouvillian(p_n, N_FOCK)
    disagree = []
    for t_meas in (400.0, 800.0):
        st = repeatability_experiment(liou_n, _sector_vacuum(N_FOCK, 0),
                                      t_meas=t_meas, n_meas=2)
        disagree.append(1.0 - float(st.pair_agreement[0]))
    slope = (disagree[1] - disagree[0]) / 400.0
    ratio = slope / flip_rate
    elapsed = perf_counter() - t0
    ok = qnd_dev <= 1e-6 and 0.5 <= ratio <= 2.0 and elapsed <= 120.0
    detail = (f"sigma_z mode agreement dev {qnd_dev:.1e} (tol 1e-06); sigma_n "
              f"mode (epsilon=1, delta=0.1) disagreement slope {slope:.3e} vs "
              f"gamma_up+gamma_down {flip_rate:.3e}, ratio {ratio:.2f} "
              f"(within factor 2), {elapsed:.1f}s (budget 120s)")
    _report("criterion-6", ok, detail)
    assert ok, detail


def test_criterion_7_numerical_hygiene(tmp_path):
    t0 = perf_counter()
    runs = []
    p1 = SystemParams(**P_BASE)
    runs.append(evolve_keeping_states(build_liouvillian(p1, N_FOCK),
                                      _plus_vacuum(N_FOCK),
                                      np.linspace(0.0, 20.0, 41))[1])
    p2 = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                      delta_omega=math.hypot(1.0, 0.1), s_ii=20.0)
    runs.append(evolve_keeping_states(build_liouvillian(p2, N_FOCK),
                                      _sector_vacuum(N_FOCK, 0),
                                      np.linspace(0.0, 20.0, 41))[1])
    p3 = SystemParams(gamma1=0.02, gamma2=0.05, **P_BASE)
    runs.append(evolve_keeping_states(build_liouvillian(p3, N_FOCK),
                                      _plus_vacuum(N_FOCK),
                                      np.linspace(0.0, 20.0, 41))[1])
    trace_dev = herm_dev = 0.0
    min_eig = 0.0
    for states in runs:
        for st in states:
            m = st.matrix
            trace_dev = max(trace_dev, abs(m.trace() - 1.0))
            herm_dev = max(herm_dev, float(np.max(np.abs(m - m.conj().T))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(m).min()))

    # measured RK4 order on the full generator, as a dense superoperator
    sup = _superoperator(build_liouvillian(p1, N_FOCK))
    y0 = _plus_vacuum(N_FOCK).matrix.reshape(-1)
    finals = [integrate(lambda ts: np.broadcast_to(sup, (len(ts),) + sup.shape),
                        y0, [0.0, 1.0], h)[-1]
              for h in (0.01, 0.005, 0.0025)]
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = math.log2(e1 / e2)

    # scheduling must not leak into the artifact bytes
    out1, out3 = tmp_path / "t1.csv", tmp_path / "t3.csv"
    code1 = main(["fig3", "-o", str(out1), "--threads", "1"])
    code3 = main(["fig3", "-o", str(out3), "--threads", "3"])
    same_bytes = (code1 == 0 and code3 == 0
                  and out1.read_bytes() == out3.read_bytes())

    elapsed = perf_counter() - t0
    ok = (trace_dev <= 1e-8 and herm_dev <= 1e-9 and min_eig >= -1e-7
          and order >= 3.9 and same_bytes)
    detail = (f"3 evolutions x 41 states: trace dev {trace_dev:.1e} (tol 1e-08), "
              f"hermiticity dev {herm_dev:.1e} (tol 1e-09), min eigenvalue "
              f"{min_eig:.1e} (floor -1e-07); RK4 order {order:.2f} (>= 3.9); "
              f"thread count 1 vs 3 byte-identical: {same_bytes}; {elapsed:.1f}s")
    _report("criterion-7", ok, detail)
    assert ok, detail


def test_criterion_8_integrated_noise_never_beats_zero_point():
    t0 = perf_counter()
    cfg = parse_config("", mode="fig2")
    rows = np.array(run_fig2(cfg).rows)
    sel = rows[:, 1] * cfg.system_params().s_ii > 0.5
    n_checked = int(sel.sum())
    holds = bool(np.all(rows[sel, 3] <= rows[sel, 2]))
    elapsed = perf_counter() - t0
    ok = holds and n_checked > 0 and elapsed <= 5.0
    detail = (f"p_backaction <= p_zero_point wherever S_II t > 1/2: holds at "
              f"all {n_checked} grid points, {elapsed:.1f}s (budget 5s)")
    _report("criterion-8", ok, detail)
    assert ok, detail
