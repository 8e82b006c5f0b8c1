"""Unit tests for the joint master-equation integrator.

Oracles: block structure of hand-assembled Hamiltonians, the exactly
solvable driven cavity (g = 0), the conditional-amplitude ODE solution,
the elementary antiderivative and scipy quadrature of the pointer product
that feeds the closed-form coherence, scipy.linalg.expm of the
explicitly assembled superoperator for the exact propagator, and the
eigenvalues of that superoperator for the golden-rule flip rates of
backaction.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from qndsim.analytic import alpha_of_t, gamma_m, optimal_detuning
from qndsim.core import (
    DensityMatrix,
    NumericsError,
    SystemParams,
    annihilation,
    expm_action,
    fock_vacuum,
    integrate,
    number_operator,
    tensor,
)
from qndsim import core, lindblad
from qndsim.backaction import eigenbasis, evolve_reduced, rates
from qndsim.lindblad import (
    Liouvillian,
    _truncation,
    build_liouvillian,
    evolve,
    repeatability_experiment,
)

from closed_forms import (coherence_solution, conditional_amplitude, expectation,
                          partial_trace, qubit_operator)
from node_states import evolve_keeping_states
from tables import seeded_cases

# the weak-drive operating point exercised throughout: conditioned
# detunings 0 and 0.6, about one steady photon in the shifted sector
P_ME = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05,
                    delta_omega=0.3, s_ii=20.0)


def plus_vacuum(dim):
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    return DensityMatrix(tensor(plus, fock_vacuum(dim)))


# ---------------------------------------------------------------- generator

def test_sigma_z_hamiltonian_blocks():
    # the splitting (epsilon/2) sigma_z is the frame, not part of H
    d = 6
    p = SystemParams(epsilon=2.0, g=0.3, kappa=0.1, f=0.7, delta_omega=0.5,
                     s_ii=1.0)
    liou = build_liouvillian(p, d)
    assert liou.frame == p.epsilon
    h = liou.hamiltonian
    n_op = number_operator(d)
    a = annihilation(d)
    drive = p.f * (a + a.conj().T)
    # sigma_z = +1 sector sees detuning delta_omega - g
    np.testing.assert_allclose(h[:d, :d],
                               (p.delta_omega - p.g) * n_op + drive,
                               atol=1e-14)
    np.testing.assert_allclose(h[d:, d:],
                               (p.delta_omega + p.g) * n_op + drive,
                               atol=1e-14)
    np.testing.assert_allclose(h[:d, d:], np.zeros((d, d)), atol=0)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_sigma_n_hamiltonian_blocks():
    d = 5
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=0.4, s_ii=1.0)
    h = build_liouvillian(p, d).hamiltonian
    eta = math.atan2(p.delta, p.epsilon)
    energy = math.hypot(p.epsilon, p.delta)
    n_op = number_operator(d)
    a = annihilation(d)
    drive = p.f * (a + a.conj().T)
    eye = np.eye(5)
    np.testing.assert_allclose(h[:d, :d],
                               (energy / 2.0) * eye
                               + (p.delta_omega - p.g * math.cos(eta)) * n_op
                               + drive, atol=1e-14)
    # the QND-violating piece couples the sectors through -g sin(eta) n
    np.testing.assert_allclose(h[:d, d:], -p.g * math.sin(eta) * n_op,
                               atol=1e-14)


@pytest.mark.parametrize("epsilon", [-2.0, 0.0, 10.0])
def test_coupling_follows_delta(epsilon):
    # delta == 0 is sigma_z coupling in the frame of (epsilon/2) sigma_z,
    # built here by hand (epsilon = delta = 0 included); any delta > 0
    # keeps the splitting in H and couples the qubit blocks through
    # -g sin(eta) n, so that block is exactly zero iff delta == 0
    d = 5
    p = SystemParams(epsilon=epsilon, g=0.3, kappa=0.1, gamma1=0.02,
                     gamma2=0.05, f=0.7, delta_omega=0.5, s_ii=1.0)
    sz = qubit_operator("sigma_z")
    ident = qubit_operator("identity")
    a = annihilation(d)
    h = (tensor(p.delta_omega * ident - p.g * sz, number_operator(d))
         + tensor(ident, p.f * (a + a.conj().T)))
    liou = build_liouvillian(p, d)
    np.testing.assert_array_equal(liou.hamiltonian, h)
    assert liou.frame == epsilon
    for delta in (0.0, 1e-300, 0.05, 0.5):
        liou = build_liouvillian(replace(p, delta=delta), d)
        h = liou.hamiltonian
        assert (not np.any(h[:d, d:])) == (delta == 0.0), delta
        assert liou.frame == (epsilon if delta == 0.0 else 0.0), delta


def test_build_liouvillian_rejects_fock_dim_below_two():
    build_liouvillian(P_ME, 2)
    for bad in (1, float("nan")):
        with pytest.raises(ValueError, match="Fock dimension must be >= 2"):
            build_liouvillian(P_ME, bad)


def test_dissipators_only_for_nonzero_rates():
    liou = build_liouvillian(P_ME, 4)
    assert len(liou.dissipators) == 1
    assert liou.dissipators[0][0] == P_ME.kappa
    p = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     gamma1=0.02, gamma2=0.05, s_ii=1.0)
    liou2 = build_liouvillian(p, 4)
    assert [c for c, _, _ in liou2.dissipators] == [0.1, 0.02, 0.025]


# random generators for the property tests: both couplings (sigma_z at
# delta = 0, sigma_n above), all three dissipators on, fock_dim 6..8, and
# a seed for the random state
_PHYSICS = dict(
    epsilon=(0.5, 10.0),
    delta=[0.0, (0.05, 0.5)],
    g=(0.0, 0.3),
    kappa=(0.05, 1.0),
    gamma1=(0.001, 0.1),
    gamma2=(0.001, 0.1),
    f=(0.0, 1.0),
    delta_omega=(-1.0, 1.0),
)
_GENERATOR_DRAW = dict(seed=(0, 2 ** 32 - 1), fock_dim=(6, 8), phys=_PHYSICS)
# one table for the three single-apply properties
_GENERATOR_CASES = seeded_cases(2721, 25, _GENERATOR_DRAW)


def _draw_liouvillian(fock_dim, **phys):
    return build_liouvillian(SystemParams(s_ii=1.0, **phys), fock_dim)


def _superoperator(liou):
    # row-major vec: vec(A X B) = kron(A, B.T) vec(X); built from the
    # commutator/anticommutator form, independently of apply()
    h = liou.hamiltonian
    eye = np.eye(len(h))
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c, o, v in liou.dissipators:
        l_op = np.diag(v, o)
        ldl = l_op.conj().T @ l_op
        sup += c * (np.kron(l_op, l_op.conj())
                    - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return sup


def _lab_frame(liou):
    # the same generator with its frame back in H: _superoperator of it is
    # _superoperator(liou) plus -i[(frame/2) sigma_z (x) I, .]
    h_q = tensor((liou.frame / 2.0) * qubit_operator("sigma_z"),
                 np.eye(len(liou.hamiltonian) // 2))
    return Liouvillian(hamiltonian=liou.hamiltonian + h_q,
                       dissipators=liou.dissipators)


def _random_state(n, seed):
    # exactly Hermitian, as apply requires: m m+ from a complex matmul can
    # be off by an ulp at some sizes (n = 14 with OpenBLAS)
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


@_GENERATOR_CASES
def test_apply_matches_commutator_form(seed, fock_dim, phys):
    liou = _draw_liouvillian(fock_dim, **phys)
    rng = np.random.default_rng(seed)
    n = 2 * fock_dim
    rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    _assert_apply_matches_commutator_form(liou, rho)


def _assert_apply_matches_commutator_form(liou, rho):
    h = liou.hamiltonian
    ref = -1j * (h @ rho - rho @ h)
    for c, o, v in liou.dissipators:
        l_op = np.diag(v, o)
        ldl = l_op.conj().T @ l_op
        ref += c * (l_op @ rho @ l_op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    # apply takes Hermitian input only: by linearity, apply it to the
    # Hermitian parts of rho = h1 + i h2 and recombine
    h1 = 0.5 * (rho + rho.conj().T)
    h2 = -0.5j * (rho - rho.conj().T)
    got = liou.apply(h1) + 1j * liou.apply(h2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_apply_merges_jump_operators_that_share_an_offset():
    # one weight matrix per offset, the decay folded into offset 0: jumps
    # stacked on the offsets build_liouvillian uses, and on another
    base = _draw_liouvillian(5, epsilon=1.0, delta=0.1, g=0.2, kappa=0.3,
                             gamma1=0.05, gamma2=0.02, f=0.4, delta_omega=0.1)
    rng = np.random.default_rng(4)
    extra = tuple((0.1 * (k + 1), o, rng.normal(size=(10 - o, 2)) @ [1.0, 1j])
                  for k, o in enumerate((0, 1, 1, 3)))
    liou = Liouvillian(hamiltonian=base.hamiltonian,
                       dissipators=base.dissipators + extra)
    assert len(liou._jumps) == 4    # offsets 1, -5, 0 and 3
    rho = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    _assert_apply_matches_commutator_form(liou, rho)


def test_hamiltonian_stack_follows_the_qubit_blocks_not_the_mode():
    # H is applied as its two qubit blocks only while both off-diagonal
    # blocks are zero: one coupling entry set there, with the same frame
    # and jumps, takes the whole matrix
    base = _draw_liouvillian(5, epsilon=1.0, delta=0.0, g=0.2, kappa=0.3,
                             gamma1=0.05, gamma2=0.02, f=0.4, delta_omega=0.1)
    d = 5
    coupled = base.hamiltonian.copy()
    coupled[0, d] = coupled[d, 0] = 0.3
    rng = np.random.default_rng(6)
    rho = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    for h, k in ((base.hamiltonian, 2), (coupled, 1)):
        liou = Liouvillian(hamiltonian=h, dissipators=base.dissipators,
                           frame=base.frame)
        assert len(liou._h_stack) == k
        _assert_apply_matches_commutator_form(liou, rho)


def test_liouvillian_rejects_a_complex_hamiltonian():
    base = build_liouvillian(P_ME, 4)
    h = base.hamiltonian.copy()
    h[0, 1] += 1e-3j
    h[1, 0] -= 1e-3j    # still Hermitian
    with pytest.raises(ValueError, match="hamiltonian must be real"):
        Liouvillian(hamiltonian=h, dissipators=base.dissipators)


def test_apply_reads_strided_input_like_its_contiguous_copy():
    # the real matmul reads rho through a float view and the jump terms
    # through a flat one, which strides must not scramble: a transpose, a
    # column-strided view and a row-padded view of a Hermitian state, and
    # the same state as a real array
    liou = _draw_liouvillian(6, epsilon=2.0, delta=0.0, g=0.2, kappa=0.3,
                             gamma1=0.05, gamma2=0.02, f=0.4, delta_omega=0.1)
    rho = _random_state(12, seed=9)
    wide = np.zeros((12, 24), dtype=complex)
    wide[:, ::2] = rho
    padded = np.zeros((12, 15), dtype=complex)
    padded[:, :12] = rho
    expected = liou.apply(rho.copy())
    for view in (rho.conj().T, wide[:, ::2], padded[:, :12]):
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(liou.apply(view), expected)
    real_rho = rho.real
    np.testing.assert_array_equal(liou.apply(real_rho), liou.apply(real_rho + 0j))
    # out is written through its flat view, which only C order has
    with pytest.raises(ValueError, match="out must be C-contiguous"):
        liou.apply(rho, np.empty_like(rho).T)


@_GENERATOR_CASES
def test_apply_into_buffer_matches_fresh_result(seed, fock_dim, phys):
    liou = _draw_liouvillian(fock_dim, **phys)
    assert len(liou.dissipators) == 3
    rho = _random_state(2 * fock_dim, seed)
    buf = np.full_like(rho, np.nan)   # stale contents must be overwritten
    got = liou.apply(rho, buf)
    assert got is buf
    np.testing.assert_array_equal(buf, liou.apply(rho))


def test_jump_diagonals_rebuild_the_tensor_operators():
    # the (c, o, v) triples are the jump operators' one nonzero diagonal;
    # _superoperator and the commutator-form oracle rebuild L from them
    p = SystemParams(epsilon=0.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     gamma1=0.02, gamma2=0.05, s_ii=1.0)
    for dim in (2, 5):
        i_f = np.eye(dim)
        expected = [tensor(qubit_operator("identity"), annihilation(dim)),
                    tensor(qubit_operator("sigma_minus"), i_f),
                    tensor(qubit_operator("sigma_z"), i_f)]
        liou = build_liouvillian(p, dim)
        assert len(liou.dissipators) == 3
        for (_, o, v), l_op in zip(liou.dissipators, expected):
            np.testing.assert_array_equal(np.diag(v, o), l_op)


def test_liouvillian_rejects_diagonal_that_does_not_fit_its_offset():
    base = build_liouvillian(P_ME, 4)
    n = 8
    for o, v in ((1, np.ones(n)), (-4, np.ones(n)),
                 (0, np.ones(n - 1)), (n, np.ones(0))):
        with pytest.raises(ValueError, match="must have length"):
            Liouvillian(hamiltonian=base.hamiltonian,
                        dissipators=((0.1, o, v.astype(complex)),))


@seeded_cases(2722, 25, dict(fock_dim=(6, 8), phys=_PHYSICS))
def test_norm_bound_dominates_superoperator_norm(fock_dim, phys):
    liou = _draw_liouvillian(fock_dim, **phys)
    assert liou.norm_bound >= np.linalg.norm(_superoperator(liou), 1)


@seeded_cases(2723, 12, dict(log_x=(-3.0, 3.0), **_GENERATOR_DRAW))
def test_expm_action_matches_dense_exponential(log_x, seed, fock_dim, phys):
    # norm * dt from 1e-3 to 1e3 on the last interval of an irregular grid
    liou = _draw_liouvillian(fock_dim, **phys)
    span = 10.0 ** log_x / liou.norm_bound
    grid = np.array([0.0, 0.013, 0.31, 0.31 + span])
    rho0 = _random_state(2 * fock_dim, seed)
    got = expm_action(liou.apply, rho0, grid, liou.norm_bound)
    sup = _superoperator(liou)
    for t, m in zip(grid, got):
        ref = scipy.linalg.expm(sup * t) @ rho0.ravel()
        assert np.max(np.abs(m.ravel() - ref)) <= 1e-10


@seeded_cases(2724, 6, dict(_GENERATOR_DRAW,
                            phys={**_PHYSICS, "delta": (0.05, 0.5)}))
def test_expm_action_dense_output_matches_dense_exponential(seed, fock_dim,
                                                            phys):
    # one plan over the span (norm * span = 20: 3 steps of length h); an
    # irregular grid with 12 nodes inside the first step, one exactly on
    # its end and one ulp either side, and a final interval of 0.3 h
    liou = _draw_liouvillian(fock_dim, **phys)
    span = 20.0 / liou.norm_bound
    h = span / core._taylor_plan(20.0)[1]
    rng = np.random.default_rng(seed)
    grid = np.concatenate((
        [0.0], np.sort(rng.uniform(0.0, 0.999, 12)) * h,
        [np.nextafter(h, 0.0), h, np.nextafter(h, np.inf)],
        h + np.sort(rng.uniform(0.0, 1.0, 3)) * (span - 1.3 * h),
        [span - 0.3 * h, span]))
    assert np.all(np.diff(grid) > 0.0)
    rho0 = _random_state(2 * fock_dim, seed)
    got = list(expm_action(liou.apply, rho0, grid, liou.norm_bound))
    assert len(got) == len(grid)
    sup = _superoperator(liou)
    # one exponential per grid interval, chained; its own rounding at the
    # last node is checked against a direct exponential
    ref = rho0.ravel()
    for k, m in enumerate(got):
        if k:
            ref = scipy.linalg.expm(sup * (grid[k] - grid[k - 1])) @ ref
        assert np.max(np.abs(m.ravel() - ref)) <= 1e-13 * np.abs(ref).max()
    direct = scipy.linalg.expm(sup * grid[-1]) @ rho0.ravel()
    assert np.max(np.abs(ref - direct)) <= 1e-14 * np.abs(direct).max()


def test_expm_action_accurate_over_a_phase_accumulating_run():
    # sigma_z coupling at epsilon = 10, like the README run, with the
    # splitting in H: ~400 rad of qubit phase over [0, 40], with 81 nodes
    # evaluated inside 45 Taylor steps
    p = SystemParams(epsilon=10.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     s_ii=1.0)
    liou = _lab_frame(build_liouvillian(p, 6))
    rho0 = plus_vacuum(6).matrix
    grid = np.arange(81) * 0.5
    got = expm_action(liou.apply, rho0, grid, liou.norm_bound)
    sup = _superoperator(liou)
    # one exponential of the uniform node spacing, chained; its own
    # rounding at the last node is checked against a direct exponential
    step = scipy.linalg.expm(sup * 0.5)
    ref = rho0.ravel()
    for k, m in enumerate(got):
        if k:
            ref = step @ ref
        assert np.max(np.abs(m.ravel() - ref)) <= 1e-12
    direct = scipy.linalg.expm(sup * grid[-1]) @ rho0.ravel()
    assert np.max(np.abs(ref - direct)) <= 1e-13


def test_expm_action_matches_the_eager_norm_loop(monkeypatch):
    # the benchmark's d = 12 sigma_n generator with all three dissipators,
    # nodes inside steps and on the last step end: the same bits and the
    # same Taylor terms per step, with fewer norms, as expm_action with an
    # infinite _STOP_BOUND, which takes the partial sum's norm at every term
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=0.92, gamma1=0.05, gamma2=0.02, s_ii=20.0)
    liou = build_liouvillian(p, 12)
    rho0 = _random_state(24, seed=5)
    grid = np.concatenate([np.linspace(0.0, 1.0, 6), [2.5, 7.0]])
    norms = []
    inf_norm = core._inf_norm
    monkeypatch.setattr(core, "_inf_norm", lambda y: norms.append(None) or inf_norm(y))
    runs = []
    for stop_bound in (core._STOP_BOUND, math.inf):
        ids = []

        def apply(y, out):
            ids.append(id(y))
            return liou.apply(y, out)

        norms.clear()
        with monkeypatch.context() as patch:
            patch.setattr(core, "_STOP_BOUND", stop_bound)
            ys = list(expm_action(apply, rho0, grid, liou.norm_bound))
        # each step's first apply call reads the partial sum itself
        starts = [k for k, i in enumerate(ids) if i == ids[0]]
        runs.append((ys, np.diff(starts + [len(ids)]), len(norms)))
    (ys, terms, n_norms), (ys_ref, terms_ref, n_norms_ref) = runs
    assert len(ys) == len(ys_ref) == len(grid)
    for y, y_ref in zip(ys, ys_ref):
        np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(terms, terms_ref)
    assert n_norms < 0.7 * n_norms_ref


def _expm_action_per_term(apply, y0, t, norm, ends):
    # core.expm_action as it was before the block fold: every weighted
    # term is added into every node as it is made.  Appends to ends, per
    # step, the terms at which the step-end test passed
    y = np.array(y0, dtype=complex)
    bufs = np.empty((2,) + y.shape, dtype=complex)
    out = [y.copy()]
    t = list(t)
    m, n_steps = core._taylor_plan(norm * t[-1])
    h = t[-1] / n_steps
    k = 1
    for i in range(n_steps):
        t_b = t[-1] if i == n_steps - 1 else (i + 1) * h
        k_end = k
        while k_end < len(t) and t[k_end] < t_b:
            k_end += 1
        r = [(tk - i * h) / h for tk in t[k:k_end]]
        nodes = [y.copy() for _ in r]
        w = w_prev = [1.0] * len(r)
        term = y
        c1 = core._inf_norm(term)
        ends.append([])
        for j in range(1, m + 1):
            term = apply(term, bufs[j & 1])
            term *= h / j
            c2 = core._inf_norm(term)
            y += term
            w_prev, w = w, [wk * rk for wk, rk in zip(w, r)]
            for z, wk in zip(nodes, w):
                z += np.multiply(term, wk, out=bufs[(j + 1) & 1])
            if c1 + c2 <= core._STOP_TOL * core._inf_norm(y):
                ends[-1].append(j)
                if all(wp * c1 + wk * c2 <= core._STOP_TOL * core._inf_norm(z)
                       for z, wp, wk in zip(nodes, w_prev, w)):
                    break
            c1 = c2
        out.extend(nodes)
        if t[k_end] == t_b:
            out.append(y.copy())
            k_end += 1
        k = k_end
    return out


def _fold_and_per_term_runs(liou, y0, grid, monkeypatch, node_norm_scale):
    # (nodes, apply calls per step) from core.expm_action and from the
    # per-term loop, plus the terms at which each step's end test passed.
    # node_norm_scale < 1 shrinks the norm the node stopping test sees, so
    # a step can pass its end test and still go on
    inf_norm = core._inf_norm
    normed = []    # (array, scaled) per call, alive so that ids stay unique

    def scaled(a):
        # the partial sum is the first array normed and terms are views of
        # the block; the check after each run confirms this picked the nodes
        node = bool(normed) and a.base is None and a is not normed[0][0]
        normed.append((a, node))
        return inf_norm(a) * (node_norm_scale if node else 1.0)

    runs, ends = [], []
    with monkeypatch.context() as mp:    # undone before the next call
        mp.setattr(core, "_inf_norm", scaled)
        for propagate in (expm_action,
                          lambda *a: _expm_action_per_term(*a, ends)):
            normed.clear()
            ids = []

            def apply(y, out):
                assert not np.shares_memory(y, out)
                ids.append(id(y))
                return liou.apply(y, out)

            ys = list(propagate(apply, y0, grid, liou.norm_bound))
            returned = {id(z) for z in ys}
            assert all((id(a) in returned) == node for a, node in normed)
            starts = [k for k, i in enumerate(ids) if i == ids[0]]
            runs.append((ys, np.diff(starts + [len(ids)])))
    return (*runs, ends)


@pytest.mark.parametrize("node_norm_scale", [1.0, 1e-3])
def test_expm_action_fold_matches_the_per_term_loop(monkeypatch, node_norm_scale):
    # the sigma_n generator with both intrinsic rates at d = 6, where the
    # block has 8 rows: 24 nodes inside each step, steps ending after a
    # run of one term (span 20) and partway through a longer run (span
    # 40), short spans whose one step uses up its m = 5 or 12 terms with
    # no end test passing, and with shrunken node norms, steps going on
    # past a passed end test.  The same apply calls and step ends, nodes
    # to rounding
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=0.92, gamma1=0.05, gamma2=0.02, s_ii=20.0)
    liou = build_liouvillian(p, 6)
    y0 = _random_state(12, seed=5)
    c = core._block_rows(y0)
    assert c == 8
    partial = went_on = used_up = 0
    for x in (1e-3, 0.3, 20.0, 40.0):
        span = x / liou.norm_bound
        n_steps = core._taylor_plan(x)[1]
        h = span / n_steps
        step_ends = [(i + 1) * h for i in range(n_steps - 1)] + [span]
        grid = np.sort(np.concatenate(
            [[0.0], step_ends, *(i * h + np.linspace(0.02, 0.98, 24) * h
                                 for i in range(n_steps))]))
        (ys, terms), (ys_ref, terms_ref), ends = _fold_and_per_term_runs(
            liou, y0, grid, monkeypatch, node_norm_scale)
        np.testing.assert_array_equal(terms, terms_ref)
        partial += sum(bool(e) and e[-1] % (c - 1) != 0 for e in ends)
        went_on += sum(len(e) > 1 for e in ends)
        used_up += sum(not e for e in ends)
        assert len(ys) == len(ys_ref) == len(grid)
        for t, y, y_ref in zip(grid, ys, ys_ref):
            if t in step_ends:
                np.testing.assert_array_equal(y, y_ref)
            else:
                np.testing.assert_allclose(y, y_ref, rtol=0.0,
                                           atol=1e-14 * np.abs(y_ref).max())
    assert partial >= 2 and used_up == 2
    assert (went_on > 0) == (node_norm_scale < 1.0)


def test_expm_action_fold_is_the_per_term_loop_with_two_rows(monkeypatch):
    # from d = 18 up the block holds two rows, today's two buffers: every
    # node is the per-term loop's bits
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=0.92, gamma1=0.05, gamma2=0.02, s_ii=20.0)
    liou = build_liouvillian(p, 18)
    y0 = _random_state(36, seed=5)
    assert core._block_rows(y0) == 2
    span = 20.0 / liou.norm_bound
    grid = np.linspace(0.0, span, 41)
    (ys, terms), (ys_ref, terms_ref), _ = _fold_and_per_term_runs(
        liou, y0, grid, monkeypatch, 1.0)
    np.testing.assert_array_equal(terms, terms_ref)
    for y, y_ref in zip(ys, ys_ref):
        np.testing.assert_array_equal(y, y_ref)


def test_expm_action_memory_stays_near_three_states():
    # d = 48 with two nodes inside each of 4 steps: beyond the nodes it
    # returns, expm_action holds the partial sum and two term rows (3.05
    # states; an 8-row block reads 9.05)
    p = SystemParams(epsilon=2.0, g=0.03, kappa=0.1, f=1.1, delta_omega=0.0,
                     s_ii=20.0)
    liou = build_liouvillian(p, 48)
    y0 = plus_vacuum(48).matrix
    span = 30.0 / liou.norm_bound
    grid = np.linspace(0.0, span, 3 * core._taylor_plan(30.0)[1] + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ys = list(expm_action(liou.apply, y0, grid, liou.norm_bound))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(ys) == len(grid)
    held = sum(y.nbytes for y in ys)
    assert (peak - held) / y0.nbytes <= 3.5


def test_evolve_memory_does_not_grow_with_the_grid():
    # evolve streams its nodes and keeps the last state: from 100 to 400
    # nodes over 6 Taylor steps, the peak grows by a step's share of the
    # added nodes (1/6 state each) and their observables, under half a
    # state per added node.  Keeping every node costs a whole state each
    liou = build_liouvillian(SystemParams(
        epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3, delta_omega=0.92,
        gamma1=0.05, gamma2=0.02, s_ii=20.0), 12)
    rho0 = plus_vacuum(12)
    assert core._taylor_plan(50.0)[1] == 6
    span = 50.0 / liou.norm_bound
    peaks = []
    tracemalloc.start()
    try:
        for n in (100, 400):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rec = evolve(liou, rho0, np.linspace(0.0, span, n))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert len(rec.top_fock) == n
            del rec
    finally:
        tracemalloc.stop()
    per_node = (peaks[1] - peaks[0]) / 300
    assert per_node < 0.5 * rho0.matrix.nbytes, (peaks, per_node)


def test_evolve_apply_calls_do_not_depend_on_the_grid(monkeypatch):
    # the benchmark's sigma_n run with intrinsic decay (mid-range draws)
    # over [0, 20]: the same Taylor steps serve 2, 41 or 401 nodes
    calls = []
    apply = Liouvillian.apply

    def counted(self, rho, out=None):
        calls.append(None)
        return apply(self, rho, out)

    monkeypatch.setattr(Liouvillian, "apply", counted)
    p = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, f=0.3,
                     delta_omega=0.92, gamma1=0.05, gamma2=0.02, s_ii=20.0)
    liou = build_liouvillian(p, 12)
    counts = []
    for n in (2, 41, 401):
        calls.clear()
        _, states = evolve_keeping_states(liou, plus_vacuum(12),
                                          np.linspace(0.0, 20.0, n))
        assert len(states) == n
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


@_GENERATOR_CASES
def test_liouvillian_apply_preserves_trace_and_hermiticity(seed, fock_dim,
                                                           phys):
    liou = _draw_liouvillian(fock_dim, **phys)
    out = liou.apply(_random_state(2 * fock_dim, seed))
    scale = max(1.0, np.abs(out).max())
    assert abs(out.trace()) <= 1e-13 * scale
    assert np.array_equal(out, out.conj().T)


def test_qubit_flip_mode_approaches_golden_rule_rates():
    # the slowest nonzero mode of the sigma_n master equation at the
    # criterion-6 point is the qubit flip; as g -> 0 its rate must reach
    # gamma_up + gamma_down from backaction.rates (measured ratios 0.585,
    # 0.859, 0.970, 0.998 at the four g below)
    basis = eigenbasis(1.0, 0.1)
    deviations = []
    for g in (0.04, 0.02, 0.01, 0.005):
        p = SystemParams(epsilon=1.0, delta=0.1, g=g, kappa=0.1, f=0.3,
                         delta_omega=basis.splitting, s_ii=1.0)
        liou = build_liouvillian(p, 8)
        ev = np.linalg.eigvals(_superoperator(liou))
        ev = ev[np.argsort(np.abs(ev))]
        rs = rates(p, basis)
        g_tot = rs.gamma_up + rs.gamma_down
        assert abs(ev[0]) < 1e-3 * g_tot           # the steady state
        assert abs(ev[1].imag) < 1e-6 * g_tot      # a real decay mode
        deviations.append(abs(-ev[1].real / g_tot - 1.0))
    assert deviations[2] <= 0.05
    assert deviations[3] <= 0.005
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


# ---------------------------------------------------------------- evolution

def test_driven_cavity_reaches_coherent_steady_state():
    # g = 0: the resonator decouples from the qubit and settles on the
    # coherent state -if/(kappa/2 + i delta_omega)
    p = SystemParams(epsilon=0.0, g=0.0, kappa=0.1, f=0.05, delta_omega=0.2,
                     s_ii=1.0)
    dim = 12
    rec = evolve(build_liouvillian(p, dim), plus_vacuum(dim),
                 np.array([0.0, 400.0]))
    alpha = -1j * p.f / (p.kappa / 2.0 + 1j * p.delta_omega)
    assert rec.a_mean[-1] == pytest.approx(alpha, rel=1e-6)
    assert rec.n_mean[-1] == pytest.approx(abs(alpha) ** 2, rel=1e-6)
    assert rec.truncation is None


def test_evolution_record_observables():
    dim = 10
    rec, states = evolve_keeping_states(build_liouvillian(P_ME, dim),
                                        plus_vacuum(dim),
                                        np.linspace(0.0, 10.0, 6))
    # sigma_z commutes with the generator at delta = 0
    np.testing.assert_allclose(rec.sigma_z, np.zeros(6), atol=1e-10)
    assert rec.coherence01[0] == pytest.approx(0.5, abs=1e-14)
    assert rec.a_mean[0] == 0.0
    assert np.all(np.diff(rec.n_mean[:3]) > 0.0)
    assert rec.truncation is None
    traces = [abs(st.matrix.trace() - 1.0) for st in states]
    assert max(traces) < 1e-9


@seeded_cases(2725, 10, _GENERATOR_DRAW)
def test_evolve_observables_match_operator_traces(seed, fock_dim, phys):
    # evolve reads each observable off one diagonal of the state; compare
    # with tr(op rho) of the tensor-built operators at every node
    liou = _draw_liouvillian(fock_dim, **phys)
    assert len(liou.dissipators) == 3
    ident = qubit_operator("identity")
    i_f = np.eye(fock_dim)
    top = np.zeros((fock_dim, fock_dim))
    top[-1, -1] = top[-2, -2] = 1.0
    ops = {"sigma_z": tensor(qubit_operator("sigma_z"), i_f),
           "sigma_x": tensor(qubit_operator("sigma_x"), i_f),
           "a_mean": tensor(ident, annihilation(fock_dim)),
           "n_mean": tensor(ident, number_operator(fock_dim)),
           "top_fock": tensor(ident, top)}
    rho0 = DensityMatrix(_random_state(2 * fock_dim, seed))
    rec, states = evolve_keeping_states(liou, rho0, np.linspace(0.0, 1.0, 4))
    for k, st in enumerate(states):
        for name, op in ops.items():
            ref = expectation(st, op)
            if name != "a_mean":
                ref = ref.real
            assert getattr(rec, name)[k] == pytest.approx(ref, rel=1e-12,
                                                          abs=1e-14), name
        assert rec.coherence01[k] == pytest.approx(
            abs(partial_trace(st, "qubit")[0, 1]), rel=1e-12, abs=1e-14)


@seeded_cases(2726, 6, dict(
    _GENERATOR_DRAW, fock_dim=(4, 8), span=(0.5, 5.0),
    phys=dict(epsilon=[(-10.0, -0.5), (0.5, 10.0)],
              **{k: _PHYSICS[k] for k in ("g", "kappa", "gamma1", "gamma2",
                                          "f", "delta_omega")})))
def test_sigma_z_evolve_matches_the_lab_frame_exponential(seed, fock_dim,
                                                          span, phys):
    # evolve propagates without the splitting and restores it as a phase:
    # every node must be the dense exponential of the lab-frame generator,
    # exactly Hermitian
    liou = _draw_liouvillian(fock_dim, delta=0.0, **phys)
    assert liou.frame == phys["epsilon"]
    rho0 = _random_state(2 * fock_dim, seed)
    grid = np.linspace(0.0, span, 7)
    _, states = evolve_keeping_states(liou, DensityMatrix(rho0), grid)
    sup = _superoperator(_lab_frame(liou))
    for t, st in zip(grid, states):
        ref = scipy.linalg.expm(sup * t) @ rho0.ravel()
        assert np.max(np.abs(st.matrix.ravel() - ref)) <= 1e-12
        assert np.array_equal(st.matrix, st.matrix.conj().T)


def test_evolve_projects_rho0_onto_its_hermitian_part():
    # DensityMatrix admits anti-Hermitian noise up to 1e-10; evolve drops
    # it, so every node is exactly Hermitian and the run equals that of
    # the Hermitian part
    liou = build_liouvillian(SystemParams(epsilon=1.0, delta=0.1, g=0.3,
                                          kappa=0.1, gamma1=0.05, gamma2=0.02,
                                          f=0.05, delta_omega=0.3, s_ii=1.0), 6)
    herm = plus_vacuum(6).matrix
    noise = np.random.default_rng(5).normal(size=herm.shape)
    noisy = herm + 1e-12j * (noise + noise.T)   # anti-Hermitian part only
    assert not np.array_equal(noisy, noisy.conj().T)
    grid = np.linspace(0.0, 5.0, 6)
    _, states = evolve_keeping_states(liou, DensityMatrix(noisy), grid)
    _, ref = evolve_keeping_states(liou, DensityMatrix(herm), grid)
    for st, st_ref in zip(states, ref):
        assert np.array_equal(st.matrix, st.matrix.conj().T)
        assert np.array_equal(st.matrix, st_ref.matrix)


def test_evolve_rejects_mismatched_space():
    liou = build_liouvillian(P_ME, 8)
    with pytest.raises(ValueError, match="different Fock space"):
        evolve(liou, plus_vacuum(6), [0.0, 1.0])


def test_evolve_names_the_time_of_an_invalid_node(monkeypatch):
    # a propagator whose node at t = 0.5 has trace 2: evolve raises
    # NumericsError naming that node's time and the validator's reason
    def doubled(apply, y0, t_grid, norm):
        return [y0.copy(), 2.0 * y0, y0.copy()]

    monkeypatch.setattr(lindblad, "expm_action", doubled)
    with pytest.raises(NumericsError,
                       match=r"^state invalid at t = 0\.5: trace deviates from 1 by "
                             r"1\.000e\+00$"):
        evolve(build_liouvillian(P_ME, 6), plus_vacuum(6), [0.0, 0.5, 1.0])


def test_truncation_overflow_flags_invalid():
    # one steady photon against a 4-level space: the top levels fill up
    p = SystemParams(epsilon=0.0, g=0.0, kappa=0.1, f=0.05, delta_omega=0.0,
                     s_ii=1.0)
    dim = 4
    rec = evolve(build_liouvillian(p, dim), plus_vacuum(dim),
                 np.array([0.0, 60.0]))
    assert rec.truncation.endswith(" at t = 60, threshold 1e-06, "
                                   "first exceeded at t = 60")


def test_unstable_step_raises_numerics_error():
    # RK4 at step 1 is unstable on this lab-frame generator (|h lambda|
    # ~ 13) and overflows near t = 118
    p = SystemParams(epsilon=10.0, g=0.3, kappa=0.1, f=0.05, delta_omega=0.3,
                     s_ii=1.0)
    dim = 6
    sup = _superoperator(_lab_frame(build_liouvillian(p, dim)))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at t ="):
            integrate(lambda ts: np.broadcast_to(sup, (len(ts),) + sup.shape),
                      plus_vacuum(dim).matrix.reshape(-1),
                      np.array([0.0, 200.0]), step=1.0)


# ---------------------------------------------------------------- conditional amplitudes

def test_conditional_amplitudes_follow_pointer_trajectories():
    dim = 12
    tg = np.linspace(0.0, 10.0, 21)
    _, states = evolve_keeping_states(build_liouvillian(P_ME, dim),
                                      plus_vacuum(dim), tg)
    for qubit_index, sz in ((0, +1), (1, -1)):
        me = np.array([conditional_amplitude(st, qubit_index)
                       for st in states])
        ref = np.array(alpha_of_t(P_ME, sz, tg.tolist()))
        assert np.max(np.abs(me - ref)) < 1e-6


def test_conditional_amplitude_validation():
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    rho = DensityMatrix(tensor(ground, fock_vacuum(6)))
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


@seeded_cases(2727, 30, dict(kappa=(0.05, 1.0), g=(0.0, 0.5), f=(0.0, 1.0),
                             delta_omega=(-1.0, 1.0), gamma2=(0.0, 0.05),
                             epsilon=(0.0, 10.0), t=(1e-4, 60.0)))
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
    dim = 12
    tg = np.linspace(0.0, 15.0, 16)
    rec = evolve(build_liouvillian(p, dim), plus_vacuum(dim), tg)
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
    # long after the pointer transient, from 20/kappa to 40/kappa, the
    # master-equation coherence decays exponentially at the steady
    # dephasing rate (measured rel -2.5e-6)
    dim = 12
    tg = np.linspace(0.0, 400.0, 41)
    rec = evolve(build_liouvillian(P_ME, dim), plus_vacuum(dim), tg)
    assert rec.truncation is None
    mask = tg >= 200.0
    slope = np.polyfit(tg[mask], np.log(rec.coherence01[mask]), 1)[0]
    assert -slope == pytest.approx(gamma_m(P_ME), rel=1e-5)


def test_master_equation_dephasing_peaks_at_optimal_detuning():
    # the late-time coherence decay rate of the master equation is largest
    # at delta_omega* = sqrt(g^2 - kappa^2/4) (measured 0.0488849 there,
    # against 0.0441548 and 0.0427826 at delta_omega* -+ 0.02), and equals
    # the closed-form slope at each point
    dim = 12
    dw_star = optimal_detuning(P_ME)
    slopes = []
    for dw in (dw_star - 0.02, dw_star, dw_star + 0.02):
        p = replace(P_ME, delta_omega=dw)
        rec = evolve(build_liouvillian(p, dim), plus_vacuum(dim),
                     [0.0, 60.0, 100.0])
        assert rec.truncation is None
        slope = -math.log(rec.coherence01[2] / rec.coherence01[1]) / 40.0
        closed = -math.log(abs(coherence_solution(p, 100.0, 1.0))
                           / abs(coherence_solution(p, 60.0, 1.0))) / 40.0
        assert slope == pytest.approx(closed, rel=1e-6)
        slopes.append(slope)
    assert slopes[1] > max(slopes[0], slopes[2])


# ---------------------------------------------------------------- repeatability

def test_repeated_measurements_agree_in_sigma_z_mode():
    dim = 12
    liou = build_liouvillian(P_ME, dim)
    stats = repeatability_experiment(liou, plus_vacuum(dim),
                                     t_meas=20.0, n_meas=3)
    np.testing.assert_allclose(stats.pair_agreement, 1.0, atol=1e-12)
    assert stats.n_branches == 2
    assert stats.truncation is None


def test_repeatability_single_branch_from_pure_sector():
    dim = 12
    liou = build_liouvillian(P_ME, dim)
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    rho0 = DensityMatrix(tensor(ground, fock_vacuum(dim)))
    stats = repeatability_experiment(liou, rho0, t_meas=10.0, n_meas=2)
    assert stats.n_branches == 1
    assert stats.pair_agreement[0] == pytest.approx(1.0, abs=1e-12)


def test_repeatability_validation():
    dim = 6
    liou = build_liouvillian(P_ME, dim)
    rho0 = plus_vacuum(dim)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="t_meas must be > 0"):
            repeatability_experiment(liou, rho0, t_meas=bad, n_meas=2)
    with pytest.raises(ValueError, match="n_meas must be in 2..6"):
        repeatability_experiment(liou, rho0, t_meas=1.0, n_meas=1)
    with pytest.raises(ValueError, match="n_meas must be in 2..6"):
        repeatability_experiment(liou, rho0, t_meas=1.0, n_meas=7)


def test_truncation_places_the_peak_at_the_earliest_entry_within_rounding():
    peak = 0.5305297743919027
    rounds = ("in measurement round {}", range(1, 4))
    nodes = ("at t = {:g}", [0.0, 0.5, 1.0])
    for label, where in (rounds, nodes):
        def verdict(top):
            return _truncation(np.array(top), label, where)

        def says(value, at, first):
            return (f"peak top-two-level population {value:.2e} "
                    f"{label.format(where[at])}, threshold 1e-06, "
                    f"first exceeded {label.format(where[first])}")

        # a later entry that beats the first by 1 ulp does not take the peak
        # (np.argmax would name it): rounds and evolve's nodes alike
        assert verdict([0.1, peak, np.nextafter(peak, 1.0)]) == says(peak, 1, 0)
        assert verdict([0.1, np.nextafter(peak, 1.0), peak]) == says(peak, 1, 0)
        # a real difference still moves it
        assert verdict([peak, peak * (1.0 + 1e-9)]) == says(peak, 1, 0)
        assert verdict([0.0, 2e-6, 0.1]) == says(0.1, 2, 1)
        assert verdict([0.0, 0.0]) is None
        assert verdict([1e-6, 0.0]) is None


def test_truncation_formats_only_the_entries_it_names():
    # a valid series formats nothing; an invalid one only its two entries
    assert _truncation(np.array([1e-7, 1e-6]), "{:q}", None) is None
    where = {1: 0.25, 3: 0.75}
    assert _truncation(np.array([0.0, 0.5, 0.1, 0.7]), "at t = {:g}", where) == \
        ("peak top-two-level population 7.00e-01 at t = 0.75, threshold 1e-06, "
         "first exceeded at t = 0.25")


def test_repeatability_reports_peak_top_fock_and_round():
    dim = 12
    stats = repeatability_experiment(build_liouvillian(P_ME, dim),
                                     plus_vacuum(dim), t_meas=20.0, n_meas=3)
    assert stats.truncation is None
    assert stats.top_fock.shape == (3,)
    assert 0.0 < stats.top_fock.max() <= lindblad._TOP_POPULATION_THRESHOLD
    # the resonator is never reset, so a small space overflows in a later
    # round than the first, by more than the first round's own peak
    liou = build_liouvillian(P_ME, 4)
    first = evolve(liou, plus_vacuum(4), [0.0, 20.0]).top_fock.max()
    stats = repeatability_experiment(liou, plus_vacuum(4), t_meas=20.0, n_meas=3)
    assert stats.top_fock.max() > max(first, lindblad._TOP_POPULATION_THRESHOLD)
    assert np.argmax(stats.top_fock) > 0
    assert stats.top_fock[0] > lindblad._TOP_POPULATION_THRESHOLD
    assert stats.truncation == (
        f"peak top-two-level population {stats.top_fock.max():.2e} in measurement "
        f"round {np.argmax(stats.top_fock) + 1}, threshold 1e-06, "
        "first exceeded in measurement round 1")


# criterion 6's sigma_n point with intrinsic decay, so that every branch of
# the outcome tree keeps weight
P_FLIP = SystemParams(epsilon=1.0, delta=0.1, g=0.02, kappa=0.1, gamma1=0.01,
                      f=0.3, delta_omega=math.sqrt(1.01), s_ii=20.0)


def _ground_vacuum(dim):
    return DensityMatrix(tensor(np.diag([1.0, 0.0]).astype(complex),
                                fock_vacuum(dim)))


def _outcome_tree(liou, rho0, t_meas, n_meas):
    """The explicit outcome tree with no pruning, one evolution per branch.

    Returns the pair agreements and, per round, one (weight, last outcome,
    top_fock at each window node) triple per branch.
    """
    dim = len(liou.hamiltonian) // 2
    branches = [(1.0, rho0, 0)]
    agree = np.zeros(n_meas - 1)
    total = np.zeros(n_meas - 1)
    rounds = []
    for r in range(n_meas):
        grown, tops = [], []
        for weight, state, last in branches:
            rec = evolve(liou, state, [0.0, t_meas])
            tops.append((weight, last, rec.top_fock))
            m = rec.state.matrix
            for k in (0, 1):
                sl = slice(k * dim, (k + 1) * dim)
                w_k = m[sl, sl].trace().real
                if r > 0:
                    total[r - 1] += weight * w_k
                    agree[r - 1] += weight * w_k * (k == last)
                mat = np.zeros_like(m)
                mat[sl, sl] = m[sl, sl] / w_k
                grown.append((weight * w_k, DensityMatrix(mat), k))
        branches = grown
        rounds.append(tops)
    return agree / total, rounds


@pytest.mark.parametrize("n_meas", [3, 4])
def test_merged_mixtures_match_the_unpruned_outcome_tree(n_meas):
    dim = 8
    liou = build_liouvillian(P_FLIP, dim)
    rho0 = _ground_vacuum(dim)
    stats = repeatability_experiment(liou, rho0, t_meas=40.0, n_meas=n_meas)
    agreement, rounds = _outcome_tree(liou, rho0, 40.0, n_meas)
    assert len(rounds[-1]) == 2 ** (n_meas - 1)
    np.testing.assert_allclose(stats.pair_agreement, agreement, rtol=0, atol=1e-13)
    assert stats.n_branches == 2
    # a mixture's top population is its members' weighted mean at each node
    mixed = [max((sum(w * top for w, j, top in tops if j == last)
                  / sum(w for w, j, _ in tops if j == last)).max()
                 for last in {j for _, j, _ in tops})
             for tops in rounds]
    assert stats.top_fock.max() == pytest.approx(max(mixed), rel=1e-12)
    assert np.argmax(stats.top_fock) == np.argmax(mixed)
    per_branch = max(top.max() for tops in rounds for _, _, top in tops)
    assert stats.top_fock.max() <= per_branch


def test_repeatability_evolves_each_last_outcome_once_per_round(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(lindblad, "evolve", counted)
    dim = 12
    liou = build_liouvillian(P_FLIP, dim)
    stats = repeatability_experiment(liou, _ground_vacuum(dim), t_meas=40.0,
                                     n_meas=6)
    assert len(calls) == 1 + 2 * (6 - 1)
    assert stats.n_branches == 2
    assert stats.truncation is None


# two calls of each builder give equal but separately built instances
_ARRAY_DATACLASSES = {
    "DensityMatrix": lambda: _ground_vacuum(3),
    "Liouvillian": lambda: build_liouvillian(P_FLIP, 3),
    "EvolutionRecord": lambda: evolve(build_liouvillian(P_ME, 3),
                                      _ground_vacuum(3), [0.0, 1.0]),
    "RepeatabilityStats": lambda: repeatability_experiment(
        build_liouvillian(P_ME, 3), _ground_vacuum(3),
        t_meas=1.0, n_meas=3),
    "ReducedRecord": lambda: evolve_reduced(
        P_FLIP, eigenbasis(1.0, 0.1), np.diag([1.0, 0.0]).astype(complex),
        [0.0, 1.0]),
}


@pytest.mark.parametrize("kind", list(_ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(kind):
    a, b = _ARRAY_DATACLASSES[kind](), _ARRAY_DATACLASSES[kind]()
    assert type(a).__name__ == kind
    assert (a == b) is False
    assert (a == a) is True
    assert isinstance(hash(a), int)
