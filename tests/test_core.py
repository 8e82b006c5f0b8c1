"""Unit tests for the shared types, operators and the two propagators.

Oracles: operator algebra identities (commutators, partial traces of
products, with the test-side references of closed_forms checked here
too), hand-built Kronecker layouts, and the exact solution of
y' = c y for the RK4 order measurement and the Taylor propagator, with
scipy.linalg.expm for the propagator's node copies.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from qndsim import core
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

from closed_forms import expectation, partial_trace, qubit_operator


# ---------------------------------------------------------------- parameters

def test_system_params_defaults():
    p = SystemParams()
    assert p.epsilon == 10.0
    assert p.g == 0.3
    assert p.kappa == 0.1
    assert p.f == 1.0
    assert p.gamma1 == 0.0 and p.gamma2 == 0.0
    assert p.delta_omega == 0.0


@pytest.mark.parametrize("kw, fragment", [
    (dict(kappa=0.0), "kappa must be > 0"),
    (dict(kappa=-0.1), "kappa must be > 0"),
    (dict(s_ii=0.0), "s_ii must be > 0"),
    (dict(delta=-0.5), "delta must be >= 0"),
    (dict(f=-1.0), "f must be >= 0"),
    (dict(gamma1=-1e-3), "gamma1 must be >= 0"),
    (dict(gamma2=-1e-3), "gamma2 must be >= 0"),
] + [
    # a non-finite field is named before any range check sees it
    (dict({name: bad}), f"^{name} must be finite, got {bad}$")
    for name in ("epsilon", "delta", "g", "kappa", "gamma1", "gamma2", "f",
                 "delta_omega", "s_ii")
    for bad in (math.nan, math.inf, -math.inf)
])
def test_system_params_validation(kw, fragment):
    with pytest.raises(ValueError, match=fragment):
        SystemParams(**kw)


def test_photon_number_overflows_exactly_from_amplitude_2_to_512():
    # at kappa = 2 and zero detuning the steady amplitude is -i f exactly
    below = math.nextafter(2.0 ** 512, 0.0)
    assert SystemParams(kappa=2.0, f=below).photon_number(0.0) == below ** 2
    assert below ** 2 < math.inf
    with pytest.raises(ValueError, match=r"overflows a float at f = 1\.34"):
        SystemParams(kappa=2.0, f=2.0 ** 512).photon_number(0.0)


# ---------------------------------------------------------------- operators

def test_annihilation_matrix_elements():
    a = annihilation(5)
    # <m|a|n> = sqrt(n) delta_{m,n-1}
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(a) == 4


def test_commutator_truncation_corner():
    a = annihilation(6)
    comm = a @ a.conj().T - a.conj().T @ a
    # identity except the top diagonal entry, which carries -(dim-1)
    expected = np.eye(6)
    expected[5, 5] = -5.0
    np.testing.assert_allclose(comm, expected, atol=1e-14)


def test_number_operator_diagonal():
    n = number_operator(4)
    np.testing.assert_array_equal(np.diag(n).real, [0.0, 1.0, 2.0, 3.0])
    a = annihilation(4)
    np.testing.assert_allclose(a.conj().T @ a, n, atol=1e-14)


def test_qubit_operators():
    sz = qubit_operator("sigma_z")
    sx = qubit_operator("sigma_x")
    sm = qubit_operator("sigma_minus")
    np.testing.assert_array_equal(sz, np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(sx, [[0, 1], [1, 0]])
    # sigma_minus lowers the sigma_z eigenvalue: |0> -> |1>
    np.testing.assert_array_equal(sm, [[0, 0], [1, 0]])
    np.testing.assert_allclose(sz @ sx + sx @ sz, np.zeros((2, 2)), atol=0)
    with pytest.raises(ValueError, match="unknown qubit operator"):
        qubit_operator("sigma_y")


def test_tensor_layout_qubit_slowest():
    m = tensor(qubit_operator("sigma_z"), number_operator(3))
    # joint index = qubit_index * dim + fock_index
    np.testing.assert_array_equal(np.diag(m).real, [0, 1, 2, 0, -1, -2])
    with pytest.raises(ValueError, match="must be 2x2"):
        tensor(np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="must be square"):
        tensor(np.eye(2), np.ones((2, 3)))


def test_partial_trace_recovers_product_factors():
    qubit = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    fock = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho = DensityMatrix(tensor(qubit, fock))
    np.testing.assert_allclose(partial_trace(rho, "qubit"), qubit, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, "resonator"), fock, atol=1e-14)
    with pytest.raises(ValueError, match="keep must be"):
        partial_trace(rho, "both")


def test_expectation_on_product_state():
    rho = DensityMatrix(tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0, 0.0])))
    n_full = tensor(qubit_operator("identity"), number_operator(4))
    assert expectation(rho, n_full) == pytest.approx(1.0)
    sz_full = tensor(qubit_operator("sigma_z"), np.eye(4))
    assert expectation(rho, sz_full) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="does not match"):
        expectation(rho, np.eye(3))


# ---------------------------------------------------------------- density matrix

def test_density_matrix_rejects_bad_states():
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    DensityMatrix(good)

    for bad in (np.eye(4, 3), np.full(4, 0.25), np.eye(2)[None]):
        with pytest.raises(ValueError, match="expected shape"):
            DensityMatrix(bad)
    with pytest.raises(ValueError, match="trace deviates"):
        DensityMatrix(2.0 * good)
    bad_h = good.copy()
    bad_h[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(bad_h)
    bad_e = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(bad_e)
    nf = good.copy()
    nf[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(nf)


def test_density_matrix_accepts_non_contiguous_input():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T) / rho.trace().real
    wide = np.zeros((6, 12), dtype=complex)
    wide[:, ::2] = rho
    # the transpose of a state is a state too
    for view in (rho.T, wide[:, ::2]):
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(DensityMatrix(view).matrix,
                                      DensityMatrix(view.copy()).matrix)
    wide[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(wide[:, ::2])


def _state_with_min_eigenvalue(n, lo, seed):
    # U diag(lam) U+ with trace 1, smallest eigenvalue lo, made exactly
    # Hermitian
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    lam = rng.uniform(0.5, 1.0, n)
    lam[0] = 0.0
    lam *= (1.0 - lo) / lam.sum()
    lam[0] = lo
    m = (q * lam) @ q.conj().T
    return 0.5 * (m + m.conj().T)


# smallest eigenvalues at the floor times (1 -+ 1e-3), at the floor -+ 1e-12,
# inside the 1e-6 relative Cholesky margin, and at 0
def _eigenvalues_around(floor):
    return (floor * (1.0 + 1e-3), floor * (1.0 - 1e-3), floor - 1e-12,
            floor + 1e-12, floor * (1.0 - 5e-7), 0.0)


def test_positivity_verdict_matches_eigvalsh(monkeypatch):
    # Cholesky decides every state clear of the floor by its margin, and
    # eigvalsh, the oracle, everything else
    eig_calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: eig_calls.append(None) or eigvalsh(m))
    for floor, n in ((-1e-7, 24), (-1e-7, 96), (-1e-9, 2)):
        for k, lo in enumerate(_eigenvalues_around(floor)):
            m = _state_with_min_eigenvalue(n, lo, seed=k)
            oracle = eigvalsh(m).min()
            eig_calls.clear()
            got = core._eigenvalue_below(m, floor)
            if oracle < floor:
                assert got == oracle
            else:
                assert got is None
            # each lo is far from the shifted zero next to the factorization's
            # backward error, so its sign alone says whether Cholesky fails
            assert eig_calls == ([None] if lo < (1.0 - 1e-6) * floor else [])


def test_density_matrix_positivity_against_eigvalsh():
    for k, lo in enumerate(_eigenvalues_around(-1e-7)):
        m = _state_with_min_eigenvalue(24, lo, seed=k)
        oracle = np.linalg.eigvalsh(m).min()
        if oracle < -1e-7:
            with pytest.raises(ValueError) as info:
                DensityMatrix(m)
            assert str(info.value) == f"negative eigenvalue {oracle:.3e} below -1e-7"
        else:
            DensityMatrix(m)


def test_fock_vacuum():
    v = fock_vacuum(3)
    assert v[0, 0] == 1.0
    assert np.trace(v) == 1.0
    assert np.count_nonzero(v) == 1


# ---------------------------------------------------------------- integrator

def _constant(a):
    # the generator A(t) = a at every stage time, as a (len(ts), 1, 1) stack
    return lambda ts: np.full((len(ts), 1, 1), a, dtype=complex)


def test_integrate_exponential_decay():
    lam = -0.8 + 0.3j
    ys = integrate(_constant(lam), np.array([1.0 + 0j]),
                   np.linspace(0.0, 5.0, 11), step=0.01)
    exact = np.exp(lam * np.linspace(0.0, 5.0, 11))
    err = max(abs(y[0] - e) for y, e in zip(ys, exact))
    assert err < 1e-9


def test_integrate_fourth_order_convergence():
    lam = -1.0 + 0.5j
    grid = [0.0, 2.0]
    finals = [integrate(_constant(lam), np.array([1.0 + 0j]), grid, h)[-1][0]
              for h in (0.02, 0.01, 0.005)]
    exact = np.exp(lam * 2.0)
    e1, e2, e3 = (abs(f - exact) for f in finals)
    assert math.log2(e1 / e2) > 3.9
    assert math.log2(e2 / e3) > 3.9


def test_integrate_lands_on_irregular_nodes():
    # non-commensurate spans still report exactly at the nodes
    grid = np.array([0.0, 0.37, 1.0, 2.75])
    ys = integrate(_constant(-1.0), np.array([1.0 + 0j]), grid, step=0.01)
    np.testing.assert_allclose([y[0].real for y in ys], np.exp(-grid), rtol=1e-8)


def test_integrate_time_dependent_rhs():
    # y' = 2t y  ->  y = exp(t^2)
    ys = integrate(lambda ts: (2.0 * ts)[:, None, None], np.array([1.0 + 0j]),
                   [0.0, 1.0], step=0.005)
    assert ys[-1][0].real == pytest.approx(math.e, rel=1e-9)


def test_integrate_calls_the_generator_once_per_interval_at_the_stage_times():
    # an irregular grid with several substeps per interval: one call per
    # interval, on its n substep starts, midpoints and ends
    grid = [0.0, 0.3, 1.0, 1.7]
    step = 0.0196
    calls = []

    def recording(ts):
        calls.append(ts.copy())
        return np.zeros((len(ts), 1, 1))

    integrate(recording, np.array([1.0 + 0j]), grid, step)
    assert len(calls) == len(grid) - 1
    for ts, t0, t1 in zip(calls, grid[:-1], grid[1:]):
        n = math.ceil((t1 - t0) / step)
        assert n > 1
        h = (t1 - t0) / n
        starts = t0 + np.arange(n) * h
        assert np.array_equal(ts, np.concatenate([starts, starts + h / 2,
                                                  starts + h]))


def test_integrate_input_validation():
    gen = _constant(-1.0)
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="must start at 0"):
        integrate(gen, y0, [1.0, 2.0], 0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        integrate(gen, y0, [0.0, 2.0, 1.0], 0.1)
    with pytest.raises(ValueError, match="step must be > 0"):
        integrate(gen, y0, [0.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="non-empty"):
        integrate(gen, y0, [], 0.1)


def test_integrate_flags_nonfinite_blowup():
    # unstable: |1 + lam h| >> 1 drives the iterate to overflow
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at t ="):
            integrate(_constant(1e3), np.array([1.0 + 0j]),
                      [0.0, 100.0], step=1.0)


# ---------------------------------------------------------------- exact propagator

def test_expm_action_exact_on_irregular_nodes():
    # norm * dt spans 1e-3 .. 1e3 across the grid
    lam = -0.01 + 3.0j
    grid = np.array([0.0, 1e-3 / abs(lam), 0.37, 1.0, 2.75, 300.0])
    ys = expm_action(lambda y, out: np.multiply(lam, y, out=out),
                     np.array([1.0 + 0j]), grid, abs(lam))
    np.testing.assert_allclose([y[0] for y in ys], np.exp(lam * grid),
                               rtol=1e-10)


def test_expm_action_matrix_state_and_zero_operator():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])    # exp(a t) is a rotation
    y0 = np.eye(2, dtype=complex)
    ys = list(expm_action(lambda y, out: np.matmul(a, y, out=out), y0,
                          [0.0, 0.5, 2.0], 1.0))
    assert len(ys) == 3
    for t, y in zip((0.0, 0.5, 2.0), ys):
        rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        np.testing.assert_allclose(y, rot, atol=1e-15)
    zs = list(expm_action(lambda y, out: np.multiply(0.0, y, out=out), y0,
                          [0.0, 1.0], 0.0))
    np.testing.assert_array_equal(zs[-1], y0)
    assert zs[-1] is not zs[0]


def test_expm_action_on_one_node_copies_y0_without_apply():
    # the grid [0.0] is y0 itself: one fresh copy, and no apply call
    def refused(y, out):
        raise AssertionError("apply ran on a one-node grid")

    y0 = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    ys = list(expm_action(refused, y0, [0.0], 1.0))
    assert len(ys) == 1
    np.testing.assert_array_equal(ys[0], y0)
    assert ys[0] is not y0 and not np.shares_memory(ys[0], y0)


def test_expm_action_input_validation():
    apply = lambda y, out: np.negative(y, out=out)
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="must start at 0"):
        expm_action(apply, y0, [1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        expm_action(apply, y0, [0.0, 2.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="non-empty"):
        expm_action(apply, y0, [], 1.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="norm must be"):
            expm_action(apply, y0, [0.0, 1.0], bad)
    # norm * span / theta_1 overflows: no step plan exists
    with pytest.raises(ValueError, match="span 1e\\+300 is too long"):
        expm_action(apply, y0, [0.0, 1e300], 1.0)


def test_expm_action_refuses_a_plan_over_the_step_budget(monkeypatch):
    # a finite plan of ~1e11 steps is refused before any apply call, with
    # the span and the least step count named; at a budget of 3, a span
    # of exactly 3 theta_55 runs and one just above it does not
    def apply(y, out):
        return np.negative(y, out=out)

    def refused(y, out):
        # fails at once, rather than running the plan, if it is not refused
        raise AssertionError("apply ran for a plan over the step budget")

    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="span 1e\\+12 is too long to "
                       "propagate at norm 1: it needs at least 1.01e\\+11 "
                       "Taylor steps, limit 1e\\+06$"):
        expm_action(refused, y0, [0.0, 1e12], 1.0)
    monkeypatch.setattr(core, "_MAX_STEPS", 3)
    span = 3 * core._THETA[55]
    assert core._taylor_plan(span) == (55, 3)
    y = list(expm_action(apply, y0, [0.0, span], 1.0))[-1]
    assert y[0] == pytest.approx(math.exp(-span), rel=1e-12)
    with pytest.raises(ValueError, match="needs at least 3.01 Taylor steps"):
        expm_action(refused, y0, [0.0, 1.003 * span], 1.0)


def test_expm_action_flags_nonfinite_state():
    # the operator is far larger than the norm it claims, so the
    # Taylor terms overflow within the first of two substeps (dt / s = 5)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at t = 5$"):
            list(expm_action(lambda y, out: np.multiply(1e200, y, out=out),
                             np.array([1.0 + 0j]),
                             [0.0, 10.0], 1.0))


def test_expm_action_nodes_are_fresh_arrays():
    # the sum accumulates in place, so every node must be its own copy
    a = np.array([[-0.3, 1.0], [-1.0, -0.1]])
    y0 = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    before = y0.copy()
    ys = list(expm_action(lambda y, out: np.matmul(a, y, out=out), y0,
                          [0.0, 0.25, 1.0, 4.0], 1.3))
    assert len(ys) == 4
    np.testing.assert_array_equal(y0, before)
    for k, y in enumerate(ys):
        assert not np.shares_memory(y, y0)
        assert not any(np.shares_memory(y, z) for z in ys[k + 1:])
    np.testing.assert_array_equal(ys[0], y0)
    for t, y in zip((0.25, 1.0, 4.0), ys[1:]):
        np.testing.assert_allclose(y, scipy.linalg.expm(a * t) @ y0,
                                   rtol=1e-13, atol=1e-14)


def test_expm_action_step_ends_do_not_depend_on_interior_nodes():
    # the step-end partial sums are the same bits whether or not nodes are
    # reported inside the steps, and a node exactly on a step end is that
    # partial sum
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    y0 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    norm = np.linalg.norm(a, 1)
    span = 30.0 / norm
    h = span / core._taylor_plan(30.0)[1]
    apply = lambda y, out: np.matmul(a, y, out=out)
    bare = list(expm_action(apply, y0, [0.0, span], norm))
    on_end = list(expm_action(apply, y0, [0.0, h, span], norm))
    dense = list(expm_action(apply, y0, np.concatenate((
        np.linspace(0.0, 0.9 * h, 7), [np.nextafter(h, 0.0), h,
                                        np.nextafter(h, np.inf), 2.5 * h, span])), norm))
    np.testing.assert_array_equal(on_end[-1], bare[-1])
    np.testing.assert_array_equal(dense[-1], bare[-1])
    np.testing.assert_array_equal(dense[8], on_end[1])


def _terms_per_step(a, y0, grid, norm):
    # apply calls per Taylor step: each step's first call takes the
    # partial-sum array itself, every later one a term buffer
    ids = []

    def apply(y, out):
        ids.append(id(y))
        return np.matmul(a, y, out=out)

    ys = list(expm_action(apply, y0, grid, norm))
    starts = [k for k, i in enumerate(ids) if i == ids[0]]
    return ys, np.diff(starts + [len(ids)])


def test_expm_action_stops_no_earlier_than_the_complex_norm_rule(monkeypatch):
    # the stopping test uses the max-abs over real and imaginary parts,
    # at least 1/sqrt(2) of the complex max-abs, at 2^-53/sqrt(2); so no
    # step may take fewer terms than the complex-norm test at 2^-53
    # (on this generator and span, dropping the 1/sqrt(2) ends the last
    # of the three steps one term early)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    y0 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    norm = np.linalg.norm(a, 1)
    grid = np.array([0.0, 0.1, 3.0, 20.0, 26.0]) / norm
    ys, terms = _terms_per_step(a, y0, grid, norm)
    monkeypatch.setattr(core, "_inf_norm", lambda y: float(np.abs(y).max()))
    monkeypatch.setattr(core, "_STOP_TOL", core._TAYLOR_TOL)
    ys_ref, terms_ref = _terms_per_step(a, y0, grid, norm)
    assert len(terms) == len(terms_ref)
    assert np.all(terms >= terms_ref)
    for y, y_ref in zip(ys, ys_ref):
        np.testing.assert_allclose(y, y_ref, rtol=0.0,
                                   atol=1e-14 * np.abs(y_ref).max())
