"""Unit tests for the shared types, operators and the two propagators.

Oracles: operator algebra identities (commutators, partial traces of
products), hand-built Kronecker layouts, and the exact solution of
y' = c y for the RK4 order measurement and the Taylor propagator.
"""

import math

import numpy as np
import pytest

from qndsim.core import (
    DensityMatrix,
    FockSpace,
    NumericsError,
    SystemParams,
    annihilation,
    expectation,
    expm_action,
    fock_vacuum,
    integrate,
    is_hermitian,
    number_operator,
    partial_trace,
    qubit_operator,
    tensor,
)


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
])
def test_system_params_validation(kw, fragment):
    with pytest.raises(ValueError, match=fragment):
        SystemParams(**kw)


def test_dispersive_validity_flag():
    assert SystemParams(epsilon=10.0, delta=0.0).dispersive_valid
    assert SystemParams(epsilon=10.0, delta=0.5).dispersive_valid
    assert not SystemParams(epsilon=1.0, delta=0.5).dispersive_valid


def test_fock_space_validation():
    assert FockSpace(2).dim == 2
    with pytest.raises(ValueError, match="must be >= 2"):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(8, top_population_threshold=0.0)


# ---------------------------------------------------------------- operators

def test_annihilation_matrix_elements():
    space = FockSpace(5)
    a = annihilation(space)
    # <m|a|n> = sqrt(n) delta_{m,n-1}
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(a) == 4


def test_commutator_truncation_corner():
    space = FockSpace(6)
    a = annihilation(space)
    comm = a @ a.conj().T - a.conj().T @ a
    # identity except the top diagonal entry, which carries -(dim-1)
    expected = np.eye(6)
    expected[5, 5] = -5.0
    np.testing.assert_allclose(comm, expected, atol=1e-14)


def test_number_operator_diagonal():
    n = number_operator(FockSpace(4))
    np.testing.assert_array_equal(np.diag(n).real, [0.0, 1.0, 2.0, 3.0])
    a = annihilation(FockSpace(4))
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
    space = FockSpace(3)
    m = tensor(qubit_operator("sigma_z"), number_operator(space))
    # joint index = qubit_index * dim + fock_index
    np.testing.assert_array_equal(np.diag(m).real, [0, 1, 2, 0, -1, -2])
    with pytest.raises(ValueError, match="must be 2x2"):
        tensor(np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="must be square"):
        tensor(np.eye(2), np.ones((2, 3)))


def test_partial_trace_recovers_product_factors():
    space = FockSpace(4)
    qubit = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    fock = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho = DensityMatrix.from_product(space, qubit, fock)
    np.testing.assert_allclose(rho.reduced_qubit(), qubit, atol=1e-14)
    np.testing.assert_allclose(rho.reduced_resonator(), fock, atol=1e-14)
    with pytest.raises(ValueError, match="keep must be"):
        partial_trace(rho, "both")


def test_expectation_on_product_state():
    space = FockSpace(4)
    rho = DensityMatrix.from_product(space, np.diag([1.0, 0.0]),
                                     np.diag([0.0, 1.0, 0.0, 0.0]))
    n_full = tensor(qubit_operator("identity"), number_operator(space))
    assert expectation(rho, n_full) == pytest.approx(1.0)
    sz_full = tensor(qubit_operator("sigma_z"), np.eye(4))
    assert expectation(rho, sz_full) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="does not match"):
        expectation(rho, np.eye(3))


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert not is_hermitian(np.array([[1.0, 1j], [1j, 2.0]]))


# ---------------------------------------------------------------- density matrix

def test_density_matrix_rejects_bad_states():
    space = FockSpace(2)
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    DensityMatrix(space, good)

    with pytest.raises(ValueError, match="expected shape"):
        DensityMatrix(space, np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="trace deviates"):
        DensityMatrix(space, 2.0 * good)
    bad_h = good.copy()
    bad_h[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(space, bad_h)
    bad_e = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(space, bad_e)
    nf = good.copy()
    nf[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(space, nf)


def test_fock_vacuum():
    v = fock_vacuum(FockSpace(3))
    assert v[0, 0] == 1.0
    assert np.trace(v) == 1.0
    assert np.count_nonzero(v) == 1


# ---------------------------------------------------------------- integrator

def test_integrate_exponential_decay():
    lam = -0.8 + 0.3j
    ys = integrate(lambda t, y: lam * y, np.array([1.0 + 0j]),
                   np.linspace(0.0, 5.0, 11), step=0.01)
    exact = np.exp(lam * np.linspace(0.0, 5.0, 11))
    err = max(abs(y[0] - e) for y, e in zip(ys, exact))
    assert err < 1e-9


def test_integrate_fourth_order_convergence():
    lam = -1.0 + 0.5j
    grid = [0.0, 2.0]
    finals = [integrate(lambda t, y: lam * y, np.array([1.0 + 0j]), grid, h)[-1][0]
              for h in (0.02, 0.01, 0.005)]
    exact = np.exp(lam * 2.0)
    e1, e2, e3 = (abs(f - exact) for f in finals)
    assert math.log2(e1 / e2) > 3.9
    assert math.log2(e2 / e3) > 3.9


def test_integrate_lands_on_irregular_nodes():
    # non-commensurate spans still report exactly at the nodes
    grid = np.array([0.0, 0.37, 1.0, 2.75])
    ys = integrate(lambda t, y: -y, np.array([1.0 + 0j]), grid, step=0.01)
    np.testing.assert_allclose([y[0].real for y in ys], np.exp(-grid), rtol=1e-8)


def test_integrate_time_dependent_rhs():
    # y' = 2t y  ->  y = exp(t^2)
    ys = integrate(lambda t, y: 2.0 * t * y, np.array([1.0 + 0j]),
                   [0.0, 1.0], step=0.005)
    assert ys[-1][0].real == pytest.approx(math.e, rel=1e-9)


def test_integrate_input_validation():
    rhs = lambda t, y: -y
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="must start at 0"):
        integrate(rhs, y0, [1.0, 2.0], 0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        integrate(rhs, y0, [0.0, 2.0, 1.0], 0.1)
    with pytest.raises(ValueError, match="step must be > 0"):
        integrate(rhs, y0, [0.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="non-empty"):
        integrate(rhs, y0, [], 0.1)


def test_integrate_flags_nonfinite_blowup():
    # unstable: |1 + lam h| >> 1 drives the iterate to overflow
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at t ="):
            integrate(lambda t, y: 1e3 * y, np.array([1.0 + 0j]),
                      [0.0, 100.0], step=1.0)


# ---------------------------------------------------------------- exact propagator

def test_expm_action_exact_on_irregular_nodes():
    # norm * dt spans 1e-3 .. 1e3 across the grid
    lam = -0.01 + 3.0j
    grid = np.array([0.0, 1e-3 / abs(lam), 0.37, 1.0, 2.75, 300.0])
    ys = expm_action(lambda y: lam * y, np.array([1.0 + 0j]), grid, abs(lam))
    np.testing.assert_allclose([y[0] for y in ys], np.exp(lam * grid),
                               rtol=1e-10)


def test_expm_action_matrix_state_and_zero_operator():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])    # exp(a t) is a rotation
    y0 = np.eye(2, dtype=complex)
    ys = expm_action(lambda y: a @ y, y0, [0.0, 0.5, 2.0], 1.0)
    for t, y in zip((0.0, 0.5, 2.0), ys):
        rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        np.testing.assert_allclose(y, rot, atol=1e-15)
    zs = expm_action(lambda y: 0.0 * y, y0, [0.0, 1.0], 0.0)
    np.testing.assert_array_equal(zs[-1], y0)
    assert zs[-1] is not zs[0]


def test_expm_action_input_validation():
    apply = lambda y: -y
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


def test_expm_action_flags_nonfinite_state():
    # the operator is far larger than the norm it claims, so the
    # Taylor terms overflow within the first of two substeps (dt / s = 5)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at t = 5$"):
            expm_action(lambda y: 1e200 * y, np.array([1.0 + 0j]),
                        [0.0, 10.0], 1.0)
