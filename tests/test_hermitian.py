import importlib
import pkgutil

import numpy as np
import pytest

import povm_forge
from povm_forge import hermitian

from povm_forge import (
    HermiticityError,
    InvalidDimensionError,
    PositivityError,
    coords,
    eig_hermitian,
    from_coords,
    hermitian_basis,
    inv_sqrt_psd,
    is_psd,
    psi,
)
from povm_forge.hermitian import as_hermitian


def test_basis_d1():
    basis = hermitian_basis(1)
    assert len(basis) == 1
    assert np.allclose(basis[0], [[1.0]])


def test_basis_d2_matches_definition():
    e00, e11, x10, y10 = hermitian_basis(2)
    assert np.allclose(e00, np.diag([1, 0]))
    assert np.allclose(e11, np.diag([0, 1]))
    assert np.allclose(x10, [[0, 1], [1, 0]])
    assert np.allclose(y10, [[0, -1j], [1j, 0]])


@pytest.mark.parametrize("d", range(1, 7))
def test_basis_trace_orthogonal_and_complete(d):
    basis = hermitian_basis(d)
    assert len(basis) == d * d
    for a in range(len(basis)):
        assert np.max(np.abs(basis[a] - basis[a].conj().T)) == 0
        for b in range(a + 1, len(basis)):
            assert abs(np.trace(basis[a] @ basis[b])) < 1e-14


def test_basis_rejects_zero_dimension():
    with pytest.raises(InvalidDimensionError):
        hermitian_basis(0)


def test_coords_identity():
    assert np.allclose(coords(np.eye(2)), [1, 1, 0, 0])


def test_coords_pure_y_component():
    assert np.allclose(coords(np.array([[0, -1j], [1j, 0]])), [0, 0, 0, 1])


def test_coords_round_trip_random():
    rng = np.random.default_rng(11)
    basis = hermitian_basis(3)
    for _ in range(20):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = (g + g.conj().T) / 2
        c = coords(m)
        rebuilt = sum(ci * bi for ci, bi in zip(c, basis))
        assert np.max(np.abs(rebuilt - m)) <= 1e-12
        assert np.max(np.abs(from_coords(c, 3) - m)) <= 1e-12


def test_coords_of_stack_is_row_wise():
    rng = np.random.default_rng(12)
    for d in (1, 2, 4):
        g = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
        stack = (g + g.conj().swapaxes(1, 2)) / 2
        c = coords(stack)
        assert np.array_equal(c, np.array([coords(m) for m in stack]))
        assert np.max(np.abs(from_coords(c, d) - stack)) <= 1e-15


def test_coords_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        coords(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_diagonal():
    w, v = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])


def test_eig_pauli_x():
    w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_eig_residual_and_unitarity(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = (g + g.conj().T) / 2
        w, v = eig_hermitian(m)
        assert np.max(np.abs(m @ v - v @ np.diag(w))) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
        assert np.all(np.diff(w) >= -1e-14)


def rank_two_projector():
    q, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5j], [0.0, 1.0, 3.0j], [2.0, -1.0, 1.0]]))
    return q[:, :2] @ q[:, :2].conj().T


@pytest.mark.parametrize(
    "m, expected",
    [(np.eye(3), [1.0, 1.0, 1.0]), (rank_two_projector(), [0.0, 1.0, 1.0]), (np.array([[2.5]]), [2.5])],
)
def test_eig_degenerate(m, expected):
    w, v = eig_hermitian(m)
    assert np.allclose(w, expected, atol=1e-12)
    assert np.max(np.abs(m @ v - v @ np.diag(w))) <= 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(m.shape[0]))) <= 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_examples():
    assert is_psd(np.diag([1.0, 0.0]))
    assert not is_psd(np.diag([1.0, -1e-3]))
    v = psi(0.7, 1.1)
    assert is_psd(np.outer(v, v))


def test_inv_sqrt_identity():
    assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3))


def test_inv_sqrt_pseudo_inverse():
    n = inv_sqrt_psd(np.diag([4.0, 0.0]))
    assert np.allclose(n, np.diag([0.5, 0.0]))


def test_inv_sqrt_support_projector_oracle():
    # independent oracle: numpy eigendecomposition of the rank-2 average state
    # of the planar trines
    from povm_forge import lifted_trines

    trines = lifted_trines(0.0)
    rho = sum(p * s for p, s in zip(trines.priors, trines.states))
    n = inv_sqrt_psd(rho)
    w, v = np.linalg.eigh(rho)
    keep = (w > 1e-9 * w.max()).astype(float)
    assert keep.sum() == 2
    projector = (v * keep) @ v.conj().T
    assert np.max(np.abs(n @ rho @ n - projector)) <= 1e-9


def test_inv_sqrt_rejects_negative():
    with pytest.raises(PositivityError):
        inv_sqrt_psd(np.diag([1.0, -0.5]))


def test_as_hermitian_rejects_nan():
    m = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(HermiticityError):
        as_hermitian(m)


def test_tolerances_are_five_and_shared():
    # one constant per idea; the three every layer needs live in hermitian
    holders: dict[str, list] = {}
    for info in pkgutil.iter_modules(povm_forge.__path__):
        module = importlib.import_module(f"povm_forge.{info.name}")
        for name, value in vars(module).items():
            if name.endswith("_TOL") and isinstance(value, float):
                holders.setdefault(name, []).append(value)
    assert set(holders) == {"HERM_TOL", "RANK_TOL", "ZERO_TOL", "FEASIBLE_TOL", "MATCH_TOL", "PIVOT_TOL"}
    for name, values in holders.items():
        assert all(value is values[0] for value in values), name
    for name in ("HERM_TOL", "RANK_TOL", "ZERO_TOL"):
        assert all(value is getattr(hermitian, name) for value in holders[name]), name


def test_from_coords_rejects_the_wrong_coordinate_count():
    with pytest.raises(InvalidDimensionError, match=r"^expected 4 coordinates, got shape \(3,\)$"):
        from_coords(np.zeros(3), 2)
