"""Dense linear algebra for small complex Hermitian matrices.

Everything here targets matrices of dimension d <= 8 or so: the trace-orthogonal
Hermitian basis, real coordinate vectors with respect to that basis, a checked
Hermitian eigendecomposition, positivity tests, and the pseudo-inverse square
root used by the pretty good measurement.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-9
PSD_TOL = 1e-10
NULL_TOL = 1e-9


class InvalidDimensionError(ValueError):
    """Raised for non-positive matrix dimensions."""


class HermiticityError(ValueError):
    """Raised when an input is not Hermitian within tolerance."""


class PositivityError(ValueError):
    """Raised when an input has eigenvalues below the allowed tolerance."""


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M^dagger) / 2; a stack of matrices is handled matrix by matrix."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def as_hermitian(m: np.ndarray) -> np.ndarray:
    """Check hermiticity within ``HERM_TOL`` (max-norm) and return the symmetrized matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise HermiticityError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise HermiticityError("matrix contains NaN or Inf entries")
    defect = np.max(np.abs(m - m.conj().T))
    if defect > HERM_TOL:
        raise HermiticityError(f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {HERM_TOL:.3e}")
    return hermitian_part(m)


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Trace-orthogonal basis of the real space of Hermitian d x d matrices.

    Ordering: the d diagonal projectors E_kk for k = 0..d-1, then the symmetric
    off-diagonal elements X_kl = |k><l| + |l><k| for k > l in lexicographic (k, l)
    order, then the antisymmetric elements Y_kl = i|k><l| - i|l><k| in the same
    order.  There are d*d elements in total.
    """
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    basis = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for k in range(d):
        for l in range(k):
            x = np.zeros((d, d), dtype=complex)
            x[k, l] = 1.0
            x[l, k] = 1.0
            basis.append(x)
    for k in range(d):
        for l in range(k):
            y = np.zeros((d, d), dtype=complex)
            y[k, l] = 1j
            y[l, k] = -1j
            basis.append(y)
    return basis


def coords(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the hermitian_basis ordering.

    Returns the length d*d vector (diagonal entries, Re of strict lower triangle,
    Im of strict lower triangle), each triangle in lexicographic (k, l) order
    with k > l.  The expansion sum(c_a * B_a) reconstructs the input.
    """
    m = as_hermitian(m)
    d = m.shape[0]
    diag = m.diagonal().real
    re = [m[k, l].real for k in range(d) for l in range(k)]
    im = [m[k, l].imag for k in range(d) for l in range(k)]
    return np.concatenate([diag, re, im])


def from_coords(c: np.ndarray, d: int) -> np.ndarray:
    """Inverse of coords: assemble the Hermitian matrix with coordinates ``c``."""
    c = np.asarray(c, dtype=float)
    if c.shape != (d * d,):
        raise InvalidDimensionError(f"expected {d * d} coordinates, got shape {c.shape}")
    m = np.zeros((d, d), dtype=complex)
    m[np.diag_indices(d)] = c[:d]
    idx = d
    pairs = [(k, l) for k in range(d) for l in range(k)]
    for k, l in pairs:
        m[k, l] += c[idx]
        m[l, k] += c[idx]
        idx += 1
    for k, l in pairs:
        m[k, l] += 1j * c[idx]
        m[l, k] += -1j * c[idx]
        idx += 1
    return m


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (checked within ``HERM_TOL``).

    Returns (w, v) with eigenvalues w ascending and unitary v such that
    M v = v diag(w).
    """
    return np.linalg.eigh(as_hermitian(m))


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue of a Hermitian matrix is >= -tol."""
    w, _ = eig_hermitian(m)
    return bool(w[0] >= -tol)


def _psd_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a PSD matrix and the mask of those above NULL_TOL times the largest."""
    w, v = eig_hermitian(m)
    if w[0] < -PSD_TOL:
        raise PositivityError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    return w, v, w > NULL_TOL * max(w[-1], 0.0)


def inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a positive semidefinite matrix.

    Eigenvalues above the null cutoff map to lambda**-0.5, those below map
    to 0.  On the support of M the product N M N is the orthogonal projector
    onto range(M).
    """
    w, v, above = _psd_spectrum(m)
    f = np.zeros_like(w)
    f[above] = 1.0 / np.sqrt(w[above])
    return hermitian_part((v * f) @ v.conj().T)


def support_projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto range(M) for PSD M, using the same eigenvalue cutoff."""
    _, v, above = _psd_spectrum(m)
    return hermitian_part((v * np.where(above, 1.0, 0.0)) @ v.conj().T)
