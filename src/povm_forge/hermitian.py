"""Dense linear algebra for small complex Hermitian matrices.

Everything here targets dense matrices of small dimension (d = 13 for the
order-2197 Weyl-Heisenberg group): the trace-orthogonal Hermitian basis, real
coordinates in it, a checked Hermitian eigendecomposition, positivity tests,
and the pseudo-inverse square root used by the pretty good measurement.
"""

from __future__ import annotations

import numpy as np

# The tolerances every module shares (tabulated in the README): how far a
# matrix identity or a sign may be off, the spectral cutoff relative to the
# largest singular value or eigenvalue, and the absolute rounding floor.
HERM_TOL = 1e-9
RANK_TOL = 1e-10
ZERO_TOL = 1e-12


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
    """Check hermiticity within ``HERM_TOL`` (max-norm) and return the symmetrized matrix.

    A stack of matrices is checked as a whole: its largest defect counts.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise HermiticityError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise HermiticityError("matrix contains NaN or Inf entries")
    defect = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
    if defect > HERM_TOL:
        raise HermiticityError(f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {HERM_TOL:.3e}")
    return hermitian_part(m)


def hermitian_basis(d: int) -> np.ndarray:
    """Trace-orthogonal basis of the real space of Hermitian d x d matrices.

    Ordering: the d diagonal projectors E_kk for k = 0..d-1, then the symmetric
    off-diagonal elements X_kl = |k><l| + |l><k| for k > l in lexicographic (k, l)
    order, then the antisymmetric elements Y_kl = i|k><l| - i|l><k| in the same
    order.  There are d*d elements in total, stacked as one (d*d, d, d) array.
    """
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return from_coords(np.eye(d * d), d)


def coords(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the hermitian_basis ordering.

    Returns the length d*d vector (diagonal entries, Re of strict lower triangle,
    Im of strict lower triangle), each triangle in lexicographic (k, l) order
    with k > l.  The expansion sum(c_a * B_a) reconstructs the input.  A stack
    of matrices gives one row of coordinates per matrix.
    """
    m = as_hermitian(m)
    k, l = np.tril_indices(m.shape[-1], -1)
    lower = m[..., k, l]
    return np.concatenate([m.diagonal(axis1=-2, axis2=-1).real, lower.real, lower.imag], axis=-1)


def from_coords(c: np.ndarray, d: int) -> np.ndarray:
    """Inverse of coords: assemble the Hermitian matrix with coordinates ``c``.

    Rows of a 2-D ``c`` give a stack of matrices.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (d * d,):
        raise InvalidDimensionError(f"expected {d * d} coordinates, got shape {c.shape}")
    k, l = np.tril_indices(d, -1)
    lower = c[..., d : d + len(k)] + 1j * c[..., d + len(k) :]
    m = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    m[..., k, l] = lower
    m[..., l, k] = lower.conj()
    m[..., range(d), range(d)] = c[..., :d]
    return m


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (checked within ``HERM_TOL``).

    Returns (w, v) with eigenvalues w ascending and unitary v such that
    M v = v diag(w); a stack of matrices is decomposed in one batched call.
    """
    return np.linalg.eigh(as_hermitian(m))


def is_psd(m: np.ndarray) -> bool:
    """True iff the smallest eigenvalue of a Hermitian matrix is >= -``HERM_TOL``, as in both validators.

    For a stack of matrices, true iff every matrix of the stack is PSD.
    """
    w, _ = eig_hermitian(m)
    return bool(np.all(w[..., 0] >= -HERM_TOL))


def inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a matrix that is PSD within ``HERM_TOL``.

    Eigenvalues above ``RANK_TOL`` times the largest map to lambda**-0.5,
    the others to 0.  On the support of M the product N M N is the
    orthogonal projector onto range(M).
    """
    w, v = eig_hermitian(m)
    if w[0] < -HERM_TOL:
        raise PositivityError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    above = w > RANK_TOL * max(w[-1], 0.0)
    f = np.zeros_like(w)
    f[above] = 1.0 / np.sqrt(w[above])
    return hermitian_part((v * f) @ v.conj().T)
