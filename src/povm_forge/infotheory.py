"""Mutual information of an ensemble and a measurement, in bits.

The core quantity is I = sum_ij H(p_ij) - sum_i H(row_i) - sum_j H(col_j) with
H(u) = u log2 u and H(0) = 0, where p_ij = p(i) tr(Pi_j rho_i).  For operator
sets that do not sum to the identity (single orbits, for instance) the formal
variant replaces the row marginals by the priors; for a complete POVM the two
definitions coincide.
"""

from __future__ import annotations

import numpy as np

from .hermitian import HERM_TOL
from .quantum import Ensemble, Povm, StructuralError, validate_povm


def plogp(u: np.ndarray) -> np.ndarray:
    """Elementwise u * log2(u) with the continuity convention at 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    positive = u > 0
    out[positive] = u[positive] * np.log2(u[positive])
    return out


def joint_distribution(s: Ensemble, p) -> np.ndarray:
    """Joint probabilities p_ij = p(i) tr(Pi_j rho_i) as an m x n matrix.

    Negative values down to -``HERM_TOL`` (the sign error that
    ``validate_povm`` and ``validate_ensemble`` accept) are clamped to zero;
    anything more negative raises, since it signals a genuine positivity
    violation rather than noise.  ``p`` is a Povm or a stack (or
    list) of operators that need not sum to the identity.
    """
    ops = p.operators if isinstance(p, Povm) else np.asarray(p, dtype=complex)
    if ops.shape[-1] != s.dim:
        raise StructuralError(f"dimension mismatch: ensemble {s.dim} vs operators {ops.shape[-1]}")
    probs = s.priors[:, None] * np.einsum("jab,iba->ij", ops, s.states).real
    low = probs.min()
    if low < -HERM_TOL:
        raise ValueError(f"joint probability {low:.3e} is negative beyond tolerance")
    np.clip(probs, 0.0, None, out=probs)
    return probs


def _formal_information(probs: np.ndarray, priors: np.ndarray) -> float:
    """I = sum H(p_ij) - sum H(p_i) - sum H(col_j) of an m x n joint matrix with row weights p_i, in bits."""
    return float(plogp(probs).sum() - plogp(priors).sum() - plogp(probs.sum(axis=0)).sum())


def mutual_information(s: Ensemble, p: Povm) -> float:
    """Mutual information I(S, P) in bits; the POVM is validated first."""
    report = validate_povm(p, allow_zero=True)
    if not report.ok:
        raise ValueError("invalid POVM: " + "; ".join(report.violations))
    probs = joint_distribution(s, p)
    return _formal_information(probs, probs.sum(axis=1))


def orbit_information(s: Ensemble, c) -> float:
    """Formal information of an operator set that need not sum to the identity.

    The row-marginal term uses the priors p(i) instead of sum_j p_ij.  For a
    complete POVM this equals mutual_information; for an incomplete orbit it
    is the quantity whose convex combinations reproduce the information of
    orbit-union POVMs, and it can be negative.
    """
    return _formal_information(joint_distribution(s, c), s.priors)


def equality_condition(s: Ensemble, p, q, j: int) -> bool:
    """Proportionality test for the probability vectors of column j.

    True iff p_ij * sum_k q_kj == q_ij * sum_k p_kj for all i within
    ``HERM_TOL``, i.e. the two operators induce the same outcome statistics up
    to a constant factor.  Mixing operators column-wise loses no information
    exactly in that case.
    """
    pj, qj = joint_distribution(s, p), joint_distribution(s, q)
    n = pj.shape[1]
    if qj.shape[1] != n:
        raise StructuralError(f"operator count mismatch: {n} vs {qj.shape[1]}")
    if not 0 <= j < n:
        raise IndexError(f"column {j} out of range for {n} operators")
    pj, qj = pj[:, j], qj[:, j]
    return bool(np.max(np.abs(pj * qj.sum() - qj * pj.sum())) <= HERM_TOL)
