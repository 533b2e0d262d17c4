"""Ensembles, POVMs, and their convex algebra.

An ensemble is a stack of density matrices with prior probabilities.  A POVM
is a stack of positive semidefinite operators summing to the identity.  Both
hold their matrices as one (n, d, d) complex array, so every per-operator
computation is one batched numpy call, and both are treated as multisets:
duplicate operators are allowed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermitian import (
    HERM_TOL,
    ZERO_TOL,
    HermiticityError,
    as_hermitian,
    eig_hermitian,
    inv_sqrt_psd,
)


class StructuralError(ValueError):
    """Raised on shape or dimension mismatches between operators."""


class DegenerateOperatorError(ValueError):
    """Raised when an operator that must have positive trace does not."""


def _as_operator_stack(ops, what: str) -> np.ndarray:
    """Stack operators into one checked Hermitian (n, d, d) complex array."""
    try:
        stack = np.asarray(ops if isinstance(ops, np.ndarray) else list(ops), dtype=complex)
    except ValueError as exc:
        raise StructuralError(f"{what} operators have mixed dimensions") from exc
    if len(stack) == 0:
        raise StructuralError(f"{what} must contain at least one operator")
    if stack.ndim != 3:
        raise HermiticityError(f"{what} operators must be square matrices, got shape {stack.shape[1:]}")
    return as_hermitian(stack)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Quantum states rho_i, stacked as one (m, d, d) array, with prior probabilities p(i)."""

    states: np.ndarray
    priors: np.ndarray

    def __init__(self, states, priors):
        object.__setattr__(self, "states", _as_operator_stack(states, "ensemble"))
        object.__setattr__(self, "priors", np.asarray(priors, dtype=float))
        if len(self.priors) != len(self.states):
            raise StructuralError(
                f"{len(self.states)} states but {len(self.priors)} priors"
            )

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement given by positive operators, stacked as one (n, d, d) array, summing to the identity."""

    operators: np.ndarray

    def __init__(self, operators):
        object.__setattr__(self, "operators", _as_operator_stack(operators, "POVM"))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class NormalizedPovm:
    """POVM rewritten as a convex combination of trace-d operators.

    weights[i] = tr(Pi_i) / d and normalized_ops[i] = d * Pi_i / tr(Pi_i), so
    sum_i weights[i] * normalized_ops[i] equals the identity.  The operators
    are one stacked (n, d, d) complex array; a list is stacked on construction.
    """

    weights: np.ndarray
    normalized_ops: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normalized_ops", np.asarray(self.normalized_ops, dtype=complex))

    @property
    def dim(self) -> int:
        return self.normalized_ops.shape[-1]

    def __len__(self) -> int:
        return len(self.normalized_ops)


@dataclass
class ValidationReport:
    """Outcome of a validation check with human-readable violations."""

    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate_povm(p: Povm, tol: float = HERM_TOL, allow_zero: bool = False) -> ValidationReport:
    """Check positivity of every operator and completeness of their sum.

    Zero operators (max-norm <= ``ZERO_TOL``) are rejected unless
    ``allow_zero`` is set; padding constructions legitimately carry them.
    """
    ops = p.operators
    lowest = eig_hermitian(ops)[0][:, 0]
    not_psd = lowest < -tol
    zero = (np.max(np.abs(ops), axis=(1, 2)) <= ZERO_TOL) & (not allow_zero)
    violations = []
    for i in np.flatnonzero(not_psd | zero):
        if not_psd[i]:
            violations.append(f"operator {i} is not PSD: min eigenvalue {lowest[i]:.3e}")
        if zero[i]:
            violations.append(f"operator {i} is zero (max-norm <= {ZERO_TOL:.0e})")
    defect = np.max(np.abs(ops.sum(axis=0) - np.eye(p.dim)))
    if defect > tol:
        violations.append(f"operators do not sum to the identity: max deviation {defect:.3e}")
    return ValidationReport(not violations, violations)


def validate_ensemble(s: Ensemble, tol: float = HERM_TOL) -> ValidationReport:
    """Check that states are unit-trace PSD and priors form a distribution."""
    lowest = eig_hermitian(s.states)[0][:, 0]
    traces = np.trace(s.states, axis1=1, axis2=2).real
    not_psd = lowest < -tol
    off_trace = np.abs(traces - 1.0) > tol
    violations = []
    for i in np.flatnonzero(not_psd | off_trace):
        if not_psd[i]:
            violations.append(f"state {i} is not PSD: min eigenvalue {lowest[i]:.3e}")
        if off_trace[i]:
            violations.append(f"state {i} has trace {traces[i]:.12g}, expected 1")
    if np.any(s.priors < 0):
        violations.append("priors contain negative entries")
    total = float(np.sum(s.priors))
    # Written so that a NaN sum fails too.
    if not abs(total - 1.0) <= ZERO_TOL:
        violations.append(f"priors sum to {total:.15g}, expected 1")
    return ValidationReport(not violations, violations)


def _nonzero(ops: np.ndarray) -> np.ndarray:
    """The operators of a stack whose max-norm exceeds ``ZERO_TOL``."""
    return ops[np.max(np.abs(ops), axis=(1, 2)) > ZERO_TOL]


def convex_combine(p: Povm, q: Povm, lam: float) -> Povm:
    """Random choice between two POVMs: {lam * Pi_i} followed by {(1-lam) * Q_j}.

    Operators scaled to zero (lam in {0, 1}) are dropped, since a POVM
    consists of non-zero operators.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if p.dim != q.dim:
        raise StructuralError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return Povm(_nonzero(np.concatenate([lam * p.operators, (1.0 - lam) * q.operators])))


def split_operator(p: Povm, index: int, lam: float) -> Povm:
    """Replace operator ``index`` by the pair lam * Pi, (1 - lam) * Pi.

    Splitting never changes the mutual information against any ensemble.  A
    zero part (lam in {0, 1}) is dropped, leaving the POVM unchanged.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"split weight must lie in [0, 1], got {lam}")
    if not 0 <= index < len(p):
        raise IndexError(f"operator index {index} out of range for {len(p)} operators")
    ops = p.operators
    parts = _nonzero(np.stack([lam * ops[index], (1.0 - lam) * ops[index]]))
    return Povm(np.concatenate([ops[:index], parts, ops[index + 1 :]]))


def normalize_povm(p: Povm) -> NormalizedPovm:
    """Rewrite a POVM so the identity is a convex combination of trace-d operators."""
    d = p.dim
    traces = np.trace(p.operators, axis1=1, axis2=2).real
    if np.any(traces <= ZERO_TOL):
        bad = int(np.argmin(traces))
        raise DegenerateOperatorError(f"operator {bad} has non-positive trace {traces[bad]:.3e}")
    return NormalizedPovm(weights=traces / d, normalized_ops=p.operators * (d / traces)[:, None, None])


def pretty_good_measurement(s: Ensemble) -> Povm:
    """Square-root measurement of an ensemble.

    With rho the average state, the operators are rho^-1/2 p(i) rho_i rho^-1/2
    using the pseudo-inverse square root on the support of rho.  Their sum is
    the projector onto that support, so if rho is rank-deficient the remainder
    I - sum is appended to complete the POVM; that completion operator never
    fires on the ensemble states.
    """
    weighted = s.priors[:, None, None] * s.states
    n = inv_sqrt_psd(weighted.sum(axis=0))
    ops = n @ weighted @ n
    completion = np.eye(s.dim) - ops.sum(axis=0)
    if np.max(np.abs(completion)) > ZERO_TOL:
        ops = np.concatenate([ops, completion[None]])
    return Povm(ops)
