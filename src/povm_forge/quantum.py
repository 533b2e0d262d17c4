"""Ensembles, POVMs, and their convex algebra.

An ensemble is a list of density matrices with prior probabilities.  A POVM is
a list of positive semidefinite operators summing to the identity.  Both are
treated as multisets: duplicate operators are allowed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermitian import (
    HERM_TOL,
    PSD_TOL,
    as_hermitian,
    eig_hermitian,
    hermitian_part,
    inv_sqrt_psd,
    support_projector,
)

ZERO_OP_TOL = 1e-12


class StructuralError(ValueError):
    """Raised on shape or dimension mismatches between operators."""


class DegenerateOperatorError(ValueError):
    """Raised when an operator that must have positive trace does not."""


def _as_operator_list(ops, what: str) -> list[np.ndarray]:
    mats = [as_hermitian(op) for op in ops]
    if not mats:
        raise StructuralError(f"{what} must contain at least one operator")
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise StructuralError(f"{what} operator {i} has dimension {m.shape[0]}, expected {d}")
    return mats


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Quantum states rho_i with prior probabilities p(i)."""

    states: list[np.ndarray]
    priors: np.ndarray

    def __init__(self, states, priors):
        object.__setattr__(self, "states", _as_operator_list(states, "ensemble"))
        object.__setattr__(self, "priors", np.asarray(priors, dtype=float))
        if len(self.priors) != len(self.states):
            raise StructuralError(
                f"{len(self.states)} states but {len(self.priors)} priors"
            )

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement given by positive operators summing to the identity."""

    operators: list[np.ndarray]

    def __init__(self, operators):
        object.__setattr__(self, "operators", _as_operator_list(operators, "POVM"))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class NormalizedPovm:
    """POVM rewritten as a convex combination of trace-d operators.

    weights[i] = tr(Pi_i) / d and normalized_ops[i] = d * Pi_i / tr(Pi_i), so
    sum_i weights[i] * normalized_ops[i] equals the identity.
    """

    weights: np.ndarray
    normalized_ops: list[np.ndarray]

    @property
    def dim(self) -> int:
        return self.normalized_ops[0].shape[0]

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

    Zero operators (max-norm <= 1e-12) are rejected unless ``allow_zero`` is
    set; padding constructions legitimately carry them.
    """
    violations = []
    d = p.dim
    for i, op in enumerate(p.operators):
        w, _ = eig_hermitian(op)
        if w[0] < -tol:
            violations.append(f"operator {i} is not PSD: min eigenvalue {w[0]:.3e}")
        if not allow_zero and np.max(np.abs(op)) <= ZERO_OP_TOL:
            violations.append(f"operator {i} is zero (max-norm <= {ZERO_OP_TOL:.0e})")
    total = sum(p.operators)
    defect = np.max(np.abs(total - np.eye(d)))
    if defect > tol:
        violations.append(f"operators do not sum to the identity: max deviation {defect:.3e}")
    return ValidationReport(not violations, violations)


def validate_ensemble(s: Ensemble, tol: float = HERM_TOL) -> ValidationReport:
    """Check that states are unit-trace PSD and priors form a distribution."""
    violations = []
    for i, rho in enumerate(s.states):
        w, _ = eig_hermitian(rho)
        if w[0] < -tol:
            violations.append(f"state {i} is not PSD: min eigenvalue {w[0]:.3e}")
        tr = rho.trace().real
        if abs(tr - 1.0) > tol:
            violations.append(f"state {i} has trace {tr:.12g}, expected 1")
    if np.any(s.priors < 0):
        violations.append("priors contain negative entries")
    total = float(np.sum(s.priors))
    if abs(total - 1.0) > 1e-12:
        violations.append(f"priors sum to {total:.15g}, expected 1")
    return ValidationReport(not violations, violations)


def convex_combine(p: Povm, q: Povm, lam: float) -> Povm:
    """Random choice between two POVMs: {lam * Pi_i} followed by {(1-lam) * Q_j}.

    Operators scaled to zero (lam in {0, 1}) are dropped, since a POVM
    consists of non-zero operators.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if p.dim != q.dim:
        raise StructuralError(f"dimension mismatch: {p.dim} vs {q.dim}")
    ops = [lam * op for op in p.operators] + [(1.0 - lam) * op for op in q.operators]
    return Povm([op for op in ops if np.max(np.abs(op)) > ZERO_OP_TOL])


def split_operator(p: Povm, index: int, lam: float) -> Povm:
    """Replace operator ``index`` by the pair lam * Pi, (1 - lam) * Pi.

    Splitting never changes the mutual information against any ensemble.  A
    zero part (lam in {0, 1}) is dropped, leaving the POVM unchanged.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"split weight must lie in [0, 1], got {lam}")
    if not 0 <= index < len(p):
        raise IndexError(f"operator index {index} out of range for {len(p)} operators")
    ops = list(p.operators)
    target = ops.pop(index)
    parts = [lam * target, (1.0 - lam) * target]
    parts = [op for op in parts if np.max(np.abs(op)) > ZERO_OP_TOL]
    return Povm(ops[:index] + parts + ops[index:])


def normalize_povm(p: Povm) -> NormalizedPovm:
    """Rewrite a POVM so the identity is a convex combination of trace-d operators."""
    d = p.dim
    traces = np.array([op.trace().real for op in p.operators])
    if np.any(traces <= ZERO_OP_TOL):
        bad = int(np.argmin(traces))
        raise DegenerateOperatorError(f"operator {bad} has non-positive trace {traces[bad]:.3e}")
    weights = traces / d
    normalized = [op * (d / tr) for op, tr in zip(p.operators, traces)]
    return NormalizedPovm(weights=weights, normalized_ops=normalized)


def pretty_good_measurement(s: Ensemble) -> Povm:
    """Square-root measurement of an ensemble.

    With rho the average state, the operators are rho^-1/2 p(i) rho_i rho^-1/2
    using the pseudo-inverse square root on the support of rho.  If rho is
    rank-deficient the complement of the support projector is appended so the
    result is a complete POVM; that completion operator never fires on the
    ensemble states.
    """
    rho = hermitian_part(sum(p * st for p, st in zip(s.priors, s.states)))
    n = inv_sqrt_psd(rho)
    ops = [hermitian_part(n @ (p * st) @ n) for p, st in zip(s.priors, s.states)]
    completion = np.eye(s.dim) - support_projector(rho)
    if np.max(np.abs(completion)) > PSD_TOL:
        ops.append(hermitian_part(completion))
    return Povm(ops)
