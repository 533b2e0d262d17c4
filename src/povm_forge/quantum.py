"""Ensembles, POVMs, and their convex algebra.

An ensemble is a stack of density matrices with prior probabilities.  A POVM
is a stack of positive semidefinite operators summing to the identity.  Both
hold their matrices as one (n, d, d) complex array, so every per-operator
computation is one batched numpy call, and both are treated as multisets:
duplicate operators are allowed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Measurement given by positive operators, stacked as one (n, d, d) array, summing to the identity.

    The stack is read-only, so the cached ``spectrum`` cannot go stale.
    """

    operators: np.ndarray

    def __init__(self, operators):
        stack = _as_operator_stack(operators, "POVM")
        stack.flags.writeable = False
        object.__setattr__(self, "operators", stack)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``eig_hermitian`` of the operator stack: ascending eigenvalues and eigenvectors per operator."""
        return eig_hermitian(self.operators)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class NormalizedPovm:
    """POVM rewritten as a convex combination of trace-d operators.

    weights[i] = tr(Pi_i) / d and normalized_ops[i] = d * Pi_i / tr(Pi_i), so
    sum_i weights[i] * normalized_ops[i] equals the identity.  A zero operator
    (trace at or below ``ZERO_TOL``) has weight 0 and the identity as its
    trace-d stand-in.  The operators are one stacked (n, d, d) complex array;
    a list is stacked on construction.
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

    def require(self, what: str) -> None:
        """Raise ``ValueError("invalid {what}: ...")``, the one wording of invalid input, unless the check passed."""
        if not self.ok:
            raise ValueError(f"invalid {what}: " + "; ".join(self.violations))


def validate_povm(p: Povm) -> ValidationReport:
    """Check positivity (from ``p.spectrum``) and completeness within ``HERM_TOL``, the one check of every command.

    A zero operator is a legal outcome that never fires.
    """
    lowest = p.spectrum[0][:, 0]
    violations = [
        f"operator {i} is not PSD: min eigenvalue {lowest[i]:.3e}" for i in np.flatnonzero(lowest < -HERM_TOL)
    ]
    defect = np.max(np.abs(p.operators.sum(axis=0) - np.eye(p.dim)))
    if defect > HERM_TOL:
        violations.append(f"operators do not sum to the identity: max deviation {defect:.3e}")
    return ValidationReport(not violations, violations)


def validate_ensemble(s: Ensemble) -> ValidationReport:
    """Check that states are PSD and of unit trace within ``HERM_TOL``, and priors form a distribution."""
    lowest = eig_hermitian(s.states)[0][:, 0]
    traces = np.trace(s.states, axis1=1, axis2=2).real
    not_psd = lowest < -HERM_TOL
    off_trace = np.abs(traces - 1.0) > HERM_TOL
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

    Operators scaled to zero (lam in {0, 1}) are zero parts: a zero part
    never fires, so it is dropped.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if p.dim != q.dim:
        raise StructuralError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return Povm(_nonzero(np.concatenate([lam * p.operators, (1.0 - lam) * q.operators])))


def split_operator(p: Povm, index: int, lam: float) -> Povm:
    """Replace operator ``index`` by the pair lam * Pi, (1 - lam) * Pi.

    Splitting never changes the mutual information against any ensemble.  A
    zero part (lam in {0, 1}) never fires, so it is dropped, leaving the POVM
    unchanged.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"split weight must lie in [0, 1], got {lam}")
    if not 0 <= index < len(p):
        raise IndexError(f"operator index {index} out of range for {len(p)} operators")
    ops = p.operators
    parts = _nonzero(np.stack([lam * ops[index], (1.0 - lam) * ops[index]]))
    return Povm(np.concatenate([ops[:index], parts, ops[index + 1 :]]))


def normalize_povm(p: Povm) -> NormalizedPovm:
    """Rewrite a POVM so the identity is a convex combination of trace-d operators.

    An operator whose trace is at or below ``ZERO_TOL`` is zero: it gets
    weight 0 and the identity as its trace-d stand-in.
    """
    d = p.dim
    traces = np.trace(p.operators, axis1=1, axis2=2).real
    zero = traces <= ZERO_TOL
    ops = p.operators * (d / np.where(zero, d, traces))[:, None, None]
    ops[zero] = np.eye(d)
    return NormalizedPovm(weights=np.where(zero, 0.0, traces / d), normalized_ops=ops)


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
