"""Convex decomposition of the identity and measurement pruning.

Writing a POVM as sum_i lambda_i Pi'_i = I with tr(Pi'_i) = d turns the weight
vector into a solution of a linear system D lambda = c.  The feasible set is a
compact polytope, so lambda is a convex combination of basic feasible
solutions, each supported on at most rank(D) operators.  Decomposing down to
those extreme points and keeping the most informative one prunes a measurement
to at most d^2 rank-one operators (or fewer under symmetry) without losing
mutual information.

The decomposition is the constructive Caratheodory chain: walk the weights
along null vectors of the support columns (an SVD null basis, updated by
Householder reflections as columns leave) to a vertex, peel off as much of
that vertex as stays nonnegative, and repeat on the renormalized remainder.
The face dimension drops with every peel, so a support of n operators yields
at most n - rank(D) + 1 leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import coords, eig_hermitian, hermitian_part
from .infotheory import mutual_information
from .quantum import Ensemble, NormalizedPovm, Povm, normalize_povm, validate_povm
from .symmetry import (
    FiniteRep,
    NotSymmetricError,
    RealRepRequiredError,
    complex_orbit_bound,
    is_symmetric_ensemble,
    orbit_sum,
    real_orbit_bound,
)

RANK_TOL = 1e-10
EIGENVALUE_CUTOFF = 1e-12
SUPPORT_TOL = 1e-13


class NormalizationError(ValueError):
    """Raised when operators do not carry the required trace."""


class InfeasibleError(ValueError):
    """Raised when the given weights do not reproduce the identity."""


class InternalLogicError(RuntimeError):
    """Raised when the Caratheodory chain overruns its leaf bound or cannot step;
    indicates numerical trouble."""


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Coefficient matrix of the identity-decomposition equation D lambda = c.

    Row 0 is all ones (the weights are a convex combination); rows 1..d^2 hold
    the real basis coordinates of each trace-d operator, one operator per
    column.  The target c is (1, then d ones for the diagonal block, then
    zeros).
    """

    matrix: np.ndarray
    target: np.ndarray
    dim: int

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def build_design_matrix(normalized_ops) -> DesignMatrix:
    """Assemble the design matrix from operators with trace d."""
    ops = list(normalized_ops)
    if not ops:
        raise NormalizationError("need at least one operator")
    d = ops[0].shape[0]
    columns = []
    for i, op in enumerate(ops):
        tr = np.trace(op).real
        if abs(tr - d) > 1e-9:
            raise NormalizationError(f"operator {i} has trace {tr:.12g}, expected {d}")
        columns.append(np.concatenate([[1.0], coords(op)]))
    matrix = np.column_stack(columns)
    target = np.zeros(1 + d * d)
    target[: 1 + d] = 1.0
    return DesignMatrix(matrix=matrix, target=target, dim=d)


def _null_basis(a: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, one vector per column.

    Singular values at or below ``rank_tol`` times the largest count as zero.
    """
    _, s, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > rank_tol * s.max(initial=0.0)))
    return vt[rank:].T


def numeric_rank(d: DesignMatrix | np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Rank of a matrix: singular values above ``rank_tol`` times the largest."""
    matrix = d.matrix if isinstance(d, DesignMatrix) else np.asarray(d, dtype=float)
    return matrix.shape[1] - _null_basis(matrix, rank_tol).shape[1]


@dataclass(frozen=True, eq=False)
class IdentityDecomposition:
    """Convex split of identity weights into basic feasible solutions.

    ``weights[i]`` is the convex coefficient of leaf ``solutions[i]``; each
    leaf is a nonnegative vector nu with sum(nu) = 1, sum_j nu_j Pi'_j = I,
    and support no larger than the rank of the design matrix.
    """

    weights: np.ndarray
    solutions: list[np.ndarray]
    design: DesignMatrix

    def __len__(self) -> int:
        return len(self.solutions)

    def supports(self) -> list[np.ndarray]:
        return [np.flatnonzero(nu > SUPPORT_TOL) for nu in self.solutions]


def _restrict_null(null: np.ndarray, rows: np.ndarray, rank_tol: float) -> np.ndarray:
    """Null basis once the coordinates ``rows`` leave the support.

    The vectors of span(null) that vanish on ``rows`` remain; one Householder
    reflection per row rotates them into all but the first column, so the
    basis stays orthonormal.  A row that no null vector touches drops no
    direction.
    """
    for row in rows:
        a = null[row]
        norm = np.linalg.norm(a)
        if norm > rank_tol:
            u = a.copy()
            u[0] += np.copysign(norm, a[0])
            null = (null - np.outer(null @ u, u) * (2.0 / (u @ u)))[:, 1:]
    return np.delete(null, rows, axis=0)


def _walk_to_vertex(lam: np.ndarray, support: np.ndarray, null: np.ndarray, rank_tol: float) -> np.ndarray:
    """Move ``lam`` inside its face to a vertex of the polytope.

    ``null`` is an orthonormal null basis of the design columns on ``support``,
    the nonzero coordinates of ``lam``.  While it is nonempty, step along its
    first vector until a coordinate hits zero and restrict the basis to the
    smaller support; the walk ends when the support columns are linearly
    independent.
    """
    v = lam.copy()
    while null.shape[1]:
        # Row 0 of the design matrix is all ones, so null vectors sum to zero
        # and carry a negative entry.
        q = null[:, 0]
        negative = np.flatnonzero(q < 0)
        if negative.size == 0:
            raise InternalLogicError("null vector lacks a negative entry; step undefined")
        ratios = v[support[negative]] / -q[negative]
        hit = int(np.argmin(ratios))
        step = v[support] + ratios[hit] * q
        step[negative[hit]] = 0.0
        gone = np.flatnonzero(step <= SUPPORT_TOL)
        v[support] = np.where(step > SUPPORT_TOL, step, 0.0)
        null = _restrict_null(null, gone, rank_tol)
        support = np.delete(support, gone)
    return v


def decompose_identity(normalized: NormalizedPovm, rank_tol: float = RANK_TOL) -> IdentityDecomposition:
    """Rewrite sum_i lambda_i Pi'_i = I as a convex mixture of small solutions.

    Constructive Caratheodory chain: walk the remaining weights to a vertex v
    of their face, peel off the largest t with remainder - t v >= 0, and
    renormalize.  Each peel zeros a coordinate of v's support, so the face
    dimension drops every time and at most support - rank(D) + 1 leaves come
    out.  Each leaf uses at most rank(D) of the given operators; rank(D) is at
    most r + 1 when the operators live in an r-dimensional affine slice.
    """
    design = build_design_matrix(normalized.normalized_ops)
    lam = np.asarray(normalized.weights, dtype=float)
    if np.any(lam <= 0):
        raise InfeasibleError("all weights must be positive")
    residual = np.max(np.abs(design.matrix @ lam - design.target))
    if residual > 1e-8:
        raise InfeasibleError(f"weights do not reproduce the identity: residual {residual:.3e}")
    rest = np.where(lam > SUPPORT_TOL, lam, 0.0)
    support = np.flatnonzero(rest)
    # One SVD for the whole chain: every peel only shrinks the support, so the
    # null basis of the remainder follows by restriction.
    null = _null_basis(design.matrix[:, support], rank_tol)
    max_leaves = null.shape[1] + 1
    weights: list[float] = []
    solutions: list[np.ndarray] = []
    mass = 1.0
    while len(solutions) < max_leaves:
        vertex = _walk_to_vertex(rest, support, null, rank_tol)
        inside = np.flatnonzero(vertex)
        ratios = rest[inside] / vertex[inside]
        hit = int(np.argmin(ratios))
        # Without a null vector the remainder is itself a vertex.
        t = min(ratios[hit], 1.0) if null.shape[1] else 1.0
        weights.append(mass * t)
        solutions.append(vertex)
        if t == 1.0:
            return IdentityDecomposition(weights=np.array(weights), solutions=solutions, design=design)
        rest = rest - t * vertex
        rest[inside[hit]] = 0.0
        rest[rest <= SUPPORT_TOL] = 0.0
        rest /= rest.sum()
        mass *= 1.0 - t
        gone = np.flatnonzero(rest[support] == 0.0)
        null = _restrict_null(null, gone, rank_tol)
        support = np.delete(support, gone)
    raise InternalLogicError(f"Caratheodory chain exceeded {max_leaves} leaves")


def split_rank_one(p: Povm, cutoff: float = EIGENVALUE_CUTOFF) -> Povm:
    """Split every operator into its rank-one eigenpieces.

    Refining outcomes this way never decreases the mutual information, and the
    pieces sum to the original operators exactly (up to the discarded
    eigenvalues below ``cutoff``).
    """
    pieces = []
    for op in p.operators:
        w, v = eig_hermitian(op)
        for k in range(len(w)):
            if w[k] > cutoff:
                vec = v[:, k]
                pieces.append(hermitian_part(w[k] * np.outer(vec, vec.conj())))
    return Povm(pieces)


def score_leaves(
    s: Ensemble,
    decomposition: IdentityDecomposition,
    ops,
    rep: FiniteRep | None = None,
) -> tuple[list[float], Povm]:
    """Mutual information of every leaf and the first most informative leaf.

    Leaf nu is the POVM {nu_j ops[j]} over its support.  With ``rep`` every
    operator is replaced by its |G| conjugates u nu_j ops[j] u^dagger / |G|,
    so a leaf over orbit sums becomes a union of orbits in |G|-element blocks.
    """
    infos: list[float] = []
    best, best_info = None, -np.inf
    for nu in decomposition.solutions:
        support = np.flatnonzero(nu > SUPPORT_TOL)
        if rep is None:
            candidate = Povm([nu[j] * ops[j] for j in support])
        else:
            scale = 1.0 / rep.order
            candidate = Povm([
                hermitian_part(nu[j] * scale * (u @ ops[j] @ u.conj().T))
                for j in support
                for u in rep.elements
            ])
        infos.append(mutual_information(s, candidate))
        if infos[-1] > best_info:
            best, best_info = candidate, infos[-1]
    return infos, best


def prune_povm(s: Ensemble, p: Povm, rank_tol: float = RANK_TOL) -> Povm:
    """Shrink a POVM to at most d^2 rank-one operators without losing information.

    The operators are eigen-split to rank one, the identity decomposition is
    computed, and the leaf with the largest mutual information is returned.
    The mixture of the leaves reproduces the split POVM, so the best leaf is
    at least as informative as the input.
    """
    report = validate_povm(p)
    if not report.ok:
        raise ValueError("invalid POVM: " + "; ".join(report.violations))
    rank_one = split_rank_one(p)
    normalized = normalize_povm(rank_one)
    decomposition = decompose_identity(normalized, rank_tol)
    return score_leaves(s, decomposition, normalized.normalized_ops)[1]


def prune_symmetric_povm(
    s: Ensemble,
    p: Povm,
    rep: FiniteRep,
    real_mode: bool = False,
    rank_tol: float = RANK_TOL,
) -> Povm:
    """Prune a POVM for a symmetric ensemble to a union of few group orbits.

    Symmetrizing leaves the information unchanged, and the orbit sums of the
    rank-one pieces live in the commutant of the representation, so the
    decomposition works in that far smaller slice: the returned POVM is a
    union of at most dim-of-commutant orbits (real symmetric commutant when
    ``real_mode`` and the data are real).  Operators come in |G|-element orbit
    blocks, block j scaled by the leaf weight nu_j.
    """
    if not is_symmetric_ensemble(s, rep):
        raise NotSymmetricError("ensemble is not symmetric under the given representation")
    report = validate_povm(p)
    if not report.ok:
        raise ValueError("invalid POVM: " + "; ".join(report.violations))
    rank_one = split_rank_one(p)
    normalized = normalize_povm(rank_one)
    if real_mode:
        bound = real_orbit_bound(rep)
        for op in normalized.normalized_ops:
            if np.max(np.abs(op.imag)) > 1e-9:
                raise RealRepRequiredError("real_mode requires real POVM operators")
    else:
        bound = complex_orbit_bound(rep)
    sums = [orbit_sum(op, rep) for op in normalized.normalized_ops]
    averaged = NormalizedPovm(weights=normalized.weights, normalized_ops=sums)
    decomposition = decompose_identity(averaged, rank_tol)
    largest = max(len(sup) for sup in decomposition.supports())
    if largest > bound:
        raise InternalLogicError(
            f"decomposition produced {largest} orbits, above the bound {bound}"
        )
    return score_leaves(s, decomposition, normalized.normalized_ops, rep)[1]
