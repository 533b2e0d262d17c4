"""Convex decomposition of the identity and measurement pruning.

Writing a POVM as sum_i lambda_i Pi'_i = I with tr(Pi'_i) = d turns the weight
vector into a solution of a linear system D lambda = c.  The feasible set is a
compact polytope, so lambda is a convex combination of basic feasible
solutions, each supported on at most rank(D) operators.  Walking the weights
to one such extreme point, never downhill in mutual information, prunes a
measurement to at most d^2 rank-one operators without losing information.

The decomposition is the constructive Caratheodory chain: walk the weights
along null vectors of the support columns to a vertex, peel off as much of
that vertex as stays nonnegative, and repeat on the renormalized remainder.
Each step of the walk takes one null vector of at most rows + 1 support
columns, so its cost does not grow with the number of operators.
The face dimension drops with every peel, so a support of n operators yields
at most n - rank(D) + 1 leaves.

Pruning needs no decomposition.  With the ensemble fixed, the joint
distribution of the leaf {nu_j Pi'_j} is linear in nu, so its mutual
information is convex in nu and largest at an end of every segment (the
extreme-point argument of Davies, IEEE Trans. Inf. Theory 24, 596, 1978).
Prune therefore returns the end of one information-ascent walk: the same
null-line walk, moving at each step to the more informative end of the line,
never loses information and reaches a vertex in at most n - rank(D) steps.

Every leaf, walked or peeled, is scored the same way: a leaf sums to the
identity, so its rows sum to the priors, and its information is the formal
information of J nu, where J[i, j] = p(i) tr(rho_i Pi'_j) is one m x n joint
matrix.  Under a symmetry group the walk runs over orbit sums on that same
matrix: conjugation by g permutes the states and keeps the priors, so the
column of g Pi'_j g^dagger / |G| is column j permuted and divided by |G|, and
the two log2|G| terms of the symmetrized leaf cancel.  The walk then ends on
at most dim-of-commutant orbits.  Plain pruning is the trivial group: every
orbit sum is its piece, the commutant is every Hermitian matrix, and the bound
is d^2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .hermitian import HERM_TOL, RANK_TOL, ZERO_TOL, coords, eig_hermitian
from .infotheory import _formal_information, joint_distribution
from .quantum import Ensemble, NormalizedPovm, Povm, normalize_povm, validate_ensemble, validate_povm
from .symmetry import (
    FiniteRep,
    NotSymmetricError,
    RealRepRequiredError,
    complex_orbit_bound,
    generate_group,
    is_symmetric_ensemble,
    orbit_sum,
    real_orbit_bound,
    symmetrize,
)

# Largest max|D lambda - c| accepted for given weights and for every leaf: a
# validated POVM sums to the identity only within HERM_TOL.
FEASIBLE_TOL = 1e-8


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


def build_design_matrix(normalized_ops) -> DesignMatrix:
    """Assemble the design matrix from a stack (or list) of operators with trace d."""
    ops = np.asarray(normalized_ops, dtype=complex)
    if len(ops) == 0:
        raise NormalizationError("need at least one operator")
    d = ops.shape[-1]
    traces = np.trace(ops, axis1=1, axis2=2).real
    bad = np.flatnonzero(np.abs(traces - d) > HERM_TOL)
    if bad.size:
        raise NormalizationError(f"operator {bad[0]} has trace {traces[bad[0]]:.12g}, expected {d}")
    matrix = np.vstack([np.ones(len(ops)), coords(ops).T])
    target = np.zeros(1 + d * d)
    target[: 1 + d] = 1.0
    return DesignMatrix(matrix=matrix, target=target)


def _null_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, one vector per column.

    Singular values at or below ``RANK_TOL`` times the largest count as zero.
    Only a wide matrix needs the full right factor to span its null space.
    """
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))
    return vt[rank:].T


def numeric_rank(d: DesignMatrix | np.ndarray) -> int:
    """Rank of a matrix: singular values above ``RANK_TOL`` times the largest."""
    matrix = d.matrix if isinstance(d, DesignMatrix) else np.asarray(d, dtype=float)
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class IdentityDecomposition:
    """Convex split of identity weights into basic feasible solutions.

    ``weights[i]`` is the convex coefficient of leaf ``solutions[i]``; each
    leaf is a nonnegative vector nu with sum(nu) = 1, sum_j nu_j Pi'_j = I,
    and support no larger than the rank of the design matrix; every entry is
    either zero or above ``ZERO_TOL``.
    """

    weights: np.ndarray
    solutions: list[np.ndarray]
    design: DesignMatrix

    def __len__(self) -> int:
        return len(self.solutions)

    def supports(self) -> list[np.ndarray]:
        return [np.flatnonzero(nu > ZERO_TOL) for nu in self.solutions]


def _line_end(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Far end of v + t q, t >= 0, that stays nonnegative.

    The coordinate that stops the step is set to zero exactly, and so is
    every coordinate at or below ``ZERO_TOL``.
    """
    # Row 0 of the design matrix is all ones, so null vectors sum to zero
    # and carry a negative entry.
    negative = np.flatnonzero(q < 0)
    if negative.size == 0:
        raise InternalLogicError("null vector lacks a negative entry; step undefined")
    ratios = v[negative] / -q[negative]
    hit = int(np.argmin(ratios))
    end = v + ratios[hit] * q
    end[negative[hit]] = 0.0
    return np.where(end > ZERO_TOL, end, 0.0)


def _walk_to_vertex(matrix: np.ndarray, lam: np.ndarray, score: Callable | None = None) -> tuple[np.ndarray, int]:
    """Move ``lam`` inside its face to a vertex of the polytope ``matrix`` x = c, x >= 0.

    Each step takes a null vector of the design columns on the window, the
    first rows + 1 nonzero coordinates of the current point; any rows + 1
    columns are dependent, so a full window always has one.  The walk ends
    when the whole support fits in the window and has no null vector: its
    columns are then linearly independent.  Without ``score`` every step goes
    forward along the null vector to the far end of its line; with it (a
    function of the full weight vector) each step goes to whichever end
    scores higher, the forward end on a tie.  Returns the vertex and the
    number of steps.
    """
    v = lam.copy()
    steps = 0
    while True:
        window = np.flatnonzero(v)[: matrix.shape[0] + 1]
        null = _null_basis(matrix[:, window])
        if not null.shape[1]:
            return v, steps
        q = np.zeros_like(v)
        q[window] = null[:, 0]
        end = _line_end(v, q)
        if score is not None:
            back = _line_end(v, -q)
            if score(back) > score(end):
                end = back
        v = end
        steps += 1


def _feasible_start(design: DesignMatrix, weights) -> np.ndarray:
    """Checked weights, with coordinates at or below ``ZERO_TOL`` set to zero."""
    lam = np.asarray(weights, dtype=float)
    if np.any(lam <= 0):
        raise InfeasibleError("all weights must be positive")
    residual = np.max(np.abs(design.matrix @ lam - design.target))
    if residual > FEASIBLE_TOL:
        raise InfeasibleError(f"weights do not reproduce the identity: residual {residual:.3e}")
    return np.where(lam > ZERO_TOL, lam, 0.0)


def decompose_identity(normalized: NormalizedPovm) -> IdentityDecomposition:
    """Rewrite sum_i lambda_i Pi'_i = I as a convex mixture of small solutions.

    Constructive Caratheodory chain: walk the remaining weights to a vertex v
    of their face, peel off the largest t with remainder - t v >= 0, and
    renormalize.  Each peel zeros a coordinate of v's support, so the face
    dimension drops every time and at most support - rank(D) + 1 leaves come
    out.  Each leaf uses at most rank(D) of the given operators; rank(D) is at
    most r + 1 when the operators live in an r-dimensional affine slice.
    Every leaf is checked to reproduce the identity within ``FEASIBLE_TOL``.
    """
    design = build_design_matrix(normalized.normalized_ops)
    rest = _feasible_start(design, normalized.weights)
    support = rest > 0
    max_leaves = np.count_nonzero(support) - numeric_rank(design.matrix[:, support]) + 1
    weights: list[float] = []
    solutions: list[np.ndarray] = []
    mass = 1.0
    while len(solutions) < max_leaves:
        vertex, steps = _walk_to_vertex(design.matrix, rest)
        inside = np.flatnonzero(vertex)
        ratios = rest[inside] / vertex[inside]
        hit = int(np.argmin(ratios))
        # Without a step the remainder is itself a vertex.
        t = min(ratios[hit], 1.0) if steps else 1.0
        weights.append(mass * t)
        solutions.append(vertex)
        if t == 1.0:
            residual = np.max(np.abs(design.matrix @ np.transpose(solutions) - design.target[:, None]))
            if residual > FEASIBLE_TOL:
                raise InternalLogicError(f"a leaf does not reproduce the identity: residual {residual:.3e}")
            return IdentityDecomposition(weights=np.array(weights), solutions=solutions, design=design)
        rest = rest - t * vertex
        rest[inside[hit]] = 0.0
        rest[rest <= ZERO_TOL] = 0.0
        rest /= rest.sum()
        mass *= 1.0 - t
    raise InternalLogicError(f"Caratheodory chain exceeded {max_leaves} leaves")


def split_rank_one(p: Povm) -> Povm:
    """Split every operator into its rank-one eigenpieces.

    Refining outcomes this way never decreases the mutual information, and the
    pieces sum to the original operators exactly (up to the discarded
    eigenvalues at or below ``ZERO_TOL``).
    """
    w, v = eig_hermitian(p.operators)
    vecs = v.swapaxes(1, 2)  # vecs[j, k] is the k-th eigenvector of operator j
    pieces = w[:, :, None, None] * (vecs[:, :, :, None] * vecs.conj()[:, :, None, :])
    # Boolean indexing keeps operator-major order, eigenvalues ascending.
    return Povm(pieces[w > ZERO_TOL])


def score_leaves(s: Ensemble, decomposition: IdentityDecomposition, ops) -> list[float]:
    """Mutual information of every leaf; leaf nu is the POVM {nu_j ops[j]} over its support."""
    joint = joint_distribution(s, ops)
    return [_formal_information(joint * nu, s.priors) for nu in decomposition.solutions]


class PrunedPovm(Povm):
    """A pruned POVM with the counts and the information of the walk that produced it.

    ``design_rank`` is the rank of the design columns the walk started from,
    ``walk_steps`` the number of null-line steps it took to the vertex and
    ``info_bits`` the walk's score of that vertex: the mutual information of
    the pruned POVM with the ensemble.
    The operators are taken over from an already checked ``Povm``.
    """

    def __init__(self, povm: Povm, design_rank: int, walk_steps: int, info_bits: float):
        object.__setattr__(self, "operators", povm.operators)
        object.__setattr__(self, "design_rank", design_rank)
        object.__setattr__(self, "walk_steps", walk_steps)
        object.__setattr__(self, "info_bits", info_bits)


def prune_povm(s: Ensemble, p: Povm, rep: FiniteRep | None = None, real_mode: bool = False) -> PrunedPovm:
    """Prune a POVM for a symmetric ensemble to a union of few group orbits.

    The operators are eigen-split to rank one and normalized, and their
    weights walk to a vertex of the identity polytope over the orbit sums,
    each step moving to the more informative end of its null line.
    Information is convex in the weights and unchanged by symmetrizing, so no
    step loses any, and the returned POVM is a union of at most
    dim-of-commutant orbits (real symmetric commutant when ``real_mode`` and
    the data are real).  Operators come in |G|-element orbit blocks, block j
    scaled by the vertex weight nu_j.  Without ``rep`` the group is trivial:
    each orbit is one operator and the bound is d^2 (d(d+1)/2 with
    ``real_mode``).  The walk scores the pieces on their m x n joint matrix
    (see the module docstring).
    """
    if rep is None:
        rep = generate_group([], dim=p.dim)
    if not is_symmetric_ensemble(s, rep):
        raise NotSymmetricError("ensemble is not symmetric under the given representation")
    for what, report in (("ensemble", validate_ensemble(s)), ("POVM", validate_povm(p))):
        if not report.ok:
            raise ValueError(f"invalid {what}: " + "; ".join(report.violations))
    normalized = normalize_povm(split_rank_one(p))
    ops = normalized.normalized_ops
    joint = joint_distribution(s, ops)
    if real_mode:
        bound = real_orbit_bound(rep)
        if np.max(np.abs(ops.imag)) > HERM_TOL:
            raise RealRepRequiredError("real_mode requires real POVM operators")
    else:
        bound = complex_orbit_bound(rep)
    design = build_design_matrix(orbit_sum(ops, rep))
    rest = _feasible_start(design, normalized.weights)
    nu, steps = _walk_to_vertex(design.matrix, rest, lambda x: _formal_information(joint * x, s.priors))
    kept = nu > 0
    orbits = np.count_nonzero(kept)
    if orbits > bound:
        raise InternalLogicError(f"the walk ended on {orbits} orbits, above the bound {bound}")
    # The kept columns are independent at a vertex, so they fix their weights:
    # solving for them again puts back the mass the walk's ZERO_TOL floor dropped.
    nu[kept] = np.linalg.lstsq(design.matrix[:, kept], design.target, rcond=None)[0]
    if np.any(nu[kept] <= 0):
        raise InternalLogicError("a re-solved vertex weight is not positive")
    leaf = Povm(ops[kept] * nu[kept, None, None])
    rank = numeric_rank(design.matrix[:, rest > 0])
    return PrunedPovm(symmetrize(leaf, rep), rank, steps, _formal_information(joint * nu, s.priors))
