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

Pruning needs no decomposition.  Every leaf, walked or peeled, is scored
the same way: a leaf {nu_j Pi'_j} sums to the identity, so its rows sum to
the priors, and its information is the formal information of J nu, where
J[i, j] = p(i) tr(rho_i Pi'_j) is one m x n joint matrix.  With the ensemble
fixed that information is linear in nu: the nu_j log2 nu_j terms of each
column cancel, so I(J nu) = g . nu - sum_i h(p_i) with h(u) = u log2 u and
the slope g_j = sum_i h(J_ij) - h(sum_i J_ij).  On the polytope g . nu is
sum_j nu_j f(Pi'_j) + sum_i h(p_i), where f(Pi) = sum_i p_i tr(rho_i Pi)
log2(tr rho_i Pi / tr rho Pi) is the information one outcome carries.  So
the information is largest at an end of every segment (the extreme-point
argument of Davies, IEEE Trans. Inf. Theory 24, 596, 1978), and prune
returns the end of one information-ascent walk: the same null-line walk,
turned at each step towards the end where g rises (forward on a tie), never
loses information and reaches a vertex in at most n - rank(D) steps.  The
slope is computed once per prune, each step computes one line end, and
every leaf is scored by one product with it.

Under a symmetry group the walk runs over orbit sums on that same matrix:
conjugation by g permutes the states and keeps the priors, so the column of
g Pi'_j g^dagger / |G| is column j permuted and divided by |G|, and the two
log2|G| terms of the symmetrized leaf cancel.  The walk then ends on at most
dim-of-commutant orbits.  Plain pruning is the trivial group: every orbit
sum is its piece, the commutant is every Hermitian matrix, and the bound is
d^2.

Two thresholds decide what is zero.  ``ZERO_TOL`` is rounding: a weight at or
below it, left by a subtraction, is zero in the walk and in the chain, and a
weight within it of zero after prune's exact re-solve is dropped.
``HERM_TOL`` is only how far an identity or a sign may be off, what
``validate_povm`` cannot tell from zero; no weight is dropped by it, since
dropping such pieces first loses more than ``HERM_TOL`` bit on rounded
inputs.  Ill-conditioned kept columns can magnify the mass the walk's floor
dropped into a re-solved weight below zero; prune then keeps the walk's own
vertex.  Either way the pruned weights must reproduce the identity within
``HERM_TOL``.  The chain needs no fallback: it scores leaves on the given
operators, and a remainder whose renormalization magnifies rounding beyond
``FEASIBLE_TOL`` goes to the leaf it was peeled from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HERM_TOL, RANK_TOL, ZERO_TOL, coords
from .infotheory import _information_slope, joint_distribution, plogp
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

# Largest max|D lambda - c| that decompose_identity accepts for given weights
# and for every leaf: a validated POVM sums to the identity only within HERM_TOL.
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


def _walk_to_vertex(matrix: np.ndarray, lam: np.ndarray, gain: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Move ``lam`` inside its face to a vertex of the polytope ``matrix`` x = c, x >= 0.

    Each step takes a null vector of the design columns on the window, the
    first rows + 1 nonzero coordinates of the current point; any rows + 1
    columns are dependent, so a full window always has one.  The walk ends
    when the whole support fits in the window and has no null vector: its
    columns are then linearly independent.  Every step computes one line end:
    forward along the null vector without ``gain``; with it, the slope of a
    score g . x that is linear in the weights, the null vector is flipped
    when g falls along it, so the step goes to the end that scores higher,
    forward on a tie.  Returns the vertex and the number of steps.
    """
    v = lam.copy()
    steps = 0
    while True:
        window = np.flatnonzero(v)[: matrix.shape[0] + 1]
        null = _null_basis(matrix[:, window])
        if not null.shape[1]:
            return v, steps
        direction = null[:, 0]
        if gain is not None and gain[window] @ direction < 0:
            direction = -direction
        q = np.zeros_like(v)
        q[window] = direction
        v = _line_end(v, q)
        steps += 1


def _feasible_start(design: DesignMatrix, weights) -> np.ndarray:
    """Checked caller-given weights of ``decompose_identity``; coordinates at or below ``ZERO_TOL`` become zero."""
    lam = np.asarray(weights, dtype=float)
    if np.any(lam < 0):
        raise InfeasibleError("all weights must be nonnegative")
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
    A remainder that renormalizing takes off the identity by more than
    ``FEASIBLE_TOL`` (its mass is then tiny) is not split: the leaf it was
    peeled from takes its mass.  Every leaf is checked to reproduce the
    identity within ``FEASIBLE_TOL``.
    """
    design = build_design_matrix(normalized.normalized_ops)
    rest = _feasible_start(design, normalized.weights)
    support = rest > 0
    max_leaves = np.count_nonzero(support) - numeric_rank(design.matrix[:, support]) + 1
    weights: list[float] = []
    solutions: list[np.ndarray] = []
    mass = 1.0
    while len(solutions) < max_leaves:
        vertex, _ = _walk_to_vertex(design.matrix, rest)
        inside = np.flatnonzero(vertex)
        ratios = rest[inside] / vertex[inside]
        hit = int(np.argmin(ratios))
        t = min(ratios[hit], 1.0)
        if t < 1.0:
            left = rest - t * vertex
            left[inside[hit]] = 0.0
            left[left <= ZERO_TOL] = 0.0
            left /= left.sum()
            # Renormalizing a remainder of tiny mass magnifies its rounding.
            if np.max(np.abs(design.matrix @ left - design.target)) > FEASIBLE_TOL:
                t = 1.0
        weights.append(mass * t)
        solutions.append(vertex)
        if t == 1.0:
            residual = np.max(np.abs(design.matrix @ np.transpose(solutions) - design.target[:, None]))
            if residual > FEASIBLE_TOL:
                raise InternalLogicError(f"a leaf does not reproduce the identity: residual {residual:.3e}")
            return IdentityDecomposition(weights=np.array(weights), solutions=solutions, design=design)
        rest = left
        mass *= 1.0 - t
    raise InternalLogicError(f"Caratheodory chain exceeded {max_leaves} leaves")


def split_rank_one(p: Povm) -> Povm:
    """Split every operator into its rank-one eigenpieces.

    Refining outcomes this way never decreases the mutual information, and the
    pieces sum to the original operators exactly (up to the discarded
    eigenvalues at or below ``ZERO_TOL``).  It reuses the eigensolve of
    ``validate_povm``: both read ``p.spectrum``.
    """
    w, v = p.spectrum
    vecs = v.swapaxes(1, 2)  # vecs[j, k] is the k-th eigenvector of operator j
    pieces = w[:, :, None, None] * (vecs[:, :, :, None] * vecs.conj()[:, :, None, :])
    # Boolean indexing keeps operator-major order, eigenvalues ascending.
    return Povm(pieces[w > ZERO_TOL])


def score_leaves(s: Ensemble, decomposition: IdentityDecomposition, p: Povm) -> list[float]:
    """Mutual information of every leaf of ``decompose_identity(normalize_povm(p))``.

    Leaf nu is the POVM {nu_j Pi'_j} = {(nu_j / w_j) Pi_j} over its support.
    The joint matrix is taken of the given operators Pi_j, whose sign
    ``joint_distribution`` checks, and then scaled per column: a tolerated
    negative eigenvalue of Pi_j is never divided by a small trace first.
    Information is linear in the leaf weights, so all leaves are scored by
    one product of the stacked solutions with the slope of that matrix.
    """
    w = normalize_povm(p).weights
    gain = _information_slope(joint_distribution(s, p) * np.divide(1.0, w, out=np.zeros_like(w), where=w > 0))
    return (np.stack(decomposition.solutions) @ gain - plogp(s.priors).sum()).tolist()


class PrunedPovm(Povm):
    """A pruned POVM with the counts and the information of the walk that produced it.

    ``design_rank`` is the rank of the design columns the walk started from,
    ``walk_steps`` the number of null-line steps it took to the vertex and
    ``info_bits`` the walk's score g . nu - sum h(p_i) of the kept weights:
    the mutual information of the pruned POVM with the ensemble.
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
    Information is linear in the weights and unchanged by symmetrizing, so no
    step loses any, and the returned POVM is a union of at most
    dim-of-commutant orbits (real symmetric commutant when ``real_mode`` and
    the data are real).  Operators come in |G|-element orbit blocks, block j
    scaled by the vertex weight nu_j.  Without ``rep`` the group is trivial:
    each orbit is one operator and the bound is d^2 (d(d+1)/2 with
    ``real_mode``).  The walk climbs the slope of the pieces' m x n joint
    matrix, computed once (see the module docstring).  Completeness is ruled
    on once, by ``validate_povm``: the split drops only eigenvalues it
    tolerated, so the walk starts from the split weights unchecked.  The
    vertex's weights are solved for again; a re-solved weight within
    ``ZERO_TOL`` of zero is dropped, and any other one at or below zero
    keeps the walk's vertex instead.  The weights kept must reproduce the
    identity within ``HERM_TOL``.
    """
    if rep is None:
        rep = generate_group([], dim=p.dim)
    if not is_symmetric_ensemble(s, rep):
        raise NotSymmetricError("ensemble is not symmetric under the given representation")
    validate_ensemble(s).require("ensemble")
    validate_povm(p).require("POVM")
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
    rest = np.where(normalized.weights > ZERO_TOL, normalized.weights, 0.0)
    gain = _information_slope(joint)
    vertex, steps = _walk_to_vertex(design.matrix, rest, gain)
    nu = vertex.copy()
    kept = nu > 0
    orbits = np.count_nonzero(kept)
    if orbits > bound:
        raise InternalLogicError(f"the walk ended on {orbits} orbits, above the bound {bound}")
    # The kept columns are independent at a vertex, so they fix their weights:
    # solving for them again puts back the mass the walk's ZERO_TOL floor dropped.
    # A walk that ends on a degenerate vertex keeps a few weights that the exact
    # solve puts within ZERO_TOL of zero; those columns are dropped and the rest
    # solved again, until none is left.  Ill-conditioned kept columns can
    # magnify that mass past zero; the walk's own vertex is nonnegative and
    # serves instead.
    while True:
        nu[kept] = np.linalg.lstsq(design.matrix[:, kept], design.target, rcond=None)[0]
        vanishing = kept & (np.abs(nu) <= ZERO_TOL)
        if not vanishing.any():
            break
        nu[vanishing] = 0.0
        kept &= ~vanishing
    if np.any(nu[kept] <= 0):
        nu, kept = vertex, vertex > 0
    residual = np.max(np.abs(design.matrix[:, kept] @ nu[kept] - design.target))
    if residual > HERM_TOL:
        raise InternalLogicError(f"the pruned weights do not reproduce the identity: residual {residual:.3e}")
    leaf = Povm(ops[kept] * nu[kept, None, None])
    rank = numeric_rank(design.matrix[:, rest > 0])
    return PrunedPovm(symmetrize(leaf, rep), rank, steps, float(gain @ nu - plogp(s.priors).sum()))
