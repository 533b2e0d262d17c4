"""Convex decomposition of the identity and measurement pruning.

Writing a POVM as sum_i lambda_i Pi'_i = I with tr(Pi'_i) = d turns the weight
vector into a solution of a linear system D lambda = c.  The feasible set is a
compact polytope, so lambda is a convex combination of basic feasible
solutions, each supported on at most rank(D) operators.  Moving the weights
to one such extreme point, never downhill in mutual information, prunes a
measurement to at most d^2 rank-one operators without losing information.

Both reach a vertex by one routine: each support column pivots into the
basis, or one exchange, O(rows^2) with a rank-one update of the basis
inverse, takes it or a basic column out of the support, and Dantzig pivots
climb a slope.  The decomposition is the constructive Caratheodory chain:
exchange the weights to a vertex, peel off as much of it as stays
nonnegative, and from that vertex climb with slope -1 on the columns off
the renormalized remainder's support (phase one of the two-phase simplex
method, Dantzig 1963), about one pivot a leaf.  The face dimension drops
with every peel, so n operators yield at most n - rank(D) + 1 leaves.

Pruning needs no decomposition.  Every leaf is scored the same way: a leaf
{nu_j Pi'_j} sums to the identity, so its rows sum to the priors, and its
information is the formal information of J nu, where
J[i, j] = p(i) tr(rho_i Pi'_j) is one m x n joint matrix.  With the ensemble
fixed that information is linear in nu: the nu_j log2 nu_j terms of each
column cancel, so I(J nu) = g . nu - sum_i h(p_i) with h(u) = u log2 u and
the slope g_j = sum_i h(J_ij) - h(sum_i J_ij).  On the polytope g . nu is
sum_j nu_j f(Pi'_j) + sum_i h(p_i), where f(Pi) = sum_i p_i tr(rho_i Pi)
log2(tr rho_i Pi / tr rho Pi) is the information one outcome carries.  So
the best reweighting of the given pieces is the linear program max g . nu
over the polytope, and its optimum is a vertex (the extreme-point argument
of Davies, IEEE Trans. Inf. Theory 24, 596, 1978).  Prune solves it: the
exchanges turn each weight towards the end where g rises, and Dantzig
pivots then climb until no reduced cost is positive, which certifies the
optimum, at least every leaf of a chain over the same pieces; the climb
stops after n pivots, certified only if the reduced costs there pass the
same test, and at least the input either way.  The slope is computed once
per prune, and every leaf is scored by one product with it.

Under a symmetry group the program runs over orbit sums on that same matrix:
conjugation by g permutes the states and keeps the priors, so the column of
g Pi'_j g^dagger / |G| is column j permuted and divided by |G|, and the two
log2|G| terms of the symmetrized leaf cancel.  The vertex then has at most
dim-of-commutant orbits.  Plain pruning is the trivial group: every orbit
sum is its piece, the commutant is every Hermitian matrix, and the bound is
d^2.

Three thresholds decide what is zero.  ``ZERO_TOL`` is rounding: a weight
or a reduced cost at or below it is zero.  ``PIVOT_TOL`` is the smallest
pivot, relative to the largest entry of its column.  ``HERM_TOL`` is how far
an identity or a sign may be off, what ``validate_povm`` cannot tell from
zero; no weight is dropped by it.  A vertex's weights come from one solve
on its square basis, which puts back the mass the ``ZERO_TOL`` floor
dropped, or are the exchange's own if the solve puts one below zero; prune's
must reproduce the identity within ``HERM_TOL``, each leaf within
``FEASIBLE_TOL``.  A remainder whose renormalization magnifies rounding
beyond ``FEASIBLE_TOL`` goes to the leaf it was peeled from.
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

# Smallest pivot of a basis exchange, relative to the largest entry of the
# entering column in basis coordinates: a smaller one is rounding, and
# pivoting on it would leave a numerically singular basis.
PIVOT_TOL = 1e-7


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
    either zero or above ``ZERO_TOL``.  Each leaf is on the identity within
    ``FEASIBLE_TOL``.  The mixture sum_i weights[i] nu_i rebuilds given weights on
    the identity to rounding, and given weights off it (a POVM written to 10
    decimals) to their identity residual times the conditioning of the leaf bases.
    """

    weights: np.ndarray
    solutions: list[np.ndarray]
    design: DesignMatrix

    def __len__(self) -> int:
        return len(self.solutions)

    def supports(self) -> list[np.ndarray]:
        return [np.flatnonzero(nu > ZERO_TOL) for nu in self.solutions]


def _basis_exchange(design: DesignMatrix, x: np.ndarray, gain: np.ndarray, start=None) -> tuple[np.ndarray, tuple, int, int, bool]:
    """Move the feasible point ``x`` of {D x = c, x >= 0} to a vertex maximizing g . x by basis exchange.

    The basis starts as ``start``, a (basis, inverse) pair returned before,
    whose columns off the support of ``x`` become slacks, or as one slack
    column per row; slacks are held at zero.  Each support column not in the
    basis pivots into the slack row of its largest entry in basis
    coordinates, if above ``PIVOT_TOL`` times the column's largest; otherwise
    one exchange moves its weight until it or a basic weight reaches zero:
    up if its reduced cost under the slope ``gain`` is positive, else down,
    so g . x never falls.  At most n Dantzig pivots follow; if they end, or
    reach that cap, with no reduced cost above ``ZERO_TOL``, the vertex is
    certified.  Each step is O(rows^2), a rank-one update of the basis
    inverse.  Returns the weights solved on the square basis (zero at or
    below ``ZERO_TOL``), the (basis, inverse) pair, n marking a slack, the
    number of exchanges, the number of pivots, and whether the climb certified.
    """
    matrix = design.matrix
    rows, n = matrix.shape
    basis, inverse = (np.full(rows, n), np.eye(rows)) if start is None else start
    x = np.append(x, 0.0)  # x[n] takes the slack rows' updates and is never read
    basis[x[basis] == 0.0] = n
    score = np.append(gain, 0.0)
    slack = basis == n

    def enter(j: int) -> bool:
        """Pivot column j into the basis, or move its weight down to zero; True for an exchange."""
        alpha = inverse @ matrix[:, j]
        size = np.abs(alpha)
        cutoff = PIVOT_TOL * size.max()
        k = (size * slack).argmax()
        exchange = bool(size[k] <= cutoff or not slack[k])
        if exchange:
            up = score[j] > score[basis] @ alpha
            step = alpha if up else -alpha
            falling = ((size > cutoff) & (step > 0)).nonzero()[0]
            if up and not falling.size:
                # Row 0 sums the weights, so a rising weight makes a basic one fall.
                raise InternalLogicError("no basic weight falls along an exchange; step undefined")
            ratios = x[basis[falling]] / step[falling]
            k = falling[ratios.argmin()] if up or ratios.min(initial=np.inf) < x[j] else None
            t = x[j] if k is None else ratios.min()
            x[basis] -= t * step
            x[j] += t if up else -t
            x[x <= ZERO_TOL] = 0.0
        if k is not None:
            row = inverse[k] / alpha[k]
            inverse[...] -= alpha[:, None] * row
            inverse[k] = row
            basis[k] = j
            slack[k] = False
        return exchange

    entering = x > 0
    entering[basis] = False
    steps = sum(enter(j) for j in np.flatnonzero(entering))
    for pivots in range(n + 1):
        reduced = gain - score[basis] @ inverse @ matrix
        reduced[basis[~slack]] = 0.0
        j = reduced.argmax()
        certified = bool(reduced[j] <= ZERO_TOL)
        if certified or pivots == n:
            break
        enter(j)
    square = np.where(slack, np.eye(rows), matrix[:, basis % n])  # slack k solves as the unit column e_k
    nu = np.zeros(n + 1)
    nu[basis] = np.linalg.solve(square, design.target)  # nu[n] takes the slacks' weights
    nu = x[:n] if (nu[:n] < -ZERO_TOL).any() else nu[:n]
    nu[nu <= ZERO_TOL] = 0.0
    return nu, (basis, inverse), steps, pivots, certified


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

    Constructive Caratheodory chain: exchange the weights to a vertex v of
    their face, peel off the largest t with remainder - t v >= 0, and
    renormalize; the next v is where Dantzig pivots from v's basis, with gain
    -1 off the remainder's support, stop.  A v on the remainder's whole
    support is the remainder (t = 1).  Each peel zeros a coordinate of v's
    support, so at most support - rank(D) + 1 leaves come out.  Each leaf
    uses at most rank(D) of the given operators; rank(D) is at most r + 1
    when the operators live in an r-dimensional affine slice.
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
    mass, vertex, gain, start = 1.0, rest, np.zeros_like(rest), None
    while len(solutions) < max_leaves:
        vertex, start, *_ = _basis_exchange(design, vertex, gain, start)
        inside = np.flatnonzero(vertex)
        ratios = rest[inside] / vertex[inside]
        hit = int(np.argmin(ratios))
        # A vertex on the remainder's whole support is the remainder, whatever the rounding of the ratios.
        t = 1.0 if np.array_equal(vertex > 0, rest > 0) else min(ratios[hit], 1.0)
        if t < 1.0:
            left = rest - t * vertex
            left[inside[hit]] = 0.0
            left[left <= ZERO_TOL] = 0.0
            left /= left.sum()
            # Renormalizing a remainder of tiny mass magnifies its rounding; NaN counts as off.
            if not np.max(np.abs(design.matrix @ left - design.target)) <= FEASIBLE_TOL:
                t = 1.0
        weights.append(mass * t)
        solutions.append(vertex)
        if t == 1.0:
            residual = np.max(np.abs(design.matrix @ np.transpose(solutions) - design.target[:, None]))
            if not residual <= FEASIBLE_TOL:
                raise InternalLogicError(f"a leaf does not reproduce the identity: residual {residual:.3e}")
            return IdentityDecomposition(weights=np.array(weights), solutions=solutions, design=design)
        rest = left
        mass *= 1.0 - t
        gain = np.where(rest > 0, 0.0, -1.0)
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
    """A pruned POVM with the counts and the information of the program that produced it.

    ``design_rank`` is the rank of the design columns prune started from,
    ``walk_steps`` the number of exchanges that took the weights to a vertex
    (at most n - ``design_rank``), ``pivots`` the Dantzig pivots that
    followed (at most n), ``certified`` whether they ended at no reduced
    cost above ``ZERO_TOL`` (tested once more at that cap), and
    ``info_bits`` the score g . nu - sum h(p_i) of the kept weights, the
    pruned POVM's mutual information with the ensemble.  Its operators come from a checked ``Povm``.
    """

    def __init__(self, povm: Povm, design_rank: int, walk_steps: int, pivots: int, certified: bool, info_bits: float):
        object.__setattr__(self, "operators", povm.operators)
        object.__setattr__(self, "design_rank", design_rank)
        object.__setattr__(self, "walk_steps", walk_steps)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "info_bits", info_bits)


def prune_povm(s: Ensemble, p: Povm, rep: FiniteRep | None = None, real_mode: bool = False) -> PrunedPovm:
    """Prune a POVM for a symmetric ensemble to a union of few group orbits.

    The operators are eigen-split to rank one and normalized, and their
    weights go to the most informative vertex of the identity polytope over
    the orbit sums, the optimum of a linear program in the slope of the
    pieces' m x n joint matrix, certified unless a reduced cost is still
    positive at its cap of n pivots (see the module docstring).  No
    information is lost, and the returned POVM is a union of at most
    dim-of-commutant orbits (real symmetric commutant with ``real_mode``,
    which prunes the real part of operators real within ``HERM_TOL``).
    Operators come in |G|-element orbit blocks, block j scaled by the vertex
    weight nu_j.  Without ``rep`` the group is trivial:
    each orbit is one operator and the bound is d^2 (d(d+1)/2 with
    ``real_mode``).  Completeness is ruled on once, by ``validate_povm``: the
    split drops only eigenvalues it tolerated, so the exchange starts from the
    split weights unchecked.
    """
    if rep is None:
        rep = generate_group([], dim=p.dim)
    # Validated first, so invalid input gets its own error, not a symmetry verdict.
    validate_ensemble(s).require("ensemble")
    validate_povm(p).require("POVM")
    if not is_symmetric_ensemble(s, rep):
        raise NotSymmetricError("ensemble is not symmetric under the given representation")
    if real_mode:
        if np.max(np.abs(p.operators.imag)) > HERM_TOL:
            raise RealRepRequiredError("real_mode requires real POVM operators")
        p = Povm(p.operators.real)
        bound = real_orbit_bound(rep)
    else:
        bound = complex_orbit_bound(rep)
    normalized = normalize_povm(split_rank_one(p))
    ops = normalized.normalized_ops
    design = build_design_matrix(orbit_sum(ops, rep))
    rest = np.where(normalized.weights > ZERO_TOL, normalized.weights, 0.0)
    gain = _information_slope(joint_distribution(s, ops))
    nu, _, steps, pivots, certified = _basis_exchange(design, rest, gain)
    kept = nu > 0
    orbits = np.count_nonzero(kept)
    if orbits > bound:
        raise InternalLogicError(f"the pruned weights keep {orbits} orbits, above the bound {bound}")
    residual = np.max(np.abs(design.matrix[:, kept] @ nu[kept] - design.target))
    if residual > HERM_TOL:
        raise InternalLogicError(f"the pruned weights do not reproduce the identity: residual {residual:.3e}")
    leaf = Povm(ops[kept] * nu[kept, None, None])
    rank = numeric_rank(design.matrix[:, rest > 0])
    return PrunedPovm(symmetrize(leaf, rep), rank, steps, pivots, certified, float(gain @ nu - plogp(s.priors).sum()))
