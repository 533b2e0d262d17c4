"""Finite unitary matrix groups: closure from generators, orbits, and bounds.

Groups are stored extensionally as one stacked (|G|, d, d) array of unitary
matrices, such as the low-dimensional Clifford and Weyl-Heisenberg groups.
Closure from generators costs O(|G| d^2) per generator, so orders in the
thousands close in a fraction of a second; the generators are kept, and the
ensemble symmetry check runs over them alone.  The group acts on operators in
one place, a broadcast conjugation over that stack.  The two orbit-count bounds
are computed from character sums alone; no explicit decomposition into
irreducible blocks is ever performed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hermitian import HERM_TOL, as_hermitian, hermitian_part
from .quantum import Ensemble, Povm, StructuralError

MATCH_TOL = 1e-8
# Bucket width of the closure lookup: any width above MATCH_TOL is exact, and
# the margin covers rounding in the projection.
BUCKET_STEP = 4 * MATCH_TOL


class UnitarityError(ValueError):
    """Raised when a generator is not unitary within tolerance."""


class GroupNotFiniteError(RuntimeError):
    """Raised when closure under multiplication exceeds the allowed order."""


class ClosureDefectError(RuntimeError):
    """Raised when a character sum that must be an integer is not."""


class RealRepRequiredError(ValueError):
    """Raised when a real orthogonal representation is required but not given."""


class NotSymmetricError(ValueError):
    """Raised when an ensemble lacks the symmetry a computation requires."""


@dataclass(frozen=True, eq=False)
class FiniteRep:
    """A finite group given concretely as unitary matrices.

    ``elements`` is one stacked (|G|, d, d) complex array with the identity
    first; a list of matrices is stacked on construction.  ``generators`` is
    a (k, d, d) stack that generates the group, as given to
    ``generate_group`` ((0, d, d) for the trivial group); built from
    elements alone, the group takes its elements as generators, since any
    element list generates its group.
    """

    dim: int
    elements: np.ndarray
    generators: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=complex))
        generators = self.elements if self.generators is None else self.generators
        generators = np.asarray(generators, dtype=complex).reshape(-1, self.dim, self.dim)
        object.__setattr__(self, "generators", generators)

    @property
    def order(self) -> int:
        return len(self.elements)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise UnitarityError(f"expected a square matrix, got shape {u.shape}")
    # Every entry of a unitary has modulus at most 1.  Checked before the
    # product, so a NaN, Inf or huge entry fails without a numpy warning.
    largest = np.max(np.abs(u))
    if not largest <= 1.0 + HERM_TOL:
        raise UnitarityError(f"matrix is not unitary: an entry has modulus {largest:.3e} > 1")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > HERM_TOL:
        raise UnitarityError(f"matrix is not unitary: max |U^dagger U - I| = {defect:.3e}")
    return u


def _conjugates(ops, units: np.ndarray) -> np.ndarray:
    """u op u^dagger in one broadcast matmul: the only place the group acts.

    ``units`` is one unitary or a stack of them, typically ``rep.elements``;
    the shapes of ``ops`` and ``units`` broadcast as in ``np.matmul``.
    """
    return units @ ops @ units.conj().swapaxes(-1, -2)


@functools.cache
def _projection_weights(dim: int) -> np.ndarray:
    """Fixed generic weights in [1, 2) over the 2 d^2 real entries, scaled to sum to 1."""
    weights = np.random.default_rng(dim).uniform(1.0, 2.0, 2 * dim * dim)
    weights /= weights.sum()
    weights.flags.writeable = False
    return weights


class _ElementTable:
    """Matrices bucketed by a projection, for exact max-abs membership tests.

    Each matrix is projected onto fixed, generic, nonnegative weights over its
    2 d^2 real entries that sum to 1, and keyed by floor(projection /
    BUCKET_STEP).  Two matrices within ``MATCH_TOL`` max-abs have projections
    at most ``MATCH_TOL`` apart, so their keys differ by at most one: looking
    in buckets key - 1, key and key + 1 and confirming each candidate by
    max-abs finds exactly what a linear scan finds.  Colliding buckets only
    make a lookup slower, never wrong.
    """

    def __init__(self, dim: int):
        self._weights = _projection_weights(dim)
        self._buckets: dict[int, list[int]] = {}
        self.matrices: list[np.ndarray] = []

    def keys(self, stack: np.ndarray) -> list[int]:
        """Bucket key of each matrix in a (n, d, d) complex stack; n may be 0."""
        entries = np.ascontiguousarray(stack).view(float).reshape(len(stack), self._weights.size)
        return np.floor(entries @ self._weights / BUCKET_STEP).astype(np.int64).tolist()

    def find(self, matrix: np.ndarray, key: int) -> int:
        """Index of the first stored matrix within ``MATCH_TOL`` (max-abs) of ``matrix``, or -1."""
        hits = [
            index
            for near in (key - 1, key, key + 1)
            for index in self._buckets.get(near, ())
            if np.max(np.abs(self.matrices[index] - matrix)) <= MATCH_TOL
        ]
        return min(hits, default=-1)

    def add(self, matrix: np.ndarray, key: int) -> None:
        self._buckets.setdefault(key, []).append(len(self.matrices))
        self.matrices.append(matrix)


def generate_group(generators, max_order: int = 10000, dim: int | None = None) -> FiniteRep:
    """Close a list of unitary generators under multiplication.

    Breadth-first: the identity comes first, then elements in discovery order,
    multiplying known elements by the generators on the right.  Each BFS layer
    is multiplied by all generators in one matmul, and each product is looked
    up in an ``_ElementTable``, so closure costs O(|G| d^2) rather than the
    O(|G|^2 d^2) of a scan over every element found so far, with the same
    verdicts.  An empty generator list yields the trivial group (``dim`` must
    then be given); a given ``dim`` must match the generators.  Raises
    GroupNotFiniteError if the closure exceeds ``max_order``; for a
    projective representation, extend the group centrally by the offending
    phases and retry with the extended generators.
    """
    gens = [_check_unitary(g) for g in generators]
    dims = {g.shape[0] for g in gens}
    if len(dims) > 1:
        raise StructuralError("generators have mixed dimensions")
    if dims:
        (gen_dim,) = dims
        if dim is not None and dim != gen_dim:
            raise StructuralError(f"generators have dimension {gen_dim}, expected {dim}")
        dim = gen_dim
    elif dim is None:
        raise StructuralError("dim is required when the generator list is empty")
    identity = np.eye(dim, dtype=complex)
    table = _ElementTable(dim)
    table.add(identity, table.keys(identity[None])[0])
    gen_stack = np.array(gens, dtype=complex).reshape(-1, dim, dim)
    frontier = 0
    while frontier < len(table.matrices):
        layer = np.stack(table.matrices[frontier:])
        frontier = len(table.matrices)
        products = (layer[:, None] @ gen_stack).reshape(-1, dim, dim)
        for product, key in zip(products, table.keys(products)):
            if table.find(product, key) < 0:
                if len(table.matrices) >= max_order:
                    raise GroupNotFiniteError(
                        f"group closure exceeds max_order={max_order}; the generators may "
                        "form a projective representation, supply a central extension"
                    )
                table.add(product, key)
    return FiniteRep(dim=dim, elements=np.stack(table.matrices), generators=gen_stack)


def _check_dim(what: str, dim: int, rep: FiniteRep) -> None:
    if dim != rep.dim:
        raise StructuralError(f"dimension mismatch: {what} {dim} vs representation {rep.dim}")


def symmetrize(p: Povm, rep: FiniteRep) -> Povm:
    """Extend a POVM to the symmetric POVM {(1/|G|) sigma(g) Pi sigma(g)^dagger}.

    The result is a multiset with |G| * |P| operators, all conjugates of the
    first operator first; no deduplication.
    """
    _check_dim("POVM", p.dim, rep)
    conjugates = _conjugates(p.operators[:, None], rep.elements)
    return Povm(conjugates.reshape(-1, p.dim, p.dim) / rep.order)


def orbit_sum(op: np.ndarray, rep: FiniteRep) -> np.ndarray:
    """Group average (1/|G|) sum_g sigma(g) op sigma(g)^dagger; commutes with the rep.

    A stack of operators gives the stack of their orbit sums.
    """
    op = as_hermitian(op)
    _check_dim("operator", op.shape[-1], rep)
    return hermitian_part(_conjugates(op[..., None, :, :], rep.elements).mean(axis=-3))


def _character_sum_to_int(total: float, rep: FiniteRep, label: str) -> int:
    value = total / rep.order
    nearest = round(value)
    if abs(value - nearest) > 1e-6:
        raise ClosureDefectError(
            f"{label} character sum {value!r} is not an integer; "
            "the element list does not form a closed group"
        )
    return int(nearest)


def complex_orbit_bound(rep: FiniteRep) -> int:
    """Dimension of the Hermitian matrices commuting with every group element.

    Computed as the character inner product (1/|G|) sum_g |tr sigma(g)|^2.
    This many orbits always suffice for an optimal symmetric measurement; for
    the trivial group the value is d squared.
    """
    total = np.sum(np.abs(np.einsum("gii->g", rep.elements)) ** 2)
    return _character_sum_to_int(float(total), rep, "complex")


def real_orbit_bound(rep: FiniteRep) -> int:
    """Dimension of the real symmetric matrices commuting with a real rep.

    Requires every element to be real orthogonal.  Computed as the multiplicity
    of the trivial representation in the symmetric square,
    (1/|G|) sum_g (chi(g)^2 + chi(g^2)) / 2.
    """
    if np.max(np.abs(rep.elements.imag)) > HERM_TOL:
        raise RealRepRequiredError("representation has complex entries; real bound undefined")
    real = rep.elements.real
    chi = np.einsum("gii->g", real)
    chi_sq = np.einsum("gij,gji->g", real, real)
    return _character_sum_to_int(float(np.sum(chi * chi + chi_sq) / 2.0), rep, "real")


def _greedy_match(conj: np.ndarray, states: np.ndarray, priors: np.ndarray) -> bool:
    """Match each conjugate to the first unused state within ``MATCH_TOL`` with an equal prior."""
    used = np.zeros(len(states), dtype=bool)
    for i in range(len(states)):
        # One conjugate at a time keeps the difference array at (m, d, d).
        close = np.max(np.abs(conj[i] - states), axis=(1, 2)) <= MATCH_TOL
        free = np.flatnonzero(close & ~used)
        if free.size == 0:
            return False
        match = free[0]
        used[match] = True
        # Each state's prior equals that of the state its conjugate matches,
        # so priors are equal along every generator edge of an orbit.
        if abs(priors[i] - priors[match]) > MATCH_TOL:
            return False
    return True


def is_symmetric_ensemble(s: Ensemble, rep: FiniteRep) -> bool:
    """True iff conjugation permutes the states and priors are orbit-constant.

    Only the generators are checked: conjugation by a product of group
    elements is the product of their permutations, a homomorphism, so if each
    generator permutes the states and keeps the priors, every element does.
    Each generator is matched by a greedy first-unused match within
    ``MATCH_TOL`` (max-abs), which handles duplicate states.  Tolerances
    compose along words: an element that is a word of length L in the
    generators is matched only within about L * d * ``MATCH_TOL``, and since
    priors are compared along generator edges they may drift by up to
    L * ``MATCH_TOL`` within an orbit.
    """
    _check_dim("ensemble", s.dim, rep)
    return all(_greedy_match(_conjugates(s.states, g), s.states, s.priors) for g in rep.generators)
