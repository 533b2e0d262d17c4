"""Finite unitary matrix groups: closure from generators, orbits, and bounds.

Groups are stored extensionally as one stacked (|G|, d, d) array of unitary
matrices, such as the low-dimensional Clifford and Weyl-Heisenberg groups.
Closure looks each product up among the elements found so far, and the
ensemble symmetry check each conjugated state among the states, by one
lookup: bisection in sorted projections, then max-abs confirmation.  The
generators are kept, and that check runs over them alone.  The group acts
on operators by one broadcast conjugation, which serves ``symmetrize``,
that check, and ``trines``, whose ensembles and candidate orbits are built
as orbits.  An orbit sum is the orthogonal projection onto the commutant,
whose basis comes from one SVD per generator and is cached on the group.
The two orbit-count bounds are computed from character sums alone; no
explicit decomposition into irreducible blocks is ever performed.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .hermitian import HERM_TOL, as_hermitian, hermitian_basis
from .quantum import Ensemble, Povm, StructuralError

MATCH_TOL = 1e-8
# Largest group that generate_group closes before it gives up.
MAX_ORDER = 10000


class UnitarityError(ValueError):
    """Raised when a generator is not unitary within tolerance."""


class GroupNotFiniteError(RuntimeError):
    """Raised when closure under multiplication exceeds the allowed order."""


class ClosureDefectError(RuntimeError):
    """Raised when a character sum that must be an integer is not, or the generators' commutant disagrees with it."""


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
    element list generates its group.  ``commutant_basis`` is computed on
    first use and kept read-only; it takes one SVD per generator, so a
    group built from its elements alone pays |G| of them, each over the few
    matrices left after the first generators.
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

    @functools.cached_property
    def commutant_basis(self) -> np.ndarray:
        """Hilbert-Schmidt-orthonormal Hermitian matrices spanning those that every generator commutes with.

        A (``complex_orbit_bound``, d, d) stack.  It starts as ``_hs_basis``,
        and each generator in turn keeps the real combinations of it that
        X -> g X g^dagger - X moves by at most d * ``MATCH_TOL`` in
        Hilbert-Schmidt norm, from one SVD of the (m, d^2) moves of the m
        matrices kept so far.  The cut covers generators accepted within
        ``HERM_TOL`` of unitary and closed within ``MATCH_TOL``, such as a
        rotation written to 9 decimals; a matrix at Hilbert-Schmidt distance
        r from the commutant of a generator of order n moves by at least
        2 r sin(pi / n), and n is at most ``MAX_ORDER``.  One generator at a
        time keeps the memory at O(d^4) however many generators there are.
        ClosureDefectError if the count kept differs from the bound, since
        the elements then do not form the group of the generators.
        """
        d, bound = self.dim, complex_orbit_bound(self)
        basis = _hs_basis(d).reshape(d * d, d * d)
        for g in self.generators:
            moves = _conjugates(basis.reshape(-1, d, d), g).reshape(len(basis), -1) - basis
            # Real combinations of Hermitian matrices stay Hermitian, so the SVD is over the real view.
            left, singular, _ = np.linalg.svd(moves.view(float), full_matrices=False)
            basis = left[:, singular <= d * MATCH_TOL].T @ basis
        if len(basis) != bound:
            raise ClosureDefectError(
                f"the generators commute with a {len(basis)}-dimensional space, but the character sum gives "
                f"{bound}; the element list is not the group of the generators"
            )
        basis = basis.reshape(bound, d, d)
        basis.flags.writeable = False
        return basis


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
def _hs_basis(dim: int) -> np.ndarray:
    """``hermitian_basis`` scaled to unit Hilbert-Schmidt norm.

    Coordinates in it are ``coords`` with the off-diagonal ones times sqrt 2.
    """
    basis = hermitian_basis(dim)
    basis /= np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    basis.flags.writeable = False
    return basis


@functools.cache
def _projection_weights(dim: int) -> np.ndarray:
    """Fixed generic weights 1 + frac(sqrt(k + 1/2)), k = 1 .. 2 d^2, over the real entries, scaled to sum to 1.

    Square roots keep integer relations among the weights rare, so matrices
    with structured entries still spread their projections apart.  The
    golden-ratio sequence 1 + frac(k phi) would not: its weights satisfy
    w_j + w_k - w_(j+k) in {1, 2}, and it gives the 192 single-qubit Clifford
    elements only 90 distinct projections.
    """
    weights = 1.0 + np.mod(np.sqrt(np.arange(1, 2 * dim * dim + 1) + 0.5), 1.0)
    weights /= weights.sum()
    weights.flags.writeable = False
    return weights


def _projections(stack: np.ndarray) -> list[float]:
    """Projection of each matrix of a (n, d, d) complex stack onto ``_projection_weights``."""
    return (stack.view(float).reshape(len(stack), -1) @ _projection_weights(stack.shape[-1])).tolist()


def _window(projections: list, projection: float) -> tuple[int, int]:
    """Bisect bounds of the entries of the sorted ``projections`` within 2 * ``MATCH_TOL`` of ``projection``.

    The weights are nonnegative and sum to 1, so a matrix within ``MATCH_TOL``
    (max-abs) of another projects within ``MATCH_TOL`` of it; the window is
    twice that to cover the rounding of matrices with entries of modulus at
    most 1, such as unitaries and states.  Confirming each candidate in it by
    max-abs so gives exactly the verdict of a scan over every matrix.
    """
    low = bisect_left(projections, projection - 2 * MATCH_TOL)
    return low, bisect_right(projections, projection + 2 * MATCH_TOL, low)


def _find(matrix: np.ndarray, projection: float, elements: list, projections: list, indices: list) -> int:
    """Index of an element within ``MATCH_TOL`` (max-abs) of ``matrix``, or -1.

    ``projections`` holds the projection of every element, sorted, and
    ``indices`` the element of each; the candidates are those in the
    ``_window`` of ``projection``.
    """
    low, high = _window(projections, projection)
    for i in indices[low:high]:
        if np.max(np.abs(elements[i] - matrix)) <= MATCH_TOL:
            return i
    return -1


def generate_group(generators, dim: int | None = None) -> FiniteRep:
    """Close a list of unitary generators under multiplication.

    Breadth-first: the identity comes first, then elements in discovery order,
    multiplying known elements by the generators on the right.  Each BFS layer
    is multiplied by all generators in one matmul, and ``_find`` looks each
    product up with the verdict of a scan over every element found so far.
    An empty generator list yields the trivial group (``dim`` must then be
    given); a given ``dim`` must match the generators.  Raises
    GroupNotFiniteError if the closure exceeds ``MAX_ORDER`` elements; for a
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
    identity = np.eye(dim, dtype=complex)[None]
    gen_stack = np.array(gens, dtype=complex).reshape(-1, dim, dim)
    if not gens:
        return FiniteRep(dim=dim, elements=identity, generators=gen_stack)
    elements = [identity[0]]
    projections, indices = _projections(identity), [0]
    frontier = 0
    while frontier < len(elements):
        layer = np.stack(elements[frontier:])
        frontier = len(elements)
        products = (layer[:, None] @ gen_stack).reshape(-1, dim, dim)
        for product, projection in zip(products, _projections(products)):
            if _find(product, projection, elements, projections, indices) < 0:
                if len(elements) >= MAX_ORDER:
                    raise GroupNotFiniteError(
                        f"group closure exceeds MAX_ORDER={MAX_ORDER}; the generators may "
                        "form a projective representation, supply a central extension"
                    )
                at = bisect_right(projections, projection)
                projections.insert(at, projection)
                indices.insert(at, len(elements))
                elements.append(product)
    return FiniteRep(dim=dim, elements=np.stack(elements), generators=gen_stack)


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

    The average is the orthogonal projection onto the commutant in the
    Hilbert-Schmidt inner product, so it is computed as one: the sum of
    tr(C op) C over ``rep.commutant_basis``, with no conjugation by the |G|
    elements.  A stack of operators gives the stack of their orbit sums,
    Hermitian up to rounding (``coords`` symmetrizes its input); the trivial
    group returns ``op``.
    """
    op = as_hermitian(op)
    _check_dim("operator", op.shape[-1], rep)
    if rep.order == 1:
        return op
    basis = rep.commutant_basis
    basis = basis.reshape(len(basis), -1)
    return ((op.reshape(-1, basis.shape[1]) @ basis.conj().T).real @ basis).reshape(op.shape)


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


def is_symmetric_ensemble(s: Ensemble, rep: FiniteRep) -> bool:
    """True iff conjugation permutes the states and priors are orbit-constant.

    Only the generators are checked: conjugation by a product of group
    elements is the product of their permutations, a homomorphism, so if each
    generator permutes the states and keeps the priors, every element does.
    Each conjugate, from one broadcast per generator, is matched to the
    lowest-index unused state within ``MATCH_TOL`` (max-abs) in its
    ``_window`` of the states' sorted projections, the state a scan would
    pick, which handles duplicate states.  Tolerances compose along words: an
    element that is a word of length L in the generators is matched only
    within about L * d * ``MATCH_TOL``, and since priors are compared along
    generator edges they may drift by up to L * ``MATCH_TOL`` within an orbit.
    """
    _check_dim("ensemble", s.dim, rep)
    unsorted = _projections(s.states)
    indices = sorted(range(len(s)), key=unsorted.__getitem__)
    projections = [unsorted[i] for i in indices]
    for g in rep.generators:
        conjugates = _conjugates(s.states, g)
        used = [False] * len(s)
        for i, (conjugate, projection) in enumerate(zip(conjugates, _projections(conjugates))):
            low, high = _window(projections, projection)
            match = next((j for j in sorted(indices[low:high])
                          if not used[j] and np.max(np.abs(s.states[j] - conjugate)) <= MATCH_TOL), -1)
            if match < 0:
                return False
            used[match] = True
            # Each state's prior equals that of the state its conjugate matches,
            # so priors are equal along every generator edge of an orbit.
            if abs(s.priors[i] - s.priors[match]) > MATCH_TOL:
                return False
    return True
