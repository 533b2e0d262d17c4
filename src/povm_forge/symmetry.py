"""Finite unitary matrix groups: closure from generators, orbits, and bounds.

Groups are stored extensionally as the full list of unitary matrices, which is
fine for orders up to a few hundred, such as the low-dimensional Clifford and
Weyl-Heisenberg groups.  The two orbit-count bounds are computed from
character sums alone; no explicit decomposition into irreducible blocks is
ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import as_hermitian, hermitian_part
from .quantum import Ensemble, Povm, StructuralError

MATCH_TOL = 1e-8
UNITARY_TOL = 1e-9


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
    """A finite group given concretely as unitary matrices; element 0 is the identity."""

    dim: int
    elements: list[np.ndarray]

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class Orbit:
    """Conjugates (1/|G|) sigma(g) B sigma(g)^dagger of a base operator.

    ``elements`` lists distinct conjugates (within ``dedup_tol``) and
    ``multiplicities`` how often each occurs among the |G| group elements.
    """

    base: np.ndarray
    elements: list[np.ndarray]
    multiplicities: list[int]


def _check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise UnitarityError(f"expected a square matrix, got shape {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > tol:
        raise UnitarityError(f"matrix is not unitary: max |U^dagger U - I| = {defect:.3e}")
    return u


def _matches(stack, candidate: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the stacked matrices within ``tol`` (max-abs) of ``candidate``."""
    return np.max(np.abs(np.asarray(stack) - candidate), axis=(1, 2)) <= tol


def _find_element(elements, candidate: np.ndarray, tol: float) -> int:
    """Index of the first element within ``tol`` of ``candidate``, or -1."""
    if len(elements) == 0:
        return -1
    hits = np.flatnonzero(_matches(elements, candidate, tol))
    return int(hits[0]) if hits.size else -1


def generate_group(
    generators, max_order: int = 10000, dim: int | None = None, match_tol: float = MATCH_TOL
) -> FiniteRep:
    """Close a list of unitary generators under multiplication.

    Breadth-first: the identity comes first, then elements in discovery order,
    multiplying known elements by the generators on the right.  An empty
    generator list yields the trivial group (``dim`` must then be given).
    Raises GroupNotFiniteError if the closure exceeds ``max_order``; for a
    projective representation, extend the group centrally by the offending
    phases and retry with the extended generators.
    """
    gens = [_check_unitary(g) for g in generators]
    if gens:
        dim = gens[0].shape[0]
        for g in gens:
            if g.shape[0] != dim:
                raise StructuralError("generators have mixed dimensions")
    elif dim is None:
        raise StructuralError("dim is required when the generator list is empty")
    elements = np.eye(dim, dtype=complex)[None]
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g in gens:
            product = current @ g
            if _find_element(elements, product, match_tol) < 0:
                if len(elements) >= max_order:
                    raise GroupNotFiniteError(
                        f"group closure exceeds max_order={max_order}; the generators may "
                        "form a projective representation, supply a central extension"
                    )
                elements = np.concatenate([elements, product[None]])
    return FiniteRep(dim=dim, elements=list(elements))


def symmetrize(p: Povm, rep: FiniteRep) -> Povm:
    """Extend a POVM to the symmetric POVM {(1/|G|) sigma(g) Pi sigma(g)^dagger}.

    The result is a multiset with |G| * |P| operators; no deduplication.
    """
    if p.dim != rep.dim:
        raise StructuralError(f"dimension mismatch: POVM {p.dim} vs representation {rep.dim}")
    scale = 1.0 / rep.order
    ops = [
        hermitian_part(scale * (u @ op @ u.conj().T))
        for op in p.operators
        for u in rep.elements
    ]
    return Povm(ops)


def orbit_sum(op: np.ndarray, rep: FiniteRep) -> np.ndarray:
    """Group average (1/|G|) sum_g sigma(g) op sigma(g)^dagger; commutes with the rep."""
    op = as_hermitian(op)
    if op.shape[0] != rep.dim:
        raise StructuralError(f"dimension mismatch: operator {op.shape[0]} vs representation {rep.dim}")
    acc = np.zeros_like(op)
    for u in rep.elements:
        acc += u @ op @ u.conj().T
    return hermitian_part(acc / rep.order)


def orbit_of(op: np.ndarray, rep: FiniteRep, dedup_tol: float = MATCH_TOL) -> Orbit:
    """Orbit of an operator: scaled conjugates grouped by near-equality."""
    op = as_hermitian(op)
    if op.shape[0] != rep.dim:
        raise StructuralError(f"dimension mismatch: operator {op.shape[0]} vs representation {rep.dim}")
    scale = 1.0 / rep.order
    elements: list[np.ndarray] = []
    multiplicities: list[int] = []
    for u in rep.elements:
        conj = hermitian_part(scale * (u @ op @ u.conj().T))
        i = _find_element(elements, conj, dedup_tol)
        if i < 0:
            elements.append(conj)
            multiplicities.append(1)
        else:
            multiplicities[i] += 1
    return Orbit(base=op, elements=elements, multiplicities=multiplicities)


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
    total = sum(abs(np.trace(u)) ** 2 for u in rep.elements)
    return _character_sum_to_int(float(total), rep, "complex")


def real_orbit_bound(rep: FiniteRep) -> int:
    """Dimension of the real symmetric matrices commuting with a real rep.

    Requires every element to be real orthogonal.  Computed as the multiplicity
    of the trivial representation in the symmetric square,
    (1/|G|) sum_g (chi(g)^2 + chi(g^2)) / 2.
    """
    for u in rep.elements:
        if np.max(np.abs(u.imag)) > UNITARY_TOL:
            raise RealRepRequiredError("representation has complex entries; real bound undefined")
    total = 0.0
    for u in rep.elements:
        chi = np.trace(u).real
        chi_sq = np.trace(u @ u).real
        total += (chi * chi + chi_sq) / 2.0
    return _character_sum_to_int(total, rep, "real")


def is_symmetric_ensemble(s: Ensemble, rep: FiniteRep, tol: float = MATCH_TOL) -> bool:
    """True iff conjugation permutes the states and priors are orbit-constant."""
    if s.dim != rep.dim:
        raise StructuralError(f"dimension mismatch: ensemble {s.dim} vs representation {rep.dim}")
    states = np.asarray(s.states)
    for u in rep.elements:
        conjugated = u @ states @ u.conj().T
        used = np.zeros(len(s), dtype=bool)
        for i, conj in enumerate(conjugated):
            free = np.flatnonzero(~used & _matches(states, conj, tol))
            if free.size == 0:
                return False
            match = free[0]
            used[match] = True
            # Each orbit member is matched to i directly by some element, so
            # pairwise prior checks cover every orbit.
            if abs(s.priors[i] - s.priors[match]) > tol:
                return False
    return True
