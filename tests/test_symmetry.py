import math
import os

import numpy as np
import pytest

from povm_forge import (
    ClosureDefectError,
    Ensemble,
    GroupNotFiniteError,
    Povm,
    RealRepRequiredError,
    UnitarityError,
    complex_orbit_bound,
    generate_group,
    is_symmetric_ensemble,
    lifted_trines,
    orbit_sum,
    prune_povm,
    psi,
    real_orbit_bound,
    symmetrize,
    trine_group,
    trine_rotation,
    validate_povm,
)
from povm_forge import symmetry
from povm_forge.cli import load_problem
from povm_forge.quantum import StructuralError
from povm_forge.symmetry import MATCH_TOL, FiniteRep
from helpers import orbit_ensemble, planar_rotation, random_state, weyl_heisenberg_generators


def s3_irrep_2d():
    return generate_group([planar_rotation(2 * math.pi / 3), np.diag([1.0, -1.0])])


def test_trine_group_order_three():
    rep = trine_group()
    assert rep.order == 3
    assert np.allclose(rep.elements[0], np.eye(3))


def test_empty_generators_trivial_group():
    rep = generate_group([], dim=4)
    assert rep.order == 1
    assert rep.dim == 4
    assert np.array_equal(rep.elements, np.eye(4)[None])
    assert rep.generators.shape == (0, 4, 4)


def test_cyclic_phase_group_order_eight():
    g = np.diag([1.0, np.exp(1j * math.pi / 4)])
    rep = generate_group([g])
    assert rep.order == 8


def test_group_closure_products_match_elements():
    rep = s3_irrep_2d()
    assert rep.order == 6
    for a in rep.elements:
        for b in rep.elements:
            product = a @ b
            assert any(np.max(np.abs(product - e)) <= 1e-8 for e in rep.elements)


def clifford_generators():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return [hadamard, np.diag([1.0, 1j])]


@pytest.mark.parametrize(
    "generators, order",
    [(weyl_heisenberg_generators(5), 125), (clifford_generators(), 192)],
    ids=["weyl-heisenberg-d5", "clifford-d2"],
)
def test_large_group_closure(generators, order):
    rep = generate_group(generators)
    assert rep.order == order
    stack = np.asarray(rep.elements)
    for a in stack:
        for b in stack:
            assert np.min(np.max(np.abs(stack - a @ b), axis=(1, 2))) <= 1e-8
    # both representations are irreducible
    assert complex_orbit_bound(rep) == 1
    rng = np.random.default_rng(order)
    # symmetrize keeps every conjugate: |G| operators per input operator
    assert len(symmetrize(Povm([random_state(rng, rep.dim)]), rep)) == order
    # the stacked group action agrees with a per-element loop
    op = random_state(rng, rep.dim, pure=False)
    conjugates = [u @ op @ u.conj().T for u in stack]
    assert np.max(np.abs(orbit_sum(op, rep) - sum(conjugates) / order)) <= 1e-12
    ops = [op, np.eye(rep.dim) - op]
    expected = [u @ o @ u.conj().T / order for o in ops for u in stack]
    out = symmetrize(Povm(ops), rep)
    assert len(out) == 2 * order
    assert max(np.max(np.abs(a - b)) for a, b in zip(out.operators, expected)) <= 1e-12
    reference = sum(abs(np.trace(u)) ** 2 for u in stack) / order
    assert abs(complex_orbit_bound(rep) - reference) <= 1e-12


def test_non_unitary_generator_rejected():
    with pytest.raises(UnitarityError):
        generate_group([np.diag([1.0, 2.0])])
    # every entry of diag(1, 0.5) has modulus at most 1, so only U^dagger U - I rules it out
    with pytest.raises(UnitarityError, match=r"not unitary: max \|U\^dagger U - I\| = 7\.500e-01"):
        generate_group([np.diag([1.0, 0.5])])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "huge"])
def test_non_finite_generator_rejected(bad, monkeypatch):
    # rejected before U^dagger U is formed, so numpy warns of no invalid value
    # or overflow; accepted, a NaN or Inf generator would make products that
    # match no element, NaN being within no tolerance, and overflow MAX_ORDER instead
    monkeypatch.setattr(symmetry, "MAX_ORDER", 16)
    with pytest.raises(UnitarityError):
        generate_group([np.array([[bad, 0.0], [0.0, 1.0]])])


def test_infinite_group_overflows(monkeypatch):
    monkeypatch.setattr(symmetry, "MAX_ORDER", 64)
    with pytest.raises(GroupNotFiniteError):
        generate_group([planar_rotation(1.0)])


def test_symmetrize_trivial_group_keeps_povm():
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    out = symmetrize(p, generate_group([], dim=2))
    assert len(out) == 2
    for a, b in zip(out.operators, p.operators):
        assert np.allclose(a, b)


def test_symmetrize_identity_gives_copies():
    rep = trine_group()
    out = symmetrize(Povm([np.eye(3)]), rep)
    assert len(out) == 3
    for op in out.operators:
        assert np.allclose(op, np.eye(3) / 3)


def test_symmetrize_basis_measurement_validates():
    rep = trine_group()
    basis = Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    out = symmetrize(basis, rep)
    assert len(out) == 9
    assert validate_povm(out).ok


def test_orbit_sum_identity_fixed():
    rep = trine_group()
    assert np.allclose(orbit_sum(np.eye(3), rep), np.eye(3))


def test_orbit_sum_closed_form():
    rep = trine_group()
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(0, math.pi)
        b = rng.uniform(0, 2 * math.pi)
        v = psi(a, b)
        d = orbit_sum(3.0 * np.outer(v, v), rep)
        x = math.cos(a) ** 2
        expected = np.diag([3 * x, 1.5 - 1.5 * x, 1.5 - 1.5 * x])
        assert np.max(np.abs(d - expected)) <= 1e-10


def test_orbit_sum_commutes_with_rep():
    rep = s3_irrep_2d()
    rng = np.random.default_rng(4)
    for _ in range(10):
        op = random_state(rng, 2, pure=False)
        d = orbit_sum(op, rep)
        for u in rep.elements:
            assert np.max(np.abs(u @ d - d @ u)) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trivial_group_bounds(d):
    rep = generate_group([], dim=d)
    assert complex_orbit_bound(rep) == d * d
    assert real_orbit_bound(rep) == d * (d + 1) // 2


def test_trine_rep_bounds():
    rep = trine_group()
    assert complex_orbit_bound(rep) == 3
    assert real_orbit_bound(rep) == 2


def test_irreducible_rep_bound_one():
    rep = s3_irrep_2d()
    assert complex_orbit_bound(rep) == 1
    assert real_orbit_bound(rep) == 1


def test_schur_cross_check():
    # bound 1 iff every orbit sum is a multiple of the identity
    rep = s3_irrep_2d()
    rng = np.random.default_rng(6)
    for _ in range(5):
        op = random_state(rng, 2, pure=False)
        d = orbit_sum(op, rep)
        scale = np.trace(d).real / 2
        assert np.max(np.abs(d - scale * np.eye(2))) <= 1e-9
    # a reducible rep has an orbit sum that is not a multiple of the identity
    rep3 = trine_group()
    d3 = orbit_sum(3.0 * np.outer(psi(0.3, 0.0), psi(0.3, 0.0)), rep3)
    assert np.max(np.abs(d3 - np.trace(d3).real / 3 * np.eye(3))) > 1e-3


def test_real_bound_requires_real_rep():
    rep = generate_group([np.diag([1.0, np.exp(1j * math.pi / 4)])])
    with pytest.raises(RealRepRequiredError):
        real_orbit_bound(rep)


def test_character_sum_must_be_integral():
    # a non-group element list (identity plus an unmatched rotation) is not closed
    bogus = FiniteRep(dim=2, elements=[np.eye(2), planar_rotation(0.5)])
    assert bogus.elements.shape == (2, 2, 2)
    with pytest.raises(ClosureDefectError):
        complex_orbit_bound(bogus)
    # the orbit sum projects onto the commutant only for a closed group, so it refuses too
    with pytest.raises(ClosureDefectError):
        orbit_sum(np.eye(2), bogus)


def test_commutant_basis_rejects_elements_that_are_not_the_group_of_the_generators():
    # the character sum over {I, Z} is 2, but X and Z together commute only with the scalars
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    rep = FiniteRep(dim=2, elements=[np.eye(2), z], generators=[x, z])
    with pytest.raises(ClosureDefectError, match="commute with a 1-dimensional space, but the character sum gives 2"):
        rep.commutant_basis


def reducible_groups():
    rotation, flip = planar_rotation(2 * math.pi / 3), np.diag([1.0, -1.0])
    basis, _ = np.linalg.qr(np.random.default_rng(71).normal(size=(4, 4)))
    s3_in_random_basis = [basis @ np.block([[g, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]) @ basis.T
                          for g in (rotation, flip)]
    return {
        "R(x)R": ([np.kron(rotation, rotation)], 3),
        "double-trines R(x)R, F(x)F": ([np.kron(rotation, rotation), np.kron(flip, flip)], 6),
        "S3 as 2 + 1 + 1": (s3_in_random_basis, 6),
    }


@pytest.mark.parametrize("name", list(reducible_groups()))
def test_orbit_sum_is_the_group_average_on_reducible_groups(name):
    generators, order = reducible_groups()[name]
    rep = generate_group(generators)
    assert rep.order == order and complex_orbit_bound(rep) > 1
    rng = np.random.default_rng(72)
    ops = np.array([random_state(rng, 4, pure=False) for _ in range(5)])
    average = np.mean([u @ ops @ u.conj().T for u in rep.elements], axis=0)
    assert np.max(np.abs(orbit_sum(ops, rep) - average)) <= 1e-12
    assert np.max(np.abs(orbit_sum(ops[0], rep) - average[0])) <= 1e-12


def test_orbit_sum_of_the_trivial_group_is_its_input():
    rep = generate_group([], dim=3)
    op = np.diag([0.5, 0.25, 0.25]) + 0.125 * (np.eye(3, k=1) + np.eye(3, k=-1))
    assert np.array_equal(orbit_sum(op, rep), op)
    # every Hermitian matrix commutes with the trivial group and with a group of scalars,
    # whose map X -> g X g^dagger - X is rounding alone
    assert rep.commutant_basis.shape == (9, 3, 3)
    phases = generate_group([np.exp(2j * math.pi / 5) * np.eye(3)])
    assert phases.order == 5 and phases.commutant_basis.shape == (9, 3, 3)
    assert np.max(np.abs(orbit_sum(op, phases) - op)) <= 1e-12


@pytest.mark.parametrize("generator", [
    np.round(trine_rotation(), 9),
    np.round(trine_rotation(), 10),
    (1 + 4e-10) * trine_rotation(),
], ids=["sine to 9 decimals", "sine to 10 decimals", "scaled by 1 + 4e-10"])
def test_prune_accepts_generators_within_the_tolerances(generator):
    # unitary within HERM_TOL and closed within MATCH_TOL, so bound and validate take them too
    rep = generate_group([generator])
    assert rep.order == 3 and len(rep.commutant_basis) == complex_orbit_bound(rep) == 3
    path = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data", "lifted_trines_0.05.json")
    problem = load_problem(path)
    ops = problem.povm.operators
    average = np.mean([u @ ops @ u.conj().T for u in rep.elements], axis=0)
    assert np.max(np.abs(orbit_sum(ops, rep) - average)) <= 1e-8
    pruned = prune_povm(problem.ensemble, problem.povm, rep, real_mode=True)
    exact = prune_povm(problem.ensemble, problem.povm, trine_group(), real_mode=True)
    assert len(pruned) == len(exact)
    assert abs(pruned.info_bits - exact.info_bits) <= 1e-9


def test_commutant_basis_of_a_group_built_from_its_elements():
    rep = generate_group(weyl_heisenberg_generators(5))
    from_elements = FiniteRep(dim=5, elements=rep.elements)
    assert len(from_elements.generators) == rep.order == 125
    assert len(from_elements.commutant_basis) == complex_orbit_bound(rep) == 1
    op = random_state(np.random.default_rng(73), 5, pure=False)
    assert np.max(np.abs(orbit_sum(op, from_elements) - orbit_sum(op, rep))) <= 1e-12


def test_group_stacks_are_read_only_copies():
    # a write into either stack would leave the cached commutant_basis, and so orbit_sum, stale
    z = np.diag([1.0, -1.0])
    rep = generate_group([z])
    x = np.array([[1.0, 0.5], [0.5, 0.0]])
    assert np.max(np.abs(orbit_sum(x, rep) - np.diag([1.0, 0.0]))) <= 1e-12
    for array in (rep.generators, rep.elements):
        with pytest.raises(ValueError, match="read-only"):
            array[-1] = np.eye(2)
    # the caller's arrays are copied, not frozen
    elements, generators = np.array([np.eye(2), z]), np.array([z])
    FiniteRep(dim=2, elements=elements, generators=generators)
    assert elements.flags.writeable and generators.flags.writeable


def test_lifted_trines_symmetric():
    rep = trine_group()
    assert is_symmetric_ensemble(lifted_trines(0.05), rep)


def test_non_constant_priors_not_symmetric():
    rep = trine_group()
    states = lifted_trines(0.05).states
    skewed = Ensemble(states, np.array([0.5, 0.25, 0.25]))
    assert not is_symmetric_ensemble(skewed, rep)


def test_prior_off_by_1e6_not_symmetric():
    # 1e-6 is a hundred times the matching tolerance
    states = lifted_trines(0.05).states
    priors = np.array([1 / 3 + 1e-6, 1 / 3, 1 / 3])
    assert not is_symmetric_ensemble(Ensemble(states, priors), trine_group())


def test_duplicate_states_matched_one_to_one():
    # every state listed twice: the group permutes the multiset
    states = lifted_trines(0.05).states
    states = np.concatenate([states, states])
    assert is_symmetric_ensemble(Ensemble(states, np.full(6, 1 / 6)), trine_group())
    # moving one copy's prior by 1e-6 leaves its orbit with unequal priors
    priors = np.full(6, 1 / 6)
    priors[3] += 1e-6
    assert not is_symmetric_ensemble(Ensemble(states, priors), trine_group())


def test_any_ensemble_symmetric_under_trivial_group():
    rng = np.random.default_rng(8)
    states = [random_state(rng, 2) for _ in range(3)]
    priors = np.array([0.6, 0.3, 0.1])
    s = Ensemble(states, priors)
    assert is_symmetric_ensemble(s, generate_group([], dim=2))


def test_orbit_elements_share_the_scaled_trace():
    rep = s3_irrep_2d()
    rng = np.random.default_rng(60)
    base = random_state(rng, 2, pure=False)
    out = symmetrize(Povm([base]), rep)
    assert len(out) == rep.order
    expected = np.trace(base).real / rep.order
    for element in out.operators:
        assert abs(np.trace(element).real - expected) <= 1e-12


def null_dimension(stacked: np.ndarray) -> int:
    """Null-space dimension of a stacked linear map, from its singular values."""
    singular = np.linalg.svd(stacked, compute_uv=False)
    return stacked.shape[1] - int(np.sum(singular > 1e-9 * singular[0]))


def shipped_generators(name):
    path = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data", name)
    return load_problem(path).generators


@pytest.mark.parametrize(
    "generators, real",
    [
        (shipped_generators("lifted_trines_0.05.json"), True),
        (shipped_generators("s3_irrep_2d.json"), True),
        (weyl_heisenberg_generators(3), False),
        (clifford_generators(), False),
    ],
    ids=["trine", "s3", "weyl-heisenberg-d3", "clifford-d2"],
)
def test_orbit_bounds_equal_commutant_dimension(generators, real):
    # the bounds count the X with [g, X] = 0 for every generator g
    rep = generate_group(generators)
    d = rep.dim
    eye = np.eye(d)
    # row-major vec: vec(g X) = (g kron I) vec X and vec(X g) = (I kron g^T) vec X
    commutator = np.concatenate([np.kron(g, eye) - np.kron(eye, g.T) for g in generators])
    assert complex_orbit_bound(rep) == null_dimension(commutator)
    # the cached commutant basis is one Hilbert-Schmidt-orthonormal matrix per dimension
    basis = rep.commutant_basis
    assert basis.shape == (complex_orbit_bound(rep), d, d)
    flat = basis.reshape(len(basis), -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(basis)))) <= 1e-12
    assert all(np.max(np.abs(g @ c - c @ g)) <= 1e-12 for g in generators for c in basis)
    assert rep.commutant_basis is basis
    if real:
        symmetric = []
        for i in range(d):
            for j in range(i, d):
                e = np.zeros((d, d))
                e[i, j] = e[j, i] = 1.0
                symmetric.append(e)
        real_commutator = np.concatenate(
            [np.stack([(g.real @ e - e @ g.real).ravel() for e in symmetric], axis=1) for g in generators]
        )
        assert real_orbit_bound(rep) == null_dimension(real_commutator)


def greedy_reference(s, rep):
    """The symmetry check as a plain per-element greedy first-unused match."""
    states = np.asarray(s.states)
    for u in rep.elements:
        conj = u @ states @ u.conj().T
        close = np.max(np.abs(conj[:, None] - states), axis=(2, 3)) <= MATCH_TOL
        used = np.zeros(len(s), dtype=bool)
        for i in range(len(s)):
            free = np.flatnonzero(close[i] & ~used)
            if free.size == 0:
                return False
            used[free[0]] = True
            if abs(s.priors[i] - s.priors[free[0]]) > MATCH_TOL:
                return False
    return True


def weyl_heisenberg_orbit(d, seed):
    rep = generate_group(weyl_heisenberg_generators(d))
    return rep, list(orbit_ensemble(rep, random_state(np.random.default_rng(seed), d)).states)


def nudged(state, size):
    """``state`` with a Hermitian change of max-abs ``size`` in one off-diagonal pair."""
    out = state.copy()
    out[0, 1] += size
    out[1, 0] += size
    return out


def symmetry_cases():
    rep, states = weyl_heisenberg_orbit(5, 70)
    m = len(states)
    uniform = np.full(m, 1.0 / m)
    yield "orbit-order-125", rep, Ensemble(states, uniform), True
    yield "duplicated-states", rep, Ensemble(states * 2, np.full(2 * m, 0.5 / m)), True
    # each state listed twice, the copies with different priors: pairing copy with copy keeps them
    yield "duplicates-with-different-priors", rep, Ensemble(
        states * 2, np.concatenate([np.full(m, 0.7 / m), np.full(m, 0.3 / m)])
    ), True
    # a second orbit 1.5 * MATCH_TOL from the first: symmetric, with near-duplicates
    second = list(orbit_ensemble(rep, nudged(states[0], 1.5 * MATCH_TOL)).states)
    yield "orbit-1.5-tol-apart", rep, Ensemble(states + second, np.full(2 * m, 0.5 / m)), True
    yield "two-states-1.5-tol-apart", rep, Ensemble(
        states + [nudged(states[0], 1.5 * MATCH_TOL)], np.full(m + 1, 1.0 / (m + 1))
    ), False
    for name, size, expected in (("0.9-tol", 0.9 * MATCH_TOL, True), ("1.1-tol", 1.1 * MATCH_TOL, False),
                                 ("2e-8", 2e-8, False)):
        moved = list(states)
        moved[3] = nudged(states[3], size)
        yield f"one-state-moved-{name}", rep, Ensemble(moved, uniform), expected
    # two orbits, each with its own constant prior; swapping one prior across them breaks the symmetry
    other = list(orbit_ensemble(rep, random_state(np.random.default_rng(71), 5)).states)
    priors = np.concatenate([np.full(m, 0.6 / m), np.full(len(other), 0.4 / len(other))])
    yield "two-orbits-own-priors", rep, Ensemble(states + other, priors), True
    priors = priors.copy()
    priors[[0, m]] = priors[[m, 0]]
    yield "two-orbits-one-prior-swapped", rep, Ensemble(states + other, priors), False
    priors = uniform.copy()
    priors[3] += 1e-6
    yield "one-prior-moved-1e-6", rep, Ensemble(states, priors / priors.sum()), False
    # the orbit of the shift alone: permuted by the first generator, not the second
    shift = rep.generators[0]
    shifted = [np.linalg.matrix_power(shift, a) @ states[0] @ np.linalg.matrix_power(shift, -a) for a in range(5)]
    yield "shift-orbit-only", rep, Ensemble(shifted, np.full(5, 0.2)), False
    # A swap of two basis vectors maps a to b and a' to b', where every entry
    # of a' is 0.9 * MATCH_TOL from a's.  Listing b' before b makes the greedy
    # match pair a with b' and reject the unequal priors, although the nearest
    # states form a prior-preserving permutation.
    swap = np.eye(4)[[1, 0, 2, 3]]
    a = random_state(np.random.default_rng(72), 4)
    a_near = a + 0.9 * MATCH_TOL * np.ones((4, 4))
    b, b_near = (swap @ st @ swap.T for st in (a, a_near))
    yield "near-duplicate-pairs", generate_group([swap]), Ensemble(
        [a, a_near, b_near, b], [0.3, 0.2, 0.2, 0.3]
    ), False


@pytest.mark.parametrize("case", list(symmetry_cases()), ids=lambda case: case[0])
def test_symmetry_verdict_matches_greedy_reference(case):
    _, rep, s, expected = case
    assert greedy_reference(s, rep) is expected
    assert is_symmetric_ensemble(s, rep) is expected


@pytest.mark.parametrize("case", list(symmetry_cases()), ids=lambda case: case[0])
def test_symmetry_verdict_independent_of_generating_set(case):
    _, rep, s, expected = case
    gens = rep.generators
    # the identity and a product of two generators add nothing to the group
    redundant = [np.eye(rep.dim), *gens, gens[0] @ gens[-1]]
    assert is_symmetric_ensemble(s, FiniteRep(rep.dim, elements=rep.elements)) is expected
    assert is_symmetric_ensemble(s, generate_group(redundant)) is expected


def test_generate_group_keeps_its_generators():
    gens = weyl_heisenberg_generators(3)
    rep = generate_group(gens)
    assert np.array_equal(rep.generators, np.array(gens, dtype=complex))
    # a group built from its elements alone is generated by them
    assert np.array_equal(FiniteRep(3, elements=rep.elements).generators, rep.elements)


def weyl_heisenberg_orbit_stack(d, seed):
    """The d^2 states X^a Z^b rho Z^-b X^-a of one random pure state, broadcast in one product."""
    shifts = np.stack([np.roll(np.eye(d), a, axis=0) for a in range(d)])
    clocks = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    units = (shifts[:, None] * clocks[None, :, None, :]).reshape(d * d, d, d)
    rho = random_state(np.random.default_rng(seed), d)
    return units @ rho @ units.conj().swapaxes(-1, -2)


def test_large_duplicated_orbit_symmetric():
    # order 1331: the per-element greedy reference would take about a minute
    rep = generate_group(weyl_heisenberg_generators(11))
    states = weyl_heisenberg_orbit_stack(11, 73)
    doubled = np.concatenate([states, states])
    m = len(doubled)
    assert m == 242
    assert is_symmetric_ensemble(Ensemble(doubled, np.full(m, 1.0 / m)), rep)
    priors = np.full(m, 1.0 / m)
    priors[5] += 1e-6
    assert not is_symmetric_ensemble(Ensemble(doubled, priors / priors.sum()), rep)


def test_eight_orbits_of_the_order_2197_group():
    # 1352 states: the window lookup settles both checks in a fraction of a second,
    # where a scan of every state for every conjugate takes seconds
    rep = generate_group(weyl_heisenberg_generators(13))
    assert rep.order == 2197
    states = np.concatenate([weyl_heisenberg_orbit_stack(13, seed) for seed in range(80, 88)])
    assert len(states) == 1352
    priors = np.repeat(np.arange(1.0, 9.0), 169)
    priors /= priors.sum()
    assert is_symmetric_ensemble(Ensemble(states, priors), rep)
    priors[700] += 1e-6
    assert not is_symmetric_ensemble(Ensemble(states, priors / priors.sum()), rep)


def linear_scan_closure(generators):
    """The closure as a breadth-first loop over single elements with a linear max-abs scan."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    elements = np.eye(gens[0].shape[0], dtype=complex)[None]
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g in gens:
            product = current @ g
            if not np.any(np.max(np.abs(elements - product), axis=(1, 2)) <= MATCH_TOL):
                elements = np.concatenate([elements, product[None]])
    return elements


@pytest.mark.parametrize(
    "generators",
    [
        [trine_rotation()],
        shipped_generators("s3_irrep_2d.json"),
        weyl_heisenberg_generators(3),
        weyl_heisenberg_generators(4),
        weyl_heisenberg_generators(5),
        weyl_heisenberg_generators(7),
        clifford_generators(),
    ],
    ids=["trine", "s3", "weyl-heisenberg-d3", "weyl-heisenberg-d4", "weyl-heisenberg-d5",
         "weyl-heisenberg-d7", "clifford-d2"],
)
def test_closure_matches_linear_scan_bit_for_bit(generators):
    # same discovery order and the same stored products
    assert np.array_equal(generate_group(generators).elements, linear_scan_closure(generators))


def linear_scan_index(stack, candidate):
    hits = np.flatnonzero(np.max(np.abs(stack - candidate), axis=(1, 2)) <= MATCH_TOL)
    return int(hits[0]) if hits.size else -1


def test_projection_window_lookup_matches_linear_scan():
    stack = generate_group(clifford_generators()).elements
    projections = symmetry._projections(stack)
    indices = sorted(range(len(stack)), key=projections.__getitem__)
    table = (list(stack), [projections[i] for i in indices], indices)
    rng = np.random.default_rng(90)
    sides = []
    for index, u in enumerate(stack):
        for sign in (1.0, -1.0):
            # every entry moves 0.9 * MATCH_TOL in the same quadrant, so the
            # projection moves about half a tolerance, up or down with the sign
            near = u + sign * 0.9 * MATCH_TOL * np.exp(1j * rng.uniform(0.0, np.pi / 2, (2, 2)))
            (near_projection,) = symmetry._projections(near[None])
            sides.append(np.sign(near_projection - projections[index]))
            assert linear_scan_index(stack, near) == index
            assert symmetry._find(near, near_projection, *table) == index
            # one entry 1.1 * MATCH_TOL away is outside the tolerance
            far = u.copy()
            far[rng.integers(2), rng.integers(2)] += sign * 1.1 * MATCH_TOL * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            (far_projection,) = symmetry._projections(far[None])
            assert linear_scan_index(stack, far) == -1
            assert symmetry._find(far, far_projection, *table) == -1
    # the perturbations landed on both sides of the stored projection
    assert {-1.0, 1.0} == set(sides)


@pytest.mark.parametrize("offsets", [(0.0, 0.3, 0.6), (0.6, 0.3, 0.0)], ids=["ascending", "descending"])
def test_find_skips_used_indices_lowest_first(offsets):
    # one matrix listed three times, each copy within MATCH_TOL of the query;
    # real offsets on every entry make the projections ascend or descend with the index
    u = generate_group(clifford_generators()).elements[5]
    stack = np.stack([u + offset * MATCH_TOL for offset in offsets])
    projections = symmetry._projections(stack)
    indices = sorted(range(len(stack)), key=projections.__getitem__)
    assert indices == ([0, 1, 2] if offsets[0] == 0.0 else [2, 1, 0])
    table = (list(stack), [projections[i] for i in indices], indices)
    query = u + 0.3 * MATCH_TOL
    (projection,) = symmetry._projections(query[None])
    used = set()
    for expected in (0, 1, 2, -1):
        found = symmetry._find(query, projection, *table, used)
        assert found == expected
        used.add(found)


def test_max_order_equal_to_the_order_succeeds(monkeypatch):
    monkeypatch.setattr(symmetry, "MAX_ORDER", 192)
    assert generate_group(clifford_generators()).order == 192
    monkeypatch.setattr(symmetry, "MAX_ORDER", 191)
    with pytest.raises(GroupNotFiniteError):
        generate_group(clifford_generators())


def test_weyl_heisenberg_d11_closes():
    rep = generate_group(weyl_heisenberg_generators(11))
    assert rep.order == 1331
    assert complex_orbit_bound(rep) == 1


def test_generator_dimension_must_match_dim():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert generate_group([swap], dim=2).order == 2
    with pytest.raises(StructuralError):
        generate_group([swap], dim=3)
    with pytest.raises(StructuralError):
        generate_group([swap, np.eye(3)])


def test_generate_group_rejects_a_non_square_generator():
    with pytest.raises(UnitarityError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        generate_group([np.zeros((2, 3))])


def test_generate_group_needs_dim_without_generators():
    with pytest.raises(StructuralError, match="^dim is required when the generator list is empty$"):
        generate_group([])


def test_group_operations_reject_another_dimension():
    rep = trine_group()
    qubit = np.diag([1.0, 0.0])
    with pytest.raises(StructuralError, match="^dimension mismatch: POVM 2 vs representation 3$"):
        symmetrize(Povm([np.eye(2)]), rep)
    with pytest.raises(StructuralError, match="^dimension mismatch: operator 2 vs representation 3$"):
        orbit_sum(qubit, rep)
    with pytest.raises(StructuralError, match="^dimension mismatch: ensemble 2 vs representation 3$"):
        is_symmetric_ensemble(Ensemble([qubit], [1.0]), rep)
