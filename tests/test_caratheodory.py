import itertools
import math

import numpy as np
import pytest

from povm_forge import (
    Ensemble,
    NormalizedPovm,
    Povm,
    build_design_matrix,
    complex_orbit_bound,
    convex_combine,
    decompose_identity,
    generate_group,
    lifted_trines,
    mutual_information,
    normalize_povm,
    numeric_rank,
    orbit_projectors,
    orbit_sum,
    pretty_good_measurement,
    prune_povm,
    prune_symmetric_povm,
    split_rank_one,
    symmetrize,
    trine_group,
    validate_povm,
)
from povm_forge.caratheodory import NormalizationError
from povm_forge.symmetry import NotSymmetricError
from helpers import random_ensemble, random_povm, random_real_povm

NU = math.acos(math.sqrt(1.0 / 3.0))


def four_projector_normalized():
    plus = np.array([[1, 1], [1, 1]], dtype=complex) / 2
    minus = np.array([[1, -1], [-1, 1]], dtype=complex) / 2
    povm = Povm([np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), 0.5 * plus, 0.5 * minus])
    return normalize_povm(povm)


def enumerate_basic_solutions(design, rank_tol=1e-10):
    """Oracle: try every column subset, solve the square-ish system by least
    squares, and keep nonnegative solutions that reproduce the target."""
    d, c = design.matrix, design.target
    n = d.shape[1]
    rank = numeric_rank(design)
    found = []
    for size in range(1, rank + 1):
        for subset in itertools.combinations(range(n), size):
            sub = d[:, subset]
            if np.linalg.matrix_rank(sub, tol=1e-9) < size:
                continue
            sol, *_ = np.linalg.lstsq(sub, c, rcond=None)
            if np.any(sol < -1e-9):
                continue
            if np.max(np.abs(sub @ sol - c)) > 1e-7:
                continue
            nu = np.zeros(n)
            nu[list(subset)] = np.clip(sol, 0.0, None)
            found.append(nu)
    return found


def test_design_matrix_identity_column():
    design = build_design_matrix([np.eye(2)])
    assert np.allclose(design.matrix[:, 0], [1, 1, 1, 0, 0])
    assert np.allclose(design.target, [1, 1, 1, 0, 0])


def test_design_matrix_diagonal_block():
    design = build_design_matrix([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])])
    assert np.allclose(design.matrix[1:3], [[2.0, 0.0], [0.0, 2.0]])


def test_design_matrix_first_row_dependent_on_diagonal_rows():
    rng = np.random.default_rng(30)
    normalized = normalize_povm(random_povm(rng, 3, 5))
    design = build_design_matrix(normalized.normalized_ops)
    # diagonal-block rows sum to d times the all-ones row
    assert np.max(np.abs(design.matrix[1:4].sum(axis=0) - 3.0 * design.matrix[0])) <= 1e-9


def test_design_matrix_rejects_wrong_trace():
    with pytest.raises(NormalizationError):
        build_design_matrix([np.eye(2)[0:2] * 0.5])


def orbit_sum_triple():
    """Three commutant diagonals with mean x = 1/3; they span an affine line."""
    rep = trine_group()
    ops = []
    for x in (0.0, 1.0 / 3.0, 2.0 / 3.0):
        v = np.outer(*(2 * [np.array([math.sqrt(x), math.sqrt(1 - x), 0.0])]))
        ops.append(orbit_sum(3.0 * v, rep))
    return ops


def test_design_matrix_orbit_sum_triple_rank_two():
    design = build_design_matrix(orbit_sum_triple())
    assert numeric_rank(design) == 2
    assert np.linalg.matrix_rank(design.matrix, tol=1e-9) == 2


def test_numeric_rank_zero_matrix():
    assert numeric_rank(np.zeros((3, 4))) == 0


def test_numeric_rank_identity():
    assert numeric_rank(np.eye(4)) == 4


def test_numeric_rank_matches_numpy_on_random_products():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, n, r = rng.integers(2, 7, size=3)
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        assert numeric_rank(a) == np.linalg.matrix_rank(a, tol=1e-9)


def test_decompose_single_operator():
    decomposition = decompose_identity(normalize_povm(Povm([np.eye(3)])))
    assert len(decomposition) == 1
    assert np.allclose(decomposition.weights, [1.0])
    assert np.allclose(decomposition.solutions[0], [1.0])


def test_decompose_four_projectors():
    decomposition = decompose_identity(four_projector_normalized())
    assert len(decomposition) == 2
    assert np.allclose(sorted(decomposition.weights), [0.5, 0.5])
    supports = sorted(tuple(sup) for sup in decomposition.supports())
    assert supports == [(0, 1), (2, 3)]


def test_decompose_orbit_sum_triple():
    ops = orbit_sum_triple()
    normalized = NormalizedPovm(weights=np.full(3, 1.0 / 3.0), normalized_ops=ops)
    decomposition = decompose_identity(normalized)
    oracle = enumerate_basic_solutions(decomposition.design)
    for sup, nu in zip(decomposition.supports(), decomposition.solutions):
        assert len(sup) <= 2
        assert any(np.max(np.abs(nu - ref)) <= 1e-7 for ref in oracle)


def assert_decomposition_invariants(normalized, decomposition):
    lam = normalized.weights
    rank = numeric_rank(decomposition.design)
    recombined = sum(w * nu for w, nu in zip(decomposition.weights, decomposition.solutions))
    assert np.max(np.abs(recombined - lam)) <= 1e-10
    assert abs(decomposition.weights.sum() - 1.0) <= 1e-10
    d = normalized.dim
    for sup, nu in zip(decomposition.supports(), decomposition.solutions):
        assert len(sup) <= rank
        mix = sum(nu[j] * normalized.normalized_ops[j] for j in sup)
        assert np.max(np.abs(mix - np.eye(d))) <= 1e-8
    assert len(decomposition) <= int(np.count_nonzero(lam > 1e-13)) - rank + 1


def test_decompose_matches_subset_oracle_random():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        normalized = normalize_povm(random_povm(rng, 2, n, rank_one=bool(rng.integers(0, 2))))
        decomposition = decompose_identity(normalized)
        assert_decomposition_invariants(normalized, decomposition)
        oracle = enumerate_basic_solutions(decomposition.design)
        for nu in decomposition.solutions:
            assert any(np.max(np.abs(nu - ref)) <= 1e-7 for ref in oracle)


def test_prune_keeps_projective_measurement():
    rng = np.random.default_rng(33)
    s = random_ensemble(rng, 2, 3)
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    pruned = prune_povm(s, p)
    assert len(pruned) == 2
    total = sum(pruned.operators)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-9
    assert abs(mutual_information(s, pruned) - mutual_information(s, p)) <= 1e-9


def test_prune_random_seven_operator_povm():
    rng = np.random.default_rng(34)
    s = random_ensemble(rng, 2, 3)
    p = random_povm(rng, 2, 7)
    pruned = prune_povm(s, p)
    assert len(pruned) <= 4
    assert validate_povm(pruned).ok
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_two_orbit_trines_povm():
    s = lifted_trines(0.05)
    x2 = 0.3831
    lam = (1.0 / 3.0 - x2) / (0.0 - x2)
    p = convex_combine(
        Povm(orbit_projectors(math.pi / 2, math.pi / 2)),
        Povm(orbit_projectors(math.acos(math.sqrt(x2)), 0.0)),
        lam,
    )
    pruned = prune_povm(s, p)
    assert len(pruned) <= 9
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_real_povm_tighter_bound():
    # without any imaginary parts the antisymmetric coordinate rows vanish,
    # so at most d(d+1)/2 operators survive
    rng = np.random.default_rng(35)
    for _ in range(5):
        s = random_ensemble(rng, 2, 3)
        p = random_real_povm(rng, 2, 6)
        pruned = prune_povm(s, p)
        assert len(pruned) <= 3
        assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_trivial_group_matches_plain_bound():
    rng = np.random.default_rng(36)
    s = random_ensemble(rng, 2, 3)
    p = random_povm(rng, 2, 5)
    pruned = prune_symmetric_povm(s, p, generate_group([], dim=2))
    assert len(pruned) <= 4
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_lifted_trines_two_orbits():
    rep = trine_group()
    s = lifted_trines(0.05)
    basis = Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    p = symmetrize(basis, rep)
    pruned = prune_symmetric_povm(s, p, rep, real_mode=True)
    assert len(pruned) // rep.order <= 2
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_double_trines_single_orbit():
    from povm_forge import double_trines

    rep = trine_group()
    _, projected = double_trines()
    pgm = pretty_good_measurement(projected)
    pruned = prune_symmetric_povm(projected, pgm, rep, real_mode=True)
    assert len(pruned) // rep.order == 1
    assert abs(mutual_information(projected, pruned) - 1.369) <= 1e-3


def test_prune_d3_twelve_full_rank_outcomes():
    # 36 rank-one pieces: the decomposition chain needs at most 36 - 9 + 1 leaves
    rng = np.random.default_rng(40)
    s = random_ensemble(rng, 3, 4)
    p = random_povm(rng, 3, 12)
    pruned = prune_povm(s, p)
    assert len(pruned) <= 9
    assert validate_povm(pruned).ok
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_weyl_heisenberg_symmetrized_povm():
    # Order-27 Weyl-Heisenberg group in d = 3: the POVM is already symmetrized,
    # so all 81 orbit sums equal the identity and every column of the design
    # matrix coincides.
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    rep = generate_group([shift, clock], dim=3)
    assert rep.order == 27
    v = np.array([1.0, 0.5 + 0.5j, -0.25j])
    v /= np.linalg.norm(v)
    states = []
    for u in rep.elements:
        state = u @ np.outer(v, v.conj()) @ u.conj().T
        if not any(np.max(np.abs(state - seen)) <= 1e-9 for seen in states):
            states.append(state)
    s = Ensemble(states, np.full(len(states), 1.0 / len(states)))
    basis, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5j], [0.0, 1.0, 3.0j], [2.0, -1.0, 1.0]]))
    p = Povm([
        u @ np.outer(basis[:, k], basis[:, k].conj()) @ u.conj().T / rep.order
        for k in range(3)
        for u in rep.elements
    ])
    assert len(p) == 81
    pruned = prune_symmetric_povm(s, p, rep)
    assert len(pruned) % rep.order == 0
    assert len(pruned) // rep.order <= complex_orbit_bound(rep)
    assert validate_povm(pruned).ok
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_requires_symmetry():
    rng = np.random.default_rng(37)
    s = random_ensemble(rng, 3, 3)
    p = random_povm(rng, 3, 3)
    with pytest.raises(NotSymmetricError):
        prune_symmetric_povm(s, p, trine_group())


def test_best_leaf_at_least_average():
    rng = np.random.default_rng(38)
    for _ in range(5):
        s = random_ensemble(rng, 2, 3)
        normalized = normalize_povm(random_povm(rng, 2, 6, rank_one=True))
        decomposition = decompose_identity(normalized)
        infos = []
        for nu in decomposition.solutions:
            ops = [nu[j] * normalized.normalized_ops[j] for j in np.flatnonzero(nu > 1e-13)]
            infos.append(mutual_information(s, Povm(ops)))
        average = float(np.dot(decomposition.weights, infos))
        assert max(infos) >= average - 1e-12


def test_split_rank_one_preserves_sum_and_information():
    rng = np.random.default_rng(39)
    s = random_ensemble(rng, 3, 3)
    p = random_povm(rng, 3, 3)
    pieces = split_rank_one(p)
    assert len(pieces) == 9
    assert np.max(np.abs(sum(pieces.operators) - sum(p.operators))) <= 1e-10
    assert mutual_information(s, pieces) >= mutual_information(s, p) - 1e-12


def test_decompose_rejects_infeasible_weights():
    from povm_forge.caratheodory import InfeasibleError

    bad = NormalizedPovm(
        weights=np.array([0.6, 0.6]),
        normalized_ops=[np.diag([2.0, 0.0]).astype(complex), np.diag([0.0, 2.0]).astype(complex)],
    )
    with pytest.raises(InfeasibleError):
        decompose_identity(bad)
