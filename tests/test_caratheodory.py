import importlib
import itertools
import math
import os
import pkgutil

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
    split_rank_one,
    symmetrize,
    trine_group,
    validate_povm,
)
import povm_forge
from povm_forge import caratheodory
from povm_forge.caratheodory import InternalLogicError, NormalizationError, score_leaves
from povm_forge.cli import load_problem
from povm_forge.hermitian import HERM_TOL, ZERO_TOL
from povm_forge.infotheory import _formal_information, _information_slope, joint_distribution, plogp
from povm_forge.symmetry import NotSymmetricError
from test_commands_agree import invisible_pieces, tiny_operator_completed
from helpers import (
    orbit_ensemble,
    random_ensemble,
    random_povm,
    random_real_povm,
    random_state,
    weyl_heisenberg_generators,
)

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
    pruned = prune_povm(s, p, generate_group([], dim=2))
    assert len(pruned) <= 4
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9
    # without a group the prune runs under the trivial one, bit for bit
    plain = prune_povm(s, p)
    assert np.array_equal(plain.operators, pruned.operators)
    assert (plain.design_rank, plain.walk_steps) == (pruned.design_rank, pruned.walk_steps)
    # real data: the real orbit bound d(d+1)/2 of the trivial group holds
    real = prune_povm(s, random_real_povm(rng, 2, 6), real_mode=True)
    assert len(real) <= 3


def test_prune_symmetric_lifted_trines_two_orbits():
    rep = trine_group()
    s = lifted_trines(0.05)
    basis = Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    p = symmetrize(basis, rep)
    pruned = prune_povm(s, p, rep, real_mode=True)
    assert len(pruned) // rep.order <= 2
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_double_trines_single_orbit():
    from povm_forge import double_trines

    rep = trine_group()
    _, projected = double_trines()
    pgm = pretty_good_measurement(projected)
    pruned = prune_povm(projected, pgm, rep, real_mode=True)
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
    pruned = prune_povm(s, p, rep)
    assert len(pruned) % rep.order == 0
    assert len(pruned) // rep.order <= complex_orbit_bound(rep)
    assert validate_povm(pruned).ok
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9


def test_prune_symmetric_requires_symmetry():
    rng = np.random.default_rng(37)
    s = random_ensemble(rng, 3, 3)
    p = random_povm(rng, 3, 3)
    with pytest.raises(NotSymmetricError):
        prune_povm(s, p, trine_group())


@pytest.mark.parametrize("priors", [[0.7, 0.7], [np.nan, np.nan]], ids=["sum-1.4", "nan"])
def test_prune_validates_before_the_symmetry_check(priors):
    # the swap does not permute the states, but the invalid priors are what is reported
    swap = generate_group([np.array([[0.0, 1.0], [1.0, 0.0]])])
    s = Ensemble([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)], priors)
    with pytest.raises(ValueError, match=r"^invalid ensemble: priors sum to (1\.4|nan), expected 1$") as raised:
        prune_povm(s, Povm([np.eye(2)]), swap)
    assert not isinstance(raised.value, NotSymmetricError)


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


def test_decompose_accepts_zero_weights_and_rejects_negative_ones():
    from povm_forge.caratheodory import InfeasibleError

    ops = np.array([np.eye(2), np.diag([2.0, 0.0]), np.diag([0.0, 2.0])], dtype=complex)
    decomposition = decompose_identity(NormalizedPovm(weights=np.array([0.0, 0.5, 0.5]), normalized_ops=ops))
    assert all(nu[0] == 0.0 for nu in decomposition.solutions)
    # these negative weights do reproduce the identity; only their sign is wrong
    with pytest.raises(InfeasibleError, match="nonnegative"):
        decompose_identity(NormalizedPovm(weights=np.array([1.5, -0.25, -0.25]), normalized_ops=ops))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("rank_one", [True, False], ids=["rank-one", "full-rank"])
def test_prune_ascent_keeps_information_at_a_vertex(d, rank_one):
    rng = np.random.default_rng([41, d, rank_one])
    for _ in range(3):
        s = random_ensemble(rng, d, d + 1)
        p = random_povm(rng, d, 2 * d, rank_one=rank_one)
        pruned = prune_povm(s, p)
        assert validate_povm(pruned).ok
        assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9
        # a vertex: the support columns are linearly independent
        assert numeric_rank(build_design_matrix(normalize_povm(pruned).normalized_ops)) == len(pruned)
        pieces = split_rank_one(p)
        rank = numeric_rank(build_design_matrix(normalize_povm(pieces).normalized_ops))
        assert len(pruned) <= rank == pruned.design_rank
        assert pruned.walk_steps <= len(pieces) - rank


@pytest.mark.parametrize(
    "rep",
    [generate_group([np.array([[0, 1], [1, 0]]), np.diag([1, -1])], dim=2), trine_group(),
     generate_group(weyl_heisenberg_generators(3)), generate_group(weyl_heisenberg_generators(4))],
    ids=["pauli-d2", "trines-d3", "weyl-heisenberg-d3", "weyl-heisenberg-d4"],
)
def test_prune_symmetric_ascent_keeps_information_within_orbit_bound(rep):
    rng = np.random.default_rng(rep.order)
    for rank_one in (True, False):
        s = orbit_ensemble(rep, random_state(rng, rep.dim))
        p = random_povm(rng, rep.dim, 2 * rep.dim, rank_one=rank_one)
        pruned = prune_povm(s, p, rep)
        assert validate_povm(pruned).ok
        assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9
        orbits, rest = divmod(len(pruned), rep.order)
        assert rest == 0 and orbits <= complex_orbit_bound(rep)
        # block k starts with its unconjugated piece nu_k Pi'_k / |G|
        pieces = [pruned.operators[k * rep.order] for k in range(orbits)]
        sums = [orbit_sum(normalize_povm(Povm([op])).normalized_ops[0], rep) for op in pieces]
        assert numeric_rank(build_design_matrix(sums)) == orbits <= pruned.design_rank
        assert pruned.walk_steps <= len(split_rank_one(p)) - pruned.design_rank


DATA = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data")


def two_trine_orbits_unequal_priors():
    rep = trine_group()
    rng = np.random.default_rng(54)
    first = orbit_ensemble(rep, random_state(rng, 3))
    second = orbit_ensemble(rep, random_state(rng, 3, pure=False))
    priors = np.concatenate([0.3 * first.priors, 0.7 * second.priors])
    return Ensemble(np.concatenate([first.states, second.states]), priors), rep


def orbit_case(rep):
    return orbit_ensemble(rep, random_state(np.random.default_rng(rep.order), rep.dim)), rep


CLIFFORD_D2 = [np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.diag([1.0, 1j])]
SYMMETRIC_CASES = {
    "trines-two-orbits": two_trine_orbits_unequal_priors,
    "s3-shipped": lambda: orbit_case(generate_group(load_problem(os.path.join(DATA, "s3_irrep_2d.json")).generators)),
    "weyl-heisenberg-d3": lambda: orbit_case(generate_group(weyl_heisenberg_generators(3))),
    "clifford-d2": lambda: orbit_case(generate_group(CLIFFORD_D2)),
}


@pytest.mark.parametrize("case", SYMMETRIC_CASES.values(), ids=SYMMETRIC_CASES.keys())
def test_symmetrized_leaf_information_is_formal_information_of_pieces(case, monkeypatch):
    # conjugation permutes the states and keeps the priors, so the |G| copies
    # of each piece add nothing the formal information of the pieces misses
    s, rep = case()
    p = random_povm(np.random.default_rng([55, rep.order]), rep.dim, 2 * rep.dim)
    normalized = normalize_povm(split_rank_one(p))
    ops = normalized.normalized_ops
    joint = joint_distribution(s, ops)
    vertices = []
    exchange = caratheodory._basis_exchange

    def recording(*args):
        result = exchange(*args)
        vertices.append(result[0])
        return result

    monkeypatch.setattr(caratheodory, "_basis_exchange", recording)
    pruned = prune_povm(s, p, rep)
    assert len(vertices) == 1
    for nu in (normalized.weights, vertices[0]):
        kept = nu > 0
        symmetrized = symmetrize(Povm(ops[kept] * nu[kept, None, None]), rep)
        assert abs(_formal_information(joint * nu, s.priors) - mutual_information(s, symmetrized)) <= 1e-12
    assert abs(_formal_information(joint * vertices[0], s.priors) - mutual_information(s, pruned)) <= 1e-12


@pytest.mark.parametrize(
    "generators", [[trine_group().elements[1]], weyl_heisenberg_generators(3), CLIFFORD_D2],
    ids=["trines", "weyl-heisenberg-d3", "clifford-d2"],
)
def test_prune_symmetric_builds_one_joint_matrix(generators, monkeypatch):
    rep = generate_group(generators)
    s, _ = orbit_case(rep)
    p = random_povm(np.random.default_rng(56), rep.dim, rep.dim + 1)
    shapes = []
    original = caratheodory.joint_distribution

    def counting(ensemble, ops):
        shapes.append(np.shape(ops))
        return original(ensemble, ops)

    monkeypatch.setattr(caratheodory, "joint_distribution", counting)
    prune_povm(s, p, rep)
    assert shapes == [(len(split_rank_one(p)), rep.dim, rep.dim)]


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "trines"])
def test_prune_makes_one_eigensolve_per_input(symmetric, monkeypatch):
    # validate_povm and split_rank_one share the POVM's spectrum
    shapes = []
    for info in pkgutil.iter_modules(povm_forge.__path__):
        module = importlib.import_module(f"povm_forge.{info.name}")
        if hasattr(module, "eig_hermitian"):
            def counting(m, original=module.eig_hermitian):
                shapes.append(np.shape(m))
                return original(m)

            monkeypatch.setattr(module, "eig_hermitian", counting)
    rep = trine_group() if symmetric else None
    s = lifted_trines(0.05)
    p = symmetrize(Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]), trine_group())
    prune_povm(s, p, rep)
    assert shapes == [s.states.shape, p.operators.shape]


def leaf_povm_informations(s, decomposition, ops):
    return [
        mutual_information(s, Povm(ops[support] * nu[support, None, None]))
        for nu, support in zip(decomposition.solutions, decomposition.supports())
    ]


def decompose_cases():
    problem = load_problem(os.path.join(DATA, "lifted_trines_0.05.json"))
    yield problem.ensemble, problem.povm
    rng = np.random.default_rng(57)
    for d in (2, 3, 4):
        for rank_one in (True, False):
            yield random_ensemble(rng, d, d + 1), random_povm(rng, d, 3 * d, rank_one=rank_one)


def test_score_leaves_equals_information_of_leaf_povms():
    for s, p in decompose_cases():
        normalized = normalize_povm(p)
        decomposition = decompose_identity(normalized)
        scores = score_leaves(s, decomposition, p)
        expected = leaf_povm_informations(s, decomposition, normalized.normalized_ops)
        assert len(scores) == len(expected) == len(decomposition)
        assert np.max(np.abs(np.subtract(scores, expected))) <= 1e-12
        assert int(np.argmax(scores)) == int(np.argmax(expected))


QUBIT_BASIS = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])


def test_decompose_keeps_many_operators_that_validate_cannot_tell_from_zero():
    # eleven operators of weight 1e-9: leaving them all out would take the
    # weights 1.1e-8 off summing to one, beyond FEASIBLE_TOL
    n = 11
    p = Povm([1e-9 * np.eye(2)] * n + [(1 - n * 1e-9) * np.diag([1.0, 0.0]), (1 - n * 1e-9) * np.diag([0.0, 1.0])])
    normalized = normalize_povm(p)
    decomposition = decompose_identity(normalized)
    mixture = np.dot(decomposition.weights, decomposition.solutions)
    assert np.max(np.abs(mixture - normalized.weights)) <= ZERO_TOL


def test_decompose_gives_a_remainder_lost_to_rounding_to_its_leaf():
    # diag(2e-10, 1e-11) and four rank-one operators completing it: the first
    # peel leaves a remainder of tiny mass, which renormalizing would take off
    # the identity by more than FEASIBLE_TOL
    _, ops = next(tiny_operator_completed(2e-10, 1))
    normalized = normalize_povm(Povm(ops))
    decomposition = decompose_identity(normalized)
    assert abs(decomposition.weights.sum() - 1.0) <= ZERO_TOL
    mixture = np.dot(decomposition.weights, decomposition.solutions)
    assert np.max(np.abs(mixture - normalized.weights)) <= caratheodory.FEASIBLE_TOL


def test_score_leaves_checks_signs_on_the_given_operators():
    # normalizing would scale the tolerated -9e-10 that state |1> sees by 2 / tr(tiny), about 2e6
    tiny = np.diag([1e-6 - 9e-10, -9e-10])
    p = Povm([tiny, np.eye(2) - tiny])
    decomposition = decompose_identity(normalize_povm(p))
    scores = score_leaves(QUBIT_BASIS, decomposition, p)
    # the one leaf is p itself; mutual_information takes the row sums, which the
    # clipped -4.5e-10 entry moves, where score_leaves takes the priors
    assert len(scores) == 1 and abs(scores[0] - mutual_information(QUBIT_BASIS, p)) <= HERM_TOL


@pytest.mark.parametrize("draw", [3, 5, 7])
def test_decompose_stops_at_a_remainder_that_is_a_vertex_up_to_rounding(draw):
    # the climbed vertex equals such a remainder only up to rounding, so its
    # peel ratio is 1 - eps; peeling it would leave a zero-mass remainder and
    # overrun the leaf bound
    _, ops = next(itertools.islice(invisible_pieces(3, 8), draw, None))
    normalized = normalize_povm(Povm(ops))
    decomposition = decompose_identity(normalized)
    design, support = decomposition.design, normalized.weights > 0
    assert len(decomposition) <= np.count_nonzero(support) - numeric_rank(design.matrix[:, support]) + 1
    residuals = design.matrix @ np.transpose(decomposition.solutions) - design.target[:, None]
    assert np.max(np.abs(residuals)) <= caratheodory.FEASIBLE_TOL


def test_decompose_rejects_a_leaf_off_the_identity(monkeypatch):
    exchange = caratheodory._basis_exchange

    def perturbed(*args):
        vertex, *rest = exchange(*args)
        vertex = vertex.copy()
        vertex[np.flatnonzero(vertex)[0]] += 1e-6
        return vertex, *rest

    monkeypatch.setattr(caratheodory, "_basis_exchange", perturbed)
    with pytest.raises(InternalLogicError, match="leaf does not reproduce the identity"):
        decompose_identity(four_projector_normalized())


def test_pruned_info_bits_is_mutual_information():
    # the walk's score of its vertex is the information that prune reports
    problem = load_problem(os.path.join(DATA, "lifted_trines_0.05.json"))
    cases = [(problem.ensemble, problem.povm, generate_group(problem.generators), True)]
    rng = np.random.default_rng(58)
    for d in (2, 3, 4):
        for rank_one in (True, False):
            cases.append((random_ensemble(rng, d, d + 1), random_povm(rng, d, 2 * d, rank_one=rank_one), None, False))
    for case in SYMMETRIC_CASES.values():
        s, rep = case()
        cases.append((s, random_povm(np.random.default_rng([58, rep.order]), rep.dim, 2 * rep.dim), rep, False))
    for s, p, rep, real_mode in cases:
        pruned = prune_povm(s, p, rep, real_mode=real_mode)
        assert abs(pruned.info_bits - mutual_information(s, pruned)) <= 1e-12


@pytest.mark.parametrize("n", [120, 500])
def test_prune_and_decompose_many_rank_one_outcomes(n):
    # a scale guard with no timing assert: a chain of n - 3 leaves, each
    # reached from the one before by a few pivots
    d = 2
    rng = np.random.default_rng(60)
    s = random_ensemble(rng, d, d + 1)
    p = random_povm(rng, d, n, rank_one=True)
    pruned = prune_povm(s, p)
    assert len(pruned) <= d * d
    assert numeric_rank(build_design_matrix(normalize_povm(pruned).normalized_ops)) == len(pruned)
    assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9
    assert pruned.walk_steps <= n - pruned.design_rank
    normalized = normalize_povm(p)
    assert_decomposition_invariants(normalized, decompose_identity(normalized))


def test_pruned_povm_sums_to_the_identity_to_rounding():
    # the walk can stop with weights of about 1e-13 that the zeroing drops
    # (d = 4, 12 full-rank outcomes); re-solving the kept weights restores the sum
    cases = [(s, p, None) for s, p in decompose_cases()]
    for case in SYMMETRIC_CASES.values():
        s, rep = case()
        cases.append((s, random_povm(np.random.default_rng([60, rep.order]), rep.dim, 2 * rep.dim), rep))
    for s, p, rep in cases:
        pruned = prune_povm(s, p, rep)
        assert np.max(np.abs(pruned.operators.sum(axis=0) - np.eye(pruned.dim))) <= 1e-14
        assert abs(pruned.info_bits - mutual_information(s, pruned)) <= 1e-13


def rounded_problem(rng, d: int, outcomes: int, decimals: int) -> tuple[Ensemble, Povm]:
    """Three rank-2 states with Dirichlet priors and a full-rank POVM S^-1/2 A_j S^-1/2,
    written to ``decimals`` places as a problem file would be."""
    g = rng.normal(size=(3, d, 2)) + 1j * rng.normal(size=(3, d, 2))
    states = g @ g.conj().swapaxes(1, 2)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    priors = rng.dirichlet(np.ones(3))
    g = rng.normal(size=(outcomes, d, d)) + 1j * rng.normal(size=(outcomes, d, d))
    raw = g @ g.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(raw.sum(axis=0))
    n_half = (v / np.sqrt(w)) @ v.conj().T
    ops = np.round(n_half @ raw @ n_half, decimals)
    return Ensemble(list(states), priors), Povm(list((ops + ops.conj().swapaxes(1, 2)) / 2))


@pytest.mark.parametrize("d", [2, 3])
def test_prune_rounded_povms(d):
    # 12 decimals leave the walk on a degenerate vertex with a few weights near
    # ZERO_TOL, which the exact re-solve puts at about -1e-16
    rng = np.random.default_rng(7)
    for _ in range(300):
        s, p = rounded_problem(rng, d, 2 * d, 12)
        pruned = prune_povm(s, p)
        assert pruned.info_bits >= mutual_information(s, p)
        assert np.max(np.abs(pruned.operators.sum(axis=0) - np.eye(d))) <= HERM_TOL


def test_prune_keeps_the_walk_vertex_for_a_non_positive_re_solved_weight(monkeypatch):
    # the weights the basis exchange tracked serve when the one solve puts one below zero
    solve = np.linalg.solve
    calls = []

    def negated(*args, **kwargs):
        calls.append(args)
        return -solve(*args, **kwargs)

    monkeypatch.setattr(caratheodory.np.linalg, "solve", negated)
    s, p = next(decompose_cases())
    pruned = prune_povm(s, p)
    assert len(calls) == 1
    assert validate_povm(pruned).ok
    assert np.max(np.abs(pruned.operators.sum(axis=0) - np.eye(pruned.dim))) <= HERM_TOL
    assert abs(pruned.info_bits - mutual_information(s, pruned)) <= 1e-12


def test_prune_rejects_re_solved_weights_off_the_identity(monkeypatch):
    solve = np.linalg.solve

    def scaled(*args, **kwargs):
        return solve(*args, **kwargs) * (1 + 1e-6)

    monkeypatch.setattr(caratheodory.np.linalg, "solve", scaled)
    s, p = next(decompose_cases())
    with pytest.raises(InternalLogicError, match="do not reproduce the identity"):
        prune_povm(s, p)


def best_vertex_cases(name):
    """Small seeded prunes whose every basic solution the subset oracle can list."""
    if name == "plain":
        rng = np.random.default_rng(61)
        return [
            (random_ensemble(rng, d, d + 1), random_povm(rng, d, outcomes, rank_one=rank_one), None)
            for d, outcomes, rank_one in ((2, 3, False), (2, 6, True), (2, 9, True), (3, 3, False), (3, 8, True),
                                          (2, 4, False), (2, 12, True))
        ]
    s, rep = SYMMETRIC_CASES[name]()
    rng = np.random.default_rng([61, rep.order])
    return [(s, random_povm(rng, rep.dim, 2 * rep.dim, rank_one=rank_one), rep) for rank_one in (True, False)]


@pytest.mark.parametrize("name", ["plain", *SYMMETRIC_CASES])
def test_prune_finds_the_most_informative_vertex(name):
    # information is linear in the weights, so the best reweighting of the pieces
    # is the best basic solution of their (orbit-sum) design
    for s, p, rep in best_vertex_cases(name):
        ops = normalize_povm(split_rank_one(p)).normalized_ops
        gain = _information_slope(joint_distribution(s, ops))
        design = build_design_matrix(orbit_sum(ops, rep or generate_group([], dim=p.dim)))
        best = max(gain @ nu for nu in enumerate_basic_solutions(design)) - plogp(s.priors).sum()
        assert abs(prune_povm(s, p, rep).info_bits - best) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_prune_is_at_least_every_leaf_over_the_same_pieces(d):
    rng = np.random.default_rng([62, d])
    for outcomes, rank_one in ((d + 2, False), (d * d, True), (d * d + d, True)):
        for _ in range(3):
            s = random_ensemble(rng, d, d + 1)
            p = random_povm(rng, d, outcomes, rank_one=rank_one)
            pieces = split_rank_one(p)
            leaves = score_leaves(s, decompose_identity(normalize_povm(pieces)), pieces)
            assert prune_povm(s, p).info_bits >= max(leaves) - 1e-12


def test_build_design_matrix_rejects_an_empty_operator_list():
    with pytest.raises(NormalizationError, match="^need at least one operator$"):
        build_design_matrix([])
