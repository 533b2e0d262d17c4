import math
import os

import numpy as np
import pytest

from povm_forge import (
    Ensemble,
    Povm,
    convex_combine,
    double_trines,
    equality_condition,
    generate_group,
    joint_distribution,
    lifted_trines,
    mutual_information,
    optimize_two_orbits,
    orbit_information,
    orbit_projectors,
    pretty_good_measurement,
    prune_povm,
    split_operator,
    symmetrize,
    trine_group,
    validate_povm,
)
from povm_forge.cli import load_problem
from povm_forge.quantum import StructuralError
from povm_forge.infotheory import _formal_information, _information_slope, plogp
from helpers import random_ensemble, random_povm, random_state

NU = math.acos(math.sqrt(1.0 / 3.0))
DATA = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data")


def orthogonal_pair():
    return Ensemble(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([0.5, 0.5])
    )


def test_zero_outcome_changes_no_bit_of_the_information():
    # six joint entries with the zero column, so numpy adds the extra 0 in order and no bit moves
    s = orthogonal_pair()
    with_zero = Povm([np.diag([1.0, 0.3]), np.zeros((2, 2)), np.diag([0.0, 0.7])])
    without = Povm([np.diag([1.0, 0.3]), np.diag([0.0, 0.7])])
    assert mutual_information(s, with_zero) == mutual_information(s, without)


def test_joint_projective():
    s = orthogonal_pair()
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.allclose(joint_distribution(s, p), np.diag([0.5, 0.5]))


def test_joint_identity_measurement_gives_priors():
    rng = np.random.default_rng(12)
    s = random_ensemble(rng, 3, 4)
    probs = joint_distribution(s, Povm([np.eye(3)]))
    assert np.allclose(probs[:, 0], s.priors)


def test_joint_first_row_tilted_orbit():
    s = lifted_trines(0.05)
    ops = orbit_projectors(math.acos(math.sqrt(0.3831)), 0.0)
    row = joint_distribution(s, ops)[0]
    assert np.max(np.abs(row - [0.2724, 0.0199, 0.0199])) <= 5e-4


def test_joint_matches_trace_loop():
    rng = np.random.default_rng(13)
    s = random_ensemble(rng, 3, 4, pure=False)
    p = random_povm(rng, 3, 5)
    loop = [[prior * np.trace(op @ rho).real for op in p.operators] for prior, rho in zip(s.priors, s.states)]
    assert np.max(np.abs(joint_distribution(s, p) - loop)) <= 1e-14


def test_joint_rejects_large_negative():
    s = orthogonal_pair()
    with pytest.raises(ValueError):
        joint_distribution(s, [np.diag([-1e-6, 0.0])])


def test_joint_clamps_what_validation_accepts():
    # validate_povm allows an eigenvalue of -5e-10, which gives the joint
    # entry -2.5e-10; the sign floor of both is HERM_TOL
    p = Povm([np.diag([1.0, -5e-10]), np.diag([0.0, 1.0 + 5e-10])])
    assert validate_povm(p).ok
    assert joint_distribution(orthogonal_pair(), p).min() == 0.0
    assert mutual_information(orthogonal_pair(), p) == pytest.approx(1.0, abs=1e-9)


def test_plogp_zero_convention():
    assert plogp(np.array([0.0, 1.0, 0.5])).tolist() == [0.0, 0.0, -0.5]


@pytest.mark.parametrize("m, n", [(2, 3), (4, 9), (49, 343)])
def test_formal_information_is_linear_in_the_column_weights(m, n):
    # the nu_j log2 nu_j terms of each column cancel: I(J nu) = g . nu - sum h(p_i),
    # with zero entries, a zero column and zero weights
    rng = np.random.default_rng([24, m, n])
    for _ in range(5):
        joint = rng.uniform(size=(m, n)) * (rng.uniform(size=(m, n)) > 0.2)
        nu = rng.uniform(size=n) * (rng.uniform(size=n) > 0.2)
        joint[:, 0] = 0.0
        nu[1] = 0.0
        joint[0, -1] = nu[-1] = 1.0
        joint /= joint @ nu @ np.ones(m)  # J nu is a joint distribution, as for a leaf
        scaled = joint * nu
        priors = scaled.sum(axis=1)
        direct = plogp(scaled).sum() - plogp(priors).sum() - plogp(scaled.sum(axis=0)).sum()
        linear = _information_slope(joint) @ nu - plogp(priors).sum()
        assert abs(_formal_information(scaled, priors) - direct) <= 1e-12
        assert abs(linear - direct) <= 1e-12


def test_mutual_information_perfect_discrimination():
    s = orthogonal_pair()
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert abs(mutual_information(s, p) - 1.0) <= 1e-12


def test_mutual_information_trivial_measurement():
    rng = np.random.default_rng(13)
    s = random_ensemble(rng, 2, 3)
    assert abs(mutual_information(s, Povm([np.eye(2)]))) <= 1e-12


def test_mutual_information_pgm_double_trines():
    _, projected = double_trines()
    pgm = pretty_good_measurement(projected)
    assert abs(mutual_information(projected, pgm) - 1.369) <= 1e-3


def test_mutual_information_rejects_invalid_povm():
    s = orthogonal_pair()
    with pytest.raises(ValueError):
        mutual_information(s, Povm([np.diag([0.5, 0.5])]))


def test_information_bounds_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        s = random_ensemble(rng, 3, m)
        p = random_povm(rng, 3, n)
        info = mutual_information(s, p)
        assert info >= -1e-12
        assert info <= math.log2(m) + 1e-12
        assert info <= math.log2(n) + 1e-12


def test_orbit_information_complete_orbit_matches():
    s = lifted_trines(0.05)
    orbit = Povm(orbit_projectors(NU, 0.7))
    assert abs(orbit_information(s, orbit) - mutual_information(s, orbit)) <= 1e-12


def test_orbit_information_reference_points():
    s = lifted_trines(0.05)
    low = orbit_information(s, orbit_projectors(math.pi / 2, math.pi / 2))
    high = orbit_information(s, orbit_projectors(math.acos(math.sqrt(0.3831)), 0.0))
    assert abs(low - 0.15996) <= 5e-5
    assert abs(high - 0.9499) <= 5e-4


def test_orbit_information_can_be_negative():
    # a planar orbit aligned with a trine direction confuses the other two states
    s = lifted_trines(0.05)
    assert orbit_information(s, orbit_projectors(math.pi / 2, 0.0)) < 0


def test_equality_condition_same_povm():
    rng = np.random.default_rng(15)
    s = random_ensemble(rng, 2, 3)
    p = random_povm(rng, 2, 3)
    for j in range(3):
        assert equality_condition(s, p, p, j)


def test_equality_condition_scaled_operator():
    rng = np.random.default_rng(16)
    s = random_ensemble(rng, 2, 3)
    p = random_povm(rng, 2, 3)
    q_ops = [2.0 * op for op in p.operators]
    for j in range(3):
        assert equality_condition(s, p.operators, q_ops, j)


def test_equality_condition_distinct_orbit_points():
    s = lifted_trines(0.05)
    p = orbit_projectors(math.pi / 2, math.pi / 6)
    q = orbit_projectors(math.acos(math.sqrt(0.3831)), 0.0)
    assert not equality_condition(s, p, q, 0)


def test_additivity_of_random_selection():
    # information of a labelled mixture of two POVMs is the weight average
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = random_ensemble(rng, 2, 3)
        p = random_povm(rng, 2, 3)
        q = random_povm(rng, 2, 4)
        ip, iq = mutual_information(s, p), mutual_information(s, q)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = convex_combine(p, q, lam)
            assert abs(mutual_information(s, mixed) - lam * ip - (1 - lam) * iq) <= 1e-10


def test_split_invariance():
    rng = np.random.default_rng(18)
    for _ in range(10):
        s = random_ensemble(rng, 3, 3)
        p = random_povm(rng, 3, 4)
        split = split_operator(p, int(rng.integers(0, 4)), rng.uniform(0, 1))
        assert abs(mutual_information(s, p) - mutual_information(s, split)) <= 1e-12


def trine_symmetric_ensemble(rng, rep):
    rho = random_state(rng, rep.dim, pure=False)
    states = [u @ rho @ u.conj().T for u in rep.elements]
    return Ensemble(states, np.full(rep.order, 1.0 / rep.order))


def test_symmetrization_invariance():
    rng = np.random.default_rng(19)
    rep = trine_group()
    for _ in range(10):
        s = trine_symmetric_ensemble(rng, rep)
        p = random_povm(rng, 3, 3)
        assert abs(mutual_information(s, p) - mutual_information(s, symmetrize(p, rep))) <= 1e-9


def test_columnwise_mixing_is_convex():
    rng = np.random.default_rng(20)
    for _ in range(10):
        s = random_ensemble(rng, 2, 3)
        p = random_povm(rng, 2, 4)
        q = random_povm(rng, 2, 4)
        lam = rng.uniform(0, 1)
        mixed = Povm(
            [lam * a + (1 - lam) * b for a, b in zip(p.operators, q.operators)]
        )
        bound = lam * mutual_information(s, p) + (1 - lam) * mutual_information(s, q)
        assert mutual_information(s, mixed) <= bound + 1e-10


def test_columnwise_mixing_equality_when_proportional():
    rng = np.random.default_rng(23)
    s = random_ensemble(rng, 2, 3)
    p = random_povm(rng, 2, 4)
    lam = 0.35
    mixed = Povm([lam * a + (1 - lam) * a for a in p.operators])
    assert all(equality_condition(s, p, p, j) for j in range(4))
    assert abs(mutual_information(s, mixed) - mutual_information(s, p)) <= 1e-10


def test_symmetry_reduced_formula():
    # with uniform priors and a cyclic orbit the full double sum collapses to
    # one row of the joint distribution
    s = lifted_trines(0.05)
    rng = np.random.default_rng(24)
    for _ in range(10):
        x = rng.uniform(0, 1)
        b = rng.uniform(0, 2 * math.pi / 3)
        ops = orbit_projectors(math.acos(math.sqrt(x)), b)
        probs = joint_distribution(s, ops)
        row = probs[0]
        reduced = 3 * (plogp(row).sum() - plogp(np.array([row.sum()]))[0]) + math.log2(3)
        assert abs(orbit_information(s, ops) - reduced) <= 1e-12


def test_equality_condition_count_mismatch():
    from povm_forge import StructuralError

    rng = np.random.default_rng(25)
    s = random_ensemble(rng, 2, 2)
    with pytest.raises(StructuralError):
        equality_condition(s, random_povm(rng, 2, 3), random_povm(rng, 2, 4), 0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_information_invariant_under_relabelling(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(5):
        s = random_ensemble(rng, d, d + 2, pure=False)
        p = random_povm(rng, d, d + 3)
        info = mutual_information(s, p)
        outcomes = Povm(p.operators[rng.permutation(len(p))])
        assert abs(mutual_information(s, outcomes) - info) <= 1e-12
        order = rng.permutation(len(s))
        inputs = Ensemble(s.states[order], s.priors[order])
        assert abs(mutual_information(inputs, p) - info) <= 1e-12


def trines_optima(alpha):
    two = optimize_two_orbits(alpha)
    return lifted_trines(alpha), [two.single_info, two.info_bits]


def double_trines_pgm():
    _, projected = double_trines()
    return projected, [mutual_information(projected, pretty_good_measurement(projected))]


def pruned_problem_file(name):
    problem = load_problem(os.path.join(DATA, name))
    rep = generate_group(problem.generators) if problem.generators is not None else None
    return problem.ensemble, [prune_povm(problem.ensemble, problem.povm, rep).info_bits]


@pytest.mark.parametrize("case", [
    lambda: trines_optima(0.05),
    lambda: trines_optima(0.17),
    lambda: trines_optima(0.5),
    double_trines_pgm,
    lambda: pruned_problem_file("four_projectors_d2.json"),
    lambda: pruned_problem_file("lifted_trines_0.05.json"),
], ids=["trines-0.05", "trines-0.17", "trines-0.5", "double-trines-pgm", "four-projectors-d2", "lifted-trines-0.05"])
def test_information_never_exceeds_the_holevo_chi(case):
    # chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i) <= log2 d bounds every measurement's information
    ensemble, infos = case()

    def entropy(rho):
        return -float(plogp(np.linalg.eigvalsh(rho)).sum())

    average = np.einsum("i,ijk->jk", ensemble.priors, ensemble.states)
    chi = entropy(average) - sum(p * entropy(rho) for p, rho in zip(ensemble.priors, ensemble.states))
    assert chi <= math.log2(ensemble.dim) + 1e-12
    for info in infos:
        assert info <= chi + 1e-12


def test_joint_distribution_rejects_operators_of_another_dimension():
    with pytest.raises(StructuralError, match="^dimension mismatch: ensemble 3 vs operators 2$"):
        joint_distribution(lifted_trines(0.05), [np.eye(2)])


def test_equality_condition_rejects_a_column_out_of_range():
    s = lifted_trines(0.05)
    ops = orbit_projectors(math.acos(math.sqrt(1.0 / 3.0)), 0.0)
    with pytest.raises(IndexError, match="^column 3 out of range for 3 operators$"):
        equality_condition(s, ops, ops, 3)
