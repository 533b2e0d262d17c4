"""Known-answer tests of the benchmark's reference computations.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import math

import numpy as np
import pytest

import oracles


def _rotation_reflection_generators():
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    return [np.array([[c, -s], [s, c]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trivial_group_commutant_is_everything(d):
    identity = [np.eye(d, dtype=complex)]
    assert oracles.commutant_dimension(identity) == d * d
    assert oracles.symmetric_commutant_dimension(identity) == d * (d + 1) // 2


@pytest.mark.parametrize(
    "generators",
    [oracles.clifford_generators(), oracles.weyl_heisenberg_generators(3),
     oracles.weyl_heisenberg_generators(5), _rotation_reflection_generators()],
    ids=["clifford", "wh3", "wh5", "s3"],
)
def test_irreducible_group_commutant_is_one(generators):
    assert oracles.commutant_dimension(generators) == 1


def test_real_irreducible_group_symmetric_commutant_is_one():
    assert oracles.symmetric_commutant_dimension(_rotation_reflection_generators()) == 1


def test_reducible_group_counts_its_blocks():
    # diag(1, -1, -1): blocks of sizes 1 and 2, so 1 + 4 complex and 1 + 3 real symmetric dimensions.
    generators = [np.diag([1.0, -1.0, -1.0]).astype(complex)]
    assert oracles.commutant_dimension(generators) == 5
    assert oracles.symmetric_commutant_dimension(generators) == 4


@pytest.mark.parametrize(
    "generators, order",
    [(oracles.clifford_generators(), 192), (oracles.weyl_heisenberg_generators(3), 27),
     (oracles.weyl_heisenberg_generators(5), 125), (oracles.weyl_heisenberg_generators(7), 343),
     (_rotation_reflection_generators(), 6)],
)
def test_group_orders(generators, order):
    assert len(oracles.close_group(generators)) == order


def test_orthogonal_states_give_prior_entropy():
    priors = np.array([0.5, 0.3, 0.2])
    basis = np.array([oracles.projector(e) for e in np.eye(3)])
    expected = oracles.shannon_bits(priors)
    assert oracles.mutual_information(priors, basis, basis) == pytest.approx(expected, abs=1e-12)
    assert oracles.holevo_chi(priors, basis) == pytest.approx(expected, abs=1e-12)


def test_trivial_measurement_gives_nothing():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    states = np.array([oracles.projector(v / np.linalg.norm(v)) for v in vectors])
    assert oracles.mutual_information(np.full(4, 0.25), states, [np.eye(3)]) == pytest.approx(0.0, abs=1e-12)


def test_double_trines_single_orbit_matches_closed_form():
    closed = oracles.double_trines_closed_form()
    assert closed == pytest.approx(1.3690, abs=1e-4)
    orbit = oracles.trine_orbit(math.acos(math.sqrt(1 / 3)), 0.0)
    assert oracles.completeness_defect(orbit) < 1e-12
    info = oracles.mutual_information(np.full(3, 1 / 3), oracles.lifted_trine_states(0.5), orbit)
    assert info == pytest.approx(closed, abs=1e-12)


def test_two_orbit_mixture_information_is_linear_in_the_formal_informations():
    alpha, (a1, b1), (a2, b2) = 0.05, (1.3, 0.4), (0.7, 0.1)
    x1, x2 = math.cos(a1) ** 2, math.cos(a2) ** 2
    lam = (1 / 3 - x2) / (x1 - x2)
    povm = oracles.two_orbit_povm(a1, b1, a2, b2, lam)
    assert oracles.completeness_defect(povm) < 1e-12
    info = oracles.mutual_information(np.full(3, 1 / 3), oracles.lifted_trine_states(alpha), povm)
    mixed = lam * oracles.orbit_formal_information(alpha, a1, b1) + (1 - lam) * oracles.orbit_formal_information(
        alpha, a2, b2
    )
    assert info == pytest.approx(mixed, abs=1e-12)
    assert info <= oracles.holevo_chi(np.full(3, 1 / 3), oracles.lifted_trine_states(alpha)) <= math.log2(3)


@pytest.mark.parametrize("d", [2, 3])
def test_design_rank_of_many_rank_one_operators_is_d_squared(d):
    rng = np.random.default_rng(d)
    vectors = rng.normal(size=(3 * d * d, d)) + 1j * rng.normal(size=(3 * d * d, d))
    assert oracles.design_rank([oracles.projector(v) for v in vectors]) == d * d


def test_rank_one_pieces_rebuild_the_operators():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    op = g @ g.conj().T
    pieces = oracles.rank_one_pieces([op])
    assert len(pieces) == 3
    assert np.allclose(pieces.sum(axis=0), op, atol=1e-12)
