import math

import numpy as np
import pytest

from povm_forge import (
    Ensemble,
    HermiticityError,
    NormalizedPovm,
    PositivityError,
    Povm,
    StructuralError,
    ValidationReport,
    convex_combine,
    eig_hermitian,
    is_psd,
    lifted_trines,
    mutual_information,
    normalize_povm,
    orbit_projectors,
    pretty_good_measurement,
    split_operator,
    validate_ensemble,
    validate_povm,
)
from helpers import random_ensemble, random_povm

NU = math.acos(math.sqrt(1.0 / 3.0))


def trine_orbit_povm():
    return Povm(orbit_projectors(NU, 0.0))


def test_povm_spectrum_is_cached_on_a_read_only_stack():
    ops = random_povm(np.random.default_rng(3), 3, 4).operators.copy()
    p = Povm(ops)
    with pytest.raises(ValueError):
        p.operators[0, 0, 0] = 2.0
    # the caller's array is copied, not frozen
    assert ops.flags.writeable
    w, v = eig_hermitian(p.operators)
    assert np.array_equal(p.spectrum[0], w) and np.array_equal(p.spectrum[1], v)
    assert p.spectrum is p.spectrum


def test_ensemble_states_are_a_read_only_copy():
    states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    s = Ensemble(states, [0.5, 0.5])
    with pytest.raises(ValueError, match="read-only"):
        s.states[0, 0, 0] = 2.0
    # the caller's array is copied, not frozen
    assert states.flags.writeable


def test_validate_povm_identity():
    assert validate_povm(Povm([np.eye(2)])).ok


def test_validate_povm_bad_sum():
    report = validate_povm(Povm([np.diag([0.5, 0.5]), np.diag([0.5, 0.6])]))
    assert not report.ok
    assert any("sum" in v for v in report.violations)


def test_validate_povm_trine_orbit():
    # the rotated projectors at cos(a)^2 = 1/3 resolve the identity
    assert validate_povm(trine_orbit_povm()).ok


def test_validate_povm_accepts_zero_operator():
    # a zero outcome is a legal POVM element that never fires
    report = validate_povm(Povm([np.eye(2), np.zeros((2, 2))]))
    assert report.ok and report.violations == []


def test_validate_ensemble_lifted_trines():
    assert validate_ensemble(lifted_trines(0.05)).ok


def test_validate_ensemble_bad_priors():
    s = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([0.5, 0.6]))
    report = validate_ensemble(s)
    assert not report.ok
    assert any("priors" in v for v in report.violations)


def test_validate_ensemble_bad_trace():
    s = Ensemble([np.diag([0.9, 0.0])], np.array([1.0]))
    report = validate_ensemble(s)
    assert not report.ok
    assert any("trace" in v for v in report.violations)


@pytest.mark.parametrize("low, ok", [(-5e-10, True), (-5e-9, False)])
def test_positivity_checks_agree(low, ok):
    # is_psd, both validators and the PGM's square root share one sign tolerance
    state = np.diag([1.0 - low, low])
    assert is_psd(state) is ok
    assert validate_ensemble(Ensemble([state], [1.0])).ok is ok
    assert validate_povm(Povm([state, np.eye(2) - state])).ok is ok
    if ok:
        assert validate_povm(pretty_good_measurement(Ensemble([state], [1.0]))).ok
    else:
        with pytest.raises(PositivityError):
            pretty_good_measurement(Ensemble([state], [1.0]))


def test_convex_combine_lambda_one_keeps_first():
    p = trine_orbit_povm()
    q = Povm([np.eye(3)])
    out = convex_combine(p, q, 1.0)
    assert len(out) == len(p)
    for a, b in zip(out.operators, p.operators):
        assert np.allclose(a, b)


def test_convex_combine_halves_identity():
    out = convex_combine(Povm([np.eye(2)]), Povm([np.eye(2)]), 0.5)
    assert len(out) == 2
    assert all(np.allclose(op, np.eye(2) / 2) for op in out.operators)


def test_convex_combine_two_trine_orbits():
    # weights solving lam*cos(a)^2 + (1-lam)*cos(c)^2 = 1/3 give a 6-operator POVM
    x2 = 0.3831
    lam = (1.0 / 3.0 - x2) / (0.0 - x2)
    p = Povm(orbit_projectors(math.pi / 2, math.pi / 2))
    q = Povm(orbit_projectors(math.acos(math.sqrt(x2)), 0.0))
    out = convex_combine(p, q, lam)
    assert len(out) == 6
    assert validate_povm(out).ok
    assert abs(lam * 0.0 + (1 - lam) * x2 - 1.0 / 3.0) < 1e-12


def test_convex_combine_range_error():
    with pytest.raises(ValueError):
        convex_combine(Povm([np.eye(2)]), Povm([np.eye(2)]), 1.5)


def test_split_identity():
    out = split_operator(Povm([np.eye(2)]), 0, 0.3)
    assert len(out) == 2
    assert np.allclose(out.operators[0], 0.3 * np.eye(2))
    assert np.allclose(out.operators[1], 0.7 * np.eye(2))


def test_split_lambda_zero_is_noop():
    p = trine_orbit_povm()
    out = split_operator(p, 1, 0.0)
    assert len(out) == len(p)


def test_split_bad_index():
    with pytest.raises(IndexError):
        split_operator(Povm([np.eye(2)]), 3, 0.5)


def test_split_preserves_information():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = random_ensemble(rng, 3, 3)
        p = random_povm(rng, 3, 4)
        lam = rng.uniform(0.05, 0.95)
        idx = int(rng.integers(0, 4))
        split = split_operator(p, idx, lam)
        assert abs(mutual_information(s, p) - mutual_information(s, split)) <= 1e-12


def test_split_then_merge_exact():
    p = trine_orbit_povm()
    split = split_operator(p, 0, 0.5)
    merged = split.operators[0] + split.operators[1]
    assert np.array_equal(merged, p.operators[0])


def test_normalize_identity():
    n = normalize_povm(Povm([np.eye(2)]))
    assert np.allclose(n.weights, [1.0])
    assert np.allclose(n.normalized_ops[0], np.eye(2))


def test_normalize_projectors():
    n = normalize_povm(Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    assert np.allclose(n.weights, [0.5, 0.5])
    assert np.allclose(n.normalized_ops[0], np.diag([2.0, 0.0]))
    assert np.allclose(n.normalized_ops[1], np.diag([0.0, 2.0]))


def test_normalize_trine_orbit():
    n = normalize_povm(trine_orbit_povm())
    assert np.allclose(n.weights, [1 / 3, 1 / 3, 1 / 3])
    for op in n.normalized_ops:
        assert abs(np.trace(op).real - 3.0) < 1e-12


def test_normalize_gives_zero_operator_weight_zero():
    n = normalize_povm(Povm([np.eye(2), np.zeros((2, 2))]))
    # the zero operator's stand-in is the identity, so every normalized operator has trace d
    assert n.weights.tolist() == [1.0, 0.0]
    assert np.array_equal(n.normalized_ops, [np.eye(2), np.eye(2)])
    assert np.trace(n.normalized_ops, axis1=1, axis2=2).tolist() == [2.0, 2.0]


def test_pgm_orthogonal_states_is_projective():
    s = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([0.5, 0.5]))
    pgm = pretty_good_measurement(s)
    assert len(pgm) == 2
    assert np.allclose(pgm.operators[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(pgm.operators[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_pgm_lifted_trines_validates():
    pgm = pretty_good_measurement(lifted_trines(0.05))
    assert validate_povm(pgm).ok


def test_pgm_planar_trines_appends_completion():
    # alpha = 0: average state has rank 2, so a third-axis completion appears
    pgm = pretty_good_measurement(lifted_trines(0.0))
    assert len(pgm) == 4
    assert validate_povm(pgm).ok
    assert np.allclose(pgm.operators[-1], np.diag([1.0, 0.0, 0.0]), atol=1e-9)


def test_pgm_rank_bounded_by_state_rank():
    rng = np.random.default_rng(9)
    s = random_ensemble(rng, 3, 3, pure=True)
    pgm = pretty_good_measurement(s)
    for op in pgm.operators[:3]:
        eigenvalues = np.linalg.eigvalsh(op)
        assert np.sum(eigenvalues > 1e-9) <= 1


def test_random_povm_and_combination_validate():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = random_povm(rng, 3, 3)
        q = random_povm(rng, 3, 4)
        assert validate_povm(p).ok
        assert validate_povm(q).ok
        out = convex_combine(p, q, rng.uniform(0.1, 0.9))
        assert validate_povm(out).ok


def test_normalize_invariants_random():
    rng = np.random.default_rng(22)
    for _ in range(10):
        p = random_povm(rng, 2, 4)
        n = normalize_povm(p)
        assert abs(n.weights.sum() - 1.0) <= 1e-12
        mix = sum(w * op for w, op in zip(n.weights, n.normalized_ops))
        assert np.max(np.abs(mix - np.eye(2))) <= 1e-9


def test_convex_combine_dimension_mismatch():
    from povm_forge import StructuralError

    with pytest.raises(StructuralError):
        convex_combine(Povm([np.eye(2)]), Povm([np.eye(3)]), 0.5)


def test_split_rejects_bad_weight():
    with pytest.raises(ValueError):
        split_operator(Povm([np.eye(2)]), 0, 1.2)


def test_operator_containers_stack_alike():
    ops = [np.diag([1.0, 0.0]), np.array([[0.0, 0.5j], [-0.5j, 1.0]])]
    stack = Povm(np.array(ops)).operators
    assert stack.shape == (2, 2, 2) and stack.dtype == complex
    for given in (list, tuple, lambda ops: (op for op in ops)):
        assert np.array_equal(Povm(given(ops)).operators, stack)
        assert np.array_equal(Ensemble(given(ops), [0.5, 0.5]).states, stack)
    normalized = NormalizedPovm(weights=np.array([0.5, 0.5]), normalized_ops=ops)
    assert np.array_equal(normalized.normalized_ops, stack)


def test_mixed_dimensions_raise_structural_error():
    with pytest.raises(StructuralError):
        Povm([np.eye(2), np.eye(3)])
    with pytest.raises(StructuralError):
        Ensemble([np.eye(2) / 2, np.eye(3) / 3], [0.5, 0.5])
    with pytest.raises(StructuralError):
        Povm([])


def test_non_hermitian_member_raises_hermiticity_error():
    with pytest.raises(HermiticityError):
        Povm([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(HermiticityError):
        Povm([np.ones((2, 3))])
    with pytest.raises(HermiticityError):
        Povm([np.full((2, 2), np.nan)])


def test_ensemble_rejects_a_prior_count_that_differs_from_the_state_count():
    with pytest.raises(StructuralError, match=r"^2 states but 1 priors$"):
        Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [1.0])


def test_povm_rejects_operators_that_are_not_a_stack_of_matrices():
    # one 2 x 2 matrix is a stack of two rows, not of two operators
    with pytest.raises(HermiticityError, match=r"^POVM operators must be square matrices, got shape \(2,\)$"):
        Povm(np.eye(2))


def test_failed_validation_report_is_false_and_normalized_povm_has_a_length():
    assert not ValidationReport(False, ["broken"])
    assert ValidationReport(True)
    assert len(normalize_povm(Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))]))) == 3
