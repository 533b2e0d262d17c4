"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math

import numpy as np
import pytest

from povm_forge import (
    Ensemble,
    Povm,
    complex_orbit_bound,
    convex_combine,
    decompose_identity,
    double_trines,
    double_trines_closed_form,
    generate_group,
    hessian_at,
    mutual_information,
    normalize_povm,
    numeric_rank,
    optimize_single_orbit,
    optimize_two_orbits,
    orbit_info,
    orbit_sum,
    pretty_good_measurement,
    prune_povm,
    psi,
    real_orbit_bound,
    single_orbit_rank_argument,
    split_operator,
    symmetrize,
    trine_group,
)
from helpers import planar_rotation, random_ensemble, random_povm, random_state
from test_caratheodory import enumerate_basic_solutions

ALPHA = 0.05


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def two_orbit_solution():
    return optimize_two_orbits(ALPHA)


@pytest.fixture(scope="module")
def single_orbit_solution():
    return optimize_single_orbit(ALPHA)


def test_criterion_1_single_orbit_optimum(single_orbit_solution):
    b_star, info = single_orbit_solution
    ok = abs(info - 0.8456) <= 5e-4 and abs(b_star - 0.1377) <= 2e-3
    report("criterion 1", ok, f"info={info:.6f} b*={b_star:.6f}")


def test_criterion_2_orbit_informations():
    low = orbit_info(ALPHA, math.pi / 2, math.pi / 2)
    high = orbit_info(ALPHA, math.acos(math.sqrt(0.3831)), 0.0)
    ok = abs(low - 0.15996) <= 5e-5 and abs(high - 0.9499) <= 5e-4
    report("criterion 2", ok, f"planar={low:.6f} tilted={high:.6f}")


def test_criterion_3_two_orbit_combination(two_orbit_solution, single_orbit_solution):
    lam = two_orbit_solution.lam
    mix_constraint = lam * two_orbit_solution.first.x + (1 - lam) * two_orbit_solution.second.x
    ok = (
        abs(two_orbit_solution.info_bits - 0.8472) <= 5e-4
        and two_orbit_solution.info_bits > single_orbit_solution[1]
        and abs(mix_constraint - 1.0 / 3.0) <= 1e-10
    )
    report(
        "criterion 3",
        ok,
        f"combined={two_orbit_solution.info_bits:.6f} lam={lam:.6f} single={single_orbit_solution[1]:.6f}",
    )


def test_criterion_4_double_trines_optimum():
    closed = double_trines_closed_form()
    b_star, info = optimize_single_orbit(0.5)
    _, projected = double_trines()
    pgm_info = mutual_information(projected, pretty_good_measurement(projected))
    ok = (
        abs(b_star) <= 1e-6
        and abs(info - closed) <= 1e-9
        and abs(closed - 1.369) <= 1e-3
        and abs(pgm_info - closed) <= 1e-6
    )
    report("criterion 4", ok, f"b*={b_star:.2e} info={info:.9f} closed={closed:.9f} pgm={pgm_info:.9f}")


def test_criterion_5_double_trines_hessian():
    h = hessian_at(0.5, 1.0 / 3.0, 0.0)
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    dxx = (81.0 - 27.0 * math.sqrt(2.0) * gamma) / (16.0 * math.log(2.0))
    dbb = (6.0 - (2.0 + math.sqrt(2.0)) * gamma) / (3.0 * math.log(2.0))
    eigenvalues = np.linalg.eigvalsh(h)
    ok = abs(h[0, 0] - dxx) <= 1e-2 and abs(h[1, 1] - dbb) <= 1e-2 and np.all(eigenvalues < 0)
    report("criterion 5", ok, f"dxx={h[0, 0]:.4f}/{dxx:.4f} dbb={h[1, 1]:.4f}/{dbb:.4f}")


def test_criterion_6_orbit_bounds():
    rep = trine_group()
    ok = real_orbit_bound(rep) == 2 and complex_orbit_bound(rep) == 3
    for d in (2, 3, 4):
        trivial = generate_group([], dim=d)
        ok = ok and complex_orbit_bound(trivial) == d * d
        ok = ok and real_orbit_bound(trivial) == d * (d + 1) // 2
    report("criterion 6", ok, "C3: real 2 complex 3; trivial: d^2 and d(d+1)/2 for d in {2,3,4}")


def _symmetric_ensemble(rng, rep):
    rho = random_state(rng, rep.dim, pure=False)
    states = [u @ rho @ u.conj().T for u in rep.elements]
    return Ensemble(states, np.full(rep.order, 1.0 / rep.order))


def test_criterion_7_information_invariance_suite():
    rng = np.random.default_rng(2024)
    reps = {2: generate_group([planar_rotation(2 * math.pi / 3)]), 3: trine_group()}
    worst = {"mix": 0.0, "split": 0.0, "symm": 0.0, "convex": 0.0}
    for _ in range(50):
        for d in (2, 3):
            s = random_ensemble(rng, d, int(rng.integers(2, 4)))
            p = random_povm(rng, d, int(rng.integers(2, 5)))
            q = random_povm(rng, d, int(rng.integers(2, 5)))
            ip, iq = mutual_information(s, p), mutual_information(s, q)
            lam = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            mixed = convex_combine(p, q, lam)
            worst["mix"] = max(
                worst["mix"], abs(mutual_information(s, mixed) - lam * ip - (1 - lam) * iq)
            )
            split = split_operator(p, int(rng.integers(0, len(p))), rng.uniform(0, 1))
            worst["split"] = max(worst["split"], abs(mutual_information(s, split) - ip))

            rep = reps[d]
            s_sym = _symmetric_ensemble(rng, rep)
            worst["symm"] = max(
                worst["symm"],
                abs(mutual_information(s_sym, p) - mutual_information(s_sym, symmetrize(p, rep))),
            )

            q_same = random_povm(rng, d, len(p))
            lam2 = rng.uniform(0, 1)
            columnwise = Povm(
                [lam2 * a + (1 - lam2) * b for a, b in zip(p.operators, q_same.operators)]
            )
            excess = mutual_information(s, columnwise) - (
                lam2 * ip + (1 - lam2) * mutual_information(s, q_same)
            )
            worst["convex"] = max(worst["convex"], excess)
    ok = (
        worst["mix"] <= 1e-10
        and worst["split"] <= 1e-12
        and worst["symm"] <= 1e-9
        and worst["convex"] <= 1e-10
    )
    report(
        "criterion 7",
        ok,
        "100 instances per property, d in {2,3}: "
        f"mix={worst['mix']:.2e} split={worst['split']:.2e} "
        f"symm={worst['symm']:.2e} convex={worst['convex']:.2e}",
    )


def test_criterion_8_caratheodory_suite():
    rng = np.random.default_rng(4096)
    # decomposition leaves match the exhaustive subset oracle
    oracle_checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        normalized = normalize_povm(random_povm(rng, 2, n, rank_one=bool(rng.integers(0, 2))))
        decomposition = decompose_identity(normalized)
        rank = numeric_rank(decomposition.design)
        references = enumerate_basic_solutions(decomposition.design)
        recombined = sum(
            w * nu for w, nu in zip(decomposition.weights, decomposition.solutions)
        )
        assert np.max(np.abs(recombined - normalized.weights)) <= 1e-10
        for sup, nu in zip(decomposition.supports(), decomposition.solutions):
            assert len(sup) <= rank
            mix = sum(nu[j] * normalized.normalized_ops[j] for j in sup)
            assert np.max(np.abs(mix - np.eye(2))) <= 1e-8
            assert any(np.max(np.abs(nu - ref)) <= 1e-7 for ref in references)
            oracle_checked += 1
    # pruning: no more than d^2 operators, information never decreases
    pruned_checked = 0
    for _ in range(100):
        s = random_ensemble(rng, 2, int(rng.integers(2, 4)))
        full_rank = bool(rng.integers(0, 2))
        n = int(rng.integers(4, 6)) if full_rank else int(rng.integers(5, 9))
        p = random_povm(rng, 2, n, rank_one=not full_rank)
        pruned = prune_povm(s, p)
        assert len(pruned) <= 4
        assert mutual_information(s, pruned) >= mutual_information(s, p) - 1e-9
        pruned_checked += 1
    report(
        "criterion 8",
        True,
        f"{oracle_checked} leaves matched the subset oracle; {pruned_checked} prunes within bound",
    )


def test_criterion_9_rank_argument():
    report_data = single_orbit_rank_argument(ALPHA)
    ok = (
        np.max(np.abs(report_data.vector_first - [0.2375, 0.0, 0.2375])) <= 5e-4
        and np.max(np.abs(report_data.vector_second - [0.2724, 0.0199, 0.0199])) <= 5e-4
        and not report_data.proportional
    )
    report(
        "criterion 9",
        ok,
        f"first={np.round(report_data.vector_first, 4).tolist()} "
        f"second={np.round(report_data.vector_second, 4).tolist()} "
        f"proportional={report_data.proportional}",
    )


def test_criterion_10_orbit_sum_closed_form():
    rep = trine_group()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0, math.pi)
        b = rng.uniform(0, 2 * math.pi)
        v = psi(a, b)
        d = orbit_sum(3.0 * np.outer(v, v), rep)
        x = math.cos(a) ** 2
        expected = np.diag([3 * x, 1.5 - 1.5 * x, 1.5 - 1.5 * x])
        worst = max(worst, float(np.max(np.abs(d - expected))))
    ok = worst <= 1e-10
    report("criterion 10", ok, f"100 random points, worst deviation {worst:.2e}")
