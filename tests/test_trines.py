import math
import os
import warnings

import numpy as np
import pytest

from povm_forge import (
    Povm,
    complex_orbit_bound,
    convex_combine,
    double_trines,
    double_trines_closed_form,
    generate_group,
    hessian_at,
    is_symmetric_ensemble,
    joint_distribution,
    lifted_trines,
    mutual_information,
    optimize_single_orbit,
    optimize_two_orbits,
    orbit_info,
    orbit_information,
    orbit_projectors,
    pretty_good_measurement,
    psi,
    real_orbit_bound,
    scan_surface,
    single_orbit_rank_argument,
    trine_group,
    trine_rotation,
    validate_povm,
)
from povm_forge import trines
from povm_forge.cli import load_problem
from povm_forge.trines import _b_slopes, _max_over_b, _orbit_info_values

NU = math.acos(math.sqrt(1.0 / 3.0))
B_PERIOD = 2.0 * math.pi / 3.0


def test_psi_poles_and_plane():
    assert np.allclose(psi(0.0, 2.3), [1, 0, 0])
    assert np.allclose(psi(math.pi / 2, math.pi / 2), [0, 0, 1], atol=1e-15)
    assert np.allclose(psi(NU, 0.0), [1 / math.sqrt(3), math.sqrt(2 / 3), 0])


def test_psi_unit_norm():
    rng = np.random.default_rng(41)
    for _ in range(20):
        v = psi(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


def test_rotation_has_order_three():
    r = trine_rotation()
    assert np.max(np.abs(np.linalg.matrix_power(r, 3) - np.eye(3))) <= 1e-12
    assert abs(np.trace(r)) <= 1e-15


def test_rotation_cycles_the_trine_states():
    r = trine_rotation()
    for alpha in (0.0, 0.05, 0.5):
        # compare projectors rather than vectors to ignore global phases
        states = lifted_trines(alpha).states
        assert np.max(np.abs(r @ states[0] @ r.T - states[2])) <= 1e-12
        assert np.max(np.abs(r @ states[2] @ r.T - states[1])) <= 1e-12
        assert np.max(np.abs(r @ states[1] @ r.T - states[0])) <= 1e-12


def test_trine_group_is_closed_once_and_read_only():
    rep = trine_group()
    assert trine_group() is rep
    for array in (rep.elements, rep.generators, rep.commutant_basis):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 0.0


def test_lifted_trines_alpha_zero_planar():
    states = lifted_trines(0.0).states
    for s in states:
        assert abs(s[0, 0]) <= 1e-15


def test_lifted_trines_alpha_one_degenerate():
    states = lifted_trines(1.0).states
    for s in states:
        assert np.allclose(s, np.diag([1.0, 0.0, 0.0]))


def test_lifted_trines_symmetry():
    assert is_symmetric_ensemble(lifted_trines(0.05), trine_group())


def test_lifted_trines_rejects_bad_alpha():
    with pytest.raises(ValueError):
        lifted_trines(1.5)


def test_orbit_info_against_generic_route():
    # fast closed-path evaluation must agree with the generic machinery
    rng = np.random.default_rng(42)
    for alpha in (0.05, 0.5):
        s = lifted_trines(alpha)
        for _ in range(10):
            a = rng.uniform(0, math.pi)
            b = rng.uniform(0, 2 * math.pi)
            generic = orbit_information(s, orbit_projectors(a, b))
            assert abs(orbit_info(alpha, a, b) - generic) <= 1e-12


def test_orbit_info_reference_values():
    assert abs(orbit_info(0.05, math.pi / 2, math.pi / 2) - 0.15996) <= 5e-5
    assert abs(orbit_info(0.05, math.acos(math.sqrt(0.3831)), 0.0) - 0.9499) <= 5e-4
    assert abs(orbit_info(0.5, NU, 0.0) - double_trines_closed_form()) <= 1e-12


def test_orbit_info_sign_choices():
    # -- equals ++ (global phase); +- equals ++ with b shifted by pi
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = rng.uniform(0.1, math.pi / 2)
        b = rng.uniform(0, 2 * math.pi)
        same = orbit_info(0.05, a, b)
        assert abs(orbit_info(0.05, a + math.pi, b) - same) <= 1e-12
        assert abs(orbit_info(0.05, -a, b) - orbit_info(0.05, a, b + math.pi)) <= 1e-12


def test_orbit_completeness_only_on_plane():
    ops = orbit_projectors(NU, 0.4)
    assert validate_povm(Povm(ops)).ok
    off = orbit_projectors(math.acos(math.sqrt(1 / 3 + 1e-3)), 0.4)
    assert not validate_povm(Povm(off)).ok


def test_scan_surface_periodic_and_pointwise():
    scan = scan_surface(0.05, nx=9, nb=13)
    assert scan.info.shape == (9, 13)
    assert np.max(np.abs(scan.info[:, 0] - scan.info[:, -1])) <= 1e-12
    for i, x in enumerate(scan.x):
        for j, b in enumerate(scan.b):
            assert abs(scan.info[i, j] - orbit_info(0.05, math.acos(math.sqrt(x)), b)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_scan_surface_blocks_equal_rows(alpha):
    # 37 rows is not a multiple of the block size; the first ceil(nb / 2)
    # azimuths are evaluated and the rest is their mirror image
    for nb in (40, 41):
        scan = scan_surface(alpha, nx=37, nb=nb)
        half = (nb + 1) // 2
        rows = np.array([_orbit_info_values(alpha, a, scan.b[:half]) for a in np.arccos(np.sqrt(scan.x))])
        assert np.array_equal(scan.info[:, :half], rows)
        assert np.array_equal(scan.info[:, half:], rows[:, nb - half - 1 :: -1])


@pytest.mark.parametrize("nb", [2, 3, 40, 41])
def test_scan_surface_reflection_is_exact(nb):
    scan = scan_surface(0.05, nx=23, nb=nb)
    assert np.array_equal(scan.info[:, ::-1], scan.info)
    assert np.array_equal(scan.dinfo_db[:, ::-1], -scan.dinfo_db)
    # the uniform-step central difference of the mirrored rows
    step = B_PERIOD / (nb - 1)
    if nb > 2:
        assert np.array_equal(scan.dinfo_db[:, 1:-1], (scan.info[:, 2:] - scan.info[:, :-2]) / (2.0 * step))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("nb", [200, 8, 5])
def test_scan_surface_rows_are_their_mirror_in_value_and_sign_bit(nb, alpha):
    scan = scan_surface(alpha, nx=11, nb=nb)
    # the x = 1 row has p = 0, so its slopes are zeros: +0.0 on the left, -0.0 on the right
    assert scan.x[-1] == 1.0 and np.all(scan.dinfo_db[-1] == 0.0)
    pairs = nb // 2
    for rows, mirror in ((scan.info, scan.info[:, ::-1]), (scan.dinfo_db, -scan.dinfo_db[:, ::-1])):
        assert np.array_equal(rows, mirror)
        # an odd row's centre is its own mirror and holds a +0.0 slope
        assert np.array_equal(np.signbit(rows[:, :pairs]), np.signbit(mirror[:, :pairs]))


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_scan_surface_slope_vanishes_at_both_ends(alpha):
    # I(x, b) = I(x, -b) = I(x, 2 pi / 3 - b), so dI/db = 0 at b = 0 and b = 2 pi / 3
    scan = scan_surface(alpha, nx=11, nb=200)
    assert np.all(scan.dinfo_db[:, 0] == 0.0) and np.all(scan.dinfo_db[:, -1] == 0.0)


def test_scan_surface_double_trines_plane_slice_peaks_at_zero():
    # on the plane of complete orbits the azimuth optimum sits at b = 0
    scan = scan_surface(0.5, nx=7, nb=241)
    plane = np.array([orbit_info(0.5, NU, b) for b in scan.b])
    j = int(np.argmax(plane))
    db = scan.b[1] - scan.b[0]
    assert min(scan.b[j], B_PERIOD - scan.b[j]) <= db


def test_double_trines_two_point_chords_stay_below_plane_maximum():
    # the single complete orbit beats every mixture of two straddling orbits,
    # evaluated on a grid of (x1, x2) pairs
    plane_max = optimize_single_orbit(0.5)[1]
    xs1 = np.linspace(0.0, 1.0 / 3.0, 9)
    xs2 = np.linspace(1.0 / 3.0, 1.0, 9)
    g1 = _max_over_b(0.5, xs1)[1]
    g2 = _max_over_b(0.5, xs2)[1]
    for x1, v1 in zip(xs1, g1):
        for x2, v2 in zip(xs2, g2):
            # the weight that puts the mixture's x at 1/3; both ends meet there
            lam = 1.0 if x1 == x2 else (1.0 / 3.0 - x2) / (x1 - x2)
            assert lam * v1 + (1 - lam) * v2 <= plane_max + 1e-9


def test_optimize_single_orbit_slightly_lifted():
    b_star, info = optimize_single_orbit(0.05)
    assert abs(info - 0.8456) <= 5e-4
    assert abs(b_star - 0.1377) <= 2e-3


def test_optimize_single_orbit_double_trines():
    b_star, info = optimize_single_orbit(0.5)
    assert abs(b_star) <= 1e-6
    assert abs(info - double_trines_closed_form()) <= 1e-9


def test_optimize_single_orbit_degenerate():
    b_star, info = optimize_single_orbit(1.0)
    assert abs(info) <= 1e-12


def test_optimize_two_orbits_slightly_lifted():
    two = optimize_two_orbits(0.05)
    assert abs(two.info_bits - 0.8472) <= 5e-4
    assert two.first.x <= 1e-4
    assert abs(two.second.x - 0.3831) <= 2e-3
    assert abs(two.second.b) <= 1e-4
    # the first point's azimuth is one of the two equivalent planar optima
    assert abs(orbit_info(0.05, math.pi / 2, math.pi / 2) - orbit_info(0.05, two.first.a, two.first.b)) <= 1e-6
    _, single = optimize_single_orbit(0.05)
    assert two.info_bits > single


def test_optimize_two_orbits_collapses_for_double_trines():
    two = optimize_two_orbits(0.5)
    _, single = optimize_single_orbit(0.5)
    on_plane = abs(two.first.x - 1 / 3) <= 1e-4 and abs(two.second.x - 1 / 3) <= 1e-4
    assert on_plane or two.info_bits <= single + 1e-9


@pytest.mark.parametrize("alpha", [0.1, 0.17, 0.25, 0.5, 1.0])
def test_optimize_two_orbits_returns_single_orbit_when_it_wins(alpha):
    # lam = 1 and both orbits equal to the single orbit, not a lam = 0 chord to it;
    # at alpha = 1 every chord ties the single orbit's 0 bit up to rounding
    two = optimize_two_orbits(alpha)
    b_single, single = optimize_single_orbit(alpha)
    assert two.lam == 1.0 and two.first == two.second
    assert abs(two.first.x - 1 / 3) <= 1e-12 and two.first.b == b_single
    assert two.info_bits == single


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_optimize_two_orbits_carries_the_single_orbit(alpha):
    two = optimize_two_orbits(alpha)
    assert (two.single_b, two.single_info) == optimize_single_orbit(alpha)


def test_optimize_two_orbits_never_below_single_orbit():
    two = optimize_two_orbits(0.5)
    assert two.info_bits >= optimize_single_orbit(0.5)[1]


ENVELOPE_ALPHAS = (0.02, 0.05, 0.17, 0.5)


@pytest.mark.parametrize("alpha", ENVELOPE_ALPHAS)
def test_optimize_two_orbits_reaches_brute_force_envelope(alpha):
    # the concave envelope of g at 1/3 over all straddling pairs of a fine grid
    xs = np.linspace(0.0, 1.0, 1201)
    _, g = _max_over_b(alpha, xs)
    below, above = xs <= 1.0 / 3.0, xs >= 1.0 / 3.0
    x1, x2 = xs[below][:, None], xs[above][None, :]
    gap = x1 - x2
    lam = np.divide(1.0 / 3.0 - x2, gap, out=np.ones_like(gap), where=gap < 0.0)
    envelope = np.max(lam * g[below][:, None] + (1.0 - lam) * g[above][None, :])
    assert optimize_two_orbits(alpha).info_bits >= envelope - 1e-9


@pytest.mark.parametrize("alpha", ENVELOPE_ALPHAS)
def test_optimize_two_orbits_is_a_complete_mixture(alpha):
    two = optimize_two_orbits(alpha)
    assert 0.0 <= two.lam <= 1.0
    assert abs(two.lam * two.first.x + (1 - two.lam) * two.second.x - 1.0 / 3.0) <= 1e-9
    mixture = convex_combine(
        Povm(orbit_projectors(two.first.a, two.first.b)),
        Povm(orbit_projectors(two.second.a, two.second.b)),
        two.lam,
    )
    assert abs(mutual_information(lifted_trines(alpha), mixture) - two.info_bits) <= 1e-7


def test_max_over_b_matches_single_orbit_and_folds():
    xs = np.array([0.0, 1.0 / 3.0, 0.7])
    b_star, g = _max_over_b(0.05, xs)
    assert g.shape == b_star.shape == (3,)
    assert np.all((0.0 <= b_star) & (b_star <= math.pi / 3))
    # near the maximum the values are flat to rounding, so b_star only agrees to ~1e-8
    b_single, single = optimize_single_orbit(0.05)
    assert abs(b_star[1] - b_single) <= 1e-6 and abs(g[1] - single) <= 1e-12
    for x, b, value in zip(xs, b_star, g):
        a = math.acos(math.sqrt(x))
        assert abs(orbit_info(0.05, a, b) - value) <= 1e-12
        assert value >= max(orbit_info(0.05, a, bb) for bb in np.linspace(0.0, B_PERIOD, 400)) - 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_max_over_b_batch_equals_separate_calls(alpha):
    # one call on both sides of the envelope, as each zoom step makes
    xs1 = np.linspace(0.0, 1.0 / 3.0, 33)
    xs2 = np.linspace(1.0 / 3.0, 1.0, 65)
    b_star, g = _max_over_b(alpha, np.concatenate([xs1, xs2]))
    b1, g1 = _max_over_b(alpha, xs1)
    b2, g2 = _max_over_b(alpha, xs2)
    assert np.array_equal(b_star, np.concatenate([b1, b2]))
    assert np.array_equal(g, np.concatenate([g1, g2]))
    # a scalar x gives 0-d results; numpy math on a lone value may round unlike a batch
    b_one, g_one = _max_over_b(alpha, xs2[3])
    assert np.shape(b_one) == np.shape(g_one) == ()
    assert abs(g_one - g2[3]) <= 1e-12


@pytest.mark.parametrize(
    "alpha, x, b",
    [(0.05, 0.2, 0.3), (0.5, 1.0 / 3.0, 0.1), (0.17, 0.9, 1.9), (0.02, 0.0, 0.7), (0.5, 0.6, -0.4)],
)
def test_b_slopes_match_central_differences(alpha, x, b):
    a = math.acos(math.sqrt(x))
    slope, curvature = _b_slopes(alpha, a, b)
    h = 1e-5
    assert abs(slope - (orbit_info(alpha, a, b + h) - orbit_info(alpha, a, b - h)) / (2 * h)) <= 1e-8
    h = 1e-4
    second = (orbit_info(alpha, a, b + h) - 2 * orbit_info(alpha, a, b) + orbit_info(alpha, a, b - h)) / h**2
    assert abs(curvature - second) <= 1e-6


def test_b_slopes_where_an_overlap_vanishes():
    # alpha = 0, x = 0, b = pi/6: r_1 = cos(-pi/2) vanishes, up to rounding
    a, b = math.pi / 2, math.pi / 6
    slope, curvature = _b_slopes(0.0, a, b)
    h = 1e-5
    assert abs(slope - (orbit_info(0.0, a, b + h) - orbit_info(0.0, a, b - h)) / (2 * h)) <= 1e-8
    # there q_1 log q_1 ~ t^2 log t^2, whose curvature diverges to -inf like 4 log2 h:
    # each central difference lies above the value at |r_1| ~ 1e-16
    for h in (1e-3, 1e-4, 1e-5):
        second = (orbit_info(0.0, a, b + h) - 2 * orbit_info(0.0, a, b) + orbit_info(0.0, a, b - h)) / h**2
        assert curvature < second < 0.0
    # at alpha = 0, x = 1 every r_k is exactly 0: r log2|r| is taken as 0, so the slope is 0
    slope, _ = _b_slopes(0.0, 0.0, np.linspace(0.0, B_PERIOD, 5))
    assert np.array_equal(slope, np.zeros(5))
    # the seed b = pi/3 of alpha = 1/4, x = 3/4 makes r_2 exactly 0 in floating point:
    # the slope there is 0 by symmetry, the curvature -inf, and the search still
    # finds the maximum
    seed = np.linspace(0.0, B_PERIOD, trines._B_SEEDS, endpoint=False)[trines._B_SEEDS // 2]
    slope, curvature = _b_slopes(0.25, math.acos(math.sqrt(0.75)), seed)
    assert slope == 0.0 and curvature == -np.inf
    grid = _orbit_info_values(0.25, math.acos(math.sqrt(0.75)), np.linspace(0.0, B_PERIOD, 4001))
    assert abs(_max_over_b(0.25, 0.75)[1] - grid.max()) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.02, 0.05, 0.17, 0.5, 1.0])
def test_max_over_b_reaches_dense_grid_maximum(alpha, monkeypatch):
    steps = []

    def counting(*args):
        steps.append(1)
        return _b_slopes(*args)

    monkeypatch.setattr(trines, "_b_slopes", counting)
    xs = np.append(np.linspace(0.0, 1.0, 41), 1.0 / 3.0)
    b_star, g = _max_over_b(alpha, xs)
    a = np.arccos(np.sqrt(xs))[:, None]
    grid = _orbit_info_values(alpha, a, np.linspace(0.0, B_PERIOD, 4001)).max(axis=1)
    assert np.all(g >= grid - 1e-12)
    # the grid max falls short of the true one only by the grid's resolution
    assert np.all(g - grid <= 1e-6)
    assert np.array_equal(g, _orbit_info_values(alpha, a[:, 0], b_star))
    # every element stops on its own step before the iteration cap (29: bisection alone
    # needs 28 steps to bring the bracket to _B_XTOL); Newton needs far fewer
    cap = math.ceil(math.log2(2.0 * B_PERIOD / trines._B_SEEDS / trines._B_XTOL))
    assert len(steps) < cap
    assert len(steps) <= 8


@pytest.mark.parametrize(
    "alpha, info_bits", [(0.05, 0.8472453808251262), (0.5, 1.3690684229434151), (1.0, 0.0)]
)
def test_optimize_two_orbits_pinned_values(alpha, info_bits):
    assert abs(optimize_two_orbits(alpha).info_bits - info_bits) <= 1e-12


def test_double_trines_projection():
    raw, projected = double_trines()
    assert raw.dim == 4 and projected.dim == 3
    first = projected.states[0]
    expect = np.outer([1, 1, 0], [1, 1, 0]) / 2.0
    assert np.max(np.abs(first - expect)) <= 1e-12
    for a, b in zip(projected.states, lifted_trines(0.5).states):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_double_trines_raw_overlaps():
    raw, _ = double_trines()
    for i in range(3):
        assert abs(np.trace(raw.states[i]).real - 1.0) <= 1e-12
        for j in range(i + 1, 3):
            overlap = np.trace(raw.states[i] @ raw.states[j]).real
            assert abs(overlap - 1.0 / 16.0) <= 1e-12


def _projectors(vectors):
    return np.array([np.outer(v, v) for v in vectors])


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.0])
def test_lifted_trines_match_the_explicit_vectors(alpha):
    # the orbit gives the three written-out trine vectors, in their order
    up, planar, s = math.sqrt(alpha), math.sqrt(1.0 - alpha), math.sqrt(3.0) / 2.0
    vectors = [[up, planar, 0.0], [up, -0.5 * planar, s * planar], [up, -0.5 * planar, -s * planar]]
    assert np.max(np.abs(lifted_trines(alpha).states - _projectors(vectors))) <= 1e-15


def test_orbit_projectors_match_the_rotated_vector():
    r = trine_rotation()
    for a in np.linspace(0.0, math.pi, 7):
        for b in np.linspace(0.0, 2.0 * math.pi, 9):
            v = psi(a, b)
            ops = orbit_projectors(a, b)
            assert isinstance(ops, list) and len(ops) == 3
            assert np.max(np.abs(np.array(ops) - _projectors([v, r @ v, r @ (r @ v)]))) <= 1e-15


def test_double_trines_match_the_explicit_vectors():
    # the raw product vectors, and their coordinates after an orthogonal basis change
    s = math.sqrt(3.0)
    raw_vectors = [
        np.array([1.0, 0.0, 0.0, 0.0]), 0.25 * np.array([1.0, s, s, 3.0]), 0.25 * np.array([1.0, -s, -s, 3.0])
    ]
    basis_change = np.array(
        [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]]
    ) / math.sqrt(2.0)
    raw, projected = double_trines()
    assert np.max(np.abs(raw.states - _projectors(raw_vectors))) <= 1e-15
    assert np.max(np.abs(projected.states - _projectors([(basis_change @ v)[:3] for v in raw_vectors]))) <= 1e-15


def test_shipped_lifted_trines_file_is_the_orbit():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data", "lifted_trines_0.05.json")
    problem = load_problem(path)
    assert np.max(np.abs(problem.ensemble.states - lifted_trines(0.05).states)) <= 1e-15
    assert np.max(np.abs(problem.generators - trine_rotation())) <= 1e-15


def test_double_trines_raw_is_the_reducible_example():
    raw, projected = double_trines()
    r2 = trine_rotation()[1:, 1:]
    flip = np.diag([1.0, -1.0])
    rep = generate_group([np.kron(r2, r2), np.kron(flip, flip)])
    assert rep.order == 6
    assert complex_orbit_bound(rep) == 3 and real_orbit_bound(rep) == 3
    assert is_symmetric_ensemble(raw, rep)

    def gram(ensemble):
        return np.einsum("iab,jba->ij", ensemble.states, ensemble.states).real

    assert np.max(np.abs(gram(raw) - gram(lifted_trines(0.5)))) <= 1e-14
    raw_pgm = pretty_good_measurement(raw)
    # three pretty-good operators and the completion onto the states' orthogonal complement
    assert len(raw_pgm.operators) == 4
    projected_info = mutual_information(projected, pretty_good_measurement(projected))
    assert abs(mutual_information(raw, raw_pgm) - projected_info) <= 1e-12


def test_closed_form_value_and_equalities():
    closed = double_trines_closed_form()
    assert abs(closed - 1.369) <= 1e-3
    assert abs(closed - orbit_info(0.5, NU, 0.0)) <= 1e-9
    _, projected = double_trines()
    pgm = pretty_good_measurement(projected)
    assert abs(closed - mutual_information(projected, pgm)) <= 1e-6


def test_hessian_at_double_trines_optimum():
    h = hessian_at(0.5, 1.0 / 3.0, 0.0)
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    dxx = (81.0 - 27.0 * math.sqrt(2.0) * gamma) / (16.0 * math.log(2.0))
    dbb = (6.0 - (2.0 + math.sqrt(2.0)) * gamma) / (3.0 * math.log(2.0))
    assert abs(h[0, 0] - dxx) <= 1e-12
    assert abs(h[1, 1] - dbb) <= 1e-12
    assert abs(h[0, 1]) <= 1e-12
    assert h[0, 1] == h[1, 0]
    assert np.all(np.linalg.eigvalsh(h) < 0)


def test_b_curvature_at_double_trines_optimum_is_closed_form():
    # the b-b entry of the negative-definite Hessian check, from the closed-form slope
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    dbb = (6.0 - (2.0 + math.sqrt(2.0)) * gamma) / (3.0 * math.log(2.0))
    assert abs(_b_slopes(0.5, NU, 0.0)[1] - dbb) <= 1e-9
    assert abs(hessian_at(0.5, 1.0 / 3.0, 0.0)[1, 1] - dbb) <= 1e-12


HESSIAN_POINTS = [(0.0, 0.2, 0.4), (0.05, 1.0 / 3.0, 0.1377), (0.05, 0.3831, 0.0), (0.3, 0.7, 1.9), (0.5, 0.6, 2.5), (0.9, 0.1, 0.8)]


@pytest.mark.parametrize("alpha, x, b", HESSIAN_POINTS + [(1.0, 0.4, 0.3)])
def test_hessian_bb_is_the_b_slopes_curvature(alpha, x, b):
    # one closed form for d2I/db2: the b-b entry is the Newton search's curvature, bit for bit
    assert hessian_at(alpha, x, b)[1, 1] == _b_slopes(alpha, math.acos(math.sqrt(x)), b)[1]


@pytest.mark.parametrize("alpha, x, b", HESSIAN_POINTS)
def test_hessian_matches_central_differences(alpha, x, b):
    # step 1e-4 leaves a truncation error of step^2 times the fourth derivatives, which grow near x = 0
    step = 1e-4

    def f(xv, bv):
        return orbit_info(alpha, math.acos(math.sqrt(xv)), bv)

    dxx = (f(x + step, b) - 2.0 * f(x, b) + f(x - step, b)) / step**2
    dbb = (f(x, b + step) - 2.0 * f(x, b) + f(x, b - step)) / step**2
    dxb = (f(x + step, b + step) - f(x + step, b - step) - f(x - step, b + step) + f(x - step, b - step)) / (4.0 * step**2)
    h = hessian_at(alpha, x, b)
    np.testing.assert_allclose(h, [[dxx, dxb], [dxb, dbb]], rtol=1e-4, atol=1e-5)
    assert h[0, 1] == h[1, 0]


@pytest.mark.parametrize("x", [0.0, 1.0, -0.1, 1.1])
def test_hessian_rejects_x_at_or_beyond_the_ends(x):
    # the x-derivatives of sqrt(x) and sqrt(1 - x) diverge there
    with pytest.raises(ValueError, match="x must lie in"):
        hessian_at(0.5, x, 0.0)


def test_hessian_vanishing_overlap_is_minus_infinity():
    # b = pi/3 at alpha = 1/4, x = 3/4 makes r_2 exactly 0, as in _b_slopes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hessian_at(0.25, 0.75, math.pi / 3)
        curvature = _b_slopes(0.25, math.acos(math.sqrt(0.75)), math.pi / 3)[1]
    assert h[0, 0] == h[1, 1] == curvature == -math.inf


def test_rank_argument_slightly_lifted():
    report = single_orbit_rank_argument(0.05)
    assert np.max(np.abs(report.vector_first - [0.2375, 0.0, 0.2375])) <= 5e-4
    assert np.max(np.abs(report.vector_second - [0.2724, 0.0199, 0.0199])) <= 5e-4
    assert not report.proportional
    assert report.combined_info > 0.8456


def test_equivalent_planar_optima():
    # the two reflected azimuths at x = 0 carry the same information
    assert (
        abs(orbit_info(0.05, math.pi / 2, math.pi / 6) - orbit_info(0.05, math.pi / 2, math.pi / 2))
        <= 1e-12
    )


def generic_orbit_info(alpha, a, b):
    return orbit_information(lifted_trines(alpha), orbit_projectors(a, b))


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.0])
def test_orbit_info_values_matches_generic_route(alpha):
    rng = np.random.default_rng([44, int(100 * alpha)])
    for a, b in zip(rng.uniform(0, math.pi, 10), rng.uniform(0, 2 * math.pi, 10)):
        assert abs(_orbit_info_values(alpha, a, b) - generic_orbit_info(alpha, a, b)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_orbit_info_values_broadcasts(alpha):
    rng = np.random.default_rng(45)
    a = rng.uniform(0, math.pi, 4)
    b = rng.uniform(0, 2 * math.pi, 5)
    for args in ((a[:, None], b), (a[0], b), (a, b[0]), (np.asarray(a[0]), np.asarray(b[0]))):
        values = _orbit_info_values(alpha, *args)
        assert np.shape(values) == np.broadcast(*args).shape
        for index in np.ndindex(np.shape(values)):
            ai, bi = (np.broadcast_to(x, np.shape(values))[index] for x in args)
            assert abs(values[index] - generic_orbit_info(alpha, ai, bi)) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_orbit_info_values_with_a_vanishing_overlap(k):
    # at alpha = 0 the seed psi(pi/2, pi/2 + 2 pi k / 3) is orthogonal to one trine state
    b = math.pi / 2 + k * B_PERIOD
    v = psi(math.pi / 2, b)
    assert abs(v @ lifted_trines(0.0).states[k] @ v) <= 1e-15
    assert abs(_orbit_info_values(0.0, math.pi / 2, b) - generic_orbit_info(0.0, math.pi / 2, b)) <= 1e-12


def test_orbit_info_values_alpha_one_closed_form():
    # every state is the lift axis: q_k = x, so I = log2(3) (1 - 3x)
    xs = np.linspace(0.0, 1.0, 11)
    values = _orbit_info_values(1.0, np.arccos(np.sqrt(xs))[:, None], np.linspace(0.0, 2 * math.pi, 7))
    assert np.max(np.abs(values - math.log2(3.0) * (1.0 - 3.0 * xs)[:, None])) <= 1e-12


def test_orbit_joint_matrix_is_circulant():
    rng = np.random.default_rng(46)
    for alpha in (0.05, 0.5):
        s = lifted_trines(alpha)
        for a, b in zip(rng.uniform(0, math.pi, 5), rng.uniform(0, 2 * math.pi, 5)):
            joint = joint_distribution(s, orbit_projectors(a, b))
            for i in range(3):
                for j in range(3):
                    assert abs(joint[i, j] - joint[(i + j) % 3, 0]) <= 1e-15


@pytest.mark.parametrize("alpha", [-0.1, 1.5])
def test_orbit_functions_reject_bad_alpha(alpha):
    with pytest.raises(ValueError, match="lift parameter"):
        orbit_info(alpha, NU, 0.0)
    with pytest.raises(ValueError, match="lift parameter"):
        scan_surface(alpha, nx=3, nb=3)
    with pytest.raises(ValueError, match="lift parameter"):
        optimize_single_orbit(alpha)
    with pytest.raises(ValueError, match=rf"^lift parameter must lie in \[0, 1\], got {alpha}$"):
        hessian_at(alpha, 1.0 / 3.0, 0.0)


def test_scan_surface_rejects_a_one_point_axis():
    with pytest.raises(ValueError, match="^grid needs at least 2 points per axis$"):
        scan_surface(0.05, nx=1)
