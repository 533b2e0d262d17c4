"""Lifted trines and double trines: scans, optima, and closed forms.

The lifted trines are three unit vectors 120 degrees apart in a plane, tilted
out of it by a mixing amplitude sqrt(alpha) along the first axis.  Candidate
measurements are orbits of a rank-one operator |psi(a, b)><psi(a, b)| under
the 120-degree rotation; such an orbit is a complete POVM exactly when
cos(a)^2 = 1/3.  Mixtures of two orbits on opposite sides of that plane are
searched with derivative-free optimization.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .infotheory import equality_condition, joint_distribution, plogp
from .quantum import Ensemble
from .symmetry import FiniteRep, generate_group

B_PERIOD = 2.0 * math.pi / 3.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OrbitParams:
    """Orbit seed |psi(a, b)>: polar angle a, azimuth b within the trine plane."""

    a: float
    b: float

    @property
    def x(self) -> float:
        return math.cos(self.a) ** 2


@dataclass(frozen=True)
class TwoOrbitSolution:
    """Best found mixture of two orbits straddling the plane x = 1/3."""

    first: OrbitParams
    second: OrbitParams
    lam: float
    info_bits: float


def trine_rotation() -> np.ndarray:
    """Real orthogonal rotation by 120 degrees fixing the first axis; cubes to I."""
    s = math.sqrt(3.0)
    return 0.5 * np.array([[2.0, 0.0, 0.0], [0.0, -1.0, s], [0.0, -s, -1.0]])


def trine_group() -> FiniteRep:
    """The order-3 rotation group generated by trine_rotation()."""
    return generate_group([trine_rotation()])


def psi(a: float, b: float) -> np.ndarray:
    """Unit vector (cos a, sin a cos b, sin a sin b)."""
    return np.array([math.cos(a), math.sin(a) * math.cos(b), math.sin(a) * math.sin(b)])


def _trine_vectors(alpha: float) -> np.ndarray:
    """State vectors of the lifted trines as rows of a 3 x 3 real matrix."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"lift parameter must lie in [0, 1], got {alpha}")
    up = math.sqrt(alpha)
    planar = math.sqrt(1.0 - alpha)
    s = math.sqrt(3.0) / 2.0
    return np.array(
        [
            [up, planar, 0.0],
            [up, -0.5 * planar, s * planar],
            [up, -0.5 * planar, -s * planar],
        ]
    )


def lifted_trines(alpha: float) -> Ensemble:
    """Lifted trines ensemble with uniform priors; symmetric under trine_rotation()."""
    vectors = _trine_vectors(alpha)
    states = [np.outer(v, v).astype(complex) for v in vectors]
    return Ensemble(states, np.full(3, 1.0 / 3.0))


def orbit_projectors(a: float, b: float) -> list[np.ndarray]:
    """The three rotated rank-one operators R^j |psi><psi| R^-j, each of trace 1."""
    r = trine_rotation()
    v = psi(a, b)
    ops = []
    for _ in range(3):
        ops.append(np.outer(v, v).astype(complex))
        v = r @ v
    return ops


def _orbit_info_values(alpha: float, a, b) -> np.ndarray:
    """Vectorized formal orbit information over broadcast arrays of (a, b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sin_a = np.sin(a)
    vec = np.stack(
        np.broadcast_arrays(np.cos(a), sin_a * np.cos(b), sin_a * np.sin(b)), axis=-1
    )
    states = _trine_vectors(alpha)
    r = trine_rotation()
    columns = []
    rotated = vec
    for _ in range(3):
        overlap = rotated @ states.T
        columns.append(overlap * overlap / 3.0)
        rotated = rotated @ r.T
    probs = np.stack(columns, axis=-1)  # (..., state i, orbit element j)
    return (
        plogp(probs).sum(axis=(-2, -1))
        + math.log2(3.0)
        - plogp(probs.sum(axis=-2)).sum(axis=-1)
    )


def orbit_info(alpha: float, a: float, b: float) -> float:
    """Formal information (bits) of the lifted-trines ensemble against one orbit.

    The orbit operators carry weight 1 each; they form a complete POVM only at
    cos(a)^2 = 1/3, and the value can be negative away from that plane.
    """
    return float(_orbit_info_values(alpha, a, b))


@dataclass(frozen=True, eq=False)
class SurfaceScan:
    """Grid of orbit informations over x in [0, 1] and b in [0, 2 pi / 3]."""

    alpha: float
    x: np.ndarray
    b: np.ndarray
    info: np.ndarray
    dinfo_db: np.ndarray

    def rows(self):
        """Yield (x, b, info_bits, dinfo_db) in x-major order."""
        for i, xv in enumerate(self.x):
            for j, bv in enumerate(self.b):
                yield float(xv), float(bv), float(self.info[i, j]), float(self.dinfo_db[i, j])


def scan_surface(alpha: float, nx: int = 200, nb: int = 200, max_workers: int | None = None) -> SurfaceScan:
    """Evaluate the orbit information on a uniform (x, b) grid.

    The numerical b-derivative is included so slices of the surface can be
    replotted directly.  Rows may be evaluated by a small thread pool; results
    are assembled in order either way.
    """
    if nx < 2 or nb < 2:
        raise ValueError("grid needs at least 2 points per axis")
    xs = np.linspace(0.0, 1.0, nx)
    bs = np.linspace(0.0, B_PERIOD, nb)
    a_of_x = np.arccos(np.sqrt(xs))

    def row(i: int) -> np.ndarray:
        return _orbit_info_values(alpha, a_of_x[i], bs)

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            info = np.array(list(pool.map(row, range(nx))))
    else:
        info = np.array([row(i) for i in range(nx)])
    dinfo_db = np.gradient(info, bs, axis=1)
    return SurfaceScan(alpha=alpha, x=xs, b=bs, info=info, dinfo_db=dinfo_db)


def _golden_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal scalar function on [lo, hi]."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    best = 0.5 * (lo + hi)
    return best, f(best)


def _canonical_b(b: float) -> float:
    """Fold b into [0, pi/3] using the period and the reflection symmetry b -> -b."""
    b = b % B_PERIOD
    if b > 0.5 * B_PERIOD:
        b = B_PERIOD - b
    return b


def _optimize_b(alpha: float, x: float, n_seed: int = 512, xtol: float = 1e-10) -> tuple[float, float]:
    """Maximize the orbit information over b at fixed x: coarse grid, then golden section."""
    a = math.acos(math.sqrt(min(max(x, 0.0), 1.0)))
    bs = np.linspace(0.0, B_PERIOD, n_seed, endpoint=False)
    values = _orbit_info_values(alpha, a, bs)
    k = int(np.argmax(values))
    step = B_PERIOD / n_seed
    # The surface is periodic in b, so the bracket may spill outside [0, period).
    b_star, best = _golden_max(
        lambda b: float(_orbit_info_values(alpha, a, b)), bs[k] - step, bs[k] + step, xtol
    )
    return _canonical_b(b_star), best


def optimize_single_orbit(alpha: float) -> tuple[float, float]:
    """Best single complete orbit: maximize over b on the plane x = 1/3.

    Returns (b_star, info_bits) with b_star folded into [0, pi/3]; the mirror
    point at 2 pi / 3 - b_star attains the same value.
    """
    return _optimize_b(alpha, 1.0 / 3.0)


def completeness_weight(x_first: float, x_second: float) -> float:
    """Mixing weight lam with lam * x_first + (1 - lam) * x_second = 1/3.

    Requires the two values to straddle (or touch) 1/3; the result then lies
    in [0, 1].  Two coincident points must both sit on the plane itself.
    """
    lo, hi = min(x_first, x_second), max(x_first, x_second)
    third = 1.0 / 3.0
    if lo > third + 1e-9 or hi < third - 1e-9:
        raise ValueError(f"x values {x_first}, {x_second} do not straddle 1/3")
    if abs(x_first - x_second) < 1e-12:
        return 1.0
    return float(np.clip((third - x_second) / (x_first - x_second), 0.0, 1.0))


def optimize_two_orbits(
    alpha: float,
    n_first: int = 35,
    n_second: int = 69,
    refine_sweeps: int = 3,
    n_seeds: int = 4,
) -> TwoOrbitSolution:
    """Best found mixture of two orbits with x_first <= 1/3 <= x_second.

    The completeness constraint fixes the mixing weight from (x_first,
    x_second), and the azimuths decouple given the x values, so the search is
    a 2-D scan over (x_first, x_second) with a 1-D azimuth maximization
    inside.  Coarse grid seeds are refined with coordinate-wise golden
    section sweeps, and the single complete orbit (lam = 1, both orbits
    equal) is returned when it scores at least as high.
    """
    third = 1.0 / 3.0

    def g(x: float, fine: bool) -> tuple[float, float]:
        return _optimize_b(alpha, x, n_seed=128, xtol=1e-9 if fine else 1e-6)

    xs1 = np.linspace(0.0, third, n_first)
    xs2 = np.linspace(third, 1.0, n_second)
    g1 = [g(x, fine=False) for x in xs1]
    g2 = [g(x, fine=False) for x in xs2]

    def combined_value(v1: float, v2: float, x1: float, x2: float) -> float:
        lam = completeness_weight(x1, x2)
        return lam * v1 + (1.0 - lam) * v2

    scored = [
        (combined_value(g1[i][1], g2[j][1], xs1[i], xs2[j]), i, j)
        for i in range(n_first)
        for j in range(n_second)
    ]
    scored.sort(key=lambda t: -t[0])
    seeds = scored[:n_seeds]

    def refine(x1: float, x2: float) -> tuple[float, float, float]:
        span1 = xs1[1] - xs1[0]
        span2 = xs2[1] - xs2[0]
        value = -math.inf
        for _ in range(refine_sweeps):
            v2 = g(x2, fine=True)[1]
            x1, _ = _golden_max(
                lambda x: combined_value(g(x, True)[1], v2, x, x2),
                max(0.0, x1 - span1),
                min(third, x1 + span1),
                1e-8,
            )
            v1 = g(x1, fine=True)[1]
            x2, value = _golden_max(
                lambda x: combined_value(v1, g(x, True)[1], x1, x),
                max(third, x2 - span2),
                min(1.0, x2 + span2),
                1e-8,
            )
            span1 *= 0.25
            span2 *= 0.25
        return x1, x2, value

    best = None
    for _, i, j in seeds:
        x1, x2, value = refine(float(xs1[i]), float(xs2[j]))
        if best is None or value > best[2]:
            best = (x1, x2, value)
    x1, x2, info = best
    # The single complete orbit is the x_first = x_second = 1/3 mixture; the
    # grid search only approaches it, so score it exactly.
    b_single, single_info = _optimize_b(alpha, third)
    if single_info >= info:
        orbit = OrbitParams(a=math.acos(math.sqrt(third)), b=b_single)
        return TwoOrbitSolution(first=orbit, second=orbit, lam=1.0, info_bits=single_info)
    b1, _ = _optimize_b(alpha, x1)
    b2, _ = _optimize_b(alpha, x2)
    return TwoOrbitSolution(
        first=OrbitParams(a=math.acos(math.sqrt(x1)), b=b1),
        second=OrbitParams(a=math.acos(math.sqrt(x2)), b=b2),
        lam=completeness_weight(x1, x2),
        info_bits=info,
    )


def double_trines() -> tuple[Ensemble, Ensemble]:
    """Two-qubit double trines and their three-dimensional projection.

    The raw ensemble holds the three product vectors psi_i (x) psi_i of the
    planar trines.  A fixed orthogonal basis change sends every state into a
    common 3-dimensional subspace; dropping the vanishing coordinate yields
    exactly the lifted trines with alpha = 1/2.
    """
    s = math.sqrt(3.0)
    raw_vectors = [
        np.array([1.0, 0.0, 0.0, 0.0]),
        0.25 * np.array([1.0, s, s, 3.0]),
        0.25 * np.array([1.0, -s, -s, 3.0]),
    ]
    basis_change = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    ) / math.sqrt(2.0)
    raw = Ensemble(
        [np.outer(v, v).astype(complex) for v in raw_vectors], np.full(3, 1.0 / 3.0)
    )
    projected_vectors = [(basis_change @ v)[:3] for v in raw_vectors]
    projected = Ensemble(
        [np.outer(v, v).astype(complex) for v in projected_vectors], np.full(3, 1.0 / 3.0)
    )
    return raw, projected


def double_trines_closed_form() -> float:
    """Information of the optimal single orbit of the double trines, in bits.

    Equals (2 sqrt(2) gamma - 9 ln 2) / (6 ln 2) with
    gamma = ln(2 (3 + 2 sqrt(2))^2), about 1.3690.
    """
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    return (2.0 * math.sqrt(2.0) * gamma - 9.0 * math.log(2.0)) / (6.0 * math.log(2.0))


def hessian_at(alpha: float, x: float, b: float, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of I(arccos sqrt(x), b) at (x, b)."""

    def f(xv: float, bv: float) -> float:
        return orbit_info(alpha, math.acos(math.sqrt(min(max(xv, 0.0), 1.0))), bv)

    f0 = f(x, b)
    dxx = (f(x + h, b) - 2.0 * f0 + f(x - h, b)) / (h * h)
    dbb = (f(x, b + h) - 2.0 * f0 + f(x, b - h)) / (h * h)
    dxb = (f(x + h, b + h) - f(x + h, b - h) - f(x - h, b + h) + f(x - h, b - h)) / (
        4.0 * h * h
    )
    return np.array([[dxx, dxb], [dxb, dbb]])


@dataclass(frozen=True, eq=False)
class RankArgumentReport:
    """Evidence that no single orbit, of any rank, is an optimal measurement.

    A single orbit of a higher-rank operator mixes the orbits of its rank-one
    eigenpieces, and the mixture loses no information only if corresponding
    orbit elements induce proportional probability vectors.  The report holds
    the two optimal orbit points, the vectors induced by their first elements,
    and the proportionality verdict (False means a single orbit is strictly
    suboptimal).
    """

    first: OrbitParams
    second: OrbitParams
    lam: float
    combined_info: float
    vector_first: np.ndarray
    vector_second: np.ndarray
    proportional: bool


def single_orbit_rank_argument(
    alpha: float = 0.05, solution: TwoOrbitSolution | None = None
) -> RankArgumentReport:
    """Run the two-orbit optimization and test the proportionality condition.

    Pass a precomputed ``solution`` to skip the optimization.
    """
    if solution is None:
        solution = optimize_two_orbits(alpha)
    ensemble = lifted_trines(alpha)
    first_ops = orbit_projectors(solution.first.a, solution.first.b)
    second_ops = orbit_projectors(solution.second.a, solution.second.b)
    proportional = all(
        equality_condition(ensemble, first_ops, second_ops, j) for j in range(3)
    )
    return RankArgumentReport(
        first=solution.first,
        second=solution.second,
        lam=solution.lam,
        combined_info=solution.info_bits,
        vector_first=joint_distribution(ensemble, first_ops)[:, 0],
        vector_second=joint_distribution(ensemble, second_ops)[:, 0],
        proportional=proportional,
    )
