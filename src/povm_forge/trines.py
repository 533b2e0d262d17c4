"""Lifted trines and double trines: scans, optima, and closed forms.

The lifted trines are three unit vectors 120 degrees apart in a plane, tilted
out of it by a mixing amplitude sqrt(alpha) along the first axis.  Candidate
measurements are orbits of a rank-one operator |psi(a, b)><psi(a, b)| under
the 120-degree rotation; such an orbit is a complete POVM exactly when
cos(a)^2 = 1/3.  Both are group orbits, as are the raw double trines (the
orbit of |00> under R2 (x) R2), and all three are built by the one
conjugation of ``symmetry``; the projected double trines are the lifted
trines at alpha = 1/2.  With the polar coordinate x = cos(a)^2 fixed, the best
azimuth gives g(x) = max_b I(x, b).  The best complete mixture of two orbits
on opposite sides of that plane is the upper concave envelope of g at
x = 1/3, found by a zooming grid search over pairs of x values; each zoom
step evaluates g on both sides of the plane in one batched call.  The best
azimuth of each x is found by safeguarded Newton steps on the closed-form
b-derivatives of the information.

Every value comes from one closed form: the rotation permutes the trine
states cyclically, so an orbit's joint matrix is circulant with entries
q_k / 3, q_k = <psi|s_k>^2, and I = log2 3 + sum_k q_k log2 q_k - Q log2 Q
with Q = sum_k q_k.  The b-derivatives of the azimuth search and the Hessian
in (x, b) are that formula differentiated by the chain rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .infotheory import equality_condition, joint_distribution, plogp
from .quantum import Ensemble
from .symmetry import FiniteRep, _conjugates, generate_group

B_PERIOD = 2.0 * math.pi / 3.0
# Azimuths of the three trine states within their plane.
_PHASES = B_PERIOD * np.arange(3)
# Azimuth search: coarse seeds per x, then Newton steps until a step is at most _B_XTOL.
_B_SEEDS = 128
_B_XTOL = 1e-10
# Envelope search: (x_first, x_second) start grid, zoom grid points per axis,
# and the grid span at which zooming stops.
_START_GRID = (33, 65)
_ZOOM_POINTS = 9
_X_SPAN = 1e-9
# A chord replaces the single orbit only when it beats it by more than this
# multiple of the magnitudes of the information values it is made of: at
# alpha = 1 every chord equals the single orbit's 0 bit up to about 50 eps.
_ROUNDING = 1024 * np.finfo(float).eps


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
    """Best found mixture of two orbits straddling the plane x = 1/3.

    ``single_b`` and ``single_info`` are the single complete orbit of
    ``optimize_single_orbit``, the mixture's lam = 1 candidate.
    """

    first: OrbitParams
    second: OrbitParams
    lam: float
    info_bits: float
    single_b: float
    single_info: float


def trine_rotation() -> np.ndarray:
    """Real orthogonal rotation by 120 degrees fixing the first axis; cubes to I."""
    s = math.sqrt(3.0)
    return 0.5 * np.array([[2.0, 0.0, 0.0], [0.0, -1.0, s], [0.0, -s, -1.0]])


@functools.cache
def trine_group() -> FiniteRep:
    """The order-3 rotation group generated by trine_rotation(), with elements I, R, R^2.

    Closed once, since every trine ensemble and orbit is built from it.
    """
    return generate_group([trine_rotation()])


def psi(a: float, b: float) -> np.ndarray:
    """Unit vector (cos a, sin a cos b, sin a sin b)."""
    return np.array([math.cos(a), math.sin(a) * math.cos(b), math.sin(a) * math.sin(b)])


def lifted_trines(alpha: float) -> Ensemble:
    """Lifted trines: the trine_group() orbit of (sqrt(alpha), sqrt(1 - alpha), 0), uniform priors.

    The states come in the order v, R^2 v, R v, that of the shipped problem file.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"lift parameter must lie in [0, 1], got {alpha}")
    v = np.array([math.sqrt(alpha), math.sqrt(1.0 - alpha), 0.0])
    return Ensemble(_conjugates(np.outer(v, v), trine_group().elements[[0, 2, 1]]), np.full(3, 1.0 / 3.0))


def orbit_projectors(a: float, b: float) -> list[np.ndarray]:
    """The trine_group() orbit R^j |psi><psi| R^-j, j = 0, 1, 2, of psi(a, b); each of trace 1."""
    v = psi(a, b)
    return list(_conjugates(np.outer(v, v), trine_group().elements))


def _overlaps(alpha: float, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, p, phase) over broadcast arrays of (a, b), with k = 0, 1, 2 on a new last axis.

    The overlaps of psi(a, b) with the trine states are
    r_k = sqrt(alpha) cos a + p cos(phase_k), p = sqrt(1 - alpha) sin a, phase_k = b - 2 pi k / 3.
    """
    a = np.asarray(a, dtype=float)
    phase = np.asarray(b, dtype=float)[..., None] - _PHASES
    p = (math.sqrt(1.0 - alpha) * np.sin(a))[..., None]
    r = (math.sqrt(alpha) * np.cos(a))[..., None] + p * np.cos(phase)
    return r, p, phase


def _orbit_info_values(alpha: float, a, b) -> np.ndarray:
    """Formal orbit information over broadcast arrays of (a, b), in closed form.

    R fixes the lift axis and cycles the states, so R^j psi overlaps state i
    as psi overlaps state i + j: the joint matrix is circulant with entries
    q_k / 3, q_k = (sqrt(alpha) cos a + sqrt(1 - alpha) sin a cos(b - 2 pi k / 3))^2.
    Every column sums to Q / 3 with Q = sum_k q_k, so
    I = log2 3 + sum_k q_k log2 q_k - Q log2 Q.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"lift parameter must lie in [0, 1], got {alpha}")
    q = _overlaps(alpha, a, b)[0] ** 2
    return math.log2(3.0) + plogp(q).sum(axis=-1) - plogp(q.sum(axis=-1))


def orbit_info(alpha: float, a: float, b: float) -> float:
    """Formal information (bits) of the lifted-trines ensemble against one orbit.

    The orbit operators carry weight 1 each; they form a complete POVM only at
    cos(a)^2 = 1/3, and the value can be negative away from that plane.
    """
    return float(_orbit_info_values(alpha, a, b))


@dataclass(frozen=True, eq=False)
class SurfaceScan:
    """Grid of orbit informations over x in [0, 1] and b in [0, 2 pi / 3].

    ``info`` and ``dinfo_db`` are (len(x), len(b)) arrays, x-major.  The
    reflection I(x, b) = I(x, 2 pi / 3 - b) holds exactly on the grid, in
    value and sign bit: every ``info`` row is its own mirror image and every
    ``dinfo_db`` row is minus its mirror image (+0.0 at b = 0, -0.0 at 2 pi / 3).
    """

    alpha: float
    x: np.ndarray
    b: np.ndarray
    info: np.ndarray
    dinfo_db: np.ndarray


def scan_surface(alpha: float, nx: int = 200, nb: int = 200) -> SurfaceScan:
    """Evaluate the orbit information on a uniform (x, b) grid.

    The numerical b-derivative is included so slices of the surface can be
    replotted directly.  The trine reflection sends b to 2 pi / 3 - b and
    permutes the three overlaps, so I(x, b) = I(x, 2 pi / 3 - b) = I(x, -b):
    only the first ceil(nb / 2) azimuths are evaluated, in blocks of 20 x rows
    (one closed-form call per block keeps the temporaries to a few hundred KB
    at the default size), and the rest of each row is their mirror image.  The
    b-derivative takes central differences at the step 2 pi / (3 (nb - 1)) on
    the same columns, b = h standing in for b = -h, and the rest is minus their mirror.
    """
    if nx < 2 or nb < 2:
        raise ValueError("grid needs at least 2 points per axis")
    xs = np.linspace(0.0, 1.0, nx)
    bs = np.linspace(0.0, B_PERIOD, nb)
    a = np.arccos(np.sqrt(xs))
    half = (nb + 1) // 2
    info = np.empty((nx, nb))
    for i in range(0, nx, 20):
        info[i : i + 20, :half] = _orbit_info_values(alpha, a[i : i + 20, None], bs[:half])
    info[:, half:] = info[:, nb - half - 1 :: -1]
    step = B_PERIOD / (nb - 1)
    # Column |j - 1| is column j - 1, or its mirror about b = 0 at j = 0.
    left = (info[:, 1 : half + 1] - info[:, np.abs(np.arange(-1, half - 1))]) / (2.0 * step)
    dinfo_db = np.concatenate([left, -left[:, nb - half - 1 :: -1]], axis=1)
    return SurfaceScan(alpha=alpha, x=xs, b=bs, info=info, dinfo_db=dinfo_db)


def _b_slopes(alpha: float, a, b) -> tuple[np.ndarray, np.ndarray]:
    """dI/db and d2I/db2 of the orbit information at broadcast arrays of (a, b).

    With r_k = sqrt(alpha) cos a + p cos(b - 2 pi k / 3), p = sqrt(1 - alpha) sin a,
    Q = sum_k r_k^2 does not depend on b, so only the sum_k q_k log2 q_k term
    moves: dI/db = -4 p sum_k r_k s_k log2|r_k| and
    d2I/db2 = -4 p sum_k [r_k c_k log2|r_k| - p s_k^2 (log2|r_k| + 1 / ln 2)],
    with c_k, s_k the cosine and sine of b - 2 pi k / 3 and r log2|r| = 0 at r = 0.
    """
    r, p, phase = _overlaps(alpha, a, b)
    c, s = np.cos(phase), np.sin(phase)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log2(np.abs(r))
        r_log_r = np.where(r == 0.0, 0.0, r * log_r)
        slope = -4.0 * p[..., 0] * (r_log_r * s).sum(axis=-1)
        curvature = -4.0 * p[..., 0] * (
            r_log_r * c - p * s * s * (log_r + 1.0 / math.log(2.0))
        ).sum(axis=-1)
    return slope, curvature


def _max_over_b(alpha: float, x) -> tuple[np.ndarray, np.ndarray]:
    """g(x) = max_b I(arccos sqrt(x), b) for an array of x; returns (b_star, g).

    Each x is seeded on a coarse b grid and starts at its best seed inside a
    bracket one seed step either side.  Each step shrinks the bracket to the
    side the closed-form slope points to, then takes the Newton step if the
    curvature is negative and the step stays in the bracket, and bisects
    otherwise.  An element stops once its step is at most _B_XTOL, so each
    element follows its own path whatever else is in the batch; at most as
    many steps as bisection alone would need are taken.  Where p =
    sqrt(1 - alpha) sin a is 0 the information does not depend on b, and the
    seed stands.  b_star is folded into [0, pi/3].
    """
    a = np.arccos(np.sqrt(np.clip(np.asarray(x, dtype=float), 0.0, 1.0)))
    seeds = np.linspace(0.0, B_PERIOD, _B_SEEDS, endpoint=False)
    step = B_PERIOD / _B_SEEDS
    # One seeding call for every x; at the 98 start points of the envelope search
    # its temporaries peak near 1.5 MB (a few 98 x 128 x 3 overlap arrays).
    best_seed = seeds[np.argmax(_orbit_info_values(alpha, a[..., None], seeds), axis=-1)]
    b = best_seed.ravel()
    flat_a = a.ravel()
    todo = np.flatnonzero(math.sqrt(1.0 - alpha) * np.sin(flat_a) != 0.0)
    # The surface is periodic in b, so the bracket may spill outside [0, period).
    lo, hi = b[todo] - step, b[todo] + step
    for _ in range(math.ceil(math.log2(2.0 * step / _B_XTOL))):
        if todo.size == 0:
            break
        at = b[todo]
        slope, curvature = _b_slopes(alpha, flat_a[todo], at)
        rising = slope > 0.0
        lo, hi = np.where(rising, at, lo), np.where(rising, hi, at)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = at - slope / curvature
        # A vanishing overlap r_k makes the curvature -inf and the Newton step 0: bisect there.
        newton_ok = np.isfinite(curvature) & (curvature < 0.0) & (lo <= newton) & (newton <= hi)
        b[todo] = np.where(newton_ok, newton, 0.5 * (lo + hi))
        moving = np.abs(b[todo] - at) > _B_XTOL
        todo, lo, hi = todo[moving], lo[moving], hi[moving]
    b_star = np.mod(b.reshape(a.shape), B_PERIOD)
    # The reflection b -> -b keeps the information; fold b_star into [0, pi/3].
    b_star = np.where(b_star > 0.5 * B_PERIOD, B_PERIOD - b_star, b_star)
    return b_star, _orbit_info_values(alpha, a, b_star)


def optimize_single_orbit(alpha: float) -> tuple[float, float]:
    """Best single complete orbit: maximize over b on the plane x = 1/3.

    Returns (b_star, info_bits) with b_star folded into [0, pi/3]; the mirror
    point at 2 pi / 3 - b_star attains the same value.
    """
    b_star, info = _max_over_b(alpha, 1.0 / 3.0)
    return float(b_star), float(info)


def optimize_two_orbits(alpha: float) -> TwoOrbitSolution:
    """Best found mixture of two orbits with x_first <= 1/3 <= x_second.

    With the x values fixed the azimuths decouple, so the best mixture
    lam g(x_first) + (1 - lam) g(x_second) with lam x_first + (1 - lam)
    x_second = 1/3 is the upper concave envelope of g(x) = max_b I(x, b) at 1/3.
    The chords are scored on an (x_first, x_second) grid in one broadcast,
    and a small grid is zoomed around the best chord until it spans less
    than 1e-9.  The single complete orbit (lam = 1, both orbits equal) is
    scored exactly and returned when no chord beats it by more than rounding.
    """
    third = 1.0 / 3.0
    b_single, single_info = optimize_single_orbit(alpha)
    single = OrbitParams(a=math.acos(math.sqrt(third)), b=b_single)
    best = TwoOrbitSolution(
        first=single, second=single, lam=1.0, info_bits=single_info,
        single_b=b_single, single_info=single_info,
    )
    xs1 = np.linspace(0.0, third, _START_GRID[0])
    xs2 = np.linspace(third, 1.0, _START_GRID[1])
    while True:
        # Both sides of the envelope share one search; the azimuths are independent.
        b_star, g = _max_over_b(alpha, np.concatenate([xs1, xs2]))
        b1, b2 = np.split(b_star, [len(xs1)])
        g1, g2 = np.split(g, [len(xs1)])
        # x1 = x2 happens only at 1/3, where the chord is the single orbit.
        gap = xs1[:, None] - xs2[None, :]
        lam = np.divide(third - xs2[None, :], gap, out=np.ones_like(gap), where=gap < 0.0)
        chords = lam * g1[:, None] + (1.0 - lam) * g2[None, :]
        i, j = np.unravel_index(int(np.argmax(chords)), chords.shape)
        rounding = _ROUNDING * (
            abs(single_info) + lam[i, j] * abs(g1[i]) + (1.0 - lam[i, j]) * abs(g2[j])
        )
        # lam = 0 or 1 is the single orbit, which is already scored exactly.
        if 0.0 < lam[i, j] < 1.0 and chords[i, j] > max(best.info_bits, single_info + rounding):
            best = TwoOrbitSolution(
                first=OrbitParams(a=math.acos(math.sqrt(xs1[i])), b=float(b1[i])),
                second=OrbitParams(a=math.acos(math.sqrt(xs2[j])), b=float(b2[j])),
                lam=float(lam[i, j]),
                info_bits=float(chords[i, j]),
                single_b=b_single,
                single_info=single_info,
            )
        if max(xs1[-1] - xs1[0], xs2[-1] - xs2[0]) < _X_SPAN:
            return best
        h1, h2 = xs1[1] - xs1[0], xs2[1] - xs2[0]
        xs1 = np.linspace(max(0.0, xs1[i] - h1), min(third, xs1[i] + h1), _ZOOM_POINTS)
        xs2 = np.linspace(max(third, xs2[j] - h2), min(1.0, xs2[j] + h2), _ZOOM_POINTS)


def double_trines() -> tuple[Ensemble, Ensemble]:
    """Two-qubit double trines and their three-dimensional projection.

    The raw ensemble is the orbit of |00> under the group of R2 (x) R2, with R2
    the planar trine rotation, a reducible representation.  Its states span the
    3-dimensional symmetric subspace, and their coordinates in the orthonormal
    basis (|00> + |11>, |00> - |11>, |01> + |10>) / sqrt 2 of it are exactly
    the lifted trines with alpha = 1/2, which is the projected ensemble.
    """
    r2 = trine_rotation()[1:, 1:]
    states = _conjugates(np.diag([1.0, 0.0, 0.0, 0.0]), generate_group([np.kron(r2, r2)]).elements)
    return Ensemble(states, np.full(3, 1.0 / 3.0)), lifted_trines(0.5)


def _double_trines_gamma() -> float:
    """gamma = ln(2 (3 + 2 sqrt(2))^2), the logarithm in both double-trines closed forms."""
    return math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)


def double_trines_closed_form() -> float:
    """Bits of the optimal single orbit of the double trines, (2 sqrt(2) gamma - 9 ln 2) / (6 ln 2), about 1.3690."""
    gamma = _double_trines_gamma()
    return (2.0 * math.sqrt(2.0) * gamma - 9.0 * math.log(2.0)) / (6.0 * math.log(2.0))


def double_trines_hessian_diagonal() -> list[float]:
    """The x-x and b-b entries of ``hessian_at(0.5, 1/3, 0)``, at the double-trines optimum, in closed form."""
    gamma, ln2, root2 = _double_trines_gamma(), math.log(2.0), math.sqrt(2.0)
    return [(81.0 - 27.0 * root2 * gamma) / (16.0 * ln2), (6.0 - (2.0 + root2) * gamma) / (3.0 * ln2)]


def hessian_at(alpha: float, x: float, b: float) -> np.ndarray:
    """Hessian of I(arccos sqrt(x), b) in (x, b), by the chain rule on the closed form.

    With the ``_overlaps`` r_k = sqrt(alpha x) + sqrt((1 - alpha)(1 - x)) cos(b - 2 pi k / 3),
    u_k = r_k^2 and Q = sum_k u_k = 3 alpha x + 3 (1 - alpha)(1 - x) / 2,
    I = log2 3 + sum_k u_k log2 u_k - Q log2 Q.  Entry (x, j) is
    sum_k 2 r_k,x r_k,j (log2 u_k + 3 / ln 2) + 2 r_k r_k,xj (log2 u_k + 1 / ln 2),
    and the x-x entry also subtracts Q_x^2 / (Q ln 2): Q is linear in x and
    does not depend on b.  The b-b entry is the curvature of ``_b_slopes``.  A
    vanishing overlap r_k makes the entries it enters with a nonzero
    derivative infinite (r log2 r^2 = 0 at r = 0).  The x-derivatives of
    sqrt(x) and sqrt(1 - x) diverge at the ends, so x must lie in (0, 1).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"lift parameter must lie in [0, 1], got {alpha}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    ln2 = math.log(2.0)
    a = math.acos(math.sqrt(x))
    r, p, phase = _overlaps(alpha, a, b)
    c, s = np.cos(phase), np.sin(phase)
    # sqrt(alpha x) and p = sqrt((1 - alpha)(1 - x)): first and second x-derivatives.
    up_x = 0.5 * math.sqrt(alpha / x)
    up_xx = -0.5 * up_x / x
    p_x = -0.5 * math.sqrt((1.0 - alpha) / (1.0 - x))
    p_xx = 0.5 * p_x / (1.0 - x)
    r_x = up_x + p_x * c
    outer = r_x * np.stack([r_x, -p * s])
    curv = np.stack([up_xx + p_xx * c, -p_x * s])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.log2(r * r)
        terms = 2.0 * np.where(outer == 0.0, 0.0, outer * (log_u + 3.0 / ln2)) + 2.0 * np.where(
            r == 0.0, 0.0, r * curv * (log_u + 1.0 / ln2)
        )
    xx, xb = terms.sum(axis=-1)
    q = 3.0 * alpha * x + 1.5 * (1.0 - alpha) * (1.0 - x)
    xx -= (3.0 * alpha - 1.5 * (1.0 - alpha)) ** 2 / (q * ln2)
    bb = _b_slopes(alpha, a, b)[1]
    return np.array([[xx, xb], [xb, bb]])


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


def single_orbit_rank_argument(alpha: float = 0.05) -> RankArgumentReport:
    """Run the two-orbit optimization and test the proportionality condition."""
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
