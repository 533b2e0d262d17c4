"""Output checks for each povm-forge command the benchmark runs.

A check takes the finished operation (exit code, captured stdout, output
directory) and returns a list of failure messages; an empty list means the
output is correct.  Expected values come from ``oracles`` and from the
published reference numbers, never from a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

# Reference values and tolerances as published with the trines results.
LIFTED_REFERENCES = {"single_info": (0.8456, 5e-4), "single_b": (0.1377, 2e-3), "two_info": (0.8472, 5e-4)}
DOUBLE_REFERENCE = (1.3690, 1e-3)
INFO_TOL = 1e-9
# The two-orbit search stops at xtol = 1e-8 in x, and |dI/dx| is of order one,
# so where the best mixture degenerates to the single orbit it may end a few
# 1e-8 bit below it.
OPTIMIZER_TOL = 1e-7
SURFACE_SHAPE = (200, 200)
SURFACE_ROWS = (0, 1, 7919, 12345, 20000, 31337, 39999)


@dataclass
class Outcome:
    """What one CLI operation left behind."""

    code: int
    stdout: str
    out_dir: str | None


def _fail_unless(failures: list[str], ok, message: str) -> None:
    if not ok:
        failures.append(message)


def _json_tail(stdout: str):
    """The JSON document that ends stdout, after any summary lines."""
    start = 0 if stdout.startswith("{") else stdout.index("\n{") + 1
    return json.loads(stdout[start:])


def complex_array(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _read_json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _close(value, expected, tol) -> bool:
    return bool(abs(value - expected) <= tol)


def _check_chi(failures, priors, states, infos) -> None:
    """Every information <= chi <= log2 d."""
    chi = oracles.holevo_chi(priors, states)
    for value in infos:
        _fail_unless(failures, value <= chi + 1e-12, f"information {value} exceeds chi {chi}")
    _fail_unless(failures, chi <= math.log2(np.shape(states)[1]) + 1e-12, f"chi {chi} exceeds log2 d")


# ---------------------------------------------------------------------------
# experiments


def _check_orbit_optimum(failures, opt: dict, alpha: float) -> tuple[float, float]:
    """Recompute the single- and two-orbit informations; return them as reported."""
    states = oracles.lifted_trine_states(alpha)
    priors = np.full(3, 1.0 / 3.0)
    a_plane = math.acos(math.sqrt(1.0 / 3.0))
    single, two = opt["single_orbit"], opt["two_orbit"]
    single_povm = oracles.trine_orbit(a_plane, single["b"])
    _fail_unless(failures, oracles.completeness_defect(single_povm) <= 1e-12, "single orbit is incomplete")
    mine = oracles.mutual_information(priors, states, single_povm)
    _fail_unless(failures, _close(mine, single["info_bits"], INFO_TOL),
                 f"single-orbit info {single['info_bits']} != recomputed {mine}")
    first, second, lam = two["first"], two["second"], two["lam"]
    for part in (first, second):
        _fail_unless(failures, _close(math.cos(part["a"]) ** 2, part["x"], 1e-12), "x != cos(a)^2")
    _fail_unless(failures, 0.0 <= lam <= 1.0, f"mixing weight {lam} outside [0, 1]")
    _fail_unless(failures, _close(lam * first["x"] + (1.0 - lam) * second["x"], 1.0 / 3.0, 1e-9),
                 "lam x1 + (1 - lam) x2 != 1/3")
    povm = oracles.two_orbit_povm(first["a"], first["b"], second["a"], second["b"], lam)
    _fail_unless(failures, oracles.completeness_defect(povm) <= 1e-9, "two-orbit POVM is incomplete")
    mine_two = oracles.mutual_information(priors, states, povm)
    _fail_unless(failures, _close(mine_two, two["info_bits"], 1e-7),
                 f"two-orbit info {two['info_bits']} != recomputed {mine_two}")
    _fail_unless(failures, two["info_bits"] >= single["info_bits"] - OPTIMIZER_TOL,
                 "two-orbit info below single-orbit info")
    _check_chi(failures, priors, states, (single["info_bits"], two["info_bits"], mine, mine_two))
    return single["info_bits"], two["info_bits"]


def _check_surface(failures, out_dir: str, alpha: float) -> None:
    nx, nb = SURFACE_SHAPE
    with open(os.path.join(out_dir, "surface.csv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    _fail_unless(failures, lines[0] == "x,b,info_bits,dinfo_db", "surface.csv header")
    if len(lines) != nx * nb + 1:
        failures.append(f"surface.csv has {len(lines) - 1} rows, expected {nx * nb}")
        return
    xs = np.linspace(0.0, 1.0, nx)
    bs = np.linspace(0.0, oracles.B_PERIOD, nb)
    for row in SURFACE_ROWS:
        x, b, info, _ = (float(v) for v in lines[row + 1].split(","))
        i, j = divmod(row, nb)
        expected = oracles.orbit_formal_information(alpha, math.acos(math.sqrt(xs[i])), bs[j])
        _fail_unless(failures, _close(x, xs[i], 1e-15) and _close(b, bs[j], 1e-15), f"surface row {row} grid")
        _fail_unless(failures, _close(info, expected, INFO_TOL), f"surface row {row}: {info} != {expected}")


def lifted_experiment(alpha: float, reference: bool):
    def check(outcome: Outcome) -> list[str]:
        failures: list[str] = []
        summary = _json_tail(outcome.stdout)
        opt = summary["optimum"]
        _fail_unless(failures, _read_json(outcome.out_dir, "optimum.json") == opt, "optimum.json differs")
        single_info, two_info = _check_orbit_optimum(failures, opt, alpha)
        if reference:
            for name, value in (("single_info", single_info), ("single_b", opt["single_orbit"]["b"]),
                                ("two_info", two_info)):
                expected, tol = LIFTED_REFERENCES[name]
                _fail_unless(failures, _close(value, expected, tol), f"{name} {value} != {expected} +- {tol}")
        _check_surface(failures, outcome.out_dir, alpha)
        return failures

    return check


def double_experiment(outcome: Outcome) -> list[str]:
    failures: list[str] = []
    summary = _json_tail(outcome.stdout)
    opt = summary["optimum"]
    closed = oracles.double_trines_closed_form()
    expected, tol = DOUBLE_REFERENCE
    _fail_unless(failures, _close(closed, expected, tol), "closed form off the published value")
    _fail_unless(failures, _close(opt["closed_form_bits"], closed, 1e-12), "reported closed form differs")
    _fail_unless(failures, _read_json(outcome.out_dir, "optimum.json") == opt, "optimum.json differs")
    single_info, _ = _check_orbit_optimum(failures, opt, 0.5)
    _fail_unless(failures, _close(single_info, closed, INFO_TOL), f"single-orbit info {single_info} != {closed}")
    _fail_unless(failures, _close(opt["single_orbit"]["b"], 0.0, 1e-6), "double-trines optimum not at b = 0")
    pgm = _read_json(outcome.out_dir, "pgm.json")
    ops = complex_array(pgm["povm"])
    _fail_unless(failures, oracles.completeness_defect(ops) <= 1e-9, "PGM is incomplete")
    pgm_info = oracles.mutual_information(np.full(3, 1 / 3), oracles.lifted_trine_states(0.5), ops)
    _fail_unless(failures, _close(pgm_info, closed, 1e-6), f"PGM info {pgm_info} != {closed}")
    _fail_unless(failures, _close(pgm["info_bits"], pgm_info, INFO_TOL), "reported PGM info differs")
    hessian = _read_json(outcome.out_dir, "hessian.json")
    matrix = np.asarray(hessian["matrix"])
    _fail_unless(failures, np.linalg.eigvalsh(matrix)[-1] < 0, "Hessian is not negative definite")
    for got, want in zip(np.diag(matrix), oracles.double_trines_hessian_diagonal()):
        _fail_unless(failures, _close(got, want, 1e-2), f"Hessian diagonal {got} != {want}")
    _check_surface(failures, outcome.out_dir, 0.5)
    return failures


# ---------------------------------------------------------------------------
# validate and bound


def validate(order: int):
    def check(outcome: Outcome) -> list[str]:
        failures: list[str] = []
        report = json.loads(outcome.stdout)
        _fail_unless(failures, report["ok"], "validate reports violations")
        for section in ("ensemble", "povm", "group"):
            _fail_unless(failures, report.get(section, {}).get("ok"), f"validate: {section} not ok")
        _fail_unless(failures, report["group"].get("order") == order,
                     f"group order {report['group'].get('order')} != {order}")
        return failures

    return check


def bound(order: int, generators, real: bool):
    complex_dim = oracles.commutant_dimension(generators)
    real_dim = oracles.symmetric_commutant_dimension(generators) if real else None

    def check(outcome: Outcome) -> list[str]:
        failures: list[str] = []
        result = json.loads(outcome.stdout)
        _fail_unless(failures, result["order"] == order, f"group order {result['order']} != {order}")
        _fail_unless(failures, result["complex"] == complex_dim,
                     f"complex bound {result['complex']} != commutant dimension {complex_dim}")
        if real:
            _fail_unless(failures, result["real"] == real_dim,
                         f"real bound {result['real']} != symmetric commutant dimension {real_dim}")
        return failures

    return check


# ---------------------------------------------------------------------------
# prune and decompose


def prune(priors, states, povm, order: int | None = None, generators=None, real: bool = False):
    """Check a pruned POVM; with a group, also its orbit structure against the bound."""
    info_before = oracles.mutual_information(priors, states, povm)
    if generators is None:
        limit = oracles.design_rank(oracles.rank_one_pieces(povm))
    elif real:
        limit = oracles.symmetric_commutant_dimension(generators)
    else:
        limit = oracles.commutant_dimension(generators)

    def check(outcome: Outcome) -> list[str]:
        failures: list[str] = []
        doc = _read_json(outcome.out_dir, "pruned.json")
        ops = complex_array(doc["povm"])
        report = doc["report"]
        _fail_unless(failures, oracles.min_eigenvalue(ops) >= -1e-9, "pruned operator is not PSD")
        _fail_unless(failures, oracles.completeness_defect(ops) <= 1e-9, "pruned POVM is incomplete")
        info_after = oracles.mutual_information(priors, states, ops)
        _fail_unless(failures, info_after >= info_before - INFO_TOL,
                     f"pruning lost information: {info_before} -> {info_after}")
        _fail_unless(failures, _close(report["info_bits_before"], info_before, INFO_TOL), "reported input info")
        _fail_unless(failures, _close(report["info_bits_after"], info_after, INFO_TOL), "reported pruned info")
        _fail_unless(failures, report["operators_after"] == len(ops), "reported operator count")
        _check_chi(failures, priors, states, (info_before, info_after))
        if order is None:
            _fail_unless(failures, len(ops) <= limit, f"{len(ops)} operators above rank(D) = {limit}")
        else:
            orbits, rest = divmod(len(ops), order)
            _fail_unless(failures, rest == 0, f"{len(ops)} operators are not whole orbits of {order}")
            _fail_unless(failures, report.get("group_order") == order, "reported group order")
            _fail_unless(failures, report.get("orbit_count") == orbits, "reported orbit count")
            _fail_unless(failures, orbits <= limit, f"{orbits} orbits above the bound {limit}")
        return failures

    return check


def decompose(povm, priors=None, states=None):
    """Check the leaves of an identity decomposition of ``povm`` (no eigen-splitting)."""
    weights_in, unit = oracles.normalized(povm)
    rank = oracles.design_rank(povm)
    d = unit.shape[1]
    info_in = None if priors is None else oracles.mutual_information(priors, states, povm)

    def check(outcome: Outcome) -> list[str]:
        failures: list[str] = []
        doc = json.loads(outcome.stdout)
        w = np.asarray(doc["weights"])
        nu = np.asarray(doc["solutions"])
        _fail_unless(failures, np.all(w >= 0) and _close(w.sum(), 1.0, 1e-9), "leaf weights are not convex")
        _fail_unless(failures, np.all(nu >= -1e-12), "negative leaf entry")
        _fail_unless(failures, np.allclose(nu.sum(axis=1), 1.0, rtol=0, atol=1e-9), "leaf does not sum to 1")
        _fail_unless(failures, np.max(np.abs(w @ nu - weights_in)) <= 1e-9, "leaves do not rebuild the weights")
        sums = np.einsum("ij,jkl->ikl", nu, unit)
        _fail_unless(failures, np.max(np.abs(sums - np.eye(d))) <= 1e-8, "a leaf does not sum to I")
        supports = [np.flatnonzero(row > 1e-13).tolist() for row in nu]
        _fail_unless(failures, supports == doc["supports"], "reported supports differ")
        largest = max(len(s) for s in supports)
        _fail_unless(failures, largest <= rank, f"leaf support {largest} above rank(D) = {rank}")
        if info_in is not None:
            infos = [oracles.mutual_information(priors, states, row[:, None, None] * unit) for row in nu]
            _fail_unless(failures, np.allclose(doc["leaf_info_bits"], infos, rtol=0, atol=INFO_TOL),
                         "leaf informations differ")
            best = infos[doc["best_leaf"]]
            _fail_unless(failures, best >= max(infos) - INFO_TOL, "best_leaf is not the most informative")
            _fail_unless(failures, best >= info_in - INFO_TOL, f"best leaf {best} below input {info_in}")
            _check_chi(failures, priors, states, infos)
        return failures

    return check
