"""Command-line front end: validation, bounds, decomposition, experiments.

File format: JSON objects with keys "dimension", "states", "priors", "povm",
"generators", "metadata".  Complex numbers are [re, im] pairs and matrices are
row-major nested arrays, so files port trivially across languages.  All
emitted floats use Python's shortest round-trip representation, which
re-parses bit-identically.

Exit codes: 0 success, 1 domain failure (validation, symmetry, closure),
2 usage or parse failure.  Commands raise; ``main`` alone turns an error into
an exit code and an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import __version__
from .caratheodory import decompose_identity, prune_povm, score_leaves
from .infotheory import _formal_information, joint_distribution, mutual_information
from .quantum import (
    Ensemble,
    Povm,
    normalize_povm,
    pretty_good_measurement,
    validate_ensemble,
    validate_povm,
)
from .symmetry import (
    GroupNotFiniteError,
    complex_orbit_bound,
    generate_group,
    real_orbit_bound,
)
from .trines import (
    double_trines,
    double_trines_closed_form,
    hessian_at,
    optimize_two_orbits,
    orbit_info,
    scan_surface,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Raised for a request the command line cannot serve; ``main`` maps it to exit 2."""


class ProblemFileError(UsageError):
    """Raised when a problem file cannot be parsed into the schema."""


# ---------------------------------------------------------------------------
# JSON schema


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of [re, im] pairs; a stack of matrices gives one such list per matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


# json reads true and false as bool, a subclass of int; they are not numbers here.
_NUMBER_TYPES = (int, float)


def _complex_from_json(value) -> complex:
    if type(value) in _NUMBER_TYPES:
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(type(v) in _NUMBER_TYPES for v in value):
        return complex(value[0], value[1])
    raise ProblemFileError(f"expected a number or [re, im] pair, got {value!r}")


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ProblemFileError("matrix must be a non-empty list of rows")
    data = [[_complex_from_json(v) for v in row] for row in rows]
    m = np.array(data, dtype=complex)
    if m.ndim != 2:
        raise ProblemFileError("matrix rows have inconsistent lengths")
    return m


@dataclass
class ProblemFile:
    """Parsed contents of a problem file; sections are optional."""

    dimension: int
    ensemble: Ensemble | None = None
    povm: Povm | None = None
    generators: list[np.ndarray] | None = None
    metadata: dict = field(default_factory=dict)


def load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dimension" not in doc:
        raise ProblemFileError(f"{path}: expected an object with a 'dimension' key")
    d = doc["dimension"]
    if type(d) is not int or d < 1:
        raise ProblemFileError(f"{path}: dimension must be a positive integer")
    try:
        ensemble = None
        if "states" in doc:
            states = [matrix_from_json(m) for m in doc["states"]]
            priors = doc.get("priors")
            if priors is None:
                priors = [1.0 / len(states)] * len(states)
            elif not isinstance(priors, list) or not all(type(p) in _NUMBER_TYPES for p in priors):
                raise ProblemFileError(f"{path}: priors must be a list of numbers")
            ensemble = Ensemble(states, np.asarray(priors, dtype=float))
        povm = None
        if "povm" in doc:
            povm = Povm([matrix_from_json(m) for m in doc["povm"]])
        generators = None
        if "generators" in doc:
            generators = [matrix_from_json(m) for m in doc["generators"]]
    except ProblemFileError:
        raise
    except Exception as exc:
        raise ProblemFileError(f"{path}: malformed section: {exc}") from exc
    for section in (ensemble, povm):
        if section is not None and section.dim != d:
            raise ProblemFileError(f"{path}: section dimension {section.dim} != declared {d}")
    for g in generators or ():
        if g.shape != (d, d):
            raise ProblemFileError(f"{path}: generator shape {g.shape} != declared ({d}, {d})")
    return ProblemFile(
        dimension=d,
        ensemble=ensemble,
        povm=povm,
        generators=generators,
        metadata=doc.get("metadata", {}),
    )


def problem_to_json(
    dimension: int,
    ensemble: Ensemble | None = None,
    povm: Povm | None = None,
    generators=None,
    metadata: dict | None = None,
) -> dict:
    doc: dict = {"dimension": dimension}
    if ensemble is not None:
        doc["states"] = matrix_to_json(ensemble.states)
        doc["priors"] = [float(p) for p in ensemble.priors]
    if povm is not None:
        doc["povm"] = matrix_to_json(povm.operators)
    if generators is not None:
        doc["generators"] = [matrix_to_json(g) for g in generators]
    if metadata:
        doc["metadata"] = metadata
    return doc


def _write_json(out_dir: str, name: str, doc: dict, indent: int | None = 2) -> str:
    """Write ``doc`` to ``out_dir/name`` and return the path; without an indent json uses its C encoder."""
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=indent))
    return path


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    problem = load_problem(args.path)
    violations: list[str] = []
    report: dict = {"path": args.path, "dimension": problem.dimension}
    if problem.ensemble is not None:
        result = validate_ensemble(problem.ensemble)
        report["ensemble"] = {"ok": result.ok, "violations": result.violations}
        violations += [f"ensemble: {v}" for v in result.violations]
    if problem.povm is not None:
        result = validate_povm(problem.povm)
        report["povm"] = {"ok": result.ok, "violations": result.violations}
        violations += [f"povm: {v}" for v in result.violations]
    if problem.generators is not None:
        try:
            rep = generate_group(problem.generators, dim=problem.dimension)
            report["group"] = {"ok": True, "order": rep.order}
        except (ValueError, GroupNotFiniteError) as exc:
            report["group"] = {"ok": False, "violations": [str(exc)]}
            violations.append(f"group: {exc}")
    ok = not violations
    report["ok"] = ok
    for line in violations:
        print(line, file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("OK" if ok else f"INVALID ({len(violations)} violations)")
    return EXIT_OK if ok else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args) -> int:
    problem = load_problem(args.path)
    if problem.generators is None:
        raise ValueError("file contains no generators")
    rep = generate_group(problem.generators, dim=problem.dimension)
    result = {"order": rep.order, "complex": complex_orbit_bound(rep)}
    if args.real:
        result["real"] = real_orbit_bound(rep)
    if args.json:
        print(json.dumps(result))
    else:
        print(f"complex {result['complex']}")
        if args.real:
            print(f"real {result['real']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiments


def _float_strings(values: np.ndarray) -> list[str]:
    """repr of each float of a 1-D array; a list's repr formats them all in C."""
    return repr(values.tolist())[1:-1].split(", ")


def _row_strings(values: np.ndarray, negated: bool) -> list[str]:
    """repr of each float of a row that is its own mirror image, or minus it if ``negated``.

    Only the left half is formatted; the right half reuses those strings
    reversed, with the leading '-' toggled when ``negated``.
    """
    pairs = values.size // 2
    strings = _float_strings(values[: values.size - pairs])
    reflected = strings[pairs - 1 :: -1]
    if negated:
        reflected = [s[1:] if s[0] == "-" else "-" + s for s in reflected]
    return strings + reflected


def _write_surface_csv(path: str, scan) -> None:
    """Write a ``scan_surface`` result as (x, b, info_bits, dinfo_db) rows, x-major, one x block at a time.

    Every float is written as repr(float) writes it.  The b column is
    formatted once, and each row has only its left half formatted: the scan
    guarantees the reflection (see ``SurfaceScan``), so it is not checked here.
    """
    b_strings = _float_strings(scan.b)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("x,b,info_bits,dinfo_db\n")
        for x, info, dinfo in zip(scan.x.tolist(), scan.info, scan.dinfo_db):
            lines = zip(repeat(repr(x)), b_strings, _row_strings(info, False), _row_strings(dinfo, True))
            handle.write("\n".join(map(",".join, lines)) + "\n")


def _report_checks(rows) -> tuple[list[dict], bool]:
    """Compare (name, value, expected, tol) rows, print the table, return the JSON rows and verdict."""
    checked = [(name, float(value), float(expected), tol, bool(abs(value - expected) <= tol))
               for name, value, expected, tol in rows]
    width = max(len(name) for name, *_ in checked)
    for name, value, expected, tol, ok in checked:
        verdict = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {value: .6f}  expected {expected: .6f} +- {tol:g}  {verdict}")
    report = [{"name": n, "value": v, "expected": e, "tol": t, "pass": ok} for n, v, e, t, ok in checked]
    return report, all(ok for *_, ok in checked)


def _orbit_optimum(args, out_dir: str, alpha: float, *, head: dict, tail: dict) -> dict:
    """Scan the surface and find the single- and two-orbit optima.

    Writes surface.csv and optimum.json (the optimum keys between ``head``
    and ``tail``) and returns the optimum.
    """
    scan = scan_surface(alpha, nx=args.nx, nb=args.nb)
    _write_surface_csv(os.path.join(out_dir, "surface.csv"), scan)
    two = optimize_two_orbits(alpha)
    optimum = {
        **head,
        "single_orbit": {"b": two.single_b, "info_bits": two.single_info},
        "two_orbit": {
            "first": {"a": two.first.a, "b": two.first.b, "x": two.first.x},
            "second": {"a": two.second.a, "b": two.second.b, "x": two.second.x},
            "lam": two.lam,
            "info_bits": two.info_bits,
        },
        **tail,
    }
    _write_json(out_dir, "optimum.json", optimum)
    return optimum


def _experiment_lifted_trines(args, out_dir: str) -> tuple[dict, int]:
    alpha = args.alpha if args.alpha is not None else 0.05
    optimum = _orbit_optimum(args, out_dir, alpha, head={"alpha": alpha}, tail={})
    summary = {"experiment": "lifted-trines", "alpha": alpha, "optimum": optimum}
    if abs(alpha - 0.05) > 1e-12:
        # Reference values exist only for the slightly lifted case.
        print(f"alpha = {alpha:g}: no reference values; results written to {out_dir}")
        return summary, EXIT_OK
    single = optimum["single_orbit"]
    rows = [
        ("single_orbit_info", single["info_bits"], 0.8456, 5e-4),
        ("single_orbit_b", single["b"], 0.1377, 2e-3),
        ("orbit_info_planar", orbit_info(alpha, math.pi / 2, math.pi / 2), 0.15996, 5e-5),
        ("orbit_info_tilted", orbit_info(alpha, math.acos(math.sqrt(0.3831)), 0.0), 0.9499, 5e-4),
        ("two_orbit_info", optimum["two_orbit"]["info_bits"], 0.8472, 5e-4),
    ]
    summary["checks"], all_ok = _report_checks(rows)
    return summary, EXIT_OK if all_ok else EXIT_DOMAIN


def _experiment_double_trines(args, out_dir: str) -> tuple[dict, int]:
    alpha = 0.5
    closed = double_trines_closed_form()
    optimum = _orbit_optimum(args, out_dir, alpha, head={}, tail={"closed_form_bits": closed})
    _, projected = double_trines()
    pgm = pretty_good_measurement(projected)
    pgm_info = mutual_information(projected, pgm)
    hessian = hessian_at(alpha, 1.0 / 3.0, 0.0)
    eigenvalues = sorted(np.linalg.eigvalsh(hessian).tolist())
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    closed_hessian = [
        (81.0 - 27.0 * math.sqrt(2.0) * gamma) / (16.0 * math.log(2.0)),
        (6.0 - (2.0 + math.sqrt(2.0)) * gamma) / (3.0 * math.log(2.0)),
    ]
    _write_json(out_dir, "pgm.json", {**problem_to_json(projected.dim, povm=pgm), "info_bits": pgm_info})
    _write_json(out_dir, "hessian.json", {
        "at": {"x": 1.0 / 3.0, "b": 0.0},
        "matrix": [list(map(float, row)) for row in hessian],
        "eigenvalues": eigenvalues,
        "closed_form_diagonal": closed_hessian,
    })
    single = optimum["single_orbit"]
    rows = [
        ("closed_form", closed, 1.369, 1e-3),
        ("single_orbit_b", single["b"], 0.0, 1e-6),
        ("single_orbit_info", single["info_bits"], closed, 1e-9),
        ("pgm_info", pgm_info, closed, 1e-6),
        ("hessian_xx", hessian[0, 0], closed_hessian[0], 1e-12),
        ("hessian_bb", hessian[1, 1], closed_hessian[1], 1e-12),
    ]
    checks, all_ok = _report_checks(rows)
    negative_definite = eigenvalues[-1] < 0
    print(f"hessian_negative_definite  {negative_definite}  {'PASS' if negative_definite else 'FAIL'}")
    summary = {
        "experiment": "double-trines",
        "optimum": optimum,
        "pgm_info_bits": pgm_info,
        "hessian_eigenvalues": eigenvalues,
        "checks": checks + [{"name": "hessian_negative_definite", "pass": negative_definite}],
    }
    return summary, EXIT_OK if all_ok and negative_definite else EXIT_DOMAIN


def cmd_experiment(args) -> int:
    if args.alpha is not None and not 0.0 <= args.alpha <= 1.0:
        raise UsageError(f"--alpha must lie in [0, 1], got {args.alpha}")
    if args.alpha is not None and args.name == "double-trines":
        raise UsageError("--alpha applies to lifted-trines only; double-trines is fixed at alpha = 0.5")
    if args.nx < 2 or args.nb < 2:
        raise UsageError(f"--nx and --nb must be at least 2, got {args.nx} and {args.nb}")
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.name == "lifted-trines":
        summary, code = _experiment_lifted_trines(args, out_dir)
    else:
        summary, code = _experiment_double_trines(args, out_dir)
    if args.json:
        print(json.dumps(summary, indent=2))
    return code


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    problem = load_problem(args.path)
    if problem.povm is None:
        raise ValueError("file contains no POVM")
    validate_povm(problem.povm).require("POVM")
    if problem.ensemble is not None:
        validate_ensemble(problem.ensemble).require("ensemble")
    decomposition = decompose_identity(normalize_povm(problem.povm))
    doc = {
        "weights": [float(w) for w in decomposition.weights],
        "supports": [[int(j) for j in sup] for sup in decomposition.supports()],
        "solutions": [[float(v) for v in nu] for nu in decomposition.solutions],
    }
    if problem.ensemble is not None:
        infos = score_leaves(problem.ensemble, decomposition, problem.povm)
        doc["leaf_info_bits"] = infos
        doc["best_leaf"] = int(np.argmax(infos))
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# prune


def cmd_prune(args) -> int:
    problem = load_problem(args.path)
    group_problem = load_problem(args.group) if args.group else None
    if problem.ensemble is None or problem.povm is None:
        raise ValueError("pruning needs both an ensemble and a POVM")
    generators = problem.generators
    if group_problem is not None:
        if group_problem.dimension != problem.dimension:
            raise ProblemFileError(
                f"{args.group}: dimension {group_problem.dimension} != {problem.dimension} of {args.path}"
            )
        if group_problem.generators is None:
            raise ValueError("group file contains no generators")
        generators = group_problem.generators
    if args.real and generators is None:
        raise UsageError("--real needs group generators, from --group or the problem file")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    rep = generate_group(generators, dim=problem.dimension) if generators is not None else None
    pruned = prune_povm(problem.ensemble, problem.povm, rep, real_mode=args.real)
    # mutual_information without its second validation: prune_povm checked the POVM.
    joint = joint_distribution(problem.ensemble, problem.povm)
    info_before = _formal_information(joint, joint.sum(axis=1))
    info_after = pruned.info_bits
    doc = problem_to_json(problem.dimension, povm=pruned, metadata={"pruned_from": args.path})
    doc["report"] = {
        "operators_before": len(problem.povm),
        "operators_after": len(pruned),
        "info_bits_before": info_before,
        "info_bits_after": info_after,
        "design_rank": pruned.design_rank,
        "walk_steps": pruned.walk_steps,
    }
    if rep is not None:
        doc["report"]["orbit_count"] = len(pruned) // rep.order
        doc["report"]["group_order"] = rep.order
    if args.out_dir:
        out_path = _write_json(args.out_dir, "pruned.json", doc, indent=None)
        print(
            f"{len(problem.povm)} -> {len(pruned)} operators, "
            f"info {info_before:.6f} -> {info_after:.6f} bits, written to {out_path}"
        )
    else:
        print(json.dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povm-forge",
        description="Mutual information of quantum measurements: validation, bounds, pruning, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a problem file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bound", help="orbit-count bounds from the group in a problem file")
    p.add_argument("path")
    p.add_argument("--real", action="store_true", help="also print the real-representation bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="run a named experiment end to end")
    p.add_argument("name", choices=["lifted-trines", "double-trines"])
    p.add_argument("--alpha", type=float, default=None, help="lift parameter (lifted-trines only)")
    p.add_argument("--out-dir", default=".", help="directory for surface.csv and result JSON files")
    p.add_argument("--nx", type=int, default=200)
    p.add_argument("--nb", type=int, default=200)
    p.add_argument("--json", action="store_true", help="print the summary as JSON too")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("decompose", help="decompose a POVM into basic feasible solutions")
    p.add_argument("path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("prune", help="prune a POVM without losing mutual information")
    p.add_argument("path")
    p.add_argument("--group", default=None, help="problem file supplying group generators")
    p.add_argument("--real", action="store_true", help="use the real-representation bound")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_prune)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
