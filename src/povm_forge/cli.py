"""Command-line front end: validation, bounds, decomposition, experiments.

File format: JSON objects with keys "dimension", "states", "priors", "povm",
"generators", "metadata".  Complex numbers are [re, im] pairs and matrices are
row-major nested arrays, so files port trivially across languages.  All
emitted floats use Python's shortest round-trip representation, which
re-parses bit-identically.

Exit codes: 0 success, 1 domain failure (validation, symmetry, closure),
2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .caratheodory import decompose_identity, prune_povm, prune_symmetric_povm, score_leaves
from .infotheory import mutual_information
from .quantum import (
    Ensemble,
    Povm,
    normalize_povm,
    pretty_good_measurement,
    validate_ensemble,
    validate_povm,
)
from .symmetry import (
    FiniteRep,
    GroupNotFiniteError,
    complex_orbit_bound,
    generate_group,
    real_orbit_bound,
)
from .trines import (
    double_trines,
    double_trines_closed_form,
    hessian_at,
    lifted_trines,
    optimize_single_orbit,
    optimize_two_orbits,
    orbit_info,
    scan_surface,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class ProblemFileError(ValueError):
    """Raised when a problem file cannot be parsed into the schema."""


# ---------------------------------------------------------------------------
# JSON schema


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def _complex_from_json(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
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
    if not isinstance(d, int) or d < 1:
        raise ProblemFileError(f"{path}: dimension must be a positive integer")
    try:
        ensemble = None
        if "states" in doc:
            states = [matrix_from_json(m) for m in doc["states"]]
            priors = doc.get("priors")
            if priors is None:
                priors = [1.0 / len(states)] * len(states)
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
        doc["states"] = [matrix_to_json(s) for s in ensemble.states]
        doc["priors"] = [float(p) for p in ensemble.priors]
    if povm is not None:
        doc["povm"] = [matrix_to_json(op) for op in povm.operators]
    if generators is not None:
        doc["generators"] = [matrix_to_json(g) for g in generators]
    if metadata:
        doc["metadata"] = metadata
    return doc


def _max_workers() -> int | None:
    raw = os.environ.get("POVM_FORGE_THREADS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    try:
        problem = load_problem(args.path)
    except (OSError, ProblemFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations: list[str] = []
    report: dict = {"path": args.path, "dimension": problem.dimension}
    if problem.ensemble is not None:
        result = validate_ensemble(problem.ensemble, tol=args.tol)
        report["ensemble"] = {"ok": result.ok, "violations": result.violations}
        violations += [f"ensemble: {v}" for v in result.violations]
    if problem.povm is not None:
        result = validate_povm(problem.povm, tol=args.tol)
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
    try:
        problem = load_problem(args.path)
    except (OSError, ProblemFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if problem.generators is None:
        print("error: file contains no generators", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        rep = generate_group(problem.generators, dim=problem.dimension)
        result = {"order": rep.order, "complex": complex_orbit_bound(rep)}
        if args.real:
            result["real"] = real_orbit_bound(rep)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        print(json.dumps(result))
    else:
        print(f"complex {result['complex']}")
        if args.real:
            print(f"real {result['real']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiments


def _write_surface_csv(path: str, scan) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "b", "info_bits", "dinfo_db"])
        for row in scan.rows():
            writer.writerow([repr(v) for v in row])


def _check_rows(rows) -> tuple[list[tuple], bool]:
    checked = []
    all_ok = True
    for name, value, expected, tol in rows:
        ok = bool(abs(value - expected) <= tol)
        all_ok = all_ok and ok
        checked.append((name, float(value), float(expected), tol, ok))
    return checked, all_ok


def _print_summary(checked: list[tuple]) -> None:
    width = max(len(name) for name, *_ in checked)
    for name, value, expected, tol, ok in checked:
        verdict = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {value: .6f}  expected {expected: .6f} +- {tol:g}  {verdict}")


def _experiment_lifted_trines(args, out_dir: str) -> tuple[dict, int]:
    alpha = args.alpha if args.alpha is not None else 0.05
    scan = scan_surface(alpha, nx=args.nx, nb=args.nb, max_workers=_max_workers())
    _write_surface_csv(os.path.join(out_dir, "surface.csv"), scan)
    b_star, single_info = optimize_single_orbit(alpha)
    two = optimize_two_orbits(alpha)
    optimum = {
        "alpha": alpha,
        "single_orbit": {"b": b_star, "info_bits": single_info},
        "two_orbit": {
            "first": {"a": two.first.a, "b": two.first.b, "x": two.first.x},
            "second": {"a": two.second.a, "b": two.second.b, "x": two.second.x},
            "lam": two.lam,
            "info_bits": two.info_bits,
        },
    }
    with open(os.path.join(out_dir, "optimum.json"), "w", encoding="utf-8") as handle:
        json.dump(optimum, handle, indent=2)
    summary = {"experiment": "lifted-trines", "alpha": alpha, "optimum": optimum}
    if abs(alpha - 0.05) > 1e-12:
        # Reference values exist only for the slightly lifted case.
        print(f"alpha = {alpha:g}: no reference values; results written to {out_dir}")
        return summary, EXIT_OK
    rows = [
        ("single_orbit_info", single_info, 0.8456, 5e-4),
        ("single_orbit_b", b_star, 0.1377, 2e-3),
        ("orbit_info_planar", orbit_info(alpha, math.pi / 2, math.pi / 2), 0.15996, 5e-5),
        ("orbit_info_tilted", orbit_info(alpha, math.acos(math.sqrt(0.3831)), 0.0), 0.9499, 5e-4),
        ("two_orbit_info", two.info_bits, 0.8472, 5e-4),
    ]
    checked, all_ok = _check_rows(rows)
    _print_summary(checked)
    summary["checks"] = [
        {"name": n, "value": v, "expected": e, "tol": t, "pass": ok} for n, v, e, t, ok in checked
    ]
    return summary, EXIT_OK if all_ok else EXIT_DOMAIN


def _experiment_double_trines(args, out_dir: str) -> tuple[dict, int]:
    alpha = 0.5
    scan = scan_surface(alpha, nx=args.nx, nb=args.nb, max_workers=_max_workers())
    _write_surface_csv(os.path.join(out_dir, "surface.csv"), scan)
    b_star, single_info = optimize_single_orbit(alpha)
    two = optimize_two_orbits(alpha)
    closed = double_trines_closed_form()
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
    optimum = {
        "single_orbit": {"b": b_star, "info_bits": single_info},
        "two_orbit": {
            "first": {"a": two.first.a, "b": two.first.b, "x": two.first.x},
            "second": {"a": two.second.a, "b": two.second.b, "x": two.second.x},
            "lam": two.lam,
            "info_bits": two.info_bits,
        },
        "closed_form_bits": closed,
    }
    with open(os.path.join(out_dir, "optimum.json"), "w", encoding="utf-8") as handle:
        json.dump(optimum, handle, indent=2)
    with open(os.path.join(out_dir, "pgm.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "dimension": projected.dim,
                "povm": [matrix_to_json(op) for op in pgm.operators],
                "info_bits": pgm_info,
            },
            handle,
            indent=2,
        )
    with open(os.path.join(out_dir, "hessian.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "at": {"x": 1.0 / 3.0, "b": 0.0},
                "step": 1e-4,
                "matrix": [list(map(float, row)) for row in hessian],
                "eigenvalues": eigenvalues,
                "closed_form_diagonal": closed_hessian,
            },
            handle,
            indent=2,
        )
    rows = [
        ("closed_form", closed, 1.369, 1e-3),
        ("single_orbit_b", b_star, 0.0, 1e-6),
        ("single_orbit_info", single_info, closed, 1e-9),
        ("pgm_info", pgm_info, closed, 1e-6),
        ("hessian_xx", hessian[0, 0], closed_hessian[0], 1e-2),
        ("hessian_bb", hessian[1, 1], closed_hessian[1], 1e-2),
    ]
    checked, all_ok = _check_rows(rows)
    negative_definite = eigenvalues[-1] < 0
    all_ok = all_ok and negative_definite
    _print_summary(checked)
    print(f"hessian_negative_definite  {negative_definite}  {'PASS' if negative_definite else 'FAIL'}")
    summary = {
        "experiment": "double-trines",
        "optimum": optimum,
        "pgm_info_bits": pgm_info,
        "hessian_eigenvalues": eigenvalues,
        "checks": [
            {"name": n, "value": v, "expected": e, "tol": t, "pass": ok}
            for n, v, e, t, ok in checked
        ]
        + [{"name": "hessian_negative_definite", "pass": negative_definite}],
    }
    return summary, EXIT_OK if all_ok else EXIT_DOMAIN


def cmd_experiment(args) -> int:
    if args.alpha is not None and not 0.0 <= args.alpha <= 1.0:
        print(f"error: --alpha must lie in [0, 1], got {args.alpha}", file=sys.stderr)
        return EXIT_USAGE
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
    try:
        problem = load_problem(args.path)
    except (OSError, ProblemFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if problem.povm is None:
        print("error: file contains no POVM", file=sys.stderr)
        return EXIT_DOMAIN
    report = validate_povm(problem.povm, tol=args.tol)
    if not report.ok:
        for line in report.violations:
            print(f"povm: {line}", file=sys.stderr)
        return EXIT_DOMAIN
    normalized = normalize_povm(problem.povm)
    decomposition = decompose_identity(normalized)
    doc = {
        "weights": [float(w) for w in decomposition.weights],
        "supports": [[int(j) for j in sup] for sup in decomposition.supports()],
        "solutions": [[float(v) for v in nu] for nu in decomposition.solutions],
    }
    if problem.ensemble is not None:
        infos, _ = score_leaves(problem.ensemble, decomposition, normalized.normalized_ops)
        doc["leaf_info_bits"] = infos
        doc["best_leaf"] = int(np.argmax(infos))
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# prune


def cmd_prune(args) -> int:
    try:
        problem = load_problem(args.path)
        group_problem = load_problem(args.group) if args.group else None
    except (OSError, ProblemFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if problem.ensemble is None or problem.povm is None:
        print("error: pruning needs both an ensemble and a POVM", file=sys.stderr)
        return EXIT_DOMAIN
    generators = None
    if group_problem is not None:
        generators = group_problem.generators
    elif problem.generators is not None:
        generators = problem.generators
    info_before = mutual_information(problem.ensemble, problem.povm)
    rep: FiniteRep | None = None
    try:
        if generators is not None:
            rep = generate_group(generators, dim=problem.dimension)
            pruned = prune_symmetric_povm(problem.ensemble, problem.povm, rep, real_mode=args.real)
        else:
            pruned = prune_povm(problem.ensemble, problem.povm)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    info_after = mutual_information(problem.ensemble, pruned)
    doc = problem_to_json(problem.dimension, povm=pruned, metadata={"pruned_from": args.path})
    doc["report"] = {
        "operators_before": len(problem.povm),
        "operators_after": len(pruned),
        "info_bits_before": info_before,
        "info_bits_after": info_after,
    }
    if rep is not None:
        doc["report"]["orbit_count"] = len(pruned) // rep.order
        doc["report"]["group_order"] = rep.order
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        out_path = os.path.join(args.out_dir, "pruned.json")
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
        print(
            f"{len(problem.povm)} -> {len(pruned)} operators, "
            f"info {info_before:.6f} -> {info_after:.6f} bits, written to {out_path}"
        )
    else:
        print(json.dumps(doc, indent=2))
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
    p.add_argument("--tol", type=float, default=1e-9)
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
    p.add_argument("--json", action="store_true", help="(output is always JSON)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("prune", help="prune a POVM without losing mutual information")
    p.add_argument("path")
    p.add_argument("--group", default=None, help="problem file supplying group generators")
    p.add_argument("--real", action="store_true", help="use the real-representation bound")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_prune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
