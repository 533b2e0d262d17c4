import argparse
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from povm_forge import (
    Ensemble,
    Povm,
    SurfaceScan,
    cli,
    generate_group,
    lifted_trines,
    mutual_information,
    orbit_projectors,
    scan_surface,
    symmetrize,
    trine_rotation,
)
import povm_forge
from povm_forge import caratheodory, infotheory, trines
from povm_forge.cli import (
    ProblemFileError,
    _write_surface_csv,
    build_parser,
    load_problem,
    main,
    matrix_from_json,
    matrix_json_text,
    matrix_to_json,
    problem_to_json,
)
from helpers import random_ensemble, random_povm, random_unit_vector, weyl_heisenberg_generators

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data")


def fixture(name):
    return os.path.join(DATA, name)


def write_problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(50)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert matrix_to_json(m) == [[[float(z.real), float(z.imag)] for z in row] for row in m]
    again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(m, again)
    # signed zeros, the smallest subnormal, huge values and plain JSON integers keep their bits
    rows = [[[-0.0, -0.0], [5e-324, -5e-324]], [[1e300, -1e300], [3, -7]]]
    expected = np.array([[complex(re, im) for re, im in row] for row in rows])
    again = matrix_from_json(json.loads(json.dumps(rows)))
    assert np.array_equal(again.view(np.uint64), expected.view(np.uint64))


def test_matrix_from_json_accepts_bare_reals(tmp_path):
    m = matrix_from_json([[1, 0], [0, 1]])
    assert np.array_equal(m, np.eye(2))
    # a file written wholly in bare reals loads as if every entry were [re, 0.0]
    doc = {
        "dimension": 2,
        "states": [[[1, 0], [0, 0]], [[0.5, 0.5], [0.5, 0.5]]],
        "povm": [[[1.0, 0], [0, 0]], [[0, 0], [0, 1]]],
        "generators": [[[0, 1], [1, -0.0]]],
    }
    problem = load_problem(write_problem(tmp_path, "bare.json", doc))
    assert np.array_equal(problem.ensemble.states, np.array(doc["states"]))
    assert np.array_equal(problem.ensemble.priors, [0.5, 0.5])
    assert np.array_equal(problem.povm.operators, np.array(doc["povm"]))
    generators = np.array(doc["generators"], dtype=complex)
    assert np.array_equal(problem.generators.view(np.uint64), generators.view(np.uint64))


def test_matrix_from_json_rejects_garbage():
    for rows in ([[[1, 2, 3]]], [[1, 0], [0]], [1, 0]):
        with pytest.raises(ProblemFileError):
            matrix_from_json(rows)


def test_load_problem_round_trips_bit_identically(tmp_path):
    rng = np.random.default_rng(51)
    ensemble = random_ensemble(rng, 2, 3)
    povm = random_povm(rng, 2, 4)
    generators = [np.diag([1.0, -1.0]), np.array([[0, 1j], [1j, 0]])]
    doc = problem_to_json(2, ensemble=ensemble, povm=povm, generators=generators, metadata={"name": "round"})
    path = write_problem(tmp_path, "round.json", doc)
    problem = load_problem(path)
    again = problem_to_json(
        2, ensemble=problem.ensemble, povm=problem.povm, generators=problem.generators, metadata=problem.metadata
    )
    assert json.dumps(doc) == json.dumps(again)
    assert doc["generators"] == [matrix_to_json(g) for g in generators]
    assert problem_to_json(2, generators=[]) == {"dimension": 2, "generators": []}


def test_validate_bundled_fixtures_exit_zero(capsys):
    for name in ("lifted_trines_0.05.json", "four_projectors_d2.json", "s3_irrep_2d.json"):
        assert main(["validate", fixture(name)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_validate_bad_priors_exit_one(tmp_path, capsys):
    doc = problem_to_json(2, ensemble=None)
    doc["states"] = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]
    doc["priors"] = [0.5, 0.6]
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "priors" in err


def test_validate_negative_priors_exit_one(tmp_path, capsys):
    # the priors sum to 1, so only the sign check rules them out
    ensemble = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([1.5, -0.5]))
    path = write_problem(tmp_path, "negative.json", problem_to_json(2, ensemble=ensemble))
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("INVALID (1 violations)\n", "ensemble: priors contain negative entries\n")


@pytest.mark.parametrize("command", [["validate"], ["prune"], ["prune", "--real"], ["decompose"]],
                         ids=["validate", "prune", "prune-real", "decompose"])
def test_nan_priors_exit_one(tmp_path, capsys, command):
    # Python's json reads NaN; a NaN prior makes every information NaN or 0
    with open(fixture("lifted_trines_0.05.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["priors"] = [float("nan")] * len(doc["states"])
    path = write_problem(tmp_path, "nan.json", doc)
    assert main([command[0], path, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert "priors sum to nan" in captured.err
    assert "Traceback" not in captured.err


def _bool_dimension(doc):
    doc["dimension"] = True


def _bool_entry(doc):
    doc["states"][0][0][0] = True


def _string_prior(doc):
    doc["priors"][0] = str(doc["priors"][0])


@pytest.mark.parametrize("edit, message", [(_bool_dimension, "dimension must be a positive integer"),
                                           (_bool_entry, "expected a number or [re, im] pair, got True"),
                                           (_string_prior, "priors must be a list of numbers")],
                         ids=["bool-dimension", "bool-entry", "string-prior"])
def test_validate_rejects_non_numbers_exit_two(tmp_path, capsys, edit, message):
    # json reads true as a bool, which Python counts as the int 1
    doc = problem_to_json(1, ensemble=Ensemble([np.eye(1)], np.ones(1)), povm=Povm([np.eye(1)]))
    edit(doc)
    path = write_problem(tmp_path, "typed.json", doc)
    assert main(["validate", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize(
    "dimension, section, value",
    [
        (2, "povm", [[[1, 0], [0]]]),
        (2, "povm", [[[True, 0], [0, 1]]]),
        (2, "states", [[[1, 0], [0, "0"]]]),
        (2, "povm", [[[[1, 0], 0], [0, [1, 0]]]]),
        (3, "generators", [[[0, 1], [1, 0]]]),
        (2, "generators", {"swap": [[0, 1], [1, 0]]}),
        (2, "povm", []),
    ],
    ids=["ragged-rows", "bool-entry", "string-entry", "mixed-pairs", "wrong-dimension", "not-a-list", "empty-povm"],
)
def test_parse_errors_name_the_file_and_section(tmp_path, capsys, dimension, section, value):
    path = write_problem(tmp_path, "bad.json", {"dimension": dimension, section: value})
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {section}: ")


def test_prune_names_the_bad_group_file(tmp_path, capsys):
    group = write_problem(tmp_path, "group.json", {"dimension": 2, "generators": [[[1, 0], [0]]]})
    assert main(["prune", fixture("four_projectors_d2.json"), "--group", group]) == 2
    assert capsys.readouterr().err.startswith(f"error: {group}: generators: ")


def test_validate_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("doc", [[2], "dimension", {"states": []}], ids=["list", "string", "no-dimension"])
def test_top_level_must_be_an_object_with_a_dimension_exit_two(tmp_path, capsys, doc):
    path = write_problem(tmp_path, "top.json", doc)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected an object with a 'dimension' key\n"


def test_validate_json_report(tmp_path, capsys):
    assert main(["validate", fixture("lifted_trines_0.05.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["group"]["order"] == 3


def test_validate_reports_a_group_that_fails(tmp_path, capsys):
    # every entry of diag(1, 0.5) has modulus at most 1, so only U^dagger U - I rules it out
    path = write_problem(tmp_path, "shrink.json", problem_to_json(2, generators=[np.diag([1.0, 0.5])]))
    assert main(["validate", path, "--json"]) == 1
    captured = capsys.readouterr()
    message = "matrix is not unitary: max |U^dagger U - I| = 7.500e-01"
    assert captured.err == f"group: {message}\n"
    report = {"path": path, "dimension": 2, "group": {"ok": False, "violations": [message]}, "ok": False}
    assert json.loads(captured.out) == report


def test_bound_trine_group(capsys):
    assert main(["bound", fixture("lifted_trines_0.05.json"), "--real"]) == 0
    out = capsys.readouterr().out
    assert "complex 3" in out
    assert "real 2" in out


def test_bound_trivial_group(tmp_path, capsys):
    doc = {"dimension": 3, "generators": []}
    path = write_problem(tmp_path, "trivial.json", doc)
    assert main(["bound", path, "--real", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"order": 1, "complex": 9, "real": 6}


def test_bound_irreducible_rep(capsys):
    assert main(["bound", fixture("s3_irrep_2d.json")]) == 0
    assert "complex 1" in capsys.readouterr().out


def test_bound_without_generators(tmp_path, capsys):
    path = write_problem(tmp_path, "nogen.json", {"dimension": 2})
    assert main(["bound", path]) == 1


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("decompose", {"dimension": 2}, "file contains no POVM"),
        ("prune", {"dimension": 2, "povm": [np.eye(2).tolist()]}, "pruning needs both an ensemble and a POVM"),
    ],
    ids=["decompose-without-povm", "prune-without-states"],
)
def test_missing_sections_exit_one(tmp_path, capsys, command, doc, message):
    path = write_problem(tmp_path, "partial.json", doc)
    assert main([command, path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bound_nan_generator_exit_one(tmp_path, capsys):
    # Python's json reads NaN; the generator must fail the unitarity check
    path = tmp_path / "nan_generator.json"
    path.write_text('{"dimension": 2, "generators": [[[NaN, 0], [0, 1]]]}')
    assert main(["bound", str(path)]) == 1
    err = capsys.readouterr().err
    assert "not unitary" in err and "Traceback" not in err


def test_generator_dimension_mismatch_exit_two(tmp_path, capsys):
    # a 2 x 2 swap in a file that declares dimension 3
    path = write_problem(tmp_path, "mismatch.json", {"dimension": 3, "generators": [[[0, 1], [1, 0]]]})
    with pytest.raises(ProblemFileError, match="generator"):
        load_problem(path)
    for command in ("validate", "bound"):
        assert main([command, path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_unknown_experiment_exits_two():
    with pytest.raises(SystemExit) as caught:
        main(["experiment", "unknown-name"])
    assert caught.value.code == 2


def test_experiment_alpha_out_of_range(tmp_path):
    assert main(["experiment", "lifted-trines", "--alpha", "1.5", "--out-dir", str(tmp_path)]) == 2


def test_double_trines_rejects_alpha(tmp_path, capsys):
    # double trines are fixed at alpha = 0.5; a lift would be silently ignored
    out_dir = tmp_path / "out"
    assert main(["experiment", "double-trines", "--alpha", "0.17", "--out-dir", str(out_dir)]) == 2
    assert_domain_error(capsys)
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--nx", "--nb"])
def test_experiment_single_point_grid_exit_two(tmp_path, capsys, flag):
    assert main(["experiment", "double-trines", "--out-dir", str(tmp_path), flag, "1"]) == 2
    assert_domain_error(capsys)


def test_experiment_out_dir_is_a_file_exit_two(tmp_path, capsys):
    path = write_problem(tmp_path, "taken", {})
    assert main(["experiment", "double-trines", "--out-dir", path, "--nx", "4", "--nb", "4"]) == 2
    assert_domain_error(capsys)


def test_experiment_lifted_trines(tmp_path, capsys):
    code = main(
        [
            "experiment",
            "lifted-trines",
            "--alpha",
            "0.05",
            "--out-dir",
            str(tmp_path),
            "--nx",
            "24",
            "--nb",
            "24",
            "--json",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5
    assert "FAIL" not in out
    surface = (tmp_path / "surface.csv").read_text().splitlines()
    assert surface[0] == "x,b,info_bits,dinfo_db"
    assert len(surface) == 1 + 24 * 24
    optimum = json.loads((tmp_path / "optimum.json").read_text())
    assert abs(optimum["single_orbit"]["info_bits"] - 0.8456) <= 5e-4


def test_experiment_lifted_trines_degenerate(tmp_path, capsys):
    code = main(
        ["experiment", "lifted-trines", "--alpha", "1.0", "--out-dir", str(tmp_path), "--nx", "8", "--nb", "8"]
    )
    assert code == 0
    optimum = json.loads((tmp_path / "optimum.json").read_text())
    assert abs(optimum["single_orbit"]["info_bits"]) <= 1e-9


def test_experiment_double_trines(tmp_path, capsys):
    code = main(
        ["experiment", "double-trines", "--out-dir", str(tmp_path), "--nx", "16", "--nb", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    pgm = json.loads((tmp_path / "pgm.json").read_text())
    assert abs(pgm["info_bits"] - 1.369) <= 1e-3
    hessian = json.loads((tmp_path / "hessian.json").read_text())
    assert hessian["eigenvalues"][1] < 0


def test_hessian_json_is_the_closed_form(tmp_path, capsys):
    # no finite-difference step to report; the diagonal is the paper's to rounding
    argv = ["experiment", "double-trines", "--out-dir", str(tmp_path), "--nx", "4", "--nb", "4"]
    assert main(argv) == 0
    hessian = json.loads((tmp_path / "hessian.json").read_text())
    assert set(hessian) == {"at", "matrix", "eigenvalues", "closed_form_diagonal"}
    assert np.max(np.abs(np.diag(hessian["matrix"]) - hessian["closed_form_diagonal"])) <= 1e-12


@pytest.mark.parametrize("name", ["lifted-trines", "double-trines"])
def test_experiment_runs_the_single_orbit_search_once(tmp_path, capsys, monkeypatch, name):
    calls = []
    search = trines.optimize_single_orbit

    def counted(alpha):
        calls.append(alpha)
        return search(alpha)

    # the search may be reached through trines or through a name cli imported
    monkeypatch.setattr(trines, "optimize_single_orbit", counted)
    monkeypatch.setattr(cli, "optimize_single_orbit", counted, raising=False)
    assert main(["experiment", name, "--out-dir", str(tmp_path), "--nx", "4", "--nb", "4"]) == 0
    assert len(calls) == 1


def test_surface_csv_deterministic(tmp_path):
    main(["experiment", "lifted-trines", "--alpha", "0.3", "--out-dir", str(tmp_path / "a"), "--nx", "8", "--nb", "8"])
    main(["experiment", "lifted-trines", "--alpha", "0.3", "--out-dir", str(tmp_path / "b"), "--nx", "8", "--nb", "8"])
    assert (tmp_path / "a" / "surface.csv").read_bytes() == (tmp_path / "b" / "surface.csv").read_bytes()


def per_row_surface_csv(scan) -> bytes:
    """The surface CSV written one x-major row at a time with repr(float)."""
    lines = ["x,b,info_bits,dinfo_db"]
    for i, x in enumerate(scan.x):
        for j, b in enumerate(scan.b):
            row = [float(x), float(b), float(scan.info[i, j]), float(scan.dinfo_db[i, j])]
            lines.append(",".join(map(repr, row)))
    return ("\n".join(lines) + "\n").encode()


def mirrored(left: np.ndarray, nb: int, sign: float) -> np.ndarray:
    """Rows whose first ceil(nb / 2) entries are ``left`` and the rest ``sign`` times their mirror."""
    return np.concatenate([left, sign * left[:, nb - left.shape[1] - 1 :: -1]], axis=1)


@pytest.mark.parametrize("kind", ["scan", "scan-even", "edge-values"])
def test_surface_csv_matches_per_row_repr(tmp_path, kind):
    if kind == "scan":
        scan = scan_surface(0.05, nx=7, nb=5)
    elif kind == "scan-even":
        scan = scan_surface(0.3, nx=9, nb=8)
    else:
        # values whose shortest repr needs a sign, an exponent or 17 digits, and
        # zeros of both signs, mirrored as a scan mirrors them
        scan = SurfaceScan(
            alpha=0.05,
            x=np.array([-0.0, 1e16]),
            b=np.array([5e-324, 0.1 + 0.2, 1e-5, 0.5, 1.0, 2.0]),
            info=mirrored(np.array([[-0.0, 5e-324, 1e16], [1e-5, 0.1 + 0.2, 123456.789]]), 6, 1.0),
            dinfo_db=mirrored(np.array([[-1e-5, -0.1 - 0.2, -5e-324], [-1e16, 0.0, -0.0]]), 6, -1.0),
        )
    path = tmp_path / "surface.csv"
    _write_surface_csv(str(path), scan)
    written = path.read_bytes()
    assert written == per_row_surface_csv(scan)
    assert b"np.float64(" not in written
    assert len(written.splitlines()) == 1 + scan.x.size * scan.b.size


def test_decompose_identity_file(tmp_path, capsys):
    path = write_problem(tmp_path, "id.json", {"dimension": 2, "povm": [matrix_to_json(np.eye(2))]})
    assert main(["decompose", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [1.0]


def test_decompose_four_projectors(capsys):
    assert main(["decompose", fixture("four_projectors_d2.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["weights"]) == 2
    assert all(len(sup) == 2 for sup in doc["supports"])
    assert "leaf_info_bits" in doc and "best_leaf" in doc


def test_decompose_best_leaf_not_worse(capsys):
    assert main(["decompose", fixture("lifted_trines_0.05.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    problem = load_problem(fixture("lifted_trines_0.05.json"))
    before = mutual_information(problem.ensemble, problem.povm)
    assert max(doc["leaf_info_bits"]) >= before - 1e-9


def test_decompose_invalid_povm_exit_one(tmp_path, capsys):
    path = write_problem(
        tmp_path, "bad_povm.json", {"dimension": 2, "povm": [matrix_to_json(np.diag([0.5, 0.5]))]}
    )
    assert main(["decompose", path]) == 1


def near_complete_problem(tmp_path):
    """Ensemble and a POVM whose operators sum to I only within 1e-5."""
    povm = Povm([np.diag([0.5 + 1e-5, 0.5]), np.diag([0.5, 0.5])])
    ensemble = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])
    return write_problem(tmp_path, "near.json", problem_to_json(2, ensemble=ensemble, povm=povm))


def assert_domain_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "decompose", "prune"])
def test_near_complete_povm_exit_one_on_every_command(tmp_path, capsys, command):
    # one tolerance: what validate rejects, decompose and prune reject too
    assert main([command, near_complete_problem(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "sum to the identity" in err
    assert "Traceback" not in err
    if command != "validate":
        # decompose and prune word invalid input alike
        assert err == "error: invalid POVM: operators do not sum to the identity: max deviation 1.000e-05\n"


def test_decompose_has_no_tol_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", near_complete_problem(tmp_path), "--tol", "1e-3"])
    assert exc.value.code == 2


def test_decompose_has_no_json_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", fixture("four_projectors_d2.json"), "--json"])
    assert exc.value.code == 2


def test_cli_options_are_pinned():
    # every knob is listed here, so a new one has to edit this pin
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {o for action in sub._actions for o in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert options == {
        "validate": {"--json"},
        "bound": {"--real", "--json"},
        "experiment": {"--alpha", "--out-dir", "--nx", "--nb", "--json"},
        "decompose": set(),
        "prune": {"--group", "--real", "--out-dir"},
    }


def test_library_defaults_are_pinned():
    # every settable value of the library is listed here, so a new one has to edit this pin
    exported = {
        name: obj for name, obj in vars(povm_forge).items()
        if callable(obj) and not name.startswith("_") and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    exported.update({"cli.problem_to_json": cli.problem_to_json, "cli.main": cli.main})
    defaults = {}
    for name, obj in exported.items():
        params = inspect.signature(obj).parameters.values()
        settable = [p.name for p in params if p.default is not p.empty]
        if settable:
            defaults[name] = settable
    assert defaults == {
        "FiniteRep": ["generators"],
        "ValidationReport": ["violations"],
        "generate_group": ["dim"],
        "prune_povm": ["rep", "real_mode"],
        "scan_surface": ["nx", "nb"],
        "single_orbit_rank_argument": ["alpha"],
        "cli.problem_to_json": ["ensemble", "povm", "generators", "metadata"],
        "cli.main": ["argv"],
    }


def tolerated_negative_parts_problem():
    """A qubit POVM whose 39 random operators (1/40) v v^dagger - 9e-10 w w^dagger, w orthogonal
    to v, each pass validation, and whose 40th is I minus them, with a two-state ensemble.

    Together, the negative parts that the rank-one split drops move the identity by about 2e-8.
    """
    rng = np.random.default_rng(40)
    ops = []
    for _ in range(39):
        v = random_unit_vector(rng, 2)
        w = np.array([-v[1].conj(), v[0].conj()])
        ops.append(np.outer(v, v.conj()) / 40 - 9e-10 * np.outer(w, w.conj()))
    ops.append(np.eye(2) - sum(ops))
    return Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5]), Povm(ops)


@pytest.mark.parametrize("command", ["validate", "decompose", "prune"])
def test_tolerated_negative_parts_exit_zero_on_every_command(tmp_path, capsys, command):
    # prune trusts validate's completeness verdict instead of ruling again on its split
    ensemble, povm = tolerated_negative_parts_problem()
    path = write_problem(tmp_path, "negative_parts.json", problem_to_json(2, ensemble=ensemble, povm=povm))
    extra = ["--out-dir", str(tmp_path / "out")] if command == "prune" else []
    assert main([command, path, *extra]) == 0
    assert capsys.readouterr().err == ""


def test_tolerated_negative_parts_prune_to_a_complete_povm():
    ensemble, povm = tolerated_negative_parts_problem()
    assert min(np.linalg.eigvalsh(povm.operators[:-1])[:, 0]) < -8e-10
    pruned = povm_forge.prune_povm(ensemble, povm)
    assert np.max(np.abs(pruned.operators.sum(axis=0) - np.eye(2))) <= 1e-12
    assert povm_forge.validate_povm(pruned).ok
    assert pruned.info_bits >= mutual_information(ensemble, povm)


@pytest.mark.parametrize("command", ["validate", "prune", "decompose"])
def test_povm_at_the_sign_tolerance_exit_zero(tmp_path, capsys, command):
    # an eigenvalue of -5e-10 passes validation, so every command accepts it
    povm = Povm([np.diag([1.0, -5e-10]), np.diag([0.0, 1.0 + 5e-10])])
    ensemble = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])
    path = write_problem(tmp_path, "floor.json", problem_to_json(2, ensemble=ensemble, povm=povm))
    extra = ["--out-dir", str(tmp_path / "out")] if command == "prune" else []
    assert main([command, path, *extra]) == 0
    assert capsys.readouterr().err == ""


def zero_outcome_problems():
    """Two POVMs with a zero outcome, each with a two-state ensemble: outcome 1 of
    {diag(1, 0.3), 0, diag(0, 0.7)}, and outcome 0 of {diag(1.5e-12, -0.8e-12), I minus it},
    whose max-norm is above ZERO_TOL but whose trace is not."""
    ensemble = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])
    tiny = np.diag([1.5e-12, -0.8e-12])
    return {
        "zero": (ensemble, Povm([np.diag([1.0, 0.3]), np.zeros((2, 2)), np.diag([0.0, 0.7])]), 1),
        "tiny-trace": (ensemble, Povm([tiny, np.eye(2) - tiny]), 0),
    }


def write_zero_outcome_problem(tmp_path, name):
    ensemble, povm, zero = zero_outcome_problems()[name]
    return write_problem(tmp_path, f"{name}.json", problem_to_json(2, ensemble=ensemble, povm=povm)), zero


@pytest.mark.parametrize("name", ["zero", "tiny-trace"])
@pytest.mark.parametrize("command", ["validate", "prune", "decompose"])
def test_zero_outcome_exit_zero_on_every_command(tmp_path, capsys, name, command):
    # a zero outcome is a legal POVM element, so no command rejects it
    path, _ = write_zero_outcome_problem(tmp_path, name)
    assert main([command, path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["zero", "tiny-trace"])
def test_prune_writes_no_zero_operator(tmp_path, capsys, name):
    path, _ = write_zero_outcome_problem(tmp_path, name)
    assert main(["prune", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    ops = np.array([matrix_from_json(m) for m in doc["povm"]])
    assert np.all(np.max(np.abs(ops), axis=(1, 2)) > 1e-12)
    assert doc["report"]["info_bits_after"] >= doc["report"]["info_bits_before"]


@pytest.mark.parametrize("name", ["zero", "tiny-trace"])
def test_decompose_puts_weight_zero_on_the_zero_outcome(tmp_path, capsys, name):
    path, zero = write_zero_outcome_problem(tmp_path, name)
    assert main(["decompose", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solutions"]
    assert all(nu[zero] == 0.0 for nu in doc["solutions"])
    assert all(zero not in support for support in doc["supports"])


def test_prune_plain(tmp_path, capsys):
    rng = np.random.default_rng(52)
    ensemble = random_ensemble(rng, 2, 3)
    povm = random_povm(rng, 2, 7)
    doc = problem_to_json(2, ensemble=ensemble, povm=povm)
    path = write_problem(tmp_path, "prune_me.json", doc)
    assert main(["prune", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["operators_after"] <= 4
    assert out["report"]["info_bits_after"] >= out["report"]["info_bits_before"] - 1e-9
    # 14 rank-one pieces in d = 2 span the 4-dimensional design; each step drops one or more
    assert out["report"]["design_rank"] == 4
    assert 1 <= out["report"]["walk_steps"] <= 14 - 4
    pruned = Povm([matrix_from_json(m) for m in out["povm"]])
    assert np.max(np.abs(sum(pruned.operators) - np.eye(2))) <= 1e-9


def test_matrix_json_text_is_json_dumps_of_matrix_to_json():
    rng = np.random.default_rng(53)
    specials = [0.0, -0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324, 0.1, 1.0 / 3.0]
    mixed = rng.choice(specials, size=(4, 3, 3)) + 1j * rng.choice(specials, size=(4, 3, 3))
    mixed[0, 0, 0] = complex(-0.0, 0.0)
    mixed[-1, -1, -1] = complex(0.0, -0.0)
    stacks = {
        "specials": mixed,
        "one by one by one": np.array([[[complex(-0.0, 5e-324)]]]),
        "one operator": rng.normal(size=(1, 3, 3)) + 1j * rng.normal(size=(1, 3, 3)),
        "one matrix": rng.normal(size=(2, 2)),
        "empty": np.zeros((0, 2, 2)),
        "symmetrized": symmetrize(random_povm(rng, 5, 3, rank_one=True),
                                  generate_group(weyl_heisenberg_generators(5))).operators,
    }
    for name, stack in stacks.items():
        assert matrix_json_text(stack) == json.dumps(matrix_to_json(stack)), name
    # the symmetrized stack repeats its floats, and 0.0 and -0.0 keep their signs
    assert len(set(map(str, np.ravel(matrix_to_json(stacks["symmetrized"]))))) < stacks["symmetrized"].size
    assert matrix_json_text(stacks["one by one by one"]) == "[[[[-0.0, 5e-324]]]]"


def test_prune_stdout_is_the_pruned_json_document(tmp_path, capsys):
    path = fixture("lifted_trines_0.05.json")
    argv = ["prune", path, "--group", path, "--real"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    written = (tmp_path / "pruned.json").read_text()
    assert json.loads(printed) == json.loads(written)
    # both are compact json.dumps text, with the one newline of print
    assert printed == written + "\n" == json.dumps(json.loads(written)) + "\n"


def assert_one_compact_line(text):
    assert text == json.dumps(json.loads(text))


def test_every_json_document_is_one_compact_line(tmp_path, capsys):
    # one writer: every document printed or written is one line, as json.dumps writes it
    names = ("lifted_trines_0.05.json", "four_projectors_d2.json", "s3_irrep_2d.json")
    trines, four, s3 = map(fixture, names)
    for argv in (
        ["validate", trines, "--json"], ["validate", four, "--json"], ["validate", s3, "--json"],
        ["bound", trines, "--real", "--json"], ["bound", s3, "--real", "--json"],
        ["decompose", trines], ["decompose", four],
        ["prune", trines, "--group", trines, "--real"], ["prune", four],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert_one_compact_line(out[:-1])
        if argv[0] == "prune":
            assert main([*argv, "--out-dir", str(tmp_path)]) == 0
            capsys.readouterr()
            assert_one_compact_line((tmp_path / "pruned.json").read_text())
    experiments = {"lifted-trines": ["optimum.json"], "double-trines": ["optimum.json", "pgm.json", "hessian.json"]}
    for name, written in experiments.items():
        assert main(["experiment", name, "--json", "--out-dir", str(tmp_path), "--nx", "3", "--nb", "4"]) == 0
        # the summary follows the table of checks, on the last line
        assert_one_compact_line(capsys.readouterr().out.splitlines()[-1])
        for file_name in written:
            assert_one_compact_line((tmp_path / file_name).read_text())


def test_prune_symmetric_fixture(tmp_path, capsys):
    code = main(["prune", fixture("lifted_trines_0.05.json"), "--real", "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "pruned.json").read_text())
    assert doc["report"]["orbit_count"] <= 2
    assert doc["report"]["info_bits_after"] >= doc["report"]["info_bits_before"] - 1e-9


def test_prune_with_separate_group_file(tmp_path, capsys):
    ensemble = lifted_trines(0.05)
    povm = Povm([np.eye(3)])
    path = write_problem(tmp_path, "plain.json", problem_to_json(3, ensemble=ensemble, povm=povm))
    group_path = write_problem(
        tmp_path, "group.json", problem_to_json(3, generators=[trine_rotation()])
    )
    assert main(["prune", path, "--group", group_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["group_order"] == 3


def test_prune_parses_a_group_file_that_is_the_problem_file_once(tmp_path, capsys, monkeypatch):
    # prune F --group F parses F once; a copy of F as the group file is parsed too, to the same output
    calls = []

    def counting(path):
        calls.append(path)
        return load_problem(path)

    monkeypatch.setattr(cli, "load_problem", counting)
    path = fixture("lifted_trines_0.05.json")
    copy = tmp_path / "group.json"
    with open(path, "rb") as handle:
        copy.write_bytes(handle.read())
    outputs = []
    for group, parses in ((path, 1), (str(copy), 2)):
        calls.clear()
        assert main(["prune", path, "--group", group, "--real"]) == 0
        assert len(calls) == parses
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_prune_validates_the_povm_once(capsys, monkeypatch):
    # info_bits_before reuses the validation prune_povm made
    calls = []
    for module in (caratheodory, infotheory):
        def counting(*args, original=module.validate_povm, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "validate_povm", counting)
    path = fixture("lifted_trines_0.05.json")
    assert main(["prune", path]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert len(calls) == 1
    problem = load_problem(path)
    assert report["info_bits_before"] == mutual_information(problem.ensemble, problem.povm)


def test_prune_out_dir_is_a_file_exit_two(tmp_path, capsys, monkeypatch):
    # the output directory is created before any pruning work starts
    def fail(*args):
        raise AssertionError("prune ran before the output directory was created")

    monkeypatch.setattr(cli, "prune_povm", fail)
    path = write_problem(tmp_path, "taken", {})
    assert main(["prune", fixture("four_projectors_d2.json"), "--out-dir", path]) == 2
    assert_domain_error(capsys)


def test_prune_not_symmetric_exit_one(tmp_path, capsys):
    rng = np.random.default_rng(53)
    ensemble = random_ensemble(rng, 3, 3)
    povm = random_povm(rng, 3, 3)
    doc = problem_to_json(3, ensemble=ensemble, povm=povm, generators=[trine_rotation()])
    path = write_problem(tmp_path, "asym.json", doc)
    assert main(["prune", path]) == 1


def test_prune_reports_invalid_priors_before_symmetry(tmp_path, capsys):
    # priors summing to 1.4, under a swap that does not permute the states
    ensemble = Ensemble([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)], [0.7, 0.7])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    doc = problem_to_json(2, ensemble=ensemble, povm=Povm([np.eye(2)]), generators=[swap])
    assert main(["prune", write_problem(tmp_path, "bad.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid ensemble: priors sum to 1.4, expected 1")


def assert_prune_rejected(tmp_path, capsys, monkeypatch, argv, code, message):
    """``prune argv`` exits with ``code`` and ``message`` before any pruning work starts."""
    def fail(*args, **kwargs):
        raise AssertionError("pruning work started")

    for name in ("mutual_information", "generate_group", "prune_povm"):
        monkeypatch.setattr(cli, name, fail)
    out_dir = tmp_path / "out"
    assert main(["prune", *argv, "--out-dir", str(out_dir)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert not out_dir.exists()


def test_prune_group_file_without_generators_exit_one(tmp_path, capsys, monkeypatch):
    four = fixture("four_projectors_d2.json")
    assert_prune_rejected(tmp_path, capsys, monkeypatch, [four, "--group", four], 1,
                          "error: group file contains no generators")


def test_prune_real_without_generators_exit_two(tmp_path, capsys, monkeypatch):
    assert_prune_rejected(tmp_path, capsys, monkeypatch, [fixture("four_projectors_d2.json"), "--real"], 2,
                          "--real needs group generators")


def test_prune_group_file_of_another_dimension_exit_two(tmp_path, capsys, monkeypatch):
    # a dimension-3 group file for a dimension-2 problem, as inside one file
    argv = [fixture("four_projectors_d2.json"), "--group", fixture("lifted_trines_0.05.json")]
    assert_prune_rejected(tmp_path, capsys, monkeypatch, argv, 2, "dimension 3 != 2")


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
@pytest.mark.parametrize(
    "argv, call",
    [
        (["validate", fixture("lifted_trines_0.05.json")], "validate_ensemble"),
        (["bound", fixture("lifted_trines_0.05.json")], "generate_group"),
        (["experiment", "lifted-trines", "--nx", "2", "--nb", "2"], "scan_surface"),
        (["decompose", fixture("four_projectors_d2.json")], "normalize_povm"),
        (["prune", fixture("four_projectors_d2.json")], "prune_povm"),
    ],
    ids=["validate", "bound", "experiment", "decompose", "prune"],
)
def test_library_errors_exit_one_through_main(tmp_path, capsys, monkeypatch, argv, call, error):
    # every command lets library errors reach main, the one place that maps them
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, call, fail)
    monkeypatch.chdir(tmp_path)  # the experiment's default --out-dir
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: injected failure") and "Traceback" not in err


def child_env():
    """The environment of a child process that finds the package in the checkout's src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_runs():
    # the child process finds the package in the checkout's src/ without an install
    result = subprocess.run(
        [sys.executable, "-m", "povm_forge.cli", "validate", fixture("four_projectors_d2.json")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert "OK" in result.stdout


def test_repeated_main_calls_match_separate_processes(capsys, monkeypatch):
    # main parses every call of a process with one parser; usage text wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    child = "import sys; from povm_forge.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (
        ["prune", fixture("lifted_trines_0.05.json"), "--real"],
        ["experiment", "unknown-name"],
        ["--version"],
        ["bound", fixture("s3_irrep_2d.json"), "--real", "--json"],
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        separate = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=child_env()
        )
        assert (code, captured.out, captured.err) == (separate.returncode, separate.stdout, separate.stderr)


@pytest.mark.parametrize("argv", [["prune", fixture("four_projectors_d2.json")],
                                  ["prune", fixture("lifted_trines_0.05.json"), "--real"],
                                  ["bound", fixture("s3_irrep_2d.json")]],
                         ids=["prune", "prune-group", "bound"])
def test_commands_do_not_import_numpy_random(argv):
    # group closure projects onto fixed weights, not onto a seeded draw
    child = (
        "import sys; from povm_forge.cli import main; code = main(sys.argv[1:]); "
        "sys.exit(10 if 'numpy.random' in sys.modules else code)"
    )
    result = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr


def test_prune_real_checks_the_given_operators(tmp_path, capsys):
    # the outcome 1e-9 I + 1e-12i (|0><1| - |1><0|) is real within HERM_TOL, but its
    # rank-one split lies along (|0> -+ i|1>) / sqrt 2: normalized to trace 3, those
    # pieces have imaginary parts of 1.5
    nu = np.arccos(np.sqrt(1.0 / 3.0))
    tiny = np.array([[1e-9, 1e-12j, 0], [-1e-12j, 1e-9, 0], [0, 0, 1e-9]])
    povm = Povm([(1 - 1e-9) * op for op in orbit_projectors(nu, 0.0)] + [tiny])
    doc = problem_to_json(3, ensemble=lifted_trines(0.05), povm=povm, generators=[trine_rotation()])
    path = write_problem(tmp_path, "tiny_complex.json", doc)
    assert main(["validate", path]) == 0
    assert main(["prune", path]) == 0
    capsys.readouterr()
    assert main(["prune", path, "--real"]) == 0
    out = json.loads(capsys.readouterr().out)
    ops = np.array([matrix_from_json(m) for m in out["povm"]])
    assert not np.any(ops.imag)
    assert out["report"]["orbit_count"] <= 2
    assert out["report"]["info_bits_after"] >= out["report"]["info_bits_before"] - 1e-9


def test_prune_real_rejects_complex_operators_exit_one(tmp_path, capsys):
    # Z fixes both basis states; the eigenprojectors (I +- Y) / 2 of Y have imaginary parts of 1/2
    y = np.array([[0.0, -1j], [1j, 0.0]])
    ensemble = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.full(2, 0.5))
    povm = Povm([(np.eye(2) + y) / 2, (np.eye(2) - y) / 2])
    doc = problem_to_json(2, ensemble=ensemble, povm=povm, generators=[np.diag([1.0, -1.0])])
    path = write_problem(tmp_path, "complex.json", doc)
    assert main(["prune", path]) == 0
    capsys.readouterr()
    assert main(["prune", path, "--real"]) == 1
    assert capsys.readouterr().err == "error: real_mode requires real POVM operators\n"


def test_validate_prior_count_mismatch_exit_two(tmp_path, capsys):
    doc = {"dimension": 2, "states": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))],
           "priors": [1.0]}
    path = write_problem(tmp_path, "short.json", doc)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: states: 2 states but 1 priors\n"
