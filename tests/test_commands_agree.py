"""A problem that `validate` accepts is accepted by every command.

Seeded sweeps over the input families that once broke that promise.  Each
draw is written as a problem file and run through `cli.main` in process with
`validate`, `decompose` and `prune` (no generators).  Every command must exit
0, 1 or 2 with no traceback and no warning; `validate` 0 must mean
`decompose` 0 and `prune` 0; and the pruned POVM must sum to the identity and
keep the information within `HERM_TOL`.  That margin comes from the inputs:
a POVM written to 10 decimals carries tolerated negative eigenvalues, which
the rank-one split drops.
"""

import itertools
import json
import os
import warnings

import numpy as np
import pytest

from povm_forge import Ensemble, Povm, inv_sqrt_psd
from povm_forge.cli import _stack_from_json, main
from povm_forge.hermitian import HERM_TOL

from helpers import gaussian_problem, random_ensemble, random_povm, write_problem_file

QUBIT_BASIS = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])


def tiny_trace_operator():
    """{diag(2e-10, -1e-10), I minus it}: normalizing divides the tolerated -1e-10 by the 1e-10 trace."""
    op = np.diag([2e-10, -1e-10])
    yield QUBIT_BASIS, [op, np.eye(2) - op]


def carved_against_a_state():
    """{tiny, I minus tiny}, tiny = 1e-6 |0><0| - 9e-10 I: normalizing scales the tolerated -9e-10 that
    state |1> sees by 2 / tr(tiny), about 2e6."""
    tiny = np.diag([1e-6 - 9e-10, -9e-10])
    yield QUBIT_BASIS, [tiny, np.eye(2) - tiny]


def tiny_operator_completed(t: float, draws: int):
    """diag(t, t/20) and 2 to 5 random rank-one operators (I - op0)^1/2 S^-1/2 g g^dagger S^-1/2 (I - op0)^1/2
    that complete the identity, S = sum g g^dagger."""
    rng = np.random.default_rng(5)
    op0 = np.diag([t, t / 20])
    root = np.diag(np.sqrt([1.0 - t, 1.0 - t / 20]))
    for _ in range(draws):
        k = rng.integers(2, 6)
        g = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
        vectors = (root @ inv_sqrt_psd(g.T @ g.conj()) @ g.T).T
        yield QUBIT_BASIS, [op0] + [np.outer(v, v.conj()) for v in vectors]


def invisible_identity(k: int):
    """k operators 1e-9 I and the two projectors scaled to complete them: together the small ones weigh k * HERM_TOL."""
    scale = 1.0 - k * 1e-9
    yield QUBIT_BASIS, [1e-9 * np.eye(2)] * k + [scale * np.diag([1.0, 0.0]), scale * np.diag([0.0, 1.0])]


def invisible_pieces(d: int, draws: int):
    """11 to 30 rank-one operators of trace up to d HERM_TOL, and 2d random operators (I - E)^1/2 R (I - E)^1/2
    that complete them, E their sum."""
    rng = np.random.default_rng(13)
    for _ in range(draws):
        ensemble = random_ensemble(rng, d, d + 1)
        tiny = []
        for _ in range(rng.integers(11, 31)):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            tiny.append(rng.uniform(0.0, d * HERM_TOL) * np.outer(v, v.conj()) / np.vdot(v, v).real)
        w, u = np.linalg.eigh(np.eye(d) - sum(tiny))
        root = (u * np.sqrt(w)) @ u.conj().T
        yield ensemble, tiny + [root @ r @ root for r in random_povm(rng, d, 2 * d).operators]


def rounded(d: int, decimals: int, rank_one: bool, draws: int):
    """A random POVM of 2d outcomes written to ``decimals`` places (Hermitian part), with d + 1 pure states."""
    rng = np.random.default_rng(7)
    for _ in range(draws):
        ensemble = random_ensemble(rng, d, d + 1)
        ops = np.round(random_povm(rng, d, 2 * d, rank_one).operators, decimals)
        yield ensemble, (ops + ops.conj().swapaxes(1, 2)) / 2


def ill_conditioned_vertex(d: int, draw: int):
    """Draw ``draw`` of rank-one POVMs of 2d outcomes written to 10 decimals (Hermitian part), with the benchmark's
    generator: the walk's vertex fits the identity within 2e-10, but its kept columns are so ill-conditioned
    (condition number 1e5 at d = 3) that re-solving them puts a weight below zero."""
    rng = np.random.default_rng(7)
    draws = (gaussian_problem(rng, d, 2 * d, rank_one=True) for _ in itertools.count())
    ensemble, ops = next(itertools.islice(draws, draw, None))
    ops = np.round(ops, 10)
    yield ensemble, (ops + ops.conj().swapaxes(1, 2)) / 2


def carved(d: int, eps: float, draws: int):
    """tiny = 1e-6 v v^dagger - eps I carved out of the last of 4 (d = 2) or 5 (d = 3) full-rank operators and appended."""
    rng = np.random.default_rng(11)
    for _ in range(draws):
        ensemble = random_ensemble(rng, d, d + 1)
        ops = list(random_povm(rng, d, 4 if d == 2 else 5).operators)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        tiny = 1e-6 * np.outer(v, v.conj()) - eps * np.eye(d)
        ops[-1] = ops[-1] - tiny
        yield ensemble, ops + [tiny]


FAMILIES = {
    "tiny-trace": tiny_trace_operator,
    "carved-against-a-state": carved_against_a_state,
    **{f"completed-t{t:g}": (lambda t=t: tiny_operator_completed(t, 100)) for t in (2e-10, 1e-9, 1e-7)},
    **{f"invisible-identity-k{k}": (lambda k=k: invisible_identity(k)) for k in (11, 100)},
    **{f"invisible-pieces-d{d}": (lambda d=d: invisible_pieces(d, 40)) for d in (2, 3)},
    **{f"rank-one-d{d}-10dp": (lambda d=d: rounded(d, 10, True, 300)) for d in (2, 3, 4)},
    **{f"ill-conditioned-d{d}-draw{k}": (lambda d=d, k=k: ill_conditioned_vertex(d, k)) for d, k in ((3, 129), (4, 239))},
    **{
        f"full-rank-d{d}-{decimals}dp": (lambda d=d, decimals=decimals: rounded(d, decimals, False, 50))
        for d in (2, 3, 4)
        for decimals in (10, 12)
    },
    **{f"carved-d{d}-eps{eps:g}": (lambda d=d, eps=eps: carved(d, eps, 60)) for d in (2, 3) for eps in (1e-12, 1e-10, 9e-10)},
}


def run(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, [str(w.message) for w in caught]


def disagreements(path: str, d: int, capsys) -> list[str]:
    results = {command: run([command, path], capsys) for command in ("validate", "decompose", "prune")}
    found = []
    for command, (code, _, err, caught) in results.items():
        if code not in (0, 1, 2) or "Traceback" in err or caught:
            found.append(f"{command}: exit {code}, warnings {caught}, stderr {err.strip()}")
    if results["validate"][0] != 0:
        return found
    for command in ("decompose", "prune"):
        if results[command][0] != 0:
            found.append(f"{command} rejects a valid problem: {results[command][2].strip()}")
    if results["prune"][0] == 0:
        doc = json.loads(results["prune"][1])
        report = doc["report"]
        if report["info_bits_after"] < report["info_bits_before"] - HERM_TOL:
            found.append(f"prune loses {report['info_bits_before'] - report['info_bits_after']:.3e} bit")
        ops = _stack_from_json(doc["povm"], d)
        residual = np.max(np.abs(ops.sum(axis=0) - np.eye(d)))
        if residual > HERM_TOL:
            found.append(f"pruned POVM is off the identity by {residual:.3e}")
    return found


@pytest.mark.parametrize("family", FAMILIES)
def test_validate_zero_means_every_command_zero(tmp_path, capsys, family):
    failures = []
    for i, (ensemble, ops) in enumerate(FAMILIES[family]()):
        path = write_problem_file(tmp_path / f"draw{i}.json", ensemble.dim, ensemble=ensemble, povm=Povm(ops))
        failures += [f"draw {i}: {line}" for line in disagreements(path, ensemble.dim, capsys)]
    assert not failures, "\n".join(failures[:5]) + f"\n({len(failures)} in all)"


def test_prune_reports_whether_its_optimum_is_certified(tmp_path, capsys):
    # the Dantzig climb of draws 11 and 35 reaches its cap of n pivots; draw 35
    # has no reduced cost above ZERO_TOL there, draw 11 has one; every other
    # draw, and each shipped POVM, stops before the cap at no such reduced cost
    uncertified = []
    for i, (ensemble, ops) in enumerate(FAMILIES["full-rank-d4-12dp"]()):
        path = write_problem_file(tmp_path / f"draw{i}.json", ensemble.dim, ensemble=ensemble, povm=Povm(ops))
        code, out, _, _ = run(["prune", path], capsys)
        report = json.loads(out)["report"]
        assert code == 0 and isinstance(report["certified"], bool)
        # n = 32: the 8 full-rank outcomes split into 4 rank-one pieces each
        if not report["certified"]:
            uncertified.append(i)
            assert report["pivots"] == 32
        if i == 35:
            assert report["pivots"] == 32 and report["certified"]
    assert uncertified == [11]
    data = os.path.join(os.path.dirname(__file__), "..", "src", "povm_forge", "data")
    for argv in (["four_projectors_d2.json"], ["lifted_trines_0.05.json"], ["lifted_trines_0.05.json", "--real"]):
        code, out, _, _ = run(["prune", os.path.join(data, argv[0]), *argv[1:]], capsys)
        assert code == 0 and json.loads(out)["report"]["certified"] is True
