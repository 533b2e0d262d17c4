"""Benchmark workloads: seeded problem files and the CLI operations run on them.

Every workload runs the paper block (both trines experiments and the shipped
example files) so that every end-to-end metric is measured on every workload,
and adds the inputs that give it its character:

- trines-paper: one more lifted-trines experiment at a seeded lift;
- prune-ladder: prune and decompose over a ladder of random ensembles and
  POVMs in d and outcome count;
- symmetric-groups: bound, validate and symmetric prune on orbits of a seeded
  state under the Clifford group and Weyl-Heisenberg groups, plus one prune
  that fails today and runs in a child process under a deadline.

Inputs depend only on the seed.  Nothing here imports povm_forge.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import oracles

NAMES = ("trines-paper", "prune-ladder", "symmetric-groups")

# (d, outcomes, rank_one).  Prune eigen-splits to rank one; decompose works on
# the operators as given.  The top rungs take about a second each today.
LADDER = (
    (2, 4, False), (2, 6, False), (2, 8, True), (2, 12, True), (2, 15, True),
    (3, 4, False), (3, 6, False), (3, 12, True), (3, 16, True), (3, 19, True),
    (4, 5, False), (4, 6, False), (4, 20, True), (4, 24, True),
)

# name: (generators, known order)
GROUPS = {
    "clifford_d2": (oracles.clifford_generators(), 192),
    "wh_d3": (oracles.weyl_heisenberg_generators(3), 27),
    "wh_d5": (oracles.weyl_heisenberg_generators(5), 125),
    "wh_d7": (oracles.weyl_heisenberg_generators(7), 343),
}
# (group, outcomes of the random rank-one POVM measured under it)
MEASURED = (("clifford_d2", 3), ("wh_d5", 5), ("wh_d7", 7))

# Symmetric prune of a POVM already symmetrized under the order-27
# Weyl-Heisenberg group: all 81 orbit sums coincide, and the identity
# decomposition recurses over them as a full binary tree.  Fixed inputs.
STUCK_PRUNE_DEADLINE_S = 1.5
SHIPPED_REPEATS = 20


@dataclass
class Op:
    """One CLI invocation, the end-to-end metric its time counts in, and its check."""

    metric: str
    argv: list[str]
    check: Callable[[checks.Outcome], list[str]]
    out_dir: str | None = None
    deadline_s: float | None = None


OP_METRICS = ("experiment_lifted_s", "experiment_double_s", "prune_s", "decompose_s", "bound_s", "validate_s")


# ---------------------------------------------------------------------------
# problem files


def _matrix_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def write_problem(path: str, dimension: int, states=None, priors=None, povm=None, generators=None) -> str:
    doc: dict = {"dimension": dimension}
    if states is not None:
        doc["states"] = [_matrix_json(s) for s in states]
        doc["priors"] = [float(p) for p in priors]
    if povm is not None:
        doc["povm"] = [_matrix_json(op) for op in povm]
    if generators is not None:
        doc["generators"] = [_matrix_json(g) for g in generators]
    doc["metadata"] = {"name": os.path.splitext(os.path.basename(path))[0]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def read_problem(path: str) -> dict:
    """Arrays of a problem file: states, priors, povm and generators where present."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    out = {"dimension": doc["dimension"]}
    for key in ("states", "povm", "generators"):
        if key in doc:
            out[key] = np.array([checks.complex_array(m) for m in doc[key]])
    if "states" in doc:
        out["priors"] = np.asarray(doc.get("priors", np.full(len(doc["states"]), 1 / len(doc["states"]))))
    return out


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _inverse_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v / np.sqrt(w)) @ v.conj().T


def random_povm(rng, d: int, n: int, rank_one: bool) -> np.ndarray:
    """n random operators S^-1/2 A_j S^-1/2 with S = sum_j A_j; A_j rank one or full rank."""
    if rank_one:
        vectors = _complex_gaussian(rng, n, d)
        raw = np.einsum("jk,jl->jkl", vectors, vectors.conj())
    else:
        g = _complex_gaussian(rng, n, d, d)
        raw = g @ np.conj(np.swapaxes(g, 1, 2))
    n_half = _inverse_sqrt(raw.sum(axis=0))
    ops = n_half @ raw @ n_half
    return (ops + np.conj(np.swapaxes(ops, 1, 2))) / 2


def random_ensemble(rng, d: int, m: int, rank: int = 2) -> tuple[np.ndarray, np.ndarray]:
    g = _complex_gaussian(rng, m, d, rank)
    states = g @ np.conj(np.swapaxes(g, 1, 2))
    states /= np.einsum("ikk->i", states).real[:, None, None]
    return states, rng.dirichlet(np.ones(m))


def orbit_ensemble(elements, vector) -> tuple[np.ndarray, np.ndarray]:
    """Distinct conjugates of |v><v| under the group, with uniform priors."""
    rho = oracles.projector(vector / np.linalg.norm(vector))
    seen, states = set(), []
    for u in elements:
        state = u @ rho @ u.conj().T
        key = tuple(np.round(state, 8).view(float).ravel().tolist())
        if key not in seen:
            seen.add(key)
            states.append(state)
    return np.array(states), np.full(len(states), 1.0 / len(states))


def _closed_group(name: str) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    generators, order = GROUPS[name]
    elements = oracles.close_group(generators)
    if len(elements) != order:
        raise RuntimeError(f"{name}: closure has {len(elements)} elements, expected {order}")
    return generators, elements, order


# ---------------------------------------------------------------------------
# operations


class _Builder:
    def __init__(self, work_dir: str):
        self.inputs = os.path.join(work_dir, "inputs")
        self.outputs = os.path.join(work_dir, "outputs")
        os.makedirs(self.inputs, exist_ok=True)
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def add(self, metric: str, argv: list[str], check, writes: bool = False, deadline_s=None) -> None:
        out_dir = os.path.join(self.outputs, f"op{len(self.ops):02d}") if writes else None
        self.ops.append(Op(metric, argv + (["--out-dir", out_dir] if writes else []), check, out_dir, deadline_s))

    def experiment_lifted(self, alpha: float, reference: bool) -> None:
        argv = ["experiment", "lifted-trines", "--json"] + ([] if reference else ["--alpha", repr(alpha)])
        self.add("experiment_lifted_s", argv, checks.lifted_experiment(alpha, reference), writes=True)

    def validate(self, path: str, order: int) -> None:
        self.add("validate_s", ["validate", path, "--json"], checks.validate(order))

    def bound(self, path: str, order: int, generators, real: bool) -> None:
        argv = ["bound", path] + (["--real"] if real else []) + ["--json"]
        self.add("bound_s", argv, checks.bound(order, generators, real))

    def prune(self, path: str, problem: dict, group_path=None, order=None, real=False, deadline_s=None) -> None:
        argv = ["prune", path] + (["--group", group_path] if group_path else []) + (["--real"] if real else [])
        generators = read_problem(group_path)["generators"] if group_path else None
        check = checks.prune(problem["priors"], problem["states"], problem["povm"], order, generators, real)
        self.add("prune_s", argv, check, writes=True, deadline_s=deadline_s)

    def decompose(self, path: str, problem: dict) -> None:
        check = checks.decompose(problem["povm"], problem.get("priors"), problem.get("states"))
        self.add("decompose_s", ["decompose", path], check)


def _paper_block(b: _Builder, data_dir: str) -> list[Op]:
    """Both experiments and the shipped example files; returns one pass over the files for warm-up.

    The example-file operations take milliseconds, so the same operations run
    SHIPPED_REPEATS times per round to keep their totals above timer and
    scheduler noise.
    """
    b.experiment_lifted(0.05, reference=True)
    b.add("experiment_double_s", ["experiment", "double-trines", "--json"], checks.double_experiment, writes=True)
    trines = os.path.join(data_dir, "lifted_trines_0.05.json")
    s3 = os.path.join(data_dir, "s3_irrep_2d.json")
    four = os.path.join(data_dir, "four_projectors_d2.json")
    trines_doc, four_doc = read_problem(trines), read_problem(four)
    first = len(b.ops)
    b.validate(trines, 3)
    b.bound(trines, 3, trines_doc["generators"], real=True)
    b.bound(s3, 6, read_problem(s3)["generators"], real=True)
    b.prune(trines, trines_doc, group_path=trines, order=3, real=True)
    b.decompose(trines, trines_doc)
    b.prune(four, four_doc)
    b.decompose(four, four_doc)
    shipped = b.ops[first:]
    b.ops += shipped * (SHIPPED_REPEATS - 1)
    return shipped


def _ladder(b: _Builder, rng) -> None:
    for d, n, rank_one in LADDER:
        states, priors = random_ensemble(rng, d, d + 1)
        povm = random_povm(rng, d, n, rank_one)
        name = f"ladder_d{d}_n{n}_{'rank1' if rank_one else 'full'}.json"
        path = write_problem(b.path(name), d, states, priors, povm)
        problem = {"states": states, "priors": priors, "povm": povm}
        b.prune(path, problem)
        b.decompose(path, problem)


def _symmetric(b: _Builder, rng) -> None:
    for name, outcomes in MEASURED:
        generators, elements, order = _closed_group(name)
        d = generators[0].shape[0]
        states, priors = orbit_ensemble(elements, _complex_gaussian(rng, d))
        povm = random_povm(rng, d, outcomes, rank_one=True)
        path = write_problem(b.path(f"{name}.json"), d, states, priors, povm, generators)
        group_path = write_problem(b.path(f"{name}_group.json"), d, generators=generators)
        problem = {"states": states, "priors": priors, "povm": povm}
        b.bound(path, order, generators, real=False)
        b.validate(path, order)
        b.prune(path, problem, group_path=group_path, order=order)
    generators, elements, order = _closed_group("wh_d3")
    states, priors = orbit_ensemble(elements, np.array([1.0, 0.5 + 0.5j, -0.25j]))
    basis, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5j], [0.0, 1.0, 3.0j], [2.0, -1.0, 1.0]]))
    povm = np.array([u @ oracles.projector(basis[:, k]) @ u.conj().T / order for k in range(3) for u in elements])
    path = write_problem(b.path("wh_d3_symmetrized.json"), 3, states, priors, povm)
    group_path = write_problem(b.path("wh_d3_group.json"), 3, generators=generators)
    problem = {"states": states, "priors": priors, "povm": povm}
    b.prune(path, problem, group_path=group_path, order=order, deadline_s=STUCK_PRUNE_DEADLINE_S)


def build(name: str, seed: int, data_dir: str, work_dir: str) -> tuple[list[Op], list[Op]]:
    """Write the workload's problem files under ``work_dir``; return (operations, warm-up operations)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    b = _Builder(work_dir)
    warmup = _paper_block(b, data_dir)
    if name == "trines-paper":
        b.experiment_lifted(float(rng.uniform(0.1, 0.25)), reference=False)
    elif name == "prune-ladder":
        _ladder(b, rng)
    else:
        _symmetric(b, rng)
    return b.ops, warmup
