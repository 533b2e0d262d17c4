"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np

from povm_forge import Ensemble, Povm, inv_sqrt_psd


def random_unit_vector(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_state(rng, d: int, pure: bool = True) -> np.ndarray:
    if pure:
        v = random_unit_vector(rng, d)
        return np.outer(v, v.conj())
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_ensemble(rng, d: int, m: int, pure: bool = True) -> Ensemble:
    states = [random_state(rng, d, pure) for _ in range(m)]
    priors = rng.uniform(0.1, 1.0, size=m)
    return Ensemble(states, priors / priors.sum())


def random_povm(rng, d: int, n: int, rank_one: bool = False) -> Povm:
    """Random POVM: draw positive operators and conjugate by the inverse square
    root of their sum.  Rank-one inputs stay rank one under that conjugation."""
    if rank_one:
        ops = [
            rng.uniform(0.2, 1.0) * random_state(rng, d, pure=True) for _ in range(n)
        ]
    else:
        ops = []
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            ops.append(g @ g.conj().T)
    total = sum(ops)
    n_inv = inv_sqrt_psd(total)
    return Povm([n_inv @ op @ n_inv for op in ops])


def random_real_povm(rng, d: int, n: int) -> Povm:
    ops = []
    for _ in range(n):
        g = rng.normal(size=(d, d))
        ops.append((g @ g.T).astype(complex))
    total = sum(ops)
    n_inv = inv_sqrt_psd(total).real.astype(complex)
    return Povm([n_inv @ op @ n_inv for op in ops])


def gaussian_problem(rng, d: int, outcomes: int, rank_one: bool) -> tuple[Ensemble, np.ndarray]:
    """d + 1 rank-2 states with Dirichlet priors and the Hermitian part of S^-1/2 A_j S^-1/2, S = sum_j A_j,
    over complex Gaussian A_j, rank one or full rank: the draws of the benchmark's problem generator."""
    g = rng.normal(size=(d + 1, d, 2)) + 1j * rng.normal(size=(d + 1, d, 2))
    states = g @ g.conj().swapaxes(1, 2)
    states /= np.einsum("ikk->i", states).real[:, None, None]
    priors = rng.dirichlet(np.ones(d + 1))
    if rank_one:
        v = rng.normal(size=(outcomes, d)) + 1j * rng.normal(size=(outcomes, d))
        raw = np.einsum("jk,jl->jkl", v, v.conj())
    else:
        g = rng.normal(size=(outcomes, d, d)) + 1j * rng.normal(size=(outcomes, d, d))
        raw = g @ g.conj().swapaxes(1, 2)
    w, u = np.linalg.eigh(raw.sum(axis=0))
    n_half = (u / np.sqrt(w)) @ u.conj().T
    ops = n_half @ raw @ n_half
    return Ensemble(list(states), priors), (ops + ops.conj().swapaxes(1, 2)) / 2


def weyl_heisenberg_generators(d: int) -> list[np.ndarray]:
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [shift, clock]


def orbit_ensemble(rep, base: np.ndarray) -> Ensemble:
    """Uniform ensemble over the distinct conjugates of ``base`` under ``rep``."""
    states = []
    for u in rep.elements:
        state = u @ base @ u.conj().T
        if not any(np.max(np.abs(state - seen)) <= 1e-9 for seen in states):
            states.append(state)
    return Ensemble(states, np.full(len(states), 1.0 / len(states)))


def planar_rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
