"""Independent reference computations for checking povm-forge outputs.

Everything here is plain numpy and imports nothing from povm_forge, so a fault
in the program cannot hide itself by also corrupting the reference.  States
and operators are complex arrays of shape (count, d, d).
"""

from __future__ import annotations

import math

import numpy as np

B_PERIOD = 2.0 * math.pi / 3.0


def plogp(u: np.ndarray) -> np.ndarray:
    """Elementwise u log2 u with 0 log 0 = 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    positive = u > 0
    out[positive] = u[positive] * np.log2(u[positive])
    return out


def joint(priors, states, ops) -> np.ndarray:
    """p_ij = p(i) tr(rho_i Pi_j)."""
    traces = np.einsum("ikl,jlk->ij", np.asarray(states), np.asarray(ops)).real
    return np.asarray(priors, dtype=float)[:, None] * traces


def mutual_information(priors, states, ops) -> float:
    """I(S; P) in bits from the joint distribution."""
    p = np.clip(joint(priors, states, ops), 0.0, None)
    return float(plogp(p).sum() - plogp(p.sum(axis=1)).sum() - plogp(p.sum(axis=0)).sum())


def formal_information(priors, states, ops) -> float:
    """Information of an operator set that need not sum to I; rows use the priors."""
    p = np.clip(joint(priors, states, ops), 0.0, None)
    return float(plogp(p).sum() - plogp(np.asarray(priors)).sum() - plogp(p.sum(axis=0)).sum())


def von_neumann_bits(rho: np.ndarray) -> float:
    return float(-plogp(np.clip(np.linalg.eigvalsh(rho), 0.0, None)).sum())


def holevo_chi(priors, states) -> float:
    """chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i), in bits."""
    priors = np.asarray(priors, dtype=float)
    states = np.asarray(states)
    average = np.einsum("i,ikl->kl", priors, states)
    return von_neumann_bits(average) - float(
        sum(p * von_neumann_bits(rho) for p, rho in zip(priors, states))
    )


def shannon_bits(priors) -> float:
    return float(-plogp(np.asarray(priors, dtype=float)).sum())


def projector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# lifted and double trines


def lifted_trine_states(alpha: float) -> np.ndarray:
    """|t_k> = sqrt(alpha) e_0 + sqrt(1 - alpha) (cos 2 pi k/3 e_1 + sin 2 pi k/3 e_2)."""
    planar = math.sqrt(1.0 - alpha)
    vectors = [
        [math.sqrt(alpha), planar * math.cos(2 * math.pi * k / 3), planar * math.sin(2 * math.pi * k / 3)]
        for k in range(3)
    ]
    return np.array([projector(v) for v in vectors])


def trine_orbit(a: float, b: float) -> np.ndarray:
    """The three operators |psi(a, b + 2 pi k / 3)><psi|, psi = (cos a, sin a cos b, sin a sin b)."""
    return np.array(
        [
            projector([math.cos(a), math.sin(a) * math.cos(c), math.sin(a) * math.sin(c)])
            for c in (b, b + B_PERIOD, b + 2 * B_PERIOD)
        ]
    )


def orbit_formal_information(alpha: float, a: float, b: float) -> float:
    return formal_information(np.full(3, 1 / 3), lifted_trine_states(alpha), trine_orbit(a, b))


def two_orbit_povm(a1: float, b1: float, a2: float, b2: float, lam: float) -> np.ndarray:
    """lam times the first orbit followed by (1 - lam) times the second."""
    return np.concatenate([lam * trine_orbit(a1, b1), (1.0 - lam) * trine_orbit(a2, b2)])


def double_trines_closed_form() -> float:
    """(2 sqrt 2 gamma - 9 ln 2) / (6 ln 2), gamma = ln(2 (3 + 2 sqrt 2)^2)."""
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    return (2.0 * math.sqrt(2.0) * gamma - 9.0 * math.log(2.0)) / (6.0 * math.log(2.0))


def double_trines_hessian_diagonal() -> tuple[float, float]:
    """Closed-form second derivatives in x and b at the double-trines optimum."""
    gamma = math.log(2.0 * (3.0 + 2.0 * math.sqrt(2.0)) ** 2)
    return (
        (81.0 - 27.0 * math.sqrt(2.0) * gamma) / (16.0 * math.log(2.0)),
        (6.0 - (2.0 + math.sqrt(2.0)) * gamma) / (3.0 * math.log(2.0)),
    )


# ---------------------------------------------------------------------------
# measurements, design matrices and groups


def rank_one_pieces(ops, cutoff: float = 1e-12) -> np.ndarray:
    """Eigen-split every operator into rank-one pieces above ``cutoff``."""
    pieces = []
    for op in ops:
        w, v = np.linalg.eigh(op)
        pieces.extend(w[k] * projector(v[:, k]) for k in range(len(w)) if w[k] > cutoff)
    return np.array(pieces)


def normalized(ops) -> tuple[np.ndarray, np.ndarray]:
    """Weights tr(Pi)/d and trace-d operators d Pi / tr(Pi)."""
    ops = np.asarray(ops)
    d = ops.shape[1]
    traces = np.einsum("jkk->j", ops).real
    return traces / d, ops * (d / traces)[:, None, None]


def design_matrix(ops) -> np.ndarray:
    """Column j: 1, then the real and imaginary entries of d Pi_j / tr(Pi_j)."""
    _, unit = normalized(ops)
    flat = unit.reshape(len(unit), -1)
    return np.vstack([np.ones(len(unit)), flat.real.T, flat.imag.T])


def design_rank(ops) -> int:
    return int(np.linalg.matrix_rank(design_matrix(ops)))


def completeness_defect(ops) -> float:
    ops = np.asarray(ops)
    return float(np.max(np.abs(ops.sum(axis=0) - np.eye(ops.shape[1]))))


def min_eigenvalue(ops) -> float:
    return float(min(np.linalg.eigvalsh(op)[0] for op in ops))


def _null_dimension(stacked: np.ndarray, columns: int) -> int:
    return columns - int(np.linalg.matrix_rank(stacked))


def commutant_dimension(generators) -> int:
    """Dimension of the matrices commuting with every generator.

    As a complex space this equals the real dimension of the Hermitian
    commutant, the complex orbit bound.  Computed as the null space of the
    stacked maps vec(X) -> vec(g X - X g).
    """
    d = generators[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in generators])
    return _null_dimension(stacked, d * d)


def symmetric_commutant_dimension(generators) -> int:
    """Dimension of the real symmetric matrices commuting with real generators."""
    d = generators[0].shape[0]
    basis = []
    for k in range(d):
        for l in range(k, d):
            e = np.zeros((d, d))
            e[k, l] = e[l, k] = 1.0
            basis.append(e)
    columns = [np.concatenate([(g.real @ e - e @ g.real).ravel() for g in generators]) for e in basis]
    return _null_dimension(np.column_stack(columns), len(basis))


def _element_key(u: np.ndarray) -> tuple:
    return tuple(np.round(u, 8).view(float).ravel().tolist())


def close_group(generators, max_order: int = 5000) -> list[np.ndarray]:
    """All products of the generators, found breadth-first with a hash on rounded entries."""
    d = generators[0].shape[0]
    elements = [np.eye(d, dtype=complex)]
    seen = {_element_key(elements[0])}
    i = 0
    while i < len(elements):
        for g in generators:
            product = elements[i] @ g
            key = _element_key(product)
            if key not in seen:
                if len(elements) >= max_order:
                    raise ValueError(f"closure exceeds {max_order} elements")
                seen.add(key)
                elements.append(product)
        i += 1
    return elements


def weyl_heisenberg_generators(d: int) -> list[np.ndarray]:
    """Shift X|k> = |k+1> and clock Z|k> = w^k |k>; they generate a group of order d^3 (odd d)."""
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [shift, clock]


def clifford_generators() -> list[np.ndarray]:
    """Hadamard and phase gate; they generate the order-192 single-qubit Clifford group."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    return [hadamard, np.diag([1.0, 1j])]
