import numpy as np
import pytest

import qbp
from qbp.pauli import SIGN_TABLE


@pytest.fixture(scope="session")
def toy():
    return qbp.builtin("two_qubit_toy")


@pytest.fixture(scope="session")
def five():
    return qbp.builtin("five_qubit")


@pytest.fixture(scope="session")
def small_bicycle():
    return qbp.generate_bicycle(qbp.BicycleSpec(n=20, m=10, w=6, seed=42))


@pytest.fixture(scope="session")
def bicycle_800():
    """The headline (800, 400, 30) bicycle code; its qubits have degree 10-20."""
    return qbp.generate_bicycle(qbp.BicycleSpec(n=800, m=400, w=30, seed=11))


def insert(basis, v):
    """Reduce the int row v (column j at bit j) against a reduced echelon basis
    of (pivot, row) pairs, pivots at lowest set bits, and, if nonzero, add it
    in place.  Returns the reduced v, 0 exactly when v was in the span.  The
    int-row reference for qbp.gf2."""
    for p, row in basis:
        if (v >> p) & 1:
            v ^= row
    if v:
        p = (v & -v).bit_length() - 1
        for i, (p2, r2) in enumerate(basis):
            if (r2 >> p) & 1:
                basis[i] = (p2, r2 ^ v)
        basis.append((p, v))
    return v


def echelon(rows):
    """Reduced row-echelon basis of int rows as (pivot, row) pairs, by an insert loop."""
    basis = []
    for r in rows:
        insert(basis, r)
    return basis


def first_dependent(rows):
    """Index of the first int row in the span of the rows before it, or None."""
    basis = []
    return next((i for i, r in enumerate(rows) if not insert(basis, r)), None)


def symplectic_row(op):
    """An operator's x|z bits as one int, x on the low n bits, read from its letters."""
    letters = op.letters().tolist()
    x = sum(1 << q for q, letter in enumerate(letters) if letter in (1, 2))  # X or Y
    z = sum(1 << q for q, letter in enumerate(letters) if letter in (2, 3))  # Y or Z
    return x | (z << op.n)


def relabelled(code, rng):
    """The code with X/Y/Z permuted per qubit by rng (commutation is kept): non-CSS rows."""
    perm = np.array([[0, *rng.permutation([1, 2, 3])] for _ in range(code.n)])
    mat = perm[np.arange(code.n), np.stack([c.letters() for c in code.checks])]
    return qbp.StabilizerCode([qbp.PauliOperator.from_letters(row) for row in mat])


def random_pauli(rng, n):
    return qbp.PauliOperator.from_letters(rng.integers(0, 4, size=n).astype(np.int8))


def random_single_check_code(rng, max_weight=6):
    w = int(rng.integers(1, max_weight + 1))
    letters = rng.integers(1, 4, size=w).astype(np.int8)
    return qbp.StabilizerCode([qbp.PauliOperator.from_letters(letters)])


def tanner_rows(code):
    """Per check, its (qubit, letter) pairs with qubits ascending, read from
    the check's own letters."""
    return tuple(tuple((q, letter) for q, letter in enumerate(check.letters().tolist()) if letter)
                 for check in code.checks)


def edge_signs(code):
    """(E, 4) commutation signs of each letter against each edge label, check-major."""
    return SIGN_TABLE[[letter for adj in tanner_rows(code) for _, letter in adj]].astype(np.float64)


def edge_bias(code, vectors):
    """Commutation bias <m, sign> of check-major (E, 4) qubit-to-check vectors."""
    return np.einsum("ij,ij->i", vectors, edge_signs(code))


def set_incoming(state, code, vectors):
    """Load check-major (E, 4) qubit-to-check vectors into the state as biases."""
    state.d_qc[:] = edge_bias(code, vectors)


def check_messages(state, code):
    """The check-to-qubit 4-vectors t * sign + 1/4, check-major (E, 4)."""
    return state.t_cq[:, None] * edge_signs(code) + 0.25
