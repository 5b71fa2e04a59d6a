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


def random_pauli(rng, n):
    return qbp.PauliOperator.from_letters(rng.integers(0, 4, size=n).astype(np.int8))


def random_single_check_code(rng, max_weight=6):
    w = int(rng.integers(1, max_weight + 1))
    letters = rng.integers(1, 4, size=w).astype(np.int8)
    return qbp.StabilizerCode([qbp.PauliOperator.from_letters(letters)])


def edge_signs(code):
    """(E, 4) commutation signs of each letter against each edge label, check-major."""
    return SIGN_TABLE[[letter for adj in code.tanner for _, letter in adj]].astype(np.float64)


def edge_bias(code, vectors):
    """Commutation bias <m, sign> of check-major (E, 4) qubit-to-check vectors."""
    return np.einsum("ij,ij->i", vectors, edge_signs(code))


def set_incoming(state, code, vectors):
    """Load check-major (E, 4) qubit-to-check vectors into the state as biases."""
    state.d_qc[:] = edge_bias(code, vectors)


def check_messages(state, code):
    """The check-to-qubit 4-vectors t * sign + 1/4, check-major (E, 4)."""
    return state.t_cq[:, None] * edge_signs(code) + 0.25
