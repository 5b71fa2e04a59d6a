"""Phase-free n-qubit Pauli operators, stored as the positions of their letters.

An operator is one read-only, ascending intp array, `positions`: the
(l - 1) * n + q of the letters l (X = 1, Y = 2, Z = 3) on its non-identity
qubits q, which index the letter-major (3, n) tables of the syndrome and the
decoder.  It is pauli's one array layout.  Commutation is computed on
positions: two operators anticommute when the qubits they share, less the
positions they share (equal letters), are odd in number.  A product XORs
the letter codes the positions give each qubit (X ^ Y = Z, as 1 ^ 2 = 3)
and reads its positions back from them.  Phases are dropped; the
represented group is the Pauli group modulo its center, which is all a
Pauli channel can distinguish.  Letter arrays (`letters`, and
`from_letters`, the checked way in) are built on positions.
"""

from __future__ import annotations

import numpy as np

# Letter codes used throughout the package: I=0, X=1, Y=2, Z=3.
LETTERS = "IXYZ"

# Single-qubit commutation signs, SIGN_TABLE[a, b] for letter codes a, b.
# I commutes with everything; X, Y, Z pairwise anticommute.
SIGN_TABLE = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=np.int8,
)

_LETTER_ROWS = np.arange(1, 4).reshape(3, 1)  # X, Y, Z against (n,) letter codes


def one_hot(letters: np.ndarray) -> np.ndarray:
    """The (..., 3, n) bool X, Y, Z indicators of (..., n) letter codes: the
    flat nonzeros of one operator's are its positions, ascending."""
    return letters[..., None, :] == _LETTER_ROWS


class PauliOperator:
    """An n-qubit Pauli operator modulo phase, built from the positions
    (l - 1) * n + q of its letters l on qubits q, at most one per qubit, in
    any order."""

    __slots__ = ("n", "_positions")

    def __init__(self, n: int, positions):
        if n < 1:
            raise ValueError("operator needs at least one qubit")
        positions = np.asarray(positions)
        if positions.ndim != 1 or (positions.size and positions.dtype.kind not in "iu"):  # 1.5 or True would index as 1
            raise ValueError(f"positions must be a 1-D integer array, got {positions.dtype} of shape {positions.shape}")
        if ((positions < 0) | (positions >= 3 * n)).any():
            raise ValueError(f"positions must lie in [0, {3 * n})")
        positions = np.sort(positions).astype(np.intp)
        if len(np.unique(positions % n)) < len(positions):
            raise ValueError("at most one letter per qubit")
        self.n, self._positions = n, positions
        positions.setflags(write=False)

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, [])

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        """Parse a string such as ``"XIIY"``; leftmost letter is qubit 0."""
        if not text:
            raise ValueError("empty Pauli string")
        for q, ch in enumerate(text):
            if ch not in LETTERS:
                raise ValueError(f"invalid Pauli letter {ch!r} at position {q}")
        return cls.from_letters(np.array([LETTERS.index(ch) for ch in text], dtype=np.int8))

    @classmethod
    def from_letters(cls, letters: np.ndarray) -> "PauliOperator":
        """Build from an array of letter codes (0=I, 1=X, 2=Y, 3=Z)."""
        letters = np.asarray(letters)
        if letters.ndim != 1:
            raise ValueError(f"letter codes must form a 1-D array, got shape {letters.shape}")
        if letters.dtype.kind not in "iu":  # 1.5 would compare as X or Y, True as X
            raise ValueError(f"letter codes must be integers, got dtype {letters.dtype}")
        if ((letters < 0) | (letters > 3)).any():
            raise ValueError("letter codes must lie in 0..3")
        return cls._from_positions(letters.shape[0], np.flatnonzero(one_hot(letters)))

    @classmethod
    def _from_positions(cls, n: int, positions: np.ndarray) -> "PauliOperator":
        """The n-qubit operator with letters at `positions`, an ascending intp
        array with at most one per qubit, unchecked: positions qbp computed
        itself.  The operator keeps the array, which becomes read-only."""
        positions.setflags(write=False)
        op = object.__new__(cls)
        op.n, op._positions = n, positions
        return op

    @classmethod
    def _from_rows(cls, n: int, row: np.ndarray, positions: np.ndarray, count: int) -> list["PauliOperator"]:
        """The `count` n-qubit operators with letters at (row, positions), row
        by row, ascending in each row, unchecked as in _from_positions."""
        positions.setflags(write=False)  # and so each row's slice, read-only with it
        ends = np.cumsum(np.bincount(row, minlength=count)).tolist()
        ops = [object.__new__(cls) for _ in ends]
        for op, a, b in zip(ops, [0] + ends, ends):
            op.n, op._positions = n, positions[a:b]
        return ops

    def __reduce__(self):
        return PauliOperator._from_positions, (self.n, self._positions)

    # -- views ---------------------------------------------------------

    def positions(self) -> np.ndarray:
        """Ascending positions (l - 1) * n + q of the non-identity letters l
        (X = 1, Y = 2, Z = 3) on qubits q, read-only."""
        return self._positions

    def letters(self) -> np.ndarray:
        """Per-qubit letter codes as an int8 array."""
        letters = np.zeros(self.n, dtype=np.int8)
        label, qubit = np.divmod(self._positions, self.n)
        letters[qubit] = label + 1
        return letters

    @property
    def weight(self) -> int:
        return len(self._positions)

    @property
    def is_identity(self) -> bool:
        return not len(self._positions)

    # -- group operations ----------------------------------------------

    def _checked_n(self, other: "PauliOperator") -> int:
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        return self.n

    def commute(self, other: "PauliOperator") -> int:
        """Commutation sign: +1 if the operators commute, -1 otherwise.

        Two letters on one qubit anticommute unless they are equal, so the
        sign is the parity of the shared qubits less the shared positions,
        which equals the product of the per-qubit sign table entries.
        """
        n, a, b = self._checked_n(other), self._positions, other._positions
        shared = len(np.intersect1d(a % n, b % n, assume_unique=True))
        return -1 if (shared - len(np.intersect1d(a, b, assume_unique=True))) & 1 else 1

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        # letter codes multiply as XOR, qubit by qubit: X ^ Y = Z, Y ^ Y = I
        n = self._checked_n(other)
        letters = np.zeros(n, dtype=np.int8)
        for positions in (self._positions, other._positions):
            label, qubit = np.divmod(positions, n)
            letters[qubit] ^= label + 1
        return PauliOperator._from_positions(n, np.flatnonzero(one_hot(letters)))

    # -- plumbing --------------------------------------------------------

    def __str__(self) -> str:
        return "".join(LETTERS[c] for c in self.letters())

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self.n == other.n and self._positions.tobytes() == other._positions.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self._positions.tobytes()))
