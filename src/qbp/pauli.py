"""Phase-free n-qubit Pauli operators in binary symplectic form.

An operator is stored as a pair of bit-packed integers: bit q of ``x_bits``
is set when the factor on qubit q is X or Y, bit q of ``z_bits`` when it is
Z or Y.  Multiplication is then XOR and the commutation sign is a popcount
parity, so group operations cost O(n / wordsize).  Phases are dropped at
construction time; the represented group is the Pauli group modulo its
center, which is all a Pauli channel can distinguish.

The one array layout is `positions`: the ascending (l - 1) * n + q of the
letters l (X = 1, Y = 2, Z = 3) on non-identity qubits q, which index the
letter-major (3, n) tables of the syndrome and the decoder.  Letter arrays
(`letters`, and `from_letters`, the checked way in) are built on it.
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


class PauliOperator:
    """An n-qubit Pauli operator modulo phase."""

    __slots__ = ("n", "x_bits", "z_bits")

    def __init__(self, n: int, x_bits: int, z_bits: int):
        if n < 1:
            raise ValueError("operator needs at least one qubit")
        mask = (1 << n) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError("bit vector longer than qubit count")
        self.n = n
        self.x_bits = x_bits
        self.z_bits = z_bits

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        """Parse a string such as ``"XIIY"``; leftmost letter is qubit 0."""
        if not text:
            raise ValueError("empty Pauli string")
        x = z = 0
        for q, ch in enumerate(text):
            if ch == "I":
                continue
            if ch == "X":
                x |= 1 << q
            elif ch == "Y":
                x |= 1 << q
                z |= 1 << q
            elif ch == "Z":
                z |= 1 << q
            else:
                raise ValueError(f"invalid Pauli letter {ch!r} at position {q}")
        return cls(len(text), x, z)

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
        n = letters.shape[0]
        qubits = np.flatnonzero(letters)
        return cls._from_positions(n, (letters[qubits].astype(np.intp) - 1) * n + qubits)

    @classmethod
    def _from_positions(cls, n: int, positions: np.ndarray) -> "PauliOperator":
        """The n-qubit operator with letters at `positions`, at most one per
        qubit in any order, unchecked: positions qbp computed itself."""
        bits = np.zeros(3 * n, dtype=np.uint8)
        bits[positions] = 1
        stacked = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        mask = (1 << n) - 1
        x_only, y, z_only = stacked & mask, (stacked >> n) & mask, stacked >> (2 * n)
        return cls(n, x_only | y, z_only | y)

    # -- views ---------------------------------------------------------

    def positions(self) -> np.ndarray:
        """Ascending positions (l - 1) * n + q of the non-identity letters l
        (X = 1, Y = 2, Z = 3) on qubits q."""
        x, z, n = self.x_bits, self.z_bits, self.n
        stacked = (x & ~z) | ((x & z) << n) | ((z & ~x) << (2 * n))
        raw = np.frombuffer(stacked.to_bytes((3 * n + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(raw, bitorder="little", count=3 * n))

    def letters(self) -> np.ndarray:
        """Per-qubit letter codes as an int8 array."""
        letters = np.zeros(self.n, dtype=np.int8)
        label, qubit = np.divmod(self.positions(), self.n)
        letters[qubit] = label + 1
        return letters

    def support(self) -> int:
        """Bit mask of qubits with a non-identity factor."""
        return self.x_bits | self.z_bits

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    # -- group operations ----------------------------------------------

    def commute(self, other: "PauliOperator") -> int:
        """Commutation sign: +1 if the operators commute, -1 otherwise.

        Equals the parity of the binary symplectic inner product, which in
        turn equals the product of the per-qubit sign table entries.
        """
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        parity = ((self.x_bits & other.z_bits).bit_count() + (self.z_bits & other.x_bits).bit_count()) & 1
        return -1 if parity else 1

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        return PauliOperator(self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    # -- plumbing --------------------------------------------------------

    def __str__(self) -> str:
        return "".join(LETTERS[c] for c in self.letters())

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self.n == other.n and self.x_bits == other.x_bits and self.z_bits == other.z_bits

    def __hash__(self) -> int:
        return hash((self.n, self.x_bits, self.z_bits))
