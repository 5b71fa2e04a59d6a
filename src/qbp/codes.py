"""Stabilizer codes as commuting check collections on a decorated Tanner graph.

A code is built from m independent, pairwise commuting Pauli checks on n
qubits and encodes k = n - m logical qubits.  The decorated Tanner graph has
an edge (q, c) wherever check c acts non-trivially on qubit q, labelled with
that Pauli factor.  Logical operators and pure errors are extracted by
symplectic Gaussian elimination over GF(2) on the check matrix.

The constructor is the one place a check set is validated and indexed.  The
checks' positions (pauli's one array layout), sorted by qubit within each
check, are the edge lists, from which come `edges`, the anticommutation
table below and the isolated-qubit warning.  The commutation test XORs each
check's edges' table rows into the packed set of checks it anticommutes
with.  The edges also give the checks' symplectic x|z rows as one uint64
word matrix, whose one packed elimination (gf2.packed_echelon) rejects
dependent checks and keeps their reduced echelon `basis` as (pivots, uint64
rows), against which `residual_class` tests stabilizer membership; the rows
themselves are not kept.  The canonical generators run on the same
elimination and packed rows, and read their operators' positions back from
the rows.

`edges` is the one stored Tanner graph: every graph fact (check qubits,
degrees, the DOT export, the 4-loop census) is read from it.  A code object
is immutable after construction; canonical generators, `check_qubits`,
`check_degrees` and the fingerprint are cached lazily.  `checked_syndrome`
is the one syndrome validation, used by BP, pure errors and the oracles;
`checked_integer` and `checked_real` are the one number check, used by
every public entry point that takes a count, a seed or a strength.

There is one commutation path.  The constructor packs, from the edge
lists, the checks that anticommute with each non-identity letter on each
qubit into a (3n, ceil(m / 64)) uint64 table, `anti_words`, two set bits
per edge.  `syndrome_words` XORs the rows at an operator's positions
(pauli's one array layout) into its packed syndrome: `syndrome` and
`residual_class` read them from the operator, the BP decode loop from its
hard decision, and `syndrome01_of_letters` from letters that `from_letters`
validates.  The commutation test and the oracle's enumeration read the same
table.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .pauli import LETTERS, PauliOperator, one_hot

STABILIZER = "stabilizer"
LOGICAL = "logical"
DETECTABLE = "detectable"

# Rows per block of the canonical-set check: each block's products reach
# only from its first row rightwards, so smaller blocks form less of the
# lower triangle, and 64 rows keep the per-block cost small beside the work.
_VERIFY_ROWS = 64


class CodeFormatError(ValueError):
    """Raised for malformed code files."""


class NonCommutingChecksError(ValueError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"checks {i} and {j} anticommute")


class DependentChecksError(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"check {index} is a product of earlier checks")


def syndrome_from_string(text: str) -> np.ndarray:
    """Parse a syndrome written over {+,-}, e.g. "+-" -> (+1, -1)."""
    if not text or any(ch not in "+-" for ch in text):
        raise ValueError(f"syndrome must be a nonempty string over +/-, got {text!r}")
    return np.array([1 if ch == "+" else -1 for ch in text], dtype=np.int8)


def syndrome_to_string(s: np.ndarray) -> str:
    return "".join("+" if b > 0 else "-" for b in s)


def checked_syndrome(syndrome, m: int) -> np.ndarray:
    """The syndrome as an int8 array of m signs; anything else, a bool or
    complex array included, is a ValueError."""
    syndrome = np.asarray(syndrome)
    if syndrome.shape != (m,):
        raise ValueError(f"syndrome must have {m} bits, got shape {syndrome.shape}")
    # 0/1 bits would be misread, 0 as +1, and True == 1 reads a violation as +1
    if syndrome.dtype.kind in "bc" or not ((syndrome == 1) | (syndrome == -1)).all():
        raise ValueError(f"syndrome entries must be +1 (commute) or -1 (anticommute), got dtype {syndrome.dtype}")
    return syndrome.astype(np.int8, copy=False)


def checked_integer(name: str, value, low) -> int:
    """value as a Python int >= low.  A bool (which Python counts as an
    Integral; numpy's is no number), a float such as 2.5 or 3.0, a string or
    None is a ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_real(name: str, value, low, high=math.inf) -> float:
    """value as a finite Python float in [low, high].  A bool, a string, None,
    NaN, an infinity or an int too large for a float is a ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and low <= number <= high):
        bounds = f"be finite and >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bounds}, got {value!r}")
    return number


@dataclass(frozen=True)
class EdgeArrays:
    """Flat numpy view of the decorated Tanner graph.

    Edges are check-major, with ascending qubits inside each check: per-check
    values reach a check's edges by np.repeat over the check_start segments.
    `slot` places each edge in a letter-major (3, n) per-qubit table, one row
    per non-identity letter, flattened: the BP qubit update sums per-edge
    terms into it by bincount and gathers from it.
    """

    qubit: np.ndarray       # (E,) qubit index per edge
    check_start: np.ndarray  # (m+1,) segment offsets per check
    slot: np.ndarray        # (E,) (label - 1) * n + qubit


def segment_positions(bounds: np.ndarray, picks) -> np.ndarray:
    """Positions of the segments [bounds[i], bounds[i + 1]) for i in picks,
    concatenated in pick order (repeats included)."""
    picks = np.asarray(picks, dtype=np.intp)
    lo = bounds[picks]
    lengths = bounds[picks + 1] - lo
    ends = np.cumsum(lengths)
    return np.repeat(lo - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _edge_pairs_on_qubits(qubit: np.ndarray):
    """Every pair of edges on one qubit, from check-major edge lists.

    Returns the qubit-major edge order (stable, so checks ascend within a
    qubit) and the positions (first, second), first < second, of each pair
    in it, qubit by qubit: sum over qubits of degree * (degree - 1) / 2
    pairs, not m * (m - 1) / 2 check pairs.
    """
    order = np.argsort(qubit, kind="stable")
    qubit = qubit[order]
    # pair each edge with every later edge on its qubit
    later = np.searchsorted(qubit, qubit, side="right") - np.arange(1, len(qubit) + 1)
    first = np.repeat(np.arange(len(qubit)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return order, first, second


def _anticommutation_table(qubit, check, letter, n: int, m: int) -> np.ndarray:
    """(3n, ceil(m / 64)) little-endian uint64 rows from check-major edge lists:
    row (l - 1) * n + q has bit c set when letter l on qubit q anticommutes
    with check c, that is when l is neither I nor c's letter on q."""
    table = np.zeros((3 * n, 8 * ((m + 63) // 64)), dtype=np.uint8)
    # 32-bit copies, so that no per-edge temporary below is 64-bit wide
    check, qubit = check.astype(np.int32), qubit.astype(np.int32)
    byte, bit = check >> 3, np.left_shift(1, check & 7).astype(np.uint8)
    # l - 1 of the two letters anticommuting with each edge's label
    for row in (letter % 3, (letter + 1) % 3):
        np.bitwise_or.at(table, (row * np.int32(n) + qubit, byte), bit)
    return table.view("<u8")


def _letter_entries(ops):
    """(row, positions) of every non-identity letter of ops, operator-major:
    the operator's index and the letter's position (l - 1) * n + q."""
    positions = [op.positions() for op in ops]
    lengths = np.fromiter(map(len, positions), np.intp, len(ops))
    return np.repeat(np.arange(len(ops)), lengths), np.concatenate(positions)


def _symplectic_words(row, positions, count: int, n: int) -> np.ndarray:
    """The x|z rows, x on columns 0..n-1, of `count` operators with letters
    at (row, positions), as (count, ceil(2n / 64)) uint64 words."""
    label, qubit = np.divmod(positions, n)
    width = 64 * ((2 * n + 63) // 64)  # whole words, so the bits pack with no padding
    bits = np.zeros(count * width, dtype=np.uint8)
    flat = row * width + qubit
    bits[flat[label < 2]] = 1  # X or Y: an x bit
    bits[flat[label > 0] + n] = 1  # Y or Z: a z bit
    return np.packbits(bits, bitorder="little").view("<u8").reshape(count, width // 64)


def _ops_from_words(words: np.ndarray, n: int) -> tuple[PauliOperator, ...]:
    """The operators of (r, ceil(2n / 64)) uint64 x|z rows, x on columns 0..n-1."""
    x, z = np.split(gf2.unpack_rows(words, 2 * n), 2, axis=1)
    # letters x ^ 3z: I, X, Y, Z = 0-3; a flat nonzero is faster than a 2-D one
    row, positions = np.divmod(np.flatnonzero(one_hot(x ^ 3 * z)), 3 * n)
    return tuple(PauliOperator._from_rows(n, row, positions, len(words)))


class StabilizerCode:
    """Validated stabilizer code; treat instances as immutable."""

    def __init__(self, checks):
        ops = tuple(PauliOperator.from_string(c) if isinstance(c, str) else c for c in checks)
        if not ops:
            raise ValueError("a code needs at least one check")
        n = ops[0].n
        for i, op in enumerate(ops):
            if op.n != n:
                raise ValueError(f"check {i} acts on {op.n} qubits, expected {n}")
        # the checks' positions serve the Tanner graph; sorted by qubit within
        # each check, they are check-major with ascending qubits, the edge
        # order everywhere below
        m = len(ops)
        check, positions = _letter_entries(ops)
        order = np.argsort(check * n + positions % n, kind="stable")
        check, slot = check[order], positions[order]
        label, qubit = np.divmod(slot, n)
        check_start = np.concatenate(([0], np.cumsum(np.bincount(check, minlength=m))))
        anti_words = _anticommutation_table(qubit, check, label + 1, n, m)
        # row c: the checks that check c anticommutes with, the XOR of its
        # edges' table rows.  The relation is symmetric with a zero
        # diagonal, so its first set bit in row-major order is the first
        # pair (i, j), i < j.  An identity check has no edges, and so no
        # segment: reduceat would read the next check's first row for it.
        anti = np.zeros((m, anti_words.shape[1]), dtype="<u8")
        starts = check_start[:-1]
        edged = starts < check_start[1:]
        if edged.any():
            anti[edged] = np.bitwise_xor.reduceat(anti_words[slot], starts[edged], axis=0)
        if anti.any():
            raise NonCommutingChecksError(*np.argwhere(gf2.unpack_rows(anti, m))[0].tolist())
        # the symplectic rows' reduced echelon basis as (pivots, rows), from
        # one elimination
        kept, pivots, rows, _ = gf2.packed_echelon(_symplectic_words(check, slot, m, n))
        if len(kept) < m:
            raise DependentChecksError(int(np.setdiff1d(np.arange(m), kept)[0]))
        self.basis = (pivots, rows)

        self.n = n
        self.m = m
        self.checks = ops
        isolated = np.flatnonzero(np.bincount(qubit, minlength=n) == 0)
        if isolated.size:
            warnings.warn(f"qubits {isolated.tolist()} are isolated (degree 0)", stacklevel=2)
        self.edges = EdgeArrays(qubit=qubit, check_start=check_start, slot=slot)
        self.anti_words = anti_words
        self._cache: dict = {}

    # pickling: everything built in __init__ travels; lazy caches are rebuilt on demand
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_cache"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache = {}

    def _cached(self, key: str, build):
        """Derived structure `key`, built by build() on first use."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    @property
    def k(self) -> int:
        return self.n - self.m

    # -- syndromes -------------------------------------------------------

    def syndrome_words(self, positions: np.ndarray) -> np.ndarray:
        """The packed violation bits, (ceil(m / 64),) little-endian uint64 with
        check c at bit c % 64 of word c // 64, of the operator whose
        non-identity letters sit at `positions`, (l - 1) * n + q each."""
        return np.bitwise_xor.reduce(self.anti_words.take(positions, axis=0), axis=0)

    def pack_checks(self, bits: np.ndarray) -> np.ndarray:
        """(m,) 0/1 or bool per-check bits packed as syndrome_words packs them."""
        words = np.zeros(self.anti_words.shape[1], dtype="<u8")
        packed = np.packbits(bits, bitorder="little")
        words.view(np.uint8)[:len(packed)] = packed
        return words

    def unpack_checks(self, words: np.ndarray) -> np.ndarray:
        """(m,) uint8 bits from words packed as syndrome_words packs them."""
        return np.unpackbits(words.view(np.uint8), count=self.m, bitorder="little")

    def syndrome01_of_letters(self, letters) -> np.ndarray:
        """Violation bits (1 = anticommute) of a per-qubit (n,) letter assignment."""
        letters = np.asarray(letters)
        if letters.shape != (self.n,):
            raise ValueError(f"letters must have shape ({self.n},), got {letters.shape}")
        return self.unpack_checks(self.syndrome_words(PauliOperator.from_letters(letters).positions()))

    def syndrome(self, error: PauliOperator) -> np.ndarray:
        """Vector of commutation signs of the error with every check."""
        if error.n != self.n:
            raise ValueError(f"error acts on {error.n} qubits, expected {self.n}")
        return 1 - 2 * self.unpack_checks(self.syndrome_words(error.positions())).astype(np.int8)

    # -- graph analytics ---------------------------------------------------

    def four_loop_census(self):
        """All unordered check pairs sharing >= 2 qubits, with the shared sets.

        Every such pair closes a 4-loop in the Tanner graph.  Pairs come in
        ascending (i, j) order, each with its shared qubits ascending.
        """
        ea = self.edges
        order, first, second = _edge_pairs_on_qubits(ea.qubit)
        check = np.repeat(np.arange(self.m), self.check_degrees)[order]
        keys = check[first] * self.m + check[second]
        # stable, so each check pair keeps its qubits ascending
        by_pair = np.argsort(keys, kind="stable")
        shared = ea.qubit[order][first][by_pair].tolist()
        keys, heads, sizes = np.unique(keys[by_pair], return_index=True, return_counts=True)
        loops = [(*divmod(key, self.m), tuple(shared[h:h + size]))
                 for key, h, size in zip(keys.tolist(), heads.tolist(), sizes.tolist()) if size >= 2]
        return len(loops), loops

    def shared_qubits(self, i: int, j: int) -> tuple[int, ...]:
        """Qubits on which both checks i and j act, ascending."""
        return tuple(sorted(set(self.check_qubits[i]).intersection(self.check_qubits[j])))

    @property
    def check_qubits(self) -> tuple[tuple[int, ...], ...]:
        """Per check, the qubits it acts on, ascending."""
        def build():
            qubits, bounds = self.edges.qubit.tolist(), self.edges.check_start.tolist()
            return tuple(tuple(qubits[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._cached("check_qubits", build)

    @property
    def check_degrees(self) -> np.ndarray:
        """(m,) number of edges of each check."""
        return self._cached("check_degrees", lambda: np.diff(self.edges.check_start))

    def degree_distribution(self):
        """Edge-perspective degree distributions (lambda, rho) as coefficient lists.

        Entry j of each list is the exact fraction of edges incident to
        degree-(j+1) nodes, i.e. the coefficient of x^j.
        """
        edges = len(self.edges.qubit)
        qdeg = np.bincount(self.edges.qubit, minlength=self.n)
        if not qdeg.all():
            warnings.warn("isolated qubits are excluded from the degree distribution", stacklevel=2)
        qdeg = qdeg[qdeg > 0]

        def coefficients(degrees):
            # the degree-d nodes' d * count edges, over all edges, for d = 1..max
            counts = np.bincount(degrees).tolist()
            return [Fraction(d * count, edges) for d, count in enumerate(counts)][1:]

        return coefficients(qdeg), coefficients(self.check_degrees)

    # -- symplectic structure ---------------------------------------------

    def canonical_generators(self):
        """Pure errors and logical generators completing the checks to a canonical set.

        Returns (pure_errors, logicals) where pure_errors[c] anticommutes with
        check c and no other, and logicals = (X1..Xk, Z1..Zk) commute with all
        checks and pure errors and pair up canonically.  Computed by symplectic
        Gaussian elimination on the check matrix.
        """
        return self._cached("canonical", self._compute_canonical)

    def _compute_canonical(self):
        n2, m, k = 2 * self.n, self.m, self.k
        # [swapped checks | I_m], a check's symplectic partner being its x
        # and z halves swapped: the free columns of its elimination give the
        # centralizer of the checks, and the tag columns the combination of
        # checks each basis row is, hence the unit targets
        checks = _symplectic_words(*_letter_entries(self.checks), m, self.n)
        swapped = gf2.unpack_rows(self._swapped(checks), n2)
        _, pivots, reduced, _ = gf2.packed_echelon(gf2.pack_rows(np.hstack([swapped, np.eye(m, dtype=np.uint8)])))
        reduced = gf2.unpack_rows(reduced, n2 + m)
        free = np.setdiff1d(np.arange(n2), pivots)
        centralizer = np.zeros((len(free), n2), dtype=np.uint8)
        centralizer[np.arange(len(free)), free] = 1
        centralizer[:, pivots] = reduced[:, free].T
        # targets[c] anticommutes with check c and no other
        targets = np.zeros((m, n2), dtype=np.uint8)
        targets[:, pivots] = reduced[:, n2:].T
        targets = gf2.pack_rows(targets)

        # logical candidates: centralizer rows outside the span of the checks
        # and the rows before them, as inserted
        kept, _, _, inserted = gf2.packed_echelon(np.vstack([self.basis[1], gf2.pack_rows(centralizer)]))
        pool = inserted[kept >= m]
        if len(pool) != 2 * k:
            raise RuntimeError(f"expected {2 * k} logical candidates, got {len(pool)}")

        # symplectic Gram-Schmidt into hyperbolic pairs (u, v); a row's
        # product with u is unchanged by adding u, so both updates read the
        # products before them
        xs, zs = [], []
        while len(pool):
            u, rest = pool[0], pool[1:]
            partner = np.flatnonzero(self._gram(rest, u[None]))
            if not partner.size:
                raise RuntimeError("logical candidate has no anticommuting partner")
            v, rest = rest[partner[0]], np.delete(rest, partner[0], axis=0)
            a, b = self._gram(rest, np.stack([v, u])).astype(np.uint64).T[:, :, None]
            pool = rest ^ a * u ^ b * v
            xs.append(u)
            zs.append(v)
        logicals = np.array(xs + zs, dtype="<u8").reshape(2 * k, checks.shape[1])

        # pure errors: clear each target's products with the logicals, then
        # with the targets before it by adding those targets' checks.  The
        # pairs are mutually orthogonal, and adding check c2 to target c
        # changes only its product with target c2, so each fix reads the
        # products before any of them.
        targets ^= gf2.product(self._gram(targets, logicals), np.roll(logicals, k, axis=0))
        targets ^= gf2.product(np.tril(self._gram(targets, targets), -1), checks)

        pure, logicals = _ops_from_words(targets, self.n), _ops_from_words(logicals, self.n)
        self._verify_canonical(pure, logicals)
        return pure, logicals

    def _swapped(self, words: np.ndarray) -> np.ndarray:
        """Packed x|z rows with their x and z halves swapped: the symplectic
        product of two rows is the parity of one AND the other swapped."""
        return gf2.pack_rows(np.roll(gf2.unpack_rows(words, 2 * self.n), self.n, axis=1))

    def _gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(len(a), len(b)) uint8 symplectic products of packed x|z rows:
        1 where a row of a anticommutes with a row of b."""
        return gf2.dot(a, self._swapped(b))

    def _verify_canonical(self, pure, logicals):
        """Raise RuntimeError unless checks, pure errors and logicals form a
        canonical set: pure error c anticommutes with check c alone, logical
        X_i with Z_i alone, and every other pair commutes.

        The symplectic form is symmetric with a zero diagonal, and the
        constructor proved that the checks commute, so only the pairs above
        the diagonal outside the checks' own block are formed, in row blocks
        in order; the first bad pair found is the full Gram matrix's first
        in row-major order."""
        m, k = self.m, self.k
        if len(pure) != m or len(logicals) != 2 * k:
            raise RuntimeError(f"expected {m} pure errors and {2 * k} logicals")
        gens = _symplectic_words(*_letter_entries(self.checks + tuple(pure) + tuple(logicals)), 2 * (m + k), self.n)
        swapped = self._swapped(gens)
        partner = np.full(len(gens), -1)
        partner[:m] = m + np.arange(m)
        partner[2 * m:2 * m + k] = 2 * m + k + np.arange(k)
        bounds = [0, *range(m, len(gens), _VERIFY_ROWS), len(gens)]
        for lo, hi in zip(bounds, bounds[1:]):
            first = max(lo, m)
            gram = gf2.dot(gens[lo:hi], swapped[first:])
            rows = np.flatnonzero(partner[lo:hi] >= 0)
            gram[rows, partner[lo + rows] - first] ^= 1
            bad = np.argwhere(np.triu(gram, lo - first + 1))  # column > row only
            if len(bad):
                names = [f"{kind} {i}" for kind, size in (("check", m), ("pure error", m), ("logical", 2 * k))
                         for i in range(size)]
                i, j = bad[0].tolist()
                raise RuntimeError(f"{names[lo + i]} and {names[first + j]} break the canonical commutation relations")

    def pure_error_for_syndrome(self, s: np.ndarray) -> PauliOperator:
        """An operator whose syndrome equals s: product of pure errors on the -1 bits."""
        s = checked_syndrome(s, self.m)
        pure, _ = self.canonical_generators()
        return math.prod((pure[c] for c in np.flatnonzero(s < 0)), start=PauliOperator.identity(self.n))

    def residual_class(self, op: PauliOperator) -> str:
        """Classify a residual operator: detectable, stabilizer, or logical."""
        if (self.syndrome(op) < 0).any():
            return DETECTABLE
        if gf2.in_rowspan(_symplectic_words(np.zeros(op.weight, np.intp), op.positions(), 1, self.n)[0], self.basis):
            return STABILIZER
        return LOGICAL

    # -- I/O -----------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["graph tanner {"]
        for q in range(self.n):
            lines.append(f'  q{q} [shape=circle,label="q{q}"];')
        for c in range(self.m):
            lines.append(f'  c{c} [shape=box,label="c{c}"];')
        ea = self.edges
        checks = np.repeat(np.arange(self.m), self.check_degrees).tolist()
        labels = (ea.slot // self.n + 1).tolist()
        for q, c, letter in zip(ea.qubit.tolist(), checks, labels):
            lines.append(f'  q{q} -- c{c} [label="{LETTERS[letter]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(str(c) for c in self.checks)
        return "\n".join(lines) + "\n"

    def save(self, path, header_lines=()):
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "StabilizerCode":
        with open(path) as fh:
            lines = [
                (i + 1, line.strip())
                for i, line in enumerate(fh)
                if line.strip() and not line.lstrip().startswith("#")
            ]
        if not lines:
            raise CodeFormatError(f"{path}: no content")
        lineno, head = lines[0]
        parts = head.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise CodeFormatError(f"{path}:{lineno}: expected 'n m', got {head!r}")
        n, m = int(parts[0]), int(parts[1])
        if len(lines) - 1 != m:
            raise CodeFormatError(f"{path}: expected {m} checks, found {len(lines) - 1}")
        checks = []
        for lineno, text in lines[1:]:
            if len(text) != n or any(ch not in LETTERS for ch in text):
                raise CodeFormatError(f"{path}:{lineno}: invalid {n}-qubit Pauli string {text!r}")
            checks.append(text)
        try:
            return cls(checks)
        except ValueError as exc:
            raise CodeFormatError(f"{path}: {exc}") from exc

    def fingerprint(self) -> str:
        return self._cached("fingerprint", lambda: hashlib.sha256(self.to_text().encode()).hexdigest())


def design_rate(lam, rho) -> float:
    """Code-ensemble design rate 1 - integral(rho) / integral(lambda)."""
    for name, coeffs in (("lambda", lam), ("rho", rho)):
        total = sum(Fraction(c) for c in coeffs)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"{name}(1) = {float(total)} != 1")
    int_lam = sum(Fraction(c) / (j + 1) for j, c in enumerate(lam))
    int_rho = sum(Fraction(c) / (j + 1) for j, c in enumerate(rho))
    if int_lam == 0:
        raise ValueError("lambda integrates to zero")
    return float(1 - int_rho / int_lam)
