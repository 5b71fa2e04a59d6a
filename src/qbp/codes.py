"""Stabilizer codes as commuting check collections on a decorated Tanner graph.

A code is built from m independent, pairwise commuting Pauli checks on n
qubits and encodes k = n - m logical qubits.  The decorated Tanner graph has
an edge (q, c) wherever check c acts non-trivially on qubit q, labelled with
that Pauli factor.  Logical operators and pure errors are extracted by
symplectic Gaussian elimination over GF(2) on the check matrix; a code object
is immutable after construction and derived structure is cached lazily.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .pauli import ANTI_TABLE, LETTERS, SIGN_TABLE, PauliOperator

STABILIZER = "stabilizer"
LOGICAL = "logical"
DETECTABLE = "detectable"

_ANTI_FLAT = ANTI_TABLE.ravel()


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


@dataclass(frozen=True)
class EdgeArrays:
    """Flat numpy view of the decorated Tanner graph.

    Edges are check-major except in `sign`, which is letter-major (4, E) over
    the qubit-sorted edges: sign[l, i] is the commutation sign of letter l
    against the decoration of edge qubit_order[i].
    """

    qubit: np.ndarray       # (E,) qubit index per edge
    check: np.ndarray       # (E,) check index per edge
    check_start: np.ndarray  # (m+1,) segment offsets per check
    sign: np.ndarray        # (4,E) per letter, per qubit-sorted edge: commutation sign vs the decoration
    anti_index: np.ndarray  # (E,) row offsets into the flat anticommute table
    qubit_order: np.ndarray  # (E,) permutation sorting edges by qubit (stable)
    qubit_rank: np.ndarray  # (E,) inverse of qubit_order: sorted position of each edge
    qubit_start: np.ndarray  # (A+1,) segment offsets over qubit-sorted edges
    active_qubits: np.ndarray | slice  # qubits of degree >= 1: an (A,) index, or slice(None) if all n


class StabilizerCode:
    """Validated stabilizer code; treat instances as immutable."""

    def __init__(self, checks):
        ops = []
        for i, c in enumerate(checks):
            ops.append(PauliOperator.from_string(c) if isinstance(c, str) else c)
        if not ops:
            raise ValueError("a code needs at least one check")
        n = ops[0].n
        for i, op in enumerate(ops):
            if op.n != n:
                raise ValueError(f"check {i} acts on {op.n} qubits, expected {n}")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if ops[i].commute(ops[j]) != 1:
                    raise NonCommutingChecksError(i, j)
        dep = gf2.first_dependent([self._symplectic_row(op) for op in ops])
        if dep is not None:
            raise DependentChecksError(dep)

        self.n = n
        self.m = len(ops)
        self.checks = tuple(ops)
        self.tanner = tuple(
            tuple((q, int(letter)) for q, letter in enumerate(op.letters()) if letter != 0)
            for op in ops
        )
        covered = 0
        for op in ops:
            covered |= op.support()
        if covered != (1 << n) - 1:
            isolated = [q for q in range(n) if not (covered >> q) & 1]
            warnings.warn(f"qubits {isolated} are isolated (degree 0)", stacklevel=2)
        self._cache: dict = {}

    # pickling: derived caches are recomputed on demand
    def __getstate__(self):
        state = {k: getattr(self, k) for k in ("n", "m", "checks", "tanner")}
        return state

    def __setstate__(self, state):
        for k, v in state.items():
            setattr(self, k, v)
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

    @staticmethod
    def _symplectic_row(op: PauliOperator) -> int:
        return op.x_bits | (op.z_bits << op.n)

    def _op_from_row(self, row: int) -> PauliOperator:
        mask = (1 << self.n) - 1
        return PauliOperator(self.n, row & mask, row >> self.n)

    # -- syndromes -------------------------------------------------------

    def syndrome(self, error: PauliOperator) -> np.ndarray:
        """Vector of commutation signs of the error with every check."""
        if error.n != self.n:
            raise ValueError(f"error acts on {error.n} qubits, expected {self.n}")
        return 1 - 2 * self.syndrome01_of_letters(error.letters()).astype(np.int8)

    # -- graph analytics ---------------------------------------------------

    def four_loop_census(self):
        """All unordered check pairs sharing >= 2 qubits, with the shared sets.

        Every such pair closes a 4-loop in the Tanner graph.
        """
        loops = []
        for i in range(self.m):
            for j in range(i + 1, self.m):
                shared = self.shared_qubits(i, j)
                if len(shared) >= 2:
                    loops.append((i, j, shared))
        return len(loops), loops

    def shared_qubits(self, i: int, j: int) -> tuple[int, ...]:
        """Qubits on which both checks i and j act, ascending."""
        common = self.checks[i].support() & self.checks[j].support()
        if not common:
            return ()
        return tuple(q for q in self.check_qubits[i] if (common >> q) & 1)

    @property
    def check_qubits(self) -> tuple[tuple[int, ...], ...]:
        """Per check, the qubits it acts on, ascending."""
        return self._cached("check_qubits", lambda: tuple(tuple(q for q, _ in adj) for adj in self.tanner))

    def degree_distribution(self):
        """Edge-perspective degree distributions (lambda, rho) as coefficient lists.

        Entry j of each list is the exact fraction of edges incident to
        degree-(j+1) nodes, i.e. the coefficient of x^j.
        """
        qdeg = [0] * self.n
        cdeg = [0] * self.m
        for c, adj in enumerate(self.tanner):
            cdeg[c] = len(adj)
            for q, _ in adj:
                qdeg[q] += 1
        edges = sum(cdeg)
        if any(d == 0 for d in qdeg):
            warnings.warn("isolated qubits are excluded from the degree distribution", stacklevel=2)
        lam = [Fraction(0)] * max(qdeg)
        for d in qdeg:
            if d:
                lam[d - 1] += Fraction(d, edges)
        rho = [Fraction(0)] * max(cdeg)
        for d in cdeg:
            rho[d - 1] += Fraction(d, edges)
        return lam, rho

    # -- symplectic structure ---------------------------------------------

    def _check_rows(self):
        return self._cached("rows", lambda: [self._symplectic_row(op) for op in self.checks])

    def _check_basis(self):
        return self._cached("basis", lambda: gf2.echelon(self._check_rows()))

    def canonical_generators(self):
        """Pure errors and logical generators completing the checks to a canonical set.

        Returns (pure_errors, logicals) where pure_errors[c] anticommutes with
        check c and no other, and logicals = (X1..Xk, Z1..Zk) commute with all
        checks and pure errors and pair up canonically.  Computed by symplectic
        Gaussian elimination on the check matrix.
        """
        return self._cached("canonical", self._compute_canonical)

    @property
    def pure_errors(self):
        return self.canonical_generators()[0]

    @property
    def logical_xs(self):
        return self.canonical_generators()[1][: self.k]

    @property
    def logical_zs(self):
        return self.canonical_generators()[1][self.k :]

    def _compute_canonical(self):
        n2 = 2 * self.n
        rows = self._check_rows()
        # symplectic partner of a row: swap x and z halves
        mask = (1 << self.n) - 1
        swapped = [((r >> self.n) & mask) | ((r & mask) << self.n) for r in rows]

        def sprod(u: int, v: int) -> int:
            vm = ((v >> self.n) & mask) | ((v & mask) << self.n)
            return (u & vm).bit_count() & 1

        # logical candidates: centralizer of the checks modulo their span
        centralizer = gf2.nullspace(swapped, n2)
        basis = list(self._check_basis())
        cands = [red for red in (gf2.insert(basis, v) for v in centralizer) if red]
        if len(cands) != 2 * self.k:
            raise RuntimeError(f"expected {2 * self.k} logical candidates, got {len(cands)}")

        # symplectic Gram-Schmidt into hyperbolic pairs
        xs, zs = [], []
        pool = cands
        while pool:
            u = pool[0]
            rest = pool[1:]
            partner = None
            for i, v in enumerate(rest):
                if sprod(u, v):
                    partner = i
                    break
            if partner is None:
                raise RuntimeError("logical candidate has no anticommuting partner")
            v = rest.pop(partner)
            adjusted = []
            for w in rest:
                if sprod(w, v):
                    w ^= u
                if sprod(w, u):
                    w ^= v
                adjusted.append(w)
            pool = adjusted
            xs.append(u)
            zs.append(v)

        # pure errors: one anticommuting partner per check
        ts = gf2.solve_unit_targets(swapped)
        for c in range(self.m):
            t = ts[c]
            for x, z in zip(xs, zs):
                a, b = sprod(t, x), sprod(t, z)
                if a:
                    t ^= z
                if b:
                    t ^= x
            ts[c] = t
        for c in range(self.m):
            for c2 in range(c):
                if sprod(ts[c], ts[c2]):
                    ts[c] ^= rows[c2]

        pure = tuple(self._op_from_row(t) for t in ts)
        logicals = tuple(self._op_from_row(r) for r in xs + zs)
        self._verify_canonical(pure, logicals)
        return pure, logicals

    def _verify_canonical(self, pure, logicals):
        k = self.k
        for c, t in enumerate(pure):
            for c2, s in enumerate(self.checks):
                want = -1 if c == c2 else 1
                if s.commute(t) != want:
                    raise RuntimeError("pure-error commutation relations violated")
            for t2 in pure[:c]:
                if t.commute(t2) != 1:
                    raise RuntimeError("pure errors do not commute")
        for i, l in enumerate(logicals):
            for s in self.checks:
                if s.commute(l) != 1:
                    raise RuntimeError("logical anticommutes with a check")
            for t in pure:
                if t.commute(l) != 1:
                    raise RuntimeError("logical anticommutes with a pure error")
            for j in range(i):
                want = -1 if abs(i - j) == k else 1
                if l.commute(logicals[j]) != want:
                    raise RuntimeError("logicals are not canonically paired")

    def pure_error_for_syndrome(self, s: np.ndarray) -> PauliOperator:
        """An operator whose syndrome equals s: product of pure errors on the -1 bits."""
        if len(s) != self.m:
            raise ValueError(f"syndrome has {len(s)} bits, expected {self.m}")
        pure, _ = self.canonical_generators()
        out = PauliOperator.identity(self.n)
        for c, bit in enumerate(s):
            if bit < 0:
                out = out * pure[c]
        return out

    def residual_class(self, op: PauliOperator) -> str:
        """Classify a residual operator: detectable, stabilizer, or logical."""
        if (self.syndrome(op) < 0).any():
            return DETECTABLE
        if gf2.in_rowspan(self._symplectic_row(op), self._check_basis()):
            return STABILIZER
        return LOGICAL

    # -- flat edge arrays for message passing ------------------------------

    @property
    def edges(self) -> EdgeArrays:
        return self._cached("edges", self._build_edges)

    def _build_edges(self) -> EdgeArrays:
        eq, ec, el = [], [], []
        for c, adj in enumerate(self.tanner):
            for q, letter in adj:
                eq.append(q)
                ec.append(c)
                el.append(letter)
        qubit = np.array(eq, dtype=np.int64)
        check = np.array(ec, dtype=np.int64)
        letter = np.array(el, dtype=np.int8)
        counts = np.bincount(check, minlength=self.m)
        check_start = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(qubit, kind="stable")
        active, qcounts = np.unique(qubit, return_counts=True)
        qubit_start = np.concatenate(([0], np.cumsum(qcounts)))
        return EdgeArrays(
            qubit=qubit,
            check=check,
            check_start=check_start,
            sign=np.ascontiguousarray(SIGN_TABLE[letter[order]].T, dtype=np.float64),
            anti_index=letter.astype(np.int64) * 4,
            qubit_order=order,
            qubit_rank=np.argsort(order),
            qubit_start=qubit_start,
            active_qubits=slice(None) if len(active) == self.n else active,
        )

    def syndrome01_of_letters(self, letters: np.ndarray) -> np.ndarray:
        """Violation bits (1 = anticommute) of a per-qubit letter assignment."""
        ea = self.edges
        a = _ANTI_FLAT.take(ea.anti_index + letters.take(ea.qubit))
        return np.bitwise_xor.reduceat(a, ea.check_start[:-1])

    # -- I/O -----------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["graph tanner {"]
        for q in range(self.n):
            lines.append(f'  q{q} [shape=circle,label="q{q}"];')
        for c in range(self.m):
            lines.append(f'  c{c} [shape=box,label="c{c}"];')
        for c, adj in enumerate(self.tanner):
            for q, letter in adj:
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


def _polyval(coeffs, x):
    acc = 0.0
    for c in reversed([float(c) for c in coeffs]):
        acc = acc * x + c
    return acc


def bec_threshold_check(lam, rho, delta: float, grid: int = 1000) -> bool:
    """Density-evolution success condition delta*lambda(1 - rho(1-x)) < x on (0, delta)."""
    if not 0 < delta < 1:
        raise ValueError("erasure probability must lie in (0, 1)")
    if grid < 100:
        raise ValueError("grid must be at least 100")
    for i in range(1, grid + 1):
        x = delta * i / (grid + 1)
        lhs = delta * _polyval(lam, 1.0 - _polyval(rho, 1.0 - x))
        if not lhs < x:
            return False
    return True
