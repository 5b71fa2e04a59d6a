import numpy as np

from qbp import gf2


def _to_rows(mat):
    return [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in mat]


def test_rank_against_numpy_elimination():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        mat = rng.integers(0, 2, size=(m, n))
        # reference rank by dense elimination
        a = mat.copy() % 2
        rank = 0
        for col in range(n):
            rows = [r for r in range(rank, m) if a[r, col]]
            if not rows:
                continue
            a[[rank, rows[0]]] = a[[rows[0], rank]]
            for r in range(m):
                if r != rank and a[r, col]:
                    a[r] ^= a[rank]
            rank += 1
        assert len(gf2.echelon(_to_rows(mat))) == rank


def test_rowspan_membership():
    rows = _to_rows(np.array([[1, 1, 0], [0, 1, 1]]))
    basis = gf2.echelon(rows)
    assert gf2.in_rowspan(0b011, basis)
    assert gf2.in_rowspan(0b101, basis)   # sum of both rows
    assert not gf2.in_rowspan(0b001, basis)


def _first_dependent(rows):
    """Index of the first row whose insert returns 0 (the constructor's test), or None."""
    basis = []
    return next((i for i, r in enumerate(rows) if not gf2.insert(basis, r)), None)


def test_first_dependent():
    rows = _to_rows(np.array([[1, 0], [0, 1], [1, 1]]))
    assert _first_dependent(rows) == 2
    assert _first_dependent(rows[:2]) is None
    assert _first_dependent([0b0]) == 0


def test_nullspace_annihilates():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m, n = int(rng.integers(1, 7)), int(rng.integers(2, 12))
        mat = rng.integers(0, 2, size=(m, n))
        rows = _to_rows(mat)
        null = gf2.nullspace(rows, n)
        assert len(null) == n - len(gf2.echelon(rows))
        for v in null:
            for r in rows:
                assert (r & v).bit_count() % 2 == 0


def test_solve_unit_targets():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n + 1))
        mat = rng.integers(0, 2, size=(m, n))
        rows = _to_rows(mat)
        if len(gf2.echelon(rows)) < m:
            continue
        sols = gf2.solve_unit_targets(rows)
        for c, v in enumerate(sols):
            for j, r in enumerate(rows):
                assert (r & v).bit_count() % 2 == (1 if j == c else 0)


def _to_words(mat):
    """Rows of a 0/1 matrix as little-endian uint64 words, column j at bit j % 64 of word j // 64."""
    packed = np.packbits(mat.astype(np.uint8), axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view("<u8")


def test_packed_echelon_matches_insert_loop():
    # against echelon() of the independent prefix, with rows spanning one to
    # three words; a low rank makes the first dependent row come early
    rng = np.random.default_rng(4)
    stopped = 0
    for _ in range(300):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 150))
        mat = rng.integers(0, 2, size=(m, n))
        if rng.random() < 0.3:
            mat = (mat[:, :1] @ rng.integers(0, 2, size=(1, n)) + rng.integers(0, 2, size=(m, 1)) * mat[:1]) % 2
        rows = _to_rows(mat)
        first = _first_dependent(rows)
        got = gf2.packed_echelon(_to_words(mat))
        assert got == gf2.echelon(rows[:first])
        assert len(got) == (m if first is None else first)
        assert all(type(p) is int and type(r) is int for p, r in got)
        stopped += first is not None
    assert 50 < stopped < 300
