import numpy as np

from qbp import gf2

from conftest import echelon, insert


def _to_rows(mat):
    return [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in mat]


def _to_int(words):
    return int.from_bytes(words.tobytes(), "little")


def _random_matrices(seed, count, max_rows=12, max_cols=150):
    """0/1 matrices whose rows span one to three words, the last mostly
    partial; a third are of low rank, so that dependent and zero rows come
    early."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, max_rows)), int(rng.integers(1, max_cols))
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if rng.random() < 0.3:
            mat = (mat[:, :1] @ rng.integers(0, 2, size=(1, n)) + rng.integers(0, 2, size=(m, 1)) * mat[:1]) % 2
        yield mat.astype(np.uint8)


def test_pack_rows_roundtrip():
    for mat in _random_matrices(5, 100):
        words = gf2.pack_rows(mat)
        assert words.dtype == np.dtype("<u8") and words.shape == (len(mat), (mat.shape[1] + 63) // 64)
        assert [_to_int(w) for w in words] == _to_rows(mat)
        assert np.array_equal(gf2.unpack_rows(words, mat.shape[1]), mat)


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
        assert len(gf2.packed_echelon(gf2.pack_rows(mat.astype(np.uint8)))[0]) == rank


def test_packed_echelon_matches_insert_loop():
    # kept indices, pivots, reduced rows and as-inserted rows against the
    # int-row insert loop, which skips the rows it reduces to 0
    skipped = 0
    for mat in _random_matrices(4, 300):
        basis, reduced = [], []
        for r in _to_rows(mat):
            reduced.append(insert(basis, r))
        kept, pivots, rows, inserted = gf2.packed_echelon(gf2.pack_rows(mat))
        assert kept.dtype == pivots.dtype == np.intp
        assert rows.dtype == inserted.dtype == np.dtype("<u8")
        assert rows.shape == inserted.shape == (len(kept), (mat.shape[1] + 63) // 64)
        assert kept.tolist() == [i for i, v in enumerate(reduced) if v]
        assert list(zip(pivots.tolist(), map(_to_int, rows))) == basis
        assert [_to_int(r) for r in inserted] == [v for v in reduced if v]
        skipped += len(kept) < len(mat)
    assert 50 < skipped < 300


def test_first_dependent():
    # the first row not kept is the first in the span of the rows before it;
    # the input is left as it was
    mat = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    words = gf2.pack_rows(mat)
    assert gf2.packed_echelon(words)[0].tolist() == [0, 1]
    assert gf2.packed_echelon(words[:2])[0].tolist() == [0, 1]
    assert gf2.packed_echelon(gf2.pack_rows(np.zeros((1, 2), dtype=np.uint8)))[0].tolist() == []
    assert np.array_equal(gf2.unpack_rows(words, 2), mat)


def test_rowspan_membership():
    basis = gf2.packed_echelon(gf2.pack_rows(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)))[1:3]
    for v, want in ((0b011, True), (0b101, True), (0b110, True), (0b000, True), (0b001, False), (0b111, False)):
        assert gf2.in_rowspan(np.array([v], dtype="<u8"), basis) is want
    rng = np.random.default_rng(6)
    members = 0
    for mat in _random_matrices(7, 200):
        _, pivots, rows, _ = gf2.packed_echelon(gf2.pack_rows(mat))
        reference = echelon(_to_rows(mat))
        for _ in range(5):
            # a random vector, or a random combination of the rows
            v = rng.integers(0, 2, size=mat.shape[1], dtype=np.uint8)
            if rng.random() < 0.5:
                v = (rng.integers(0, 2, size=len(mat)) @ mat % 2).astype(np.uint8)
            want = insert(list(reference), _to_rows(v[None])[0]) == 0
            assert gf2.in_rowspan(gf2.pack_rows(v[None])[0], (pivots, rows)) == want
            members += want
    assert 300 < members < 1000


def _from_free_columns(pivots, reduced, columns):
    """(len(columns), width) rows, row i with bit pivots[b] set where basis
    row b holds column columns[i]."""
    out = np.zeros((len(columns), reduced.shape[1]), dtype=np.int64)
    out[:, pivots] = reduced[:, columns].T
    return out


def test_nullspace_annihilates():
    # the free columns of the reduced basis give a nullspace basis: e_f plus
    # the pivots of the basis rows holding column f, as StabilizerCode
    # derives the centralizer of its checks
    for mat in _random_matrices(2, 200):
        m, n = mat.shape
        _, pivots, reduced, _ = gf2.packed_echelon(gf2.pack_rows(mat))
        free = np.setdiff1d(np.arange(n), pivots)
        null = _from_free_columns(pivots, gf2.unpack_rows(reduced, n), free)
        null[np.arange(len(free)), free] = 1
        assert not (mat @ null.T % 2).any()
        assert len(free) == n - len(echelon(_to_rows(mat)))
        assert len(echelon(_to_rows(null.astype(np.uint8)))) == len(free)


def test_solve_unit_targets():
    # for independent rows A, the tag columns of the elimination of [A | I_m]
    # give vectors t_c with A t_c = e_c, as StabilizerCode derives the
    # targets of its pure errors
    done = 0
    for mat in _random_matrices(3, 300):
        m, n = mat.shape
        if len(echelon(_to_rows(mat))) < m:
            continue
        _, pivots, reduced, _ = gf2.packed_echelon(gf2.pack_rows(np.hstack([mat, np.eye(m, dtype=np.uint8)])))
        assert pivots.max() < n
        targets = _from_free_columns(pivots, gf2.unpack_rows(reduced, n + m), np.arange(n, n + m))[:, :n]
        assert np.array_equal(mat @ targets.T % 2, np.eye(m))
        done += 1
    assert done > 100


def test_dot_and_product():
    # empty sides included, rows of one to four words
    rng = np.random.default_rng(8)
    for _ in range(100):
        r, s, n = int(rng.integers(0, 9)), int(rng.integers(0, 9)), int(rng.integers(1, 200))
        a = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
        b = rng.integers(0, 2, size=(s, n), dtype=np.uint8)
        got = gf2.dot(gf2.pack_rows(a), gf2.pack_rows(b))
        assert got.dtype == np.uint8 and np.array_equal(got, a.astype(np.int64) @ b.T % 2)
        c = rng.integers(0, 2, size=(r, s), dtype=np.uint8)
        got = gf2.product(c, gf2.pack_rows(b))
        assert np.array_equal(gf2.unpack_rows(got, n), c.astype(np.int64) @ b % 2)
