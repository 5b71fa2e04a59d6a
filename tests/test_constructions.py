import dataclasses
import hashlib

import numpy as np
import pytest

import qbp
from qbp.constructions import _balanced_deletion, check_matrix


def _gf2_matmul(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64)) % 2


def test_cyclic_matrix_small():
    assert qbp.cyclic_matrix(np.array([1, 0])).tolist() == [[1, 0], [0, 1]]
    assert not qbp.cyclic_matrix(np.zeros(4, dtype=np.uint8)).any()
    with pytest.raises(ValueError):
        qbp.cyclic_matrix(np.array([], dtype=np.uint8))


def test_cyclic_matrix_structure():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        a = rng.integers(0, 2, size=d).astype(np.uint8)
        c = qbp.cyclic_matrix(a)
        assert (c.sum(axis=1) == a.sum()).all()
        assert (c.sum(axis=0) == a.sum()).all()
        for i in range(d):
            assert (np.roll(c[0], i) == c[i]).all()


def test_bicycle_spec_validation():
    with pytest.raises(ValueError):
        qbp.BicycleSpec(n=7, m=4, w=2)
    with pytest.raises(ValueError):
        qbp.BicycleSpec(n=8, m=8, w=2)
    with pytest.raises(ValueError):
        qbp.BicycleSpec(n=8, m=4, w=10)
    with pytest.raises(ValueError):
        qbp.BicycleSpec(n=8, m=4, w=0)


def test_generate_bicycle_structure():
    spec = qbp.BicycleSpec(n=20, m=10, w=6, seed=7)
    code = qbp.generate_bicycle(spec)
    assert (code.n, code.m, code.k) == (20, 10, 10)
    assert all(c.weight == 6 for c in code.checks)
    h = check_matrix(code)
    assert not _gf2_matmul(h, h.T).any()
    # first half Z-type, second half X-type
    for c in code.checks[:5]:
        assert c.x_bits == 0
    for c in code.checks[5:]:
        assert c.z_bits == 0


def test_generate_bicycle_deterministic():
    spec = qbp.BicycleSpec(n=28, m=12, w=6, seed=123)
    a = qbp.generate_bicycle(spec)
    b = qbp.generate_bicycle(spec)
    assert a.fingerprint() == b.fingerprint()
    c = qbp.generate_bicycle(qbp.BicycleSpec(n=28, m=12, w=6, seed=124))
    assert c.fingerprint() != a.fingerprint()


def test_generate_bicycle_infeasible_coverage():
    # 6 rows of weight 4 cannot cover 28 columns
    with pytest.raises(qbp.GenerationError, match="cover"):
        qbp.generate_bicycle(qbp.BicycleSpec(n=28, m=12, w=4, seed=0))


def test_generate_bicycle_random_deletion():
    spec = qbp.BicycleSpec(n=24, m=10, w=6, seed=5)
    code = qbp.generate_bicycle(spec, deletion="random")
    h = check_matrix(code)
    assert not _gf2_matmul(h, h.T).any()
    with pytest.raises(ValueError):
        qbp.generate_bicycle(spec, deletion="other")


def test_bicycle_qubit_degrees_bounded():
    code = qbp.generate_bicycle(qbp.BicycleSpec(n=40, m=20, w=8, seed=2))
    degrees = np.zeros(code.n, dtype=int)
    for adj in code.tanner:
        assert len(adj) == 8
        for q, _ in adj:
            degrees[q] += 1
    assert degrees.max() <= 8


def test_deleting_rows_preserves_self_duality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(3, 12))
        a = np.zeros(d, dtype=np.uint8)
        a[rng.choice(d, size=min(3, d), replace=False)] = 1
        h0 = np.hstack([qbp.cyclic_matrix(a), qbp.cyclic_matrix(a).T])
        assert not _gf2_matmul(h0, h0.T).any()
        keep = rng.choice(d, size=max(1, d // 2), replace=False)
        h = h0[np.sort(keep)]
        assert not _gf2_matmul(h, h.T).any()


def test_css_from_matrix_toy():
    code = qbp.css_from_matrix(np.array([[1, 1]]))
    assert {str(c) for c in code.checks} == {"XX", "ZZ"}


def test_css_from_matrix_rejects_non_self_dual():
    with pytest.raises(ValueError, match="not self-dual: rows 0 and 1 have odd overlap"):
        qbp.css_from_matrix(np.array([[1, 1, 0], [0, 1, 1]]))
    with pytest.raises(ValueError, match="rank"):
        qbp.css_from_matrix(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        qbp.css_from_matrix(np.zeros((0, 2)))
    # an odd-weight row overlaps itself oddly
    with pytest.raises(ValueError, match="rows 0 and 0 have odd overlap"):
        qbp.css_from_matrix(np.array([[1, 1, 1]]))
    with pytest.raises(ValueError, match="rows 1 and 2 have odd overlap"):
        qbp.css_from_matrix(np.array([[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]]))


def test_builtin_codes():
    toy = qbp.builtin("two_qubit_toy")
    assert [str(c) for c in toy.checks] == ["XX", "ZZ"] and toy.k == 0
    five = qbp.builtin("five_qubit")
    assert [str(c) for c in five.checks] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    assert five.k == 1
    with pytest.raises(ValueError):
        qbp.builtin("nope")


def test_generation_failure_reported():
    # impossible spec: w/2 = n/2 forces the all-ones vector, which is rank 1
    with pytest.raises(qbp.GenerationError):
        qbp.generate_bicycle(qbp.BicycleSpec(n=8, m=6, w=8, seed=0), max_attempts=10)


def _balanced_deletion_reference(h0, keep):
    """The original greedy: recompute every remaining row's variance with np.mean."""
    remaining = list(range(h0.shape[0]))
    colw = h0.sum(axis=0).astype(np.int64)
    while len(remaining) > keep:
        rows = h0[remaining].astype(np.int64)
        variances = ((colw[None, :] - rows) ** 2).mean(axis=1) - ((colw[None, :] - rows).mean(axis=1)) ** 2
        drop = int(np.argmin(variances))
        colw -= rows[drop]
        remaining.pop(drop)
    return np.array(remaining, dtype=np.int64)


def test_balanced_deletion_matches_reference_greedy():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(2, 40))
        a = np.zeros(d, dtype=np.uint8)
        a[rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)] = 1
        h0 = np.hstack([qbp.cyclic_matrix(a), qbp.cyclic_matrix(a).T])
        keep = int(rng.integers(1, d + 1))
        got = _balanced_deletion(h0, keep)
        assert got.dtype == np.int64
        assert np.array_equal(got, _balanced_deletion_reference(h0, keep))


@pytest.mark.parametrize("spec, digest", [
    ((800, 400, 30, 11), "0f922691a5d3f7309738ed1681ff7da0a18844bbb003b79322d6db25f99c8dcf"),
    ((20, 10, 6, 42), "9e388cc15a6d8ee2190a31454afda23d4f247f857a89335e9976ba34db9fb878"),
])
def test_generate_bicycle_fingerprint_pinned(spec, digest):
    # recorded before the balanced deletion kept running integer sums
    assert qbp.generate_bicycle(qbp.BicycleSpec(*spec)).fingerprint() == digest


def _structure_digest(code):
    """sha256 over the Tanner rows, every EdgeArrays field and the check basis."""
    h = hashlib.sha256(repr(code.tanner).encode())
    ea = code.edges
    for field in dataclasses.fields(ea):
        value = getattr(ea, field.name)
        h.update(field.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    h.update(repr(code.basis).encode())
    return h.hexdigest()


# re-recorded when EdgeArrays dropped `check` and `anti_index`; the fields it
# kept, the Tanner rows and the basis hash as before
@pytest.mark.parametrize("spec, digest", [
    ((800, 400, 30, 11), "b5d46dfb54bf015c0d8f184809e7cd77feb01d83a94209b297de38c52415278a"),
    ((20, 10, 6, 42), "8d582fd3ef9e1c5153f4018f134073144e6a4f7babbe03a8d26375e9dbaf4337"),
])
def test_generate_bicycle_structure_pinned(spec, digest):
    assert _structure_digest(qbp.generate_bicycle(qbp.BicycleSpec(*spec))) == digest
