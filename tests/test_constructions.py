import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

import qbp
from qbp.constructions import _balanced_deletion, _has_duplicate_columns, check_matrix

from conftest import relabelled, tanner_rows


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
    for seed in (-1, 1.5, 2.0, True, np.True_, "3"):
        with pytest.raises(ValueError, match="seed"):
            qbp.BicycleSpec(n=8, m=4, w=2, seed=seed)
    for name in ("n", "m", "w"):
        for bad in (-2, 8.0, 2.5, True, np.True_, "8", None):
            with pytest.raises(ValueError, match=f"{name} must"):
                qbp.BicycleSpec(**{"n": 8, "m": 4, "w": 2, name: bad})
    assert qbp.BicycleSpec(n=8, m=4, w=2, seed=0).seed == 0
    spec = qbp.BicycleSpec(np.int64(20), np.int32(10), np.int8(4), seed=np.int64(3))
    assert spec == qbp.BicycleSpec(20, 10, 4, seed=3)
    assert {type(v) for v in (spec.n, spec.m, spec.w, spec.seed)} == {int}
    for attempts in (0, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="max_attempts"):
            qbp.generate_bicycle(spec, max_attempts=attempts)


def test_generate_bicycle_structure():
    spec = qbp.BicycleSpec(n=20, m=10, w=6, seed=7)
    code = qbp.generate_bicycle(spec)
    assert (code.n, code.m, code.k) == (20, 10, 10)
    assert all(c.weight == 6 for c in code.checks)
    h = check_matrix(code)
    assert not _gf2_matmul(h, h.T).any()
    # first half Z-type, second half X-type: Z positions lie in [2n, 3n), X in [0, n)
    for c in code.checks[:5]:
        assert (c.positions() >= 2 * code.n).all()
    for c in code.checks[5:]:
        assert (c.positions() < code.n).all()


def test_check_matrix_rejects_other_codes(five, small_bicycle):
    h = check_matrix(small_bicycle)
    assert h.shape == (5, 20) and h.tolist() == check_matrix(qbp.css_from_matrix(h)).tolist()
    # Z rows then X rows, but of two different matrices
    swapped = qbp.StabilizerCode(small_bicycle.checks[:5] + small_bicycle.checks[6:] + small_bicycle.checks[5:6])
    for code in (five, qbp.StabilizerCode(["ZZI", "IZZ", "XXX"]), relabelled(small_bicycle, np.random.default_rng(13)),
                 swapped):
        with pytest.raises(ValueError, match="Z-type then as X-type"):
            check_matrix(code)


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
    for adj in tanner_rows(code):
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


def test_balanced_deletion_rejects_unequal_row_weights():
    h0 = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="equal weight"):
        _balanced_deletion(h0, 2)
    assert np.array_equal(_balanced_deletion(h0[:2], 1), [1])


def test_duplicate_columns_match_tuple_set():
    # the generator's packed-column test against distinct column tuples, with
    # row counts on both sides of a byte boundary and mostly low-weight rows
    rng = np.random.default_rng(12)
    found = 0
    for _ in range(300):
        rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 30))
        h = (rng.random((rows, cols)) < rng.choice([0.1, 0.3, 0.5])).astype(np.uint8)
        want = len({tuple(col) for col in h.T}) < cols
        assert _has_duplicate_columns(h) == want
        found += want
    assert 50 < found < 300


_FINGERPRINT_PINS = [
    ((800, 400, 30, 11), "0f922691a5d3f7309738ed1681ff7da0a18844bbb003b79322d6db25f99c8dcf"),
    ((20, 10, 6, 42), "9e388cc15a6d8ee2190a31454afda23d4f247f857a89335e9976ba34db9fb878"),
]


@pytest.mark.parametrize("spec, digest", _FINGERPRINT_PINS)
def test_generate_bicycle_fingerprint_pinned(spec, digest):
    # recorded before the balanced deletion kept running integer sums
    assert qbp.generate_bicycle(qbp.BicycleSpec(*spec)).fingerprint() == digest


def _structure_digest(code):
    """sha256 over the Tanner rows, every EdgeArrays field and the check basis."""
    h = hashlib.sha256(repr(tanner_rows(code)).encode())
    ea = code.edges
    for field in dataclasses.fields(ea):
        value = getattr(ea, field.name)
        h.update(field.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    pivots, rows = code.basis
    h.update(repr([(p, int.from_bytes(r.tobytes(), "little")) for p, r in zip(pivots.tolist(), rows)]).encode())
    return h.hexdigest()


# re-recorded when EdgeArrays dropped `check` and `anti_index`; the fields it
# kept, the Tanner rows and the basis hash as before
@pytest.mark.parametrize("spec, digest", [
    ((800, 400, 30, 11), "b5d46dfb54bf015c0d8f184809e7cd77feb01d83a94209b297de38c52415278a"),
    ((20, 10, 6, 42), "8d582fd3ef9e1c5153f4018f134073144e6a4f7babbe03a8d26375e9dbaf4337"),
])
def test_generate_bicycle_structure_pinned(spec, digest):
    assert _structure_digest(qbp.generate_bicycle(qbp.BicycleSpec(*spec))) == digest


# Tiny specs on which generation retries: a duplicate or zero-weight column
# redraws (deletions > 1; these sizes rarely admit distinct columns, so most
# draw until the relaxation at half the budget), and dependent rows rebuild
# (builds > 1).  deletions counts _balanced_deletion calls, builds the
# StabilizerCode constructions that generate_bicycle attempts; a digest of
# None means the retry budget runs out.
_RETRY_PINS = [
    ((12, 6, 4, 0), "balanced", 52, 1, "25a3baf91592942ac22473b08c34675f879886ba43cff7aa47123fd02961fb86"),
    ((12, 6, 4, 6), "balanced", 54, 1, "55f69a703b89db58a99f7124ef3e12db8a39ca62ea60ccee8fdc6e1f77a53878"),
    ((16, 8, 4, 0), "balanced", 52, 1, "60f102492fa40556596ee78e48356e19947708704c45f7de39273e737b90d518"),
    ((16, 8, 4, 6), "balanced", 52, 1, "44e2a27d3196b042c8ca866005d2d6fd82fae2455dcf4fdfa8a650daf7dccdb9"),
    ((24, 12, 4, 2), "balanced", 57, 1, "84beef372b69aa82cbbca49a2bfbc689932d627127a7bf0bef2f16b6f94c5219"),
    ((24, 12, 4, 9), "balanced", 52, 1, "5298c36c059d29529c6f3cc86df1a9139796ff026f5bcce28389cf58fce9e9eb"),
    ((20, 10, 4, 6), "balanced", 56, 1, "143000f2f54d9aa9d9634a9204f80900264d6a571cfbc20e545ae05f7ca939c1"),
    ((28, 14, 4, 6), "balanced", 69, 1, "9f4b4ef1fd0e61a5413d36acf987bd3f834cd595132279086397d40fef29ed2f"),
    ((12, 10, 4, 6), "balanced", 55, 5, "36ba69a556f338ff9b879553b3f23ddbf678e749a8680f23da95028f547bb72d"),
    ((12, 10, 4, 2), "random", 0, 21, "baaeb2bddcf8f918e4b550b97adee44fc1dee5b5910f36138ef478082a9e1af4"),
    ((12, 10, 4, 7), "random", 0, 21, "baaeb2bddcf8f918e4b550b97adee44fc1dee5b5910f36138ef478082a9e1af4"),
    ((30, 28, 4, 2), "balanced", 57, 7, "0f37d2487858027b55ada2a1ad0fa332d5fbe34be0dfac1b2bc15aee08d5632b"),
    ((30, 28, 4, 9), "random", 0, 11, "a94d68dc09ffc8a1ca99b1cb0023627439c5459794888875105d6c0a4d3d573e"),
    ((24, 20, 4, 8), "random", 0, 28, "8e04c50ff2c90819b18c57c1026d989b6f5a01a98e8cf59b5b72f2961f3caf18"),
    ((24, 22, 8, 9), "balanced", 4, 3, "4eb42d5e9e95d54508ec6c1c5b8952858cc61caf3a7532192694077a0e5cca1f"),
    ((36, 32, 8, 2), "balanced", 10, 4, "84d17d81c0d97a953209ace3e0deab230af2a0e0b63c161e4b0cb2f83a7a3564"),
    ((36, 32, 8, 1), "balanced", 6, 5, "29164ebb266bd9945ff3874f6c6ce1ec1f335dfa40ac83877d0c0d4699778a69"),
    ((32, 30, 8, 7), "random", 0, 21, "adc37108dbdb245df7771d7be6c9e5ebbdd61ceef5b6ced22084d4e285c00a1c"),
    ((16, 14, 4, 5), "balanced", 54, 4, "ae06874a526a060134c48b0fd163fad0688adf88e1ebd3cb2739017ea24f7f13"),
    ((36, 32, 8, 9), "random", 0, 16, "033f8d535f9aaa2799c064eb591dd2be205a28d36d9b775ef392f726806f78b7"),
    ((24, 10, 6, 4), "random", 0, 5, "ce418dc001745947b59f6cc4abda50701f710525daa32889f7b52f196b8c09dc"),
    ((28, 14, 4, 3), "random", 0, 0, None),
]


@pytest.mark.parametrize("spec, deletion, deletions, builds, digest", _RETRY_PINS)
def test_generate_bicycle_retries_pinned(spec, deletion, deletions, builds, digest, monkeypatch):
    from qbp import constructions

    counts = {"deletions": 0, "builds": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(constructions, "_balanced_deletion", counted("deletions", constructions._balanced_deletion))
    monkeypatch.setattr(constructions, "StabilizerCode", counted("builds", constructions.StabilizerCode))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny codes may leave a qubit isolated
        if digest is None:
            with pytest.raises(qbp.GenerationError):
                qbp.generate_bicycle(qbp.BicycleSpec(*spec), deletion=deletion)
        else:
            assert qbp.generate_bicycle(qbp.BicycleSpec(*spec), deletion=deletion).fingerprint() == digest
    assert counts == {"deletions": deletions, "builds": builds}


def _balanced_deletion_float(h0, keep):
    """The float-variance greedy that the overlap argmax replaced, kept as the reference."""
    n = h0.shape[1]
    colw = h0.sum(axis=0, dtype=np.int64)
    weight = h0.sum(axis=1, dtype=np.int64)
    dot = h0 @ colw
    s1, s2 = int(colw.sum()), int(colw @ colw)
    columns = np.ascontiguousarray(h0.T)
    deleted = np.zeros(h0.shape[0], dtype=bool)
    for _ in range(h0.shape[0] - keep):
        variances = (s2 - 2 * dot + weight) / n - ((s1 - weight) / n) ** 2
        variances[deleted] = np.inf
        row = int(np.argmin(variances))
        deleted[row] = True
        s1, s2 = s1 - int(weight[row]), s2 + int(weight[row]) - 2 * int(dot[row])
        dot -= columns[h0[row] == 1].sum(axis=0, dtype=np.int32)  # each sum is at most n
    return np.flatnonzero(~deleted)


def _bicycle_block(rng, d, half):
    a = np.zeros(d, dtype=np.uint8)
    a[rng.choice(d, size=half, replace=False)] = 1
    c = qbp.cyclic_matrix(a)
    return np.hstack([c, c.T])


def test_balanced_deletion_matches_float_variance(monkeypatch):
    # random circulant blocks, every keep on a few of them, and every block
    # that generating a pinned balanced spec deletes from
    rng = np.random.default_rng(40)
    cases = []
    for _ in range(300):
        d = int(rng.integers(4, 301))
        cases.append((_bicycle_block(rng, d, int(rng.integers(1, min(20, d) + 1))), int(rng.integers(1, d + 1))))
    for d, half in ((4, 1), (4, 2), (19, 3), (64, 5), (150, 20)):
        h0 = _bicycle_block(rng, d, half)
        cases += [(h0, keep) for keep in range(1, d + 1)]
    from qbp import constructions

    real = constructions._balanced_deletion
    monkeypatch.setattr(constructions, "_balanced_deletion", lambda h0, keep: cases.append((h0, keep)) or real(h0, keep))
    specs = [spec for spec, _ in _FINGERPRINT_PINS]
    specs += [spec for spec, deletion, *_ in _RETRY_PINS if deletion == "balanced"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny codes may leave a qubit isolated
        for spec in specs:
            qbp.generate_bicycle(qbp.BicycleSpec(*spec))
    assert len(cases) > 300 + 4 + 4 + 19 + 64 + 150 + 600
    for h0, keep in cases:
        assert np.array_equal(real(h0, keep), _balanced_deletion_float(h0, keep)), (h0.shape, keep)
