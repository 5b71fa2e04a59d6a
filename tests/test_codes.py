import dataclasses
import hashlib
import itertools
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import qbp
from qbp import gf2
from qbp.codes import DETECTABLE, LOGICAL, STABILIZER

from conftest import echelon, first_dependent, insert, random_pauli, relabelled, symplectic_row, tanner_rows


def test_build_toy_and_five(toy, five):
    assert (toy.n, toy.m, toy.k) == (2, 2, 0)
    assert [str(c) for c in toy.checks] == ["XX", "ZZ"]
    assert (five.n, five.m, five.k) == (5, 4, 1)


def test_build_rejects_noncommuting():
    with pytest.raises(qbp.NonCommutingChecksError) as err:
        qbp.StabilizerCode(["XI", "ZI"])
    assert err.value.pair == (0, 1)
    with pytest.raises(qbp.NonCommutingChecksError) as err:
        qbp.StabilizerCode(["XXI", "ZZI", "IXX", "IZZ"])
    assert err.value.pair == (0, 3)
    with pytest.raises(qbp.NonCommutingChecksError) as err:
        qbp.StabilizerCode(["IX", "XI", "ZI"])
    assert err.value.pair == (1, 2)
    # an identity check has no edges, and commutes with every check
    with pytest.raises(qbp.NonCommutingChecksError) as err:
        qbp.StabilizerCode(["ZI", "II", "XI"])
    assert err.value.pair == (0, 2)


def test_noncommuting_pair_matches_pairwise_scan():
    # the first anticommuting pair in (i, j) row-major order, as a scan of
    # every pair finds it; sparse rows so that most pairs share few qubits
    rng = np.random.default_rng(36)
    raised = 0
    for _ in range(400):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        ops = [qbp.PauliOperator.from_letters(np.where(rng.random(n) < 0.4, rng.integers(1, 4, size=n), 0).astype(np.int8))
               for _ in range(m)]
        want = next(((i, j) for i in range(m) for j in range(i + 1, m) if ops[i].commute(ops[j]) != 1), None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                qbp.StabilizerCode(ops)
                got = None
            except qbp.NonCommutingChecksError as exc:
                got = exc.pair
            except ValueError:
                got = None
        assert got == want
        raised += want is not None
    assert 100 < raised < 400


def test_build_rejects_dependent():
    with pytest.raises(qbp.DependentChecksError) as err:
        qbp.StabilizerCode(["XX", "XX"])
    assert err.value.index == 1
    # product of the first two
    with pytest.raises(qbp.DependentChecksError) as err:
        qbp.StabilizerCode(["XX", "ZZ", "YY"])
    assert err.value.index == 2
    with pytest.raises(qbp.DependentChecksError) as err:
        qbp.StabilizerCode(["ZI", "IZ", "ZZ"])
    assert err.value.index == 2
    # the identity lies in every span, and is rejected before the isolated-qubit scan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qbp.DependentChecksError) as err:
            qbp.StabilizerCode(["II"])
    assert err.value.index == 0
    # identity checks last and first: no edges at the end or the start of the edge lists
    for checks, index in ((["XX", "ZZ", "II"], 2), (["II", "XX"], 0)):
        with pytest.raises(qbp.DependentChecksError) as err:
            qbp.StabilizerCode(checks)
        assert err.value.index == index


def test_dependent_index_matches_insert_loop(five, small_bicycle, bicycle_800):
    # a product of two checks, or the identity, spliced in at a random
    # position: it commutes with every check, so only the elimination rejects it
    rng = np.random.default_rng(41)
    bases = [five, small_bicycle, bicycle_800,
             qbp.generate_bicycle(qbp.BicycleSpec(60, 30, 10, seed=9), deletion="random")]
    for base in bases:
        for trial in range(12):
            checks = list(base.checks)
            if trial % 3 == 2:
                extra = qbp.PauliOperator.identity(base.n)
            else:
                i, j = rng.choice(base.m, size=2, replace=False)
                extra = checks[i] * checks[j]
            checks.insert(int(rng.integers(0, base.m + 1)), extra)
            want = first_dependent([symplectic_row(op) for op in checks])
            with pytest.raises(qbp.DependentChecksError) as err:
                qbp.StabilizerCode(checks)
            assert err.value.index == want


# bicycle specs whose 2n is not a multiple of 64, so packed rows end in a
# partial word; bicycle-800 has 2n = 1600 = 25 words exactly
_BASIS_SPECS = [
    ((20, 10, 6, 1), "balanced"), ((24, 12, 6, 2), "balanced"), ((28, 14, 6, 3), "balanced"),
    ((36, 18, 8, 4), "balanced"), ((40, 20, 8, 5), "balanced"), ((44, 22, 8, 6), "balanced"),
    ((48, 24, 8, 7), "balanced"), ((52, 26, 10, 8), "balanced"), ((60, 30, 10, 9), "balanced"),
    ((68, 34, 10, 10), "balanced"), ((72, 36, 12, 11), "balanced"), ((76, 38, 12, 12), "balanced"),
    ((84, 42, 12, 13), "balanced"), ((100, 50, 14, 14), "balanced"), ((120, 60, 14, 15), "balanced"),
    ((150, 74, 16, 16), "balanced"), ((200, 100, 16, 17), "balanced"), ((430, 200, 24, 20), "balanced"),
    ((40, 20, 8, 5), "random"), ((100, 50, 14, 14), "random"), ((200, 100, 16, 17), "random"),
    ((36, 32, 8, 2), "balanced"), ((30, 28, 4, 9), "random"),
]


def test_basis_equals_echelon_of_rows(toy, five, small_bicycle, bicycle_800):
    codes = [toy, five, small_bicycle, bicycle_800]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny codes may leave a qubit isolated
        codes += [qbp.generate_bicycle(qbp.BicycleSpec(*spec), deletion=deletion) for spec, deletion in _BASIS_SPECS]
    # non-CSS rows: relabel X/Y/Z per qubit, which keeps commutation
    rng = np.random.default_rng(43)
    codes += [relabelled(base, rng) for base in codes[2:6]]
    for code in codes:
        pivots, rows = code.basis
        assert pivots.dtype == np.intp and rows.dtype == np.dtype("<u8") and rows.shape == (code.m, (2 * code.n + 63) // 64)
        got = [(p, int.from_bytes(r.tobytes(), "little")) for p, r in zip(pivots.tolist(), rows)]
        assert got == echelon(symplectic_row(op) for op in code.checks)


def test_xx_yy_is_a_valid_code():
    code = qbp.StabilizerCode(["XX", "YY"])
    assert code.k == 0


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        qbp.StabilizerCode([])
    with pytest.raises(ValueError):
        qbp.StabilizerCode(["XX", "X"])


def test_isolated_qubit_warns():
    with pytest.warns(UserWarning, match=r"qubits \[2\] are isolated"):
        qbp.StabilizerCode(["XXI"])
    with pytest.warns(UserWarning, match=r"qubits \[0, 3\] are isolated"):
        qbp.StabilizerCode(["IXXI", "IZZI"])


def test_syndrome_examples(toy, five):
    assert list(toy.syndrome(qbp.PauliOperator.from_string("IX"))) == [1, -1]
    assert list(toy.syndrome(qbp.PauliOperator.from_string("II"))) == [1, 1]
    assert list(five.syndrome(qbp.PauliOperator.from_string("XIIII"))) == [1, 1, 1, -1]
    with pytest.raises(ValueError):
        toy.syndrome(qbp.PauliOperator.from_string("X"))


def test_syndrome_matches_check_commutation(small_bicycle, five, bicycle_800):
    rng = np.random.default_rng(2)
    with pytest.warns(UserWarning):
        tail = qbp.StabilizerCode(["XXI"])
    with pytest.warns(UserWarning):
        middle = qbp.StabilizerCode(["ZIZZ", "XIXI"])
    for code in (small_bicycle, five, tail, middle, bicycle_800):
        uniform = [qbp.PauliOperator.from_letters(np.full(code.n, letter, dtype=np.int8)) for letter in (0, 2)]
        for e in uniform + [random_pauli(rng, code.n) for _ in range(50)]:
            got = code.syndrome(e)
            assert got.dtype == np.int8
            assert got.tolist() == [c.commute(e) for c in code.checks]


def test_syndrome_is_homomorphism(five):
    rng = np.random.default_rng(3)
    for _ in range(200):
        e, f = random_pauli(rng, 5), random_pauli(rng, 5)
        assert list(five.syndrome(e * f)) == list(five.syndrome(e) * five.syndrome(f))


def test_stabilizer_factor_preserves_syndrome(five):
    rng = np.random.default_rng(4)
    for _ in range(100):
        e = random_pauli(rng, 5)
        for s in five.checks:
            assert list(five.syndrome(e * s)) == list(five.syndrome(e))


def _census_oracle(code):
    count = 0
    rows = tanner_rows(code)
    for i in range(code.m):
        for j in range(i + 1, code.m):
            qi = {q for q, _ in rows[i]}
            qj = {q for q, _ in rows[j]}
            if len(qi & qj) >= 2:
                count += 1
    return count


def test_four_loop_census(toy, five, small_bicycle):
    count, loops = toy.four_loop_census()
    assert count == 1 and loops == [(0, 1, (0, 1))]
    count5, loops5 = five.four_loop_census()
    assert count5 == _census_oracle(five) and count5 >= 1
    for i, j, shared in loops5:
        assert len(shared) >= 2
    countb, loopsb = small_bicycle.four_loop_census()
    assert countb == _census_oracle(small_bicycle) and countb == len(loopsb)
    rows = tanner_rows(small_bicycle)
    for i, j, shared in loopsb:
        qi = {q for q, _ in rows[i]}
        qj = {q for q, _ in rows[j]}
        assert shared == tuple(sorted(qi & qj))
    bicycle = qbp.generate_bicycle(qbp.BicycleSpec(n=60, m=30, w=10, seed=5))
    countc, loopsc = bicycle.four_loop_census()
    assert countc == _census_oracle(bicycle) == len(loopsc) > 0
    assert [(i, j) for i, j, _ in loopsc] == sorted((i, j) for i, j, _ in loopsc)
    for i, j, shared in loopsc:
        assert i < j and shared == tuple(sorted(set(bicycle.check_qubits[i]) & set(bicycle.check_qubits[j])))
    single = qbp.StabilizerCode(["XXX"])
    assert single.four_loop_census() == (0, [])


def test_check_qubits(toy, five, small_bicycle, bicycle_800):
    for code in (toy, five, small_bicycle, bicycle_800):
        assert code.check_qubits == tuple(tuple(q for q, _ in adj) for adj in tanner_rows(code))
        assert all(type(q) is int for qubits in code.check_qubits for q in qubits)
        assert code.check_qubits is code.check_qubits
    assert five.check_qubits[0] == (0, 1, 2, 3)


def test_four_loops_unavoidable_on_bicycles(small_bicycle):
    rng = np.random.default_rng(9)
    codes = [small_bicycle]
    for _ in range(5):
        n = int(rng.integers(4, 15)) * 2
        m = int(rng.integers(1, n // 2 - 1)) * 2
        w = int(rng.integers(1, min(4, n // 2) + 1)) * 2
        codes.append(qbp.generate_bicycle(qbp.BicycleSpec(n=n, m=m, w=w, seed=int(rng.integers(1 << 30)))))
    for code in codes:
        assert code.four_loop_census()[0] >= 1


def test_degree_distribution_toy(toy):
    lam, rho = toy.degree_distribution()
    assert lam == [Fraction(0), Fraction(1)]
    assert rho == [Fraction(0), Fraction(1)]
    assert qbp.design_rate(lam, rho) == 0.0


def _degree_distribution_reference(code):
    """(lambda, rho) by a per-check loop over the checks' (qubit, letter) rows."""
    qdeg = [0] * code.n
    cdeg = [0] * code.m
    for c, adj in enumerate(tanner_rows(code)):
        cdeg[c] = len(adj)
        for q, _ in adj:
            qdeg[q] += 1
    edges = sum(cdeg)
    lam = [Fraction(0)] * max(qdeg)
    for d in qdeg:
        if d:
            lam[d - 1] += Fraction(d, edges)
    rho = [Fraction(0)] * max(cdeg)
    for d in cdeg:
        rho[d - 1] += Fraction(d, edges)
    return lam, rho


def _assert_exact_fractions(lam, rho):
    for f in (*lam, *rho):
        assert type(f) is Fraction and type(f.numerator) is int and type(f.denominator) is int


def test_degree_distribution_matches_per_check_reference(toy, five, small_bicycle, bicycle_800):
    for code in (toy, five, small_bicycle, bicycle_800):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, rho = code.degree_distribution()
        assert (lam, rho) == _degree_distribution_reference(code)
        _assert_exact_fractions(lam, rho)
    with pytest.warns(UserWarning, match="isolated"):
        isolated = qbp.StabilizerCode(["XXXXI", "ZZZZI"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lam, rho = isolated.degree_distribution()
    assert [str(w.message) for w in caught] == ["isolated qubits are excluded from the degree distribution"]
    assert (lam, rho) == _degree_distribution_reference(isolated) == ([0, Fraction(1)], [0, 0, 0, Fraction(1)])
    _assert_exact_fractions(lam, rho)


def test_design_rate_regular():
    # all qubits degree 3, checks degree 6
    assert qbp.design_rate([0, 0, 1], [0, 0, 0, 0, 0, 1]) == 0.5


def test_design_rate_matches_count_rate(small_bicycle, five):
    for code in (small_bicycle, five):
        lam, rho = code.degree_distribution()
        assert qbp.design_rate(lam, rho) == code.k / code.n


def test_design_rate_validates():
    with pytest.raises(ValueError):
        qbp.design_rate([0, 0.5], [0, 1])


def _assert_canonical(code):
    pure, logicals = code.canonical_generators()
    k = code.k
    assert len(pure) == code.m and len(logicals) == 2 * k
    for c, t in enumerate(pure):
        for c2, s in enumerate(code.checks):
            assert s.commute(t) == (-1 if c == c2 else 1)
        for t2 in pure[:c]:
            assert t.commute(t2) == 1
        for l in logicals:
            assert t.commute(l) == 1
    for i, li in enumerate(logicals):
        for s in code.checks:
            assert s.commute(li) == 1
        for j, lj in enumerate(logicals[:i]):
            assert li.commute(lj) == (-1 if i - j == k else 1)


def test_canonical_generators(toy, five, small_bicycle):
    _assert_canonical(toy)
    _assert_canonical(five)
    _assert_canonical(small_bicycle)
    assert toy.k == 0 and len(toy.canonical_generators()[1]) == 0
    single = qbp.StabilizerCode(["ZZ"])
    _assert_canonical(single)
    assert single.canonical_generators()[0][0].commute(single.checks[0]) == -1


def test_pure_error_for_syndrome(toy, five):
    assert toy.pure_error_for_syndrome(np.array([1, 1])).is_identity
    t = toy.pure_error_for_syndrome(np.array([1, -1]))
    assert list(toy.syndrome(t)) == [1, -1]
    assert str(t) in {"XI", "IX", "YZ", "ZY"}
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = rng.choice([-1, 1], size=five.m).astype(np.int8)
        assert list(five.syndrome(five.pure_error_for_syndrome(s))) == list(s)


def test_syndrome01_of_letters_rejects_wrong_length(five):
    letters = np.array([0, 1, 2, 3, 1, 2], dtype=np.int8)
    want = (five.syndrome(qbp.PauliOperator.from_letters(letters[:5])) < 0).astype(np.uint8)
    assert np.array_equal(five.syndrome01_of_letters(letters[:5]), want)
    for bad in (letters, letters[:4], letters[:5].reshape(1, 5)):
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            five.syndrome01_of_letters(bad)


def test_syndrome01_of_letters_rejects_non_letters(five):
    # a list is read as an array; a float or out-of-range code would read a
    # wrong table row, so it is rejected
    letters = [0, 1, 2, 3, 1]
    want = (five.syndrome(qbp.PauliOperator.from_letters(np.array(letters))) < 0).astype(np.uint8)
    assert np.array_equal(five.syndrome01_of_letters(letters), want)
    with pytest.raises(ValueError, match="integers"):
        five.syndrome01_of_letters(np.array(letters, dtype=np.float64))
    for bad in ([0, 1, 2, 4, 1], [0, -1, 2, 3, 1]):
        with pytest.raises(ValueError, match=r"0\.\.3"):
            five.syndrome01_of_letters(np.array(bad, dtype=np.int8))


def _per_edge_syndrome01(code, letters):
    """Violation bits read edge by edge: a letter anticommutes with an edge's
    label unless it is I or that label; each check XORs over its edges."""
    ea = code.edges
    anti = (letters != 0) & (letters != np.arange(1, 4).reshape(3, 1))
    return np.bitwise_xor.reduceat(anti.view(np.uint8).ravel().take(ea.slot), ea.check_start[:-1])


def test_packed_syndrome_matches_per_edge_scan(toy, five, small_bicycle, bicycle_800):
    for code in (toy, five, small_bicycle, bicycle_800):
        n, m = code.n, code.m
        words = code.anti_words
        # two set bits per edge, none past check m - 1
        assert words.shape == (3 * n, -(-m // 64))
        assert sum(int(w).bit_count() for w in words.ravel().tolist()) == 2 * len(code.edges.qubit)
        assert not np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, m:].any()
        assert np.array_equal(code.unpack_checks(code.pack_checks(np.ones(m, bool))), np.ones(m, np.uint8))
        rng = np.random.default_rng([60, n])
        cases = [np.zeros(n, dtype=np.int8)] + [np.full(n, letter, dtype=np.int8) for letter in (1, 2, 3)]
        cases += [rng.integers(0, 4, size=n).astype(np.int8) for _ in range(20)]  # random
        cases += [rng.integers(1, 4, size=n).astype(np.int8) for _ in range(5)]   # dense: no identity
        cases += [np.where(rng.random(n) < 0.05, rng.integers(1, 4, size=n), 0).astype(np.int8) for _ in range(5)]
        for letters in cases:
            want = _per_edge_syndrome01(code, letters)
            got = code.syndrome01_of_letters(letters)
            assert got.dtype == np.uint8 and np.array_equal(got, want), (n, letters)
            op = qbp.PauliOperator.from_letters(letters)
            assert np.array_equal(code.syndrome(op), 1 - 2 * want.astype(np.int8))
            assert (code.residual_class(op) == DETECTABLE) == bool(want.any())
            qubits = np.flatnonzero(letters)
            packed = code.syndrome_words((letters[qubits].astype(np.intp) - 1) * n + qubits)
            assert np.array_equal(packed, code.pack_checks(want))


def test_pure_error_map_is_injective(toy, five, small_bicycle):
    for code in (toy, five, small_bicycle):
        seen = set()
        for bits in itertools.product((1, -1), repeat=code.m):
            seen.add(code.pure_error_for_syndrome(np.array(bits, dtype=np.int8)))
        assert len(seen) == 2 ** code.m


def test_residual_class(five):
    for s in five.checks:
        assert five.residual_class(s) == STABILIZER
    assert five.residual_class(five.checks[0] * five.checks[2]) == STABILIZER
    for l in five.canonical_generators()[1]:
        assert five.residual_class(l) == LOGICAL
    assert five.residual_class(qbp.PauliOperator.from_string("XIIII")) == DETECTABLE
    assert five.residual_class(qbp.PauliOperator.identity(5)) == STABILIZER


def test_residual_class_partitions(five):
    rng = np.random.default_rng(12)
    for _ in range(200):
        e = random_pauli(rng, 5)
        cls = five.residual_class(e)
        assert cls in (STABILIZER, LOGICAL, DETECTABLE)
        for s in five.checks:
            assert five.residual_class(e * s) == cls


def _parse_dot_edges(text):
    return {(int(q), int(c), letter) for q, c, letter in re.findall(r"q(\d+) -- c(\d+) \[label=\"([IXYZ])\"\]", text)}


def test_dot_export(toy, five):
    dot = toy.to_dot()
    assert dot.count("shape=circle") == 2 and dot.count("shape=box") == 2
    assert _parse_dot_edges(dot) == {(0, 0, "X"), (1, 0, "X"), (0, 1, "Z"), (1, 1, "Z")}
    dot5 = five.to_dot()
    want = {
        (q, c, "IXYZ"[letter])
        for c, adj in enumerate(tanner_rows(five))
        for q, letter in adj
    }
    assert _parse_dot_edges(dot5) == want and len(want) == 16


# sha256 of to_dot(), recorded while the DOT edges were read from per-check
# (qubit, letter) tuples
DOT_DIGESTS = {
    "five": "28b836839c7c8b8a84cf97a070dd27d37ca8a26694693799a0a3178273a47b13",
    "small_bicycle": "f92ae7c9c5f45babf741df588785656245894bffc789f447809f93624a17a7e4",
    "bicycle_800": "eefc6e4603b41ef9a36a3f55fab12a8826a1822e1ea3d7b44b3f04074c513257",
}


def test_dot_export_pinned(five, small_bicycle, bicycle_800):
    codes = {"five": five, "small_bicycle": small_bicycle, "bicycle_800": bicycle_800}
    got = {name: hashlib.sha256(code.to_dot().encode()).hexdigest() for name, code in codes.items()}
    assert got == DOT_DIGESTS


def test_save_load_roundtrip(tmp_path, five):
    path = tmp_path / "five.code"
    five.save(path, header_lines=["demo header"])
    loaded = qbp.StabilizerCode.load(path)
    assert [str(c) for c in loaded.checks] == [str(c) for c in five.checks]
    assert loaded.fingerprint() == five.fingerprint()


@pytest.mark.parametrize(
    "content",
    [
        "",
        "2\nXX\n",
        "2 2\nXX\n",
        "2 2\nXX\nZZZ\n",
        "2 2\nXA\nZZ\n",
        "2 2\nXI\nZI\n",
    ],
)
def test_load_rejects_bad_files(tmp_path, content):
    path = tmp_path / "bad.code"
    path.write_text(content)
    with pytest.raises(qbp.CodeFormatError):
        qbp.StabilizerCode.load(path)


def test_load_skips_comments(tmp_path, toy):
    path = tmp_path / "c.code"
    path.write_text("# header\n\n2 2\n# mid comment\nXX\nZZ\n")
    assert qbp.StabilizerCode.load(path).fingerprint() == toy.fingerprint()


def _assert_same_code(a, b):
    assert a.checks == b.checks and (a.n, a.m) == (b.n, b.m)
    assert a.check_qubits == b.check_qubits and a.to_dot() == b.to_dot()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the isolated-qubit code warns
        assert a.degree_distribution() == b.degree_distribution()
    assert "tanner" not in a.__dict__ and "tanner" not in b.__dict__
    assert all(np.array_equal(x, y) for x, y in zip(a.basis, b.basis))
    assert a.fingerprint() == b.fingerprint()
    for field in dataclasses.fields(a.edges):
        x, y = getattr(a.edges, field.name), getattr(b.edges, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


def test_pickle_roundtrip(small_bicycle):
    with pytest.warns(UserWarning, match="isolated"):
        isolated = qbp.StabilizerCode(["XXII", "ZZII", "IIIZ"])
    rng = np.random.default_rng(21)
    for code in (small_bicycle, isolated):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copy = pickle.loads(pickle.dumps(code))
        _assert_same_code(code, copy)
        for _ in range(50):
            e = random_pauli(rng, code.n)
            assert copy.residual_class(e) == code.residual_class(e)
        assert copy.canonical_generators() == code.canonical_generators()
        prior = qbp.depolarizing_prior(code.n, 0.1)
        syndrome = code.syndrome(random_pauli(rng, code.n))
        a = qbp.decode(code, prior, syndrome, qbp.DecodeConfig(max_iterations=30))
        b = qbp.decode(copy, prior, syndrome, qbp.DecodeConfig(max_iterations=30))
        assert a.correction == b.correction and a.iterations_used == b.iterations_used
        assert a.final_beliefs.tobytes() == b.final_beliefs.tobytes()


def test_construction_eliminates_once(monkeypatch):
    calls = []
    real = gf2.packed_echelon
    monkeypatch.setattr(gf2, "packed_echelon", lambda words: calls.append(len(words)) or real(words))
    code = qbp.generate_bicycle(qbp.BicycleSpec(800, 400, 30, 11))
    code.edges
    code.residual_class(qbp.PauliOperator.identity(code.n))
    assert calls == [400]
    # [swapped checks | I], then [basis; centralizer]
    code.canonical_generators()
    assert calls == [400, 400, 400 + 1200]


def test_letter_scan_matches_per_letter_reference(five, small_bicycle):
    # relabel X/Y/Z per qubit (commutation is kept) and splice in identity columns
    rng = np.random.default_rng(31)
    for base in (five, small_bicycle):
        for _ in range(5):
            perm = np.array([[0, *rng.permutation([1, 2, 3])] for _ in range(base.n)])
            mat = perm[np.arange(base.n), np.stack([c.letters() for c in base.checks])]
            for q in sorted(rng.choice(base.n + 1, size=int(rng.integers(0, 3)), replace=False), reverse=True):
                mat = np.insert(mat, q, 0, axis=1)
            isolated = np.flatnonzero(~mat.any(axis=0)).tolist()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = qbp.StabilizerCode([qbp.PauliOperator.from_letters(row) for row in mat])
            assert [str(w.message) for w in caught] == (
                [f"qubits {isolated} are isolated (degree 0)"] if isolated else [])
            want = tuple(tuple((q, int(letter)) for q, letter in enumerate(row) if letter != 0) for row in mat)
            assert code.check_qubits == tuple(tuple(q for q, _ in adj) for adj in want)
            ea = code.edges
            assert ea.qubit.tolist() == [q for adj in want for q, _ in adj]
            assert ea.check_start.tolist() == [0, *itertools.accumulate(len(adj) for adj in want)]
            assert ea.slot.tolist() == [(letter - 1) * code.n + q for adj in want for q, letter in adj]
            # the per-edge index arrays feed the BP kernels' gathers: keep them contiguous
            for name in ("qubit", "check_start", "slot"):
                assert getattr(ea, name).flags.c_contiguous, name


def _canonical_codes(toy, five, small_bicycle, bicycle_800):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ZZI and the tiny bicycle leave qubits isolated
        codes = {
            "toy": toy, "five": five, "ZZ": qbp.StabilizerCode(["ZZ"]), "ZZI": qbp.StabilizerCode(["ZZI"]),
            "small_bicycle": small_bicycle,
            "bicycle-10": qbp.generate_bicycle(qbp.BicycleSpec(10, 8, 4, 3)),
            "bicycle-60-random": qbp.generate_bicycle(qbp.BicycleSpec(60, 30, 10, 9), deletion="random"),
            "bicycle-200": qbp.generate_bicycle(qbp.BicycleSpec(200, 100, 16, 17)),
            "bicycle-800": bicycle_800,
        }
        for name in ("five", "small_bicycle", "bicycle-60-random", "bicycle-200", "bicycle-800"):
            codes[name + "-relabelled"] = relabelled(codes[name], np.random.default_rng(44))
    return codes


_CANONICAL_DIGESTS = {
    "toy": "fe36d0f8d33f790512dad5bc998e639cb5aa6dcf3c141cd7dc15bd814429a217",
    "five": "6e90225a50ee8ea6185e9b9aa9bb10b7d78c89202531742042bf07f29894d5a2",
    "ZZ": "ad4bd25ca89d15ddbed89b72ae46cd9364e5b3ee76499d9f2bea8deb33b829e4",
    "ZZI": "7084fc8814975683a690ad41376154e5629a3fac51bf8c660ff8df963ae1867c",
    "small_bicycle": "9d6e87477629b36de531f83e1a6dbfc5a3c73a0b9b69f7b38e771a417ed7d546",
    "bicycle-10": "75c09c2ea21e97e33b971fd14eaef04436a91c1abb09b8d657a0c812c5c8401f",
    "bicycle-60-random": "91b21ea50523a7df7e26266028b22a00e2775347890c276b6a0a3f591d257928",
    "bicycle-200": "65a3bd89a8b3ed3d2eb87af89b064f72fc274b7f930b11292398a316e8d4f64e",
    "bicycle-800": "61c54ae115b95e31dd0041cdd5dcb54953d4f6284e4131a3f86034d0d9d2afad",
    "five-relabelled": "d1357b529d0ef1ca6de852b46ae22eda5cc0aa6434ae0d5970bfe503a7f23f20",
    "small_bicycle-relabelled": "6b3b9dc80ea421a054218c415f57565aa3f284b8e5caf03000a8fd3d042491e2",
    "bicycle-60-random-relabelled": "9f584700153e123347e74e9341be919f9efa372575f733d3d5f6e9ddbffb9aec",
    "bicycle-200-relabelled": "2a8daf2341689c56fcba2fd2c3cc7599c1ce08dd10db10101434592a84a18244",
    "bicycle-800-relabelled": "288ac2d7e8bca2fcdf50adee205c5ad62e2e6cf3b7881fac5be69482b6d03f3b",
}


def test_canonical_generators_pinned(toy, five, small_bicycle, bicycle_800):
    # recorded before the canonical generators moved onto the packed elimination
    got = {}
    for name, code in _canonical_codes(toy, five, small_bicycle, bicycle_800).items():
        pure, logicals = code.canonical_generators()
        got[name] = hashlib.sha256(repr([str(op) for op in pure + logicals]).encode()).hexdigest()
    assert got == _CANONICAL_DIGESTS


def _reference_class(code, basis, op):
    """residual_class by commute() and an int-row insert into the checks' echelon basis."""
    if any(c.commute(op) != 1 for c in code.checks):
        return DETECTABLE
    return STABILIZER if insert(list(basis), symplectic_row(op)) == 0 else LOGICAL


def test_residual_class_matches_int_row_reference(bicycle_800):
    code = bicycle_800
    basis = echelon(symplectic_row(c) for c in code.checks)
    logicals = code.canonical_generators()[1]
    rng = np.random.default_rng(45)
    seen = set()
    for trial in range(60):
        op = qbp.PauliOperator.identity(code.n)
        for c in rng.choice(code.m, size=int(rng.integers(0, 8)), replace=False):
            op = op * code.checks[c]
        if trial % 3 == 1:
            op = op * logicals[int(rng.integers(len(logicals)))]
        elif trial % 3 == 2:
            op = op * qbp.PauliOperator(code.n, [int(rng.integers(code.n))])  # X on one qubit
        want = _reference_class(code, basis, op)
        assert code.residual_class(op) == want
        seen.add(want)
    assert seen == {STABILIZER, LOGICAL, DETECTABLE}


def _first_bad_pair(code, pure, logicals):
    """The first pair, in row-major order over the whole symplectic Gram
    matrix, that breaks the canonical relations, named as _verify_canonical
    names it."""
    m, k, n = code.m, code.k, code.n
    gens = list(code.checks) + list(pure) + list(logicals)
    x, z = (np.array([np.isin(op.letters(), letters) for op in gens]).astype(np.int64)
            for letters in ((1, 2), (2, 3)))  # X or Y, Y or Z
    want = np.zeros((len(gens), len(gens)), dtype=np.int64)
    for i, j in [(c, m + c) for c in range(m)] + [(2 * m + i, 2 * m + k + i) for i in range(k)]:
        want[i, j] = want[j, i] = 1
    i, j = np.argwhere((x @ z.T + z @ x.T) % 2 != want)[0]
    names = [f"{kind} {i}" for kind, size in (("check", m), ("pure error", m), ("logical", 2 * k)) for i in range(size)]
    return f"{names[i]} and {names[j]}"


def test_verify_canonical_rejects_a_flipped_bit(five, small_bicycle):
    # and names the first bad pair of the whole Gram matrix, though it forms
    # only the pairs above the diagonal outside the checks' own block
    rng = np.random.default_rng(46)
    codes = [five, small_bicycle, qbp.generate_bicycle(qbp.BicycleSpec(200, 100, 16, 17)), relabelled(small_bicycle, np.random.default_rng(47))]
    for code in codes:
        pure, logicals = code.canonical_generators()
        code._verify_canonical(pure, logicals)
        for trial in range(8):
            ops = list(pure if trial % 2 else logicals)
            i, q = int(rng.integers(len(ops))), int(rng.integers(code.n))
            flip = qbp.PauliOperator(code.n, [q] if rng.random() < 0.5 else [2 * code.n + q])  # X or Z on q
            ops[i] = ops[i] * flip
            args = (tuple(ops), logicals) if trial % 2 else (pure, tuple(ops))
            with pytest.raises(RuntimeError) as raised:
                code._verify_canonical(*args)
            assert str(raised.value).startswith(_first_bad_pair(code, *args) + " break")
