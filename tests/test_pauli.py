import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbp.pauli import LETTERS, SIGN_TABLE, PauliOperator

pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=48)


def paired_strings(draw):
    s = draw(pauli_strings)
    t = draw(st.text(alphabet="IXYZ", min_size=len(s), max_size=len(s)))
    return s, t


# the single-qubit commutation table: I commutes with everything,
# X, Y, Z pairwise anticommute
TABLE = {
    ("I", "I"): 1, ("I", "X"): 1, ("I", "Y"): 1, ("I", "Z"): 1,
    ("X", "I"): 1, ("X", "X"): 1, ("X", "Y"): -1, ("X", "Z"): -1,
    ("Y", "I"): 1, ("Y", "X"): -1, ("Y", "Y"): 1, ("Y", "Z"): -1,
    ("Z", "I"): 1, ("Z", "X"): -1, ("Z", "Y"): -1, ("Z", "Z"): 1,
}


def test_commute_single_full_table():
    for (a, b), want in TABLE.items():
        assert SIGN_TABLE[LETTERS.index(a), LETTERS.index(b)] == want


@pytest.mark.parametrize(
    "e,f,want",
    [
        ("XZZXI", "IXZZX", 1),
        ("IX", "ZZ", -1),
        ("XIIY", "IIII", 1),
        ("XZZXI", "XIXZZ", 1),
    ],
)
def test_commute_examples(e, f, want):
    assert PauliOperator.from_string(e).commute(PauliOperator.from_string(f)) == want


def test_commute_length_mismatch():
    with pytest.raises(ValueError):
        PauliOperator.from_string("XX").commute(PauliOperator.from_string("X"))


@pytest.mark.parametrize(
    "e,f,want",
    [
        ("XI", "IX", "XX"),
        ("XX", "IX", "XI"),
        ("Y", "X", "Z"),
        ("XZZXI", "XZZXI", "IIIII"),
    ],
)
def test_multiply_examples(e, f, want):
    assert str(PauliOperator.from_string(e) * PauliOperator.from_string(f)) == want


@pytest.mark.parametrize("text,want", [("XIIY", 2), ("IIII", 0), ("XZZXI", 4)])
def test_weight(text, want):
    assert PauliOperator.from_string(text).weight == want


def test_parse_bit_layout():
    op = PauliOperator.from_string("XIIY")
    assert op.positions().tolist() == [0, 4 + 3]  # X on qubit 0, Y on qubit 3
    assert list(op.letters()) == [1, 0, 0, 2]


@pytest.mark.parametrize("bad", ["", "XA", "xz", "I I"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        PauliOperator.from_string(bad)


@given(pauli_strings)
def test_roundtrip(text):
    assert str(PauliOperator.from_string(text)) == text


@given(st.data())
def test_commute_symmetry_and_table_product(data):
    s = data.draw(pauli_strings)
    t = data.draw(st.text(alphabet="IXYZ", min_size=len(s), max_size=len(s)))
    e, f = PauliOperator.from_string(s), PauliOperator.from_string(t)
    assert e.commute(f) == f.commute(e)
    prod = 1
    for a, b in zip(s, t):
        prod *= TABLE[(a, b)]
    assert e.commute(f) == prod


@given(st.data())
def test_bicharacter_and_involution(data):
    n = data.draw(st.integers(min_value=1, max_value=32))
    strs = [data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)) for _ in range(3)]
    e, f, g = (PauliOperator.from_string(x) for x in strs)
    assert (e * f).commute(g) == e.commute(g) * f.commute(g)
    assert (e * e).is_identity
    assert (e * f) * g == e * (f * g)


def test_commute_matches_table_product_bulk():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        e = PauliOperator.from_letters(a.astype(np.int8))
        f = PauliOperator.from_letters(b.astype(np.int8))
        prod = 1
        for x, y in zip(a, b):
            prod *= TABLE[(LETTERS[x], LETTERS[y])]
        assert e.commute(f) == prod


def test_equality_and_hash():
    assert PauliOperator.from_string("XY") == PauliOperator.from_string("XY")
    assert PauliOperator.from_string("XY") != PauliOperator.from_string("YX")
    assert len({PauliOperator.from_string("XY"), PauliOperator.from_string("XY"), PauliOperator.from_string("YX")}) == 2
    # pool workers unpickle a code's checks
    for text in ("XY", "IIII", "ZIYX" * 20):
        op = PauliOperator.from_string(text)
        copy = pickle.loads(pickle.dumps(op))
        assert copy == op and hash(copy) == hash(op) and str(copy) == text


def test_from_letters_matches_parse():
    rng = np.random.default_rng(5)
    for _ in range(50):
        letters = rng.integers(0, 4, size=int(rng.integers(1, 70))).astype(np.int8)
        text = "".join(LETTERS[v] for v in letters)
        assert PauliOperator.from_letters(letters) == PauliOperator.from_string(text)


def test_from_letters_rejects_bad_input():
    with pytest.raises(ValueError, match="0..3"):
        PauliOperator.from_letters(np.array([4, 7, -1, 1]))
    with pytest.raises(ValueError, match="0..3"):
        PauliOperator.from_letters(np.array([0, 1, 2, 3, 4], dtype=np.uint8))
    with pytest.raises(ValueError, match="1-D"):
        PauliOperator.from_letters(np.zeros((2, 3), dtype=np.int8))
    with pytest.raises(ValueError, match="1-D"):
        PauliOperator.from_letters(np.int8(1))
    assert str(PauliOperator.from_letters(np.array([0, 1, 2, 3]))) == "IXYZ"


def test_from_letters_rejects_non_integer_codes():
    # [1.5, 2.0] used to compare as IY
    for bad in ([1.5, 2.0], np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(ValueError, match="integers"):
            PauliOperator.from_letters(bad)
    assert str(PauliOperator.from_letters(np.array([1, 2], dtype=np.uint8))) == "XY"


def test_constructor_checks_positions():
    # any order, stored ascending and read-only; the empty list is the identity
    op = PauliOperator(4, np.array([7, 0], dtype=np.int32))
    assert op == PauliOperator.from_string("XIIY") == PauliOperator(4, [0, 7])
    assert op.positions().dtype == np.intp and not op.positions().flags.writeable
    assert not pickle.loads(pickle.dumps(op)).positions().flags.writeable
    assert PauliOperator(3, []) == PauliOperator.identity(3)
    for bad, match in (([12], r"\[0, 12\)"), ([-1], r"\[0, 12\)"), ([1, 4 + 1], "one letter per qubit"),
                       ([[0, 1]], "1-D integer"), (np.array([0.0, 5.0]), "1-D integer"),
                       (np.array([True]), "1-D integer")):
        with pytest.raises(ValueError, match=match):
            PauliOperator(4, bad)
    with pytest.raises(ValueError, match="at least one qubit"):
        PauliOperator(0, [])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 800])
def test_positions_layout(n):
    # positions (l - 1) * n + q of the non-identity letters, ascending, read
    # against the parsed string; both ways back give the operator
    rng = np.random.default_rng([71, n])
    texts = ["I" * n] + ["".join(rng.choice(list(LETTERS), size=n)) for _ in range(10)]
    texts += ["".join(rng.choice(list(LETTERS), size=n, p=[0.9, 0.04, 0.03, 0.03])) for _ in range(5)]
    for text in texts:
        op = PauliOperator.from_string(text)
        positions = op.positions()
        want = [(LETTERS.index(ch) - 1) * n + q for q, ch in enumerate(text) if ch != "I"]
        assert positions.tolist() == sorted(want)
        assert (np.diff(positions) > 0).all() and ((0 <= positions) & (positions < 3 * n)).all()
        assert len(positions) == op.weight == len(set((positions % n).tolist()))
        assert PauliOperator._from_positions(n, positions) == op
        assert op.letters().tolist() == [LETTERS.index(ch) for ch in text]
        assert PauliOperator.from_letters(op.letters()) == op
    # products letter by letter (letter codes XOR), on random pairs at every size
    ops = [PauliOperator.from_string(text) for text in texts]
    for i, j in rng.integers(len(ops), size=(20, 2)).tolist():
        op, other = ops[i], ops[j]
        assert (op * other).letters().tolist() == (op.letters() ^ other.letters()).tolist()
