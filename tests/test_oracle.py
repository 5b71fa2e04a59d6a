import hashlib
import itertools
import warnings

import numpy as np
import pytest

import qbp
from qbp.pauli import LETTERS


def brute_marginals(code, prior, syndrome):
    """Reference implementation built on string enumeration."""
    mass = np.zeros((code.n, 4))
    for letters in itertools.product(range(4), repeat=code.n):
        op = qbp.PauliOperator.from_string("".join(LETTERS[v] for v in letters))
        if list(code.syndrome(op)) != list(syndrome):
            continue
        p = 1.0
        for q, v in enumerate(letters):
            p *= prior[q, v]
        for q, v in enumerate(letters):
            mass[q, v] += p
    return mass / mass.sum(axis=1, keepdims=True)


def test_exact_marginals_toy_symmetry(toy):
    prior = qbp.depolarizing_prior(2, 0.1)
    s = np.array([1, -1], dtype=np.int8)
    marg = qbp.exact_marginals(toy, prior, s)
    assert (marg[0] == marg[1]).all()
    assert np.abs(marg - brute_marginals(toy, prior, s)).max() <= 1e-14
    # the consistent coset is {XI, IX, YZ, ZY}
    eps = 0.1
    z = 2 * (eps / 3) * (1 - eps) + 2 * (eps / 3) ** 2
    want = np.array([(eps / 3) * (1 - eps), (eps / 3) * (1 - eps),
                     (eps / 3) ** 2, (eps / 3) ** 2]) / z
    assert np.allclose(marg[0], want, atol=1e-14)


def test_exact_marginals_brute_force_cross_check(five):
    rng = np.random.default_rng(1)
    prior = qbp.depolarizing_prior(5, 0.13)
    for _ in range(5):
        s = rng.choice([-1, 1], size=4).astype(np.int8)
        got = qbp.exact_marginals(five, prior, s)
        assert np.abs(got - brute_marginals(five, prior, s)).max() <= 1e-13


def test_exact_marginals_concentrate_at_small_eps(toy):
    marg = qbp.exact_marginals(toy, qbp.depolarizing_prior(2, 1e-6), np.array([1, 1], dtype=np.int8))
    assert (marg[:, 0] > 0.999).all()


def test_exact_marginals_size_guard():
    code = qbp.StabilizerCode(["X" * 13])
    with pytest.raises(ValueError, match="12"):
        qbp.exact_marginals(code, qbp.depolarizing_prior(13, 0.1), np.array([1], dtype=np.int8))


def test_exact_map_toy(toy):
    prior = qbp.depolarizing_prior(2, 0.1)
    op = qbp.exact_map(toy, prior, np.array([1, -1], dtype=np.int8))
    assert str(op) in {"XI", "IX"}
    assert op.weight == 1


def test_exact_map_trivial(toy, five):
    for code in (toy, five):
        prior = qbp.depolarizing_prior(code.n, 0.01)
        op = qbp.exact_map(code, prior, np.ones(code.m, dtype=np.int8))
        assert op.is_identity


def test_exact_map_syndrome_always_matches(five):
    rng = np.random.default_rng(2)
    prior = qbp.depolarizing_prior(5, 0.2)
    for _ in range(30):
        s = rng.choice([-1, 1], size=4).astype(np.int8)
        op = qbp.exact_map(five, prior, s)
        assert list(five.syndrome(op)) == list(s)


def test_exact_map_matches_brute_force(five):
    prior = qbp.depolarizing_prior(5, 0.07)
    for bits in itertools.product((1, -1), repeat=4):
        s = np.array(bits, dtype=np.int8)
        got = qbp.exact_map(five, prior, s)
        best_p, best = -1.0, None
        for letters in itertools.product(range(4), repeat=5):
            op = qbp.PauliOperator.from_string("".join(LETTERS[v] for v in letters))
            if list(five.syndrome(op)) != list(s):
                continue
            p = 1.0
            for q, v in enumerate(letters):
                p *= prior[q, v]
            if p > best_p:
                best_p, best = p, op
        assert abs(np.prod([prior[q, v] for q, v in enumerate(got.letters())]) - best_p) <= 1e-18


def test_coset_decode_toy(toy):
    eps = 0.1
    prior = qbp.depolarizing_prior(2, eps)
    s = np.array([1, -1], dtype=np.int8)
    l_star, table = qbp.coset_decode(toy, prior, s)
    assert len(table.raw_mass) == 1      # k = 0: a single logical class
    assert l_star.is_identity
    coset_mass = 2 * (eps / 3) * (1 - eps) + 2 * (eps / 3) ** 2
    assert abs(table.raw_mass[0] - coset_mass) <= 1e-15
    assert abs(table.normalized.sum() - 1.0) <= 1e-12
    recovery = toy.pure_error_for_syndrome(s) * l_star
    assert str(recovery) in {"XI", "IX", "YZ", "ZY"}


def test_coset_decode_trivial_class(five):
    prior = qbp.depolarizing_prior(5, 0.01)
    l_star, table = qbp.coset_decode(five, prior, np.ones(4, dtype=np.int8))
    assert l_star.is_identity
    assert table.normalized[0] == table.normalized.max()


def test_coset_members_share_syndrome_and_class(five):
    prior = qbp.depolarizing_prior(5, 0.05)
    s = np.array([1, -1, 1, -1], dtype=np.int8)
    t = five.pure_error_for_syndrome(s)
    _, table = qbp.coset_decode(five, prior, s)
    rng = np.random.default_rng(3)
    for l_op in table.logicals:
        rep = t * l_op
        for _ in range(5):
            stab = qbp.PauliOperator.identity(5)
            for c in five.checks:
                if rng.random() < 0.5:
                    stab = stab * c
            member = rep * stab
            assert list(five.syndrome(member)) == list(s)
            assert five.residual_class(member * rep) == "stabilizer"


def test_total_probability_over_syndromes(toy, five):
    for code in (toy, five):
        prior = qbp.depolarizing_prior(code.n, 0.13)
        total = 0.0
        for bits in itertools.product((1, -1), repeat=code.m):
            _, table = qbp.coset_decode(code, prior, np.array(bits, dtype=np.int8))
            total += float(table.raw_mass.sum())
        assert abs(total - 1.0) <= 1e-12


def test_zero_probability_syndrome_raises_everywhere(five):
    # at eps 0 only the identity has nonzero probability, though IIIIZ is
    # consistent with +-++
    prior = qbp.depolarizing_prior(5, 0.0)
    s = qbp.syndrome_from_string("+-++")
    for oracle in (qbp.exact_marginals, qbp.exact_map, qbp.coset_decode):
        with pytest.raises(RuntimeError, match="probability 0 under the prior"):
            oracle(five, prior, s)


def test_map_lies_in_max_mass_coset(five):
    # the MAP operator's coset has at least the mass of any single operator
    prior = qbp.depolarizing_prior(5, 0.08)
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = rng.choice([-1, 1], size=4).astype(np.int8)
        op = qbp.exact_map(five, prior, s)
        t = five.pure_error_for_syndrome(s)
        _, table = qbp.coset_decode(five, prior, s)
        # locate the class of op: op * t must reduce to some logical times stabilizer
        residues = [five.residual_class(op * t * l_op) for l_op in table.logicals]
        hits = [i for i, r in enumerate(residues) if r == "stabilizer"]
        assert len(hits) == 1
        p_op = float(np.prod([prior[q, v] for q, v in enumerate(op.letters())]))
        assert table.raw_mass[hits[0]] >= p_op - 1e-18


def test_coset_beats_map_on_five_qubit(five):
    eps = 0.05
    prior = qbp.depolarizing_prior(5, eps)
    map_cache, coset_cache = {}, {}
    for bits in itertools.product((1, -1), repeat=4):
        s = np.array(bits, dtype=np.int8)
        map_cache[bits] = qbp.exact_map(five, prior, s)
        l_star, _ = qbp.coset_decode(five, prior, s)
        coset_cache[bits] = five.pure_error_for_syndrome(s) * l_star
    rng = np.random.default_rng(5)
    n_map = n_coset = 0
    for _ in range(2000):
        e = qbp.sample_error(prior, rng)
        key = tuple(int(b) for b in five.syndrome(e))
        n_map += five.residual_class(e * map_cache[key]) == "stabilizer"
        n_coset += five.residual_class(e * coset_cache[key]) == "stabilizer"
    assert n_coset >= n_map


def test_coset_size_guards():
    n = 17
    wide = qbp.StabilizerCode(["I" * q + "Z" + "I" * (n - q - 1) for q in range(n)])
    with pytest.raises(ValueError, match="checks"):
        qbp.coset_decode(wide, qbp.depolarizing_prior(n, 0.1), np.ones(n, dtype=np.int8))
    tall = qbp.StabilizerCode(["ZZZZZZ"])
    with pytest.raises(ValueError, match="logical"):
        qbp.coset_decode(tall, qbp.depolarizing_prior(6, 0.1), np.ones(1, dtype=np.int8))


def _oracle_code(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bicycle (10, 8, 4, 3) and XXXXI/ZZZZI leave a qubit isolated
        if name == "bicycle_10":
            return qbp.generate_bicycle(qbp.BicycleSpec(n=10, m=8, w=4, seed=3))
        if name == "xxxxi_zzzzi":
            return qbp.StabilizerCode(["XXXXI", "ZZZZI"])
        return qbp.builtin(name)


# sha256 digests of three pins per (code, eps), over every syndrome in
# itertools.product((1, -1)) bit order: the bytes of the marginals, the
# strings of the MAP operators, and coset_decode's raw_mass bytes with its
# logicals.  The marginals pins were recorded from syndrome_tables' bincount
# sums, which differ from the per-syndrome path they replaced by at most
# 7.8e-16 on the syndromes it pinned and 1.8e-15 on bicycle's others.
# The MAP and coset pins are unchanged since that path, and the coset pins
# since coset_decode summed over symplectic bit rows.
ORACLE_DIGESTS = {
    ("five_qubit", 0.05): (
        "4ab1d03993e2d0af0492337e01d7552ba949c50cad2948e5e3dc011678a559e5",
        "5de76057a47a44ac38b3f6c8190183ce309db3016ca8fac3d1bb8ce921121044",
        "66f2b0a3390ecaced1d0bce2eda3e053925bd839f6fa39ca90b0a846184236ae"),
    ("five_qubit", 0.2): (
        "71fb1f9cfa3ca5f4fa89dacbde306b7f71e85549ad0306d1c64a50c1698db804",
        "5de76057a47a44ac38b3f6c8190183ce309db3016ca8fac3d1bb8ce921121044",
        "c1118abb95bab3653ad82fc3252a27cee2083d1b53a2cdbc686d4e6b9fe2b96f"),
    ("two_qubit_toy", 0.05): (
        "24e98aab034f3d788880aa2a35869f6655b9e0cb6636a25533cf693e9e86da60",
        "f22805998d6a66195f17e968633b760300d9b5baf2d92622b1693ab22e9632af",
        "e4df61cb5f134f6b98b8f79467a08e137f043657d560097ad9a27bf704a298d1"),
    ("two_qubit_toy", 0.2): (
        "8f0b9115f73b70418426dd98fb007254c4f643e255178b848bb2d8e51bb4651b",
        "f22805998d6a66195f17e968633b760300d9b5baf2d92622b1693ab22e9632af",
        "84fc11f01440c58a89e1592f43ef348263fe093b9078c587c3c54030434bf992"),
    ("bicycle_10", 0.05): (
        "41c3d588fdc69b85188cb83aa84b553494e0a7992ba137ea338d0a7a656c51b9",
        "9c8d87da6c010c79487d9856c634aadafecaa8ba6463585f57724c0a8c784baf",
        "a024d266e94084576e87fd9a5eac8c25edb6fdc46bf8fc15a1bf1c1bdc780623"),
    ("bicycle_10", 0.2): (
        "2d8d1537a0a35a18b7f2c2dbc0603012b72b30b0199bf78242b922f4416b00a5",
        "b98c87bef7e3f83f70715e54967773eb235ca42b73e391608293d858f056fb04",
        "03bd25c5b63a9e5ed1cd54dbd8e88741f52cd230098db12747c6be5a60169d44"),
    ("xxxxi_zzzzi", 0.05): (
        "5cc4e8ea937ecf0cd1ecd981116feb636fac7e580d0aedc63893e9ed98e54262",
        "d4db800c07f76296f7a04683c3742022f883772a2e3c5f36463f38f32615a5ed",
        "2a445fe2d9b957618cd60a815258b6f1fdfd40c1cab5111a14af46fc7bfe1ea9"),
    ("xxxxi_zzzzi", 0.2): (
        "231189460fd68524c0c162949edf6f8de6c29fff3180f4ccc23cd9234ce1bb7d",
        "e67e3c0915b366f4ee38418dfa89839b6bf68075e51074e5c87cdcf5466d6fdb",
        "2b941def2e1abf09420388926bf7e65e42094ed751cdfdaa62ec8106d0c4d3da"),
}


@pytest.mark.parametrize("name, eps", list(ORACLE_DIGESTS))
def test_oracle_outputs_pinned(name, eps):
    code = _oracle_code(name)
    prior = qbp.depolarizing_prior(code.n, eps)
    tables = qbp.syndrome_tables(code, prior)
    marginals_digest, map_digest, coset_digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for bits in itertools.product((1, -1), repeat=code.m):
        s = np.array(bits, dtype=np.int8)
        marginals_digest.update(tables.marginals(s).tobytes())
        map_digest.update(str(tables.map(s)).encode())
        _, table = qbp.coset_decode(code, prior, s)
        coset_digest.update(table.raw_mass.tobytes())
        coset_digest.update(repr([str(op) for op in table.logicals]).encode())
    got = (marginals_digest.hexdigest(), map_digest.hexdigest(), coset_digest.hexdigest())
    assert got == ORACLE_DIGESTS[name, eps]


def test_syndrome_tables_cover_every_bicycle_syndrome():
    # one pass over 4^10 operators against coset_decode's 256 group sums:
    # two independent enumerations of every syndrome's probability
    code = _oracle_code("bicycle_10")
    prior = qbp.depolarizing_prior(code.n, 0.05)
    tables = qbp.syndrome_tables(code, prior)
    total = 0.0
    for bits in itertools.product((1, -1), repeat=code.m):
        s = np.array(bits, dtype=np.int8)
        assert np.abs(tables.marginals(s).sum(axis=1) - 1.0).max() <= 1e-14
        assert (code.syndrome(tables.map(s)) == s).all()
        p = float(tables.mass[tables.word(s), 0].sum())
        _, coset = qbp.coset_decode(code, prior, s)
        assert abs(p - coset.raw_mass.sum()) <= 1e-12 * p
        total += p
    assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("bad, match", [
    ([0, 1], r"\+1 .* or -1"),      # 0/1 bits: read as signs, 0 would pass as +1
    ([1], "must have 2 bits"),
    ([1, -1, -1], "must have 2 bits"),  # an extra bit was ignored
])
def test_syndrome_values_and_length_checked_everywhere(toy, bad, match):
    prior = qbp.depolarizing_prior(2, 0.1)
    calls = {
        "decode": lambda s: qbp.decode(toy, prior, s),
        "pure_error_for_syndrome": toy.pure_error_for_syndrome,
        "exact_marginals": lambda s: qbp.exact_marginals(toy, prior, s),
        "exact_map": lambda s: qbp.exact_map(toy, prior, s),
        "coset_decode": lambda s: qbp.coset_decode(toy, prior, s),
    }
    for name, call in calls.items():
        for s in (bad, np.array(bad, dtype=np.int8)):
            with pytest.raises(ValueError, match=match):
                call(s)
