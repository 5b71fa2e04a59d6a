import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import qbp
from qbp import bp
from qbp.bp import MessageState
from qbp.pauli import SIGN_TABLE

from conftest import check_messages, edge_bias, edge_signs, random_single_check_code, set_incoming


def naive_check_message(labels, incoming, s_c):
    """Direct sum over all neighbor assignments, one outgoing message per edge."""
    deg = len(labels)
    msgs = []
    for tgt in range(deg):
        vec = np.zeros(4)
        others = [j for j in range(deg) if j != tgt]
        for e_t in range(4):
            total = 0.0
            for assign in itertools.product(range(4), repeat=deg - 1):
                sign = int(SIGN_TABLE[labels[tgt], e_t])
                p = 1.0
                for j, e in zip(others, assign):
                    sign *= int(SIGN_TABLE[labels[j], e])
                    p *= incoming[j][e]
                if sign == s_c:
                    total += p
            vec[e_t] = total
        msgs.append(vec / vec.sum())
    return np.array(msgs)


def test_depolarizing_prior():
    p = qbp.depolarizing_prior(3, 0.3)
    assert np.allclose(p, [[0.7, 0.1, 0.1, 0.1]] * 3)
    with pytest.raises(ValueError):
        qbp.depolarizing_prior(2, 1.5)


def test_init_messages(toy):
    state = qbp.init_messages(toy, qbp.depolarizing_prior(2, 0.1))
    # every toy edge label commutes with I and itself: d = 0.9 + 1/30 - 2/30
    assert np.allclose(state.d_qc, 1 - 4 * 0.1 / 3)
    assert (state.t_cq == 0.0).all()
    assert (check_messages(state, toy) == 0.25).all()
    zero = qbp.init_messages(toy, qbp.depolarizing_prior(2, 0.0))
    assert (zero.working_prior >= bp.EPS_FLOOR).all()
    assert (zero.d_qc == 1.0).all()
    with pytest.raises(ValueError):
        qbp.init_messages(toy, qbp.depolarizing_prior(3, 0.1))


def test_check_update_toy_closed_form(toy):
    eps = 0.1
    state = qbp.init_messages(toy, qbp.depolarizing_prior(2, eps))
    qbp.check_update(state, toy, np.array([1, -1], dtype=np.int8))
    # edge order: (q0,XX), (q1,XX), (q0,ZZ), (q1,ZZ); message to q0 from XX
    # under s=+1 with depolarizing incoming from q1
    d = 1 - 4 * eps / 3
    expect_xx = np.array([1 + d, 1 + d, 1 - d, 1 - d]) / 4
    expect_zz = np.array([1 - d, 1 + d, 1 + d, 1 - d]) / 4
    m_cq = check_messages(state, toy)
    assert np.allclose(m_cq[0], expect_xx, atol=1e-14)
    assert np.allclose(m_cq[2], expect_zz, atol=1e-14)


def test_check_update_syndrome_minus_one_example():
    # single check XX, incoming depolarizing on the other qubit, s = -1
    eps = 0.1
    code = qbp.StabilizerCode(["XX"])
    state = qbp.init_messages(code, qbp.depolarizing_prior(2, eps))
    qbp.check_update(state, code, np.array([-1], dtype=np.int8))
    expect = np.array([2 * eps / 3, 2 * eps / 3, 1 - 2 * eps / 3, 1 - 2 * eps / 3])
    expect /= expect.sum()
    assert np.allclose(check_messages(state, code)[0], expect, atol=1e-14)


def test_check_update_uniform_incoming_stays_uniform():
    code = qbp.StabilizerCode(["XY"])
    state = qbp.init_messages(code, qbp.depolarizing_prior(2, 0.1))
    set_incoming(state, code, np.full((2, 4), 0.25))
    qbp.check_update(state, code, np.array([1], dtype=np.int8))
    assert np.allclose(check_messages(state, code), 0.25, atol=1e-15)


def test_check_update_degree_one_check():
    code = qbp.StabilizerCode(["Z"])
    state = qbp.init_messages(code, qbp.depolarizing_prior(1, 0.2))
    qbp.check_update(state, code, np.array([-1], dtype=np.int8))
    assert np.allclose(check_messages(state, code)[0], [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_check_update_matches_naive_enumeration():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        code = random_single_check_code(rng)
        deg = code.n
        incoming = rng.dirichlet(np.ones(4), size=deg)
        s_c = int(rng.choice([-1, 1]))
        state = qbp.init_messages(code, qbp.depolarizing_prior(deg, 0.1))
        set_incoming(state, code, incoming)
        qbp.check_update(state, code, np.array([s_c], dtype=np.int8))
        labels = [letter for _, letter in code.tanner[0]]
        ref = naive_check_message(labels, incoming, s_c)
        worst = max(worst, float(np.abs(check_messages(state, code) - ref).max()))
    assert worst <= 1e-12


def test_check_update_handles_zero_bias():
    # two incoming messages with exactly zero commute/anticommute bias
    code = qbp.StabilizerCode(["XXX"])
    state = qbp.init_messages(code, qbp.depolarizing_prior(3, 0.1))
    incoming = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.4, 0.1], [0.3, 0.2, 0.3, 0.2]])
    set_incoming(state, code, incoming)
    assert (state.d_qc[:2] == 0.0).all()
    qbp.check_update(state, code, np.array([-1], dtype=np.int8))
    labels = [1, 1, 1]
    ref = naive_check_message(labels, incoming, -1)
    assert np.abs(check_messages(state, code) - ref).max() <= 1e-12


def test_qubit_update_degree_one_returns_prior():
    code = qbp.StabilizerCode(["ZZ"])
    prior = qbp.depolarizing_prior(2, 0.2)
    state = qbp.init_messages(code, prior)
    qbp.check_update(state, code, np.array([1], dtype=np.int8))
    qbp.qubit_update(state, code)
    assert np.allclose(state.d_qc, edge_bias(code, prior), atol=1e-12)


def test_qubit_update_uniform_incoming_returns_prior(toy):
    prior = qbp.depolarizing_prior(2, 0.3)
    state = qbp.init_messages(toy, prior)
    state.t_cq[:] = 0.0
    qbp.qubit_update(state, toy)
    assert np.allclose(state.d_qc, edge_bias(toy, prior[toy.edges.qubit]), atol=1e-12)


def test_qubit_update_toy_composition(toy):
    eps = 0.1
    prior = qbp.depolarizing_prior(2, eps)
    state = qbp.init_messages(toy, prior)
    qbp.check_update(state, toy, np.array([1, -1], dtype=np.int8))
    m_zz_to_0 = check_messages(state, toy)[2]
    m_xx_to_0 = check_messages(state, toy)[0]
    qbp.qubit_update(state, toy)
    want_to_xx = prior[0] * m_zz_to_0
    want_to_xx /= want_to_xx.sum()
    want_to_zz = prior[0] * m_xx_to_0
    want_to_zz /= want_to_zz.sum()
    signs = edge_signs(toy)
    assert np.isclose(state.d_qc[0], want_to_xx @ signs[0], rtol=0, atol=1e-12)
    assert np.isclose(state.d_qc[2], want_to_zz @ signs[2], rtol=0, atol=1e-12)


def test_beliefs_isolated_qubit_equals_prior():
    with pytest.warns(UserWarning):
        code = qbp.StabilizerCode(["XXI"])
    prior = qbp.depolarizing_prior(3, 0.25)
    state = qbp.init_messages(code, prior)
    qbp.check_update(state, code, np.array([1], dtype=np.int8))
    beliefs = qbp.qubit_update(state, code)
    assert np.allclose(beliefs[2], prior[2], atol=1e-12)
    assert np.allclose(qbp.compute_beliefs(state, code), beliefs, atol=0)


def test_beliefs_match_exact_marginals_on_trees():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(300):
        code = random_single_check_code(rng)
        eps = float(rng.uniform(1e-4, 0.5))
        prior = qbp.depolarizing_prior(code.n, eps)
        s = np.array([rng.choice([-1, 1])], dtype=np.int8)
        res = qbp.decode(code, prior, s, qbp.DecodeConfig(max_iterations=4, t_pert=2))
        exact = qbp.exact_marginals(code, prior, s)
        worst = max(worst, float(np.abs(res.final_beliefs - exact).max()))
    assert worst <= 1e-10


def test_hard_decision():
    beliefs = np.array([[0.9, 0.05, 0.03, 0.02], [0.4, 0.4, 0.1, 0.1]])
    assert str(qbp.hard_decision(beliefs)) == "II"  # tie on qubit 1 goes to I
    beliefs = np.array([[0.1, 0.2, 0.3, 0.4]])
    assert str(qbp.hard_decision(beliefs)) == "Z"


def test_decode_trivial_syndrome(five):
    res = qbp.decode(five, qbp.depolarizing_prior(5, 0.1), np.ones(4, dtype=np.int8))
    assert res.converged and res.iterations_used == 1 and res.correction.is_identity


def test_decode_rejects_heuristic_config(toy):
    prior = qbp.depolarizing_prior(2, 0.1)
    s = np.array([1, -1], dtype=np.int8)
    cfg = qbp.DecodeConfig(heuristic="collision_freeze", seed=1)
    with pytest.raises(ValueError, match="decode_with_heuristics"):
        qbp.decode(toy, prior, s, cfg)
    res, events = qbp.decode_with_heuristics(toy, prior, s, cfg)
    assert res.converged and events


def test_decode_toy_detected(toy):
    trace = []
    res = qbp.decode(toy, qbp.depolarizing_prior(2, 0.1), np.array([1, -1], dtype=np.int8), trace=trace)
    assert not res.converged
    assert res.iterations_used == 90
    assert res.correction.is_identity
    assert len(trace) == 90


def test_decode_matches_exact_argmax_on_single_checks():
    rng = np.random.default_rng(23)
    for _ in range(100):
        code = random_single_check_code(rng)
        eps = float(rng.uniform(0.01, 0.4))
        prior = qbp.depolarizing_prior(code.n, eps)
        s = np.array([rng.choice([-1, 1])], dtype=np.int8)
        res = qbp.decode(code, prior, s, qbp.DecodeConfig(max_iterations=8, t_pert=2))
        exact = qbp.exact_marginals(code, prior, s)
        assert str(res.correction) == str(qbp.hard_decision(exact))


def test_toy_symmetry_exact(toy):
    trace = []
    qbp.decode(toy, qbp.depolarizing_prior(2, 0.1), np.array([1, -1], dtype=np.int8), trace=trace)
    for _, beliefs in trace:
        assert (beliefs[0] == beliefs[1]).all()


def test_permutation_equivariance(five):
    # relabel qubit i -> perm[i]; beliefs must follow the relabeling
    rng = np.random.default_rng(24)
    perm = rng.permutation(5)
    permuted_checks = []
    for c in five.checks:
        new = np.zeros(5, dtype=np.int8)
        new[perm] = c.letters()
        permuted_checks.append(qbp.PauliOperator.from_letters(new))
    code_p = qbp.StabilizerCode(permuted_checks)
    prior = np.tile(np.array([0.85, 0.07, 0.05, 0.03]), (5, 1))
    s = five.syndrome(qbp.PauliOperator.from_string("XIIII"))
    assert list(code_p.syndrome(qbp.PauliOperator.from_letters(
        np.eye(5, dtype=np.int8)[perm[0]]))) == list(s)
    cfg = qbp.DecodeConfig(max_iterations=7, t_pert=2)
    res = qbp.decode(five, prior, s, cfg)
    res_p = qbp.decode(code_p, prior, s, cfg)
    assert np.abs(res_p.final_beliefs[perm] - res.final_beliefs).max() <= 1e-12


def test_messages_stay_normalized_and_finite():
    rng = np.random.default_rng(25)
    total_iterations = 0
    for eps in (1e-4, 0.5):
        while total_iterations < 50_000:
            n = int(rng.integers(2, 7))
            checks = None
            try:
                a = rng.integers(1, 4, size=n).astype(np.int8)
                b = rng.integers(1, 4, size=n).astype(np.int8)
                checks = qbp.StabilizerCode([qbp.PauliOperator.from_letters(a), qbp.PauliOperator.from_letters(b)])
            except ValueError:
                continue
            prior = qbp.depolarizing_prior(n, eps)
            s = rng.choice([-1, 1], size=2).astype(np.int8)
            res, _ = qbp.decode_with_heuristics(
                checks, prior, s, qbp.DecodeConfig(max_iterations=30, heuristic="perturb", seed=int(rng.integers(1 << 30))),
            )
            total_iterations += res.iterations_used
            assert np.isfinite(res.final_beliefs).all()
            assert np.abs(res.final_beliefs.sum(axis=1) - 1).max() <= 1e-9
        total_iterations = 0


def test_decode_config_validation():
    with pytest.raises(ValueError):
        qbp.DecodeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        qbp.DecodeConfig(t_pert=0)
    with pytest.raises(ValueError):
        qbp.DecodeConfig(t_pert=100, max_iterations=90)
    with pytest.raises(ValueError):
        qbp.DecodeConfig(delta=-0.1)
    with pytest.raises(ValueError):
        qbp.DecodeConfig(heuristic="annealing")


def test_edge_state_is_one_scalar_per_edge(small_bicycle):
    ea = small_bicycle.edges
    assert np.array_equal(ea.sign, edge_signs(small_bicycle)[ea.qubit_order].T)
    assert ea.sign.shape == (4, len(ea.qubit)) and ea.sign.flags.c_contiguous
    state = qbp.init_messages(small_bicycle, qbp.depolarizing_prior(small_bicycle.n, 0.05))
    qbp.check_update(state, small_bicycle, np.ones(small_bicycle.m, dtype=np.int8))
    qbp.qubit_update(state, small_bicycle)
    assert state.d_qc.shape == state.t_cq.shape == (len(ea.qubit),)


def _reference_edges(code):
    """The edge arrays the (E, 4) kernel read: signs as qubit-sorted (E, 4) rows."""
    order = np.argsort(code.edges.qubit, kind="stable")
    qsorted = code.edges.qubit[order]
    active, counts = np.unique(qsorted, return_counts=True)
    return SimpleNamespace(sign=edge_signs(code)[order], qubit_order=order, qubit_of_sorted=qsorted,
                           qubit_start=np.concatenate(([0], np.cumsum(counts))), active_qubits=active)


# The (E, 4) kernel, verbatim but for reading _reference_edges(code) in place
# of code.edges: the letter-major kernel must match it bit for bit.
def _reference_qubit_products(state, code):
    ea = _reference_edges(code)
    w = state.t_cq.take(ea.qubit_order)[:, None] * ea.sign
    w += 0.25
    np.maximum(w, bp.EPS_FLOOR, out=w)
    prod = np.multiply.reduceat(w, ea.qubit_start[:-1], axis=0)
    bu = state.working_prior.copy()
    bu[ea.active_qubits] *= prod
    return bu, w


def _reference_normalize_rows(rows):
    totals = rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]
    dead = totals <= 0.0
    if dead.any():
        rows[dead] = 0.25
        totals[dead] = 1.0
    rows /= totals[:, None]
    np.maximum(rows, bp.EPS_FLOOR, out=rows)
    return rows


def _reference_qubit_update(state, code):
    ea = _reference_edges(code)
    bu, w = _reference_qubit_products(state, code)
    out = bu.take(ea.qubit_of_sorted, axis=0)
    out /= w
    _reference_normalize_rows(out)
    state.d_qc[ea.qubit_order] = np.einsum("ij,ij->i", out, ea.sign)
    return _reference_normalize_rows(bu)


def _reference_init_d(code, prior):
    ea = _reference_edges(code)
    wp = np.maximum(prior, bp.EPS_FLOOR)
    d_qc = np.empty(len(ea.qubit_order))
    d_qc[ea.qubit_order] = np.einsum("ij,ij->i", wp[ea.qubit_of_sorted], ea.sign)
    return d_qc


def _equivalence_codes(toy, five, small_bicycle):
    with pytest.warns(UserWarning):
        tail = qbp.StabilizerCode(["XXI"])
    with pytest.warns(UserWarning):
        middle = qbp.StabilizerCode(["ZIZZ", "XIXI"])
    return {"toy": toy, "five": five, "small_bicycle": small_bicycle, "isolated_tail": tail, "isolated_middle": middle}


@pytest.mark.parametrize("seed, kind", enumerate(["random", "zero_bias", "dead_rows"]))
def test_qubit_update_matches_reference_bitwise(toy, five, small_bicycle, seed, kind):
    rng = np.random.default_rng([31, seed])
    dead_rows = 0
    for name, code in _equivalence_codes(toy, five, small_bicycle).items():
        edges = len(code.edges.qubit)
        prior = rng.dirichlet(np.ones(4), size=code.n)
        if kind == "zero_bias":
            # zero prior entries, and uniform rows whose bias d is exactly 0
            prior[::2] = [1.0, 0.0, 0.0, 0.0]
            prior[1::2] = 0.25
        state = qbp.init_messages(code, prior)
        assert np.array_equal(state.d_qc, _reference_init_d(code, prior)), name
        if kind == "random":
            state.t_cq = rng.uniform(-0.25, 0.25, size=edges)
        elif kind == "zero_bias":
            # uniform check messages, and the extreme t = +-1/4 whose factors hit the floor
            state.t_cq = rng.choice([0.0, -0.0, 0.25, -0.25], size=edges)
        else:
            # products underflow to zero, so rows take the dead-row reset
            state.working_prior[:] = 1e-300
            state.t_cq = np.where(rng.random(edges) < 0.5, 0.25, -0.25)
        ref = MessageState(state.working_prior.copy(), state.d_qc.copy(), state.t_cq.copy())
        dead_rows += int((_reference_qubit_products(ref, code)[0].sum(axis=1) == 0.0).sum())
        beliefs = qbp.qubit_update(state, code)
        want = _reference_qubit_update(ref, code)
        assert np.array_equal(state.d_qc, ref.d_qc), name
        assert np.array_equal(beliefs, want), name
        assert np.array_equal(qbp.compute_beliefs(state, code), want), name
    assert (dead_rows > 0) == (kind == "dead_rows")


def test_decode_iterations_match_reference_bitwise(five, small_bicycle):
    # alternate check and qubit updates from real syndromes, as a decode does
    rng = np.random.default_rng(32)
    for code in (five, small_bicycle):
        prior = qbp.depolarizing_prior(code.n, 0.1)
        syndrome = code.syndrome(qbp.sample_error(prior, rng))
        state = qbp.init_messages(code, prior)
        ref = qbp.init_messages(code, prior)
        for _ in range(20):
            qbp.check_update(state, code, syndrome)
            qbp.check_update(ref, code, syndrome)
            assert np.array_equal(qbp.qubit_update(state, code), _reference_qubit_update(ref, code))
            assert np.array_equal(state.d_qc, ref.d_qc)


# sha256 over (final beliefs bytes, correction, iterations) of 12 seeded
# decodes per heuristic; recorded while messages were still (E, 4) arrays
GOLDEN_BELIEF_DIGESTS = {
    "none": "f3df952e317d8e712d15b070fd80f4d03d9ca13461502a8dbd512d87946526cf",
    "perturb": "be1cc5d64a016e7c297f79cafe1af06c584aa7880df3aa8c22da562cb279dedf",
    "collision_freeze": "ff6ef8100698f4bea72f3455f4af17ba77ec03fd832c4dec0d2b0fe3f0c48770",
}


@pytest.mark.parametrize("heuristic", sorted(GOLDEN_BELIEF_DIGESTS))
def test_beliefs_golden_digest(small_bicycle, heuristic):
    prior = qbp.depolarizing_prior(small_bicycle.n, 0.05)
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    digest = hashlib.sha256()
    for trial in range(12):
        rng = np.random.default_rng([5, trial])
        error = qbp.sample_error(prior, rng)
        res, _ = qbp.decode_with_heuristics(small_bicycle, prior, small_bicycle.syndrome(error), cfg, rng=rng)
        digest.update(res.final_beliefs.tobytes())
        digest.update(repr((str(res.correction), res.iterations_used)).encode())
    assert digest.hexdigest() == GOLDEN_BELIEF_DIGESTS[heuristic]


# sha256 over (final beliefs bytes, correction, iterations) of 4 seeded
# decodes per heuristic on the headline code, whose long qubit segments the
# small_bicycle digests never reach; recorded while the qubit update still
# walked (E, 4) arrays
GOLDEN_BICYCLE_800_DIGESTS = {
    "none": "981617da055dbe0dcd7b69086b432464bd661d4cfde619b164c7486e994979a7",
    "collision_freeze": "29f10b2a3e2d1e31e71fc7c26c0cf1a2d515727c1805cec27cf01b39496fd8eb",
}


@pytest.mark.parametrize("heuristic", sorted(GOLDEN_BICYCLE_800_DIGESTS))
def test_beliefs_golden_digest_bicycle_800(bicycle_800, heuristic):
    prior = qbp.depolarizing_prior(bicycle_800.n, 0.04)
    cfg = qbp.DecodeConfig(heuristic=heuristic)
    digest = hashlib.sha256()
    for trial in range(4):
        rng = np.random.default_rng([11, trial])
        error = qbp.sample_error(prior, rng)
        res, _ = qbp.decode_with_heuristics(bicycle_800, prior, bicycle_800.syndrome(error), cfg, rng=rng)
        digest.update(res.final_beliefs.tobytes())
        digest.update(repr((str(res.correction), res.iterations_used)).encode())
    assert digest.hexdigest() == GOLDEN_BICYCLE_800_DIGESTS[heuristic]


@pytest.mark.parametrize("heuristic", ["none", "collision_freeze"])
def test_decode_raises_no_fp_exception(small_bicycle, heuristic):
    # Errors of weight 1..6 at every eps, so that near-deterministic priors
    # meet nontrivial syndromes.  Underflow is left out: the floor absorbs it,
    # and it is a known open fault.
    n = small_bicycle.n
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for eps in (1e-12, 1e-6, 1e-3, 0.02, 0.04, 0.1, 0.2):
            prior = qbp.depolarizing_prior(n, eps)
            for weight in range(1, 7):
                rng = np.random.default_rng([13, weight])
                letters = np.zeros(n, dtype=np.int8)
                letters[rng.choice(n, size=weight, replace=False)] = rng.integers(1, 4, size=weight)
                error = qbp.PauliOperator.from_letters(letters)
                res, _ = qbp.decode_with_heuristics(small_bicycle, prior, small_bicycle.syndrome(error), cfg, rng=rng)
                assert np.isfinite(res.final_beliefs).all()
