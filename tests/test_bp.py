import hashlib
import itertools
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import qbp
from qbp import bp, heuristics
from qbp.bp import MessageState
from qbp.pauli import SIGN_TABLE

from conftest import check_messages, edge_bias, edge_signs, random_single_check_code, set_incoming, tanner_rows


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
    for eps in (1.5, -0.1, float("nan"), float("inf"), 10 ** 400, True, np.True_, "0.1", None):
        with pytest.raises(ValueError, match="eps"):
            qbp.depolarizing_prior(2, eps)
    for n in (-1, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="n must"):
            qbp.depolarizing_prior(n, 0.3)
    assert np.array_equal(qbp.depolarizing_prior(np.int64(3), np.float32(0.75)), [[0.25] * 4] * 3)


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


@pytest.mark.parametrize("entry", [(1, 2), (0, 0)])
def test_nan_prior_rejected(toy, entry):
    prior = qbp.depolarizing_prior(2, 0.1)
    prior[entry] = np.nan
    with pytest.raises(ValueError):
        qbp.init_messages(toy, prior)
    with pytest.raises(ValueError):
        qbp.decode(toy, prior, np.array([1, -1], dtype=np.int8))
    with pytest.raises(ValueError):
        qbp.sample_error(prior, np.random.default_rng(0))


def test_check_update_rejects_wrong_syndrome_length(five):
    state = qbp.init_messages(five, qbp.depolarizing_prior(5, 0.1))
    for bad in (np.array([-1], dtype=np.int8), np.ones(5, dtype=np.int8), np.int8(1)):
        with pytest.raises(ValueError, match="syndrome must have 4 bits"):
            qbp.check_update(state, five, bad)


@pytest.mark.parametrize("bad", [[0, 0, 0, 0], [1, 1, 1, 2], np.ones(4, dtype=bool)])
def test_check_update_rejects_values_other_than_plus_minus_one(five, bad):
    # [1, 1, 1, 2] would set a t_cq of 0.325, a message with a negative entry;
    # all True, every check violated to a 0/1 reader, would read as all +1
    state = qbp.init_messages(five, qbp.depolarizing_prior(5, 0.1))
    before = state.t_cq
    with pytest.raises(ValueError, match=r"\+1 .* or -1"):
        qbp.check_update(state, five, np.array(bad))
    assert state.t_cq is before


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
        labels = [letter for _, letter in tanner_rows(code)[0]]
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


def _decided(beliefs):
    """The decode loop's hard decision on (k, 4) beliefs, as a k-qubit operator."""
    return qbp.PauliOperator._from_positions(len(beliefs), bp._hard_positions(np.ascontiguousarray(beliefs.T)))


def test_hard_decision():
    for beliefs in (np.array([[0.9, 0.05, 0.03, 0.02], [0.4, 0.4, 0.1, 0.1]]), np.array([[0.1, 0.2, 0.3, 0.4]])):
        # ties go to the lower letter, as np.argmax gives them: II, then Z
        assert np.array_equal(_decided(beliefs).letters(), np.argmax(beliefs, axis=1))


def test_first_argmax_matches_numpy_argmax():
    rng = np.random.default_rng(8)
    rows = []
    for k in (2, 3, 4):
        for tied in itertools.combinations(range(4), k):
            row = rng.uniform(0.0, 0.1, size=4)
            row[list(tied)] = 0.5
            rows.append(row)
    # normalised rows floored at EPS_FLOOR, many with floored ties
    floored = bp._normalize_rows(rng.choice([1e-300, 1e-40, 0.25, 1.0], size=(256, 4)))
    assert (floored == bp.EPS_FLOOR).any()
    for block in (np.array(rows), floored):
        want = np.argmax(block, axis=1)
        assert np.array_equal(bp._first_argmax(np.ascontiguousarray(block.T)), want)
        assert np.array_equal(_decided(block).letters(), want)


def test_hard_positions_match_normalized_argmax_near_ties():
    # unnormalized columns with a maximum of exactly 1, as the decode loop
    # decides on them: a second letter at 1 - k * 2**-53 (k = 1..64), exact
    # ties, and entries at the clip and the floor
    low = [np.exp(bp._LOG_CLIP), bp.EPS_FLOOR, 1e-3, 0.5]

    def columns(values):
        cols = []
        for top, second in itertools.permutations(range(4), 2):
            for value in values:
                for fill in low:
                    col = np.full(4, fill)
                    col[top], col[second] = 1.0, value
                    cols.append(col)
        return np.ascontiguousarray(np.array(cols).T)

    def normalized_argmax(cols):
        return np.argmax(bp._normalize_rows(cols.T.copy()), axis=1)

    def positions(letters):
        # ascending (l - 1) * k + q over the non-identity letters
        qubits = np.flatnonzero(letters)
        return np.sort((letters[qubits] - 1) * len(letters) + qubits)

    cols = columns([1.0 - k * 2.0 ** -53 for k in range(1, 65)] + [1.0])
    cols = np.concatenate([cols, np.ones((4, 1))], axis=1)
    # normalizing does turn some near-ties into ties that the lower letter wins
    assert not np.array_equal(np.argmax(cols, axis=0), normalized_argmax(cols))
    assert np.array_equal(bp._hard_positions(cols), positions(normalized_argmax(cols)))
    # below 1 - 2**-48 no column is normalized first, and none needs to be
    clear = columns([1.0 - k * 2.0 ** -53 for k in range(33, 65)])
    assert np.count_nonzero(clear >= bp._NEAR_ONE) == clear.shape[1]
    assert np.array_equal(bp._hard_positions(clear), positions(normalized_argmax(clear)))
    # the letters rebuilt from the positions are the decision
    for block in (cols, clear):
        letters = qbp.PauliOperator._from_positions(block.shape[1], bp._hard_positions(block)).letters()
        assert np.array_equal(letters, normalized_argmax(block))


@pytest.mark.parametrize("eps", [0.02, 0.0, 0.75])
def test_first_iteration_tables_equal_the_kernel(small_bicycle, bicycle_800, eps):
    # every decode of a point opens with the same d_qc, so its first check
    # update is, edge by edge, the one on the all-(+1) or the all-(-1)
    # syndrome, and so is the kernel's log(a / b) of it; eps 0 gives
    # t = +-1/4 (the floored path) and eps 0.75 zero biases (t = +0.0 for
    # both signs, so the (-1) table is not a negation)
    for code in (small_bicycle, bicycle_800):
        prior = qbp.depolarizing_prior(code.n, eps)
        start = bp.point_start(code, prior)
        fresh = qbp.init_messages(code, prior)
        assert start.d_qc.tobytes() == fresh.d_qc.tobytes()
        assert start.log_prior.tobytes() == bp._log_working_prior(fresh).tobytes()
        for row, sign in enumerate((1, -1)):
            state = qbp.init_messages(code, prior)
            qbp.check_update(state, code, np.full(code.m, sign, dtype=np.int8))
            assert start.t_cq[row].tobytes() == state.t_cq.tobytes()
            assert start.log_ab[row].tobytes() == bp._log_ratio(state.t_cq).tobytes()
        rng = np.random.default_rng([23, code.n])
        for _ in range(4):
            syndrome = rng.choice(np.array([-1, 1], dtype=np.int8), size=code.m)
            state = qbp.init_messages(code, prior)
            qbp.check_update(state, code, syndrome)
            t_cq, log_ab = start.first_messages(code, syndrome)
            assert t_cq.tobytes() == state.t_cq.tobytes()
            assert log_ab.tobytes() == bp._log_ratio(state.t_cq).tobytes()


def test_decode_loop_call_counts(bicycle_800, monkeypatch):
    # from a point's start, a check update on every iteration but the first,
    # whose messages come from the start's tables; one belief pass over all
    # qubits per iteration; an outgoing pass only when another check update
    # follows, so never on the last iteration; after every intervention one
    # more belief pass, whose outgoing pass replaces the iteration's; a
    # halting test only on iterations whose hard decision changed
    prior = qbp.depolarizing_prior(bicycle_800.n, 0.04)
    start = bp.point_start(bicycle_800, prior)
    calls = {"check_update": 0, "beliefs": 0, "outgoing": 0, "halting": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("check_update", "check_update"), ("beliefs", "_beliefs"), ("outgoing", "_outgoing")):
        monkeypatch.setattr(bp, fn, counted(name, getattr(bp, fn)))
    monkeypatch.setattr(qbp.StabilizerCode, "syndrome_words",
                        counted("halting", qbp.StabilizerCode.syndrome_words))
    cfg = qbp.DecodeConfig(heuristic="collision_freeze")
    totals = dict.fromkeys(("unchanged", "interventions"), 0)
    for trial in range(3):
        rng = np.random.default_rng([15, trial])
        syndrome = bicycle_800.syndrome(qbp.sample_error(prior, rng))
        trace = []
        for key in calls:
            calls[key] = 0
        res, events = qbp.decode_with_heuristics(bicycle_800, prior, syndrome, cfg, rng=rng, trace=trace,
                                                 _start=start)
        letters = [np.argmax(beliefs, axis=1) for _, beliefs in trace]
        changed = 1 + sum(not np.array_equal(a, b) for a, b in zip(letters, letters[1:]))
        interventions = len(events.records)
        assert calls == {"check_update": res.iterations_used - 1,
                         "beliefs": res.iterations_used + interventions,
                         "outgoing": res.iterations_used - 1, "halting": changed}
        totals["unchanged"] += res.iterations_used - changed
        totals["interventions"] += interventions
    assert all(totals.values()), totals


def _reference_decode(code, prior, syndrome, config, rng):
    """The paper's flooding schedule on the public kernels, with no skipped work.

    Per iteration a check update, a qubit update, the argmax decision and
    the halting test by code.syndrome.  After t_pert unconverged iterations
    an intervention through the public heuristic steps, escalated as
    decode_with_heuristics escalates, then one more full qubit update.
    Returns (correction, converged, iterations, beliefs, records, sizes),
    sizes holding the number of qubits whose prior each intervention changed.
    """
    state = qbp.init_messages(code, prior)
    registry = heuristics.FreezeRegistry()
    collision = config.heuristic.startswith("collision")
    records, sizes = [], []
    since = 0
    for iteration in range(1, config.max_iterations + 1):
        qbp.check_update(state, code, syndrome)
        beliefs = qbp.qubit_update(state, code)
        correction = qbp.PauliOperator.from_letters(np.argmax(beliefs, axis=1))
        violated = code.syndrome(correction) != syndrome
        if not violated.any():
            return correction, True, iteration, beliefs, records, sizes
        if iteration == config.max_iterations:
            break
        since += 1
        if config.heuristic != "none" and since >= config.t_pert:
            frustrated = np.flatnonzero(violated).tolist()
            before = state.working_prior.copy()
            record = targets = trigger = None
            if config.heuristic.endswith("freeze"):
                record = heuristics.freeze_step(state, code, frustrated, rng, registry, iteration, collision)
            elif collision and (pair := heuristics.collision_targets(code, frustrated)) is not None:
                trigger, targets = ("collision", pair[0], pair[1]), pair[2]
            if record is None:
                record = heuristics.perturb_step(state, code, frustrated, rng, config.delta, iteration,
                                                 targets, trigger)
            records.append(record)
            sizes.append(int((state.working_prior != before).any(axis=1).sum()))
            qbp.qubit_update(state, code)
            since = 0
    return correction, False, iteration, beliefs, records, sizes


# The five-qubit code conjugated by S on qubit 0 (X -> Y there): its edges
# carry all three labels, where every other test code has only X and Z edges.
FIVE_Y_CHECKS = ["YZZXI", "IXZZX", "YIXZZ", "ZXIXZ"]


@pytest.fixture(scope="module")
def five_y():
    code = qbp.StabilizerCode(FIVE_Y_CHECKS)
    assert set((code.edges.slot // code.n + 1).tolist()) == {1, 2, 3}
    return code


@pytest.mark.parametrize("code_name, eps, trials, limits", [
    ("five", 0.15, 8, {"max_iterations": 30, "t_pert": 2}),
    ("small_bicycle", 0.05, 6, {"max_iterations": 40, "t_pert": 3}),
    ("bicycle_800", 0.03, 3, {}),
    ("five_y", 0.15, 8, {"max_iterations": 30, "t_pert": 2}),
])
def test_decode_loop_equals_reference_schedule(request, code_name, eps, trials, limits):
    # every skip rule of the decode loop leaves the decode of the plain
    # schedule: the same correction, convergence, iterations, final beliefs
    # (bytes), event log and generator state, under all five heuristics;
    # interventions change fewer than n / 3 qubits' priors and at least that
    code = request.getfixturevalue(code_name)
    prior = qbp.depolarizing_prior(code.n, eps)
    small = large = 0
    for heuristic in bp.HEURISTICS:
        config = qbp.DecodeConfig(heuristic=heuristic, **limits)
        for trial in range(trials):
            syndrome = code.syndrome(qbp.sample_error(prior, np.random.default_rng([41, trial])))
            rng, ref_rng = np.random.default_rng([42, trial]), np.random.default_rng([42, trial])
            res, events = qbp.decode_with_heuristics(code, prior, syndrome, config, rng=rng)
            correction, converged, iterations, beliefs, records, sizes = _reference_decode(
                code, prior, syndrome, config, ref_rng)
            case = (heuristic, trial)
            assert (res.correction, res.converged, res.iterations_used) == (correction, converged, iterations), case
            assert res.final_beliefs.tobytes() == beliefs.tobytes(), case
            assert events == heuristics.EventLog(code, records), case
            assert rng.bit_generator.state == ref_rng.bit_generator.state, case
            small += sum(3 * k < code.n for k in sizes)
            large += sum(3 * k >= code.n for k in sizes)
    assert small and large, (small, large)


def test_decode_result_final_beliefs_contract(five_y, small_bicycle, monkeypatch):
    # built by hand, the result keeps today's keywords and returns the array given
    beliefs = qbp.depolarizing_prior(3, 0.1)
    made = qbp.DecodeResult(correction=qbp.PauliOperator.identity(3), converged=True, iterations_used=1,
                            final_beliefs=beliefs)
    assert made.final_beliefs is beliefs and made.converged and made.iterations_used == 1
    # a decode's final beliefs are its last unnormalized beliefs, normalized:
    # the same bytes on every read and after a pickle round trip
    last = []

    def recorded(*args):
        cols = beliefs_of(*args)
        last.append(cols.copy())
        return cols

    beliefs_of = bp._beliefs
    monkeypatch.setattr(bp, "_beliefs", recorded)
    converged = set()
    for code, eps in ((five_y, 0.15), (small_bicycle, 0.08)):
        prior = qbp.depolarizing_prior(code.n, eps)
        for heuristic in ("none", "collision_perturb"):
            config = qbp.DecodeConfig(heuristic=heuristic, max_iterations=12, t_pert=3, seed=5)
            for trial in range(6):
                syndrome = code.syndrome(qbp.sample_error(prior, np.random.default_rng([44, trial])))
                last.clear()
                res, _ = qbp.decode_with_heuristics(code, prior, syndrome, config)
                unread = pickle.loads(pickle.dumps(res))
                want = bp._normalize_rows(last[-1].T).tobytes()
                first = res.final_beliefs
                assert first.shape == (code.n, 4) and first.tobytes() == want
                assert res.final_beliefs.tobytes() == want
                assert unread.final_beliefs.tobytes() == want
                assert pickle.loads(pickle.dumps(res)).final_beliefs.tobytes() == want
                converged.add(res.converged)
    assert converged == {True, False}


def test_decode_trivial_syndrome(five):
    res = qbp.decode(five, qbp.depolarizing_prior(5, 0.1), np.ones(4, dtype=np.int8))
    assert res.converged and res.iterations_used == 1 and res.correction.is_identity


@pytest.mark.parametrize("bad", [[0, 0, 0, 0], [1, 1, 1, 2], [1, 0, -1, 1], [1.0, 1.0, -1.0, 0.5],
                                 np.ones(4, dtype=bool), np.array([1, -1, 1, 1], dtype=complex)])
def test_decode_rejects_syndrome_values_other_than_plus_minus_one(five, bad):
    # a 0/1 syndrome read as signs would decode as trivial and converge on the identity
    prior = qbp.depolarizing_prior(5, 0.1)
    with pytest.raises(ValueError, match=r"\+1 .* or -1"):
        qbp.decode(five, prior, np.array(bad))
    for heuristic in ("none", "collision_freeze"):
        with pytest.raises(ValueError, match=r"\+1 .* or -1"):
            qbp.decode_with_heuristics(five, prior, np.array(bad), qbp.DecodeConfig(heuristic=heuristic, seed=1))
    # the same values as signs are accepted in any numeric dtype
    assert qbp.decode(five, prior, np.array([1.0, -1.0, 1.0, 1.0])).iterations_used >= 1


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
        assert np.array_equal(res.correction.letters(), np.argmax(exact, axis=1))


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
    for delta in (float("nan"), float("inf"), -float("inf"), 10 ** 400, "0.1", None, True, np.True_):
        with pytest.raises(ValueError, match="delta"):
            qbp.DecodeConfig(delta=delta)
    for name in ("max_iterations", "t_pert"):
        for bad in (10.5, 2.5, 3.0, True, np.True_, "3", None):
            with pytest.raises(ValueError, match=name):
                qbp.DecodeConfig(**{name: bad})
    config = qbp.DecodeConfig(max_iterations=np.int64(10), t_pert=np.int32(2), delta=np.float32(0.5))
    assert (config.max_iterations, config.t_pert, config.delta) == (10, 2, 0.5)
    assert type(config.max_iterations) is type(config.t_pert) is int and type(config.delta) is float
    for seed in (-1, 1.5, "3", [1, 2], True, False, np.True_):
        with pytest.raises(ValueError, match="seed"):
            qbp.DecodeConfig(seed=seed)
    assert qbp.DecodeConfig(seed=None).seed is None
    assert type(qbp.DecodeConfig(seed=np.int64(0)).seed) is int
    with pytest.raises(ValueError):
        qbp.DecodeConfig(heuristic="annealing")


def test_edge_state_is_one_scalar_per_edge(small_bicycle):
    ea = small_bicycle.edges
    labels = np.array([letter for adj in tanner_rows(small_bicycle) for _, letter in adj])
    assert np.array_equal(ea.slot, (labels - 1) * small_bicycle.n + ea.qubit)
    assert ea.slot.flags.c_contiguous
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
# of code.edges: the log-domain kernel must match it within the tolerance
# net's bounds below.
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


# The check update as it gathered per-check values by a per-edge check index,
# verbatim but for reading that index from _reference_check_edges(code): the
# kernel must match it bit for bit, up to the sign of a zero.
def _reference_check_edges(code):
    ea = code.edges
    check = np.repeat(np.arange(code.m), np.diff(ea.check_start))
    return SimpleNamespace(check=check, check_start=ea.check_start)


def _reference_check_update(state, code, syndrome):
    ea = _reference_check_edges(code)
    s_edge = syndrome.astype(np.float64)[ea.check]
    d = state.d_qc
    zero = d == 0.0
    if zero.any():
        d1 = np.where(zero, 1.0, d)
        total = np.multiply.reduceat(d1, ea.check_start[:-1])
        nzero = np.add.reduceat(zero.astype(np.int64), ea.check_start[:-1])
        tot_e = total[ea.check]
        nz_e = nzero[ea.check]
        prod_excl = np.where(nz_e == 0, tot_e / d1, np.where((nz_e == 1) & zero, tot_e, 0.0))
    else:
        total = np.multiply.reduceat(d, ea.check_start[:-1])
        prod_excl = total[ea.check] / d
    t = s_edge * prod_excl
    t *= 0.25
    state.t_cq = t


@pytest.mark.parametrize("zeros", [False, True])
def test_check_update_matches_reference_bitwise(toy, five, small_bicycle, bicycle_800, zeros):
    # random biases and +-1 syndromes; with zeros, checks hold 0, 1 or 2 exact
    # zero biases (as many as their degree allows)
    rng = np.random.default_rng([36, int(zeros)])
    codes = dict(_equivalence_codes(toy, five, small_bicycle), bicycle_800=bicycle_800)
    for name, code in codes.items():
        ea = code.edges
        state = qbp.init_messages(code, qbp.depolarizing_prior(code.n, 0.1))
        for _ in range(4):
            state.d_qc = rng.uniform(-1.0, 1.0, size=len(ea.qubit))
            if zeros:
                for c in range(code.m):
                    lo, hi = ea.check_start[c], ea.check_start[c + 1]
                    k = min(int(rng.integers(0, 3)), hi - lo)
                    state.d_qc[lo + rng.choice(hi - lo, size=k, replace=False)] = 0.0
            syndrome = rng.choice([-1, 1], size=code.m).astype(np.int8)
            ref = MessageState(state.working_prior, state.d_qc.copy(), state.t_cq.copy())
            qbp.check_update(state, code, syndrome)
            _reference_check_update(ref, code, syndrome)
            assert np.array_equal(state.t_cq, ref.t_cq), name
    # a check whose product underflows to 0 with no zero bias
    ea = bicycle_800.edges
    state = qbp.init_messages(bicycle_800, qbp.depolarizing_prior(bicycle_800.n, 0.1))
    state.d_qc = rng.uniform(-1.0, 1.0, size=len(ea.qubit))
    lo, hi = ea.check_start[0], ea.check_start[1]
    state.d_qc[lo:hi] = 1e-12
    assert np.multiply.reduce(state.d_qc[lo:hi]) == 0.0 and (state.d_qc[lo:hi] != 0.0).all()
    syndrome = rng.choice([-1, 1], size=bicycle_800.m).astype(np.int8)
    ref = MessageState(state.working_prior, state.d_qc.copy(), state.t_cq.copy())
    qbp.check_update(state, bicycle_800, syndrome)
    _reference_check_update(ref, bicycle_800, syndrome)
    assert np.array_equal(state.t_cq, ref.t_cq)


def _equivalence_codes(toy, five, small_bicycle):
    with pytest.warns(UserWarning):
        tail = qbp.StabilizerCode(["XXI"])
    with pytest.warns(UserWarning):
        middle = qbp.StabilizerCode(["ZIZZ", "XIXI"])
    return {"toy": toy, "five": five, "five_y": qbp.StabilizerCode(FIVE_Y_CHECKS), "small_bicycle": small_bicycle,
            "isolated_tail": tail, "isolated_middle": middle}


def _log_space_qubit_update(state, code):
    """The (E, 4) qubit update evaluated in the log domain, where no product
    underflows; returns (d_qc, beliefs)."""
    ea = _reference_edges(code)
    log_w = np.log(np.maximum(state.t_cq.take(ea.qubit_order)[:, None] * ea.sign + 0.25, bp.EPS_FLOOR))
    logs = np.log(state.working_prior)
    np.add.at(logs, ea.qubit_of_sorted, log_w)
    out = logs[ea.qubit_of_sorted] - log_w
    out = np.exp(out - out.max(axis=1, keepdims=True))
    out /= out.sum(axis=1, keepdims=True)
    d_qc = np.empty(len(out))
    d_qc[ea.qubit_order] = np.einsum("ij,ij->i", out, ea.sign)
    beliefs = np.exp(logs - logs.max(axis=1, keepdims=True))
    return d_qc, beliefs / beliefs.sum(axis=1, keepdims=True)


def test_qubit_update_matches_log_space_on_dead_rows(toy, five, small_bicycle):
    # tiny priors and t = +-1/4: the (E, 4) kernel's products underflow to
    # zero and take its dead-row reset; the log-domain kernel has no such rows
    rng = np.random.default_rng([31, 2])
    dead_rows = 0
    for name, code in _equivalence_codes(toy, five, small_bicycle).items():
        state = qbp.init_messages(code, rng.dirichlet(np.ones(4), size=code.n))
        state.working_prior[:] = 1e-300
        state.t_cq = np.where(rng.random(len(code.edges.qubit)) < 0.5, 0.25, -0.25)
        ref = MessageState(state.working_prior.copy(), state.d_qc.copy(), state.t_cq.copy())
        dead_rows += int((_reference_qubit_products(ref, code)[0].sum(axis=1) == 0.0).sum())
        beliefs = qbp.qubit_update(state, code)
        d_qc, want = _log_space_qubit_update(ref, code)
        assert np.abs(state.d_qc - d_qc).max() <= 1e-12, name
        assert np.abs(beliefs - want).max() <= 1e-12, name
    assert dead_rows > 0


# The tolerance net: the kernel may reorder float operations, but every
# update must stay within these absolute bounds of the reference kernel.
REFERENCE_CASES = ("random", "zero_bias", "saturated")


@pytest.mark.parametrize("kind", REFERENCE_CASES)
def test_qubit_update_matches_reference(toy, five, small_bicycle, kind):
    rng = np.random.default_rng([33, REFERENCE_CASES.index(kind)])
    for name, code in _equivalence_codes(toy, five, small_bicycle).items():
        edges = len(code.edges.qubit)
        prior = rng.dirichlet(np.ones(4), size=code.n)
        if kind == "zero_bias":
            # zero prior entries, and uniform rows whose bias d is exactly 0
            prior[::2] = [1.0, 0.0, 0.0, 0.0]
            prior[1::2] = 0.25
        state = qbp.init_messages(code, prior)
        assert np.abs(state.d_qc - _reference_init_d(code, prior)).max() <= 1e-12, name
        if kind == "random":
            state.t_cq = rng.uniform(-0.25, 0.25, size=edges)
        elif kind == "zero_bias":
            # uniform check messages, and the extreme t = +-1/4 whose factors hit the floor
            state.t_cq = rng.choice([0.0, -0.0, 0.25, -0.25], size=edges)
        else:
            # every check message at the extreme t = +-1/4, whose b factors hit the floor
            state.t_cq = np.where(rng.random(edges) < 0.5, 0.25, -0.25)
        ref = MessageState(state.working_prior.copy(), state.d_qc.copy(), state.t_cq.copy())
        beliefs = qbp.qubit_update(state, code)
        want = _reference_qubit_update(ref, code)
        assert np.abs(state.d_qc - ref.d_qc).max() <= 1e-12, name
        assert np.abs(beliefs - want).max() <= 1e-12, name


@pytest.mark.parametrize("code_name, eps", [("five", 0.1), ("small_bicycle", 0.1), ("bicycle_800", 0.04)])
def test_decode_iterations_match_reference(request, code_name, eps):
    # alternate check and qubit updates from real syndromes; the two runs
    # evolve apart, so differences may compound over the 20 iterations
    code = request.getfixturevalue(code_name)
    rng = np.random.default_rng(34)
    prior = qbp.depolarizing_prior(code.n, eps)
    for _ in range(3):
        syndrome = code.syndrome(qbp.sample_error(prior, rng))
        state = qbp.init_messages(code, prior)
        ref = qbp.init_messages(code, prior)
        for _ in range(20):
            qbp.check_update(state, code, syndrome)
            qbp.check_update(ref, code, syndrome)
            beliefs = qbp.qubit_update(state, code)
            assert np.abs(beliefs - _reference_qubit_update(ref, code)).max() <= 1e-10
            assert np.abs(state.d_qc - ref.d_qc).max() <= 1e-10
            assert np.abs(state.t_cq - ref.t_cq).max() <= 1e-10


def random_tree_code(rng, max_checks=4, max_private=2):
    """A random code with several checks whose Tanner graph is a tree.

    Each check after the first shares exactly one qubit with the earlier
    ones, with that qubit's letter, so all checks commute and no cycle
    closes; each has private qubits, so the checks are independent.
    """
    qubit_letter = []
    rows = []
    for c in range(int(rng.integers(2, max_checks + 1))):
        support = {}
        if c:
            q = int(rng.integers(len(qubit_letter)))
            support[q] = qubit_letter[q]
        for _ in range(int(rng.integers(1, max_private + 1))):
            qubit_letter.append(int(rng.integers(1, 4)))
            support[len(qubit_letter) - 1] = qubit_letter[-1]
        rows.append(support)
    letters = np.zeros((len(rows), len(qubit_letter)), dtype=np.int8)
    for c, support in enumerate(rows):
        letters[c, list(support)] = list(support.values())
    return qbp.StabilizerCode([qbp.PauliOperator.from_letters(row) for row in letters])


def test_beliefs_match_exact_marginals_on_multi_check_trees():
    rng = np.random.default_rng(35)
    worst = 0.0
    sizes = set()
    for _ in range(60):
        code = random_tree_code(rng)
        assert code.n <= 12
        sizes.add(code.m)
        prior = rng.dirichlet(np.full(4, 0.5), size=code.n)
        prior = 0.5 * prior + 0.5 * qbp.depolarizing_prior(code.n, float(rng.uniform(1e-3, 0.5)))
        s = rng.choice([-1, 1], size=code.m).astype(np.int8)
        state = qbp.init_messages(code, prior)
        # messages are exact once they have crossed the tree, within n + m sweeps
        for _ in range(code.n + code.m):
            qbp.check_update(state, code, s)
            beliefs = qbp.qubit_update(state, code)
        worst = max(worst, float(np.abs(beliefs - qbp.exact_marginals(code, prior, s)).max()))
    assert sizes == {2, 3, 4}
    assert worst <= 1e-10


# sha256 over (final beliefs bytes, correction, iterations) of 12 seeded
# decodes per heuristic; re-recorded when the qubit update took one log of
# a / b per edge, with the same corrections and iteration counts as before
GOLDEN_BELIEF_DIGESTS = {
    "none": "6091f0c75a80eb212c493bc326f974060baca6efa4c6b34df9fe947898244679",
    "perturb": "c5f4864db069dec6801e331a7c7a325ae71b175f90ff2878c21120d2eef74cb7",
    "collision_freeze": "ea37474d048804dae55661a78958ecae122150a057d6626b66c2038a8e1ccb1d",
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
# small_bicycle digests never reach; re-recorded when the qubit update took
# one log of a / b per edge, with the same corrections and iteration counts
GOLDEN_BICYCLE_800_DIGESTS = {
    "none": "59e676d25a9de6f8c09e270fc2a1aa20a1e216534b44ad344dd88bc3fa32b0bb",
    "collision_freeze": "a61d998dd47871b2aa25ca78d1c50ab65ad1322f22af84e80610309811e27023",
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


# sha256 over every traced (iteration, beliefs bytes) of 3 seeded decodes per
# heuristic on the headline code, each running 50-90 iterations: the trace
# holds normalized beliefs of every iteration, not only the last
GOLDEN_TRACE_DIGESTS = {
    "none": "ecc823aa35cc1eb8d22aec166912f2337d732815f445de70753e3224086ea3ee",
    "collision_freeze": "61fb00707a6a3b8994a227580e626b060eb07325635e5ff49a1792d7a9eae58c",
}


@pytest.mark.parametrize("heuristic", sorted(GOLDEN_TRACE_DIGESTS))
def test_trace_golden_digest_bicycle_800(bicycle_800, heuristic):
    prior = qbp.depolarizing_prior(bicycle_800.n, 0.04)
    cfg = qbp.DecodeConfig(heuristic=heuristic)
    digest = hashlib.sha256()
    for trial in range(3):
        rng = np.random.default_rng([15, trial])
        error = qbp.sample_error(prior, rng)
        trace = []
        res, _ = qbp.decode_with_heuristics(bicycle_800, prior, bicycle_800.syndrome(error), cfg, rng=rng,
                                            trace=trace)
        assert [it for it, _ in trace] == list(range(1, res.iterations_used + 1))
        assert trace[-1][1].tobytes() == res.final_beliefs.tobytes()
        for iteration, beliefs in trace:
            digest.update(repr(iteration).encode())
            digest.update(beliefs.tobytes())
    assert digest.hexdigest() == GOLDEN_TRACE_DIGESTS[heuristic]


def _weight_errors(n, weight, rng):
    letters = np.zeros(n, dtype=np.int8)
    letters[rng.choice(n, size=weight, replace=False)] = rng.integers(1, 4, size=weight)
    return qbp.PauliOperator.from_letters(letters)


@pytest.mark.parametrize("heuristic", ["none", "collision_freeze"])
def test_decode_raises_no_fp_exception(small_bicycle, bicycle_800, heuristic):
    # Errors of weight 1..6 at every eps, so that near-deterministic priors
    # meet nontrivial syndromes; on the headline code, whose qubits have
    # degree 10-20, sampled errors at eps 0.02 and weight-2 errors at tiny
    # eps.  Every FP exception is raised, underflow included.
    n = small_bicycle.n
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    with np.errstate(all="raise"):
        for eps in (1e-12, 1e-6, 1e-3, 0.02, 0.04, 0.1, 0.2):
            prior = qbp.depolarizing_prior(n, eps)
            for weight in range(1, 7):
                rng = np.random.default_rng([13, weight])
                error = _weight_errors(n, weight, rng)
                res, _ = qbp.decode_with_heuristics(small_bicycle, prior, small_bicycle.syndrome(error), cfg, rng=rng)
                assert np.isfinite(res.final_beliefs).all()
        cfg = qbp.DecodeConfig(heuristic=heuristic)
        for eps in (0.02, 1e-4, 1e-8):
            prior = qbp.depolarizing_prior(bicycle_800.n, eps)
            for trial in range(30):
                rng = np.random.default_rng([14, trial])
                if eps == 0.02:
                    error = qbp.sample_error(prior, rng)
                else:
                    error = _weight_errors(bicycle_800.n, 2, rng)
                res, _ = qbp.decode_with_heuristics(bicycle_800, prior, bicycle_800.syndrome(error), cfg, rng=rng)
                assert np.isfinite(res.final_beliefs).all()
