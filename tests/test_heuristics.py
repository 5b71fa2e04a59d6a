import dataclasses
import hashlib

import numpy as np
import pytest

import qbp
from qbp import bp
from qbp.heuristics import _FROZEN_PRIOR, EventLog, FreezeRegistry, freeze_step

from conftest import tanner_rows

VALID_TOY_RECOVERIES = {"XI", "IX", "YZ", "ZY"}


def toy_setup(toy, eps=0.1):
    prior = qbp.depolarizing_prior(2, eps)
    syndrome = np.array([1, -1], dtype=np.int8)
    return prior, syndrome


def events_of(code, *records):
    """The steps' events, read through the event log a decode returns."""
    return list(EventLog(code, list(records)))


def frustrated_checks(code, correction, syndrome):
    """Checks whose syndrome bit disagrees with the proposed correction, ascending."""
    return np.flatnonzero(code.syndrome(correction) != syndrome).tolist()


def test_find_frustrated(toy):
    prior, s = toy_setup(toy)
    ii, xi = qbp.PauliOperator.from_string("II"), qbp.PauliOperator.from_string("XI")
    assert frustrated_checks(toy, ii, s) == [1]
    assert frustrated_checks(toy, xi, s) == []
    assert frustrated_checks(toy, ii, np.array([-1, -1], dtype=np.int8)) == [0, 1]


def test_frustrated_empty_iff_halting(toy, five):
    rng = np.random.default_rng(0)
    prior = qbp.depolarizing_prior(5, 0.1)
    for _ in range(50):
        s = rng.choice([-1, 1], size=4).astype(np.int8)
        res = qbp.decode(five, prior, s, qbp.DecodeConfig(max_iterations=20))
        frustrated = frustrated_checks(five, res.correction, s)
        assert res.converged == (not frustrated)


def test_collision_targets(toy):
    assert qbp.collision_targets(toy, [0, 1]) == (0, 1, (0, 1))
    assert qbp.collision_targets(toy, [1]) is None
    disjoint = qbp.StabilizerCode(["XXII", "IIZZ"])
    assert qbp.collision_targets(disjoint, [0, 1]) is None


def test_freeze_single_iteration_resolution(toy):
    # freezing one qubit makes the other qubit's belief a point mass after a
    # single further iteration
    prior, s = toy_setup(toy)
    state = qbp.init_messages(toy, prior)
    qbp.check_update(state, toy, s)
    qbp.qubit_update(state, toy)
    state.working_prior[1] = np.maximum([1.0, 0, 0, 0], bp.EPS_FLOOR)
    qbp.qubit_update(state, toy)  # outgoing messages pick up the frozen prior
    qbp.check_update(state, toy, s)
    beliefs = qbp.qubit_update(state, toy)
    assert beliefs[0, 1] >= 1 - 1e-9   # X dominant on qubit 0
    assert beliefs[1, 0] >= 1 - 1e-9   # I dominant on frozen qubit
    assert np.argmax(beliefs, axis=1).tolist() == [1, 0]  # XI


def test_frozen_qubit_outgoing_messages(toy):
    prior, s = toy_setup(toy)
    state = qbp.init_messages(toy, prior)
    qbp.check_update(state, toy, s)
    state.working_prior[1] = np.maximum([1.0, 0, 0, 0], bp.EPS_FLOOR)
    qbp.qubit_update(state, toy)
    for edge in (1, 3):  # edges of qubit 1: almost all mass on I, which commutes
        assert state.d_qc[edge] >= 1 - 1e-9


def test_freeze_step_restore_and_retry(toy):
    prior, s = toy_setup(toy)
    state = qbp.init_messages(toy, prior)
    before = state.working_prior.copy()
    rng = np.random.default_rng(0)
    registry = FreezeRegistry()
    (event,) = events_of(toy, freeze_step(state, toy, [1], rng, registry=registry))
    assert event.kind == "freeze" and event.trigger == ("check", 1)
    (q0,) = event.qubits
    assert registry.active[2] == q0
    # still frustrated: restore and freeze the other qubit
    (event,) = events_of(toy, freeze_step(state, toy, [1], rng, registry=registry))
    assert event is not None and event.qubits != (q0,)
    assert np.array_equal(state.working_prior[q0], before[q0])
    # both candidates tried: escalate
    assert freeze_step(state, toy, [1], rng, registry=registry) is None
    assert registry.active is None


def test_freeze_step_satisfied_trigger_stays_frozen(five):
    state = qbp.init_messages(five, qbp.depolarizing_prior(5, 0.1))
    rng = np.random.default_rng(0)
    registry = FreezeRegistry()
    (first,) = events_of(five, freeze_step(state, five, [0], rng, registry=registry))
    (q0,) = first.qubits
    # check 0 is satisfied now: its qubit stays pinned and check 1 triggers
    (second,) = events_of(five, freeze_step(state, five, [1], rng, registry=registry))
    assert second.trigger == ("check", 1) != first.trigger
    assert np.array_equal(state.working_prior[q0], _FROZEN_PRIOR)
    assert q0 in registry.frozen and q0 not in second.qubits
    assert registry.active[0] == ("check", 1)


def test_perturb_zero_delta_is_noop(toy):
    prior, s = toy_setup(toy)
    state = qbp.init_messages(toy, prior)
    before = state.working_prior.copy()
    events = events_of(toy, qbp.perturb_step(state, toy, [1], np.random.default_rng(0), 0.0))
    assert np.array_equal(state.working_prior, before)
    assert events[0].deltas == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("delta", [float("nan"), -0.5, float("inf")])
def test_perturb_rejects_bad_delta(toy, delta):
    # nan and -0.5 drew all-zero factors and perturbed nothing; inf overflowed in numpy
    state = qbp.init_messages(toy, qbp.depolarizing_prior(2, 0.1))
    before = state.working_prior.copy()
    with pytest.raises(ValueError, match="delta"):
        qbp.perturb_step(state, toy, [1], np.random.default_rng(0), delta)
    assert np.array_equal(state.working_prior, before)


def test_perturb_reduces_identity_mass(toy):
    prior, s = toy_setup(toy)
    state = qbp.init_messages(toy, prior)
    before = state.working_prior.copy()
    qbp.perturb_step(state, toy, [1], np.random.default_rng(1), 0.5)
    for q in (0, 1):
        assert state.working_prior[q, 0] < before[q, 0]
        assert abs(state.working_prior[q].sum() - 1) <= 1e-9


def test_perturb_event_fields(toy):
    state = qbp.init_messages(toy, qbp.depolarizing_prior(2, 0.1))
    events = events_of(toy, qbp.perturb_step(state, toy, [0, 1], np.random.default_rng(2), 0.3, iteration=6))
    assert [e.trigger for e in events] == [("check", 0), ("check", 1)]
    for e in events:
        assert e.kind == "perturb" and e.iteration == 6
        assert e.qubits == (0, 1)
        for d3 in e.deltas:
            assert all(0 <= d <= 0.3 for d in d3)


def _reference_perturb_step(state, code, frustrated, rng, delta, iteration=0, targets=None, trigger=None):
    """perturb_step as it gathered incidences by per-check slices and took
    per-qubit factors by np.unique and np.multiply.at; returns its events."""
    ea = code.edges
    if targets is not None:
        touched = np.asarray(targets, dtype=ea.qubit.dtype)
    else:
        bounds = ea.check_start
        touched = np.concatenate([ea.qubit[:0], *(ea.qubit[bounds[c]:bounds[c + 1]] for c in frustrated)])
    shape = (len(touched), 3)
    draws = rng.uniform(0.0, delta, size=shape) if delta > 0 else np.zeros(shape)
    if delta > 0 and len(touched):
        idx, where = np.unique(touched, return_inverse=True)
        factors = np.ones((len(idx), 3))
        np.multiply.at(factors, where, 1.0 + draws)
        wp = state.working_prior
        rows = wp[idx]
        rows[:, 1:] *= factors
        wp[idx] = bp._normalize_rows(rows)
    groups = [(trigger, tuple(targets))] if targets is not None else [
        (("check", c), code.check_qubits[c]) for c in frustrated
    ]
    deltas = iter(map(tuple, draws.tolist()))
    return [qbp.PerturbationEvent("perturb", iteration, trig, qubits,
                                  tuple(next(deltas) for _ in qubits)) for trig, qubits in groups]


def test_perturb_step_matches_reference(small_bicycle, bicycle_800):
    # random frustrated lists (unsorted, repeated checks, empty), delta = 0
    # and explicit targets; working prior bytes, expanded events, their
    # count without expanding, and draws
    rng = np.random.default_rng(41)
    cases = 0
    for code in (small_bicycle, bicycle_800):
        state = qbp.init_messages(code, rng.dirichlet(np.ones(4), size=code.n))
        for delta in (0.1, 0.0, 0.7):
            for size in (0, 1, 3, code.m // 3):
                frustrated = rng.integers(0, code.m, size=size).tolist()
                if size > 1:
                    frustrated[1] = frustrated[0]  # a repeated check
                targets = None
                if size == 3:
                    targets = rng.choice(code.n, size=5).tolist()
                for expand in (True, False):
                    seed = int(rng.integers(1 << 30))
                    ref_prior = state.working_prior.copy()
                    ref_rng = np.random.default_rng(seed)
                    ref = bp.MessageState(ref_prior, state.d_qc, state.t_cq)
                    want = _reference_perturb_step(ref, code, frustrated, ref_rng, delta, iteration=9,
                                                   targets=targets, trigger=("collision", 0, 1))
                    got_rng = np.random.default_rng(seed)
                    got = EventLog(code, [qbp.perturb_step(state, code, frustrated, got_rng, delta, iteration=9,
                                                           targets=targets, trigger=("collision", 0, 1))])
                    assert (got if expand else len(got)) == (want if expand else len(want))
                    assert state.working_prior.tobytes() == ref_prior.tobytes()
                    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
                    cases += 1
    assert cases == 2 * 3 * 4 * 2


def test_decode_none_matches_plain_bitexact(five):
    rng = np.random.default_rng(3)
    prior = qbp.depolarizing_prior(5, 0.15)
    for _ in range(1000):
        s = rng.choice([-1, 1], size=4).astype(np.int8)
        plain = qbp.decode(five, prior, s)
        heur, events = qbp.decode_with_heuristics(five, prior, s, qbp.DecodeConfig(heuristic="none"))
        assert events == []
        assert heur.correction == plain.correction
        assert heur.converged == plain.converged
        assert heur.iterations_used == plain.iterations_used
        assert (heur.final_beliefs == plain.final_beliefs).all()


def test_toy_freeze_converges_fast(toy):
    prior, s = toy_setup(toy)
    for seed in range(100):
        cfg = qbp.DecodeConfig(heuristic="freeze", seed=seed)
        res, events = qbp.decode_with_heuristics(toy, prior, s, cfg)
        assert res.converged
        assert res.iterations_used <= cfg.t_pert + 1
        assert str(res.correction) in VALID_TOY_RECOVERIES
        assert all(e.kind == "freeze" for e in events)


def test_toy_heuristics_success_rate(toy):
    prior, s = toy_setup(toy)
    for heuristic, delta in (("freeze", 0.1), ("perturb", 1.0)):
        wins = 0
        for seed in range(1000):
            cfg = qbp.DecodeConfig(heuristic=heuristic, delta=delta, seed=seed)
            res, _ = qbp.decode_with_heuristics(toy, prior, s, cfg)
            wins += res.converged and str(res.correction) in VALID_TOY_RECOVERIES
        assert wins / 1000 >= 0.99


def test_collision_modes_on_toy(toy):
    prior, s = toy_setup(toy)
    for heuristic in ("collision_freeze", "collision_perturb"):
        cfg = qbp.DecodeConfig(heuristic=heuristic, delta=1.0, seed=5)
        res, events = qbp.decode_with_heuristics(toy, prior, s, cfg)
        assert res.converged and str(res.correction) in VALID_TOY_RECOVERIES
        assert events


def test_collision_trigger_recorded():
    # both checks of this code share both qubits, and a both-frustrated
    # syndrome produces a collision trigger
    code = qbp.StabilizerCode(["XX", "YY"])
    prior = qbp.depolarizing_prior(2, 0.1)
    s = np.array([-1, -1], dtype=np.int8)
    cfg = qbp.DecodeConfig(heuristic="collision_freeze", seed=0)
    res, events = qbp.decode_with_heuristics(code, prior, s, cfg)
    assert any(e.trigger[0] == "collision" for e in events)


def test_locality_of_interventions(five):
    rng = np.random.default_rng(7)
    prior = qbp.depolarizing_prior(5, 0.12)
    for seed in range(40):
        s = rng.choice([-1, 1], size=4).astype(np.int8)
        for heuristic in ("freeze", "perturb", "collision_freeze", "collision_perturb"):
            cfg = qbp.DecodeConfig(heuristic=heuristic, seed=seed)
            res, events = qbp.decode_with_heuristics(five, prior, s, cfg)
            assert res.iterations_used <= cfg.max_iterations
            if res.converged:
                assert list(five.syndrome(res.correction)) == list(s)
            for e in events:
                checks = e.trigger[1:]
                allowed = set()
                for c in checks:
                    allowed |= {q for q, _ in tanner_rows(five)[c]}
                assert set(e.qubits) <= allowed


def test_deterministic_replay(five):
    prior = qbp.depolarizing_prior(5, 0.15)
    s = np.array([1, -1, -1, 1], dtype=np.int8)
    cfg = qbp.DecodeConfig(heuristic="collision_perturb", seed=99)
    res1, ev1 = qbp.decode_with_heuristics(five, prior, s, cfg)
    res2, ev2 = qbp.decode_with_heuristics(five, prior, s, cfg)
    assert ev1 == ev2
    assert res1.correction == res2.correction
    assert res1.iterations_used == res2.iterations_used


def test_converged_implies_syndrome_match(small_bicycle):
    rng = np.random.default_rng(8)
    prior = qbp.depolarizing_prior(small_bicycle.n, 0.08)
    for seed in range(30):
        e = qbp.sample_error(prior, rng)
        s = small_bicycle.syndrome(e)
        cfg = qbp.DecodeConfig(heuristic="collision_freeze", seed=seed)
        res, _ = qbp.decode_with_heuristics(small_bicycle, prior, s, cfg)
        if res.converged:
            assert list(small_bicycle.syndrome(res.correction)) == list(s)


# sha256 over (correction, converged, iterations, event log) of 12 seeded
# decodes per heuristic; recorded before perturb_step drew all incidences at
# once and before the collision search used StabilizerCode.shared_qubits
# (freeze: before the freeze schedule's state moved into FreezeRegistry)
GOLDEN_EVENT_DIGESTS = {
    "freeze": "98d9851c2eb0870f93bb049b06769845c36552f4f25ea2ee57b84e6b944c99cb",
    "perturb": "c48ba219d8e652b21e0f8af2711db459cd2199ece1f7716a888a8f287a6905ed",
    "collision_perturb": "9e129faf3ee9c543871281dbd05428079125441233debe38a1e3f76ac8554cc7",
    "collision_freeze": "17271b7acb15a73128b20866f3e53808529aa5e97f0fa5e3101f5301fc365675",
}


@pytest.mark.parametrize("heuristic", sorted(GOLDEN_EVENT_DIGESTS))
def test_event_log_golden_digest(small_bicycle, heuristic):
    prior = qbp.depolarizing_prior(small_bicycle.n, 0.05)
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    digest = hashlib.sha256()
    for trial in range(12):
        rng = np.random.default_rng([5, trial])
        error = qbp.sample_error(prior, rng)
        res, events = qbp.decode_with_heuristics(small_bicycle, prior, small_bicycle.syndrome(error), cfg, rng=rng)
        digest.update(repr((str(res.correction), res.converged, res.iterations_used,
                            [dataclasses.astuple(e) for e in events])).encode())
    assert digest.hexdigest() == GOLDEN_EVENT_DIGESTS[heuristic]


def _trial_path_cases():
    for heuristic in bp.HEURISTICS:
        for eps in (0.05, 0.12):
            yield pytest.param("small_bicycle", heuristic, eps, {"max_iterations": 40, "t_pert": 3},
                               [[9, trial] for trial in range(10)], id=f"small_bicycle-{eps}-{heuristic}")
    for heuristic, seed in (("collision_freeze", 0), ("collision_freeze", 1), ("perturb", 2),
                            ("collision_perturb", 3)):
        yield pytest.param("bicycle_800", heuristic, 0.04, {}, [[31, seed]], id=f"bicycle_800-{heuristic}-{seed}")


@pytest.mark.parametrize("code_name,heuristic,eps,limits,seeds", _trial_path_cases())
def test_run_trial_matches_logged_decode(request, code_name, heuristic, eps, limits, seeds):
    # a sweep trial's class, iterations and intervention count are those of
    # the same seeded decode with its event log expanded
    code = request.getfixturevalue(code_name)
    prior = qbp.depolarizing_prior(code.n, eps)
    cfg = qbp.DecodeConfig(heuristic=heuristic, **limits)
    total = 0
    for seed in seeds:
        outcome = qbp.run_trial(code, prior, cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        error = qbp.sample_error(prior, rng)
        res, events = qbp.decode_with_heuristics(code, prior, code.syndrome(error), cfg, rng=rng)
        count = len(list(events))
        assert (outcome.classification, outcome.iterations_used, outcome.perturbations) == \
            (qbp.simulate.classify_residual(code, error, res.correction), res.iterations_used, count)
        total += count
    assert (total == 0) == (heuristic == "none")


@pytest.mark.parametrize("heuristic", ["collision_freeze", "perturb"])
def test_run_trial_builds_no_events(small_bicycle, heuristic, monkeypatch):
    prior = qbp.depolarizing_prior(small_bicycle.n, 0.12)
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    logged = []
    for trial in range(10):
        rng = np.random.default_rng([13, trial])
        error = qbp.sample_error(prior, rng)
        _, events = qbp.decode_with_heuristics(small_bicycle, prior, small_bicycle.syndrome(error), cfg, rng=rng)
        logged.append(len(events))

    def no_events(*args, **kwargs):
        raise AssertionError("a sweep trial built a PerturbationEvent")

    monkeypatch.setattr(qbp.heuristics, "PerturbationEvent", no_events)
    counted = [qbp.run_trial(small_bicycle, prior, cfg, np.random.default_rng([13, trial])).perturbations
               for trial in range(10)]
    assert counted == logged and sum(counted) > 0


def test_integer_index_draw_matches_choice():
    # freeze draws its qubit as remaining[rng.integers(len(remaining))]: the
    # same qubit as rng.choice(remaining), from the same generator stream
    for length in range(1, 65):
        remaining = sorted(np.random.default_rng(length).choice(1000, size=length, replace=False).tolist())
        by_index, by_choice = np.random.default_rng([12, length]), np.random.default_rng([12, length])
        for _ in range(6):
            assert remaining[by_index.integers(length)] == int(by_choice.choice(remaining))
        assert by_index.bit_generator.state == by_choice.bit_generator.state
