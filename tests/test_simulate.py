import dataclasses
import gc
import hashlib
import itertools
import math
import multiprocessing
import threading
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

import qbp
from qbp.bp import HEURISTICS
from qbp.simulate import DETECTED, LOGICAL, SUCCESS, classify_residual


def test_sample_error_extremes():
    rng = np.random.default_rng(0)
    assert qbp.sample_error(qbp.depolarizing_prior(20, 0.0), rng).is_identity
    full = qbp.sample_error(qbp.depolarizing_prior(20, 1.0), rng)
    assert full.weight == 20


def _letter_count_sample(prior, rng):
    """Reference draw by the letter-count rule: each qubit's letter is the
    number of its cumulative I, X, Y thresholds at or below its draw."""
    table = np.cumsum(prior, axis=1)[:, :3]
    r = rng.random(len(prior))
    letters = (r >= table[:, 0]).view(np.int8)
    letters += r >= table[:, 1]
    letters += r >= table[:, 2]
    return qbp.PauliOperator.from_letters(letters)


def test_sample_error_tied_thresholds():
    # zero prior entries make thresholds tie; a draw reaching a tie skips the
    # letters in between, as the count of reached thresholds does
    rows = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0],
                     [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0.5, 0.5, 0, 0]], dtype=np.float64)
    mixed = rows[np.random.default_rng(72).integers(0, len(rows), size=65)]
    for prior in (qbp.depolarizing_prior(65, 0.0), qbp.depolarizing_prior(65, 1.0), mixed):
        for seed in range(20):
            got = qbp.sample_error(prior, np.random.default_rng([73, seed]))
            assert got == _letter_count_sample(prior, np.random.default_rng([73, seed]))
    letters = qbp.sample_error(mixed, np.random.default_rng(0)).letters()
    assert (letters[mixed[:, 0] == 1] == 0).all() and (letters[mixed[:, 3] == 1] == 3).all()


def test_sample_error_frequencies():
    rng = np.random.default_rng(1)
    prior = qbp.depolarizing_prior(1, 0.3)
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        counts[qbp.sample_error(prior, rng).letters()[0]] += 1
    for v, p in enumerate([0.7, 0.1, 0.1, 0.1]):
        sigma = math.sqrt(p * (1 - p) * draws)
        assert abs(counts[v] - p * draws) <= 3 * sigma


def test_list_prior_validated_like_an_array():
    prior = qbp.depolarizing_prior(6, 0.2)
    table = qbp.sampling_table(prior.tolist())
    assert table.tobytes() == qbp.sampling_table(prior).tobytes()
    a = qbp.sample_error(prior.tolist(), np.random.default_rng(5))
    assert a == qbp.sample_error(prior, np.random.default_rng(5))
    for bad in ([[1.0, 0, 0, 0.5]], [[1.0, 0, 0]], [1.0, 0, 0, 0], 1.0):
        with pytest.raises(ValueError):
            qbp.sampling_table(bad)
        with pytest.raises(ValueError):
            qbp.sample_error(bad, np.random.default_rng(0))


def test_classify_residual(toy, five):
    assert classify_residual(toy, qbp.PauliOperator.from_string("IX"), qbp.PauliOperator.from_string("II")) == DETECTED
    assert classify_residual(toy, qbp.PauliOperator.from_string("IX"), qbp.PauliOperator.from_string("XI")) == SUCCESS
    assert classify_residual(toy, qbp.PauliOperator.from_string("IX"), qbp.PauliOperator.from_string("IX")) == SUCCESS
    logical = five.canonical_generators()[1][0]
    assert classify_residual(five, logical, qbp.PauliOperator.identity(5)) == LOGICAL


def test_run_trial_toy_detected(toy):
    # at eps = 1 the sampled error has full weight, so the toy decoder without
    # heuristics either matches or reports a detected failure
    prior = qbp.depolarizing_prior(2, 0.4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        out = qbp.run_trial(toy, prior, qbp.DecodeConfig(), rng)
        assert out.classification in (SUCCESS, DETECTED, LOGICAL)
        assert 1 <= out.iterations_used <= 90
        assert 0 <= out.error_weight <= 2


def test_detected_iff_not_converged(five):
    prior = qbp.depolarizing_prior(5, 0.15)
    for t in range(60):
        rng = np.random.default_rng([4, t])
        e = qbp.sample_error(prior, rng)
        s = five.syndrome(e)
        res, _ = qbp.decode_with_heuristics(five, prior, s, qbp.DecodeConfig(heuristic="freeze", seed=t))
        cls = classify_residual(five, e, res.correction)
        assert (cls == DETECTED) == (not res.converged)


@pytest.mark.parametrize("heuristic", ["none", "collision_freeze"])
def test_detected_iff_not_converged_bicycle_800(bicycle_800, heuristic):
    prior = qbp.depolarizing_prior(bicycle_800.n, 0.04)
    cfg = qbp.DecodeConfig(heuristic=heuristic)
    for t in range(6):
        rng = np.random.default_rng([4, t])
        e = qbp.sample_error(prior, rng)
        res, _ = qbp.decode_with_heuristics(bicycle_800, prior, bicycle_800.syndrome(e), cfg, rng=rng)
        cls = classify_residual(bicycle_800, e, res.correction)
        assert (cls == DETECTED) == (not res.converged)


def _forbid_letter_paths(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a trial built or validated per-qubit letters")

    monkeypatch.setattr(qbp.PauliOperator, "letters", forbidden)
    monkeypatch.setattr(qbp.PauliOperator, "from_letters", classmethod(forbidden))
    monkeypatch.setattr(qbp.StabilizerCode, "syndrome01_of_letters", forbidden)


def test_trial_path_builds_no_letters(small_bicycle, bicycle_800, monkeypatch):
    # a trial's error is the positions of its draws, and its syndrome is
    # read from them; the decision's positions give the correction.  The
    # same outcomes, with every letter path raising.  The headline code
    # fails no trial logically at these eps (criterion 6), so its logical
    # class is checked on a logical residual.
    runs = [(small_bicycle, 0.12, qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=h),
             [[74, t] for t in range(30)]) for h in HEURISTICS]
    runs += [(bicycle_800, eps, qbp.DecodeConfig(heuristic=h), seeds)
             for eps, seeds in ((0.02, [[40, 279], [40, 280]]), (0.04, [[40, t] for t in range(3)]))
             for h in ("none", "collision_freeze")]

    def outcomes():
        return [[qbp.run_trial(code, qbp.depolarizing_prior(code.n, eps), cfg, np.random.default_rng(seed))
                 for seed in seeds] for code, eps, cfg, seeds in runs]

    logical = bicycle_800.canonical_generators()[1][0]
    identity = qbp.PauliOperator.identity(bicycle_800.n)
    want = outcomes()
    with monkeypatch.context() as patched:
        _forbid_letter_paths(patched)
        assert outcomes() == want
        assert classify_residual(bicycle_800, logical, identity) == LOGICAL
    classes = {(code.n, o.classification) for (code, *_), run in zip(runs, want) for o in run}
    assert classes == {(n, c) for n in (20, 800) for c in (SUCCESS, DETECTED, LOGICAL)} - {(800, LOGICAL)}
    # every heuristic meets a logical failure on the small code
    assert all(LOGICAL in {o.classification for o in run} for run in want[:len(HEURISTICS)])


def _public_trial(code, prior, config, rng):
    """A trial by the public composition, as TrialOutcome fields."""
    error = qbp.sample_error(prior, rng)
    result, events = qbp.decode_with_heuristics(code, prior, code.syndrome(error), config, rng=rng)
    return (classify_residual(code, error, result.correction), result.iterations_used,
            len(events), error.weight)


def _check_chunks_match_public_trials(code, config, epsilons, trials, seed=21):
    sweep = qbp.simulate._Sweep(code, config, seed)
    for i, eps in enumerate(epsilons):
        prior = qbp.depolarizing_prior(code.n, eps)
        outcomes = sweep((i, eps, 0, trials))
        assert len(outcomes) == trials
        for t, outcome in enumerate(outcomes):
            want = _public_trial(code, prior, config, np.random.default_rng([seed, i, t]))
            assert dataclasses.astuple(outcome) == want, (eps, t)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_sweep_trials_match_public_composition(small_bicycle, heuristic):
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    _check_chunks_match_public_trials(small_bicycle, cfg, [0.05, 0.12], 60)


def test_sweep_trials_match_public_composition_bicycle_800(bicycle_800):
    cfg = qbp.DecodeConfig(heuristic="collision_freeze")
    _check_chunks_match_public_trials(bicycle_800, cfg, [0.02, 0.04], 4)


@pytest.mark.parametrize("heuristic", ["perturb", "collision_freeze"])
def test_point_start_state_survives_decodes(small_bicycle, heuristic):
    # two decodes in a row from a sweep point's shared start record: the
    # second equals a decode from the prior alone, bit for bit, and the
    # record, read-only, still equals a fresh one
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    sweep = qbp.simulate._Sweep(small_bicycle, cfg, 21)
    sweep((0, 0.12, 0, 1))
    prior, _, start = sweep.points[0]
    fields = [f.name for f in dataclasses.fields(start)]
    assert fields == ["working_prior", "log_prior", "d_qc", "t_cq", "log_ab"]
    assert not any(getattr(start, name).flags.writeable for name in fields)
    fresh = qbp.bp.point_start(small_bicycle, prior)
    syndromes = [small_bicycle.syndrome(qbp.sample_error(prior, np.random.default_rng([6, t]))) for t in range(2)]
    _, first = qbp.decode_with_heuristics(small_bicycle, prior, syndromes[0], cfg, rng=np.random.default_rng(1),
                                          _start=start)
    assert len(first) > 0  # the first decode mutated its working prior
    second, _ = qbp.decode_with_heuristics(small_bicycle, prior, syndromes[1], cfg, rng=np.random.default_rng(2),
                                           _start=start)
    want, _ = qbp.decode_with_heuristics(small_bicycle, prior, syndromes[1], cfg, rng=np.random.default_rng(2))
    assert (second.correction, second.converged, second.iterations_used) == \
        (want.correction, want.converged, want.iterations_used)
    assert second.final_beliefs.tobytes() == want.final_beliefs.tobytes()
    for name in fields:
        assert getattr(start, name).tobytes() == getattr(fresh, name).tobytes(), name


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_decodes_from_point_start_equal_fresh_decodes(small_bicycle, heuristic):
    # a decode from a sweep point's start equals a decode from the prior
    # alone in everything it returns, traces and draws, down to decodes of
    # one or two iterations, interventions after every iteration and a
    # trivial syndrome that halts at the first
    configs = [qbp.DecodeConfig(max_iterations=i, t_pert=1, heuristic=heuristic) for i in (1, 2)]
    configs += [qbp.DecodeConfig(max_iterations=40, t_pert=t, heuristic=heuristic) for t in (1, 3)]
    sweep = qbp.simulate._Sweep(small_bicycle, configs[0], 21)
    for eps_index, eps in enumerate((0.05, 0.12)):
        sweep((eps_index, eps, 0, 1))
        prior, _, start = sweep.points[eps_index]
        syndromes = [np.ones(small_bicycle.m, dtype=np.int8)]
        syndromes += [small_bicycle.syndrome(qbp.sample_error(prior, np.random.default_rng([8, t]))) for t in range(6)]
        for cfg, (t, syndrome) in itertools.product(configs, enumerate(syndromes)):
            rngs = np.random.default_rng([9, t]), np.random.default_rng([9, t])
            traces = [], []
            got, got_log = qbp.decode_with_heuristics(small_bicycle, prior, syndrome, cfg, rng=rngs[0],
                                                      trace=traces[0], _start=start)
            want, want_log = qbp.decode_with_heuristics(small_bicycle, prior, syndrome, cfg, rng=rngs[1],
                                                        trace=traces[1])
            assert (got.correction, got.converged, got.iterations_used) == \
                (want.correction, want.converged, want.iterations_used), (eps, cfg, t)
            assert got.final_beliefs.tobytes() == want.final_beliefs.tobytes()
            assert [(i, b.tobytes()) for i, b in traces[0]] == [(i, b.tobytes()) for i, b in traces[1]]
            assert list(got_log) == list(want_log)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            if t == 0:
                assert got.converged and got.iterations_used == 1 and got.correction.is_identity


def test_init_messages_built_once_per_point(small_bicycle, monkeypatch):
    calls = []
    real = qbp.bp.init_messages
    monkeypatch.setattr(qbp.bp, "init_messages", lambda *a: calls.append(1) or real(*a))
    cfg = qbp.DecodeConfig(max_iterations=20, heuristic="perturb")
    stats = qbp.run_simulation(small_bicycle, [0.05, 0.12], 120, cfg, master_seed=3, jobs=1, max_failures=None)
    assert [p.trials for p in stats.points] == [120, 120]  # three chunks per point
    assert len(calls) == 2


def test_concurrent_serial_sweeps_equal_sequential_ones(five, small_bicycle, monkeypatch):
    # two serial sweeps on two threads, each held at its first trial until
    # the other has started; each runs three chunks per point and must equal
    # its own sequential run
    cfg = qbp.DecodeConfig(max_iterations=20, heuristic="perturb")
    runs = [(five, [0.1, 0.2], 120, 31), (small_bicycle, [0.05, 0.12], 110, 32)]

    def sweep(run):
        code, epsilons, trials, seed = run
        stats = qbp.run_simulation(code, epsilons, trials, cfg, master_seed=seed, jobs=1, max_failures=None)
        return qbp.stats_to_json(stats)

    want = [sweep(run) for run in runs]
    barrier = threading.Barrier(2, timeout=30)
    started = threading.local()
    real = qbp.simulate.run_trial

    def held(*args):
        if not getattr(started, "done", False):
            started.done = True
            barrier.wait()
        return real(*args)

    monkeypatch.setattr(qbp.simulate, "run_trial", held)
    with ThreadPoolExecutor(max_workers=2) as threads:
        assert list(threads.map(sweep, runs)) == want


def test_sweep_holds_at_most_a_chunk_of_outcomes(five, monkeypatch):
    # at every trial, no more than a chunk's worth of earlier outcomes is alive
    refs, alive = [], []
    real = qbp.simulate.run_trial

    def tracked(*args):
        refs[:] = [ref for ref in refs if ref() is not None]
        alive.append(len(refs))
        outcome = real(*args)
        refs.append(weakref.ref(outcome))
        return outcome

    monkeypatch.setattr(qbp.simulate, "run_trial", tracked)
    stats = qbp.run_simulation(five, [0.1, 0.3], 300, qbp.DecodeConfig(), master_seed=5, max_failures=None)
    assert [p.trials for p in stats.points] == [300, 300] and len(alive) == 600
    assert max(alive) <= qbp.simulate._CHUNK_TRIALS


def test_pool_sweep_holds_a_bounded_window_of_chunks(five, monkeypatch):
    # at jobs=2 the caller submits at most 2 * jobs chunks ahead of the fold:
    # its peak memory does not grow with a point's chunk count, and the
    # early-stop cut leaves no more than that window submitted
    monkeypatch.setattr(qbp.simulate, "_CHUNK_TRIALS", 1)
    cfg = qbp.DecodeConfig(max_iterations=5, t_pert=5)
    peaks = []
    for trials in (100, 1000):
        tracemalloc.start()
        try:
            qbp.run_simulation(five, [0.05], trials, cfg, master_seed=1, jobs=2, max_failures=None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 250_000, peaks
    submitted = []
    real = ProcessPoolExecutor.submit
    monkeypatch.setattr(ProcessPoolExecutor, "submit",
                        lambda self, fn, *args: submitted.append(args) or real(self, fn, *args))
    point = qbp.run_simulation(five, [0.3], 1000, cfg, master_seed=1, jobs=2, max_failures=5).points[0]
    assert point.early_stopped and len(submitted) <= point.trials + 4, (point.trials, len(submitted))


def test_serial_sweep_leaves_no_reference_to_its_code():
    code = qbp.builtin("five_qubit")
    ref = weakref.ref(code)
    stats = qbp.run_simulation(code, [0.1, 0.2], 60, qbp.DecodeConfig(), master_seed=3, jobs=1)
    assert stats.code_fingerprint == code.fingerprint()
    del code
    gc.collect()
    assert ref() is None


def test_wilson_interval():
    lo, hi = qbp.wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = qbp.wilson_interval(100, 100)
    assert hi == 1.0
    # reference values from the closed-form score interval
    lo, hi = qbp.wilson_interval(1, 10)
    z = 1.959963984540054
    p, n = 0.1, 10
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    assert abs(lo - (center - half)) <= 1e-15 and abs(hi - (center + half)) <= 1e-15
    lo, hi = qbp.wilson_interval(5, 50)
    assert lo < 5 / 50 < hi
    for trials in (0, -1, 3.0, True, np.True_, "3", None):
        with pytest.raises(ValueError, match="trials"):
            qbp.wilson_interval(0, trials)
    for failures in (5, -1, 4):
        with pytest.raises(ValueError, match=r"failures must lie in \[0, trials\]"):
            qbp.wilson_interval(failures, 3)
    for failures in (1.5, 1.0, True, np.True_, "1", None):
        with pytest.raises(ValueError, match="failures"):
            qbp.wilson_interval(failures, 3)
    assert qbp.wilson_interval(np.int64(1), np.int32(10)) == qbp.wilson_interval(1, 10)


def test_run_simulation_zero_eps(five):
    stats = qbp.run_simulation(five, [0.0], 50, qbp.DecodeConfig(), master_seed=1)
    p = stats.points[0]
    assert p.failures == 0 and p.bler == 0.0 and p.mean_iterations == 1.0
    assert p.ci_low == 0.0 and not p.early_stopped


def test_run_simulation_monotone_within_ci(small_bicycle):
    cfg = qbp.DecodeConfig(heuristic="none")
    stats = qbp.run_simulation(small_bicycle, [0.02, 0.08, 0.2], 400, cfg, master_seed=3, max_failures=None)
    pts = stats.points
    for a, b in zip(pts, pts[1:]):
        assert a.bler <= b.bler or a.ci_low <= b.ci_high
    assert pts[0].bler <= pts[-1].bler


def test_run_simulation_deterministic_across_jobs(small_bicycle):
    cfg = qbp.DecodeConfig(heuristic="perturb")
    runs = [
        qbp.run_simulation(small_bicycle, [0.05, 0.1], 200, cfg, master_seed=7, jobs=j, max_failures=None)
        for j in (1, 2, 1)
    ]
    texts = [qbp.stats_to_csv(s) for s in runs]
    assert texts[0] == texts[1] == texts[2]
    jsons = [qbp.stats_to_json(s) for s in runs]
    assert jsons[0] == jsons[1] == jsons[2]


def test_early_stop_deterministic(small_bicycle):
    cfg = qbp.DecodeConfig()
    a = qbp.run_simulation(small_bicycle, [0.25], 500, cfg, master_seed=11, jobs=1, max_failures=10)
    b = qbp.run_simulation(small_bicycle, [0.25], 500, cfg, master_seed=11, jobs=2, max_failures=10)
    assert qbp.stats_to_csv(a) == qbp.stats_to_csv(b)
    p = a.points[0]
    assert p.early_stopped and p.failures == 10 and p.trials < 500


def test_early_stop_flag_when_cut_lands_on_last_trial(small_bicycle):
    cfg = qbp.DecodeConfig(max_iterations=20)
    prior = qbp.depolarizing_prior(small_bicycle.n, 0.25)
    first = next(t for t in range(500) if qbp.run_trial(
        small_bicycle, prior, cfg, np.random.default_rng([4, 0, t])).classification != SUCCESS)
    cut = qbp.run_simulation(small_bicycle, [0.25], first + 1, cfg, master_seed=4, max_failures=1)
    assert (cut.points[0].trials, cut.points[0].failures, cut.points[0].early_stopped) == (first + 1, 1, False)
    more = qbp.run_simulation(small_bicycle, [0.25], first + 2, cfg, master_seed=4, max_failures=1)
    assert (more.points[0].trials, more.points[0].failures, more.points[0].early_stopped) == (first + 1, 1, True)


def test_max_failures_below_one_rejected(toy):
    for bad in (0, -3, 2.5, 1.0, True, np.True_, "3"):
        with pytest.raises(ValueError, match="max_failures"):
            qbp.run_simulation(toy, [0.1], 10, qbp.DecodeConfig(), master_seed=0, max_failures=bad)


def test_negative_master_seed_rejected_before_any_trial(toy, monkeypatch):
    monkeypatch.setattr(qbp.simulate, "run_trial", lambda *a: pytest.fail("a trial ran"))
    for bad in (-1, 1.5, 2.0, "3", None, False, np.False_):
        with pytest.raises(ValueError, match="master_seed"):
            qbp.run_simulation(toy, [0.1], 10, qbp.DecodeConfig(), master_seed=bad)


def test_trials_below_one_or_not_integral_rejected_before_any_trial(toy, monkeypatch):
    # numpy integers are integers
    stats = qbp.run_simulation(toy, [0.1], np.int64(3), qbp.DecodeConfig(), master_seed=np.uint64(5),
                               jobs=np.int8(1), max_failures=np.int32(2))
    assert stats.trials_requested == 3
    assert type(stats.trials_requested) is type(stats.master_seed) is type(stats.max_failures) is int
    monkeypatch.setattr(qbp.simulate, "run_trial", lambda *a: pytest.fail("a trial ran"))
    for bad in (0, -2, 2.5, 3.0, True, np.True_, "3", None):
        with pytest.raises(ValueError, match="trials"):
            qbp.run_simulation(toy, [0.1], bad, qbp.DecodeConfig(), master_seed=0)


def test_trial_error_reaches_caller_and_pool_shuts_down(small_bicycle, monkeypatch):
    # patched before the pool forks, so every worker inherits the trial that
    # raises: the second point's trial 70, in its second chunk
    real = qbp.simulate.run_trial

    def failing(code, prior, config, rng, *rest):
        if list(rng.bit_generator.seed_seq.entropy) == [7, 1, 70]:
            raise RuntimeError("trial (7, 1, 70) failed")
        return real(code, prior, config, rng, *rest)

    monkeypatch.setattr(qbp.simulate, "run_trial", failing)
    cfg = qbp.DecodeConfig(max_iterations=20)
    with pytest.raises(RuntimeError, match=r"trial \(7, 1, 70\) failed") as raised:
        qbp.run_simulation(small_bicycle, [0.05, 0.1], 200, cfg, master_seed=7, jobs=2, max_failures=None)
    # the pool is shut down while the caller still holds the error and its frames
    assert multiprocessing.active_children() == [] and raised.tb is not None


def test_jobs_below_one_rejected(toy):
    for bad in (0, -4, 2.0, 1.5, True, np.True_, "2", None):
        with pytest.raises(ValueError, match="jobs"):
            qbp.run_simulation(toy, [0.1], 10, qbp.DecodeConfig(), master_seed=0, jobs=bad)


def test_epsilons_validated_before_any_trial(toy, monkeypatch):
    calls = []
    real = qbp.simulate.run_trial
    monkeypatch.setattr(qbp.simulate, "run_trial", lambda *a: calls.append(1) or real(*a))
    for bad in ([0.1, 1.5], [-0.01], [0.1, float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            qbp.run_simulation(toy, bad, 300, qbp.DecodeConfig(), master_seed=0)
    for bad in (["0.05"], [0.1, True], [np.True_], [None]):
        with pytest.raises(ValueError, match=r"epsilons\[\d\] must be a real number"):
            qbp.run_simulation(toy, bad, 300, qbp.DecodeConfig(), master_seed=0)
    assert calls == []
    stats = qbp.run_simulation(toy, [0.0, np.float32(1.0)], 3, qbp.DecodeConfig(), master_seed=0)
    assert len(calls) == 6
    assert [type(p.epsilon) for p in stats.points] == [float, float]


def test_stats_serialization_fields(small_bicycle):
    stats = qbp.run_simulation(small_bicycle, [0.05], 30, qbp.DecodeConfig(), master_seed=5)
    csv_text = qbp.stats_to_csv(stats)
    header = csv_text.splitlines()
    assert header[2] == "epsilon,trials,failures,detected,logical,bler,ci_low,ci_high,mean_iterations"
    assert header[0].startswith("# qbp")
    assert stats.code_fingerprint == small_bicycle.fingerprint()
    js = qbp.stats_to_json(stats)
    assert '"master_seed": 5' in js and '"points"' in js


@pytest.mark.parametrize("name", ["master_seed", "trials", "max_failures", "max_iterations", "t_pert", "seed",
                                  "delta"])
def test_numpy_scalars_write_the_json_of_python_numbers(five, name):
    # a numpy integer (or a float32 delta) in place of a Python number gives
    # the same JSON, where it used to raise "not JSON serializable"
    sweep = {"master_seed": 3, "trials": 40, "max_failures": 5}
    config = {"max_iterations": 20, "t_pert": 4, "seed": 9, "delta": float(np.float32(0.1)), "heuristic": "perturb"}

    def run():
        stats = qbp.run_simulation(five, [0.05, 0.3], config=qbp.DecodeConfig(**config), **sweep)
        return qbp.stats_to_json(stats)

    want = run()
    if name in sweep:
        sweep[name] = np.int64(sweep[name])
    else:
        config[name] = np.float32(0.1) if name == "delta" else np.int64(config[name])
    assert run() == want


def test_failures_decompose(small_bicycle):
    stats = qbp.run_simulation(small_bicycle, [0.15], 200, qbp.DecodeConfig(), master_seed=13, max_failures=None)
    p = stats.points[0]
    assert p.failures == p.detected + p.logical
    assert p.trials == 200
    assert math.isclose(p.bler, p.failures / 200)
    assert p.ci_low <= p.bler <= p.ci_high


# sha256 of stats_to_json, and of the run_trial outcomes (perturbation counts
# included) of the same point-1 trials, per heuristic; recorded while sweeps
# still built the full event log and kept only its length
GOLDEN_SWEEP_DIGESTS = {
    "collision_freeze": ("4eb1684c960e3f23fbb36b583a8b694ee19fcf2c4b30e508e230eba13ca08c65",
                         "3da8356c2cdcdbfbc40aa8cde4ef32fdb4074b25f0a0515e281ec74f9e98879a"),
    "collision_perturb": ("a0412e1f5481abf1ce399f9ccf4354074b2e7a60562865f13d2924a4b6dc1586",
                          "529f63e64303f6be339d780e3127f9c5c10d9fde8a3f6b1ffcb098af5b0920a2"),
    "freeze": ("eb189a5a17803f1327744d302fd9e8b4425829829d70a099cdbc25902952c7a7",
               "1569339b563adfe971e41799120053be3d699449dfca25a50bef81b8bd391045"),
    "perturb": ("56f401ff2c3955c57813b559a488bef97c2ebcf66a430e1b9f12c0d1411d5327",
                "f6b3feccc55219bcbff2a384118c114f5b33b64ea356b1e28c29a84be1fa392c"),
}


@pytest.mark.parametrize("heuristic", sorted(GOLDEN_SWEEP_DIGESTS))
def test_sweep_golden_digest(small_bicycle, heuristic):
    cfg = qbp.DecodeConfig(max_iterations=40, t_pert=3, heuristic=heuristic)
    stats = qbp.run_simulation(small_bicycle, [0.05, 0.12], 60, cfg, master_seed=21, max_failures=None)
    prior = qbp.depolarizing_prior(small_bicycle.n, 0.12)
    outcomes = [dataclasses.astuple(qbp.run_trial(small_bicycle, prior, cfg, np.random.default_rng([21, 1, t])))
                for t in range(60)]
    digests = (hashlib.sha256(qbp.stats_to_json(stats).encode()).hexdigest(),
               hashlib.sha256(repr(outcomes).encode()).hexdigest())
    assert digests == GOLDEN_SWEEP_DIGESTS[heuristic]


# The benchmark's three reference blocks on the headline code: per workload,
# six sub-blocks, sub-block j at master seed SeedSequence([7, j]); sha256 over
# their stats_to_json in sub-block order, and the block's failures.  Every
# decode these blocks make must stay bit-identical for the digest to hold.
REFERENCE_BLOCKS = {
    "lowerr-cf": (0.02, "collision_freeze", 100, 4,
                  "67c3fd32553841bb9b454724517aa27c400784a221436c41252d5b6b6315c0fd"),
    "higherr-cf": (0.04, "collision_freeze", 8, 35,
                  "d1d1503f8b8275716482d38e1abdfc3ec50e89587c9278c28696641f8c3492be"),
    "higherr-plain": (0.04, "none", 12, 51,
                  "36d694a1b8714c7c13e2d8aa56dbe5c889986f448c887eecef2bd05a7921fdf3"),
}


@pytest.mark.parametrize("workload", sorted(REFERENCE_BLOCKS))
def test_reference_block_golden_digest(bicycle_800, workload):
    eps, heuristic, block_trials, failures, want = REFERENCE_BLOCKS[workload]
    cfg = qbp.DecodeConfig(heuristic=heuristic)
    digest = hashlib.sha256()
    total = 0
    for j in range(6):
        master = int(np.random.SeedSequence([7, j]).generate_state(1, np.uint64)[0])
        stats = qbp.run_simulation(bicycle_800, [eps], block_trials, cfg, master_seed=master,
                                   jobs=1, max_failures=None)
        digest.update(qbp.stats_to_json(stats).encode())
        total += stats.points[0].failures
    assert (total, digest.hexdigest()) == (failures, want)
