"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The block-error sweep (criteria 5 and 6) decodes three heuristic settings on
an 800-qubit bicycle code and takes several minutes; everything else runs in
about a minute total.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

import qbp

from test_bp import naive_check_message
from conftest import check_messages, random_single_check_code, set_incoming, tanner_rows


def report(num, ok, text, elapsed):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text} [{elapsed:.1f}s]")
    assert ok, text


@pytest.fixture(scope="module")
def toy_code():
    return qbp.builtin("two_qubit_toy")


@pytest.fixture(scope="module")
def sweep_results():
    """Criterion 5 configuration: Fig-3-sized bicycle code, three decoders."""
    code = qbp.generate_bicycle(qbp.BicycleSpec(n=800, m=400, w=30, seed=11))
    out = {}
    for heuristic in ("none", "collision_freeze", "perturb"):
        cfg = qbp.DecodeConfig(max_iterations=90, t_pert=6, delta=0.1, heuristic=heuristic)
        out[heuristic] = qbp.run_simulation(
            code, [0.02, 0.03, 0.04], 2000, cfg,
            master_seed=2026, jobs=2, max_failures=None,
        )
    return out


def test_criterion_1_case_study(toy_code):
    t0 = time.time()
    prior = qbp.depolarizing_prior(2, 0.1)
    syndrome = np.array([1, -1], dtype=np.int8)
    trace = []
    res = qbp.decode(toy_code, prior, syndrome, qbp.DecodeConfig(), trace=trace)
    symmetric = all((b[0] == b[1]).all() for _, b in trace)
    identity_max = all(int(np.argmax(b[0])) == 0 and int(np.argmax(b[1])) == 0 for _, b in trace)
    detected = (not res.converged) and res.iterations_used == 90
    elapsed = time.time() - t0
    ok = symmetric and identity_max and detected and elapsed < 1.0
    report(1, ok, f"toy-code beliefs symmetric={symmetric}, identity max={identity_max}, "
                  f"detected at 90 iterations={detected}", elapsed)


def test_criterion_2_heuristic_rescue(toy_code):
    t0 = time.time()
    prior = qbp.depolarizing_prior(2, 0.1)
    syndrome = np.array([1, -1], dtype=np.int8)
    valid = {"XI", "IX", "YZ", "ZY"}
    freeze_ok = True
    for seed in range(100):
        cfg = qbp.DecodeConfig(heuristic="freeze", seed=seed)
        res, _ = qbp.decode_with_heuristics(toy_code, prior, syndrome, cfg)
        freeze_ok &= res.converged and str(res.correction) in valid and res.iterations_used <= cfg.t_pert + 1
    wins = 0
    for seed in range(1000):
        cfg = qbp.DecodeConfig(heuristic="perturb", delta=1.0, seed=seed)
        res, _ = qbp.decode_with_heuristics(toy_code, prior, syndrome, cfg)
        wins += res.converged and str(res.correction) in valid
    elapsed = time.time() - t0
    ok = freeze_ok and wins >= 990 and elapsed < 10.0
    report(2, ok, f"freeze converges in <= t_pert+1 with valid recovery={freeze_ok}, "
                  f"perturb(delta=1) success {wins}/1000", elapsed)


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_belief = 0.0
    for _ in range(1000):
        code = random_single_check_code(rng)
        eps = float(rng.uniform(1e-3, 0.5))
        prior = qbp.depolarizing_prior(code.n, eps)
        syndrome = np.array([rng.choice([-1, 1])], dtype=np.int8)
        res = qbp.decode(code, prior, syndrome, qbp.DecodeConfig(max_iterations=4, t_pert=2))
        exact = qbp.exact_marginals(code, prior, syndrome)
        worst_belief = max(worst_belief, float(np.abs(res.final_beliefs - exact).max()))
    worst_msg = 0.0
    for _ in range(1000):
        code = random_single_check_code(rng)
        incoming = rng.dirichlet(np.ones(4), size=code.n)
        s_c = int(rng.choice([-1, 1]))
        state = qbp.init_messages(code, qbp.depolarizing_prior(code.n, 0.1))
        set_incoming(state, code, incoming)
        qbp.check_update(state, code, np.array([s_c], dtype=np.int8))
        labels = [letter for _, letter in tanner_rows(code)[0]]
        ref = naive_check_message(labels, incoming, s_c)
        worst_msg = max(worst_msg, float(np.abs(check_messages(state, code) - ref).max()))
    elapsed = time.time() - t0
    ok = worst_belief <= 1e-10 and worst_msg <= 1e-12 and elapsed < 60.0
    report(3, ok, f"BP vs exact marginals max|diff|={worst_belief:.2e} (<=1e-10), "
                  f"fast vs naive check update max|diff|={worst_msg:.2e} (<=1e-12)", elapsed)


def test_criterion_4_bicycle_structure():
    t0 = time.time()
    rng = np.random.default_rng(404)
    produced = 0
    ok = True
    while produced < 100:
        d = int(rng.integers(4, 17))
        w = int(rng.choice([4, 6]))
        if w // 2 > d:
            continue
        lo = math.ceil(2 * d / w)
        if lo > d - 1:
            continue
        m2 = int(rng.integers(lo, d))
        spec = qbp.BicycleSpec(n=2 * d, m=2 * m2, w=w, seed=int(rng.integers(1 << 30)))
        try:
            code = qbp.generate_bicycle(spec)
        except qbp.GenerationError:
            continue
        produced += 1
        h = qbp.check_matrix(code)
        ok &= not ((h.astype(np.int64) @ h.T.astype(np.int64)) % 2).any()
        ok &= code.k == code.n - code.m  # commuting + independent checks
        lam, rho = code.degree_distribution()
        ok &= qbp.design_rate(lam, rho) == (code.n - code.m) / code.n
        ok &= code.four_loop_census()[0] >= 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "100 random bicycle specs: H.H^T=0, commuting checks, "
                  "rate=(n-m)/n, 4-loop census >= 1", elapsed)


def test_criterion_5_sweep_ordering(sweep_results):
    t0 = time.time()
    plain = sweep_results["none"].points
    freeze = sweep_results["collision_freeze"].points
    perturb = sweep_results["perturb"].points
    separated_points = []
    for i in range(3):
        if freeze[i].bler < plain[i].bler and perturb[i].bler < plain[i].bler \
                and freeze[i].ci_high < plain[i].ci_low and perturb[i].ci_high < plain[i].ci_low:
            separated_points.append(plain[i].epsilon)
    lines = []
    for i in range(3):
        lines.append(
            f"eps={plain[i].epsilon}: plain={plain[i].bler:.4f}[{plain[i].ci_low:.4f},{plain[i].ci_high:.4f}] "
            f"freeze+collision={freeze[i].bler:.4f}[{freeze[i].ci_low:.4f},{freeze[i].ci_high:.4f}] "
            f"perturb={perturb[i].bler:.4f}[{perturb[i].ci_low:.4f},{perturb[i].ci_high:.4f}]"
        )
    print("\n" + "\n".join(lines))
    ok = 0.03 in separated_points
    report(5, ok, f"heuristics beat plain BP with non-overlapping CIs at eps={separated_points}", time.time() - t0)


def test_criterion_6_detected_dominance(sweep_results):
    t0 = time.time()
    logical = {
        heuristic: sum(p.logical for p in stats.points)
        for heuristic, stats in sweep_results.items()
    }
    failures = {
        heuristic: sum(p.failures for p in stats.points)
        for heuristic, stats in sweep_results.items()
    }
    total_logical = sum(logical.values())
    if total_logical > 0:
        warnings.warn(
            f"logical failures observed on the w=30 bicycle code: {logical} of {failures}",
            stacklevel=1,
        )
    report(6, True, f"logical-failure fraction across sweep = "
                    f"{total_logical}/{sum(failures.values())}"
                    + (" (ALARM: expected 0)" if total_logical else ""), time.time() - t0)


def test_criterion_7_degenerate_advantage():
    t0 = time.time()
    five = qbp.builtin("five_qubit")
    eps = 0.05
    prior = qbp.depolarizing_prior(5, eps)
    map_cache, coset_cache = {}, {}
    norm_ok = True
    for bits in itertools.product((1, -1), repeat=4):
        s = np.array(bits, dtype=np.int8)
        map_cache[bits] = qbp.exact_map(five, prior, s)
        l_star, table = qbp.coset_decode(five, prior, s)
        coset_cache[bits] = five.pure_error_for_syndrome(s) * l_star
        norm_ok &= abs(float(table.normalized.sum()) - 1.0) <= 1e-12
    rng = np.random.default_rng(707)
    n_map = n_coset = 0
    trials = 10_000
    for _ in range(trials):
        e = qbp.sample_error(prior, rng)
        key = tuple(int(b) for b in five.syndrome(e))
        n_map += five.residual_class(e * map_cache[key]) == "stabilizer"
        n_coset += five.residual_class(e * coset_cache[key]) == "stabilizer"
    elapsed = time.time() - t0
    ok = n_coset >= n_map and norm_ok and elapsed < 60.0
    report(7, ok, f"coset success {n_coset}/{trials} >= MAP success {n_map}/{trials}, "
                  f"per-syndrome normalization within 1e-12={norm_ok}", elapsed)


def test_criterion_8_determinism():
    t0 = time.time()
    code = qbp.generate_bicycle(qbp.BicycleSpec(n=80, m=40, w=10, seed=3))
    cfg = qbp.DecodeConfig(heuristic="collision_freeze")
    runs = [
        qbp.run_simulation(code, [0.02, 0.05], 400, cfg, master_seed=88, jobs=2, max_failures=100)
        for _ in range(2)
    ]
    runs.append(qbp.run_simulation(code, [0.02, 0.05], 400, cfg, master_seed=88, jobs=1, max_failures=100))
    csvs = [qbp.stats_to_csv(s) for s in runs]
    jsons = [qbp.stats_to_json(s) for s in runs]
    ok = csvs[0] == csvs[1] == csvs[2] and jsons[0] == jsons[1] == jsons[2]
    report(8, ok, "bit-identical results files across reruns and worker counts", time.time() - t0)
