"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy scenarios are shared through module-scoped fixtures.  Every tolerance
and budget is pinned here; the scenario constants (data seeds, partition
seeds, rates) were chosen once and frozen, and all runs are deterministic.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from safl_sim import (
    AnnealConfig,
    Dataset,
    GateConfig,
    LrSchedule,
    Objective,
    PartitionSpec,
    SimConfig,
    WeightScheme,
    corollary1_constant,
    curvature,
    decide_upload,
    fit_rate,
    make_blobs,
    make_linear_regression,
    measure_bound_inputs,
    optimum_oracle,
    partition_with_holdout,
    run,
    sample_mask,
    theorem1_bound,
)
from safl_sim.training import Shards


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# regression scenario (criteria 4 and 5)

REG_OBJ = Objective("ridge", 10, reg=1.0)
REG_DATA_SEED = 42
REG_PART = PartitionSpec(n=20, mean_size=12.0, size_var=0.0, max_labels_per_device=1, seed=101)
REG_SEED_BASE = 3000
REG_SEEDS = 30
REG_ROUNDS = 500


@pytest.fixture(scope="module")
def regression_pool():
    return make_linear_regression(400, 10, feature_scale=0.15, coef_scale=10.0, seed=REG_DATA_SEED)


@pytest.fixture(scope="module")
def regression_curvature(regression_pool):
    shards = [regression_pool.subset(tr) for tr in partition_with_holdout(regression_pool, REG_PART, 0.0)[0]]
    bounds = [curvature(REG_OBJ, sh) for sh in shards]
    mu = min(b.mu for b in bounds)
    lam = max(b.lam for b in bounds)
    sigma_sq_max = max(b.sigma_sq for b in bounds)
    return shards, mu, lam, sigma_sq_max


def run_regression(data, part, schedule, seed, rounds=REG_ROUNDS):
    cfg = SimConfig(
        objective=REG_OBJ,
        partition=part,
        selected_per_round=part.n,
        rounds=rounds,
        algorithm="safl",
        anneal=AnnealConfig(temperature=20.0, epsilon=0.5),
        lr=schedule,
        seed=seed,
        holdout_fraction=0.0,
    )
    return run(cfg, dataset=data)


# ---------------------------------------------------------------------------
# biased-device classification scenario (criteria 6 and 7)

CLS_OBJ = Objective("multinomial_logistic", 8, reg=0.05, n_classes=3)
CLS_PART = PartitionSpec(
    n=100, mean_size=30.0, size_var=100.0, max_labels_per_device=3, seed=77, pure_count=30
)
CLS_SEEDS = 10
CLS_ROUNDS = 60


@pytest.fixture(scope="module")
def classification_pool():
    return make_blobs(4000, 8, 3, separation=1.1, cluster_std=1.4, seed=31)


def run_classification(data, algo, seed, alpha, gap_scale=None):
    cfg = SimConfig(
        objective=CLS_OBJ,
        partition=CLS_PART,
        selected_per_round=100,
        rounds=CLS_ROUNDS,
        local_epochs=2,
        algorithm=algo,
        anneal=AnnealConfig(temperature=80.0, epsilon=0.3),
        gate=GateConfig(gap_scale=gap_scale) if gap_scale else None,
        lr=LrSchedule("constant", alpha),
        seed=seed,
        holdout_fraction=0.2,
    )
    return run(cfg, dataset=data)


# ---------------------------------------------------------------------------


def test_criterion_1_toy_goldens():
    started = time.perf_counter()
    toy = Objective("lasso", 2, reg=1.0)
    shard_a = Dataset(np.array([[0.25, 0.0]]), np.array([-1.0]))
    shard_b = Dataset(np.array([[0.0, 1.5]]), np.array([1.0]))

    w_a = optimum_oracle(toy, shard_a)
    w_b = optimum_oracle(toy, shard_b)
    w_star = optimum_oracle(toy, Shards.pool([shard_a, shard_b]).data)
    assert w_a.tolist() == [0.0, 0.0]
    assert w_b.tolist() == [0.0, 4.0 / 9.0]
    assert w_star.tolist() == [0.0, 4.0 / 9.0]

    cfg = SimConfig(
        objective=toy,
        partition=PartitionSpec(n=2, mean_size=1.0, seed=1),
        selected_per_round=2,
        rounds=1,
        algorithm="fedavg",
        weight_scheme=WeightScheme("uniform"),
        local_solver="oracle",
        seed=3,
        holdout_fraction=0.0,
    )
    res = run(cfg, shards=[shard_a, shard_b])
    gap = abs(float(np.linalg.norm(res.w_star - res.server.global_params)) - 2.0 / 9.0)
    assert gap < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, True, f"toy optima exact, one-round average sits 2/9 from optimum ({elapsed:.2f}s < 1s)")


def test_criterion_2_fedavg_reduction(regression_pool):
    started = time.perf_counter()
    part = PartitionSpec(n=10, mean_size=12.0, size_var=0.0, max_labels_per_device=1, seed=55)

    def cfg(algo, anneal):
        return SimConfig(
            objective=REG_OBJ,
            partition=part,
            selected_per_round=10,
            rounds=20,
            algorithm=algo,
            anneal=anneal,
            lr=LrSchedule("inverse", 1.5),
            seed=77,
            holdout_fraction=0.0,
        )

    res_f = run(cfg("fedavg", AnnealConfig(temperature=10.0, epsilon=0.5)), dataset=regression_pool)
    res_s = run(cfg("safl", AnnealConfig(temperature=3.0, epsilon=1.0)), dataset=regression_pool)
    same_records = all(
        a.mse == b.mse and a.accuracy == b.accuracy and a.uploads == b.uploads
        for a, b in zip(res_f.records, res_s.records)
    )
    same_models = np.array_equal(res_f.devices.params, res_s.devices.params)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, same_records and same_models, f"unit blend weight reproduces plain averaging bitwise over 20 rounds ({elapsed:.2f}s < 5s)")


def test_criterion_3_local_only_limit(regression_pool):
    part = PartitionSpec(n=6, mean_size=10.0, size_var=0.0, max_labels_per_device=1, seed=41)
    cfg = SimConfig(
        objective=REG_OBJ,
        partition=part,
        selected_per_round=6,
        rounds=30,
        algorithm="safl",
        anneal=AnnealConfig(temperature=1e9, epsilon=0.0, mask_mode="scalar"),
        lr=LrSchedule("inverse", 1.5),
        seed=19,
        holdout_fraction=0.0,
    )
    matches = []

    def observer(record, server, devices, extras):
        for k in extras["selected"]:
            matches.append(np.array_equal(devices.params[k], extras["locals"][k]))

    run(cfg, dataset=regression_pool, observer=observer)
    report(3, bool(matches) and all(matches), "zero blend weight with a cold schedule keeps every device on its local model")


def test_criterion_4_decaying_step_rate(regression_pool, regression_curvature):
    started = time.perf_counter()
    shards, mu, lam, sigma_sq_max = regression_curvature
    lo, hi = (2 - math.sqrt(2)) / mu, (2 + math.sqrt(2)) / mu
    alpha0 = 0.5 * (lo + hi)  # mid-window
    schedule = LrSchedule("inverse", alpha0)

    mses, inits = [], []
    w_star = None
    for k in range(REG_SEEDS):
        res = run_regression(regression_pool, REG_PART, schedule, REG_SEED_BASE + k)
        mses.append([r.mse for r in res.records])
        inits.append(res.init_params)
        w_star = res.w_star
    mses = np.array(mses)
    zeta = float(((np.stack(inits) - w_star) ** 2).sum(axis=2).mean(axis=0).max())
    c = corollary1_constant(alpha0, mu, sigma_sq_max, zeta)

    mean = mses.mean(axis=0)
    stderr = mses.std(axis=0, ddof=1) / math.sqrt(REG_SEEDS)
    rounds = np.arange(1, REG_ROUNDS + 1)
    bound = c / (rounds + 1.0)
    dominated = bool(np.all(mean - 3 * stderr <= bound))

    exponent, _ = fit_rate(mean)
    in_band = -1.4 <= exponent <= -0.7
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        4,
        dominated and in_band,
        f"mean error under c/(t+1) at all {REG_ROUNDS} rounds (c={c:.1f}), tail exponent {exponent:.2f} in [-1.4,-0.7] ({elapsed:.0f}s < 120s)",
    )


def test_criterion_5_constant_step_bound_and_network_size(regression_pool, regression_curvature):
    started = time.perf_counter()
    shards, mu, lam, sigma_sq_max = regression_curvature
    alpha = 0.5 / (2 * lam - mu)
    schedule = LrSchedule("constant", alpha)

    finals, inits = [], []
    w_star = None
    for k in range(REG_SEEDS):
        res = run_regression(regression_pool, REG_PART, schedule, REG_SEED_BASE + k)
        finals.append(res.records[-1].mse)
        inits.append(res.init_params)
        w_star = res.w_star
    inputs = measure_bound_inputs(
        REG_OBJ,
        shards,
        np.stack(inits),
        w_star,
        np.full(REG_PART.n, 1.0 / REG_PART.n),
        alpha=alpha,
        epsilon=0.5,
        local_iterations=12,
    )
    bound_500 = theorem1_bound(inputs, REG_ROUNDS)
    mean_final = float(np.mean(finals))
    bounded = mean_final <= bound_500

    # noise floor shrinks with the device count (same pool, same shard sizes)
    pool = make_linear_regression(1200, 10, feature_scale=0.15, coef_scale=10.0, seed=43)
    floors = {}
    for n in (5, 20, 80):
        part_n = PartitionSpec(n=n, mean_size=12.0, size_var=0.0, max_labels_per_device=1, seed=202)
        shards_n = [pool.subset(tr) for tr in partition_with_holdout(pool, part_n, 0.0)[0]]
        bounds_n = [curvature(REG_OBJ, sh) for sh in shards_n]
        alpha_n = 0.5 / (2 * max(b.lam for b in bounds_n) - min(b.mu for b in bounds_n))
        tails = []
        for k in range(REG_SEEDS):
            res = run_regression(pool, part_n, LrSchedule("constant", alpha_n), 4000 + k, rounds=100)
            tails.append(np.mean([r.mse for r in res.records[50:]]))
        floors[n] = float(np.mean(tails))
    trend = floors[80] <= floors[20] <= floors[5]

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    report(
        5,
        bounded and trend,
        f"final error {mean_final:.3e} under the constant-step bound {bound_500:.3e}; "
        f"floors {floors[5]:.2e} >= {floors[20]:.2e} >= {floors[80]:.2e} for n=5,20,80 ({elapsed:.0f}s < 180s)",
    )


def test_criterion_6_gated_upload_saving(classification_pool):
    started = time.perf_counter()
    n_total = CLS_PART.n * CLS_ROUNDS
    alpha, gap_scale = 0.1, 0.1

    safl_finals = []
    for k in range(CLS_SEEDS):
        res = run_classification(classification_pool, "safl", 9000 + k, alpha)
        safl_finals.append(res.records[-1].mse)
        assert sum(r.uploads for r in res.records) == n_total  # ungated cost

    ext_finals, totals = [], []
    for k in range(CLS_SEEDS):
        res = run_classification(classification_pool, "safl_extended", 9000 + k, alpha, gap_scale=gap_scale)
        assert all(r.uploads <= CLS_PART.n for r in res.records)
        totals.append(sum(r.uploads for r in res.records))
        ext_finals.append(res.records[-1].mse)

    always_bounded = all(t <= n_total for t in totals)
    mean_fraction = float(np.mean(totals)) / n_total
    saving_ok = mean_fraction <= 0.85
    ratio = float(np.mean(ext_finals)) / float(np.mean(safl_finals))
    quality_ok = ratio <= 1.05

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    report(
        6,
        always_bounded and saving_ok and quality_ok,
        f"uploads always <= {n_total}, mean {mean_fraction:.1%} of ungated (saving {1 - mean_fraction:.1%}), "
        f"final-error ratio {ratio:.3f} <= 1.05 ({elapsed:.0f}s < 180s)",
    )


def test_criterion_7_annealed_mixing_beats_plain_averaging(classification_pool):
    # aggressive constant rate: plain averaging orbits on reset noise while the
    # annealed blend damps it; compare first rounds at which the error dips
    # under the threshold (runs that never reach it count as rounds+1)
    alpha, threshold = 0.3, 0.028

    def rounds_to_threshold(algo):
        out = []
        for k in range(CLS_SEEDS):
            res = run_classification(classification_pool, algo, 9000 + k, alpha)
            series = np.array([r.mse for r in res.records])
            hit = np.nonzero(series <= threshold)[0]
            out.append(int(hit[0]) + 1 if hit.size else CLS_ROUNDS + 1)
        return out

    fed = rounds_to_threshold("fedavg")
    saf = rounds_to_threshold("safl")
    med_f, med_s = float(np.median(fed)), float(np.median(saf))
    report(
        7,
        med_s < med_f,
        f"median rounds to error {threshold}: annealed {med_s:g} vs plain {med_f:g} "
        f"(plain unreached in {sum(r > CLS_ROUNDS for r in fed)}/{CLS_SEEDS} seeds)",
    )


def test_criterion_8_statistical_mask_and_gate():
    n = 100_000
    p, eps = 0.4, 0.3
    draws = sample_mask(np.random.default_rng(606).random((1, n)), p, eps, n)
    expected = eps * p + 1 - p
    sigma = math.sqrt(p * (1 - p)) * (1 - eps) / math.sqrt(n)
    mask_ok = abs(float(draws.mean()) - expected) <= 3 * sigma

    q = 0.5
    rng = np.random.default_rng(707)
    rate = sum(decide_upload(q, rng) for _ in range(n)) / n
    gate_ok = abs(rate - q) <= 3 * math.sqrt(q * (1 - q) / n)
    report(8, mask_ok and gate_ok, f"mask mean {draws.mean():.4f}~{expected:.4f}, upload rate {rate:.4f}~{q} (3 sigma)")


def test_criterion_9_thread_count_never_changes_output(tmp_path):
    doc = {
        "name": "acceptance-threads",
        "data": {"kind": "linear", "samples": 150, "dim": 6, "feature_scale": 0.2, "coef_scale": 5.0, "seed": 3},
        "objective": {"kind": "ridge", "reg": 1.0},
        "partition": {"mean_size": 10, "size_var": 0.0, "max_labels_per_device": 1, "seed": 7},
        "n": 12,
        "s": 12,
        "T": 15,
        "E": 1,
        "lr": {"kind": "inverse", "value": 1.8},
        "anneal": {"temperature": 8.0, "epsilon": 0.4},
        "holdout_fraction": 0.0,
        "variants": ["fedavg", "safl"],
        "seeds": [1, 2, 3],
    }
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(doc))
    # pytest's pythonpath setting reaches only its own process, so each
    # child is pointed at this tree's src/ too
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    blobs = {}
    # the second process runs safl alone, with a leftover thread-count
    # variable that the runner ignores; the third runs seed 2 alone.  All
    # jobs advance in lockstep, so each of these changes which jobs share a
    # kernel call, and none may change a job's rows
    for label, extra, env in (
        ("all", [], base),
        ("safl", ["--variants", "safl"], dict(base, SAFL_SIM_THREADS="3")),
        ("seed2", ["--seed-override", "2"], base),
    ):
        out = tmp_path / f"out_{label}"
        proc = subprocess.run(
            [sys.executable, "-m", "safl_sim.cli", "run", "--config", str(config), "--out", str(out), "--quiet", *extra],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs[label] = (out / "safl.csv").read_bytes()
    report(9, blobs["all"] == blobs["safl"], "safl.csv byte-identical run alongside fedavg and run alone")
    header, *rows = blobs["all"].decode().splitlines(keepends=True)
    seed2 = "".join([header] + [row for row in rows if row.startswith("safl,2,")])
    report(9, blobs["seed2"].decode() == seed2, "safl.csv rows of seed 2 identical run alongside seeds 1 and 3 and run alone")
