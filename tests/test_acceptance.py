"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[AC-xx] PASS/FAIL`` line with the measured
quantities (run pytest with -s to see them on success).  Criteria 7 and
8 measure convergence behavior that the replicability-calibrated
confidence widths rule out at these horizons; they are implemented
exactly as stated and currently fail.  The analysis lives in the
project notes, and the other eight criteria are unaffected.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repmab.algorithms import ceil_log2, epoch_budget
from repmab.environment import (
    InstanceSpec,
    instance_from_dict,
    load_instance,
    solve_oracle,
)
from repmab.estimator import RepMeanParams, rep_mean
from repmab.harness import (
    run_replicability_experiment,
    run_trial,
    trial_seeds,
)
from repmab.polytope import SimplexPolytopeLP, brute_force_optimum, solve
from repmab.randomness import RandomSource, StreamLabel, first_uniforms

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "instances"

RHO = 0.2
DELTA = 0.05


def report(tag: str, ok: bool, detail: str) -> str:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def binomial_slack(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.fixture(scope="module")
def reference_soft():
    return load_instance(INSTANCE_DIR / "reference_soft.json")


@pytest.fixture(scope="module")
def reference_unconstrained():
    return load_instance(INSTANCE_DIR / "reference_unconstrained.json")


@pytest.fixture(scope="module")
def hard_slater():
    return load_instance(INSTANCE_DIR / "hard_slater.json")


@pytest.fixture(scope="module")
def three_arm_gaps():
    return load_instance(INSTANCE_DIR / "three_arm_gaps.json")


@pytest.fixture(scope="module")
def hard_runs(hard_slater):
    """200 hard-constraint trials shared by criteria 5, 6, and 9."""
    oracle = solve_oracle(hard_slater)
    logs = []
    for j in range(200):
        xi_seed, env_seed = trial_seeds(777, j)
        logs.append(
            run_trial(
                hard_slater,
                "debora-h",
                xi_seed,
                env_seed,
                delta=DELTA,
                rho=RHO,
                horizon=2000,
                oracle=oracle,
            )
        )
    return logs, oracle


@pytest.fixture(scope="module")
def soft_scaling_summaries(reference_soft):
    """Criterion 7 sweep; keeps only per-run summaries to bound memory."""
    oracle = solve_oracle(reference_soft)
    horizons = (2500, 10000, 40000)
    out = {T: {"regret": [], "violation": [], "clean": [], "contained": []} for T in horizons}
    for T in horizons:
        for j in range(50):
            xi_seed, env_seed = trial_seeds(4242 + T, j)
            log = run_trial(
                reference_soft,
                "debora-s",
                xi_seed,
                env_seed,
                delta=DELTA,
                rho=RHO,
                horizon=T,
                oracle=oracle,
            )
            out[T]["regret"].append(log.regret_total)
            out[T]["violation"].append(log.violation_total)
            out[T]["clean"].append(log.clean_all)
            out[T]["contained"].append(log.containment_ok)
    return out


def test_ac01_replicability_gate(reference_soft, reference_unconstrained):
    started = time.perf_counter()
    bound = RHO + binomial_slack(RHO, 200)
    rates = {}
    for algo, spec in (
        ("debora", reference_unconstrained),
        ("debora-s", reference_soft),
        ("debora-h", reference_soft),
    ):
        rep = run_replicability_experiment(
            spec,
            algo,
            rho=RHO,
            delta=DELTA,
            n_pairs=200,
            seed=20240801,
            horizon=10_000,
        )
        rates[algo] = rep.rate
    elapsed = time.perf_counter() - started
    ok = all(rate <= bound for rate in rates.values()) and elapsed <= 300.0
    detail = (
        f"mismatch rates {rates} vs bound {bound:.4f}; runtime {elapsed:.1f}s"
    )
    line = report("AC-01", ok, detail)
    assert ok, line


def _random_instance(rng) -> InstanceSpec:
    k = int(rng.integers(1, 7))
    m = int(rng.integers(0, 4))
    reward = rng.uniform(size=k)
    costs = rng.uniform(size=(m, k))
    anchor = rng.dirichlet(np.ones(k))
    thresholds = np.minimum(costs @ anchor + rng.uniform(0.05, 0.3, size=m), 1.0)
    horizon = int(rng.choice([1, 2, 3, 5, 17, 64, 300, 1024, 2048]))
    return instance_from_dict(
        {
            "K": k,
            "m": m,
            "reward_means": [round(v, 6) for v in reward.tolist()],
            "cost_means": [[round(v, 6) for v in row] for row in costs.tolist()],
            "thresholds": [round(v, 6) for v in thresholds.tolist()],
            "horizon": horizon,
        }
    )


def test_ac02_epoch_bound_randomized():
    rng = np.random.default_rng(20240802)
    algos = ("debora", "debora-s", "debora-h")
    violations = 0
    runs = 0
    worst = 0.0
    for i in range(1000):
        spec = _random_instance(rng)
        algo = algos[i % 3]
        oracle = solve_oracle(spec)
        if algo == "debora-h" and spec.m > 0 and not oracle.lambda_min > 0:
            algo = "debora-s"
        xi_seed = int(rng.integers(0, 2**63))
        env_seed = int(rng.integers(0, 2**63))
        log = run_trial(
            spec, algo, xi_seed, env_seed, delta=DELTA, rho=RHO, oracle=oracle
        )
        runs += 1
        budget = epoch_budget(spec.k, spec.horizon)
        if log.epoch_count > budget:
            violations += 1
        if budget > 0:
            worst = max(worst, log.epoch_count / budget)
    ok = violations == 0 and runs == 1000
    line = report(
        "AC-02", ok, f"{runs} runs, {violations} budget violations, max H/budget {worst:.3f}"
    )
    assert ok, line


def test_ac03_estimator_guarantees():
    epsilon, delta_p, rho_p = 0.1, 0.05, 0.2
    n = math.ceil(
        2.0 * math.log(2.0 / delta_p) / (epsilon**2 * (rho_p - 2.0 * delta_p) ** 2)
    )
    reps = 2000
    mean = 0.37
    rounds = np.arange(1, n + 1)
    master = RandomSource(20240803)
    mismatches = 0
    accuracy_failures = 0
    for rep in range(reps):
        xi_seed = master.derive_stream(StreamLabel("pair-xi", rnd=rep)).next_raw64()
        env_a = master.derive_stream(StreamLabel("pair-env", cons=0, rnd=rep)).next_raw64()
        env_b = master.derive_stream(StreamLabel("pair-env", cons=1, rnd=rep)).next_raw64()
        xi = RandomSource(xi_seed)
        label = StreamLabel("offset-reward", epoch=0, arm=0)
        params_a = RepMeanParams.draw(delta_p, rho_p, xi.derive_stream(label))
        params_b = RepMeanParams.draw(delta_p, rho_p, xi.derive_stream(label))
        samples_a = (
            first_uniforms(RandomSource(env_a), "env-reward", arm=0, rnd=rounds) < mean
        ).astype(np.float64)
        samples_b = (
            first_uniforms(RandomSource(env_b), "env-reward", arm=0, rnd=rounds) < mean
        ).astype(np.float64)
        out_a = rep_mean(samples_a, params_a)
        out_b = rep_mean(samples_b, params_b)
        if out_a != out_b:
            mismatches += 1
        if abs(out_a - mean) > epsilon:
            accuracy_failures += 1
    acc_rate = accuracy_failures / reps
    mis_rate = mismatches / reps
    acc_bound = delta_p + binomial_slack(delta_p, reps)
    mis_bound = rho_p + binomial_slack(rho_p, reps)
    ok = acc_rate <= acc_bound and mis_rate <= mis_bound
    line = report(
        "AC-03",
        ok,
        f"n={n}: accuracy failures {acc_rate:.4f} <= {acc_bound:.4f}, "
        f"mismatches {mis_rate:.4f} <= {mis_bound:.4f}",
    )
    assert ok, line


def test_ac04_lp_oracle_equivalence():
    rng = np.random.default_rng(20240804)
    cases = 0
    failures = 0
    while cases < 500:
        k = int(rng.integers(2, 5))
        m = int(rng.integers(0, 4))
        obj = rng.random(k)
        mat = rng.random((m, k))
        anchor = rng.dirichlet(np.ones(k))
        bnd = mat @ anchor + rng.random(m) * 0.2
        lp = SimplexPolytopeLP(obj, mat, bnd)
        x, value = solve(lp)
        _, value_bf = brute_force_optimum(lp)
        cases += 1
        feasible = (
            np.all(x >= -1e-9)
            and abs(float(np.sum(x)) - 1.0) <= 1e-9
            and (m == 0 or np.all(mat @ x <= bnd + 1e-9))
        )
        if abs(value - value_bf) > 1e-9 or not feasible:
            failures += 1
    ok = failures == 0
    line = report("AC-04", ok, f"500 random LPs, {failures} disagreements")
    assert ok, line


def test_ac05_hard_constraint_safety(hard_runs, hard_slater):
    logs, oracle = hard_runs
    assert oracle.lambda_min >= 0.1 - 1e-9
    clean_runs = [log for log in logs if log.clean_all]
    unsafe_in_clean = sum(log.unsafe_rounds for log in clean_runs)
    any_unsafe_rate = float(np.mean([log.any_unsafe for log in logs]))
    unsafe_bound = DELTA + binomial_slack(DELTA, len(logs))
    clean_flag_rate = float(np.mean([not log.clean_all for log in logs]))
    ok = (
        unsafe_in_clean == 0
        and any_unsafe_rate <= unsafe_bound
        and clean_flag_rate <= unsafe_bound
    )
    line = report(
        "AC-05",
        ok,
        f"{len(clean_runs)}/200 clean runs with {unsafe_in_clean} unsafe rounds; "
        f"any-unsafe rate {any_unsafe_rate:.4f} <= {unsafe_bound:.4f}; "
        f"clean-event flag rate {clean_flag_rate:.4f}",
    )
    assert ok, line


def test_ac06_sigma_bound(hard_runs):
    logs, oracle = hard_runs
    cap = 1.0 / (1.0 + oracle.lambda_min)
    sigmas = [rec.sigma for log in logs for rec in log.epochs]
    bad = sum(1 for s in sigmas if not (0.0 <= s <= cap))
    ok = bad == 0
    line = report(
        "AC-06",
        ok,
        f"{len(sigmas)} recorded coefficients in [0, {cap:.6f}], {bad} outside",
    )
    assert ok, line


def test_ac07_sublinearity_scaling(soft_scaling_summaries):
    means = {
        T: (
            float(np.mean(v["regret"])),
            float(np.mean(v["violation"])),
        )
        for T, v in soft_scaling_summaries.items()
    }
    ratios = {}
    for small, big in ((2500, 10000), (10000, 40000)):
        ratios[f"regret {big}/{small}"] = means[big][0] / means[small][0]
        ratios[f"violation {big}/{small}"] = means[big][1] / means[small][1]
    ok = all(r <= 3.0 for r in ratios.values())
    pretty = ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    line = report("AC-07", ok, f"means {means}; ratios {pretty} (need <= 3.0)")
    assert ok, line


def test_ac08_instance_dependent_convergence(three_arm_gaps):
    oracle = solve_oracle(three_arm_gaps)
    horizon = 50_000
    tenth = horizon // 10
    first, final = [], []
    for j in range(50):
        xi_seed, env_seed = trial_seeds(20240808, j)
        log = run_trial(
            three_arm_gaps,
            "debora",
            xi_seed,
            env_seed,
            delta=DELTA,
            rho=RHO,
            horizon=horizon,
            oracle=oracle,
        )
        first.append(float(np.mean(log.inst_regret[:tenth])))
        final.append(float(np.mean(log.inst_regret[-tenth:])))
    first_mean = float(np.mean(first))
    final_mean = float(np.mean(final))
    ratio = final_mean / first_mean
    ok = final_mean <= 0.2 * first_mean
    line = report(
        "AC-08",
        ok,
        f"per-round regret first 10% {first_mean:.4f}, final 10% {final_mean:.4f}, "
        f"ratio {ratio:.2f} (need <= 0.20)",
    )
    assert ok, line


def test_ac09_optimistic_set_contains_optimum(hard_runs, soft_scaling_summaries):
    logs, _ = hard_runs
    checked = 0
    failures = 0
    for log in logs:
        if log.clean_all:
            checked += 1
            if not log.containment_ok:
                failures += 1
    for summary in soft_scaling_summaries.values():
        for clean, contained in zip(summary["clean"], summary["contained"]):
            if clean:
                checked += 1
                if not contained:
                    failures += 1
    ok = failures == 0 and checked > 0
    line = report(
        "AC-09", ok, f"{checked} clean runs checked, {failures} containment failures"
    )
    assert ok, line


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repmab.cli", *args], capture_output=True, text=True
    )


def test_ac10_cli_determinism(tmp_path):
    instance = str(INSTANCE_DIR / "reference_soft.json")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"run-{name}"
        result = _cli(
            "run",
            "--instance",
            instance,
            "--algo",
            "debora-h",
            "--horizon",
            "400",
            "--trials",
            "2",
            "--seed",
            "17",
            "--out",
            str(out),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    run_same = outputs[0] == outputs[1]

    rep_outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"rep-{name}"
        result = _cli(
            "replicability",
            "--instance",
            instance,
            "--algo",
            "debora-s",
            "--pairs",
            "4",
            "--horizon",
            "400",
            "--seed",
            "23",
            "--out",
            str(out),
        )
        assert result.returncode == 0, result.stderr
        rep_outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    rep_same = rep_outputs[0] == rep_outputs[1]

    ok = run_same and rep_same
    line = report(
        "AC-10",
        ok,
        f"run outputs identical: {run_same}; replicability outputs identical: {rep_same}",
    )
    assert ok, line


def test_convergence_example_final_quarter(three_arm_gaps):
    """Contract example paired with criterion 8: with a unique best arm and
    large gaps, the final quarter should concentrate on it.  Fails for the
    same reason criterion 8 does; see the notes."""
    oracle = solve_oracle(three_arm_gaps)
    best = int(np.argmax(three_arm_gaps.reward_means))
    horizon = 10_000
    quarter = horizon * 3 // 4
    hits = 0
    for j in range(50):
        xi_seed, env_seed = trial_seeds(20240899, j)
        log = run_trial(
            three_arm_gaps,
            "debora",
            xi_seed,
            env_seed,
            delta=DELTA,
            rho=RHO,
            horizon=horizon,
            oracle=oracle,
        )
        share = float(np.mean(log.actions[quarter:] == best))
        if share >= 0.95:
            hits += 1
    ok = hits >= 48  # 95% of 50 runs, rounded up
    line = report(
        "AC-08b",
        ok,
        f"{hits}/50 runs played the best arm in >= 95% of the final quarter",
    )
    assert ok, line
