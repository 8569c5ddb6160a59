"""Tests for the epoch-doubling policies and the UCB1 baseline."""

import numpy as np
import pytest

from repmab.algorithms import (
    ConfigError,
    _solve_optimistic,
    ceil_log2,
    epoch_budget,
    make_policy,
    mixing_coefficient,
)
from repmab.environment import instance_from_dict, solve_oracle
from repmab.harness import run_trial
from repmab.polytope import SimplexPolytopeLP
from repmab.randomness import RandomSource


def small_spec(**overrides):
    payload = {
        "K": 3,
        "m": 1,
        "reward_means": [0.8, 0.5, 0.2],
        "cost_means": [[0.7, 0.4, 0.1]],
        "thresholds": [0.5],
        "horizon": 600,
    }
    payload.update(overrides)
    return instance_from_dict(payload)


def epoch_start_counts(log, h):
    """Pull counts at the first round of epoch h, recomputed from the raw
    action sequence (independent of the policy's own bookkeeping)."""
    t_start = log.epochs[h].t_start
    counts = np.zeros(int(log.actions.max()) + 2, dtype=int)
    for a in log.actions[: t_start - 1]:
        counts[a] += 1
    return counts


def test_ceil_log2_exact():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(5) == 3
    assert ceil_log2(8) == 3
    assert ceil_log2(100) == 7
    assert ceil_log2(10_000) == 14


def test_parameter_split_validation():
    spec = small_spec()
    xi = RandomSource(0)
    oracle = solve_oracle(spec)
    with pytest.raises(ConfigError):
        make_policy("debora", spec, 100, 0.3, 0.5, xi, oracle)
    with pytest.raises(ConfigError):
        make_policy("nope", spec, 100, 0.05, 0.2, xi, oracle)


def test_debora_first_epoch_plays_arm_zero():
    spec = small_spec(m=0, cost_means=[], thresholds=[])
    log = run_trial(spec, "debora", 1, 2, delta=0.05, rho=0.2, horizon=50)
    assert log.actions[0] == 0
    assert np.array_equal(log.epochs[0].x, [1.0, 0.0, 0.0])


def test_debora_epoch_start_counts_double():
    spec = small_spec(m=0, cost_means=[], thresholds=[])
    log = run_trial(spec, "debora", 11, 22, delta=0.05, rho=0.2, horizon=1000)
    # for every arm, its epoch-start count over the epochs that follow
    # one of its selections runs 1, 2, 4, 8, ...
    per_arm = {}
    for h in range(1, len(log.epochs)):
        prev_arm = int(np.argmax(log.epochs[h - 1].x))
        counts = epoch_start_counts(log, h)
        per_arm.setdefault(prev_arm, []).append(int(counts[prev_arm]))
    for arm, seq in per_arm.items():
        assert seq == [2**i for i in range(len(seq))]


def test_debora_epoch_budget_k2():
    spec = instance_from_dict(
        {
            "K": 2,
            "m": 0,
            "reward_means": [0.8, 0.4],
            "cost_means": [],
            "thresholds": [],
            "horizon": 100,
        }
    )
    log = run_trial(spec, "debora", 5, 6, delta=0.05, rho=0.2)
    assert log.epoch_count <= 2 * ceil_log2(100) == 14


def test_debora_estimate_freshness():
    spec = small_spec(m=0, cost_means=[], thresholds=[])
    log = run_trial(spec, "debora", 3, 4, delta=0.05, rho=0.2, horizon=500)
    for h in range(1, len(log.epochs)):
        prev_arm = int(np.argmax(log.epochs[h - 1].x))
        changed = np.flatnonzero(log.epochs[h].r_hat != log.epochs[h - 1].r_hat)
        assert set(changed.tolist()) <= {prev_arm}


def test_doubling_discipline_from_actions():
    spec = small_spec()
    for algo in ("debora-s", "debora-h"):
        log = run_trial(spec, algo, 7, 8, delta=0.05, rho=0.2, horizon=600)
        for h in range(1, len(log.epochs)):
            start = epoch_start_counts(log, h)
            prev = epoch_start_counts(log, h - 1)
            caps = np.maximum(2 * prev, 1)
            k = spec.k
            assert np.all(start[:k] <= caps[:k])
            assert np.any(start[:k] == caps[:k])  # the trigger arm


def test_debora_s_initial_strategy_is_arm_zero(reference_soft):
    log = run_trial(reference_soft, "debora-s", 1, 2, delta=0.05, rho=0.2, horizon=100)
    assert np.array_equal(log.epochs[0].x, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_optimistic_strategy_lp_example():
    x, fallback = _solve_optimistic(
        SimplexPolytopeLP(np.array([0.9, 0.5]), np.array([[0.8, 0.2]]), np.array([0.5]))
    )
    assert not fallback
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)


def test_optimistic_strategy_fallback_on_empty_region():
    x, fallback = _solve_optimistic(
        SimplexPolytopeLP(np.array([0.9, 0.5]), np.array([[1.0, 1.0]]), np.array([0.5]))
    )
    assert fallback
    assert np.array_equal(x, [1.0, 0.0])


def test_mixing_coefficient_hand_value():
    sigma = mixing_coefficient(
        np.array([0.9]), np.array([0.5]), np.array([0.2])
    )
    assert sigma == pytest.approx(0.4 / 0.6)


def test_mixing_coefficient_no_risk():
    sigma = mixing_coefficient(
        np.array([0.4, 0.3]), np.array([0.5, 0.5]), np.array([0.2, 0.2])
    )
    assert sigma == 0.0


def test_mixing_coefficient_caps_costs_at_one():
    sigma = mixing_coefficient(np.array([3.7]), np.array([0.5]), np.array([0.5]))
    assert sigma == pytest.approx(0.5 / 1.0)


def test_debora_h_initial_sigma_formula(hard_slater, hard_slater_oracle):
    log = run_trial(hard_slater, "debora-h", 9, 10, delta=0.05, rho=0.2, horizon=200)
    margins = hard_slater.thresholds - hard_slater_oracle.lam
    expected = np.max((1.0 - hard_slater.thresholds) / (1.0 - hard_slater.thresholds + margins))
    assert log.epochs[0].sigma == pytest.approx(float(expected))


def test_debora_h_sigma_bounded(hard_slater, hard_slater_oracle):
    cap = 1.0 / (1.0 + hard_slater_oracle.lambda_min)
    for seed in range(5):
        log = run_trial(
            hard_slater, "debora-h", seed, 100 + seed, delta=0.05, rho=0.2, horizon=2000
        )
        for record in log.epochs:
            assert 0.0 <= record.sigma <= cap


def test_debora_h_sigma_cap_margin_point_two():
    # worst-case margin 0.2 pins the cap at 1/1.2
    spec = instance_from_dict(
        {
            "K": 2,
            "m": 1,
            "reward_means": [0.8, 0.4],
            "cost_means": [[0.8, 0.3]],
            "thresholds": [0.5],
            "horizon": 1500,
        }
    )
    oracle = solve_oracle(spec)
    assert oracle.lambda_min == pytest.approx(0.2, abs=1e-9)
    log = run_trial(spec, "debora-h", 4, 5, delta=0.05, rho=0.2)
    assert all(rec.sigma <= 1.0 / 1.2 + 1e-12 for rec in log.epochs)


def test_debora_h_rejects_zero_margin():
    spec = instance_from_dict(
        {
            "K": 2,
            "m": 1,
            "reward_means": [0.8, 0.4],
            "cost_means": [[0.5, 0.5]],
            "thresholds": [0.5],
            "horizon": 100,
        }
    )
    with pytest.raises(ConfigError, match="strictly feasible"):
        run_trial(spec, "debora-h", 1, 2, delta=0.05, rho=0.2)


def test_debora_h_without_constraints_mixes_nothing():
    spec = small_spec(m=0, cost_means=[], thresholds=[])
    log = run_trial(spec, "debora-h", 1, 2, delta=0.05, rho=0.2, horizon=300)
    assert all(record.sigma == 0.0 for record in log.epochs)


def test_epoch_budget_across_variants(reference_soft):
    budget = epoch_budget(reference_soft.k, 2000)
    for algo in ("debora", "debora-s", "debora-h"):
        log = run_trial(reference_soft, algo, 21, 42, delta=0.05, rho=0.2, horizon=2000)
        assert log.epoch_count <= budget


def test_ucb1_round_robin_start():
    spec = small_spec(m=0, cost_means=[], thresholds=[])
    log = run_trial(spec, "ucb1", 1, 2, delta=0.05, rho=0.2, horizon=50)
    assert log.actions[:3].tolist() == [0, 1, 2]


def test_ucb1_replay_deterministic():
    spec = small_spec()
    a = run_trial(spec, "ucb1", 1, 2, delta=0.05, rho=0.2, horizon=300)
    b = run_trial(spec, "ucb1", 1, 2, delta=0.05, rho=0.2, horizon=300)
    assert a.equals(b)


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h"])
def test_offset_uniforms_match_labeled_streams(reference_soft, algo):
    """A close's grid offsets are the first uniforms of the labels
    (offset-reward, h, a) and (offset-cost, h, a, i); estimates that snap
    to their cap do not show them, so they are checked directly.  The
    epochs straddle the offset blocks' edges, and the last one returns to
    a block left earlier, so a stale or misaligned block shows."""
    from repmab.algorithms import make_policy
    from repmab.environment import solve_oracle
    from repmab.randomness import RandomSource, StreamLabel

    xi = RandomSource(2**63 + 17)
    policy = make_policy(algo, reference_soft, 1000, 0.05, 0.2, xi, solve_oracle(reference_soft))
    arms = np.array([4, 0, 2])
    for h in (1, 63, 64, 65, 127, 128, 2**40, 64):
        policy.state.h = h
        grid = policy._offset_uniforms(arms)
        assert grid.shape == (policy.m + 1, arms.size)
        for j, a in enumerate(arms.tolist()):
            label = StreamLabel("offset-reward", epoch=h, arm=a)
            assert grid[0, j] == xi.derive_stream(label).next_uniform()
            for i in range(policy.m):
                label = StreamLabel("offset-cost", epoch=h, arm=a, cons=i)
                assert grid[i + 1, j] == xi.derive_stream(label).next_uniform()


def test_debora_h_sigma_cap_holds_at_tiny_margins():
    """With margins near 1e-6 the LP's objective value exceeded the worst
    margin of the returned strategy by rounding, and the first
    selection tripped the sigma cap on a valid instance."""
    from repmab.environment import InstanceSpec, solve_oracle

    spec = InstanceSpec(
        reward_means=np.array([0.0, 0.0]),
        cost_means=np.array([[0.0, 1.0], [1e-10, 0.0]]),
        thresholds=np.array([5.00001e-01, 1.00005e-06]),
        horizon=1,
    )
    oracle = solve_oracle(spec)
    assert oracle.lambda_min == float(np.min(spec.thresholds - oracle.lam))
    log = run_trial(spec, "debora-h", 0, 0, delta=0.05, rho=0.2, oracle=oracle)
    assert 0.0 < log.epochs[0].sigma <= 1.0 / (1.0 + oracle.lambda_min)


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h"])
def test_close_epoch_guards(reference_soft, algo):
    """A close refuses an epoch in which some arm overshot its doubling
    target, and an epoch index past the budget K * ceil(log2(T))."""
    horizon = 1000
    oracle = solve_oracle(reference_soft)

    def policy():
        return make_policy(algo, reference_soft, horizon, 0.05, 0.2, RandomSource(1), oracle)

    overshot = policy()
    overshot.state.counts = overshot.targets + 1
    with pytest.raises(RuntimeError, match="doubling discipline violated"):
        overshot.close_epoch()

    last = policy()
    last.state.h = epoch_budget(reference_soft.k, horizon)
    with pytest.raises(RuntimeError, match="exceeded budget"):
        last.close_epoch()
