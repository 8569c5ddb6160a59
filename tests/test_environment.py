"""Tests for instance validation, feedback sampling, and oracle programs."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repmab.environment import (
    FeedbackStreams,
    InstanceSpec,
    ValidationError,
    feedback_tables,
    instance_from_dict,
    instant_regret,
    instant_violation,
    load_instance,
    sample_feedback,
    solve_oracle,
)
from repmab.randomness import RandomSource, field_words


def make_spec(reward, costs, thresholds, horizon=100):
    costs = np.asarray(costs, dtype=float)
    if costs.size == 0:
        costs = costs.reshape(0, len(reward))
    return InstanceSpec(
        reward_means=np.asarray(reward, dtype=float),
        cost_means=costs,
        thresholds=np.asarray(thresholds, dtype=float),
        horizon=horizon,
    )


def test_degenerate_bernoulli_always_one():
    spec = make_spec([1.0, 0.0], [], [])
    env = RandomSource(4)
    for t in range(1, 50):
        reward, costs = sample_feedback(spec, 0, t, env)
        assert reward == 1.0
        assert costs.size == 0
        reward0, _ = sample_feedback(spec, 1, t, env)
        assert reward0 == 0.0


def test_monte_carlo_mean():
    spec = make_spec([0.5], [], [], horizon=100_000)
    rewards, _ = feedback_tables(spec, RandomSource(8), 100_000)
    assert abs(rewards[:, 0].mean() - 0.5) < 0.01


def test_feedback_tables_match_pointwise():
    spec = make_spec([0.6, 0.2], [[0.3, 0.9]], [0.5], horizon=20)
    env = RandomSource(77)
    rewards, costs = feedback_tables(spec, env, 20)
    for t in range(1, 21):
        for a in range(2):
            r, c = sample_feedback(spec, a, t, env)
            assert rewards[t - 1, a] == r
            assert costs[0, t - 1, a] == c[0]


def test_oracle_unconstrained_argmax():
    oracle = solve_oracle(make_spec([0.9, 0.5], [], []))
    assert np.array_equal(oracle.x_star, [1.0, 0.0])
    assert oracle.opt_value == pytest.approx(0.9)
    assert oracle.lam.size == 0
    assert oracle.lambda_min == np.inf
    assert np.array_equal(oracle.gaps, [0.0, 0.4])


def test_oracle_binding_constraint():
    oracle = solve_oracle(make_spec([0.9, 0.5], [[0.8, 0.2]], [0.5]))
    assert np.allclose(oracle.x_star, [0.5, 0.5], atol=1e-9)
    assert oracle.opt_value == pytest.approx(0.7, abs=1e-9)
    # max-min margin is attained at the pure second arm
    assert np.allclose(oracle.x_diamond, [0.0, 1.0], atol=1e-9)
    assert oracle.lam == pytest.approx([0.2], abs=1e-9)
    assert oracle.lambda_min == pytest.approx(0.3, abs=1e-9)


def test_oracle_x_star_feasible(hard_slater):
    oracle = solve_oracle(hard_slater)
    assert np.all(
        hard_slater.cost_means @ oracle.x_star <= hard_slater.thresholds + 1e-9
    )
    assert oracle.lambda_min > 0.1 - 1e-9


def _simplex_grid(k, step):
    """All grid points of the simplex with the given resolution."""
    ticks = int(round(1.0 / step))
    points = []

    def rec(prefix, remaining, depth):
        if depth == k - 1:
            points.append(prefix + [remaining])
            return
        for units in range(remaining + 1):
            rec(prefix + [units], remaining - units, depth + 1)

    rec([], ticks, 0)
    return np.asarray(points, dtype=float) * step


def test_max_margin_strategy_against_grid_search():
    # margins are 1-Lipschitz along the grid, so the LP optimum can beat
    # the best grid point by at most K * step
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        costs = rng.uniform(size=(m, k))
        anchor = rng.dirichlet(np.ones(k))
        thresholds = np.minimum(costs @ anchor + rng.uniform(0.05, 0.3, size=m), 1.0)
        spec = make_spec(rng.uniform(size=k), costs, thresholds)
        oracle = solve_oracle(spec)
        step = 0.02
        grid = _simplex_grid(k, step)
        margins = np.min(thresholds[None, :] - grid @ costs.T, axis=1)
        grid_best = float(margins.max())
        assert oracle.lambda_min >= grid_best - 1e-9
        assert oracle.lambda_min <= grid_best + k * step


def test_instant_regret_and_violation():
    spec = make_spec([0.9, 0.5], [[0.8, 0.2]], [0.5])
    oracle = solve_oracle(spec)
    assert instant_regret(spec, oracle, oracle.x_star) == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(
        instant_violation(spec, np.array([0.0, 1.0])), [0.0]
    )
    e0 = np.array([1.0, 0.0])
    assert instant_violation(spec, e0) == pytest.approx([0.3], abs=1e-12)


def test_instance_rejects_out_of_range():
    with pytest.raises(ValidationError, match=r"reward_means\[1\]"):
        make_spec([0.5, 1.5], [], [])
    with pytest.raises(ValidationError, match=r"thresholds\[0\]"):
        make_spec([0.5], [[0.5]], [1.5])
    with pytest.raises(ValidationError, match="horizon"):
        make_spec([0.5], [], [], horizon=0)


def test_from_dict_collects_problems():
    with pytest.raises(ValidationError) as err:
        instance_from_dict({"K": 2, "m": 0}, where="test")
    message = str(err.value)
    assert "missing required key 'reward_means'" in message
    assert "missing required key 'horizon'" in message

    with pytest.raises(ValidationError, match="unknown key"):
        instance_from_dict(
            {
                "K": 1,
                "m": 0,
                "reward_means": [0.5],
                "cost_means": [],
                "thresholds": [],
                "horizon": 10,
                "extra": 1,
            }
        )

    with pytest.raises(ValidationError, match=r"cost_means\[0\] must be a list"):
        instance_from_dict(
            {
                "K": 2,
                "m": 1,
                "reward_means": [0.5, 0.5],
                "cost_means": [[0.5]],
                "thresholds": [0.5],
                "horizon": 10,
            }
        )


def test_from_dict_rejects_empty_safe_set():
    with pytest.raises(ValidationError, match="safe set is empty"):
        instance_from_dict(
            {
                "K": 2,
                "m": 1,
                "reward_means": [0.5, 0.5],
                "cost_means": [[0.9, 0.8]],
                "thresholds": [0.5],
                "horizon": 10,
            }
        )


def test_loading_a_many_arm_instance_runs_no_lex_refine(monkeypatch):
    """The empty-safe-set check needs phase 1 only: with a zero objective
    every feasible vertex ties, and lex refinement would add K solves."""
    from repmab import polytope
    from repmab.polytope import SimplexPolytopeLP

    rng = np.random.default_rng(50)
    k, m = 50, 3
    costs = rng.uniform(0.05, 0.95, (m, k))
    payload = {
        "K": k,
        "m": m,
        "reward_means": rng.uniform(0.05, 0.95, k).tolist(),
        "cost_means": costs.tolist(),
        # the uniform strategy is strictly safe, the costliest arms are not
        "thresholds": (costs.mean(axis=1) + 0.05).tolist(),
        "horizon": 1000,
    }
    calls = []
    lex_refine = polytope._lex_refine

    def counted(*args, **kwargs):
        calls.append(args)
        return lex_refine(*args, **kwargs)

    monkeypatch.setattr(polytope, "_lex_refine", counted)
    spec = instance_from_dict(payload)
    assert calls == []
    # the zero-objective solve that the check replaces does lex-refine
    polytope.solve(SimplexPolytopeLP(np.zeros(k), spec.cost_means, spec.thresholds))
    assert len(calls) == 1


@pytest.mark.parametrize("key, value", [("K", True), ("m", False), ("horizon", True)])
def test_from_dict_rejects_json_booleans(key, value):
    payload = {
        "K": 1,
        "m": 0,
        "reward_means": [0.5],
        "cost_means": [],
        "thresholds": [],
        "horizon": 10,
    }
    payload[key] = value
    with pytest.raises(ValidationError, match=f"{key} must be"):
        instance_from_dict(payload)


def test_load_instance_reports_json_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "K": 2,\n  "m": oops\n}\n')
    with pytest.raises(ValidationError, match=r"bad\.json:3:\d+"):
        load_instance(bad)


def test_load_instance_roundtrip(tmp_path, reference_soft):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(reference_soft.to_dict()))
    again = load_instance(path)
    assert np.array_equal(again.reward_means, reference_soft.reward_means)
    assert np.array_equal(again.cost_means, reference_soft.cost_means)
    assert again.horizon == reference_soft.horizon


def test_spec_arrays_immutable(reference_soft):
    with pytest.raises(ValueError):
        reference_soft.reward_means[0] = 0.1


def test_sample_feedback_rejects_bad_arm():
    spec = make_spec([0.5, 0.5], [], [])
    with pytest.raises(ValueError, match="arm index"):
        sample_feedback(spec, 2, 1, RandomSource(0))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 4),
    m=st.integers(0, 2),
    horizon=st.integers(1, 12),
    env_seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
@example(k=1, m=0, horizon=1, env_seed=0, data=None)
def test_pair_feedback_is_the_table_entry(k, m, horizon, env_seed, data):
    """Feedback drawn for arbitrary (arm, round) pairs equals the full
    realization tables at [t-1, a], and so does sample_feedback."""
    rng = np.random.default_rng(env_seed % 2**32 + k + 10 * m)
    costs = rng.uniform(size=(m, k))
    spec = make_spec(rng.uniform(size=k), costs, costs.max(axis=1, initial=0.0), horizon)
    env = RandomSource(env_seed)
    rewards, cost_tab = feedback_tables(spec, env, horizon)
    if data is None:
        arms, rounds = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    else:
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(1, horizon)), min_size=1, max_size=20
        ))
        arms, rounds = (np.array(col) for col in zip(*pairs))
    drawn = FeedbackStreams(spec, env).draw(arms, field_words(rounds, "rnd"))
    assert drawn.shape == (m + 1, arms.size)
    assert np.array_equal(drawn[0], rewards[rounds - 1, arms])
    assert np.array_equal(drawn[1:], cost_tab[:, rounds - 1, arms])
    for a, t in zip(arms.tolist(), rounds.tolist()):
        reward, c = sample_feedback(spec, a, t, env)
        assert reward == rewards[t - 1, a]
        assert np.array_equal(c, cost_tab[:, t - 1, a])


def test_sample_feedback_rejects_bad_round():
    spec = make_spec([0.5, 0.5], [], [])
    with pytest.raises(ValueError, match="rnd"):
        sample_feedback(spec, 0, -1, RandomSource(0))
