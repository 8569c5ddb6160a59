"""Tests for instance validation, feedback sampling, and oracle programs."""

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
    solve_oracle,
)
from repmab.randomness import RandomSource, field_words, finish_uniforms


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
    rewards, costs = feedback_tables(spec, RandomSource(4), 49)
    assert (rewards[:, 0] == 1.0).all()
    assert costs.size == 0
    assert (rewards[:, 1] == 0.0).all()


def test_monte_carlo_mean():
    spec = make_spec([0.5], [], [], horizon=100_000)
    rewards, _ = feedback_tables(spec, RandomSource(8), 100_000)
    assert abs(rewards[:, 0].mean() - 0.5) < 0.01


@pytest.mark.parametrize(
    "reward, costs, thresholds, message",
    [
        pytest.param([], [], [], "reward_means must be a nonempty vector$", id="no arms"),
        pytest.param([0.5, 0.5], [[0.5, 0.5, 0.5]], [0.5],
                     r"cost_means must be an m x 2 matrix, got shape \(1, 3\)$", id="cost width"),
        pytest.param([0.5, 0.5], [[0.5, 0.5]], [0.5, 0.5],
                     r"thresholds must have one entry per constraint, got \(2,\)$", id="threshold count"),
        pytest.param([0.5, 0.5], [[0.9, 0.8]], [0.5],
                     "instance rejected: safe set is empty$", id="empty safe set"),
    ],
)
def test_directly_built_instance_is_rejected(reward, costs, thresholds, message):
    """An ``InstanceSpec`` built without ``instance_from_dict`` gets its
    shape errors from the constructor, and an empty safe set, which only
    ``instance_from_dict`` checks up front, from ``solve_oracle``."""
    with pytest.raises(ValidationError, match=message):
        solve_oracle(InstanceSpec(reward, costs, thresholds, horizon=10))


def test_oracle_unconstrained_argmax():
    oracle = solve_oracle(make_spec([0.9, 0.5], [], []))
    assert np.array_equal(oracle.x_star, [1.0, 0.0])
    assert oracle.opt_value == pytest.approx(0.9)
    assert oracle.lam.size == 0
    assert oracle.lambda_min == np.inf


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
    """Out-of-range means and thresholds are reported as the numbers
    they are (1.5, nan), never as numpy reprs such as np.float64(1.5)."""
    with pytest.raises(ValidationError) as info:
        make_spec([0.5, 1.5], [], [])
    assert str(info.value) == "reward_means[1] = 1.5 outside [0, 1]"
    with pytest.raises(ValidationError) as info:
        make_spec([0.5, 0.5], [[0.5, float("nan")]], [-0.25])
    assert str(info.value) == (
        "cost_means[0][1] = nan outside [0, 1]\nthresholds[0] = -0.25 outside [0, 1]"
    )
    with pytest.raises(ValidationError, match="horizon"):
        make_spec([0.5], [], [], horizon=0)


@pytest.mark.parametrize(
    "horizon, message",
    [
        pytest.param(
            10**400, "below 2**53, got 1" + "0" * 39 + "... (401 characters)", id="10**400"
        ),
        pytest.param(10**5000, "below 2**53, got <an int of 16610 bits>", id="10**5000"),
        pytest.param(
            [10**5000], "a positive integer, got <a list too large to print>", id="[10**5000]"
        ),
    ],
)
def test_instance_shows_an_oversized_horizon_in_short(horizon, message):
    """A horizon past the interpreter's 4300-digit limit for printing an
    int still gets the horizon message, shown by its size, and a list
    holding one by its type; a long one that prints is cut to its first
    40 characters and its length."""
    with pytest.raises(ValidationError) as info:
        make_spec([0.5], [], [], horizon=horizon)
    assert str(info.value) == f"horizon must be {message}"


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


@pytest.mark.parametrize(
    "value, text",
    [
        pytest.param(True, "True", id="True"),
        pytest.param("0.5", "'0.5'", id="0.5"),
        pytest.param(10**400, "1" + "0" * 39 + "... (401 characters)", id="10**400"),
    ],
)
@pytest.mark.parametrize(
    "key, where", [("reward_means", "[1]"), ("cost_means", "[0][1]"), ("thresholds", "[0]")]
)
def test_from_dict_rejects_non_numeric_means(key, where, value, text):
    """JSON booleans and strings are not means, though numpy would read
    them as 1.0 and 0.5, and an integer too large for a float is not
    one either (numpy would raise OverflowError); a long value is shown
    by its first 40 characters and its length."""
    payload = {
        "K": 2,
        "m": 1,
        "reward_means": [0.5, 0.5],
        "cost_means": [[0.1, 0.5]],
        "thresholds": [0.5],
        "horizon": 10,
    }
    entries = payload[key][0] if key == "cost_means" else payload[key]
    entries[-1] = value
    with pytest.raises(ValidationError) as info:
        instance_from_dict(payload)
    assert str(info.value) == f"instance.{key}{where} must be a number, got {text}"


def test_load_instance_reports_json_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "K": 2,\n  "m": oops\n}\n')
    with pytest.raises(ValidationError, match=r"bad\.json:3:\d+"):
        load_instance(bad)


def test_spec_arrays_immutable(reference_soft):
    with pytest.raises(ValueError):
        reference_soft.reward_means[0] = 0.1


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
    realization tables at [t-1, a]."""
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


def _near(kind, value):
    """``value`` or one of its float neighbours, kept inside [0, 1]."""
    if kind == 0:
        return value
    nxt = np.nextafter(value, 1.0 if kind > 0 else 0.0)
    return float(nxt) if 0.0 <= nxt <= 1.0 else value


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    m=st.integers(0, 2),
    horizon=st.integers(1, 8),
    env_seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_threshold_draw_equals_uniform_compare(k, m, horizon, env_seed, data):
    """``FeedbackStreams.draw``, an integer compare of the 53-bit word
    against ceil(μ · 2^53), realizes exactly ``u < μ`` for the signal's
    uniform u, also at means on or next to j / 2^53 and to u itself; an
    arm array of shape (1,) drawn against (T,) round words equals the
    draw of that arm repeated T times."""
    env = RandomSource(env_seed)
    words = field_words(np.arange(1, horizon + 1), "rnd")
    zeros = np.zeros((m, k))
    states = FeedbackStreams(make_spec(np.zeros(k), zeros, zeros.max(axis=1, initial=0.0)), env).states
    uniforms = finish_uniforms(states[:, None, :], words[:, None])  # (m+1, T, K)
    base = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0]),
        st.integers(0, 2**53).map(lambda j: j / 2.0**53),
        st.integers(0, horizon - 1).map(lambda t: ("round", t)),
    )

    def mean(signal, arm):
        value = data.draw(base)
        if isinstance(value, tuple):  # the uniform this signal reads at that round
            value = float(uniforms[signal, value[1], arm])
        return _near(data.draw(st.sampled_from([-1, 0, 1])), value)

    means = np.array([[mean(i, a) for a in range(k)] for i in range(m + 1)])
    costs = means[1:]
    spec = make_spec(means[0], costs, costs.max(axis=1, initial=0.0), horizon)
    streams = FeedbackStreams(spec, env)

    def old(arms, rnd_words):
        return finish_uniforms(states[:, arms], rnd_words) < means[:, arms]

    arm, t = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, horizon - 1))
    drawn = streams.draw(arm, words[t])
    assert drawn.shape == (m + 1,) and np.array_equal(drawn, old(arm, words[t]))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, horizon - 1)), min_size=1, max_size=12
    ))
    arms, rounds = (np.array(col) for col in zip(*pairs))
    assert np.array_equal(streams.draw(arms, words[rounds]), old(arms, words[rounds]))
    grid = streams.draw(np.arange(k)[None, :], words[:, None])
    assert grid.shape == (m + 1, horizon, k)
    assert np.array_equal(grid, old(np.arange(k)[None, :], words[:, None]))
    # one arm's (m+1, 1) columns against a run of round words, as a
    # one-arm epoch draws them
    assert np.array_equal(streams.draw(np.array([arm]), words), old(np.full(horizon, arm), words))
    # drawn into a float (m+1, T) table's columns lo..hi-1, as a trial
    # draws an epoch: the same signals as 0.0/1.0, the rest untouched
    lo, hi = sorted(data.draw(st.tuples(st.integers(0, horizon), st.integers(0, horizon))))
    per_round = data.draw(st.lists(st.integers(0, k - 1), min_size=hi - lo, max_size=hi - lo))
    for arms in (np.array([arm]), np.array(per_round, dtype=np.int64)):
        table = np.full((m + 1, horizon), 0.5)
        drawn = streams.draw(arms, words[lo:hi], out=table[:, lo:hi])
        assert drawn.dtype == np.float64 and drawn.base is table
        expected = streams.draw(arms, words[lo:hi])
        assert np.array_equal(table[:, lo:hi], expected.astype(np.float64))
        assert (np.delete(table, np.s_[lo:hi], axis=1) == 0.5).all()
    # drawn into a boolean (m+1, T) table, as a trial keeps its feedback:
    # one arm as a one-element array (a chunk that played one arm),
    # broadcast against the round words, or one arm per round
    pattern = np.arange((m + 1) * horizon).reshape(m + 1, horizon) % 3 == 0
    for arms in (np.array([arm], dtype=np.int32), np.array(per_round, dtype=np.int32)):
        table = pattern.copy()
        drawn = streams.draw(arms, words[lo:hi], out=table[:, lo:hi])
        assert drawn.dtype == bool and drawn.base is table
        played = np.broadcast_to(arms, hi - lo)
        assert np.array_equal(table[:, lo:hi], old(played, words[lo:hi]))
        rest = np.s_[lo:hi]
        assert np.array_equal(np.delete(table, rest, axis=1), np.delete(pattern, rest, axis=1))


def test_threshold_draw_at_the_uniform_itself():
    """A mean equal to the signal's uniform does not fire; the next float
    up does, and so does 1, while 0 never does."""
    env, k, m = RandomSource(2026), 3, 2
    word = field_words(5, "rnd")
    zeros = np.zeros((m, k))
    states = FeedbackStreams(make_spec(np.zeros(k), zeros, np.zeros(m)), env).states
    u = finish_uniforms(states, word)
    for means, fires in ((u, False), (np.nextafter(u, 0.0), False), (np.nextafter(u, 1.0), True),
                         (np.zeros_like(u), False), (np.ones_like(u), True)):
        spec = make_spec(means[0], means[1:], means[1:].max(axis=1))
        drawn = FeedbackStreams(spec, env).draw(np.arange(k), word)
        assert (drawn == fires).all()
