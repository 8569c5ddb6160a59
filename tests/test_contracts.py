"""Edge-of-contract checks: parameter splits, tiny instances,
cross-algorithm compatibility rules, and the names modules export."""

import importlib
import pkgutil
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import repmab
from repmab import harness
from repmab.algorithms import make_policy
from repmab.environment import FeedbackStreams, instance_from_dict, solve_oracle
from repmab.harness import run_trial
from repmab.randomness import RandomSource, round_words


def test_parameter_split_values_exact():
    spec = instance_from_dict(
        {
            "K": 4,
            "m": 0,
            "reward_means": [0.9, 0.7, 0.5, 0.3],
            "cost_means": [],
            "thresholds": [],
            "horizon": 1024,
        }
    )
    oracle = solve_oracle(spec)
    pol = make_policy("debora", spec, 1024, 0.05, 0.2, RandomSource(1), oracle)
    # split by 2 * K * ceil(log2 T) = 2 * 4 * 10
    assert pol.delta_prime == 0.05 / 80
    assert pol.rho_prime == 0.2 / 80

    spec2 = instance_from_dict(
        {
            "K": 4,
            "m": 2,
            "reward_means": [0.9, 0.7, 0.5, 0.3],
            "cost_means": [[0.1] * 4, [0.2] * 4],
            "thresholds": [0.5, 0.5],
            "horizon": 1024,
        }
    )
    oracle2 = solve_oracle(spec2)
    for name in ("debora-s", "debora-h"):
        pol2 = make_policy(name, spec2, 1024, 0.05, 0.2, RandomSource(1), oracle2)
        # split by 2 * (m+1) * K^2 * ceil(log2 T) = 2 * 3 * 16 * 10
        assert pol2.delta_prime == 0.05 / 960
        assert pol2.rho_prime == 0.2 / 960


def test_debora_on_constrained_instance_ignores_costs():
    spec = instance_from_dict(
        {
            "K": 2,
            "m": 1,
            "reward_means": [0.9, 0.1],
            "cost_means": [[0.9, 0.1]],
            "thresholds": [0.5],
            "horizon": 300,
        }
    )
    log = run_trial(spec, "debora", 1, 2, delta=0.05, rho=0.2)
    # it converges on the unsafe high-reward arm; violations are logged
    # but never enter its decisions
    assert log.violation_total >= 0.0
    assert log.epochs[-1].g_hat.shape == (0, 2)


def test_all_algorithms_run_single_arm():
    spec = instance_from_dict(
        {
            "K": 1,
            "m": 1,
            "reward_means": [0.6],
            "cost_means": [[0.2]],
            "thresholds": [0.5],
            "horizon": 64,
        }
    )
    for algo in ("debora", "debora-s", "debora-h", "ucb1"):
        log = run_trial(spec, algo, 3, 4, delta=0.05, rho=0.2)
        assert log.regret_total == 0.0
        assert np.all(log.actions == 0)


def test_single_round_horizon():
    spec = instance_from_dict(
        {
            "K": 3,
            "m": 0,
            "reward_means": [0.9, 0.5, 0.1],
            "cost_means": [],
            "thresholds": [],
            "horizon": 1,
        }
    )
    for algo in ("debora", "debora-s", "debora-h"):
        log = run_trial(spec, algo, 3, 4, delta=0.05, rho=0.2)
        assert log.epoch_count == 0
        assert log.actions.shape == (1,)


def test_two_round_horizon_closes_once():
    spec = instance_from_dict(
        {
            "K": 2,
            "m": 0,
            "reward_means": [0.9, 0.5],
            "cost_means": [],
            "thresholds": [],
            "horizon": 2,
        }
    )
    log = run_trial(spec, "debora", 3, 4, delta=0.05, rho=0.2)
    assert log.epoch_count == 1  # the first epoch always lasts one round
    assert log.epochs[1].t_start == 2


_MODULES = ["repmab"] + [f"repmab.{m.name}" for m in pkgutil.iter_modules(repmab.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h", "ucb1"])
def test_log_holds_only_actions_and_feedback_per_round(hard_slater, algo):
    """A log's T-long arrays are its actions (int32) and the rows of its
    boolean feedback table: 4 + (m+1) bytes a round, and nothing the log
    could derive, such as the key of each round."""
    horizon = 2000
    log = run_trial(hard_slater, algo, 5, 6, delta=0.05, rho=0.2, horizon=horizon)
    per_round = {
        name: value.nbytes
        for name, value in vars(log).items()
        if isinstance(value, np.ndarray) and horizon in value.shape
    }
    m = hard_slater.m
    assert per_round == {"actions": 4 * horizon, "rewards": horizon, "costs": m * horizon}
    assert sum(per_round.values()) == horizon * (4 + m + 1)


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h"])
def test_held_schedule_holds_only_actions_per_round(hard_slater, monkeypatch, algo):
    """A data-free trial holds its log less what the environment seed
    decides, so the held schedule's one T-long array is its actions:
    4 bytes a round."""
    horizon = 2000
    harness._schedules.cache_clear()  # so the trial plays and stores
    schedules, held = harness._schedules, []
    monkeypatch.setattr(harness, "_schedules", lambda key: held.append(schedules(key)) or held[-1])
    run_trial(hard_slater, algo, 5, 6, delta=0.05, rho=0.2, horizon=horizon)
    (schedule,) = held
    per_round = {
        name: value.nbytes
        for name, value in schedule.items()
        if isinstance(value, np.ndarray) and horizon in value.shape
    }
    assert per_round == {"actions": 4 * horizon}
    assert not {"env_seed", "rewards", "costs"} & schedule.keys()


def test_draw_peak_does_not_grow_with_the_range(reference_soft):
    """``_draw`` draws at most ``_RUN_ROUNDS`` rounds at a time, so its
    traced peak is the same for a multi-arm epoch of 50 chunks as for one
    of 2, within 10 %, folded successes included."""
    chunk = harness._RUN_ROUNDS
    horizon = 50 * chunk
    spec = reference_soft
    streams = FeedbackStreams(spec, RandomSource(3))
    rnd_words = round_words(horizon)
    log = SimpleNamespace(actions=np.arange(horizon, dtype=np.int32) % spec.k)
    feedback = np.empty((spec.m + 1, horizon), dtype=bool)
    sums = np.zeros((spec.m + 1, spec.k))

    def peak(rounds: int) -> int:
        tracemalloc.start()
        try:
            harness._draw(0, rounds, log, streams, rnd_words, feedback, sums)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(50 * chunk) <= 1.1 * peak(2 * chunk)
