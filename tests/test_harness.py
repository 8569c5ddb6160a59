"""Tests for the trial runner, paired experiments, and export formats."""

import numpy as np
import pytest

from repmab.environment import instance_from_dict, solve_oracle
from repmab.harness import (
    aggregate_and_export,
    run_batch,
    run_replicability_experiment,
    run_trial,
)
from repmab.randomness import round_words


def test_replay_invariance_bit_identical(reference_soft):
    kwargs = dict(delta=0.05, rho=0.2, horizon=800)
    for algo in ("debora", "debora-s", "debora-h", "ucb1"):
        a = run_trial(reference_soft, algo, 123, 456, **kwargs)
        b = run_trial(reference_soft, algo, 123, 456, **kwargs)
        assert a.equals(b), algo


def test_horizon_switches_reuse_no_stale_round_words(reference_soft):
    """Trials at T=A, then B, then A again (the shared round-word table
    holds one horizon) equal fresh runs on an emptied table."""
    kwargs = dict(delta=0.05, rho=0.2)
    runs = [(algo, horizon) for horizon in (700, 300, 700) for algo in ("debora-h", "ucb1")]
    logs = [run_trial(reference_soft, algo, 7, 8, horizon=horizon, **kwargs) for algo, horizon in runs]
    for (algo, horizon), log in zip(runs, logs):
        round_words.cache_clear()
        assert log.equals(run_trial(reference_soft, algo, 7, 8, horizon=horizon, **kwargs))


@pytest.mark.parametrize("field", ["r_hat", "zeta", "clean"])
def test_equals_sees_every_epoch_column(reference_soft, field):
    kwargs = dict(delta=0.05, rho=0.2, horizon=600)
    a = run_trial(reference_soft, "debora-s", 5, 6, **kwargs)
    b = run_trial(reference_soft, "debora-s", 5, 6, **kwargs)
    assert a.equals(b)
    rec = b.epochs[1]
    if field == "clean":
        rec.clean = not rec.clean
    else:
        getattr(rec, field)[0] += 0.25
    assert not a.equals(b)


def test_single_arm_zero_regret():
    spec = instance_from_dict(
        {
            "K": 1,
            "m": 0,
            "reward_means": [0.4],
            "cost_means": [],
            "thresholds": [],
            "horizon": 200,
        }
    )
    log = run_trial(spec, "debora", 1, 2, delta=0.05, rho=0.2)
    assert np.all(log.inst_regret == 0.0)
    assert log.regret_total == 0.0


def test_violation_aggregation_is_max_of_sums(reference_soft):
    log = run_trial(reference_soft, "debora-s", 5, 6, delta=0.05, rho=0.2, horizon=500)
    per_constraint = log.inst_violation.sum(axis=1)
    assert log.violation_total == pytest.approx(float(per_constraint.max()))
    # never the sum of per-round maxima
    wrong = float(log.inst_violation.max(axis=0).sum())
    if not np.allclose(per_constraint[0], per_constraint[1]):
        assert log.violation_total <= wrong + 1e-12


def test_regret_recomputable_from_strategies(reference_soft):
    oracle = solve_oracle(reference_soft)
    log = run_trial(reference_soft, "debora-s", 5, 6, delta=0.05, rho=0.2, horizon=300)
    strategies = log.strategy_matrix()
    expected = oracle.opt_value - strategies @ reference_soft.reward_means
    assert np.allclose(log.inst_regret, expected, atol=1e-12)


def test_actions_consistent_with_labeled_uniforms(reference_soft):
    """Sampled actions must be the inverse-CDF of the epoch strategy at
    the per-round labeled uniform, recomputed here from scratch."""
    from repmab.randomness import RandomSource, first_uniforms, index_from_cdf

    xi_seed = 314
    log = run_trial(reference_soft, "debora-h", xi_seed, 15, delta=0.05, rho=0.2, horizon=500)
    uniforms = first_uniforms(RandomSource(xi_seed), "action", rnd=np.arange(1, 501))
    strategies = log.strategy_matrix()
    for t in range(1, 501):
        cdf = np.cumsum(strategies[t - 1])
        assert log.actions[t - 1] == index_from_cdf(cdf, uniforms[t - 1])


@pytest.mark.parametrize(
    "instance, algo, draws",
    [
        ("reference_unconstrained", "debora", 0),
        ("reference_soft", "debora-s", 0),
        ("reference_soft", "debora-h", 1),
    ],
)
def test_action_uniforms_drawn_only_when_read(request, monkeypatch, instance, algo, draws):
    """One-hot strategies read no action uniform, so a trial whose every
    strategy is one-hot (debora always; debora-s while its widths exceed
    1) never draws them, and a sampling trial draws them once."""
    from repmab import harness

    spec = request.getfixturevalue(instance)
    finish_uniforms = harness.finish_uniforms
    calls = []

    def counted(states, words):
        calls.append(np.size(words))
        return finish_uniforms(states, words)

    monkeypatch.setattr(harness, "finish_uniforms", counted)
    log = run_trial(spec, algo, 3, 4, delta=0.05, rho=0.2, horizon=2000)
    if draws == 0:
        assert (np.count_nonzero(log.epochs.x, axis=1) == 1).all()
    assert calls == [2000] * draws


def test_feedback_is_the_table_entry_of_the_played_arm(reference_soft):
    """Feedback drawn for the played (round, arm) pairs equals the full
    realization table at [t-1, a_t]."""
    from repmab.environment import feedback_tables
    from repmab.randomness import RandomSource

    rounds = np.arange(600)
    rewards, costs = feedback_tables(reference_soft, RandomSource(27), 600)
    for algo in ("debora", "debora-s", "debora-h", "ucb1"):
        log = run_trial(reference_soft, algo, 26, 27, delta=0.05, rho=0.2, horizon=600)
        assert np.array_equal(log.rewards, rewards[rounds, log.actions])
        assert np.array_equal(log.costs, costs[:, rounds, log.actions])


def test_epoch_spans_are_contiguous(reference_soft):
    log = run_trial(reference_soft, "debora-h", 5, 6, delta=0.05, rho=0.2, horizon=700)
    assert log.epoch_of_round[0] == 0
    jumps = np.diff(log.epoch_of_round.astype(int))
    assert np.all((jumps == 0) | (jumps == 1))
    starts = [e.t_start for e in log.epochs]
    assert starts == sorted(starts)
    for record in log.epochs:
        assert log.epoch_of_round[record.t_start - 1] == record.h


def test_deterministic_environment_never_mismatches():
    spec = instance_from_dict(
        {
            "K": 3,
            "m": 1,
            "reward_means": [1.0, 0.0, 1.0],
            "cost_means": [[0.0, 1.0, 0.0]],
            "thresholds": [1.0, ],
            "horizon": 200,
        }
    )
    for algo in ("debora", "debora-s", "debora-h"):
        report = run_replicability_experiment(
            spec, algo, rho=0.2, delta=0.05, n_pairs=5, seed=3
        )
        assert report.mismatches == 0
        assert report.action_mismatches == 0


def test_replicability_report_counts(reference_unconstrained):
    report = run_replicability_experiment(
        reference_unconstrained,
        "ucb1",
        rho=0.2,
        delta=0.05,
        n_pairs=4,
        seed=1,
        horizon=150,
    )
    assert report.pairs == 4
    assert 0.0 <= report.rate <= 1.0
    assert report.rate == report.mismatches / 4
    assert len(report.pair_results) == 4


def test_batch_seeds_are_distinct(reference_unconstrained):
    logs = run_batch(
        reference_unconstrained, "ucb1", delta=0.05, rho=0.2, trials=4, seed=9, horizon=100
    )
    seeds = {(log.xi_seed, log.env_seed) for log in logs}
    assert len(seeds) == 4


def test_export_files_and_identities(tmp_path, reference_soft):
    logs = run_batch(
        reference_soft, "debora-s", delta=0.05, rho=0.2, trials=3, seed=2, horizon=120
    )
    paths = aggregate_and_export(logs, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"rounds.csv", "summary.json", "regret_curve.csv"}

    import json

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    mean_regret = float(np.mean([log.regret_total for log in logs]))
    assert summary["regret"]["mean"] == pytest.approx(mean_regret, abs=1e-9)
    assert summary["trials"] == 3

    curve = (tmp_path / "out" / "regret_curve.csv").read_text().splitlines()
    assert len(curve) == 1 + 120  # header plus one row per round

    rounds = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
    header = rounds[0].split(",")
    assert header == [
        "trial",
        "t",
        "epoch",
        "action",
        "x_t",
        "reward",
        "cost_1",
        "cost_2",
        "inst_regret",
        "inst_violation_1",
        "inst_violation_2",
    ]
    assert len(rounds) == 1 + 3 * 120


def test_export_omits_violation_columns_unconstrained(tmp_path, reference_unconstrained):
    logs = run_batch(
        reference_unconstrained, "debora", delta=0.05, rho=0.2, trials=1, seed=2, horizon=50
    )
    aggregate_and_export(logs, tmp_path / "out")
    header = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[0]
    assert "violation" not in header
    assert "cost" not in header


def test_export_bytes_reproducible(tmp_path, reference_soft):
    for name in ("a", "b"):
        logs = run_batch(
            reference_soft, "debora-h", delta=0.05, rho=0.2, trials=2, seed=4, horizon=100
        )
        aggregate_and_export(logs, tmp_path / name)
    for fname in ("rounds.csv", "summary.json", "regret_curve.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_export_ucb1_one_hot_strategies(tmp_path, reference_unconstrained):
    logs = run_batch(
        reference_unconstrained, "ucb1", delta=0.05, rho=0.2, trials=1, seed=6, horizon=30
    )
    aggregate_and_export(logs, tmp_path / "out")
    rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        action = int(fields[3])
        strategy = [float(v) for v in fields[4].split(";")]
        assert strategy[action] == 1.0 and sum(strategy) == 1.0


def test_ucb1_pairs_reported_not_asserted(reference_unconstrained, capsys):
    close = instance_from_dict(
        {
            "K": 2,
            "m": 0,
            "reward_means": [0.52, 0.48],
            "cost_means": [],
            "thresholds": [],
            "horizon": 1500,
        }
    )
    ucb_report = run_replicability_experiment(
        close, "ucb1", rho=0.2, delta=0.05, n_pairs=30, seed=5
    )
    deb_report = run_replicability_experiment(
        close, "debora", rho=0.2, delta=0.05, n_pairs=30, seed=5
    )
    print(
        f"paired mismatch rates on a near-tied instance: "
        f"ucb1={ucb_report.rate:.2f} debora={deb_report.rate:.2f}"
    )
    assert 0.0 <= ucb_report.rate <= 1.0
    assert 0.0 <= deb_report.rate <= 1.0


@pytest.mark.parametrize(
    "other",
    [
        dict(algo="ucb1"),  # another algorithm
        dict(spec="reference_unconstrained"),  # another arm and constraint count
        dict(horizon=80),  # another horizon
    ],
)
def test_export_rejects_mixed_logs(tmp_path, request, other):
    kwargs = dict(delta=0.05, rho=0.2, trials=1, seed=3, horizon=60)
    base = run_batch(request.getfixturevalue("reference_soft"), "debora-s", **kwargs)
    spec = request.getfixturevalue(other.pop("spec", "reference_soft"))
    kwargs.update(other)
    algo = kwargs.pop("algo", "debora-s")
    mixed = base + run_batch(spec, algo, **kwargs)
    with pytest.raises(ValueError, match="must share"):
        aggregate_and_export(mixed, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_export_rejects_other_arm_count(tmp_path, reference_unconstrained):
    wider = instance_from_dict(
        {
            "K": reference_unconstrained.k + 1,
            "m": 0,
            "reward_means": [0.5] * (reference_unconstrained.k + 1),
            "cost_means": [],
            "thresholds": [],
            "horizon": 40,
        }
    )
    kwargs = dict(delta=0.05, rho=0.2, trials=1, seed=3, horizon=40)
    logs = run_batch(reference_unconstrained, "debora", **kwargs)
    logs += run_batch(wider, "debora", **kwargs)
    with pytest.raises(ValueError, match="arm count"):
        aggregate_and_export(logs, tmp_path / "out")
