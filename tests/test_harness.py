"""Tests for the trial runner, paired experiments, and export formats."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repmab import harness
from repmab.algorithms import ALGORITHM_NAMES, make_policy
from repmab.environment import FeedbackStreams, instance_from_dict, solve_oracle
from repmab.estimator import confidence_widths
from repmab.harness import (
    aggregate_and_export,
    run_batch,
    run_replicability_experiment,
    run_trial,
)
from repmab.randomness import RandomSource, round_words


def test_replay_invariance_bit_identical(reference_soft):
    kwargs = dict(delta=0.05, rho=0.2, horizon=800)
    for algo in ("debora", "debora-s", "debora-h", "ucb1"):
        harness._schedules.cache_clear()  # so both play: b would replay a
        a = run_trial(reference_soft, algo, 123, 456, **kwargs)
        harness._schedules.cache_clear()
        b = run_trial(reference_soft, algo, 123, 456, **kwargs)
        assert a.equals(b), algo


def test_horizon_switches_reuse_no_stale_round_words(reference_soft):
    """Trials at T=A, then B, then A again (the shared round-word table
    holds one horizon) equal fresh runs on an emptied table."""
    kwargs = dict(delta=0.05, rho=0.2)
    runs = [(algo, horizon) for horizon in (700, 300, 700) for algo in ("debora-h", "ucb1")]
    harness._schedules.cache_clear()
    logs = [run_trial(reference_soft, algo, 7, 8, horizon=horizon, **kwargs) for algo, horizon in runs]
    for (algo, horizon), log in zip(runs, logs):
        round_words.cache_clear()
        harness._schedules.cache_clear()
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


def test_equals_sees_the_unsafe_keys(reference_soft):
    kwargs = dict(delta=0.05, rho=0.2, horizon=600)
    a = run_trial(reference_soft, "debora-s", 5, 6, **kwargs)
    b = run_trial(reference_soft, "debora-s", 5, 6, **kwargs)
    b.unsafe[0] = not b.unsafe[0]
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
    1) never draws them, and a sampling trial draws them once.  The
    second trial of a pair copies the held schedule, actions included:
    it makes no policy and draws none."""
    spec = request.getfixturevalue(instance)
    harness._schedules.cache_clear()  # an earlier test may hold this schedule
    finish_uniforms = harness.finish_uniforms
    calls = []

    def counted(states, words):
        calls.append(np.size(words))
        return finish_uniforms(states, words)

    monkeypatch.setattr(harness, "finish_uniforms", counted)
    kwargs = dict(delta=0.05, rho=0.2, horizon=2000)
    log = run_trial(spec, algo, 3, 4, **kwargs)
    if draws == 0:
        assert (np.count_nonzero(log.epochs.x, axis=1) == 1).all()
    assert calls == [2000] * draws
    made = []
    monkeypatch.setattr(harness, "make_policy", lambda *args: made.append(1))
    run_trial(spec, algo, 3, 5, **kwargs)
    assert not made and calls == [2000] * draws


def _fresh(spec, algo, xi_seed, env_seed, **kwargs):
    """A trial played on an emptied schedule cache."""
    harness._schedules.cache_clear()
    return run_trial(spec, algo, xi_seed, env_seed, **kwargs)


def _counted_policies(monkeypatch) -> list:
    """Patch ``harness.make_policy`` to keep each policy it makes in the
    list it returns."""
    made = []
    monkeypatch.setattr(harness, "make_policy", lambda *args: made.append(make_policy(*args)) or made[-1])
    return made


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h"])
@pytest.mark.parametrize(
    "instance", ["hard_slater", "reference_soft", "reference_unconstrained", "three_arm_gaps"]
)
def test_held_schedule_equals_a_fresh_run(request, monkeypatch, instance, algo):
    """While no close can read data, the second trial of a pair replays
    the first one's schedule (no policy is made) and draws its own
    feedback; it equals a trial played on an emptied cache."""
    spec = request.getfixturevalue(instance)
    kwargs = dict(delta=0.05, rho=0.2, horizon=3000)
    _fresh(spec, algo, 41, 1, **kwargs)
    made = _counted_policies(monkeypatch)
    held = run_trial(spec, algo, 41, 2, **kwargs)
    assert not made
    assert held.equals(_fresh(spec, algo, 41, 2, **kwargs)) and made


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h"])
@pytest.mark.parametrize(
    "instance", ["hard_slater", "reference_soft", "reference_unconstrained", "three_arm_gaps"]
)
def test_seed_free_schedule_serves_any_algorithm_seed(request, monkeypatch, instance, algo):
    """A held schedule whose widths stay at least 2 (so every estimate is
    the cap 1.0 whatever its offset) and whose strategies are all one-hot
    (so no action uniform is read) depends on no seed: a trial with
    another algorithm seed copies it and makes no policy.  debora always
    qualifies; debora-h on a constrained instance never does, since its
    blends toward the safe strategy play several arms.  The copy equals
    a trial played on an emptied cache and carries its own seed."""
    spec = request.getfixturevalue(instance)
    horizon = 3000
    kwargs = dict(delta=0.05, rho=0.2, horizon=horizon)
    first = _fresh(spec, algo, 41, 1, **kwargs)
    policy = make_policy(algo, spec, horizon, 0.05, 0.2, RandomSource(41), solve_oracle(spec))
    capped = confidence_widths(horizon, policy.delta_prime, policy.rho_prime) >= 2.0
    one_hot = (np.count_nonzero(first.epochs.x, axis=1) == 1).all()
    made = _counted_policies(monkeypatch)
    second = run_trial(spec, algo, 42, 2, **kwargs)
    assert (not made) == (capped and one_hot)
    if algo == "debora":
        assert not made
    if algo == "debora-h" and spec.m:
        assert made
    assert second.xi_seed == 42
    assert second.equals(_fresh(spec, algo, 42, 2, **kwargs))


_ONE_ARM = {"K": 1, "m": 0, "reward_means": [0.37], "cost_means": [], "thresholds": [], "horizon": 100_000}


@pytest.mark.parametrize("horizon, tables", [(5000, 1), (10_000, 3)])
def test_widths_below_two_keep_the_schedule_tied_to_its_seed(monkeypatch, horizon, tables):
    """The one-arm debora trials of test_golden.py's offset digest at
    widths between 1 and 2 (1.73 at T=5000, 1.32 at T=1e4): no close
    reads data, so the schedule is held, but an estimate min(offset +
    ζ/2, 1) can fall below the cap, so it serves only its own seed.
    With the cache warm, each of seeds 1..8 makes a policy and equals a
    fresh run; at T=1e4 the seeds give 3 distinct estimate tables."""
    spec = instance_from_dict(_ONE_ARM)
    kwargs = dict(delta=0.01, rho=0.9, horizon=horizon)
    policy = make_policy("debora", spec, horizon, 0.01, 0.9, RandomSource(1), solve_oracle(spec))
    assert 1.0 < confidence_widths(horizon, policy.delta_prime, policy.rho_prime) < 2.0
    _fresh(spec, "debora", 9, 109, **kwargs)
    made = _counted_policies(monkeypatch)
    logs = []
    for seed in range(1, 9):
        logs.append(run_trial(spec, "debora", seed, 100 + seed, **kwargs))
        assert len(made) == seed
    assert len({log.epochs.r_hat.tobytes() for log in logs}) == tables
    for seed, log in enumerate(logs, start=1):
        assert log.equals(_fresh(spec, "debora", seed, 100 + seed, **kwargs))


@pytest.mark.parametrize("xi_seed", [-1, 2**64])
def test_seed_free_copy_still_validates_the_seed(reference_soft, monkeypatch, xi_seed):
    """A trial that would copy a seed-free schedule rejects a bad
    algorithm seed with the error a trial that plays raises."""
    kwargs = dict(delta=0.05, rho=0.2, horizon=3000)
    harness._schedules.cache_clear()
    with pytest.raises(ValueError) as miss:
        run_trial(reference_soft, "debora", xi_seed, 1, **kwargs)
    run_trial(reference_soft, "debora", 41, 1, **kwargs)
    made = _counted_policies(monkeypatch)
    run_trial(reference_soft, "debora", 42, 1, **kwargs)
    assert not made  # the schedule is seed-free
    with pytest.raises(ValueError) as hit:
        run_trial(reference_soft, "debora", xi_seed, 1, **kwargs)
    assert str(hit.value) == str(miss.value)


def _chunk_kinds(log) -> set:
    """The kinds of draw chunk (``_RUN_ROUNDS`` rounds) a replay of
    ``log`` makes: whether each played one arm and lay in one epoch, and
    whether a one-arm or multi-arm epoch crossed a chunk's end."""
    bound = harness._RUN_ROUNDS
    starts = log.epochs.t_start - 1
    kinds = set()
    for lo in range(0, log.horizon, bound):
        played = log.actions[lo : lo + bound]
        first, last = np.searchsorted(starts, [lo, lo + played.size - 1], side="right") - 1
        arms = "one arm" if played.min() == played.max() else "arms"
        kinds.add(f"{arms}, {'one epoch' if first == last else 'epochs'}")
    ends = np.append(starts[1:], log.horizon)
    for lo, hi, x in zip(starts, ends, log.epochs.x):
        if lo // bound != (hi - 1) // bound:
            kinds.add(f"{'one-arm' if np.count_nonzero(x) == 1 else 'multi-arm'} epoch across chunks")
    return kinds


def test_replay_rebuilds_every_kind_of_run(hard_slater):
    """On hard_slater at T=1e5, replayed debora-s and debora-h trials
    draw their feedback over every kind of chunk: one arm in one epoch,
    several arms in one epoch, and several epochs in one chunk, with
    one-arm and multi-arm epochs that span several chunks; each replay
    equals a fresh trial."""
    kinds = set()
    for algo in ("debora-s", "debora-h"):
        kwargs = dict(delta=0.05, rho=0.2, horizon=100_000)
        kinds |= _chunk_kinds(_fresh(hard_slater, algo, 41, 1, **kwargs))
        held = run_trial(hard_slater, algo, 41, 2, **kwargs)
        assert held.equals(_fresh(hard_slater, algo, 41, 2, **kwargs))
    assert kinds == {
        "one arm, one epoch", "arms, one epoch", "arms, epochs",
        "one-arm epoch across chunks", "multi-arm epoch across chunks",
    }


def test_reading_trial_is_never_held():
    """A trial whose closes read data (one arm, delta=0.01, rho=0.9 and
    T=1e5, the case of test_golden.py's offset digest) is never served
    from the cache.  The mean sits on a cell boundary of the last close
    for algorithm seed 11, so environment seeds 12 and 14 end in
    different estimates; the second trial equals a fresh run."""
    spec = instance_from_dict(
        {"K": 1, "m": 0, "reward_means": [0.8151], "cost_means": [], "thresholds": [], "horizon": 100_000}
    )
    kwargs = dict(delta=0.01, rho=0.9)
    first = _fresh(spec, "debora", 11, 12, **kwargs)
    second = run_trial(spec, "debora", 11, 14, **kwargs)
    assert not np.array_equal(first.epochs.r_hat, second.epochs.r_hat)
    assert second.equals(_fresh(spec, "debora", 11, 14, **kwargs))


def _counted_draws(monkeypatch) -> list:
    """Patch ``harness._draw`` to record the (lo, hi) round range of each
    call in the list it returns."""
    draw, calls = harness._draw, []

    def counted(lo, hi, *args):
        calls.append((int(lo), int(hi)))
        return draw(lo, hi, *args)

    monkeypatch.setattr(harness, "_draw", counted)
    return calls


@pytest.mark.parametrize("algo", ["debora", "debora-s", "debora-h"])
def test_capped_trial_draws_once_and_folds_nothing(reference_soft, monkeypatch, algo):
    """With ζ(T) > 1 no close can read data: the trial draws all its
    feedback in one ``_draw`` from round 0 at its end, and the policy's
    sums stay zero."""
    horizon = 3000
    made, calls = _counted_policies(monkeypatch), _counted_draws(monkeypatch)
    _fresh(reference_soft, algo, 3, 4, delta=0.05, rho=0.2, horizon=horizon)
    (policy,) = made
    assert confidence_widths(horizon, policy.delta_prime, policy.rho_prime) > 1.0
    assert calls == [(0, horizon)]
    assert not policy.sums.any()


def test_reading_trial_folds_before_every_close(monkeypatch):
    """With ζ(T) at most 1 (one arm, δ=0.01, ρ=0.9, T=4e4: ζ(T) is about
    0.76) the trial draws each epoch before its close and the last epoch
    at its end, epoch_count + 1 calls over consecutive ranges, and the
    sums hold the rewards of every epoch but the last."""
    spec, horizon = instance_from_dict(_ONE_ARM), 40_000
    made, calls = _counted_policies(monkeypatch), _counted_draws(monkeypatch)
    log = _fresh(spec, "debora", 5, 6, delta=0.01, rho=0.9, horizon=horizon)
    (policy,) = made
    assert confidence_widths(horizon, policy.delta_prime, policy.rho_prime) <= 1.0
    assert len(calls) == log.epoch_count + 1
    starts = (log.epochs.t_start - 1).tolist()
    assert calls == list(zip(starts, starts[1:] + [horizon]))
    assert policy.sums.tolist() == [[np.count_nonzero(log.rewards[: starts[-1]])]]


def _tamper(log) -> None:
    """Change one entry of every array a log holds."""
    columns = [log.epochs[name] for name in log.epochs.dtype.names]
    for arr in [log.actions, log.rewards, log.costs, log.regret, log.violation, log.unsafe, *columns]:
        arr.flat[0] = ~arr.flat[0] if arr.dtype == bool else arr.flat[0] + 1


def test_held_schedule_shares_no_array_with_returned_logs(reference_soft):
    """Logs returned by the trial that stored a schedule and by one that
    replayed it can be changed in place without reaching the next replay."""
    kwargs = dict(delta=0.05, rho=0.2, horizon=2000)
    _tamper(_fresh(reference_soft, "debora-h", 9, 1, **kwargs))
    _tamper(run_trial(reference_soft, "debora-h", 9, 2, **kwargs))
    held = run_trial(reference_soft, "debora-h", 9, 3, **kwargs)
    assert held.equals(_fresh(reference_soft, "debora-h", 9, 3, **kwargs))


@pytest.mark.parametrize("horizon", [0, -3])
@pytest.mark.parametrize("algo", ALGORITHM_NAMES)
def test_horizon_below_one_is_rejected_before_any_work(reference_soft, monkeypatch, algo, horizon):
    def no_work(*args):
        raise AssertionError("work began before the horizon was checked")

    monkeypatch.setattr(harness, "solve_oracle", no_work)
    monkeypatch.setattr(harness, "make_policy", no_work)
    with pytest.raises(ValueError, match=f"horizon must be at least 1, got {horizon}"):
        run_trial(reference_soft, algo, 1, 2, delta=0.05, rho=0.2, horizon=horizon)


@pytest.mark.parametrize("horizon", [2.7, float("inf"), float("nan"), True])
def test_non_integral_horizon_is_rejected_before_any_work(reference_soft, monkeypatch, horizon):
    def no_work(*args):
        raise AssertionError("work began before the horizon was checked")

    monkeypatch.setattr(harness, "solve_oracle", no_work)
    monkeypatch.setattr(harness, "make_policy", no_work)
    message = f"horizon must be a whole number of rounds, got {horizon!r}"
    with pytest.raises(ValueError, match=message):
        run_trial(reference_soft, "debora", 1, 2, delta=0.05, rho=0.2, horizon=horizon)


@pytest.mark.parametrize(
    "horizon", [2**53, 10**400, np.uint64(2**63), 1e300], ids=["2**53", "10**400", "uint64", "1e300"]
)
@pytest.mark.parametrize("algo", ["debora", "ucb1"])
def test_horizon_of_2_53_or_more_is_rejected_before_any_work(reference_soft, monkeypatch, algo, horizon):
    """Float64 success sums are exact only below 2**53 rounds; an int
    horizon is compared with that limit without a float conversion, which
    would overflow."""
    def no_work(*args):
        raise AssertionError("work began before the horizon was checked")

    monkeypatch.setattr(harness, "solve_oracle", no_work)
    monkeypatch.setattr(harness, "make_policy", no_work)
    with pytest.raises(ValueError, match=rf"horizon must be below 2\*\*53, got {int(horizon)}$"):
        run_trial(reference_soft, algo, 1, 2, delta=0.05, rho=0.2, horizon=horizon)


@pytest.mark.parametrize(
    "horizon, message",
    [(0, "at least 1, got 0"), (1.5, "a whole number of rounds, got 1.5"),
     (True, "a whole number of rounds, got True"), (2**53, r"below 2\*\*53, got 9007199254740992")],
)
@pytest.mark.parametrize("entry", ["batch", "pairs"])
def test_bad_horizon_is_rejected_before_the_oracle(reference_soft, monkeypatch, entry, horizon, message):
    """A batch or a replicability run checks the horizon, with the
    messages ``run_trial`` gives, before the oracle's LPs run."""
    solved = []
    monkeypatch.setattr(harness, "solve_oracle", lambda spec: solved.append(spec))
    with pytest.raises(ValueError, match=f"horizon must be {message}"):
        if entry == "batch":
            run_batch(reference_soft, "debora", delta=0.05, rho=0.2, trials=1, seed=1, horizon=horizon)
        else:
            run_replicability_experiment(
                reference_soft, "debora", rho=0.2, delta=0.05, n_pairs=1, seed=1, horizon=horizon
            )
    assert solved == []


@pytest.mark.parametrize("seed", [True, False])
@pytest.mark.parametrize("entry", ["xi", "env", "batch", "pairs"])
def test_bool_seed_is_rejected(reference_soft, entry, seed):
    """A bool is an int to Python, but no seed: an algorithm or
    environment seed, and a batch's or a replicability run's master
    seed, that is a bool gets the error of any other bad seed."""
    kwargs = dict(delta=0.05, rho=0.2, horizon=10)
    with pytest.raises(ValueError, match="root_seed must be an unsigned 64-bit integer"):
        if entry == "xi":
            run_trial(reference_soft, "debora", seed, 2, **kwargs)
        elif entry == "env":
            run_trial(reference_soft, "debora", 1, seed, **kwargs)
        elif entry == "batch":
            run_batch(reference_soft, "debora", trials=1, seed=seed, **kwargs)
        else:
            run_replicability_experiment(reference_soft, "debora", n_pairs=1, seed=seed, **kwargs)


@pytest.mark.parametrize("trials", [0, -2, True])
def test_batch_without_trials_is_rejected_before_any_work(reference_soft, monkeypatch, trials):
    def no_work(*args):
        raise AssertionError("work began before the trial count was checked")

    monkeypatch.setattr(harness, "solve_oracle", no_work)
    with pytest.raises(ValueError, match=f"trials={trials}"):
        run_batch(reference_soft, "debora", delta=0.05, rho=0.2, trials=trials, seed=1)


@pytest.mark.parametrize("n_pairs", [0, True])
def test_replicability_without_pairs_is_rejected_before_any_work(reference_soft, monkeypatch, n_pairs):
    def no_work(*args):
        raise AssertionError("work began before the pair count was checked")

    monkeypatch.setattr(harness, "solve_oracle", no_work)
    with pytest.raises(ValueError, match=f"n_pairs={n_pairs}"):
        run_replicability_experiment(
            reference_soft, "debora", rho=0.2, delta=0.05, n_pairs=n_pairs, seed=1
        )


_R = harness._RUN_ROUNDS


@st.composite
def epoch_spans(draw):
    """An instance's feedback streams, and epochs that mix one-arm and
    multi-arm strategies: their bounds, the first after ``lo`` rounds
    drawn earlier, and the actions each played."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    unit = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
    spec = instance_from_dict({
        "K": k, "m": m, "horizon": 1, "thresholds": [1.0] * m,
        "reward_means": draw(st.lists(unit, min_size=k, max_size=k)),
        "cost_means": [draw(st.lists(unit, min_size=k, max_size=k)) for _ in range(m)],
    })
    streams = FeedbackStreams(spec, RandomSource(draw(st.integers(0, 2**64 - 1))))
    short, edge = st.integers(1, 64), st.sampled_from([_R - 1, _R, _R + 1])
    lengths = draw(st.lists(short | edge | st.integers(1, 3 * _R), min_size=1, max_size=8))
    lo = draw(st.integers(0, 50))
    bounds = (lo + np.cumsum([0] + lengths)).tolist()
    actions = np.zeros(bounds[-1] + draw(st.integers(0, 3)), dtype=np.int32)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    for start, end in zip(bounds, bounds[1:]):
        support = rng.choice(k, draw(st.integers(1, k)), replace=False)
        actions[start:end] = rng.choice(support, end - start)
    return streams, bounds, actions


@settings(max_examples=60, deadline=None)
@given(case=epoch_spans(), rows=st.integers(1, 4), fold=st.booleans())
def test_draw_equals_a_draw_per_epoch(case, rows, fold):
    """``_draw`` over a range of rounds writes the feedback and adds the
    sums that drawing each epoch alone, through the streams' draw of its
    actions, gives, bit for bit; each of its draws covers at most
    ``_RUN_ROUNDS`` rounds, and together they tile the range."""
    streams, bounds, actions = case
    signals, k = streams.ready.shape
    rows = min(rows, signals)
    rnd_words = round_words(actions.size)
    rng = np.random.default_rng(bounds[-1])
    feedback = rng.random((signals, actions.size)) < 0.5
    sums = rng.integers(0, 9, (rows, k)).astype(np.float64) if fold else None
    expected = feedback.copy()
    expected_sums = None if sums is None else sums.copy()
    for lo, hi in zip(bounds, bounds[1:]):
        drawn = streams.draw(actions[lo:hi], rnd_words[lo:hi])
        expected[:, lo:hi] = drawn
        for r in range(rows if fold else 0):
            expected_sums[r] += np.bincount(actions[lo:hi], drawn[r], k)
    spans = []  # the rounds each draw covers
    recorded = SimpleNamespace(
        draw=lambda arms, words, out: spans.append(words.size) or streams.draw(arms, words, out)
    )
    log = SimpleNamespace(actions=actions)
    harness._draw(bounds[0], bounds[-1], log, recorded, rnd_words, feedback, sums)
    assert np.array_equal(feedback, expected)
    assert (sums is None) or np.array_equal(sums, expected_sums)
    assert max(spans) <= _R and sum(spans) == bounds[-1] - bounds[0]


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
