"""Byte-identity and invariant checks for whole trials.

The digests below pin every recorded output of a trial (actions,
realized feedback, epoch spans, epoch strategies and sigma, totals and
counters) for every shipped instance and algorithm, plus the bytes of
one ``repmab run`` export per algorithm.  A change that moves any
output byte fails here; re-record only in a change whose purpose is to
change outputs.

The properties check the structural invariants on random valid
instances rather than only on the shipped ones.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repmab import estimator, harness
from repmab.algorithms import ConfigError, epoch_budget, make_policy
from repmab.cli import main as cli_main
from repmab.environment import (
    SAFETY_TOL,
    FeedbackStreams,
    instance_from_dict,
    instant_regret,
    instant_violation,
    load_instance,
    solve_oracle,
)
from repmab.estimator import confidence_widths
from repmab.harness import run_trial
from repmab.randomness import (
    RandomSource,
    first_uniforms,
    index_from_cdf,
    round_words,
    validate_strategy,
)

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "instances"
HORIZON = 20_000
SEEDS = ((11, 12), (2024, 7), (2**63 + 5, 2**40 + 3))

TRIAL_DIGESTS = {
    ("hard_slater", "debora"):
        "7b09bd2ff0ac9e50c4c50f17636c40ab2ffd7a0dd8f8c228cbca128983e63c6a",
    ("hard_slater", "debora-s"):
        "7b09bd2ff0ac9e50c4c50f17636c40ab2ffd7a0dd8f8c228cbca128983e63c6a",
    ("hard_slater", "debora-h"):
        "1f5d0072b558b827bbd118ddc1739fbf61f0dc1f77392c2e3e85c44172a1b20c",
    ("hard_slater", "ucb1"):
        "a4fe0eb4fb13e02b0f349ab73b84b2fdc8fde69b95933a22629eeef7cd459c1a",
    ("reference_soft", "debora"):
        "33bff2f9bfb23c3b8e5c59dcdff0aa8610e2f8ac82f90d010e083bac5a04bd8f",
    ("reference_soft", "debora-s"):
        "33bff2f9bfb23c3b8e5c59dcdff0aa8610e2f8ac82f90d010e083bac5a04bd8f",
    ("reference_soft", "debora-h"):
        "3d005a740ba67209e8932a2b9059f6088579af553f563c2c2ce439eebe91aa66",
    ("reference_soft", "ucb1"):
        "d70c0d9c8735995428f8501bdae7aedf179994ad903b473aa5db847ba20702f5",
    ("reference_unconstrained", "debora"):
        "56b5e8800c06f189c23265a98630db506382a3c4cce9679fd627f3e118b1364c",
    ("reference_unconstrained", "debora-s"):
        "56b5e8800c06f189c23265a98630db506382a3c4cce9679fd627f3e118b1364c",
    ("reference_unconstrained", "debora-h"):
        "56b5e8800c06f189c23265a98630db506382a3c4cce9679fd627f3e118b1364c",
    ("reference_unconstrained", "ucb1"):
        "8e17f44252672bd7b667f019c74504b8187b199e715e28a680159aa2fd618a63",
    ("three_arm_gaps", "debora"):
        "9658471562b393e4a74f5dee10f2099b210d28eba81cc83dc8a8e55ba0665f71",
    ("three_arm_gaps", "debora-s"):
        "9658471562b393e4a74f5dee10f2099b210d28eba81cc83dc8a8e55ba0665f71",
    ("three_arm_gaps", "debora-h"):
        "9658471562b393e4a74f5dee10f2099b210d28eba81cc83dc8a8e55ba0665f71",
    ("three_arm_gaps", "ucb1"):
        "60cc665b1197413d1a657c323f6e18c3f55f62684ff6c5193fce9307eb52a695",
}

EXPORT_DIGEST = "02c15d4fcaace0b42e01cd8f39f8282293b1f9e99f2f1598e9896baca17fcd95"

# rounds.csv, regret_curve.csv and summary.json of one ``repmab run`` per
# algorithm: the epoch policies and ucb1, whose strategy keys are arms
EXPORT_DIGESTS = {
    "debora": "719217765bcc115d5d2897c1637202f693cd4c70c305697a3f4fed521d6eea53",
    "debora-s": "9336099dce28e2df12227abcc08d7442157cbb65c7d99c6d92816c939b893428",
    "debora-h": EXPORT_DIGEST,
    "ucb1": "a0c45d07c7f984033e92105c4c83f6854b66b3898b4410c71de8d1596ae68a6b",
}

OFFSET_DIGEST = "9079d9d4809df6e88b1a2c81ea83d8c20622163734dd7a6450052bda5a7db0f4"
READING_DIGEST = "9acd1e54e2295d2194ccedeaf6f92f3fc7706eccf64b4eb1e3931eec16ae875f"


class _Digest:
    """SHA-256 over length-prefixed parts."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, data: bytes) -> None:
        self._h.update(len(data).to_bytes(8, "little"))
        self._h.update(data)

    def array(self, arr, dtype: str) -> None:
        self.add(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def value(self, v) -> None:
        self.add(repr(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def trial_digest(digest: _Digest, log) -> None:
    digest.array(log.actions, "<i4")
    digest.array(log.rewards, "<f8")
    digest.array(log.costs, "<f8")
    digest.array(log.epoch_of_round, "<i4")
    digest.array(log.inst_regret, "<f8")
    digest.array(log.inst_violation, "<f8")
    digest.value(len(log.epochs))
    for rec in log.epochs:
        digest.value((int(rec.h), int(rec.t_start), float(rec.sigma), bool(rec.fallback)))
        digest.array(rec.x, "<f8")
    digest.value(
        (
            log.regret_total,
            log.violation_total,
            log.epoch_count,
            log.unsafe_rounds,
            log.fallback_count,
        )
    )


@pytest.mark.parametrize("instance, algo", sorted(TRIAL_DIGESTS))
def test_trial_digest(instance, algo):
    spec = load_instance(INSTANCE_DIR / f"{instance}.json")
    oracle = solve_oracle(spec)
    digest = _Digest()
    for xi_seed, env_seed in SEEDS:
        log = run_trial(
            spec, algo, xi_seed, env_seed, delta=0.05, rho=0.2, horizon=HORIZON, oracle=oracle
        )
        trial_digest(digest, log)
    assert digest.hexdigest() == TRIAL_DIGESTS[(instance, algo)]


def test_offset_digest():
    """One arm with rho near 1 and a long horizon: the last widths fall
    below 1, so the estimates leave their cap and the digest of every
    epoch's estimates depends on the grid offsets."""
    spec = instance_from_dict(
        {
            "K": 1,
            "m": 0,
            "reward_means": [0.37],
            "cost_means": [],
            "thresholds": [],
            "horizon": 100_000,
        }
    )
    digest = _Digest()
    below_cap = 0
    for xi_seed, env_seed in SEEDS:
        log = run_trial(spec, "debora", xi_seed, env_seed, delta=0.01, rho=0.9)
        trial_digest(digest, log)
        for rec in log.epochs:
            digest.array(rec.r_hat, "<f8")
            digest.array(rec.g_hat, "<f8")
            digest.array(rec.zeta, "<f8")
        below_cap += int((log.epochs[-1].r_hat < 1.0).sum())
    assert below_cap == len(SEEDS)
    assert digest.hexdigest() == OFFSET_DIGEST


def test_reading_digest(monkeypatch):
    """One arm with a mean of 0.97, above the cells its last closes use
    (ζ(T) = 0.63), so some estimate depends on the folded sums: the
    digest pins the epoch tables of eight trials, and at least one
    epoch's estimate differs from an unfolded twin's, whose ζ(T) is
    patched above 1 so that nothing is folded."""
    spec = instance_from_dict(
        {"K": 1, "m": 0, "reward_means": [0.97], "cost_means": [], "thresholds": [], "horizon": 100_000}
    )
    digest = _Digest()
    differs = 0
    for seeds in ((11, 22), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (12, 13), (14, 15)):
        harness._schedules.cache_clear()
        log = run_trial(spec, "debora", *seeds, delta=0.01, rho=0.9)
        trial_digest(digest, log)
        for rec in log.epochs:
            digest.array(rec.r_hat, "<f8")
            digest.array(rec.zeta, "<f8")
        with monkeypatch.context() as patch:
            patch.setattr(harness, "confidence_widths", lambda *args: 1.5)
            twin = run_trial(spec, "debora", *seeds, delta=0.01, rho=0.9)
        harness._schedules.cache_clear()
        differs += int((log.epochs.r_hat != twin.epochs.r_hat).any(axis=1).sum())
    assert differs >= 1
    assert digest.hexdigest() == READING_DIGEST


@pytest.mark.parametrize("algo", sorted(EXPORT_DIGESTS))
def test_export_digest(tmp_path, capsys, algo):
    out = tmp_path / "out"
    argv = [
        "run", "--instance", str(INSTANCE_DIR / "reference_soft.json"),
        "--algo", algo, "--horizon", "3000", "--trials", "2",
        "--seed", "7", "--out", str(out),
    ]
    assert cli_main(argv) == 0
    digest = _Digest()
    for path in sorted(out.iterdir()):
        digest.add(path.name.encode())
        digest.add(path.read_bytes())
    assert digest.hexdigest() == EXPORT_DIGESTS[algo]


# -- randomized invariants ------------------------------------------------


@st.composite
def instances(draw):
    """A valid instance: thresholds sit above the costs of a random
    anchor strategy, so the safe set is never empty."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(0, 3))
    horizon = draw(st.integers(1, 600))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    reward = draw(st.lists(unit, min_size=k, max_size=k))
    costs = np.array(
        draw(st.lists(st.lists(unit, min_size=k, max_size=k), min_size=m, max_size=m))
    ).reshape(m, k)
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    anchor = weights / weights.sum()
    slack = np.array(draw(st.lists(st.floats(0.0, 0.3), min_size=m, max_size=m)))
    thresholds = np.minimum(costs @ anchor + slack + 1e-6, 1.0)
    return instance_from_dict(
        {
            "K": k,
            "m": m,
            "reward_means": reward,
            "cost_means": costs.tolist(),
            "thresholds": thresholds.tolist(),
            "horizon": horizon,
        }
    )


def replayed_epoch_starts(actions, k: int) -> list[int]:
    """Epoch start rounds from the doubling rule applied round by round:
    an epoch closes after the round in which some arm reaches twice its
    count at the epoch start (at least 1), unless that round is the last."""
    counts = np.zeros(k, dtype=int)
    at_start = counts.copy()
    starts = [1]
    for t, a in enumerate(actions, start=1):
        counts[a] += 1
        if counts[a] >= max(2 * at_start[a], 1) and t < len(actions):
            starts.append(t + 1)
            at_start = counts.copy()
    return starts


def _edge_instance(k: int, horizon: int):
    return instance_from_dict(
        {
            "K": k,
            "m": 1,
            "reward_means": [0.3 + 0.1 * a for a in range(k)],
            "cost_means": [[0.2] * k],
            "thresholds": [0.5],
            "horizon": horizon,
        }
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=instances(),
    seeds=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    delta_rho=st.just((0.05, 0.2)),
)
@example(spec=_edge_instance(1, 300), seeds=(1, 2), delta_rho=(0.05, 0.2))
@example(spec=_edge_instance(4, 1), seeds=(3, 4), delta_rho=(0.05, 0.2))
# a reading split: debora's zeta(T) is at most 1, so it folds before
# every close and the sums branch below runs
@example(spec=_edge_instance(1, 40_000), seeds=(5, 6), delta_rho=(0.01, 0.9))
def test_trial_invariants_on_random_instances(spec, seeds, delta_rho):
    oracle = solve_oracle(spec)
    for algo in ("debora", "debora-s", "debora-h", "ucb1"):
        kwargs = dict(delta=delta_rho[0], rho=delta_rho[1], oracle=oracle)
        policies = []

        def capture(*args):
            policies.append(make_policy(*args))
            return policies[-1]

        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(harness, "make_policy", capture)
                log = run_trial(spec, algo, *seeds, **kwargs)
        except ConfigError:
            assert algo == "debora-h" and not oracle.lambda_min > 0.0
            continue
        assert log.equals(run_trial(spec, algo, *seeds, **kwargs))
        # the per-key tables expand to each round's own evaluation
        strategies = log.strategy_matrix()
        assert (
            np.array_equal(log.inst_regret, [instant_regret(spec, oracle, x) for x in strategies])
            and np.array_equal(
                log.inst_violation, np.stack([instant_violation(spec, x) for x in strategies], 1)
            )
            and log.unsafe_rounds
            == sum(not (spec.cost_means @ x <= spec.thresholds + SAFETY_TOL).all() for x in strategies)
            and log.unsafe_rounds == np.count_nonzero(log.per_round(log.unsafe))
        )
        # the per-round expansions are the per-key tables gathered through
        # each round's key, built here without per_round: the epoch that
        # started last at or before the round, or the arm the baseline
        # pulled; the totals add those gathers bit for bit
        if algo == "ucb1":
            keys, epoch_of_round, table = log.actions, np.arange(spec.horizon), np.eye(spec.k)
        else:
            rounds = np.arange(1, spec.horizon + 1)
            keys = np.searchsorted(log.epochs.t_start, rounds, side="right") - 1
            epoch_of_round, table = log.epochs.h[keys], log.epochs.x
        assert np.array_equal(log.epoch_of_round, epoch_of_round)
        assert np.array_equal(log.inst_regret, log.regret[keys])
        assert np.array_equal(log.inst_violation, log.violation.take(keys, axis=1))
        assert np.array_equal(strategies, table[keys])
        assert log.regret_total == float(np.sum(log.regret[keys]))
        if spec.m:
            gathered = log.violation.take(keys, axis=1)
            assert log.violation_total == float(np.max(np.sum(gathered, axis=1)))
        # the realized feedback is the rows of one boolean table
        assert log.rewards.dtype == bool and log.rewards.shape == (spec.horizon,)
        assert log.costs.dtype == bool and log.costs.shape == (spec.m, spec.horizon)
        assert log.actions.shape == (spec.horizon,)
        assert np.all((log.actions >= 0) & (log.actions < spec.k))
        if algo == "ucb1":
            continue
        assert log.epoch_count <= epoch_budget(spec.k, spec.horizon)
        assert [rec.t_start for rec in log.epochs] == replayed_epoch_starts(log.actions, spec.k)
        uniforms = first_uniforms(
            RandomSource(seeds[0]), "action", rnd=np.arange(1, spec.horizon + 1)
        )
        for rec in log.epochs:
            validate_strategy(rec.x)
            assert log.epoch_of_round[rec.t_start - 1] == rec.h
            played = log.epoch_of_round == rec.h
            assert np.all(rec.x[log.actions[played]] > 0.0)
            # a one-hot strategy maps every uniform to its arm
            expected = index_from_cdf(np.cumsum(rec.x), uniforms[played])
            assert np.array_equal(log.actions[played], expected)
        if algo == "debora-h" and spec.m:
            cap = 1.0 / (1.0 + oracle.lambda_min)
            assert all(0.0 <= rec.sigma <= cap for rec in log.epochs)
        if algo == "debora":
            # the optimistic program with no rows: the one-hot of the
            # first maximizer of the epoch's r_hat + zeta
            optimistic = log.epochs.r_hat + log.epochs.zeta
            assert np.array_equal(log.epochs.x, np.eye(spec.k)[optimistic.argmax(axis=1)])
        # every epoch's pulls add up to the whole log; successes are
        # folded before every close when zeta(T) <= 1, so the sums are
        # the log's successes over the rounds before the final epoch
        # then, and all zero otherwise
        (policy,) = policies
        played = log.actions == np.arange(spec.k)[:, None]
        signals = np.vstack([log.rewards, log.costs[: policy.m]])
        assert np.array_equal(policy.counts, played.sum(axis=1))
        before = log.epochs.t_start[-1] - 1
        if confidence_widths(spec.horizon, policy.delta_prime, policy.rho_prime) <= 1.0:
            successes = [[row[:before][arm[:before]].sum() for arm in played] for row in signals]
        else:
            successes = np.zeros_like(policy.sums)
        assert np.array_equal(policy.sums, successes)


_U64 = st.integers(0, 2**64 - 1)
_READING = instance_from_dict(
    {"K": 1, "m": 0, "reward_means": [0.8151], "cost_means": [], "thresholds": [], "horizon": 100_000}
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=instances(),
    algo=st.sampled_from(["debora", "debora-s", "debora-h"]),
    horizon=st.integers(1, 100_000),
    delta_rho=st.sampled_from([(0.05, 0.2), (0.01, 0.9)]),
    seeds=st.tuples(_U64, _U64, _U64),
)
@example(spec=_READING, algo="debora", horizon=100_000, delta_rho=(0.01, 0.9), seeds=(11, 12, 14))
def test_epoch_tables_read_no_data_while_widths_exceed_one(spec, algo, horizon, delta_rho, seeds):
    """While every cell a close refreshes is wider than 1, the estimates
    snap to min(offset + width/2, 1) whatever the data, so one algorithm
    seed with two environment seeds gives epoch tables equal in every
    column up to the first close that refreshes a cell of width at most
    1 (bounded here by the first row with some width at most 1), and
    equal throughout when no close does.

    The property is checked on eager trials, whose successes are folded
    before every close (the harness's ζ(T) patched to 0), so a policy
    that read data too early would break it; each unpatched trial,
    which folds only when ζ(T) is at most 1, must equal its eager twin.
    The schedule cache is emptied before each trial, so every trial
    plays."""
    oracle = solve_oracle(spec)
    xi, *envs = seeds
    kwargs = dict(delta=delta_rho[0], rho=delta_rho[1], horizon=horizon, oracle=oracle)
    tables = []
    for env in envs:
        harness._schedules.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(harness, "confidence_widths", lambda *args: 0.0)
                eager = run_trial(spec, algo, xi, env, **kwargs)
        except ConfigError:
            assert algo == "debora-h" and not oracle.lambda_min > 0.0
            return
        harness._schedules.cache_clear()
        unpatched = run_trial(spec, algo, xi, env, **kwargs)
        assert eager.equals(unpatched) and eager.regret_total == unpatched.regret_total
        tables.append(eager.epochs)
    a, b = tables
    reads = np.flatnonzero(a.zeta.min(axis=1) <= 1.0)
    if reads.size:
        assert np.array_equal(a[: reads[0]], b[: reads[0]])
    else:
        assert np.array_equal(a, b)


# -- a naive reference loop ----------------------------------------------


def _naive_trial(spec, algo, seeds, horizon, oracle):
    """An epoch policy's trial played one round at a time: the action is
    the inverse CDF of the round's action uniform, its feedback is drawn
    and its successes folded at once, and the epoch closes when the
    played arm reaches its target before round T.  Returns the actions,
    the (m+1, T) feedback, and each epoch's start round, strategy and
    estimates."""
    xi_seed, env_seed = seeds
    policy = make_policy(algo, spec, horizon, 0.05, 0.2, RandomSource(xi_seed), oracle)
    rows = len(policy.sums)
    uniforms = first_uniforms(RandomSource(xi_seed), "action", rnd=np.arange(1, horizon + 1))
    streams, words = FeedbackStreams(spec, RandomSource(env_seed)), round_words(horizon)
    actions = np.empty(horizon, dtype=np.int32)
    feedback = np.empty((spec.m + 1, horizon), dtype=bool)
    starts, epochs = [1], [(policy.x_current.copy(), policy.r_hat.copy(), policy.g_hat.copy())]
    for t in range(1, horizon + 1):
        a = actions[t - 1] = index_from_cdf(np.cumsum(policy.x_current), uniforms[t - 1])
        feedback[:, t - 1] = streams.draw(a, words[t - 1])
        policy.counts[a] += 1
        policy.sums[:, a] += feedback[:rows, t - 1]
        if policy.counts[a] == policy.targets[a] and t < horizon:
            policy.close_epoch()
            starts.append(t + 1)
            epochs.append((policy.x_current.copy(), policy.r_hat.copy(), policy.g_hat.copy()))
    return actions, feedback, starts, [np.array(column) for column in zip(*epochs)]


def _clear_width_caches() -> None:
    estimator._width_constants.cache_clear()
    harness._schedules.cache_clear()


_CHUNK = harness._RUN_ROUNDS


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=instances(),
    algo=st.sampled_from(["debora", "debora-s", "debora-h"]),
    horizon=st.integers(1, 3000) | st.integers(_CHUNK - 2, 2 * _CHUNK + 2),
    scale=st.sampled_from([1.0, 1e-4]),
    seeds=st.tuples(_U64, _U64),
)
# a reading trial whose last fold spans two chunks (rounds 16385..32768)
@example(spec=_edge_instance(1, 1), algo="debora", horizon=4 * _CHUNK + 100, scale=1e-4, seeds=(5, 6))
def test_naive_loop_equals_the_trial(spec, algo, horizon, scale, seeds):
    """``run_trial`` plays the actions, draws the feedback, starts the
    epochs and picks the strategies and estimates that a naive per-round
    loop does, bit for bit: in the capped regime, and with every width ζ
    scaled by 1e-4 (the numerator of ``estimator._width_constants`` times
    1e-8), where closes read data and the fold adds real sums."""
    oracle = solve_oracle(spec)
    constants = estimator._width_constants

    def scaled(delta_prime, rho_prime):
        numerator, spread = constants(delta_prime, rho_prime)
        return numerator * scale**2, spread

    _clear_width_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "_width_constants", scaled)
            log = run_trial(spec, algo, *seeds, delta=0.05, rho=0.2, horizon=horizon, oracle=oracle)
            actions, feedback, starts, columns = _naive_trial(spec, algo, seeds, horizon, oracle)
    except ConfigError:
        assert algo == "debora-h" and not oracle.lambda_min > 0.0
        return
    finally:
        _clear_width_caches()
    assert np.array_equal(log.actions, actions)
    assert np.array_equal(np.vstack([log.rewards, log.costs]), feedback)
    assert log.epochs.t_start.tolist() == starts
    for name, column in zip(("x", "r_hat", "g_hat"), columns):
        assert np.array_equal(log.epochs[name], column), name


# -- strategy sequences ---------------------------------------------------


def _same_matrices(a, b) -> bool:
    return bool(np.array_equal(a.strategy_matrix(), b.strategy_matrix()))


@pytest.mark.parametrize("instance", sorted({name for name, _ in TRIAL_DIGESTS}))
def test_same_strategy_sequence_on_golden_cases(instance):
    """On the golden trials, every pair of logs (any two algorithms and
    seeds, the per-round baseline included) compares as their strategy
    matrices do."""
    spec = load_instance(INSTANCE_DIR / f"{instance}.json")
    oracle = solve_oracle(spec)
    logs = [
        run_trial(spec, algo, xi_seed, env_seed, delta=0.05, rho=0.2, horizon=HORIZON, oracle=oracle)
        for algo in ("debora", "debora-s", "debora-h", "ucb1")
        for xi_seed, env_seed in SEEDS
    ]
    outcomes = set()
    for a in logs:
        for b in logs:
            same = _same_matrices(a, b)
            assert a.same_strategy_sequence(b) is same
            outcomes.add(same)
    assert outcomes == {True, False}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=instances(),
    algos=st.tuples(*[st.sampled_from(["debora", "debora-s", "debora-h", "ucb1"])] * 2),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3),
    shared_xi=st.booleans(),
)
def test_same_strategy_sequence_on_random_pairs(spec, algos, seeds, shared_xi):
    oracle = solve_oracle(spec)
    xi_a, env_a, env_b = seeds
    xi_b = xi_a if shared_xi else env_a
    kwargs = dict(delta=0.05, rho=0.2, oracle=oracle)
    try:
        a = run_trial(spec, algos[0], xi_a, env_a, **kwargs)
        b = run_trial(spec, algos[1], xi_b, env_b, **kwargs)
    except ConfigError:
        assert "debora-h" in algos and not oracle.lambda_min > 0.0
        return
    assert a.same_strategy_sequence(b) is _same_matrices(a, b)
    assert b.same_strategy_sequence(a) is _same_matrices(a, b)


# one-hot strategies (with a -0.0 twin of the first) and a mixed one
_PALETTE = np.array([[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
_ARM_OF = {0: 0, 1: 0, 2: 2}  # the arm of each one-hot palette entry


def _hand_built_log(sequence, cuts=(), baseline=False):
    """A log that plays ``_PALETTE[sequence[t-1]]`` at round t: as the
    per-round baseline (one-hot entries only), or as epochs that start
    wherever the palette entry changes and at the rounds ``cuts``."""
    horizon = len(sequence)
    sequence = np.asarray(sequence)
    common = dict(algo="hand", horizon=horizon, k=3, m=0, xi_seed=0, env_seed=0,
                  rewards=np.zeros(horizon, bool), costs=np.zeros((0, horizon), bool))
    if baseline:
        actions = np.array([_ARM_OF[i] for i in sequence], dtype=np.int32)
        return harness.TrialLog(actions=actions, epochs=harness._epoch_table(0, 3, 0), **common)
    changes = np.flatnonzero(np.diff(sequence)) + 2
    starts = np.unique(np.concatenate([[1], changes, np.asarray(cuts, dtype=int)]))
    epochs = harness._epoch_table(starts.size, 3, 0)
    epochs.h = np.arange(starts.size)
    epochs.t_start = starts
    epochs.x = _PALETTE[sequence[starts - 1]]
    return harness.TrialLog(actions=np.zeros(horizon, np.int32), epochs=epochs, **common)


def test_same_strategy_sequence_merges_split_epochs():
    """Epochs that split one strategy sequence at different rounds, or
    that repeat a strategy as its -0.0 twin, still compare equal."""
    sequence = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
    a = _hand_built_log(sequence)
    b = _hand_built_log(sequence, cuts=[2, 3, 7])
    c = _hand_built_log([0] * 5 + [2, 2, 2, 3, 3], cuts=[4])
    d = _hand_built_log([0, 0, 0, 1, 2, 2, 2, 2, 3, 3])
    assert len(a.epochs) == 4 and len(b.epochs) == 7
    for x, y, same in ((a, b, True), (a, c, True), (b, c, True), (a, d, False)):
        assert _same_matrices(x, y) is same
        assert x.same_strategy_sequence(y) is same and y.same_strategy_sequence(x) is same
    one_hot = [0, 0, 1, 2, 2, 2]
    split = _hand_built_log(one_hot, cuts=[2, 5])
    for baseline in (_hand_built_log(one_hot, baseline=True),
                     _hand_built_log([0, 0, 0, 2, 2, 0], baseline=True)):
        same = _same_matrices(split, baseline)
        assert split.same_strategy_sequence(baseline) is same
        assert baseline.same_strategy_sequence(split) is same
    assert split.same_strategy_sequence(_hand_built_log(one_hot, baseline=True))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_same_strategy_sequence_on_hand_built_logs(data):
    horizon = data.draw(st.integers(1, 24))
    entries = st.integers(0, len(_PALETTE) - 1)

    def log(sequence):
        if data.draw(st.booleans()) and set(sequence) <= set(_ARM_OF):
            return _hand_built_log(sequence, baseline=True)
        cuts = data.draw(st.lists(st.integers(1, horizon), max_size=horizon))
        return _hand_built_log(sequence, cuts)

    seq_a = data.draw(st.lists(entries, min_size=horizon, max_size=horizon))
    if data.draw(st.booleans()):
        seq_b = list(seq_a)
    else:
        seq_b = data.draw(st.lists(entries, min_size=horizon, max_size=horizon))
    a, b = log(seq_a), log(seq_b)
    assert a.same_strategy_sequence(b) is _same_matrices(a, b)
