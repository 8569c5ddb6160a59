"""Tests for labeled stream derivation and categorical sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repmab.randomness import (
    RandomSource,
    StreamLabel,
    UniformStream,
    _mix_int,
    _mix_u64,
    absorb_words,
    field_words,
    finish_uniforms,
    first_uniforms,
    index_from_cdf,
    label_states,
    sample_categorical,
    validate_strategy,
)


class FixedStream:
    """Test double feeding predetermined uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_uniform(self):
        return self.values.pop(0)


def test_same_label_same_draws():
    label = StreamLabel("offset-reward", epoch=1, arm=0)
    src = RandomSource(42)
    first = [src.derive_stream(label).next_uniform() for _ in range(1)]
    a = src.derive_stream(label)
    b = RandomSource(42).derive_stream(label)
    assert [a.next_uniform() for _ in range(100)] == [
        b.next_uniform() for _ in range(100)
    ]
    assert first[0] == RandomSource(42).derive_stream(label).next_uniform()


def test_distinct_labels_differ():
    src = RandomSource(42)
    a = src.derive_stream(StreamLabel("offset-reward", epoch=1, arm=0))
    b = src.derive_stream(StreamLabel("offset-reward", epoch=1, arm=1))
    draws_a = a.next_block(100)
    draws_b = b.next_block(100)
    assert np.any(draws_a != draws_b)


@pytest.mark.parametrize("purpose", ["action", "env-reward", "offset-cost"])
def test_draws_in_unit_interval(purpose):
    stream = RandomSource(0).derive_stream(StreamLabel(purpose, rnd=3))
    draws = stream.next_block(1000)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)


def test_derivation_order_independent():
    src1 = RandomSource(7)
    label_a = StreamLabel("action", rnd=1)
    label_b = StreamLabel("action", rnd=2)
    b_first = src1.derive_stream(label_b).next_uniform()
    a_after = src1.derive_stream(label_a).next_uniform()

    src2 = RandomSource(7)
    a_first = src2.derive_stream(label_a).next_uniform()
    b_after = src2.derive_stream(label_b).next_uniform()
    assert a_after == a_first
    assert b_first == b_after


def test_block_matches_scalar_draws():
    stream = RandomSource(5).derive_stream(StreamLabel("action", rnd=9))
    twin = RandomSource(5).derive_stream(StreamLabel("action", rnd=9))
    block = stream.next_block(50)
    scalars = np.array([twin.next_uniform() for _ in range(50)])
    assert np.array_equal(block, scalars)


def test_first_uniforms_matches_derive_stream():
    src = RandomSource(123)
    grid = first_uniforms(
        src, "env-cost", arm=np.arange(4)[None, :], cons=1, rnd=np.arange(1, 4)[:, None]
    )
    for t in range(1, 4):
        for a in range(4):
            label = StreamLabel("env-cost", arm=a, cons=1, rnd=t)
            assert grid[t - 1, a] == src.derive_stream(label).next_uniform()


def test_first_uniforms_scalar_prefix_and_trailing_fields():
    src = RandomSource(321)
    only_scalars = first_uniforms(src, "offset-reward", epoch=3, arm=2)
    label = StreamLabel("offset-reward", epoch=3, arm=2)
    assert float(only_scalars) == src.derive_stream(label).next_uniform()
    # trailing unset fields after an array field
    row = first_uniforms(src, "offset-cost", epoch=5, arm=np.array([0, 4]), cons=1)
    for j, a in enumerate((0, 4)):
        label = StreamLabel("offset-cost", epoch=5, arm=a, cons=1)
        assert row[j] == src.derive_stream(label).next_uniform()
    with pytest.raises(ValueError, match="arm"):
        first_uniforms(src, "env-reward", arm=np.array([0, -1]), rnd=1)


def test_scalar_and_vector_mixers_agree():
    values = [0, 1, 2**31, 2**63 - 1, 2**64 - 1, 0xDEADBEEF]
    vec = _mix_u64(np.array(values, dtype=np.uint64))
    for v, mixed in zip(values, vec):
        assert _mix_int(v) == int(mixed)


def test_uniformity_chi_square():
    # 10^4 draws per label, 20 equiprobable bins, p-value above 0.001
    for label in [StreamLabel("action", rnd=1), StreamLabel("env-reward", arm=2, rnd=5)]:
        draws = RandomSource(2024).derive_stream(label).next_block(10_000)
        counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
        _, p = stats.chisquare(counts)
        assert p > 0.001


def test_label_field_validation():
    with pytest.raises(ValueError):
        StreamLabel("action", rnd=-1).words()
    with pytest.raises(ValueError):
        StreamLabel("", rnd=1).words()


def test_root_seed_validation():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)
    RandomSource(2**64 - 1)


def test_categorical_degenerate_unit_mass():
    x = np.zeros(5)
    x[3] = 1.0
    for u in (0.01, 0.5, 0.999999):
        assert sample_categorical(FixedStream([u]), x) == 3


def test_categorical_inverse_cdf_by_hand():
    x = np.array([0.5, 0.5])
    assert sample_categorical(FixedStream([0.25]), x) == 0
    assert sample_categorical(FixedStream([0.75]), x) == 1
    # boundary tie resolves to the lower arm
    assert sample_categorical(FixedStream([0.5]), x) == 0


def test_categorical_never_picks_zero_mass():
    # u == 0.0 used to land on a leading zero-mass arm
    assert sample_categorical(FixedStream([0.0]), np.array([0.0, 1.0])) == 1
    assert sample_categorical(FixedStream([0.0]), np.array([0.0, 0.0, 0.25, 0.75])) == 2
    x = np.array([0.0, 0.5, 0.0, 0.5])
    u = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert index_from_cdf(np.cumsum(x), u).tolist() == [1, 1, 1, 3, 3]


def test_categorical_monte_carlo_frequencies():
    x = np.array([0.2, 0.3, 0.5])
    stream = RandomSource(99).derive_stream(StreamLabel("action", rnd=1))
    draws = stream.next_block(100_000)
    cdf = np.cumsum(x)
    arms = np.searchsorted(cdf, draws, side="left")
    freq = np.bincount(arms, minlength=3) / draws.size
    assert np.all(np.abs(freq - x) < 0.01)


def test_categorical_rejects_bad_strategy():
    with pytest.raises(ValueError):
        sample_categorical(FixedStream([0.5]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        sample_categorical(FixedStream([0.5]), np.array([1.5, -0.5]))


def test_validate_strategy_tolerance():
    validate_strategy(np.array([0.5, 0.5 + 5e-10]))
    with pytest.raises(ValueError):
        validate_strategy(np.array([0.5, 0.5 + 5e-9]))


def test_golden_values_pinned():
    """Frozen outputs: any change to the mixing constants or the label
    absorption order breaks replay compatibility and must be deliberate."""
    assert RandomSource(42).derive_stream(
        StreamLabel("action", rnd=1)
    ).next_uniform() == pytest.approx(0.0250697331634101, abs=0.0)
    assert RandomSource(42).derive_stream(
        StreamLabel("env-reward", arm=0, rnd=1)
    ).next_uniform() == pytest.approx(0.3046520748129594, abs=0.0)
    assert RandomSource(0).derive_stream(
        StreamLabel("offset-cost", epoch=3, arm=2, cons=1)
    ).next_uniform() == pytest.approx(0.40985156294554015, abs=0.0)
    assert (
        RandomSource(2**64 - 1).derive_stream(StreamLabel("pair-xi", rnd=7)).next_raw64()
        == 14386920630859927063
    )


def test_stream_copy_is_independent():
    stream = RandomSource(1).derive_stream(StreamLabel("action", rnd=1))
    stream.next_uniform()
    clone = stream.copy()
    assert clone.next_uniform() == stream.next_uniform()


_MAX_FIELD = 2**63 - 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    purpose=st.sampled_from(["offset-reward", "offset-cost", "env-cost", "action"]),
    epoch=st.one_of(st.none(), st.integers(0, _MAX_FIELD)),
    k=st.integers(1, 4),
    m=st.integers(0, 3),
    horizon=st.integers(1, 4),
    last_rnd=st.integers(4, _MAX_FIELD),
)
@example(seed=2**64 - 1, purpose="offset-cost", epoch=_MAX_FIELD, k=1, m=0,
         horizon=1, last_rnd=_MAX_FIELD)
@example(seed=0, purpose="env-cost", epoch=None, k=1, m=2, horizon=4, last_rnd=4)
def test_prefix_tables_match_derive_stream(seed, purpose, epoch, k, m, horizon, last_rnd):
    """Per-trial word tables, absorbed onto one label prefix, give the
    first uniform of every (arm, cons, rnd) label, up to rnd = T."""
    src = RandomSource(seed)
    rounds = np.array(range(last_rnd - horizon + 1, last_rnd + 1), dtype=np.uint64)
    cons = [None, *range(m)]
    arm_words = field_words(np.arange(k), "arm")
    cons_words = np.array([field_words(c, "cons") for c in cons])[:, None]
    states = absorb_words(label_states(src, purpose, epoch=epoch, through="epoch"), arm_words)
    states = absorb_words(states, cons_words)
    grid = finish_uniforms(states[:, :, None], field_words(rounds, "rnd"))
    assert grid.shape == (m + 1, k, horizon)
    for row, c in enumerate(cons):
        for a in range(k):
            for j, t in enumerate(rounds.tolist()):
                label = StreamLabel(purpose, epoch=epoch, arm=a, cons=c, rnd=t)
                assert grid[row, a, j] == src.derive_stream(label).next_uniform()


def test_label_states_grid_matches_scalar_prefixes():
    src = RandomSource(99)
    grid = label_states(src, "env-cost", arm=np.arange(3)[None, :], cons=np.arange(2)[:, None])
    assert grid.shape == (2, 3) and grid.dtype == np.uint64
    for i in range(2):
        for a in range(3):
            assert int(grid[i, a]) == label_states(src, "env-cost", arm=a, cons=i)


@pytest.mark.parametrize("bad", [-1, 2**63, np.array([0, -1]), np.array([2**63], dtype=np.uint64)])
def test_field_words_reject_out_of_range(bad):
    with pytest.raises(ValueError, match="rnd"):
        field_words(bad, "rnd")


def test_table_entry_points_reject_out_of_range_fields():
    src = RandomSource(3)
    with pytest.raises(ValueError, match="epoch"):
        label_states(src, "offset-reward", epoch=-1)
    with pytest.raises(ValueError, match="arm"):
        label_states(src, "env-reward", arm=np.array([2, -4]))
    with pytest.raises(ValueError, match="cons"):
        label_states(src, "env-cost", arm=0, cons=2**63)
    with pytest.raises(ValueError, match="rnd"):
        first_uniforms(src, "action", rnd=np.array([1, -3]))
    with pytest.raises(ValueError, match="purpose"):
        label_states(src, "")


def test_label_states_stops_at_through():
    src = RandomSource(8)
    after_epoch = label_states(src, "offset-cost", epoch=5, through="epoch")
    arm_word = field_words(np.array([3]), "arm")
    cons_word = field_words(1, "cons")
    state = absorb_words(absorb_words(after_epoch, arm_word), cons_word)
    assert int(state[0]) == label_states(src, "offset-cost", epoch=5, arm=3, cons=1)
    assert label_states(src, "action", through="purpose") != label_states(src, "action")
    with pytest.raises(ValueError, match="after 'epoch'"):
        label_states(src, "offset-cost", epoch=5, arm=3, through="epoch")
