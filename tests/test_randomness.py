"""Tests for labeled stream derivation and categorical sampling."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repmab.randomness import (
    RandomSource,
    StreamLabel,
    _mix_int,
    _mix_u64,
    absorb_ready,
    field_words,
    finish_ready_bits,
    finish_uniforms,
    first_uniforms,
    index_from_cdf,
    label_states,
    round_words,
    validate_strategy,
)


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
    rounds = np.arange(1, 101)
    draws_a = first_uniforms(src, "offset-reward", epoch=1, arm=0, rnd=rounds)
    draws_b = first_uniforms(src, "offset-reward", epoch=1, arm=1, rnd=rounds)
    assert np.any(draws_a != draws_b)


@pytest.mark.parametrize("purpose", ["action", "env-reward", "offset-cost"])
def test_draws_in_unit_interval(purpose):
    draws = first_uniforms(RandomSource(0), purpose, rnd=np.arange(1, 1001))
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


_MIX_VALUES = [0, 1, 2**31, 2**63 - 1, 2**64 - 1, 0xDEADBEEF]


def test_scalar_and_vector_mixers_agree():
    for shape in [(6,), (2, 3), (3, 2)]:
        values = np.array(_MIX_VALUES, dtype=np.uint64).reshape(shape)
        vec = values.copy()
        assert _mix_u64(vec) is vec  # mixed in place
        for v, mixed in zip(values.ravel().tolist(), vec.ravel().tolist()):
            assert _mix_int(v) == mixed


@pytest.mark.parametrize("value", _MIX_VALUES)
def test_mixer_on_zero_d_arrays_and_numpy_scalars(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on any path
        zero_d = np.array(value, dtype=np.uint64)
        assert _mix_u64(zero_d) is zero_d
        assert zero_d.shape == () and int(zero_d) == _mix_int(value)
        scalar = np.uint64(value)
        mixed = _mix_u64(scalar)
        assert isinstance(mixed, np.uint64) and int(mixed) == _mix_int(value)
        assert int(scalar) == value
        label = StreamLabel("env-reward", arm=value % 7, rnd=value % 2**63)
        src = RandomSource(value)
        scalar_u = first_uniforms(src, "env-reward", arm=value % 7, rnd=value % 2**63)
        assert float(scalar_u) == src.derive_stream(label).next_uniform()


def test_round_words_is_one_read_only_table_per_horizon():
    table = round_words(50)
    assert np.array_equal(table, field_words(np.arange(1, 51), "rnd"))
    assert round_words(50) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        table[:, None][3, 0] += 1
    other = round_words(7)
    assert np.array_equal(other, field_words(np.arange(1, 8), "rnd"))
    assert np.array_equal(round_words(50), table)


def test_finish_bits_are_the_uniforms_numerators():
    src = RandomSource(17)
    states = label_states(src, "env-cost", arm=np.arange(3), cons=np.arange(2)[:, None])
    words = field_words(np.arange(1, 6), "rnd")[:, None, None]
    bits = finish_ready_bits(absorb_ready(states), words)
    assert bits.dtype == np.uint64 and bits.shape == (5, 2, 3)
    assert (bits < 2**53).all()
    assert np.array_equal(bits / 2.0**53, finish_uniforms(states, words))


def test_uniformity_chi_square():
    # first uniforms of 10^4 labels per prefix, 20 equiprobable bins,
    # p-value above 0.001
    rounds = np.arange(1, 10_001)
    for purpose, arm in [("action", None), ("env-reward", 2)]:
        draws = first_uniforms(RandomSource(2024), purpose, arm=arm, rnd=rounds)
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
        assert index_from_cdf(np.cumsum(x), u) == 3


def test_categorical_inverse_cdf_by_hand():
    cdf = np.cumsum([0.5, 0.5])
    assert index_from_cdf(cdf, 0.25) == 0
    assert index_from_cdf(cdf, 0.75) == 1
    # boundary tie resolves to the lower arm
    assert index_from_cdf(cdf, 0.5) == 0


def test_categorical_never_picks_zero_mass():
    # u == 0.0 used to land on a leading zero-mass arm
    assert index_from_cdf(np.cumsum([0.0, 1.0]), 0.0) == 1
    assert index_from_cdf(np.cumsum([0.0, 0.0, 0.25, 0.75]), 0.0) == 2
    x = np.array([0.0, 0.5, 0.0, 0.5])
    u = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert index_from_cdf(np.cumsum(x), u).tolist() == [1, 1, 1, 3, 3]


def test_categorical_monte_carlo_frequencies():
    x = np.array([0.2, 0.3, 0.5])
    draws = first_uniforms(RandomSource(99), "action", rnd=np.arange(1, 100_001))
    arms = index_from_cdf(np.cumsum(x), draws)
    freq = np.bincount(arms, minlength=3) / draws.size
    assert np.all(np.abs(freq - x) < 0.01)


def test_categorical_rejects_bad_strategy():
    with pytest.raises(ValueError):
        validate_strategy(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        validate_strategy(np.array([1.5, -0.5]))


@pytest.mark.parametrize("position", range(3))
def test_strategy_with_nan_rejected(position):
    x = np.array([0.5, 0.5, 0.5])
    x[position] = np.nan
    with pytest.raises(ValueError, match="sum"):
        validate_strategy(x)


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
    """Full label-prefix grids over (cons, arm), finished with a table of
    round words, give the first uniform of every (arm, cons, rnd) label,
    up to rnd = T."""
    src = RandomSource(seed)
    rounds = np.array(range(last_rnd - horizon + 1, last_rnd + 1), dtype=np.uint64)
    cons = [None, *range(m)]
    arms = np.arange(k)
    rows = [label_states(src, purpose, epoch=epoch, arm=arms)[None, :]]
    if m:
        rows.append(label_states(src, purpose, epoch=epoch, arm=arms, cons=np.arange(m)[:, None]))
    states = np.concatenate(rows)
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
