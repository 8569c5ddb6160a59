"""Tests for the randomized-grid mean estimator and confidence widths."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repmab.estimator import (
    RepMeanParams,
    confidence_widths,
    grid_cell_width,
    rep_mean,
    snap_to_grid,
)
from repmab.randomness import RandomSource, StreamLabel, first_uniforms


def test_grid_cell_formula():
    assert grid_cell_width(0.01, 0.1) == pytest.approx(0.02 / 1.08)
    assert grid_cell_width(0.12, 0.44) == pytest.approx(0.2)


def test_grid_cell_rejects_bad_split():
    with pytest.raises(ValueError):
        grid_cell_width(0.3, 0.5)  # 2*delta >= rho
    with pytest.raises(ValueError):
        grid_cell_width(0.0, 0.5)
    with pytest.raises(ValueError):
        grid_cell_width(0.1, 1.0)


def test_rep_mean_hand_trace():
    # mean 0.43 on a grid of cell 0.2 shifted by 0.1 lands in cell 1
    params = RepMeanParams(0.12, 0.44, offset=0.1)
    assert params.grid_cell == pytest.approx(0.2)
    assert rep_mean([0.43], params) == pytest.approx(0.4)


def test_rep_mean_zero_mean_clamps_cell_index():
    params = RepMeanParams(0.12, 0.44, offset=0.15)
    expected = min(0.15 + params.grid_cell / 2.0, 1.0)
    assert rep_mean([0.0, 0.0, 0.0], params) == pytest.approx(expected)


def test_rep_mean_same_cell_same_output():
    params = RepMeanParams(0.12, 0.44, offset=0.1)
    out_a = rep_mean([0.41], params)
    out_b = rep_mean([0.43], params)
    assert out_a == out_b == pytest.approx(0.4)


def test_rep_mean_depends_only_on_cell():
    params = RepMeanParams(0.12, 0.44, offset=0.1)
    # 0.29 and 0.31 straddle the boundary at 0.3
    assert rep_mean([0.29], params) != rep_mean([0.31], params)


def test_rep_mean_rejects_bad_input():
    params = RepMeanParams(0.12, 0.44, offset=0.1)
    with pytest.raises(ValueError):
        rep_mean([], params)
    with pytest.raises(ValueError):
        rep_mean([0.5, 1.2], params)
    with pytest.raises(ValueError):
        rep_mean([-0.1], params)


def test_params_offset_range_checked():
    with pytest.raises(ValueError):
        RepMeanParams(0.12, 0.44, offset=0.25)  # cell is 0.2
    with pytest.raises(ValueError):
        RepMeanParams(0.12, 0.44, offset=-0.01)


def test_params_draw_uses_stream():
    stream = RandomSource(3).derive_stream(StreamLabel("offset-reward", epoch=1, arm=0))
    twin = RandomSource(3).derive_stream(StreamLabel("offset-reward", epoch=1, arm=0))
    params = RepMeanParams.draw(0.12, 0.44, stream)
    assert params.offset == twin.next_uniform() * params.grid_cell


def test_samples_at_one_use_final_cap():
    # midpoint 0.15 + 4.5 * 0.2 = 1.05 exceeds one and gets capped
    params = RepMeanParams(0.12, 0.44, offset=0.15)
    assert rep_mean([1.0, 1.0], params) == 1.0
    # with a smaller offset the midpoint stays inside [0, 1]: no cap
    params2 = RepMeanParams(0.12, 0.44, offset=0.05)
    assert rep_mean([1.0, 1.0], params2) == pytest.approx(0.95)


def test_confidence_width_zero_and_one_sample_agree():
    zero, one = confidence_widths([0, 1], 0.05, 0.5)
    assert zero == one


def test_confidence_width_quadruple_halves_exactly():
    n = np.array([1, 3, 8, 117])
    halved = confidence_widths(4 * n, 0.05, 0.5) * 2.0
    assert np.array_equal(halved, confidence_widths(n, 0.05, 0.5))


def test_confidence_width_value():
    # sqrt(2 ln 40 / (100 * 0.16))
    expected = math.sqrt(2.0 * math.log(40.0) / (100 * 0.16))
    assert float(confidence_widths(100, 0.05, 0.5)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.67905, abs=1e-4)


def test_confidence_width_validates():
    with pytest.raises(ValueError):
        confidence_widths(10, 0.3, 0.5)


@given(
    means=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    delta=st.floats(0.01, 0.2),
    rho_gap=st.floats(0.05, 0.5),
    offset_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_output_is_grid_point_or_one(means, delta, rho_gap, offset_frac):
    rho = min(2 * delta + rho_gap, 0.99)
    cell = grid_cell_width(delta, rho)
    params = RepMeanParams(delta, rho, offset=offset_frac * cell)
    out = rep_mean(means, params)
    if out != 1.0:
        z = round((out - params.offset) / cell - 0.5)
        assert z >= 0
        assert out == pytest.approx(params.offset + (z + 0.5) * cell, abs=1e-12)


@given(
    base=st.floats(0.0, 0.99),
    jitter=st.floats(0.0, 1.0),
    offset_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_outputs_equal_within_one_cell(base, jitter, offset_frac):
    """Two sample sets whose means share a grid cell share the output."""
    params = RepMeanParams(0.12, 0.44, offset=offset_frac * 0.2)
    cell = params.grid_cell
    z = math.floor(max((base - params.offset) / cell, 0.0))
    lo = max(params.offset + z * cell, 0.0)
    hi = min(params.offset + (z + 1) * cell, 1.0)
    if hi <= lo:
        return
    mean_a = min(lo + jitter * (hi - lo) * 0.999, 1.0)
    mean_b = min(lo + (1.0 - jitter) * (hi - lo) * 0.999, 1.0)
    if math.floor(max((mean_a - params.offset) / cell, 0.0)) != math.floor(
        max((mean_b - params.offset) / cell, 0.0)
    ):
        return  # rounding put them in different cells after all
    assert rep_mean([mean_a], params) == rep_mean([mean_b], params)


def test_confidence_width_nonincreasing_in_count():
    widths = confidence_widths(np.arange(0, 200), 0.01, 0.1)
    assert np.all(np.diff(widths) <= 0.0)


def test_snap_to_grid_monotone_in_mean():
    cell, offset = 0.1, 0.03
    outs = [snap_to_grid(m, cell, offset) for m in np.linspace(0, 1, 101)]
    assert all(a <= b for a, b in zip(outs, outs[1:]))


def test_replicability_and_accuracy_small_scale():
    """Reduced-size check of the estimator guarantee; the full-size run
    lives in the acceptance suite."""
    epsilon, delta_p, rho_p = 0.2, 0.05, 0.3
    n = math.ceil(2.0 * math.log(2.0 / delta_p) / (epsilon**2 * (rho_p - 2 * delta_p) ** 2))
    reps = 300
    mean = 0.37
    mismatches = 0
    accuracy_failures = 0
    for rep in range(reps):
        xi = RandomSource(1000 + rep)
        offset_label = StreamLabel("offset-reward", epoch=0, arm=0)
        env_a = RandomSource(5000 + 2 * rep)
        env_b = RandomSource(5000 + 2 * rep + 1)
        rounds = np.arange(1, n + 1)
        samples_a = (first_uniforms(env_a, "env-reward", arm=0, rnd=rounds) < mean).astype(float)
        samples_b = (first_uniforms(env_b, "env-reward", arm=0, rnd=rounds) < mean).astype(float)
        params_a = RepMeanParams.draw(delta_p, rho_p, xi.derive_stream(offset_label))
        params_b = RepMeanParams.draw(delta_p, rho_p, xi.derive_stream(offset_label))
        assert params_a.offset == params_b.offset
        out_a = rep_mean(samples_a, params_a)
        out_b = rep_mean(samples_b, params_b)
        if out_a != out_b:
            mismatches += 1
        if abs(out_a - mean) > epsilon:
            accuracy_failures += 1
    assert mismatches / reps <= rho_p + 3.0 * math.sqrt(rho_p * (1 - rho_p) / reps)
    assert accuracy_failures / reps <= delta_p + 3.0 * math.sqrt(delta_p * (1 - delta_p) / reps)


@st.composite
def running_cells(draw):
    """(cell, offset) as a policy close builds them: the cell is the
    confidence width of a count large enough that it falls below 1, and
    the offset a fraction of that cell."""
    rho_prime = draw(st.floats(1e-3, 0.9))
    delta_prime = draw(st.floats(0.001, 0.45)) * rho_prime
    # the count at which the width reaches 1, times a growth factor
    unit_count = 2.0 * math.log(2.0 / delta_prime) / (rho_prime - 2.0 * delta_prime) ** 2
    n = math.ceil(unit_count * draw(st.floats(1.0001, 1e4)))
    cell = float(confidence_widths(n, delta_prime, rho_prime))
    assert cell < 1.0
    return cell, draw(st.floats(0.0, 1.0)) * cell


@given(grid=running_cells(), mean=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_snap_within_half_cell_at_running_widths(grid, mean):
    cell, offset = grid
    assume(mean >= offset)
    est = snap_to_grid(mean, cell, offset)
    assert est <= 1.0
    assert abs(est - mean) <= cell / 2.0 + 1e-12


@given(
    grid=running_cells(),
    position=st.floats(0.0, 1.0),
    fracs=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_snap_same_cell_same_output_at_running_widths(grid, position, fracs):
    cell, offset = grid
    z = math.floor(position * (1.0 - offset) / cell)
    means = [offset + (z + f) * cell for f in fracs]
    assume(max(means) <= 1.0)
    outs = snap_to_grid(np.array(means), cell, offset)
    assert outs[0] == outs[1] == snap_to_grid(means[0], cell, offset)
