"""Tests for the deterministic simplex LP solver and its brute-force twin."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repmab import polytope
from repmab.polytope import (
    _PIVOT_TOL,
    Infeasible,
    SimplexPolytopeLP,
    brute_force_optimum,
    check_feasible,
    least_violation_strategy,
    solve,
)


def test_unconstrained_argmax():
    lp = SimplexPolytopeLP([0.9, 0.5], np.zeros((0, 2)), np.zeros(0))
    x, value = solve(lp)
    assert np.array_equal(x, [1.0, 0.0])
    assert value == pytest.approx(0.9)


def test_binding_constraint_mixes():
    lp = SimplexPolytopeLP([0.9, 0.5], [[0.8, 0.2]], [0.5])
    x, value = solve(lp)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    assert value == pytest.approx(0.7, abs=1e-9)


def test_contradiction_with_simplex_is_infeasible():
    lp = SimplexPolytopeLP([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [0.5])
    with pytest.raises(Infeasible):
        solve(lp)
    with pytest.raises(Infeasible):
        brute_force_optimum(lp)


def test_brute_force_agrees_on_examples():
    for lp in [
        SimplexPolytopeLP([0.9, 0.5], np.zeros((0, 2)), np.zeros(0)),
        SimplexPolytopeLP([0.9, 0.5], [[0.8, 0.2]], [0.5]),
    ]:
        x_s, v_s = solve(lp)
        x_b, v_b = brute_force_optimum(lp)
        assert abs(v_s - v_b) <= 1e-9
        assert np.all(np.abs(x_s - x_b) <= 1e-9)


def test_single_arm_simplex():
    lp = SimplexPolytopeLP([0.4], [[0.3]], [0.5])
    x, value = solve(lp)
    assert np.array_equal(x, [1.0])
    assert value == pytest.approx(0.4)
    x_b, v_b = brute_force_optimum(lp)
    assert np.array_equal(x_b, [1.0])

    with pytest.raises(Infeasible):
        solve(SimplexPolytopeLP([0.4], [[0.9]], [0.5]))


def test_tie_break_prefers_low_arm_mass():
    # flat objective: the canonical optimum pushes mass onto arm 0
    lp = SimplexPolytopeLP([1.0, 1.0], [[0.8, 0.2]], [0.5])
    x, value = solve(lp)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)  # x0 maximized under the row

    lp2 = SimplexPolytopeLP([0.9, 0.5, 0.9], np.zeros((0, 3)), np.zeros(0))
    x2, _ = solve(lp2)
    assert np.array_equal(x2, [1.0, 0.0, 0.0])


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    obj = rng.random(4)
    mat = rng.random((3, 4))
    bnd = rng.random(3)
    lp = SimplexPolytopeLP(obj, mat, bnd)
    try:
        x1, v1 = solve(lp)
        x2, v2 = solve(lp)
    except Infeasible:
        return
    assert np.array_equal(x1, x2) and v1 == v2


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        SimplexPolytopeLP([np.nan, 1.0], np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize(
    "objective, rows, bounds, message",
    [
        pytest.param([], np.zeros((0, 0)), [], "objective must be a nonempty vector", id="no arms"),
        pytest.param([[0.5, 0.5]], np.zeros((0, 2)), [], "objective must be a nonempty vector", id="2-d"),
        pytest.param([0.5, 0.5], [[0.5, 0.5, 0.5]], [0.5],
                     "constraint matrix shape does not match objective", id="row width"),
        pytest.param([0.5, 0.5], [[0.5, 0.5]], [0.5, 0.5],
                     "bounds length does not match constraint rows", id="bound count"),
    ],
)
def test_rejects_bad_shapes(objective, rows, bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimplexPolytopeLP(objective, rows, bounds)


def test_least_violation_on_empty_region():
    # sum of x is 1, so the excess over 0.5 is exactly 0.5 everywhere
    x, worst = least_violation_strategy(np.array([[1.0, 1.0]]), np.array([0.5]))
    assert worst == pytest.approx(0.5, abs=1e-9)
    assert np.array_equal(x, [1.0, 0.0])


def test_least_violation_reaches_zero_when_feasible():
    x, worst = least_violation_strategy(np.array([[0.8, 0.2]]), np.array([0.5]))
    assert worst <= 1e-9
    assert 0.8 * x[0] + 0.2 * x[1] <= 0.5 + 1e-9


def _random_feasible_lp(rng):
    k = int(rng.integers(2, 5))
    m = int(rng.integers(0, 4))
    obj = rng.random(k)
    mat = rng.random((m, k))
    # anchor feasibility at a random simplex point
    anchor = rng.dirichlet(np.ones(k))
    bnd = mat @ anchor + rng.random(m) * 0.2
    return SimplexPolytopeLP(obj, mat, bnd)


def test_random_differential_small():
    rng = np.random.default_rng(7)
    for _ in range(60):
        lp = _random_feasible_lp(rng)
        x_s, v_s = solve(lp)
        x_b, v_b = brute_force_optimum(lp)
        assert abs(v_s - v_b) <= 1e-9
        assert np.all(x_s >= -1e-9)
        if lp.constraint_matrix.shape[0]:
            assert np.all(lp.constraint_matrix @ x_s <= lp.bounds + 1e-9)
        assert abs(float(np.sum(x_s)) - 1.0) <= 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_loosening_bounds_never_hurts(seed):
    rng = np.random.default_rng(seed)
    lp = _random_feasible_lp(rng)
    if lp.constraint_matrix.shape[0] == 0:
        return
    _, v_tight = solve(lp)
    loose = SimplexPolytopeLP(
        lp.objective, lp.constraint_matrix, lp.bounds + rng.random(lp.bounds.size) * 0.5
    )
    _, v_loose = solve(loose)
    assert v_loose >= v_tight - 1e-9


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_optimum(
            SimplexPolytopeLP(np.ones(7), np.zeros((0, 7)), np.zeros(0))
        )


# round values make ties, degenerate vertices and exactly binding rows
_ENTRY = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _constraint_rows(draw):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    mat = draw(st.lists(st.lists(_ENTRY, min_size=k, max_size=k), min_size=m, max_size=m))
    bnd = draw(st.lists(_ENTRY, min_size=m, max_size=m))
    return np.array(mat), np.array(bnd)


@given(_constraint_rows())
@example((np.array([[0.9, 0.8]]), np.array([0.5])))  # empty
@example((np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5])))  # one point
@example((np.array([[1.0, 1.0, 1.0]]), np.array([1.0])))  # whole simplex
@settings(max_examples=300, deadline=None, derandomize=True)
def test_check_feasible_raises_exactly_when_zero_objective_solve_does(rows):
    """The phase-1 check agrees with the zero-objective solve it replaces
    on whether the region mat @ x <= bnd meets the simplex."""
    mat, bnd = rows
    try:
        solve(SimplexPolytopeLP(np.zeros(mat.shape[1]), mat, bnd))
        solved = True
    except Infeasible:
        solved = False
    try:
        check_feasible(mat, bnd)
        feasible = True
    except Infeasible:
        feasible = False
    assert feasible == solved


def _reference_pivot(tab, basis, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _reference_bland(tab, basis, cost, ncols):
    """Bland's rule by scalar scans, one Python test per column and then
    per row, over a list ``basis``: the reference for ``polytope._bland``."""
    m = tab.shape[0]
    for _ in range(100_000):
        reduced = cost[:ncols] - cost[basis] @ tab[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] > _PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return reduced
        col = tab[:, entering]
        rhs = tab[:, -1]
        leave = -1
        best = 0.0
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave = i
                    best = ratio
        if leave < 0:
            raise Infeasible("linear program is unbounded")
        _reference_pivot(tab, basis, leave, entering)
    raise RuntimeError("simplex pivot limit reached")


_QUARTER = st.integers(-4, 4).map(lambda q: q / 4)


@st.composite
def _tableaux(draw):
    """A tableau over an identity basis of m columns after n others, with
    quarter-step entries, right-hand sides that are often zero and a
    duplicated row, so that ratios and reduced costs tie; the cost is
    phase 1's or drawn, and a drawn one can make the program unbounded."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    body = draw(st.lists(st.lists(_QUARTER, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), min_size=m, max_size=m))
    copy_from = draw(st.integers(0, m - 1))
    body[-1], rhs[-1] = list(body[copy_from]), rhs[copy_from]
    if draw(st.booleans()):
        cost = [0.0] * n + [-1.0] * m
    else:
        cost = draw(st.lists(_QUARTER, min_size=n + m, max_size=n + m))
    tab = np.hstack([np.array(body), np.eye(m), np.array(rhs)[:, None]])
    return tab, np.array(cost), n + m


def _run_bland(bland, tab, basis, cost, ncols):
    try:
        return bland(tab, basis, cost, ncols).tobytes()
    except Infeasible as exc:
        return repr(exc)


@given(_tableaux())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_bland_matches_the_scalar_reference(case):
    """The array scans of ``_bland`` make the scalar reference's pivots:
    the same final tableau bytes, basis and reduced-cost bytes, or the
    same ``Infeasible``, on tableaux built to tie."""
    tab, cost, ncols = case
    m = tab.shape[0]
    ref_tab, ref_basis = tab.copy(), list(range(ncols - m, ncols))
    basis = np.arange(ncols - m, ncols)
    expected = _run_bland(_reference_bland, ref_tab, ref_basis, cost, ncols)
    assert _run_bland(polytope._bland, tab, basis, cost, ncols) == expected
    assert tab.tobytes() == ref_tab.tobytes()
    assert basis.tolist() == ref_basis


def test_many_arm_lp_digest(monkeypatch):
    """``solve`` and ``least_violation_strategy`` on four seeded K=50, m=3
    instances shaped like the benchmark's (each threshold 0.05 above the
    uniform strategy's cost), pinned by each x's bytes and repr(value).
    The fallback LP ties on every one, so the digest covers four K-step
    ``_lex_refine`` runs."""
    refined = []
    lex_refine = polytope._lex_refine
    monkeypatch.setattr(polytope, "_lex_refine", lambda *a: refined.append(1) or lex_refine(*a))
    digest = hashlib.sha256()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rewards = rng.uniform(0.05, 0.95, 50)
        costs = rng.uniform(0.05, 0.95, (3, 50))
        thresholds = costs.mean(axis=1) + 0.05
        for x, value in (
            solve(SimplexPolytopeLP(rewards, costs, thresholds)),
            least_violation_strategy(costs, thresholds),
        ):
            digest.update(x.tobytes())
            digest.update(repr(value).encode())
    assert len(refined) == 4
    assert digest.hexdigest() == "9c388f94f2caf3285da48243fd2e7681c69ab10839c932b251d493536f35545c"


def _small_program(seed):
    """(objective, rows, bounds) of a seeded program with K 1-8 and m 0-4:
    quarter-step entries tie objectives and ratios, a zero or negative
    bound and a duplicated row are common, and some regions are empty."""
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(1, 9)), int(rng.integers(0, 5))
    obj = rng.integers(-1, 5, k) / 4
    mat = rng.integers(-1, 5, (m, k)) / 4
    bnd = rng.choice([-0.25, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0], m)
    if m > 1 and rng.random() < 0.5:
        mat[-1], bnd[-1] = mat[0], bnd[0]
    return obj, mat, bnd


def _outcome(call, *args) -> bytes:
    """The bytes of a result (strategy, repr of its value) or of None, or
    the name of the exception type raised."""
    try:
        result = call(*args)
    except Exception as exc:
        return type(exc).__name__.encode()
    if result is None:
        return b"None"
    x, value = result
    return x.tobytes() + repr(value).encode()


def test_small_lp_digest(monkeypatch):
    """``solve``, ``least_violation_strategy`` and ``check_feasible`` on
    300 seeded small programs, pinned by their result bytes and raised
    exception types; the counts pin how many of the 900 calls raised
    ``Infeasible`` and how many solves lex-refined."""
    refined = []
    lex_refine = polytope._lex_refine
    monkeypatch.setattr(polytope, "_lex_refine", lambda *a: refined.append(1) or lex_refine(*a))
    digest = hashlib.sha256()
    infeasible = 0
    for seed in range(300):
        obj, mat, bnd = _small_program(seed)
        for call, args in (
            (solve, (SimplexPolytopeLP(obj, mat, bnd),)),
            (least_violation_strategy, (mat, bnd)),
            (check_feasible, (mat, bnd)),
        ):
            outcome = _outcome(call, *args)
            infeasible += outcome == b"Infeasible"
            digest.update(outcome)
    assert (infeasible, len(refined)) == (276, 299)
    assert digest.hexdigest() == "10f2e481dc2c7e882f25916b193c78919ec0aceaa756535d68af447e0c4573e3"
