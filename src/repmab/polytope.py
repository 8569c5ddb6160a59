"""Deterministic linear programming over the probability simplex.

Feasible regions here are the simplex intersected with linear
inequality constraints.  The solver is a dense two-phase tableau
simplex with Bland's rule, so identical inputs pivot identically on
every run.  Each pivot's choice is two array scans: the entering
column is the first index with a positive reduced cost, and the
leaving row is, among the rows at the minimum ratio, the one whose
basic variable has the lowest index.  Among optimal vertices the
returned point is canonical: mass is pushed onto low arm indices
first (lexicographic preference), because a set-valued argmax is
useless to a replicable caller.

``brute_force_optimum`` enumerates basic feasible points directly and
exists only as an independent test oracle for the simplex path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Infeasible",
    "SimplexPolytopeLP",
    "brute_force_optimum",
    "check_feasible",
    "least_violation_strategy",
    "solve",
]

FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-10
_LEX_SLACK = 1e-11
_SNAP_TOL = 1e-10


class Infeasible(Exception):
    """Raised when the feasible region is empty (or the LP is unbounded)."""


@dataclass(frozen=True)
class SimplexPolytopeLP:
    """Maximize objective @ x over the simplex subject to A @ x <= b."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        obj = np.asarray(self.objective, dtype=np.float64)
        mat = np.asarray(self.constraint_matrix, dtype=np.float64)
        bnd = np.asarray(self.bounds, dtype=np.float64)
        if obj.ndim != 1 or obj.size == 0:
            raise ValueError("objective must be a nonempty vector")
        if mat.size == 0:
            mat = mat.reshape(0, obj.size)
        if mat.ndim != 2 or mat.shape[1] != obj.size:
            raise ValueError("constraint matrix shape does not match objective")
        if bnd.shape != (mat.shape[0],):
            raise ValueError("bounds length does not match constraint rows")
        for name, arr in (("objective", obj), ("constraint_matrix", mat), ("bounds", bnd)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrix", mat)
        object.__setattr__(self, "bounds", bnd)


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int, buf: np.ndarray) -> None:
    """Pivot on (row, col); ``buf`` is scratch of ``tab``'s shape."""
    prow = tab[row]
    prow /= prow[col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    np.multiply(colvals[:, None], prow, out=buf)
    tab -= buf
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _bland(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray, ncols: int) -> np.ndarray:
    """Pivot to optimality under Bland's rule; returns final reduced costs.

    Entering: the first index where ``reduced > _PIVOT_TOL``.  Leaving:
    among rows where ``col > _PIVOT_TOL``, those at the minimum of
    ``rhs / col``, and of them the one whose basic variable (``basis``,
    an int array updated in place) has the lowest index.
    """
    cost_n, body, rhs = cost[:ncols], tab[:, :ncols], tab[:, -1]
    buf = np.empty_like(tab)
    for _ in range(100_000):
        reduced = cost_n - cost[basis] @ body
        entering = int((reduced > _PIVOT_TOL).argmax())
        if not reduced[entering] > _PIVOT_TOL:
            return reduced
        col = body[:, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise Infeasible("linear program is unbounded")
        ratios = rhs[rows] / col[rows]
        ties = rows[ratios == ratios.min()]
        _pivot(tab, basis, int(ties[basis[ties].argmin()]), entering, buf)
    raise RuntimeError("simplex pivot limit reached")


def _solve_standard(a_eq: np.ndarray, b_eq: np.ndarray, cost: np.ndarray):
    """Maximize cost @ v subject to a_eq @ v = b_eq, v >= 0.

    Two-phase simplex with one artificial per row.  Returns the basic
    optimal point, its value, and whether an alternate optimum may exist
    (some nonbasic column with a vanishing reduced cost).
    """
    a_eq = np.array(a_eq, dtype=np.float64)
    b_eq = np.array(b_eq, dtype=np.float64)
    m, n = a_eq.shape
    neg = b_eq < 0.0
    a_eq[neg] *= -1.0
    b_eq[neg] *= -1.0

    tab = np.hstack([a_eq, np.eye(m), b_eq[:, None]])
    basis = np.arange(n, n + m)
    phase1_cost = np.concatenate([np.zeros(n), -np.ones(m)])
    _bland(tab, basis, phase1_cost, n + m)
    residual = float(np.sum(tab[basis >= n, -1]))
    if residual > FEAS_TOL:
        raise Infeasible("no feasible point")

    # Drive leftover artificials out of the basis; a row with no real
    # coefficients is redundant and gets dropped.
    drop = []
    for i in np.flatnonzero(basis >= n):
        real = np.flatnonzero(np.abs(tab[i, :n]) > _PIVOT_TOL)
        if real.size:
            _pivot(tab, basis, i, real[0], np.empty_like(tab))
        else:
            drop.append(i)
    if drop:
        tab, basis = np.delete(tab, drop, axis=0), np.delete(basis, drop)

    tab = np.hstack([tab[:, :n], tab[:, -1:]])
    full_cost = np.asarray(cost, dtype=np.float64)
    reduced = _bland(tab, basis, full_cost, n)

    point = np.zeros(n)
    point[basis] = tab[:, -1]
    value = float(full_cost @ point)
    reduced[basis] = -np.inf  # a basic column is no alternate
    alternates = bool(np.any(reduced > -_PIVOT_TOL))
    return point, value, alternates


def _solve_ext(
    obj_x: np.ndarray,
    mat: np.ndarray,
    bnd: np.ndarray,
    extra_obj: tuple[float, ...] = (),
    extra_cols: np.ndarray | None = None,
):
    """Maximize obj_x @ x + extra_obj @ y with x on the simplex, y >= 0,
    mat @ x + extra_cols @ y <= bnd."""
    k = obj_x.size
    m = mat.shape[0]
    e = len(extra_obj)
    ncols = k + e + m
    a_eq = np.zeros((m + 1, ncols))
    a_eq[0, :k] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[0] = 1.0
    if m:
        a_eq[1:, :k] = mat
        if e:
            a_eq[1:, k : k + e] = extra_cols
        a_eq[1:, k + e :] = np.eye(m)
        b_eq[1:] = bnd
    cost = np.concatenate([obj_x, np.asarray(extra_obj, dtype=np.float64), np.zeros(m)])
    point, value, alternates = _solve_standard(a_eq, b_eq, cost)
    x = np.maximum(point[:k], 0.0)
    y = point[k : k + e]
    return x, y, value, alternates


def _lex_refine(
    obj_x: np.ndarray,
    mat: np.ndarray,
    bnd: np.ndarray,
    value: float,
    extra_obj: tuple[float, ...] = (),
    extra_cols: np.ndarray | None = None,
) -> np.ndarray:
    """Canonical point of the optimal face: maximize x_0, then x_1, ...

    The face is pinned by requiring the original objective to stay
    within a small slack of its optimum; each refined coordinate is then
    locked the same way.
    """
    k = obj_x.size
    e = len(extra_obj)
    rows = [np.concatenate([-obj_x, -np.asarray(extra_obj, dtype=np.float64)])]
    rhs = [-(value - _LEX_SLACK)]
    base_cols = (
        np.hstack([mat, extra_cols]) if e else mat.reshape(mat.shape[0], k)
    )
    x = None
    for a in range(k):
        coord = np.zeros(k + e)
        coord[a] = 1.0
        mat_a = np.vstack([base_cols, np.asarray(rows)]) if rows else base_cols
        bnd_a = np.concatenate([bnd, np.asarray(rhs)])
        x, y, v_a, _ = _solve_ext(
            coord[:k],
            mat_a[:, :k],
            bnd_a,
            extra_obj=tuple(coord[k:]),
            extra_cols=mat_a[:, k:] if e else None,
        )
        if a < k - 1:
            rows.append(-coord)
            rhs.append(-(v_a - _LEX_SLACK))
    return x


def _snap_dust(x: np.ndarray) -> np.ndarray:
    """Zero out sub-tolerance entries, moving their mass to the largest.

    Refinement slack can leave dust of order _LEX_SLACK on coordinates
    that are really zero; snapping keeps the point on the simplex
    exactly while shifting any coordinate by at most K * _SNAP_TOL.
    """
    dust = (x > 0.0) & (x < _SNAP_TOL)
    if dust.any():
        x = x.copy()
        moved = float(np.sum(x[dust]))
        x[dust] = 0.0
        x[int(np.argmax(x))] += moved
    return x


def _whole_simplex(mat: np.ndarray, bnd: np.ndarray) -> bool:
    """Whether every single-arm strategy, and so every strategy,
    satisfies every row of mat @ x <= bnd."""
    return bool((mat <= bnd[:, None]).all())


def check_feasible(mat: np.ndarray, bnd: np.ndarray) -> None:
    """Raise Infeasible unless some strategy satisfies mat @ x <= bnd.

    Only phase 1 decides this, so no optimum is canonicalized: with a
    zero objective every feasible vertex ties, and ``solve`` would
    lex-refine through K more cold solves.
    """
    mat = np.asarray(mat, dtype=np.float64)
    bnd = np.asarray(bnd, dtype=np.float64)
    if not _whole_simplex(mat, bnd):
        _solve_ext(np.zeros(mat.shape[1]), mat, bnd)


def solve(lp: SimplexPolytopeLP):
    """Optimal (strategy, value) for ``lp``; raises Infeasible on an
    empty region.

    When every single-arm strategy already satisfies every row, the
    whole simplex is feasible and the answer is the best single arm,
    lowest index first; this exact shortcut skips the tableau entirely.
    """
    obj = lp.objective
    mat = lp.constraint_matrix
    bnd = lp.bounds
    k = obj.size
    if _whole_simplex(mat, bnd):
        best = int(obj.argmax())
        x = np.zeros(k)
        x[best] = 1.0
        return x, float(obj[best])
    x, _, value, alternates = _solve_ext(obj, mat, bnd)
    if alternates:
        x = _lex_refine(obj, mat, bnd, value)
    return _snap_dust(x), value


def least_violation_strategy(mat: np.ndarray, bnd: np.ndarray):
    """Strategy minimizing max_i (mat_i @ x - bnd_i) over the simplex.

    Fallback selector for callers whose primary region came up empty;
    always solvable.  Returns (strategy, smallest achievable worst-case
    excess).
    """
    mat = np.asarray(mat, dtype=np.float64)
    bnd = np.asarray(bnd, dtype=np.float64)
    k = mat.shape[1]
    extra_cols = np.tile(np.array([-1.0, 1.0]), (mat.shape[0], 1))
    zero_obj = np.zeros(k)
    x, _, value, alternates = _solve_ext(
        zero_obj, mat, bnd, extra_obj=(-1.0, 1.0), extra_cols=extra_cols
    )
    if alternates:
        x = _lex_refine(zero_obj, mat, bnd, value, (-1.0, 1.0), extra_cols)
    return _snap_dust(x), -value


def _lex_greater(a: np.ndarray, b: np.ndarray) -> bool:
    for va, vb in zip(a, b):
        if va != vb:
            return va > vb
    return False


def brute_force_optimum(lp: SimplexPolytopeLP):
    """Enumerate vertices of the polytope and return the best.

    A vertex activates the simplex equality plus K-1 constraints chosen
    among the nonnegativity facets and the cost rows.  Intended for
    tests only; guarded to small problems.
    """
    obj = lp.objective
    mat = lp.constraint_matrix
    bnd = lp.bounds
    k = obj.size
    m = mat.shape[0]
    if k > 6 or m > 4:
        raise ValueError("brute force oracle is limited to K <= 6, m <= 4")

    rows = [np.eye(k)[i] for i in range(k)] + [mat[i] for i in range(m)]
    rhs = [0.0] * k + list(bnd)
    best: tuple[np.ndarray, float] | None = None
    for active in itertools.combinations(range(k + m), k - 1):
        system = np.vstack([np.ones(k)] + [rows[i] for i in active])
        target = np.array([1.0] + [rhs[i] for i in active])
        try:
            x = np.linalg.solve(system, target)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(x < -FEAS_TOL):
            continue
        if m and np.any(mat @ x > bnd + FEAS_TOL):
            continue
        x = np.maximum(x, 0.0)
        value = float(obj @ x)
        if best is None or value > best[1] + FEAS_TOL:
            best = (x, value)
        elif value > best[1] - FEAS_TOL and _lex_greater(x, best[0]):
            best = (x, value)
    if best is None:
        raise Infeasible("no feasible vertex")
    return best
