"""Deterministic linear programming over the probability simplex.

Every program here has one form, ``(cost, mat, bnd, k)``: maximize
cost @ v over v >= 0, with the first ``k`` entries x of v on the
simplex and mat @ v <= bnd.  One routine, ``_solve``, builds and solves
the tableau of each: a dense two-phase simplex with Bland's rule, so
identical inputs pivot identically on every run.  Each pivot's choice
is two array scans: the entering column is the first index with a
positive reduced cost, and the leaving row is, among the rows at the
minimum ratio, the one whose basic variable has the lowest index.
Among optimal vertices the returned point is canonical: mass is pushed
onto low arm indices first (lexicographic preference), because a
set-valued argmax is useless to a replicable caller; ``solve`` and
``least_violation_strategy`` reach it through one tail, ``_canonical``.

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


def _solve(cost: np.ndarray, mat: np.ndarray, bnd: np.ndarray, k: int):
    """Solve the program ``(cost, mat, bnd, k)``, in the module's form.

    The tableau's columns are v, one slack per row of ``mat``, then one
    artificial per row, the simplex row first; Bland's rule takes the
    lowest eligible index, so this order decides every pivot.  Returns x
    at the basic optimum, its value, and whether an alternate optimum
    may exist (some nonbasic column with a vanishing reduced cost).
    """
    m = mat.shape[0]
    n = mat.shape[1] + m
    a_eq = np.zeros((m + 1, n))
    a_eq[0, :k] = 1.0
    a_eq[1:] = np.hstack([mat, np.eye(m)])
    b_eq = np.concatenate([[1.0], bnd])
    neg = b_eq < 0.0
    a_eq[neg] *= -1.0
    b_eq[neg] *= -1.0

    tab = np.hstack([a_eq, np.eye(m + 1), b_eq[:, None]])
    basis = np.arange(n, n + m + 1)
    _bland(tab, basis, np.concatenate([np.zeros(n), -np.ones(m + 1)]), n + m + 1)
    if float(np.sum(tab[basis >= n, -1])) > FEAS_TOL:
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
    full_cost = np.concatenate([cost, np.zeros(m)])
    reduced = _bland(tab, basis, full_cost, n)

    point = np.zeros(n)
    point[basis] = tab[:, -1]
    reduced[basis] = -np.inf  # a basic column is no alternate
    alternates = bool(np.any(reduced > -_PIVOT_TOL))
    return np.maximum(point[:k], 0.0), float(full_cost @ point), alternates


def _lex_refine(cost: np.ndarray, mat: np.ndarray, bnd: np.ndarray, value: float, k: int):
    """Canonical x of the optimal face of ``_solve``'s program: maximize
    x_0, then x_1, ...

    The face is pinned by requiring the original objective to stay
    within a small slack of its optimum; each refined coordinate is then
    locked the same way.
    """
    rows, rhs = [-cost], [-(value - _LEX_SLACK)]
    for a in range(k):
        coord = np.zeros(cost.size)
        coord[a] = 1.0
        x, v_a, _ = _solve(coord, np.vstack([mat, *rows]), np.concatenate([bnd, rhs]), k)
        rows.append(-coord)
        rhs.append(-(v_a - _LEX_SLACK))
    return x


def _canonical(cost, mat, bnd, k):
    """(x, value) of ``_solve``'s program at its canonical optimum:
    lex-refined when an alternate optimum may exist, then dust-snapped."""
    x, value, alternates = _solve(cost, mat, bnd, k)
    if alternates:
        x = _lex_refine(cost, mat, bnd, value, k)
    return _snap_dust(x), value


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
        _solve(np.zeros(mat.shape[1]), mat, bnd, mat.shape[1])


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
    return _canonical(obj, mat, bnd, k)


def least_violation_strategy(mat: np.ndarray, bnd: np.ndarray):
    """Strategy minimizing max_i (mat_i @ x - bnd_i) over the simplex.

    Fallback selector for callers whose primary region came up empty;
    always solvable.  Returns (strategy, smallest achievable worst-case
    excess).
    """
    mat = np.asarray(mat, dtype=np.float64)
    bnd = np.asarray(bnd, dtype=np.float64)
    m, k = mat.shape
    # the worst excess t = t+ - t- takes two columns: mat @ x - t <= bnd
    twin = np.tile([-1.0, 1.0], (m, 1))
    x, value = _canonical(np.r_[np.zeros(k), -1.0, 1.0], np.hstack([mat, twin]), bnd, k)
    return x, -value


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
