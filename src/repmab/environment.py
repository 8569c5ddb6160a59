"""Ground-truth constrained bandit instances.

An instance holds the true Bernoulli means for one reward signal and m
cost signals, plus the cost thresholds and horizon.  The module samples
feedback from labeled environment streams, solves the oracle programs
(optimal safe strategy, max-margin strictly safe strategy), and scores
strategies by expected instantaneous regret and violation.

Every JSON input file (instance or experiment config) is decoded by
``read_json`` and its values typed by ``is_json_kind``; every error that
echoes an input value shows it through ``shown``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import polytope
from .polytope import Infeasible, SimplexPolytopeLP
from .randomness import (
    RandomSource,
    absorb_ready,
    finish_ready_bits,
    label_states,
    round_words,
)
from .randomness import first_uniforms  # noqa: F401  (perfbench/tracer.py wraps it by name)

__all__ = [
    "FeedbackStreams",
    "InstanceSpec",
    "OracleSolution",
    "ValidationError",
    "feedback_tables",
    "instant_regret",
    "instant_violation",
    "load_instance",
    "solve_oracle",
]

SAFETY_TOL = 1e-9
# horizons stop below 2**53, where float64 success sums stop being exact
HORIZON_LIMIT = 2**53


class ValidationError(ValueError):
    """Instance or configuration rejected; message lists the problems."""


@dataclass(frozen=True, eq=False)
class InstanceSpec:
    """Immutable description of one constrained bandit instance."""

    reward_means: np.ndarray
    cost_means: np.ndarray
    thresholds: np.ndarray
    horizon: int
    family: str = "bernoulli"

    def __post_init__(self) -> None:
        r = np.asarray(self.reward_means, dtype=np.float64)
        g = np.asarray(self.cost_means, dtype=np.float64)
        a = np.asarray(self.thresholds, dtype=np.float64)
        if g.size == 0:
            g = g.reshape(0, r.size)
        problems = _shape_problems(r, g, a, self.horizon, self.family)
        if problems:
            raise ValidationError("\n".join(problems))
        for arr in (r, g, a):
            arr.flags.writeable = False
        object.__setattr__(self, "reward_means", r)
        object.__setattr__(self, "cost_means", g)
        object.__setattr__(self, "thresholds", a)
        object.__setattr__(self, "horizon", int(self.horizon))

    @property
    def k(self) -> int:
        return self.reward_means.size

    @property
    def m(self) -> int:
        return self.cost_means.shape[0]


def _shape_problems(r, g, a, horizon, family) -> list[str]:
    out = []
    if r.ndim != 1 or r.size < 1:
        out.append("reward_means must be a nonempty vector")
        return out
    if g.ndim != 2 or g.shape[1] != r.size:
        out.append(f"cost_means must be an m x {r.size} matrix, got shape {g.shape}")
        return out
    if a.shape != (g.shape[0],):
        out.append(f"thresholds must have one entry per constraint, got {a.shape}")
        return out
    # tolist() gives python floats, which print as 1.5 and nan
    for idx, value in enumerate(r.tolist()):
        if not (0.0 <= value <= 1.0):
            out.append(f"reward_means[{idx}] = {value!r} outside [0, 1]")
    for i, (row, bound) in enumerate(zip(g.tolist(), a.tolist())):
        for idx, value in enumerate(row):
            if not (0.0 <= value <= 1.0):
                out.append(f"cost_means[{i}][{idx}] = {value!r} outside [0, 1]")
        if not (0.0 <= bound <= 1.0):
            out.append(f"thresholds[{i}] = {bound!r} outside [0, 1]")
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
        out.append(f"horizon must be a positive integer, got {shown(horizon)}")
    elif horizon >= HORIZON_LIMIT:
        out.append(f"horizon must be below 2**53, got {shown(horizon)}")
    if family != "bernoulli":
        out.append(f"unsupported distribution family {shown(family)}")
    return out


_REQUIRED_KEYS = ("K", "m", "reward_means", "cost_means", "thresholds", "horizon")
_ALLOWED_KEYS = set(_REQUIRED_KEYS) | {"family"}


def instance_from_dict(payload: dict, where: str = "instance") -> InstanceSpec:
    """Build and validate an instance from its JSON-style payload.

    Collects every schema problem it can find before rejecting, so a bad
    file is diagnosed in one pass.
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(payload).__name__}")
    problems = []
    for key in _REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"{where}: missing required key {key!r}")
    for key in payload:
        if key not in _ALLOWED_KEYS:
            problems.append(f"{where}: unknown key {shown(key)}")
    if problems:
        raise ValidationError("\n".join(problems))

    k = payload["K"]
    m = payload["m"]
    if not is_json_kind(k, int) or k < 1:
        problems.append(f"{where}.K must be an integer >= 1, got {shown(k)}")
    if not is_json_kind(m, int) or m < 0:
        problems.append(f"{where}.m must be an integer >= 0, got {shown(m)}")
    if problems:
        raise ValidationError("\n".join(problems))

    reward = payload["reward_means"]
    costs = payload["cost_means"]
    thresholds = payload["thresholds"]
    if not isinstance(reward, list) or len(reward) != k:
        problems.append(f"{where}.reward_means must be a list of length K={shown(k)}")
    if not isinstance(costs, list) or len(costs) != m:
        problems.append(f"{where}.cost_means must be a list of m={shown(m)} rows")
    else:
        for i, row in enumerate(costs):
            if not isinstance(row, list) or len(row) != k:
                problems.append(f"{where}.cost_means[{i}] must be a list of length K={shown(k)}")
    if not isinstance(thresholds, list) or len(thresholds) != m:
        problems.append(f"{where}.thresholds must be a list of length m={shown(m)}")
    if problems:
        raise ValidationError("\n".join(problems))
    entries = [(f"reward_means[{j}]", v) for j, v in enumerate(reward)]
    entries += [
        (f"cost_means[{i}][{j}]", v) for i, row in enumerate(costs) for j, v in enumerate(row)
    ]
    entries += [(f"thresholds[{i}]", v) for i, v in enumerate(thresholds)]
    for name, value in entries:
        if not is_json_kind(value, float):
            problems.append(f"{where}.{name} must be a number, got {shown(value)}")
    if problems:
        raise ValidationError("\n".join(problems))

    try:
        spec = InstanceSpec(
            reward_means=np.asarray(reward, dtype=np.float64),
            cost_means=np.asarray(costs, dtype=np.float64).reshape(m, k),
            thresholds=np.asarray(thresholds, dtype=np.float64),
            horizon=payload["horizon"],
            family=payload.get("family", "bernoulli"),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc

    try:
        polytope.check_feasible(spec.cost_means, spec.thresholds)
    except Infeasible:
        raise ValidationError(
            f"{where}: safe set is empty (no strategy satisfies all constraints)"
        ) from None
    return spec


def is_json_kind(value, kind: type) -> bool:
    """Whether a decoded JSON value is of ``kind`` (int, float or str): a
    bool is never a number, and a float may be an integer that fits one."""
    if isinstance(value, bool):
        return False
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def shown(value) -> str:
    """``repr(value)`` for an error message: in full up to 40 characters,
    else its first 40 and its length; an int with more digits than the
    interpreter prints is shown by its size, and a container holding one
    by its type, so no input value makes the message itself raise."""
    try:
        text = repr(value)
    except ValueError:  # an int past the digit limit, or a container holding one
        if isinstance(value, int):
            return f"<an int of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} too large to print>"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def read_json(path: str | Path):
    """Decode a JSON input file; every failure is a ``ValidationError``
    naming the file, and a decode error gives its line and column."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # not UTF-8, a NUL, past the int digit limit
        raise ValidationError(f"{path}: cannot read JSON: {exc}") from exc


def load_instance(path: str | Path) -> InstanceSpec:
    """Load and validate an instance file."""
    return instance_from_dict(read_json(path), where=str(path))


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Ground-truth optima of an instance.

    lam holds the costs of the max-margin strictly safe strategy;
    lambda_min is its worst-case slack (inf when there are no
    constraints).
    """

    x_star: np.ndarray
    opt_value: float
    x_diamond: np.ndarray
    lam: np.ndarray
    lambda_min: float

    def __post_init__(self) -> None:
        for arr in (self.x_star, self.x_diamond, self.lam):
            arr.flags.writeable = False


def solve_oracle(spec: InstanceSpec) -> OracleSolution:
    """Solve for the optimal safe strategy and the max-margin strategy."""
    try:
        x_star, opt_value = polytope.solve(
            SimplexPolytopeLP(spec.reward_means, spec.cost_means, spec.thresholds)
        )
    except Infeasible:
        raise ValidationError("instance rejected: safe set is empty") from None
    if spec.m == 0:
        x_diamond = np.zeros(spec.k)
        x_diamond[0] = 1.0
        lam = np.zeros(0)
        lambda_min = math.inf
    else:
        x_diamond, _ = polytope.least_violation_strategy(spec.cost_means, spec.thresholds)
        lam = spec.cost_means @ x_diamond
        # the worst margin x_diamond really has, not the LP's objective
        # value: the sigma cap 1/(1+lambda_min) holds only for a margin
        # that no constraint's own margin falls below, even by rounding
        lambda_min = float(np.min(spec.thresholds - lam))
    return OracleSolution(
        x_star=x_star,
        opt_value=opt_value,
        x_diamond=x_diamond,
        lam=lam,
        lambda_min=lambda_min,
    )


class FeedbackStreams:
    """Label-prefix states of every feedback signal for one environment seed.

    ``states`` is an (m+1, K) table: row 0 holds the ``env-reward``
    stream states and row i+1 the ``env-cost`` states of constraint i,
    one column per arm, each absorbed up to and including ``cons``;
    ``ready`` is the same table offset for the round word's absorb
    (``absorb_ready``).  A draw then only absorbs the round word and
    mixes once more, and realizes each signal as 1 when its uniform
    n / 2^53 falls below the mean μ, read as the exact integer compare
    n < ``limits`` = ceil(μ · 2^53) (so μ = 0 never fires and μ = 1
    always does).
    """

    __slots__ = ("states", "ready", "limits")

    def __init__(self, spec: InstanceSpec, env: RandomSource):
        arms = np.arange(spec.k)
        self.states = np.vstack([
            label_states(env, "env-reward", arm=arms),
            label_states(env, "env-cost", arm=arms, cons=np.arange(spec.m)[:, None]),
        ])
        self.ready = absorb_ready(self.states)
        means = np.vstack([spec.reward_means, spec.cost_means])
        self.limits = np.ceil(np.ldexp(means, 53)).astype(np.uint64)

    def draw(self, arms, rnd_words, out=None) -> np.ndarray:
        """Feedback (m+1, ...) of pulling ``arms``, an arm or an array of
        arms, at the rounds whose ``field_words`` are ``rnd_words`` (the
        two broadcast, so a one-element array of arms is pulled at every
        round).  The result is boolean; given ``out``, it is written there
        and returned.  A trial passes the chunk's columns of its boolean
        (m+1, T) feedback table, so each signal lands in its byte with no
        temporary or cast.
        """
        ready, limits = self.ready.take(arms, axis=1), self.limits.take(arms, axis=1)
        return np.less(finish_ready_bits(ready, rnd_words), limits, out=out)


def feedback_tables(
    spec: InstanceSpec, env: RandomSource, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full realization tables: rewards (T, K) and costs (m, T, K).

    Entry [t-1, a] is the feedback of pulling arm a at round t, as
    ``FeedbackStreams.draw`` gives it; the tests read the trials'
    feedback against these tables.
    """
    rounds = round_words(horizon)[:, None]
    feedback = FeedbackStreams(spec, env).draw(np.arange(spec.k)[None, :], rounds)
    feedback = feedback.astype(np.float64)
    return feedback[0], feedback[1:]


def instant_regret(spec: InstanceSpec, oracle: OracleSolution, x: np.ndarray) -> float:
    """Expected per-round regret of strategy x against the safe optimum."""
    return float(oracle.opt_value - spec.reward_means @ x)


def instant_violation(spec: InstanceSpec, x: np.ndarray) -> np.ndarray:
    """Per-constraint positive part of the expected threshold excess."""
    if spec.m == 0:
        return np.zeros(0)
    return np.maximum(spec.cost_means @ x - spec.thresholds, 0.0)
