"""Span tracer wrapped around repmab's layer entry points.

Only the traced run installs it.  Each wrapper replaces a name where its
caller looks it up (a module global or a class attribute), so the
program's own code is untouched.  Functions called hundreds of times per
epoch close (``RandomSource.uniform``, ``snap_to_grid``,
``confidence_widths``) are leaves: they are counted and timed in
aggregate and charged to their parent's child time, but keep no span of
their own.  Nothing called once per round (``observe``) is wrapped, as
that would swamp the per-round loop the trace is meant to measure.

Counters (rounds, feedback cells, label counts, tableau solves) are
computed from the arguments before the call.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SPAN_FIELDS = ("span_id", "name", "start", "end", "parent_id", "op")


class Tracer:
    """In-memory spans and per-(phase, name) totals.

    ``phase`` is "setup" or "op"; ``op`` is the current operation index
    (-1 during set-up).  Spans are written out only when the run ends.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.op = -1
        self.stack: list[list] = [[0.0, 0, ""]]  # frames: [child seconds, span id, name]
        self.next_id = 1
        self.spans: list[tuple] = []
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self s
        self.counts: dict = defaultdict(float)
        self.export_dirs: list[Path] = []
        self._installed: list[tuple] = []

    def count(self, key: str, value: float) -> None:
        self.counts[(self.phase, key)] += value

    def wrap(self, name: str, fn, leaf: bool = False, hook=None):
        tracer = self
        perf = time.perf_counter

        def traced_leaf(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                tracer.stack[-1][0] += dur
                tot = tracer.totals[(tracer.phase, name)]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur

        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            frame = [0.0, tracer.next_id, name]
            tracer.next_id += 1
            stack = tracer.stack
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[0] += dur
                tot = tracer.totals[(tracer.phase, name)]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                tracer.spans.append((frame[1], name, t0, t1, parent[1], tracer.op))

        wrapper = traced_leaf if leaf else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def add_span(self, name: str, t0: float, t1: float, self_s: float, parent_id: int = 0) -> int:
        """Record a span measured outside any wrapper (a subprocess)."""
        span_id = self.next_id
        self.next_id += 1
        tot = self.totals[(self.phase, name)]
        tot[0] += 1
        tot[1] += t1 - t0
        tot[2] += self_s
        self.spans.append((span_id, name, t0, t1, parent_id, self.op))
        return span_id

    def merge(self, dump: dict, parent_id: int) -> None:
        """Fold a traced subprocess's ``dump()`` into this tracer."""
        offset = self.next_id
        for span_id, name, t0, t1, parent, _ in dump["spans"]:
            parent = parent_id if parent == 0 else parent + offset
            self.spans.append((span_id + offset, name, t0, t1, parent, self.op))
            self.next_id = max(self.next_id, span_id + offset + 1)
        for name, (calls, secs, self_s) in dump["totals"].items():
            tot = self.totals[(self.phase, name)]
            tot[0] += calls
            tot[1] += secs
            tot[2] += self_s
        for key, value in dump["counts"].items():
            self.counts[(self.phase, key)] += value

    def dump(self) -> dict:
        """Spans, totals and counters of a single-phase (subprocess) trace."""
        self.count_exports()
        return {
            "spans": self.spans,
            "totals": {name: tot for (_, name), tot in self.totals.items()},
            "counts": {key: value for (_, key), value in self.counts.items()},
        }

    def count_exports(self) -> None:
        """Bytes and data rows of every file written by an export call."""
        for out_dir in self.export_dirs:
            for path in sorted(Path(out_dir).iterdir()):
                data = path.read_bytes()
                self.count("export_bytes", len(data))
                if path.suffix == ".csv":
                    self.count("export_rows", max(data.count(b"\n") - 1, 0))
        self.export_dirs.clear()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, leaf, hook in layer_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, leaf, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(f"{span_id},{name},{t0:.9f},{t1:.9f},{parent},{op}\n")


# -- argument counters ----------------------------------------------------


def _count_rounds(tracer, args, kwargs):
    horizon = kwargs.get("horizon")
    tracer.count("rounds", args[0].horizon if horizon is None else int(horizon))


def _count_cells(tracer, args, kwargs):
    spec, _, horizon = args
    tracer.count("feedback_cells", int(horizon) * spec.k * (spec.m + 1))


def _count_labels(tracer, args, kwargs):
    fields = [np.asarray(v) for v in kwargs.values() if v is not None]
    shape = np.broadcast(*fields).shape if fields else ()
    tracer.count("first_uniform_labels", math.prod(shape))


def _count_tableau(tracer, args, kwargs):
    # the whole-simplex shortcut predicate of polytope.solve
    lp = args[0]
    mat, bnd = lp.constraint_matrix, lp.bounds
    tableau = not (mat.shape[0] == 0 or bool(np.all(mat.max(axis=1) <= bnd)))
    tracer.count("tableau_solves", tableau)
    if any(frame[2] == "harness.run_trial" for frame in tracer.stack):
        tracer.count("trial_solves", 1)
        tracer.count("trial_tableau_solves", tableau)


def _note_export(tracer, args, kwargs):
    out_dir = args[2] if len(args) > 2 else kwargs["out_dir"]
    tracer.export_dirs.append(Path(out_dir))


def layer_targets() -> list[tuple]:
    """(owner, attribute, span name, leaf, counter hook) for every wrapper."""
    from repmab import algorithms, cli, environment, harness, polytope, randomness

    return [
        (harness, "run_trial", "harness.run_trial", False, _count_rounds),
        (harness.TrialLog, "same_strategy_sequence", "harness.same_strategy_sequence", False, None),
        (harness, "solve_oracle", "environment.solve_oracle", False, None),
        (harness, "feedback_tables", "environment.feedback_tables", False, _count_cells),
        (harness, "first_uniforms", "randomness.first_uniforms", False, _count_labels),
        (harness, "make_policy", "algorithms.make_policy", False, None),
        (environment, "load_instance", "environment.load_instance", False, None),
        (environment, "solve_oracle", "environment.solve_oracle", False, None),
        (environment, "first_uniforms", "randomness.first_uniforms", False, _count_labels),
        (algorithms._EpochDoublingPolicy, "close_epoch", "algorithms.close_epoch", False, None),
        (algorithms, "snap_to_grid", "estimator.snap_to_grid", True, None),
        (algorithms, "confidence_widths", "estimator.confidence_widths", True, None),
        (randomness.RandomSource, "uniform", "randomness.uniform", True, None),
        (polytope, "solve", "polytope.solve", False, _count_tableau),
        (polytope, "least_violation_strategy", "polytope.least_violation_strategy", False, None),
        (polytope, "_lex_refine", "polytope.lex_refine", False, None),
        (cli, "main", "cli.main", False, None),
        (cli, "load_instance", "environment.load_instance", False, None),
        (cli, "run_batch", "harness.run_batch", False, None),
        (cli, "aggregate_and_export", "harness.aggregate_and_export", False, _note_export),
    ]
