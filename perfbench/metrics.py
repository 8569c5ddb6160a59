"""Metric names, units and how each is computed from a run's records.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; the smoke
mode checks that every metric named there is printed with this unit.
"""

from __future__ import annotations

import math
import statistics

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "round_us": "us",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics.  ``<span>.calls``, ``<span>.s`` and ``<span>.self_s``
# are a span's call count, inclusive seconds and self seconds per traced
# operation; ``<span>.share`` is its inclusive time over all traced
# operation time.  The spans in ``SETUP_SCOPED`` are counted over the one
# traced set-up instead, where the oracle LPs run.  ``trace.*`` describe
# the tracer itself; the rest are defined in ``per_layer``.  Every time
# here is measured on every workload: a layer that only some workloads
# exercise is reported as a share, not as seconds that would read 0.
PER_LAYER = {
    "harness.run_trial.s": "s",
    "harness.run_trial.self_s": "s",
    "harness.round_loop_us": "us",
    "harness.same_strategy_sequence.share": "ratio",
    "harness.aggregate_and_export.share": "ratio",
    "harness.export_bytes": "bytes",
    "harness.export_rows": "count",
    "environment.feedback_tables.calls": "count",
    "environment.feedback_tables.s": "s",
    "environment.feedback_cells": "count",
    "environment.load_instance.s": "s",
    "environment.solve_oracle.s": "s",
    "randomness.uniform.calls": "count",
    "randomness.uniform.s": "s",
    "randomness.first_uniforms.calls": "count",
    "randomness.first_uniforms.s": "s",
    "randomness.first_uniforms.labels": "count",
    "estimator.snap_to_grid.calls": "count",
    "estimator.snap_to_grid.s": "s",
    "estimator.confidence_widths.calls": "count",
    "estimator.confidence_widths.s": "s",
    "algorithms.close_epoch.calls": "count",
    "algorithms.close_epoch.self_s": "s",
    "algorithms.epoch_ms": "ms",
    "algorithms.make_policy.s": "s",
    "polytope.solve.calls": "count",
    "polytope.solve.s": "s",
    "polytope.tableau_ratio": "ratio",
    "polytope.least_violation_strategy.s": "s",
    "polytope.lex_refine.calls": "count",
    "polytope.lex_refine.s": "s",
    "setup.polytope.solve.calls": "count",
    "setup.polytope.tableau_ratio": "ratio",
    "cli.startup.share": "ratio",
    "trace.untraced_op_ms.p50": "ms",
    "trace.traced_op_ms.p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.attributed_share": "ratio",
    "trace.ops": "count",
}

SETUP_SCOPED = {
    "environment.load_instance",
    "environment.solve_oracle",
    "polytope.least_violation_strategy",
    "polytope.lex_refine",
}

_SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def kind_median(ops: list[dict], value) -> float:
    """Median of ``value(op)`` over each kind of operation, averaged over the kinds.

    A run cycles through kinds of unequal cost (CLI algorithms, many-arm
    instances) in equal numbers.  The median of that mixture falls
    between the kinds' clusters and jumps with their spread; the mean
    of per-kind medians stays a median of like operations.
    """
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(value(op))
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def op_p50_ms(ops: list[dict]) -> float:
    return kind_median(ops, lambda op: op["wall"]) * 1e3


def end_to_end(setup_samples: list[float], ops: list[dict], maxrss_kb: int) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "op_ms.p50": op_p50_ms(ops),
        "round_us": kind_median(ops, lambda op: op["wall"] / op["rounds"]) * 1e6,
        "cpu_ms_per_op": sum(op["cpu"] for op in ops) / len(ops) * 1e3,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def tail_percentile(walls: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (at most 90) with ten samples beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    for p in range(90, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def per_layer(tracer, untraced: list[dict], traced: list[dict]) -> dict:
    n = len(traced)

    def span(name: str, phase: str = "op") -> list:
        return tracer.totals.get((phase, name), [0, 0.0, 0.0])

    def count(key: str, phase: str = "op") -> float:
        return tracer.counts.get((phase, key), 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    op_total = span("bench.op")[1]
    out = {}
    for metric in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric.startswith(("setup.", "trace.")):
            continue
        if field == "share":
            out[metric] = ratio(span(head)[1], op_total)
        elif field in _SPAN_FIELDS and head in SETUP_SCOPED:
            out[metric] = span(head, "setup")[_SPAN_FIELDS[field]]
        elif field in _SPAN_FIELDS:
            out[metric] = span(head)[_SPAN_FIELDS[field]] / n
    attributed = sum(
        tot[2] for (phase, name), tot in tracer.totals.items()
        if phase == "op" and name != "bench.op"
    )
    untraced_p50 = op_p50_ms(untraced)
    traced_p50 = op_p50_ms(traced)
    out.update({
        "harness.round_loop_us": ratio(span("harness.run_trial")[2], count("rounds")) * 1e6,
        "harness.export_bytes": count("export_bytes") / n,
        "harness.export_rows": count("export_rows") / n,
        "environment.feedback_cells": count("feedback_cells") / n,
        "randomness.first_uniforms.labels": count("first_uniform_labels") / n,
        "algorithms.epoch_ms": ratio(span("algorithms.close_epoch")[1], span("algorithms.close_epoch")[0]) * 1e3,
        "polytope.tableau_ratio": ratio(count("trial_tableau_solves"), count("trial_solves")),
        "setup.polytope.solve.calls": span("polytope.solve", "setup")[0],
        "setup.polytope.tableau_ratio": ratio(
            count("tableau_solves", "setup"), span("polytope.solve", "setup")[0]
        ),
        "trace.untraced_op_ms.p50": untraced_p50,
        "trace.traced_op_ms.p50": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.attributed_share": ratio(attributed, op_total),
        "trace.ops": n,
    })
    return out
