#!/usr/bin/env python3
"""repmab benchmark: closed-loop workloads checked against golden digests.

Run from the root of a checkout:

  python3 perfbench/run.py --workload trial-long --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --smoke          # every workload at a tiny size
  python3 perfbench/run.py --record-golden  # re-record perfbench/golden.json

Each run measures one workload in a fresh child process (``worker.py``)
with single-threaded BLAS, all on one CPU.  ``--trace 0`` reports the end-to-end
metrics; set-up is measured in that child and in ``SETUP_PROBES`` more
fresh processes, and ``setup_s`` is their median.  ``--trace 1`` runs
every input untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  Lines starting with ``#`` are a
readable summary; the last line is the JSON result.  See README.md for
the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import BENCH_DIR, ROOT, WORKLOADS, child_env

SETUP_PROBES = 4
RUN_DEADLINE_S = 170
REQUIRED_FILES = (
    "src/repmab/__init__.py",
    "instances/reference_soft.json",
    "instances/reference_unconstrained.json",
)


class ChildFailed(RuntimeError):
    pass


def _spawn(role: str, workload: str, *extra: str, timeout: float | None) -> tuple[float, dict]:
    """Start ``worker.py`` and return (spawn time, its JSON result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), role, "--workload", workload, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{role} worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{role} worker for {workload} exited with {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def _host() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, runs on cpu {sorted(os.sched_getaffinity(0))}, cpu {cpu}"
    )


def run_workload(
    workload: str, seed: int, seconds: float, trace: int,
    size: str = "full", tamper: bool = False, probes: int = SETUP_PROBES,
) -> tuple[dict, list[str]]:
    """One benchmark run: (JSON result, summary lines)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    common = ["--seed", str(seed), "--size", size]
    setup_samples = []
    for _ in range(0 if trace else probes):
        t0, res = _spawn("setup", workload, *common, timeout=deadline - time.perf_counter())
        setup_samples.append(res["setup_done"] - t0)
    extra = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    if tamper:
        extra.append("--tamper")
    t0, res = _spawn("measure", workload, *extra, timeout=deadline - time.perf_counter())
    setup_samples.append(res["setup_done"] - t0)

    ops = res["ops"] + res["traced_ops"]
    attempted = len(ops) + len(res["checks"])
    failed = sum(not op["ok"] for op in ops) + sum(not c["ok"] for c in res["checks"])
    if trace:
        values, units = res["layers"], metrics.PER_LAYER
    else:
        values = metrics.end_to_end(setup_samples, res["ops"], res["maxrss_kb"])
        units = metrics.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    lines = [
        f"repmab benchmark: workload={workload} seed={seed} seconds={seconds} "
        f"trace={trace} size={size}",
        f"host: {_host()}",
    ]
    for name, unit in units.items():
        lines.append(f"{name:<40} {values[name]:>14.6g} {unit}")
    walls = [op["wall"] for op in res["ops"]]
    if not trace:
        lines.append(f"{'(setup_s is the median of)':<40} {len(setup_samples):>14} fresh processes")
        tail = metrics.tail_percentile(walls)
        if tail is not None and tail[0] == 90:
            lines.append(f"{'op_ms.p90':<40} {tail[1] * 1e3:>14.6g} ms (n={len(walls)})")
        elif tail is None:
            lines.append(f"op_ms.p90: not reported, {len(walls)} operations leave fewer than ten beyond any percentile")
        else:
            lines.append(
                f"op_ms.p90: not reported, {len(walls)} operations < 100; "
                f"op_ms.p{tail[0]} = {tail[1] * 1e3:.6g} ms is the highest percentile with ten beyond it"
            )
    else:
        lines.append(f"spans written to {res['spans_file']}")
    lines.append(f"{'fail_ratio':<40} {failed / attempted:>14.6g} ({failed} of {attempted} operations failed)")
    return result, lines


def _pin_to_one_cpu() -> None:
    """Run this process and every child it starts on the highest-numbered
    allowed CPU.  The benchmark is a single closed loop, so one CPU is
    enough; migration between CPUs and the interrupts that a guest's
    first CPU takes widened the run-to-run spread about twofold."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _missing_files() -> list[str]:
    return [name for name in REQUIRED_FILES if not (ROOT / name).is_file()]


def smoke() -> int:
    """Every workload at a tiny size: metric names and units, digest trip."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, lines = run_workload(name, 1, 0.0, trace, size="smoke", probes=1)
            print("\n".join(f"# {line}" for line in lines))
            got = result["metrics"]
            for metric, unit in wanted[trace].items():
                entry = got.get(metric)
                if entry is None:
                    problems.append(f"{name} trace={trace}: {metric} not printed")
                elif entry["unit"] != unit or not math.isfinite(entry["value"]):
                    problems.append(f"{name} trace={trace}: {metric} = {entry}, want unit {unit}")
            for metric in sorted(set(got) - set(wanted[trace])):
                problems.append(f"{name} trace={trace}: {metric} is not in BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} operations failed")
        result, _ = run_workload(name, 1, 0.0, 0, size="smoke", tamper=True, probes=0)
        if result["failed"] != result["attempted"]:
            problems.append(
                f"{name}: digest check missed altered output "
                f"({result['failed']} of {result['attempted']} flagged)"
            )
        else:
            print(f"# {name}: altered output flagged in {result['failed']} of {result['attempted']} operations")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def record_golden() -> int:
    golden = {}
    for size in ("smoke", "full"):
        for name in WORKLOADS:
            _, res = _spawn("record", name, "--size", size, timeout=None)
            golden.setdefault(size, {})[name] = res["digests"]
    path = BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--record-golden", action="store_true", help="re-record golden.json")
    args = parser.parse_args()
    missing = _missing_files()
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    try:
        if args.smoke:
            return smoke()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(f"# {line}" for line in lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
