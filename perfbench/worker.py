"""Child process of the benchmark: one workload, fresh interpreter.

Roles (the last stdout line is a JSON object):
  setup    set up once and report when set-up ended
  measure  set up, run the closed loop, check digests, report records
  record   run every pool input once and report its digest

``run.py`` starts this file; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import ROOT, WORKLOADS


def _scratch() -> Path:
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def _check_import() -> None:
    import repmab

    if Path(repmab.__file__).resolve().parent != ROOT / "src" / "repmab":
        raise RuntimeError(f"imported repmab from {repmab.__file__}, not from this checkout")


def _golden(size: str, workload: str) -> dict:
    path = Path(__file__).resolve().parent / "golden.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(size, {}).get(workload, {})


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _one_op(wl, key, golden, tamper, tracer, index) -> dict:
    if tracer is not None:
        tracer.op = index
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        out = wl.run(key) if tracer is None else wl.run_traced(key, tracer)
        error = None
    except Exception:  # an operation that raises is a failed operation
        out, error = None, traceback.format_exc()
    t1 = time.perf_counter()
    cpu1 = _cpu_seconds()
    ok = error is None
    if ok:
        digest = wl.digest(out, tamper)
        ok = digest == golden.get(key)
        if not ok:
            error = f"digest {digest} != golden {golden.get(key)}"
    if not ok:
        print(f"operation {key} failed: {error}", file=sys.stderr)
    return {
        "key": key, "kind": wl.kind(key), "wall": t1 - t0, "cpu": cpu1 - cpu0,
        "rounds": wl.rounds, "ok": ok,
    }


def _loop(wl, keys, seconds, golden, tamper, tracer=None) -> tuple[list[dict], list[dict]]:
    """Closed loop: next operation only after the previous one ended.

    With a tracer, every input runs untraced and then traced, so both
    timings see the same machine state.  Stops once ``seconds`` have
    passed, at a multiple of the workload's cycle.
    """
    ops, traced = [], []
    begin = time.perf_counter()
    for key in keys:
        ops.append(_one_op(wl, key, golden, tamper, None, len(ops)))
        if tracer is not None:
            tracer.install()
            traced.append(_one_op(wl, key, golden, tamper, tracer, len(traced)))
            tracer.uninstall()
        if len(ops) % wl.cycle == 0 and time.perf_counter() - begin >= seconds:
            break
    return ops, traced


def _final_checks(wl, seed, golden, tamper) -> list[dict]:
    checks = []
    for key, digest_of in wl.final_checks(seed):
        try:
            digest = digest_of(tamper)
            ok = digest == golden.get(key)
            error = f"digest {digest} != golden {golden.get(key)}"
        except Exception:
            ok, error = False, traceback.format_exc()
        if not ok:
            print(f"check {key} failed: {error}", file=sys.stderr)
        checks.append({"key": key, "ok": ok})
    return checks


def measure(args, wl) -> dict:
    import metrics
    from tracer import Tracer

    scratch = _scratch()
    try:
        tracer = Tracer() if args.trace else None
        _check_import()
        if tracer is not None:
            tracer.install()
        wl.setup(scratch)
        setup_done = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "op"
        golden = _golden(args.size, wl.name)
        ops, traced = _loop(wl, wl.keys(args.seed), args.seconds, golden, args.tamper, tracer)
        result = {"setup_done": setup_done, "ops": ops, "traced_ops": traced, "layers": None}
        if tracer is not None:
            result["layers"] = metrics.per_layer(tracer, ops, traced)
            spans_path = ROOT / ".bench_out" / "traces" / f"{wl.name}-seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["checks"] = _final_checks(wl, args.seed, golden, args.tamper)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["maxrss_kb"] = max(own, children)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def setup_only(args, wl) -> dict:
    scratch = _scratch()
    try:
        _check_import()
        wl.setup(scratch)
        return {"setup_done": time.perf_counter()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def record(args, wl) -> dict:
    scratch = _scratch()
    try:
        _check_import()
        digests = {}
        wl.setup(scratch)
        for key in wl.all_keys():
            digests[key] = wl.digest(wl.run(key), False)
            print(f"recorded {wl.name} {key}", file=sys.stderr, flush=True)
        for key, digest_of in wl.final_checks(None):
            digests[key] = digest_of(False)
        return {"digests": digests}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "record"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload](smoke=args.size == "smoke")
    role = {"setup": setup_only, "measure": measure, "record": record}[args.role]
    print(json.dumps(role(args, wl)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
