"""The benchmark's workloads: generated inputs, one operation, its digest.

Every workload is a closed loop: one client in one process starts the
next operation only when the previous one has ended.  Operation inputs
come from a fixed pool per workload; the workload seed picks the order
(a start and an odd stride over the power-of-two pool, so no input
repeats until the pool is used up) and, for the many-arm workload, the
instance its rotation starts at.  Golden digests cover the whole pool,
so every seed is checked against outputs recorded from the same code.

Seeds are drawn with ``random.Random`` from string tags, never with the
program's own random layer, so a change there cannot move the inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gen_instance import many_arm_instance

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DELTA = 0.05
RHO = 0.2
CLI_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for every child process: single-threaded BLAS, checkout src."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def seeds(tag: str, n: int) -> list[int]:
    rng = random.Random(f"repmab-bench/{tag}")
    return [rng.getrandbits(63) for _ in range(n)]


def schedule(name: str, seed: int, pool: int):
    """Endless sequence of pool indices; a pure function of the seed."""
    rng = random.Random(f"repmab-bench/schedule/{name}/{seed}")
    start = rng.randrange(pool)
    stride = 2 * rng.randrange(max(pool // 2, 1)) + 1
    i = 0
    while True:
        yield (start + i * stride) % pool
        i += 1


class Digest:
    """SHA-256 over length-prefixed parts, so part boundaries are unambiguous."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, data: bytes) -> None:
        self._h.update(len(data).to_bytes(8, "little"))
        self._h.update(data)

    def array(self, arr, dtype: str) -> None:
        self.add(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def value(self, v) -> None:
        self.add(repr(v).encode())

    def trial(self, log) -> None:
        """Actions, realized feedback, epoch of each round, epoch
        strategies and sigma, regret and violation totals."""
        self.array(log.actions, "<i4")
        self.array(log.rewards, "<f8")
        self.array(log.costs, "<f8")
        self.array(log.epoch_of_round, "<i4")
        self.value(len(log.epochs))
        for rec in log.epochs:
            self.array(rec.x, "<f8")
            self.value(float(rec.sigma))
        self.value(log.regret_total)
        self.value(log.violation_total)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _tamper_log(log) -> None:
    log.actions[0] += 1


class Workload:
    name = ""
    cycle = 1  # a run stops only at a multiple of this many operations

    def keys(self, seed: int):
        for j in schedule(self.name, seed, self.pool):
            yield f"op{j}"

    def all_keys(self) -> list[str]:
        return [f"op{j}" for j in range(self.pool)]

    def kind(self, key: str) -> str:
        """Operations of one kind cost alike; ``op_ms.p50`` is taken per kind."""
        return ""

    def setup(self, scratch: Path) -> None:
        from repmab import environment, harness

        self.environment = environment
        self.harness = harness
        self.scratch = scratch

    def run(self, key: str):
        raise NotImplementedError

    def run_traced(self, key: str, tracer):
        return tracer.wrap("bench.op", self.run)(key)

    def digest(self, out, tamper: bool) -> str:
        raise NotImplementedError

    def final_checks(self, seed: int | None) -> list:
        """(key, digest function) pairs run once after the timed loop;
        ``None`` asks for the checks of every seed."""
        return []


class TrialLong(Workload):
    """Independent debora-s trials at T=1e5 sharing one oracle."""

    name = "trial-long"
    algo = "debora-s"

    def __init__(self, smoke: bool) -> None:
        self.horizon = 2_000 if smoke else 100_000
        self.pool = 4 if smoke else 64
        self.rounds = self.horizon

    def setup(self, scratch: Path) -> None:
        super().setup(scratch)
        self.spec = self.environment.load_instance(ROOT / "instances" / "reference_soft.json")
        self.oracle = self.environment.solve_oracle(self.spec)

    def run(self, key: str):
        xi, env = seeds(f"{self.name}/{key}", 2)
        return self.harness.run_trial(
            self.spec, self.algo, xi, env,
            delta=DELTA, rho=RHO, horizon=self.horizon, oracle=self.oracle,
        )

    def digest(self, log, tamper: bool) -> str:
        if tamper:
            _tamper_log(log)
        d = Digest()
        d.trial(log)
        return d.hexdigest()


class ManyArms(Workload):
    """Paired debora-h trials on generated K=50, m=3 instances.

    Operations rotate over all the generated instances, so every run
    has the same instance mix and its cost does not depend on which
    instance a seed would have drawn.
    """

    name = "replicability-many-arms"
    algo = "debora-h"
    k = 50
    m = 3
    instances = 4

    def __init__(self, smoke: bool) -> None:
        self.horizon = 200 if smoke else 1_000
        self.pool = 4 if smoke else 32
        self.rounds = 2 * self.horizon
        self.cycle = self.instances

    def keys(self, seed: int):
        first = random.Random(f"repmab-bench/instance/{seed}").randrange(self.instances)
        pairs = schedule(self.name, seed, self.pool)
        for i, j in enumerate(pairs):
            yield f"inst{(first + i) % self.instances}/pair{j}"

    def all_keys(self) -> list[str]:
        return [f"inst{v}/pair{j}" for v in range(self.instances) for j in range(self.pool)]

    def kind(self, key: str) -> str:
        return key.split("/")[0]

    def setup(self, scratch: Path) -> None:
        super().setup(scratch)
        self.specs = []
        self.oracles = []
        for v in range(self.instances):
            path = scratch / f"many_arms_{v}.json"
            path.write_text(json.dumps(many_arm_instance(self.k, self.m, v, self.horizon)))
            spec = self.environment.load_instance(path)
            self.specs.append(spec)
            self.oracles.append(self.environment.solve_oracle(spec))

    def run(self, key: str):
        v = int(key.split("/")[0][len("inst"):])
        spec = self.specs[v]
        xi, env_a, env_b = seeds(f"{self.name}/{key}", 3)
        kwargs = dict(delta=DELTA, rho=RHO, horizon=self.horizon, oracle=self.oracles[v])
        log_a = self.harness.run_trial(spec, self.algo, xi, env_a, **kwargs)
        log_b = self.harness.run_trial(spec, self.algo, xi, env_b, **kwargs)
        same_seq = log_a.same_strategy_sequence(log_b)
        same_act = log_a.same_action_sequence(log_b)
        return log_a, log_b, same_seq, same_act

    def digest(self, out, tamper: bool) -> str:
        log_a, log_b, same_seq, same_act = out
        if tamper:
            _tamper_log(log_a)
        d = Digest()
        d.trial(log_a)
        d.trial(log_b)
        d.value(bool(same_seq))
        d.value(bool(same_act))
        return d.hexdigest()

    def final_checks(self, seed: int | None) -> list:
        """A full ``run_replicability_experiment`` report on one instance
        per run (the seed's first), and on every instance when recording."""
        if seed is None:
            chosen = range(self.instances)
        else:
            chosen = [random.Random(f"repmab-bench/instance/{seed}").randrange(self.instances)]

        def report_digest(v: int, tamper: bool) -> str:
            (seed,) = seeds(f"{self.name}/inst{v}/report", 1)
            report = self.harness.run_replicability_experiment(
                self.specs[v], self.algo, rho=RHO, delta=DELTA, n_pairs=1,
                seed=seed, horizon=self.horizon,
            )
            if tamper:
                report.mismatches += 1
            d = Digest()
            d.add(json.dumps(report.to_dict(), sort_keys=True).encode())
            d.add(json.dumps(report.pair_results, sort_keys=True).encode())
            return d.hexdigest()

        return [(f"inst{v}/report", functools.partial(report_digest, v)) for v in chosen]


class CliExport(Workload):
    """Sequential ``repmab run`` subprocesses exporting 2 trials each."""

    name = "cli-export"
    invocations = (
        ("debora", "reference_unconstrained"),
        ("debora-s", "reference_soft"),
        ("debora-h", "reference_soft"),
        ("ucb1", "reference_soft"),
    )
    cycle = len(invocations)
    trials = 2

    def __init__(self, smoke: bool) -> None:
        self.horizon = 500 if smoke else 10_000
        self.pool = 2 if smoke else 16
        self.rounds = self.trials * self.horizon
        self._n = 0

    def keys(self, seed: int):
        for j in schedule(self.name, seed, self.pool):
            for algo, _ in self.invocations:
                yield f"cycle{j}/{algo}"

    def all_keys(self) -> list[str]:
        return [f"cycle{j}/{algo}" for j in range(self.pool) for algo, _ in self.invocations]

    def kind(self, key: str) -> str:
        return key.split("/")[1]

    def setup(self, scratch: Path) -> None:
        super().setup(scratch)
        from repmab import cli  # noqa: F401  (the CLI's imports are part of set-up)

        for instance in sorted({inst for _, inst in self.invocations}):
            spec = self.environment.load_instance(ROOT / "instances" / f"{instance}.json")
            self.environment.solve_oracle(spec)

    def _argv(self, key: str) -> tuple[list[str], Path]:
        cycle, algo = key.split("/")
        instance = dict(self.invocations)[algo]
        (seed,) = seeds(f"{self.name}/{cycle}", 1)
        out_dir = self.scratch / f"out{self._n}"
        self._n += 1
        argv = [
            "run", "--instance", f"instances/{instance}.json", "--algo", algo,
            "--horizon", str(self.horizon), "--trials", str(self.trials),
            "--seed", str(seed), "--out", str(out_dir),
        ]
        return argv, out_dir

    def _call(self, cmd: list[str]) -> None:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')}"
            )

    def run(self, key: str) -> Path:
        argv, out_dir = self._argv(key)
        self._call([sys.executable, "-m", "repmab.cli", *argv])
        return out_dir

    def run_traced(self, key: str, tracer) -> Path:
        """The CLI in a subprocess that installs the tracer around ``cli.main``.

        ``cli.startup`` is the subprocess wall time minus the traced
        ``cli.main`` time: interpreter start, imports and exit.
        """
        argv, out_dir = self._argv(key)
        dump_path = self.scratch / f"trace{self._n}.json"
        t0 = time.perf_counter()
        self._call([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(dump_path), *argv])
        t1 = time.perf_counter()
        dump = json.loads(dump_path.read_text(encoding="utf-8"))
        dump_path.unlink()
        startup = (t1 - t0) - dump["totals"]["cli.main"][1]
        op_id = tracer.add_span("bench.op", t0, t1, 0.0)
        tracer.add_span("cli.startup", t0, t0 + startup, startup, parent_id=op_id)
        tracer.merge(dump, parent_id=op_id)
        return out_dir

    def digest(self, out_dir: Path, tamper: bool) -> str:
        files = sorted(out_dir.iterdir())
        if tamper:
            with files[0].open("ab") as fh:
                fh.write(b"\n")
        d = Digest()
        for path in files:
            d.add(path.name.encode())
            d.add(path.read_bytes())
        shutil.rmtree(out_dir)
        return d.hexdigest()


WORKLOADS = {cls.name: cls for cls in (TrialLong, ManyArms, CliExport)}
