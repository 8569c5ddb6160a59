"""Command-line harness.

Subcommands:
  run            play N independent trials and export CSV/JSON results
  replicability  paired trials with shared algorithm randomness
  validate       check an instance file and report problems

Values may come from a JSON experiment config (--config); explicit
command-line flags override config values.  Exit codes: 0 success,
1 validation/configuration error, 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algorithms import ALGORITHM_NAMES, ConfigError, check_delta_rho
from .environment import ValidationError, load_instance
from .harness import (
    aggregate_and_export,
    export_replicability,
    run_batch,
    run_replicability_experiment,
)

# the JSON type each config key takes (float keys also accept integers)
_CONFIG_KEYS = {
    "instance": str,
    "algo": str,
    "horizon": int,
    "delta": float,
    "rho": float,
    "trials": int,
    "pairs": int,
    "seed": int,
    "out": str,
}


class _Parser(argparse.ArgumentParser):
    # bad flags are input validation, not runtime failure
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repmab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", help="instance JSON file")
        p.add_argument("--algo", choices=ALGORITHM_NAMES, help="algorithm name")
        p.add_argument("--horizon", type=int, help="override the instance horizon")
        p.add_argument("--delta", type=float, help="failure probability (default 0.05)")
        p.add_argument("--rho", type=float, help="replicability target (default 0.2)")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON experiment file with default values")

    run_p = sub.add_parser("run", help="run independent trials and export results")
    common(run_p)
    run_p.add_argument("--trials", type=int, help="number of trials (default 1)")

    rep_p = sub.add_parser("replicability", help="run paired-replicability trials")
    common(rep_p)
    rep_p.add_argument("--pairs", type=int, help="number of trial pairs (default 50)")

    val_p = sub.add_parser("validate", help="validate an instance file")
    val_p.add_argument("--instance", required=True, help="instance JSON file")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS.keys())
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in payload.items():
        kind = _CONFIG_KEYS[key]
        accepted = (int, float) if kind is float else kind
        # JSON true/false decode to bool, a subclass of int
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValidationError(
                f"{path}: config key {key!r} must be a {kind.__name__}, got {value!r}"
            )
    return payload


def _resolve(args, config: dict, key: str, default=None, required: bool = False):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if required and value is None:
        raise ValidationError(f"missing required option --{key}")
    return value


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if seed < 0 or seed >= 2**64:
        raise ValidationError(f"--seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _check_count(value: int | None, key: str) -> int | None:
    """Counts (horizon, trials, pairs) are >= 1; None keeps the default."""
    if value is not None and value < 1:
        raise ValidationError(f"--{key} must be a positive integer, got {value!r}")
    return value


def _trial_options(args, count_key: str, count_default: int):
    """Instance, algorithm, trial keyword arguments and output directory
    of ``run`` and ``replicability``, all checked before any trial runs;
    the output directory is created here."""
    config = _load_config(args.config)
    spec = load_instance(_resolve(args, config, "instance", required=True))
    algo = _resolve(args, config, "algo", required=True)
    if algo not in ALGORITHM_NAMES:
        raise ValidationError(f"unknown algorithm {algo!r}")
    kwargs = dict(
        delta=float(_resolve(args, config, "delta", 0.05)),
        rho=float(_resolve(args, config, "rho", 0.2)),
        seed=_check_seed(_resolve(args, config, "seed", 0)),
        horizon=_check_count(_resolve(args, config, "horizon"), "horizon"),
    )
    check_delta_rho(kwargs["delta"], kwargs["rho"])
    count = _check_count(_resolve(args, config, count_key, count_default), count_key)
    out = Path(_resolve(args, config, "out", required=True))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {out}: cannot create output directory: {exc}") from exc
    return spec, algo, count, kwargs, out


def _cmd_run(args) -> int:
    spec, algo, trials, kwargs, out_dir = _trial_options(args, "trials", 1)
    logs = run_batch(spec, algo, trials=trials, **kwargs)
    for path in aggregate_and_export(logs, out_dir=out_dir):
        print(path)
    return 0


def _cmd_replicability(args) -> int:
    spec, algo, pairs, kwargs, out_dir = _trial_options(args, "pairs", 50)
    report = run_replicability_experiment(spec, algo, n_pairs=pairs, **kwargs)
    for path in export_replicability(report, out_dir):
        print(path)
    return 0


def _cmd_validate(args) -> int:
    spec = load_instance(args.instance)
    print(
        f"{args.instance}: valid instance "
        f"(K={spec.k}, m={spec.m}, horizon={spec.horizon}, family={spec.family})"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "replicability": _cmd_replicability,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
