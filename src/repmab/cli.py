"""Command-line harness.

Subcommands:
  run            play N independent trials and export CSV/JSON results
  replicability  paired trials with shared algorithm randomness
  validate       check an instance file and report problems

Each option is declared once, in ``_OPTIONS``; its value is its flag,
else its key in a JSON experiment config (--config), else its default.
Exit codes: 0 success, 1 validation/configuration error (a bad flag, an
unreadable or undecodable file, a value of the wrong kind or out of
range), 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algorithms import ALGORITHM_NAMES, ConfigError, check_delta_rho
from .environment import HORIZON_LIMIT, ValidationError, is_json_kind, load_instance, read_json
from .harness import (
    aggregate_and_export,
    export_replicability,
    run_batch,
    run_replicability_experiment,
)

_REQUIRED = object()  # the default of an option that must be given

# the options of run and replicability: JSON type (a float option also
# takes an integer), default (horizon None: the instance's) and help
_OPTIONS = {
    "instance": (str, _REQUIRED, "instance JSON file"),
    "algo": (str, _REQUIRED, "algorithm: " + ", ".join(ALGORITHM_NAMES)),
    "horizon": (int, None, "override the instance horizon"),
    "delta": (float, 0.05, "failure probability"),
    "rho": (float, 0.2, "replicability target"),
    "seed": (int, 0, "master seed"),
    "out": (str, _REQUIRED, "output directory"),
    "trials": (int, 1, "number of trials"),
    "pairs": (int, 50, "number of trial pairs"),
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
    for command, count, about in [
        ("run", "trials", "run independent trials and export results"),
        ("replicability", "pairs", "run paired-replicability trials"),
    ]:
        p = sub.add_parser(command, help=about)
        for key, (kind, default, text) in _OPTIONS.items():
            if key not in ("trials", "pairs") or key == count:
                if default is not None and default is not _REQUIRED:
                    text += f" (default {default})"
                p.add_argument(f"--{key}", type=kind, help=text)
        p.add_argument("--config", help="JSON experiment file with default values")

    val_p = sub.add_parser("validate", help="validate an instance file")
    val_p.add_argument("--instance", required=True, help="instance JSON file")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - _OPTIONS.keys())
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in payload.items():
        kind = _OPTIONS[key][0]
        if not is_json_kind(value, kind):
            raise ValidationError(
                f"{path}: config key {key!r} must be a {kind.__name__}, got {value!r}"
            )
    return payload


def _check_count(value: int | None, key: str) -> int | None:
    """Counts (horizon, trials, pairs) are >= 1, a horizon below 2**53; None keeps the default."""
    if value is not None and value < 1:
        raise ValidationError(f"--{key} must be a positive integer, got {value!r}")
    if key == "horizon" and value is not None and value >= HORIZON_LIMIT:
        raise ValidationError(f"--horizon must be below 2**53, got {value}")
    return value


def _trial_options(args, count_key: str):
    """Instance, algorithm, trial keyword arguments and output directory
    of ``run`` and ``replicability``, all checked before any trial runs;
    the output directory is created here."""
    config = _load_config(args.config)
    opt = {}
    for key, (_, default, _) in _OPTIONS.items():
        flag = getattr(args, key, None)
        opt[key] = config.get(key, default) if flag is None else flag
        if opt[key] is _REQUIRED:
            raise ValidationError(f"missing required option --{key}")
    spec = load_instance(opt["instance"])
    if opt["algo"] not in ALGORITHM_NAMES:
        raise ValidationError(f"unknown algorithm {opt['algo']!r}")
    if not 0 <= opt["seed"] < 2**64:
        raise ValidationError(f"--seed must be an unsigned 64-bit integer, got {opt['seed']}")
    kwargs = dict(
        delta=float(opt["delta"]),
        rho=float(opt["rho"]),
        seed=opt["seed"],
        horizon=_check_count(opt["horizon"], "horizon"),
    )
    check_delta_rho(kwargs["delta"], kwargs["rho"])
    count = _check_count(opt[count_key], count_key)
    if not opt["out"]:
        raise ValidationError("--out must name a directory, got ''")
    out = Path(opt["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate
        raise ValidationError(f"--out {out}: cannot create output directory: {exc}") from exc
    return spec, opt["algo"], count, kwargs, out


def _cmd_run(args) -> int:
    spec, algo, trials, kwargs, out_dir = _trial_options(args, "trials")
    logs = run_batch(spec, algo, trials=trials, **kwargs)
    for path in aggregate_and_export(logs, out_dir=out_dir):
        print(path)
    return 0


def _cmd_replicability(args) -> int:
    spec, algo, pairs, kwargs, out_dir = _trial_options(args, "pairs")
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
