"""End-to-end tests of the command-line interface (subprocess level)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "instances"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repmab.cli", *args],
        capture_output=True,
        text=True,
    )


def test_validate_accepts_good_instance():
    result = run_cli("validate", "--instance", str(INSTANCE_DIR / "reference_soft.json"))
    assert result.returncode == 0
    assert "valid instance" in result.stdout


def test_validate_rejects_bad_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "K": 2,
                "m": 1,
                "reward_means": [0.5, 0.5],
                "cost_means": [[0.9, 0.8]],
                "thresholds": [0.1],
                "horizon": 10,
            }
        )
    )
    result = run_cli("validate", "--instance", str(bad))
    assert result.returncode == 1
    assert "safe set is empty" in result.stderr


def test_validate_missing_file():
    result = run_cli("validate", "--instance", "/nonexistent/inst.json")
    assert result.returncode == 1


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "results"
    result = run_cli(
        "run",
        "--instance",
        str(INSTANCE_DIR / "reference_soft.json"),
        "--algo",
        "debora-s",
        "--horizon",
        "300",
        "--trials",
        "2",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert result.returncode == 0, result.stderr
    assert (out / "rounds.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "regret_curve.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 2
    assert summary["algo"] == "debora-s"


def test_run_missing_algo_fails(tmp_path):
    result = run_cli(
        "run",
        "--instance",
        str(INSTANCE_DIR / "reference_soft.json"),
        "--out",
        str(tmp_path / "x"),
    )
    assert result.returncode == 1
    assert "--algo" in result.stderr


def test_bad_flag_value_exits_one(tmp_path):
    result = run_cli(
        "run",
        "--instance",
        str(INSTANCE_DIR / "reference_soft.json"),
        "--algo",
        "not-an-algo",
        "--out",
        str(tmp_path / "x"),
    )
    assert result.returncode == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("run", "--horizon", "0"),
        ("run", "--horizon", "-3"),
        ("run", "--trials", "0"),
        ("replicability", "--pairs", "0"),
    ],
)
def test_count_flags_must_be_positive(tmp_path, command, flag, value):
    result = run_cli(
        command,
        "--instance",
        str(INSTANCE_DIR / "reference_unconstrained.json"),
        "--algo",
        "debora",
        flag,
        value,
        "--out",
        str(tmp_path / "x"),
    )
    assert result.returncode == 1
    assert f"error: {flag} must be a positive integer" in result.stderr


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(
        json.dumps(
            {
                "instance": str(INSTANCE_DIR / "reference_unconstrained.json"),
                "algo": "debora",
                "horizon": 100,
                "trials": 1,
                "seed": 3,
                "out": str(tmp_path / "from_config"),
            }
        )
    )
    result = run_cli("run", "--config", str(config), "--horizon", "50")
    assert result.returncode == 0, result.stderr
    curve = (tmp_path / "from_config" / "regret_curve.csv").read_text().splitlines()
    assert len(curve) == 1 + 50  # flag beat the config horizon


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"instancee": "x"}))
    result = run_cli("run", "--config", str(config))
    assert result.returncode == 1
    assert "unknown config keys" in result.stderr


@pytest.mark.parametrize("key, value", [("delta", "abc"), ("seed", "x"), ("trials", True)])
def test_config_value_of_wrong_type_rejected(tmp_path, key, value):
    config = tmp_path / "exp.json"
    payload = {
        "instance": str(INSTANCE_DIR / "reference_unconstrained.json"),
        "algo": "debora",
        "out": str(tmp_path / "x"),
        key: value,
    }
    config.write_text(json.dumps(payload))
    result = run_cli("run", "--config", str(config))
    assert result.returncode == 1
    assert f"config key '{key}' must be" in result.stderr


def test_replicability_command(tmp_path):
    out = tmp_path / "rep"
    result = run_cli(
        "replicability",
        "--instance",
        str(INSTANCE_DIR / "reference_unconstrained.json"),
        "--algo",
        "debora",
        "--pairs",
        "3",
        "--horizon",
        "200",
        "--seed",
        "11",
        "--out",
        str(out),
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "replicability.json").read_text())
    assert report["pairs"] == 3
    assert (out / "pairs.csv").read_text().count("\n") == 1 + 3


@pytest.mark.parametrize(
    "algo, digest",
    [
        # every pair matches
        ("debora-s", "f6ebbe47460763ceefd050b3a22718d5e24b7f749e81e04ac3ee28cd4a06b298"),
        # no pair matches
        ("ucb1", "1ed87fad890f7859200ff35879ff93e57a8d4a89b6afc998ad5bda611e9d60f9"),
    ],
)
def test_replicability_pairs_csv_bytes_pinned(tmp_path, algo, digest):
    import hashlib

    out = tmp_path / "rep"
    result = run_cli(
        "replicability",
        "--instance", str(INSTANCE_DIR / "reference_soft.json"),
        "--algo", algo,
        "--pairs", "4",
        "--horizon", "300",
        "--seed", "11",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    data = (out / "pairs.csv").read_bytes()
    assert data.startswith(
        b"pair,xi_seed,env_seed_1,env_seed_2,strategies_match,actions_match\n"
        b"0,15984297838864645472,632414710531971012,1405432786595911805,"
    )
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "algo, digest",
    [
        ("debora-s", "72bb95147763e251eba42f9624e2bb3e90aafaa36f09ba336aec324088b3e5e5"),
        ("ucb1", "7df983e1c7eefcaec1b398de8ea1d25ce08d31ec90b3a8af95db99fa101b736c"),
    ],
)
def test_replicability_json_bytes_and_printed_paths_pinned(tmp_path, algo, digest):
    import hashlib

    out = tmp_path / "rep"
    result = run_cli(
        "replicability",
        "--instance", str(INSTANCE_DIR / "reference_soft.json"),
        "--algo", algo,
        "--pairs", "4",
        "--horizon", "300",
        "--seed", "11",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    printed = [str(out / "replicability.json"), str(out / "pairs.csv")]
    assert result.stdout.splitlines() == printed
    data = (out / "replicability.json").read_bytes()
    assert data.startswith(b'{\n  "action_mismatches": ') and data.endswith(b"\n}\n")
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("command", ["run", "replicability"])
@pytest.mark.parametrize("nested", [False, True])
def test_out_naming_a_file_exits_one_before_any_trial(tmp_path, monkeypatch, capsys, command, nested):
    from repmab import cli

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output directory was checked")

    monkeypatch.setattr(cli, "run_batch", no_trials)
    monkeypatch.setattr(cli, "run_replicability_experiment", no_trials)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if nested else taken
    argv = [
        command,
        "--instance", str(INSTANCE_DIR / "reference_unconstrained.json"),
        "--algo", "debora",
        "--out", str(out),
    ]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --out ")
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["run", "replicability"])
@pytest.mark.parametrize("bad", [("--rho", "5"), ("--delta", "-3", "--rho", "nan")])
def test_bad_delta_rho_exits_one_for_every_algorithm(tmp_path, capsys, command, bad):
    """ucb1 ignores delta and rho, but 0 < 2*delta < rho < 1 holds for
    every algorithm: a bad pair is a usage error, not a runtime failure
    or a silent success, and it is caught before --out is created."""
    from repmab import cli

    argv = [
        command,
        "--instance", str(INSTANCE_DIR / "reference_soft.json"),
        "--algo", "ucb1",
        "--horizon", "50",
        "--trials" if command == "run" else "--pairs", "2",
        *bad,
        "--out", str(tmp_path / "x"),
    ]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: need 0 < 2*delta < rho < 1")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "case", ["flag", "flag at 2**53", "config", "config delta", "validate", "run"]
)
def test_oversized_numbers_exit_one(tmp_path, capsys, case):
    """A horizon of 2**53 or more, from a flag, a config or an instance
    file, and a float config key given as an integer too large for a
    float, are bad input (exit 1, ``error:``), not runtime failures."""
    from repmab import cli

    instance = INSTANCE_DIR / "reference_soft.json"
    big_t = tmp_path / "big_t.json"
    big_t.write_text(json.dumps(json.loads(instance.read_text()) | {"horizon": 10**30}))
    config = tmp_path / "exp.json"
    payload = {"instance": str(instance), "algo": "debora", "out": str(tmp_path / "x")}
    oversized = {"config": {"horizon": 10**400}, "config delta": {"delta": 10**400}}
    config.write_text(json.dumps(payload | oversized.get(case, {})))
    run = ["run", "--instance", str(instance), "--algo", "debora", "--out", str(tmp_path / "x")]
    argv = {
        "flag": [*run, "--horizon", str(10**400)],
        "flag at 2**53": [*run, "--horizon", str(2**53)],
        "config": ["run", "--config", str(config)],
        "config delta": ["run", "--config", str(config)],
        "validate": ["validate", "--instance", str(big_t)],
        "run": ["run", "--instance", str(big_t), "--algo", "debora", "--out", str(tmp_path / "x")],
    }[case]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("algo", ["debora-h", "ucb1"])
def test_summary_medians_are_numpy_medians(tmp_path, algo):
    """Three trials whose regret, violation or epoch counts differ: the
    summary's medians are np.median of the trial logs."""
    import numpy as np

    from repmab import cli
    from repmab.environment import load_instance
    from repmab.harness import run_batch

    instance = INSTANCE_DIR / "reference_soft.json"
    argv = [
        "run", "--instance", str(instance), "--algo", algo, "--horizon", "300",
        "--trials", "3", "--seed", "11", "--delta", "0.05", "--rho", "0.2",
        "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    logs = run_batch(
        load_instance(instance), algo, delta=0.05, rho=0.2, trials=3, seed=11, horizon=300
    )
    for key, field in [
        ("regret", "regret_total"),
        ("violation", "violation_total"),
        ("epochs", "epoch_count"),
    ]:
        values = np.array([getattr(log, field) for log in logs])
        assert summary[key]["median"] == float(np.median(values))


def test_run_does_not_import_numpy_ma(tmp_path):
    """np.median imports numpy.ma on its first call, about 10 ms of every
    run; the export computes its medians without it."""
    code = (
        "import sys\n"
        "from repmab import cli\n"
        f"argv = ['run', '--instance', {str(INSTANCE_DIR / 'reference_soft.json')!r},"
        f" '--algo', 'debora-h', '--horizon', '200', '--trials', '2',"
        f" '--out', {str(tmp_path)!r}]\n"
        "assert cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("flag", ["validate --instance", "run --instance", "run --config"])
def test_non_utf8_input_exits_one(tmp_path, capsys, flag):
    """A file that is not UTF-8 text is bad input (exit 1, ``error:``
    naming the file), not a runtime failure."""
    from repmab import cli

    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"K": 1, "family": "\xff"}\n')
    argv = [*flag.split(), str(bad)]
    if argv[0] == "run":
        argv += ["--algo", "debora", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()
