"""CLI behavior: output formats, config precedence, exit codes, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from photonam import radial, twins
from photonam.cli import (
    COMMANDS,
    FORMATS,
    M_VALUES,
    MAX_SAMPLES,
    ConfigError,
    RunConfig,
    _build_parser,
    _json_text,
    _merge_config,
    load_config,
    main,
)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_variance_json(capsys):
    code, out, _ = run_cli(capsys, "variance", "--m", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["varJx"] == 1.0
    assert payload["varJy"] == 1.0
    assert payload["varJz"] == 0.0


def test_variance_cutoff_messages(capsys):
    # the cutoff is checked without building a basis, in the same words as before
    assert run_cli(capsys, "variance", "--cutoff", "0") == (
        2, "", "error: cutoff must be >= 1 to hold a photon, got 0\n"
    )
    assert run_cli(capsys, "variance", "--cutoff", "21") == (
        2, "", "error: 3 modes at cutoff 21 give a 21-photon sector of 253 states > 252\n"
    )


def test_radial_csv_row_count_and_final_cumulative(tmp_path):
    out_file = tmp_path / "profile.csv"
    code = main(["radial", "--kR", "100", "--samples", "2000", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "kr,f_spin,f_oam,cum_spin,cum_oam"
    assert len(lines) == 2001
    last = lines[-1].split(",")
    assert last[3] == "0.5"
    assert last[4] == "0.5"


def test_radial_json_zone_report(capsys):
    code, out, _ = run_cli(capsys, "radial", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["near_ratio"] > 100.0
    assert 0.4 <= payload["oam_peak_over_lambda"] <= 0.65


def test_algebra_pass_and_failure_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "algebra")
    assert code == 0
    assert json.loads(out)["pass"] is True
    # an absurd tolerance turns machine-precision residuals into failures
    code, out, _ = run_cli(capsys, "algebra", "--tol", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False


def test_algebra_at_the_largest_cutoff(capsys):
    # cutoff 20, the largest admitted: 1771 states in sector blocks of at most 231
    code, out, _ = run_cli(capsys, "algebra", "--cutoff", "20")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 11
    assert all(c["pass"] and c["max_residual"] < 1e-12 for c in checks)


def test_decay_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "decay", "--samples", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,sz_over_hbar,excited_pop,norm_residual"
    assert len(lines) == 51
    code, out, _ = run_cli(capsys, "decay", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert abs(payload["norm_residual_at_10_over_gamma"]) < 0.02


def test_entangle_report(capsys):
    code, out, _ = run_cli(capsys, "entangle")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["c1_abs"] == pytest.approx(0.5773502691896258, abs=1e-9)
    assert payload["selection_rule"]["pass"] is True


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(check["pass"] for check in payload["checks"])
    assert len(payload["checks"]) == 10


def test_verify_all_shell_conservation_detects_bad_normalization(capsys, monkeypatch):
    exact = radial.normalize_mode

    monkeypatch.setattr(
        radial, "normalize_mode", lambda config, ell: exact(config, ell) * (1.0 + 1e-5)
    )
    code, out, _ = run_cli(capsys, "verify-all")
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    assert code == 1
    assert checks["shell_conservation"]["pass"] is False
    assert checks["shell_conservation"]["max_deviation"] == pytest.approx(1e-5, rel=0.01)


@pytest.mark.parametrize("command", ["entangle", "verify-all"])
def test_failed_variational_check_is_reported_not_raised(capsys, monkeypatch, command):
    monkeypatch.setattr(twins, "local_expectations", lambda psi: np.full(16, 0.5))
    code, out, err = run_cli(capsys, command)
    assert code == 1
    assert err == ""
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict {name}"))
    assert payload["pass"] is False


def test_json_output_is_strict():
    with pytest.raises(ValueError):
        _json_text({"value": float("inf")})


def test_verify_all_byte_identical(tmp_path):
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    assert main(["verify-all", "--out", str(first)]) == 0
    assert main(["verify-all", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_radial_csv_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        assert main(["radial", "--kR", "50", "--samples", "300", "--out", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_defaults_and_precedence(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing but a comment\n\n")
    assert load_config(str(empty)) == RunConfig()

    config_file = tmp_path / "run.cfg"
    config_file.write_text("kR = 50\nsamples = 150\n# comment\n")
    loaded = load_config(str(config_file))
    assert loaded.kR == 50.0
    assert loaded.samples == 150

    out_file = tmp_path / "a.csv"
    code = main(
        ["radial", "--config", str(config_file), "--kR", "100", "--out", str(out_file)]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 151  # samples from file
    assert float(lines[-1].split(",")[0]) == 100.0  # kR from flag wins


@pytest.mark.parametrize("before", [True, False])
def test_config_before_or_after_command(tmp_path, capsys, before):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("samples = 100\n")

    def args(path):
        return ["--config", str(path), "radial"] if before else ["radial", "--config", str(path)]

    code, out, _ = run_cli(capsys, *args(config_file))
    assert code == 0
    assert len(out.splitlines()) == 101
    code, out, err = run_cli(capsys, *args(tmp_path / "missing.cfg"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file")


def test_config_file_not_utf8(tmp_path, capsys):
    config_file = tmp_path / "binary.cfg"
    config_file.write_bytes(b"kR = 50\n\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(config_file))
    code, out, err = run_cli(capsys, "radial", "--config", str(config_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


def test_config_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kR = 50\nthis line has no equals sign\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        load_config(str(bad))
    code, _, err = run_cli(capsys, "radial", "--config", str(bad))
    assert code == 2
    assert ":2:" in err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("krr = 50\n")
    code, _, err = run_cli(capsys, "radial", "--config", str(unknown))
    assert code == 2

    badval = tmp_path / "badval.cfg"
    badval.write_text("kR = fifty\n")
    code, _, err = run_cli(capsys, "radial", "--config", str(badval))
    assert code == 2


@pytest.mark.parametrize("command", ["radial", "decay", "variance"])
@pytest.mark.parametrize(
    "line", ["format = xml", "format = JSON", "m = 5", "m = -2", "command = bogus"]
)
def test_config_values_obey_flag_choices(tmp_path, capsys, command, line):
    # the flags refuse these through argparse choices; a config file must too
    config_file = tmp_path / "run.cfg"
    config_file.write_text(line + "\n")
    code, out, err = run_cli(capsys, command, "--config", str(config_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert line.split(" = ")[0] in err
    # the config file refuses the value itself, at its line
    assert "run.cfg:1:" in err


#: Random spacing around keys, "=" and values: spaces and tabs only.
_blank = st.text(alphabet=" \t", max_size=3)

#: Nothing, or a "#" comment holding anything but a line break.
_comment = st.just("") | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=12,
).map("#".__add__)


@st.composite
def _config_files(draw):
    """A valid RunConfig and a config file that spells it out in random order and spacing."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    fields = {
        "command": st.sampled_from(COMMANDS),
        "kR": finite,
        "samples": st.integers(-10**6, 10**6),
        "m": st.sampled_from(M_VALUES),
        "omega0_over_gamma": finite,
        "cutoff": st.integers(-5, 30),
        "tol": finite,
        "out": st.text(alphabet="abcXYZ019._-/= ", min_size=1, max_size=12).filter(
            lambda s: s == s.strip()),
        "format": st.sampled_from(FORMATS),
    }
    keys = draw(st.permutations(list(fields)))[: draw(st.integers(0, len(fields)))]
    values = {key: draw(fields[key]) for key in keys}
    lines = []
    for key in keys:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(_blank) + draw(_comment))
        # str of a float is its shortest round-tripping repr
        lines.append(draw(_blank) + key + draw(_blank) + "=" + draw(_blank) + str(values[key])
                     + draw(_blank) + draw(_comment))
    return RunConfig(**values), "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_config_files())
def test_config_file_round_trip(tmp_path, case):
    config, text = case
    path = tmp_path / "round.cfg"
    path.write_text(text, encoding="utf-8")
    assert load_config(str(path)) == config


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_config_files())
def test_flags_and_config_file_agree(tmp_path, case):
    # the same values as --key=value flags, with the command as the sub-command
    config, text = case
    path = tmp_path / "same.cfg"
    path.write_text(text, encoding="utf-8")
    flags = [
        f"--{field.name.replace('_', '-')}={getattr(config, field.name)}"
        for field in fields(config)
        if field.name != "command" and getattr(config, field.name) is not None
    ]
    args = _build_parser().parse_args([config.command, *flags])
    assert _merge_config(args) == load_config(str(path))


def test_invalid_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["radial", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["variance", "--m", "7"])
    assert info.value.code == 2


def test_invalid_parameter_value_exit_2(capsys):
    # kR below the enforced floor is a domain error, not a crash
    code, _, err = run_cli(capsys, "radial", "--kR", "5")
    assert code == 2
    assert "kR" in err
    # non-finite values are refused before any output
    for args in (
        ("radial", "--kR", "nan"),
        ("radial", "--kR", "inf"),
        ("decay", "--omega0-over-gamma", "nan"),
        ("decay", "--omega0-over-gamma", "inf"),
        ("decay", "--omega0-over-gamma", "inf", "--format", "json"),
        # past MAX_KR the wave-zone window edges merge in floats
        ("radial", "--kR", "1e300"),
        ("radial", "--kR", "2e14"),
        ("radial", "--kR", "1e17"),
        # a tolerance must be able to pass and to fail
        ("algebra", "--tol", "0"),
        ("algebra", "--tol", "-1"),
        ("algebra", "--tol", "nan"),
        ("algebra", "--tol", "inf"),
        # the first values past the size bounds, refused before allocation
        ("radial", "--samples", str(MAX_SAMPLES + 1)),
        ("decay", "--samples", str(MAX_SAMPLES + 1)),
        ("algebra", "--cutoff", "21"),
        # no photon fits below cutoff 1, so every AM identity would hold vacuously
        ("algebra", "--cutoff", "0"),
        ("variance", "--cutoff", "0"),
        ("verify-all", "--cutoff", "0"),
        # every flag is checked, also where the command does not read it
        ("variance", "--kR", "-1"),
        ("decay", "--kR", "nan"),
        ("entangle", "--cutoff", "-3"),
        ("entangle", "--omega0-over-gamma", "1"),
        ("radial", "--cutoff", "99"),
        # a command that draws no grid still needs one a grid-drawing command accepts
        ("algebra", "--samples", "-5"),
        ("variance", "--samples", "0"),
        ("verify-all", "--samples", "-1"),
        ("entangle", "--samples", "1"),
    ):
        code, out, err = run_cli(capsys, *args)
        assert code == 2, args
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("samples", [-5, 0, 1])
def test_decay_samples_lower_bound(capsys, samples, fmt):
    # a curve from t = 0 to 10 / gamma needs both ends
    code, out, err = run_cli(capsys, "decay", "--samples", str(samples), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"error: samples must be >= 2, got {samples}\n"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("samples", [-5, 5, 99])
def test_radial_samples_lower_bound(capsys, samples, fmt):
    # the message names the --samples flag, not the library's n_samples
    code, out, err = run_cli(capsys, "radial", "--samples", str(samples), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: samples")
    assert err == f"error: samples must be >= 100, got {samples}\n"


def test_io_failure_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "variance", "--m", "0", "--out", "/nonexistent-dir/x.json"
    )
    assert code == 3
    assert "cannot write" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_write_failure_exit_3(unbuffered):
    # a full device fails the write (unbuffered) or the flush (buffered); neither
    # may end in a traceback or in the interpreter's exit-time flush error
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "photonam", "verify-all"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert result.returncode == 3
    assert result.stderr.startswith("error: cannot write stdout: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
def test_closed_stdout_exit_3():
    # with fd 1 closed at start-up sys.stdout is None: a failed write, not a traceback
    result = subprocess.run(
        [sys.executable, "-m", "photonam", "variance"],
        stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1),
    )
    assert result.returncode == 3
    assert result.stderr.startswith("error: cannot write stdout: ")
    assert result.stderr.count("\n") == 1


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "photonam", "variance", "--m", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["varJx"] == 0.5


@pytest.mark.parametrize("kR", ["1e8", "1e9"])
def test_radial_json_far_past_the_sampled_wavelength(kR):
    # 2000 samples leave no grid point in the first wavelength
    result = subprocess.run(
        [sys.executable, "-m", "photonam", "radial", "--kR", kR, "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    assert payload["oam_peak_over_lambda"] == pytest.approx(0.531910725846, abs=1e-12)
    # read at 0.1 lambda, not at the nearest grid point ~5e4 or ~5e5 out
    assert payload["near_ratio"] == pytest.approx(1782.25, rel=1e-5)
