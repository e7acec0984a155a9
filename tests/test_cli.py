"""CLI behavior: output formats, config precedence, exit codes, determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from photonam import angular, decay, fock, radial, twins
from photonam.cli import (
    COMMANDS,
    FORMATS,
    M_VALUES,
    MAX_SAMPLES,
    _OPTIONS,
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
    # a command that reads no cutoff refuses a bad one in the same words
    assert run_cli(capsys, "radial", "--cutoff", "0") == (
        2, "", "error: cutoff must be >= 1 to hold a photon, got 0\n"
    )
    assert run_cli(capsys, "radial", "--cutoff", "21") == (
        2, "", "error: 3 modes at cutoff 21 give a 21-photon sector of 253 states > 252\n"
    )


def test_radial_checks_the_cutoff_without_building_a_space(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("radial built a Fock space")

    monkeypatch.setattr(angular, "build_space", refuse)
    code, out, err = run_cli(capsys, "radial", "--cutoff", "20", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["schema"] == 1


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


def test_entangle_does_not_read_the_cutoff(capsys):
    # the 2 N_exc = 2 sector holds the same 22 states at every cutoff >= 2
    outputs = [run_cli(capsys, "entangle", "--cutoff", cutoff) for cutoff in ("2", "3", "20")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]

    def selection_rule(cutoff):
        checks = json.loads(run_cli(capsys, "verify-all", "--cutoff", cutoff)[1])["checks"]
        return next(check for check in checks if check["name"] == "selection_rule")

    assert selection_rule("2") == selection_rule("8")


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(check["pass"] for check in payload["checks"])
    assert len(payload["checks"]) == 10


def checks_of(capsys, *args):
    code, out, _ = run_cli(capsys, *args)
    return code, json.loads(out)["checks"]


@pytest.mark.parametrize("cutoff", ["1", "3", "8"])
@pytest.mark.parametrize("tol", ["1e-12", "1e-3"])
def test_verify_all_algebra_checks_are_algebras(capsys, cutoff, tol):
    _, algebra = checks_of(capsys, "algebra", "--cutoff", cutoff, "--tol", tol)
    _, verify = checks_of(capsys, "verify-all", "--cutoff", cutoff, "--tol", tol)
    verify = {check["name"]: check for check in verify}
    su2, densities = algebra[0], algebra[1:10]
    assert [c["name"] for c in densities] == [
        f"[{a}_a(r),{b}_b(r)] = i eps_abc f_{a}(kr) {b}_c(r) @ kr={kr}"
        for kr in (0.5, 3.0, 50.0)
        for a, b in (("spin", "spin"), ("oam", "oam"), ("oam", "spin"))
    ]
    assert verify["su2_closure"] == su2
    assert verify["density_commutators"] == {
        "name": "density_commutators",
        "pass": all(c["pass"] for c in densities),
        "bound": float(tol),
        "max_residual": max(c["max_residual"] for c in densities),
        "tolerance": float(tol),
    }


def test_verify_all_tol_bounds_its_algebra_and_variance_checks(capsys):
    code, checks = checks_of(capsys, "verify-all", "--tol", "1e-30")
    assert code == 1
    failed = [check for check in checks if not check["pass"]]
    assert [check["name"] for check in failed] == [
        "su2_closure", "variance_table", "density_commutators"
    ]
    assert all(check["tolerance"] == 1e-30 for check in failed)


def test_every_check_carries_the_bound_its_module_names(capsys):
    tol = 1e-9
    _, algebra = checks_of(capsys, "algebra", "--tol", str(tol))
    assert [check["bound"] for check in algebra] == [tol] * 11
    _, verify = checks_of(capsys, "verify-all", "--tol", str(tol))
    assert {check["name"]: check["bound"] for check in verify} == {
        "su2_closure": tol,
        "variance_table": tol,
        "shell_conservation": radial.SHELL_DEVIATION_MAX,
        "near_zone_spin_dominance": radial.NEAR_RATIO_MIN,
        "oam_peak_location": list(radial.OAM_PEAK_RANGE),
        "wave_zone_equality": radial.WAVE_DISCREPANCY_MAX,
        "density_commutators": tol,
        "decay_conservation": decay.DECAY_RESIDUAL_MAX,
        "entanglement_maximum": twins.OPTIMUM_TOL,
        "selection_rule": {"coupling_to_odd": twins.COUPLING_TOL,
                           "eigen_residual": twins.COUPLING_TOL,
                           "max_evolution_overlap": twins.OVERLAP_TOL},
    }
    # "bound" follows "pass"; every other key keeps its place
    assert all(list(check)[:3] == ["name", "pass", "bound"] for check in algebra + verify)


def test_verify_all_variance_and_decay_checks_read_no_flag(capsys):
    # variance_table's one-photon variances hold at any cutoff, and decay_conservation
    # fixes its own omega0 / gamma: their entries are the same bytes under every value
    def entries(*flags):
        _, out, _ = run_cli(capsys, "verify-all", *flags)
        names = ("variance_table", "decay_conservation")
        return [json.dumps(c) for c in json.loads(out)["checks"] if c["name"] in names]

    want = entries("--cutoff", "3", "--omega0-over-gamma", "1e3")
    assert len(want) == 2
    for flags in (("--cutoff", "1"), ("--cutoff", "20"), ("--omega0-over-gamma", "50"),
                  ("--omega0-over-gamma", "1e300")):
        assert entries(*flags) == want, flags


def count_calls(monkeypatch, targets):
    """Wrap each (module, name) of targets in a counter; return the counts by name."""
    counts = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def test_verify_all_computes_each_shared_value_once(capsys, monkeypatch):
    targets = [
        (angular, "three_mode_space"),
        (angular, "j_operators"),
        (radial, "zone_report"),
        (twins, "interaction_hamiltonian"),
        (twins, "maximize_entanglement"),
    ]
    counts = count_calls(monkeypatch, targets)
    assert run_cli(capsys, "verify-all")[0] == 0
    assert counts == Counter({name: 1 for _, name in targets})


def test_algebra_builds_the_space_once(capsys, monkeypatch):
    counts = count_calls(monkeypatch, [(angular, "three_mode_space")])
    assert run_cli(capsys, "algebra")[0] == 0
    assert counts == Counter(three_mode_space=1)


@pytest.mark.parametrize("command", ["algebra", "entangle", "verify-all"])
def test_commands_build_no_basis_tuples(capsys, monkeypatch, command):
    # the spaces are read through their occupation array; the tuples are for inspection
    def refuse(space):
        raise AssertionError(f"{command} built FockSpace.basis")

    monkeypatch.setattr(fock.FockSpace, "basis", property(refuse))
    assert run_cli(capsys, command)[0] == 0


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


def test_commands_at_the_largest_kR(capsys):
    # MAX_KR gives the narrowest wave-zone window in floats
    strict = lambda name: pytest.fail(f"non-strict {name}")
    kR = f"{radial.MAX_KR:g}"
    code, out, err = run_cli(capsys, "radial", "--kR", kR, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=strict)["wave_zone_discrepancy"] < 1e-15
    code, out, err = run_cli(capsys, "verify-all", "--kR", kR)
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=strict)["pass"] is True


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
    with pytest.raises(ValueError, match="cannot read config file"):
        load_config(str(config_file))
    code, out, err = run_cli(capsys, "radial", "--config", str(config_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


def test_config_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kR = 50\nthis line has no equals sign\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
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
    """A valid RunConfig and a config file that spells it out in random order and spacing,
    with or without a UTF-8 byte-order mark, its lines ended by LF or CRLF."""
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
    bom, end = draw(st.sampled_from(["", "\ufeff"])), draw(st.sampled_from(["\n", "\r\n"]))
    return RunConfig(**values), bom + end.join(lines) + draw(st.sampled_from(["", end]))


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_config_files())
def test_config_file_round_trip(tmp_path, case):
    config, text = case
    path = tmp_path / "round.cfg"
    path.write_bytes(text.encode("utf-8"))  # the line ends as drawn
    assert load_config(str(path)) == config


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_config_files())
def test_flags_and_config_file_agree(tmp_path, case):
    # the same values as --key=value flags, with the command as the positional
    config, text = case
    path = tmp_path / "same.cfg"
    path.write_bytes(text.encode("utf-8"))
    flags = [
        f"--{field.name.replace('_', '-')}={getattr(config, field.name)}"
        for field in fields(config)
        if field.name != "command" and getattr(config, field.name) is not None
    ]
    args = _build_parser().parse_intermixed_args([config.command, *flags])
    assert _merge_config(args) == load_config(str(path))


#: Two valid values of every flag, neither of them its default.
_FLAG_VALUES = {
    "kR": ("50", "60"),
    "samples": ("150", "160"),
    "m": ("1", "-1"),
    "omega0_over_gamma": ("77.7", "88.8"),
    "cutoff": ("4", "5"),
    "tol": ("1e-10", "1e-11"),
    "out": ("a.json", "b.json"),
    "format": ("csv", "json"),
}


def _parsed(*argv):
    return _merge_config(_build_parser().parse_intermixed_args(list(argv)))


def test_every_flag_has_test_values():
    flagged = {name for name, option in _OPTIONS.items() if option.help is not None}
    assert set(_FLAG_VALUES) == flagged


@pytest.mark.parametrize("name", sorted(_FLAG_VALUES))
def test_flag_on_either_side_of_the_command_later_wins(name):
    flag = "--" + name.replace("_", "-")
    first, second = _FLAG_VALUES[name]
    want_first, want_second = (_OPTIONS[name].parse(value) for value in (first, second))
    assert getattr(_parsed(flag, first, "decay"), name) == want_first
    assert getattr(_parsed("decay", flag, first), name) == want_first
    assert getattr(_parsed(flag, first, "decay", flag, second), name) == want_second
    assert getattr(_parsed(flag, second, "decay", flag, first), name) == want_first
    # on one side, too, the later value wins; the command is read wherever it stands
    assert getattr(_parsed(flag, first, flag, second), name) == want_second
    assert _parsed(flag, first, "decay", flag, second).command == "decay"


def test_flags_before_and_after_the_command_give_the_same_bytes(capsys):
    after = run_cli(capsys, "radial", "--kR", "50", "--samples", "120", "--format", "json")
    before = run_cli(capsys, "--kR", "50", "--samples", "120", "radial", "--format", "json")
    assert after == before and after[0] == 0


def test_help_is_one_page_listing_every_command_and_flag(capsys):
    pages = []
    for argv in (["--help"], ["radial", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        pages.append(capsys.readouterr().out)
    assert pages[0] == pages[1]
    assert "{" + ",".join(COMMANDS) + "}" in pages[0]
    for flag in ["--config", *("--" + name.replace("_", "-") for name in _FLAG_VALUES)]:
        assert flag in pages[0], flag


def test_second_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["radial", "algebra"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: algebra" in captured.err


def test_invalid_flags_exit_2(capsys):
    # argparse's refusals are one `error: ...` line, as every other refusal, with no usage block
    # --m's choices are written out in cli, so that argparse runs before numpy loads
    assert _OPTIONS["m"].choices == M_VALUES == tuple(sorted(angular.M_VALUES))
    for argv, message in (
        (["radial", "--bogus"], "unrecognized arguments: --bogus"),
        (["variance", "--m", "7"], "argument --m: invalid choice"),
        (["bogus"], "argument command: invalid choice"),
        (["--kR", "abc", "radial"], "argument --kR: invalid float value"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}"), err
        assert err.endswith("\n") and err.count("\n") == 1, err


def test_invalid_parameter_value_exit_2(tmp_path, capsys):
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
        # past MAX_KR the wave-zone window's nodes round by over 1% of a panel
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

    # a value refused by the cavity or decay model names the option, not the model's field
    config_file = tmp_path / "run.cfg"
    for key in ("kR", "omega0_over_gamma"):
        for value in ("nan", "inf", "-5"):
            want = (2, "", f"error: {key} must be finite and > 0, got {float(value)}\n")
            for command in ("radial", "decay", "verify-all"):
                flag = "--" + key.replace("_", "-")
                assert run_cli(capsys, command, flag, value) == want, (command, key, value)
            config_file.write_text(f"command = radial\n{key} = {value}\n")
            assert run_cli(capsys, "--config", str(config_file)) == want, (key, value)


@pytest.mark.parametrize("command", ["algebra", "variance", "entangle", "verify-all"])
@pytest.mark.parametrize("from_file", [False, True])
def test_json_only_command_refuses_csv(tmp_path, capsys, command, from_file):
    # CSV asked of a command that writes JSON only is refused, not answered in JSON
    config_file = tmp_path / "run.cfg"
    config_file.write_text(f"command = {command}\nformat = csv\n")
    args = ["--config", str(config_file)] if from_file else [command, "--format", "csv"]
    assert run_cli(capsys, *args) == (
        2, "", f"error: {command} writes json only, got --format csv\n"
    )
    # its own format is accepted, by flag and from a file alike
    config_file.write_text(f"command = {command}\nformat = json\n")
    args = ["--config", str(config_file)] if from_file else [command, "--format", "json"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["schema"] == 1


@pytest.mark.parametrize("command", ["radial", "decay"])
def test_csv_commands_keep_both_formats(capsys, command):
    for fmt in FORMATS:
        code, out, err = run_cli(capsys, command, "--format", fmt, "--samples", "100")
        assert code == 0 and err == ""
        assert out.startswith("{") == (fmt == "json")


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
