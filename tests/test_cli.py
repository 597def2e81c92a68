"""End-to-end checks of the command-line front end via run()."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import cvteleport
from cvteleport import cli
from cvteleport.cli import run
from cvteleport.epr import LosslessNopa, LossyNopa
from cvteleport.swap import SwapConfig, swap_fidelity
from cvteleport.teleport import NonUnitGainWarning

HEADER = "omega,v_x,v_p,fidelity"


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Spectra read port powers


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--omega-stop", "1"),
        ("swap-spectrum", "--omega-stop", "1"),
        ("point", "--omega", "0.7"),
        ("bandwidth",),
        ("bandwidth", "--pipeline", "swap"),
        ("criteria", "--omega", "0.7"),
    ],
    ids=["spectrum", "swap-spectrum", "point", "bandwidth", "bandwidth-swap", "criteria"],
)
@pytest.mark.parametrize("beta", ["1", "0.9"], ids=["lossless", "lossy"])
def test_spectrum_commands_build_no_complex_amplitudes(capsys, monkeypatch, args, beta):
    # The kernel sums real port powers: no command but oracle-check asks a
    # source for its complex transfer amplitudes.
    calls = []
    for cls in (LosslessNopa, LossyNopa):
        monkeypatch.setattr(cls, "pair", lambda self, omega: calls.append(omega))
    code, out, _ = invoke(capsys, args[0], "--epsilon", "0.5", "--beta", beta, *args[1:])
    assert code == 0 and out
    assert calls == []


# ---------------------------------------------------------------------------
# point


def test_point_known_row(capsys):
    code, out, _ = invoke(capsys, "point", "--epsilon", "0.5", "--omega", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "1,0.769230769231,0.769230769231,0.722222222222"


def test_point_lossy_detector_row(capsys):
    # kappa/gamma/rho map to epsilon=0.77, beta=0.9; omega 1.12 is
    # dimensionless 0.56 at scale 2/(gamma+rho)=0.5.
    code, out, _ = invoke(
        capsys,
        "point",
        "--kappa", "1.54",
        "--gamma", "3.6",
        "--rho", "0.4",
        "--omega", "1.12",
        "--eta2", "0.97",
    )
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row == "1.12,0.453267247065,0.453267247065,0.815239351682"


def test_point_physical_rates_report_user_frequency(capsys):
    # kappa=1, gamma=4: epsilon=0.5 and scale=0.5, so user omega 2 is
    # dimensionless 1 and the row must match the epsilon route at omega=1,
    # with the frequency column still in user units.
    code, out, _ = invoke(capsys, "point", "--kappa", "1", "--gamma", "4", "--omega", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "2,0.769230769231,0.769230769231,0.722222222222"


def test_point_squeezed_input_changes_fidelity(capsys):
    _, out_coh, _ = invoke(capsys, "point", "--epsilon", "0.3")
    _, out_sq, _ = invoke(capsys, "point", "--epsilon", "0.3", "--input", "squeezed:2")
    f_coh = float(out_coh.strip().splitlines()[1].split(",")[3])
    f_sq = float(out_sq.strip().splitlines()[1].split(",")[3])
    assert f_coh != f_sq


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_without_pump_is_flat_classical(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "--epsilon", "0", "--omega-stop", "0.2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    assert lines[1:] == ["0,2,2,0.5", "0.1,2,2,0.5", "0.2,2,2,0.5"]


def test_spectrum_json_format(capsys):
    code, out, _ = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--omega-stop", "1", "--omega-step", "0.5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["fidelity", "omega", "v_p", "v_x"]
    assert payload["omega"] == [0.0, 0.5, 1.0]
    assert payload["fidelity"][0] == pytest.approx(0.9, rel=1e-9)


def test_spectrum_is_deterministic(capsys):
    args = ("spectrum", "--epsilon", "0.37", "--omega-stop", "2")
    code, first, _ = invoke(capsys, *args)
    assert code == 0 and first.startswith(HEADER)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_spectrum_output_file_and_gnuplot(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--omega-stop", "1",
        "--output", str(out_csv), "--gnuplot",
    )
    assert code == 0
    assert out == ""  # table went to the file
    text = out_csv.read_text()
    assert text.splitlines()[0] == HEADER
    script = tmp_path / "sweep.gp"
    body = script.read_text()
    assert "using 1:4" in body
    assert "'sweep.csv'" in body


def test_gnuplot_requires_output_and_csv(capsys, tmp_path):
    code, _, err = invoke(capsys, "spectrum", "--epsilon", "0.5", "--gnuplot")
    assert code == 1 and "gnuplot" in err
    code, _, err = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--gnuplot",
        "--output", str(tmp_path / "x.json"), "--format", "json",
    )
    assert code == 1


# ---------------------------------------------------------------------------
# swap-spectrum


def test_swap_spectrum_matches_library(capsys):
    code, out, _ = invoke(
        capsys,
        "swap-spectrum", "--epsilon", "0.4", "--omega-stop", "1", "--omega-step", "0.5",
    )
    assert code == 0
    cfg = SwapConfig(LosslessNopa(0.4))
    for line in out.strip().splitlines()[1:]:
        omega, _, _, fid = (float(s) for s in line.split(","))
        assert fid == pytest.approx(swap_fidelity(cfg, omega), rel=1e-9)


def test_swap_spectrum_fixed_gain(capsys):
    code, out, _ = invoke(
        capsys,
        "swap-spectrum", "--epsilon", "0.4", "--gain", "fixed:1",
        "--omega-stop", "0", "--omega-step", "1",
    )
    assert code == 0
    fid = float(out.strip().splitlines()[1].split(",")[3])
    cfg = SwapConfig(LosslessNopa(0.4), gain=1.0)
    assert fid == pytest.approx(swap_fidelity(cfg, 0.0), rel=1e-9)


# ---------------------------------------------------------------------------
# bandwidth


def closed_width(eps, t=0.51):
    return 2.0 * math.sqrt(4.0 * eps * t / (2.0 * t - 1.0) - (1.0 + eps) ** 2)


def test_bandwidth_extends_beyond_grid(capsys):
    code, out, _ = invoke(capsys, "bandwidth", "--epsilon", "0.6")
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6), abs=1e-5)
    assert out.strip() == "15.3153520823"


def test_bandwidth_physical_rates_rescale(capsys):
    # gamma=1, rho=0: scale 2, so the printed physical width is half the
    # dimensionless one for the same epsilon.
    code, out, _ = invoke(capsys, "bandwidth", "--kappa", "0.3", "--gamma", "1")
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6) / 2.0, abs=1e-5)


def test_bandwidth_swap_pipeline(capsys):
    code, out, _ = invoke(capsys, "bandwidth", "--epsilon", "0.4", "--pipeline", "swap")
    assert code == 0
    assert float(out) == pytest.approx(4.2412, abs=0.01)


def test_bandwidth_custom_threshold(capsys):
    code, out, _ = invoke(
        capsys, "bandwidth", "--epsilon", "0.6", "--threshold", "0.6",
    )
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6, 0.6), abs=1e-5)


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize(
    "args",
    [
        ("--epsilon", "0.5", "--threshold", "0.4"),  # below the classical 1/2
        ("--epsilon", "0.5", "--gain", "fixed:0.5"),  # F tends to 1/(1 + g^2) = 0.8
    ],
)
def test_bandwidth_never_crossed_prints_inf(capsys, args):
    code, out, _ = invoke(capsys, "bandwidth", *args)
    assert code == 0
    assert out == "inf\n"


def test_bandwidth_threshold_below_one_half_can_be_finite(capsys):
    # A lossy detector pulls the large-omega fidelity below 1/2.
    code, out, _ = invoke(
        capsys, "bandwidth", "--epsilon", "0.5", "--eta2", "0.8", "--threshold", "0.45",
    )
    assert code == 0
    assert out == "16.7032927275\n"


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize("command", ["spectrum", "swap-spectrum"])
def test_threshold_row_prints_inf(capsys, command):
    # At threshold a nonunit gain leaves an infinite noise term: inf, not nan.
    code, out, _ = invoke(
        capsys, command, "--epsilon", "1", "--gain", "fixed:0.5", "--omega-stop", "0",
    )
    assert code == 0
    assert out == HEADER + "\n0,inf,inf,0\n"


@pytest.mark.parametrize("command", ["spectrum", "swap-spectrum"])
@pytest.mark.parametrize("gain", ["unit", "fixed:0.5"])
def test_threshold_grids_print_no_warnings(capsys, command, gain):
    # A numpy RuntimeWarning would leak to stderr; as an error it fails the run.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", NonUnitGainWarning)
        code, out, err = invoke(
            capsys, command, "--epsilon", "1", "--gain", gain, "--omega-stop", "0.5",
        )
    assert (code, err) == (0, "")
    assert "nan" not in out


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize(
    "args, key",
    [
        (("spectrum", "--omega-stop", "0.3", "--format", "json"), "v_x"),
        (("criteria",), "v_product"),
    ],
    ids=["spectrum-json", "criteria"],
)
def test_json_writes_infinite_values_as_strings(capsys, args, key):
    # RFC 8259 has no Infinity or NaN token; they print as the CSV strings.
    code, out, _ = invoke(capsys, *args, "--epsilon", "1", "--gain", "fixed:0.5")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    value = payload[key]
    assert (value[0] if isinstance(value, list) else value) == "inf"


# ---------------------------------------------------------------------------
# criteria


def test_criteria_report_pumped(capsys):
    code, out, _ = invoke(capsys, "criteria", "--epsilon", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity"] == pytest.approx(0.775229357798165, rel=1e-12)
    assert all(payload["verdicts"].values())
    assert payload["out_product_limit"] == 9.0


def test_criteria_report_classical_point(capsys):
    code, out, _ = invoke(capsys, "criteria", "--epsilon", "0")
    assert code == 0
    payload = json.loads(out)
    assert not any(payload["verdicts"].values())
    assert payload["v_product"] == pytest.approx(4.0, rel=1e-12)


def test_criteria_physical_rates_report_user_frequency(capsys):
    code, out, _ = invoke(
        capsys, "criteria", "--kappa", "1", "--gamma", "4", "--omega", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == 2.0
    assert payload["fidelity"] == pytest.approx(0.7222222222222222, rel=1e-12)


def test_criteria_rejects_a_gain_that_overflows_the_output(capsys):
    code, out, err = invoke(capsys, "criteria", "--epsilon", "0.5", "--gain", "fixed:1e200")
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: gain (1e+200+0j) takes the output variance past")


def test_criteria_report_at_a_large_finite_gain(capsys):
    # |gain|^2 = 1e300 stays in range: the report prints, with F = 0 where
    # the Q-function widths' product passes the float range.
    code, out, err = invoke(capsys, "criteria", "--epsilon", "0.5", "--gain", "fixed:1e150")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for key in ("v_x", "v_p", "v_out_x", "v_out_p", "v_c_x", "v_c_p", "t_x", "t_p"):
        assert math.isfinite(payload[key]), key
    assert payload["fidelity"] == 0.0
    assert not any(payload["verdicts"].values())


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# source setup\nepsilon=0.5\nomega=1\n")
    code, out, _ = invoke(capsys, "point", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[1] == "1,0.769230769231,0.769230769231,0.722222222222"


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon=0.1\nomega=1\n")
    code, out, _ = invoke(capsys, "point", "--config", str(cfg), "--epsilon", "0.5")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("1,0.769230769231")


def test_config_file_dashed_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon=0\nomega-stop=0.1\n")
    code, out, _ = invoke(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header + 2 rows


@pytest.mark.parametrize("value, script", [("1", True), ("0", False), ("", False)])
def test_config_file_gnuplot_values(capsys, tmp_path, value, script):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epsilon=0.5\nomega-stop=0.2\ngnuplot={value}\n")
    out_csv = tmp_path / "t.csv"
    code, out, err = invoke(capsys, "spectrum", "--config", str(cfg), "--output", str(out_csv))
    assert (code, out, err) == (0, "", "")
    assert out_csv.read_text().startswith(HEADER)
    assert (tmp_path / "t.gp").exists() is script
    # Off needs no --output.
    code, out, _ = invoke(capsys, "spectrum", "--config", str(cfg))
    assert code == (1 if script else 0)


@pytest.mark.parametrize("value", ["no", "yes", "true", "2"])
def test_config_file_gnuplot_rejects_other_values(capsys, tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epsilon=0.5\ngnuplot={value}\n")
    code, out, err = invoke(
        capsys, "spectrum", "--config", str(cfg), "--output", str(tmp_path / "t.csv")
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --gnuplot: expected 1 or 0, got {value!r}")
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "t.gp").exists()


def test_config_file_errors(capsys, tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("epsilon=0.5\nbogus=1\n")
    code, _, err = invoke(capsys, "point", "--config", str(bad_key))
    assert code == 1 and "bogus" in err

    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("epsilon 0.5\n")
    code, _, err = invoke(capsys, "point", "--config", str(bad_line))
    assert code == 1 and "key=value" in err

    code, _, err = invoke(capsys, "point", "--config", str(tmp_path / "missing.cfg"))
    assert code == 1 and "config" in err


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "args",
    [
        ("point",),  # no source at all
        ("point", "--epsilon", "2"),  # out of range
        ("point", "--epsilon", "abc"),
        ("point", "--epsilon", "0.5", "--kappa", "1", "--gamma", "3"),
        ("point", "--kappa", "1"),  # gamma missing
        ("point", "--kappa", "1", "--gamma", "4", "--beta", "0.9"),
        ("point", "--epsilon", "0.5", "--eta2", "0"),
        ("point", "--epsilon", "0.5", "--gain", "bogus"),
        ("point", "--epsilon", "0.5", "--input", "thermal"),
        ("spectrum", "--epsilon", "0.5", "--gain", "optimal-swap"),
        ("spectrum", "--epsilon", "0.5", "--format", "xml"),
        ("spectrum", "--epsilon", "0.5", "--omega-step", "0"),
        ("spectrum", "--epsilon", "0.5", "--threads", "0"),
        ("bandwidth", "--epsilon", "0.5", "--pipeline", "carrier"),
        ("oracle-check", "--epsilon", "0.5", "--samples", "10"),
        ("frobnicate",),
        (),
        ("point", "--epsilon", "0.5", "--omega", "nan"),
        ("point", "--epsilon", "0.5", "--gain", "fixed:nan"),
        ("criteria", "--epsilon", "0.5", "--omega", "inf"),
        ("spectrum", "--epsilon", "0.5", "--omega-stop", "nan"),
        ("spectrum", "--epsilon", "0.5", "--omega-stop", "inf"),
        ("point", "--kappa", "1", "--gamma", "nan"),
        ("swap-spectrum", "--epsilon", "0.5", "--eta2", "0.5", "--input", "squeezed:2"),
        ("swap-spectrum", "--epsilon", "0.5", "--input", "squeezed:2"),
        ("bandwidth", "--epsilon", "0.5", "--pipeline", "swap", "--eta2", "0.3"),
        ("oracle-check", "--epsilon", "0.5", "--samples", "2000", "--seed", "-1"),
        ("oracle-check", "--epsilon", "0.5", "--samples", "100000001"),
        ("point", "--epsilon", "0.5", "--input", "squeezed:1e200"),
        ("point", "--epsilon", "0.5", "--input", "squeezed:1e-200"),
        ("bandwidth", "--epsilon", "0.5", "--format", "xml", "--gnuplot"),
    ],
)
def test_configuration_errors_exit_1(capsys, args):
    code, _, err = invoke(capsys, *args)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "args, flag",
    [
        (("point", "--epsilon", "0.5", "--omega", "nan"), "--omega"),
        (("point", "--epsilon", "0.5", "--gain", "fixed:nan"), "--gain"),
        (("criteria", "--epsilon", "0.5", "--omega", "inf"), "--omega"),
        (("spectrum", "--epsilon", "0.5", "--omega-stop", "nan"), "--omega-stop"),
        (("spectrum", "--epsilon", "0.5", "--omega-start=-inf"), "--omega-start"),
        (("point", "--kappa", "1", "--gamma", "nan"), "--gamma"),
        (("point", "--epsilon", "inf"), "--epsilon"),
    ],
)
def test_non_finite_values_name_the_flag(capsys, args, flag):
    code, _, err = invoke(capsys, *args)
    assert code == 1
    assert err.startswith(f"error: {flag}: expected a finite number")


@pytest.mark.parametrize(
    "args, flag",
    [
        (("oracle-check", "--epsilon", "0.5", "--samples", "2000", "--seed", "-1"), "--seed"),
        (("oracle-check", "--epsilon", "0.5", "--samples", "10"), "--samples"),
        (("oracle-check", "--epsilon", "0.5", "--samples", "100000001"), "--samples"),
    ],
)
def test_oracle_check_limits_name_the_flag(capsys, args, flag):
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("s_v", ["1e200", "1e-200", "0", "-2"])
def test_squeezed_input_errors_name_the_flag(capsys, s_v):
    # Variances of 1e400 used to escape as an OverflowError (exit 2).
    code, out, err = invoke(capsys, "point", "--epsilon", "0.5", "--input", f"squeezed:{s_v}")
    assert (code, out) == (1, "")
    assert err.startswith("error: --input: ")


def test_lossy_spectrum_near_threshold_exits_0(capsys):
    # The unit-gain weight once cancelled two amplitudes of order 1/(1 - epsilon)
    # and tripped the closed-form cross-check here (exit 2).
    code, out, _ = invoke(
        capsys, "spectrum", "--epsilon", "0.9999999999", "--beta", "0.875", "--omega-stop", "0.1"
    )
    assert code == 0
    assert out.splitlines()[1] == "0,0.25,0.25,0.888888888889"


@pytest.mark.parametrize(
    "args, flag",
    [
        (("swap-spectrum", "--epsilon", "0.5", "--eta2", "0.5", "--input", "squeezed:2"), "--eta2"),
        (("swap-spectrum", "--epsilon", "0.5", "--input", "squeezed:2"), "--input"),
        (("bandwidth", "--epsilon", "0.5", "--pipeline", "swap", "--eta2", "0.3"), "--eta2"),
    ],
)
def test_swap_pipeline_rejects_teleport_only_flags(capsys, args, flag):
    # Swapping is verified with a coherent input on ideal detectors.
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} does not apply to the swap pipeline")


@pytest.mark.parametrize(
    "stop, step",
    [
        ("5", "1e-300"),  # 5e300 rows: rejected before any list is built
        ("1e300", "1e-300"),  # the row count overflows to inf
        ("1000000", "1"),  # one row over the cap
    ],
)
def test_grid_size_is_capped(capsys, stop, step):
    code, out, err = invoke(
        capsys, "spectrum", "--epsilon", "0.5", "--omega-stop", stop, "--omega-step", step,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --omega-step: the grid would exceed 1000000 rows")


@pytest.mark.parametrize(
    "args, flag",
    [
        (("point", "--epsilon", "0.5", "--omega", "1e160"), "--omega"),
        (("criteria", "--epsilon", "0.5", "--omega", "1e200"), "--omega"),
        (("point", "--epsilon", "0.5", "--omega=-1e160"), "--omega"),
        (("criteria", "--epsilon", "0.5", "--omega=-1e200"), "--omega"),
        (("swap-spectrum", "--epsilon", "0.5", "--omega-start", "1e200", "--omega-stop", "1e200"),
         "--omega-start"),
        (("spectrum", "--epsilon", "0.5", "--omega-stop", "1e200", "--omega-step", "1e196"),
         "--omega-stop"),
        (("bandwidth", "--epsilon", "0.5", "--omega-stop", "1e200", "--omega-step", "1e196"),
         "--omega-stop"),
        # Physical rates: 1e5 in units of gamma = 1e-150 is 2e155 dimensionless.
        (("point", "--kappa", "1e-151", "--gamma", "1e-150", "--omega", "1e5"), "--omega"),
    ],
)
def test_frequencies_past_the_limit_name_the_flag(capsys, args, flag):
    # Their squares pass the float range; they used to leak a RuntimeWarning
    # and exit 2 with "Q-function variances must be positive".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err == (
        f"error: {flag}: frequencies of magnitude above 1e+154 (dimensionless) "
        "are out of range\n"
    )


@pytest.mark.parametrize("omega", ["1e154", "-1e154"])
def test_frequency_at_the_limit_is_accepted(capsys, omega):
    code, out, _ = invoke(capsys, "point", "--epsilon", "0.5", f"--omega={omega}")
    assert code == 0
    assert out.splitlines()[1] == f"{float(omega):g},2,2,0.5"


@pytest.mark.parametrize(
    "args",
    [
        ("--pipeline", "swap"),  # never crossed: the swapped fidelity tends to 1/2 from above
        ("--omega-start", "1e100", "--omega-stop", "1e100"),  # doubles up to the limit
    ],
)
def test_bandwidth_at_threshold_one_half_prints_inf(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, "bandwidth", "--epsilon", "0.5", "--threshold", "0.5", *args)
    assert (code, out, err) == (0, "inf\n", "")


def test_unwritable_output_exits_2(capsys):
    code, _, err = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--output", "/nonexistent-dir/x.csv",
    )
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# byte stability

# sha256 of stdout for a fixed set of commands: every printed digit is
# pinned, so a refactor that moves any output by one ulp at 12 significant
# digits fails here.
STDOUT_SHA256 = [
    pytest.param(
        "b8437c10a76751f3aef551da0885de01e33515aa4348fb2351e9cdd6aea0d4af",
        ("spectrum", "--epsilon", "0.6", "--omega-stop", "3"),
        id="spectrum-lossless",
    ),
    pytest.param(
        "421b8103821c3a0018d64fda1a6db22d32388452d3852a9008857449e95e2feb",
        (
            "spectrum", "--epsilon", "0.6", "--beta", "0.9", "--eta2", "0.97",
            "--omega-stop", "3",
        ),
        id="spectrum-lossy-eta2",
    ),
    pytest.param(
        "65c48890a364bc3d3aff7f3bf4e21224e278eadea72e3544535f49bd8a58956c",
        (
            "spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "4", "--omega-step", "0.25",
        ),
        id="spectrum-physical",
    ),
    pytest.param(
        "0c27b31fc8655a50319e9443df708d9ec522d8922ce92bc8b7a3666f32a0441e",
        (
            "spectrum", "--epsilon", "0.5", "--beta", "0.8", "--omega-stop", "2",
            "--format", "json",
        ),
        id="spectrum-json",
    ),
    pytest.param(
        "aaabd775915834714a7abb36961ed0ba406c89652762226e9370e7f1c09a49be",
        ("swap-spectrum", "--epsilon", "0.4", "--omega-stop", "3"),
        id="swap-optimal",
    ),
    pytest.param(
        "b0bb17f565b56384ad08bc978cd0ac3808f531fd8942c0a6e1728ed4e17a9558",
        (
            "swap-spectrum", "--epsilon", "0.4", "--beta", "0.9", "--gain", "fixed:0.8",
            "--omega-stop", "3",
        ),
        id="swap-fixed-gain",
    ),
    pytest.param(
        "7b339a946c58d40ce2e734675cf0157219326da80ef31ecc50e959ac8e6659ac",
        ("point", "--epsilon", "1"),
        id="point-threshold",
    ),
    pytest.param(
        "8e7266e70a8a71b4a0acf8d457e05ca51151f9d269088f5523ff8e70334444bf",
        (
            "criteria", "--epsilon", "0.6", "--omega", "0.5",
            "--input", "squeezed:1.5", "--gain", "fixed:0.9",
        ),
        id="criteria-squeezed-fixed-gain",
    ),
    pytest.param(
        "f256302db6b902a6e2635ed0f7ddd4965337f21a606bdabeb9bd61bc467c6dfd",
        ("bandwidth", "--epsilon", "0.6"),
        id="bandwidth-teleport",
    ),
    pytest.param(
        "79719ae0910e54f27c30bd0415b9c4375db1066ed7757a512c167f64daf1abdc",
        ("bandwidth", "--epsilon", "0.4", "--pipeline", "swap"),
        id="bandwidth-swap",
    ),
    pytest.param(
        "1f65f1ecf5b99ad6cc9287c447067635535b38730021dbb28652203ae5eda409",
        (
            "swap-spectrum", "--epsilon", "0.5", "--beta", "0.8", "--omega-stop", "2",
            "--format", "json",
        ),
        id="swap-lossy-json",
    ),
    pytest.param(
        "826d5111507121c2068d32b62c32d43ae18d92f8d51be2ef9b100c0cdf2fc9df",
        ("swap-spectrum", "--epsilon", "1"),
        id="swap-threshold",
    ),
    pytest.param(
        "ac4a700d7da528654645913de374976437aa2700b42adb4810708bbe5e17fc12",
        ("swap-spectrum", "--epsilon", "1", "--gain", "fixed:0.5"),
        id="swap-threshold-fixed-gain",
    ),
    pytest.param(
        "70ddc52a647fb947e9ceb5d670b3213f4cb6d9c1e52dd82ab0dcdf02e1790376",
        (
            "swap-spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "4", "--omega-step", "0.25",
        ),
        id="swap-physical",
    ),
    # Tables of _text._VECTOR_ROWS (200) rows or more, which the numpy
    # writer formats; the physical-rate ones report frequencies in user
    # units, rebuilt by cli._reindex.
    pytest.param(
        "b3fce8c8b6ba882b8003c16cb5ace5dd6f893b73fccb7469bc549dfa7bbda078",
        ("spectrum", "--epsilon", "0.6", "--omega-stop", "30"),
        id="spectrum-lossless-301-rows",
    ),
    pytest.param(
        "373d691bfc38b894144385101628de34248dbf646459f36c52fa727b02381e44",
        (
            "spectrum", "--epsilon", "0.6", "--beta", "0.9", "--eta2", "0.97",
            "--omega-stop", "25", "--format", "json",
        ),
        id="spectrum-lossy-eta2-json-251-rows",
    ),
    pytest.param(
        "f3458dc6913338191d0b14f9d6b0bc18f6a83349fda24b307486dd95faa0c60c",
        (
            "spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "60", "--omega-step", "0.25", "--format", "json",
        ),
        id="spectrum-physical-json-241-rows",
    ),
    pytest.param(
        "9a3e23c908bfd64f1fd023bdc0a6839089be369bb0098515f8b00c7b44466f88",
        ("spectrum", "--epsilon", "1", "--gain", "fixed:0.8", "--omega-stop", "20"),
        id="spectrum-threshold-fixed-gain-201-rows",
        marks=pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning"),
    ),
    pytest.param(
        "bb83489c56247496e313cdb10cd971b7d1fd3bbb0782d4021c90af8b4e854546",
        ("swap-spectrum", "--epsilon", "0.4", "--omega-stop", "30", "--format", "json"),
        id="swap-optimal-json-301-rows",
    ),
    pytest.param(
        "9de4ac4ebf1ded274b14614ec3850bcc64e4298dfe818ffddaf4166862b2f550",
        ("swap-spectrum", "--epsilon", "0.5", "--beta", "0.8", "--omega-stop", "20"),
        id="swap-lossy-201-rows",
    ),
    pytest.param(
        "cd8a515f8ed232df3607cd7b407aad6efbabd80115791b8eb758871047322d22",
        (
            "swap-spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "60", "--omega-step", "0.25",
        ),
        id="swap-physical-241-rows",
    ),
    pytest.param(
        "6df8a3fda4b9fd0612ab4adef79d7134518bdec5e9531b3601b37b35f916fdd5",
        ("swap-spectrum", "--epsilon", "1", "--omega-stop", "20", "--format", "json"),
        id="swap-threshold-json-201-rows",
    ),
]


@pytest.mark.parametrize("digest, args", STDOUT_SHA256)
def test_stdout_is_byte_stable(capsys, digest, args):
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes_and_writes_report(capsys, tmp_path):
    report_path = tmp_path / "oracle.json"
    code, out, _ = invoke(
        capsys,
        "oracle-check", "--epsilon", "0.5", "--omega", "1",
        "--samples", "2000", "--seed", "3", "--output", str(report_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["mc"]["all_ok"] is True
    assert all(row["ok"] for row in payload["gaussian"])
    names = [row["name"] for row in payload["mc"]["rows"]]
    assert "x_err" in names and "x_out*x_in" in names
    assert report_path.read_text() == out


def test_oracle_check_squeezed_input_passes(capsys):
    code, out, _ = invoke(
        capsys,
        "oracle-check", "--epsilon", "0.5", "--omega", "1",
        "--input", "squeezed:2", "--samples", "100000",
    )
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_oracle_check_rejects_infinite_output_variance(capsys):
    # At threshold a nonunit gain leaves the output variance infinite, so
    # there is nothing to sample; the gain is the offending flag.
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "1", "--gain", "fixed:0.5", "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain:")


@pytest.mark.parametrize("gain", ["fixed:1e154", "fixed:1e200"])
def test_oracle_check_rejects_a_gain_that_overflows_the_output(capsys, gain):
    # |gain * amplitude|^2 passes the float range: an infinite variance, not
    # an OverflowError from the square.
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--gain", gain, "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: the teleported output variance is infinite")
    assert "very large gain" in err


def test_oracle_check_rejects_a_gain_that_overflows_the_moment_sums(capsys):
    # The output variance (5.56e300) is finite, but the squares of its
    # samples are not: the Monte-Carlo rows would read nan and fail (exit 2).
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--gain", "fixed:1e150", "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: the teleported output variance 5.55555555556e+300")


def test_oracle_check_just_under_the_variance_limit_passes(capsys):
    # fixed:4e73 gives an output variance of 8.9e147, under the 1e148 limit.
    code, out, _ = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--gain", "fixed:4e73", "--samples", "1000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert 8e147 < report["mc"]["rows"][0]["analytic"] < 1e148


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--epsilon", "1", "--gain", "fixed:1e300"),
        ("spectrum", "--epsilon", "1", "--eta2", "0.5", "--gain", "fixed:1e160"),
        ("swap-spectrum", "--epsilon", "1", "--gain", "fixed:1e300"),
        (
            "swap-spectrum", "--epsilon", "1", "--gain", "fixed:1e300",
            "--omega-start", "1e-8", "--omega-step", "1",
        ),
        (
            "oracle-check", "--epsilon", "0.5", "--gain", "fixed:0",
            "--input", "squeezed:1e80", "--samples", "1000",
        ),
        ("oracle-check", "--epsilon", "0.5", "--input", "squeezed:1e153", "--samples", "1000"),
    ],
)
def test_edge_inputs_give_a_table_or_name_a_flag(capsys, args):
    # Inputs that once failed deep in the numerics (exit 2): each either
    # prints a valid table or is a configuration error naming one of its
    # flags.  A leaked RuntimeWarning fails the test through pytest's filter.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        code, out, err = invoke(capsys, *args)
    assert code in (0, 1), err
    if code == 1:
        assert out == ""
        assert err.split(":")[1].strip() in args, err
        return
    header, *rows = out.splitlines()
    assert header == HEADER and rows
    for row in rows:
        assert 0.0 <= float(row.split(",")[3]) <= 1.0, row


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--format", "xml", "--gnuplot"), "error: --format: expected csv or json, got 'xml'"),
        (("--gnuplot",), "error: --gnuplot needs --output and csv format"),
    ],
)
def test_bandwidth_checks_the_sweep_output_flags(capsys, flags, message):
    # bandwidth takes the sweep's output flags; a bad one is an error there too.
    code, out, err = invoke(capsys, "bandwidth", "--epsilon", "0.5", *flags)
    assert (code, out) == (1, "")
    assert err.startswith(message)


def test_oracle_check_at_threshold_with_unit_gain_passes(capsys):
    code, out, _ = invoke(capsys, "oracle-check", "--epsilon", "1", "--samples", "2000")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


# ---------------------------------------------------------------------------
# argument parsing


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--epsilon", "0.5", "--omega-stop", "0.2"),
        ("point", "--eps", "0.5", "--omega=1"),  # abbreviated and joined flags
        ("spectrum", "--bogus"),
        ("spectrum", "--epsilon", "0.5", "stray"),
        ("spectrum", "--epsilon"),
        ("spectrum", "--epsilon", "0.5", "--", "--omega-stop", "1"),
        ("point", "--epsilon", "0.5", "--gnuplot"),  # a sweep flag on point
        ("bandwidth", "--epsilon", "0.5", "--pipeline"),
        ("spectrum", "-h"),
        ("oracle-check", "--help"),
    ],
)
def test_commands_parse_alike_on_both_routes(capsys, monkeypatch, args):
    # run() hands a command's flags straight to its own parser; the
    # top-level parser would hand them to the same one.  Output, error
    # text and exit code must not tell the routes apart.
    def outcome():
        try:
            code = run(list(args))
        except SystemExit as exc:  # -h prints the help and exits
            code = ("exit", exc.code)
        return (code, *capsys.readouterr())

    direct = outcome()
    # No command parser to go straight to: everything takes the top level.
    parser, _ = cli._parsers()
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    assert outcome() == direct


def test_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["-h"])
    assert exc.value.code == 0
    assert "swap-spectrum" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# python -m cvteleport


def test_runs_in_one_process_share_no_flags(capsys):
    # The parser is built once per process; a flag of one run must not
    # reach the next.
    argv = ["point", "--epsilon", "0.5"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "cvteleport", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    code, _, _ = invoke(capsys, "spectrum", "--epsilon", "0.5", "--beta", "0.8", "--eta2", "0.9")
    assert code == 0
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == fresh.stdout


def test_module_entry_point_matches_run(capsys):
    argv = ["point", "--epsilon", "0.5"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cvteleport", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert proc.stdout == out
