"""Command-line front end.

Subcommands: spectrum, swap-spectrum, point, bandwidth, criteria,
oracle-check.  Sources are given either dimensionless (--epsilon, --beta)
or as physical cavity rates (--kappa, --gamma, --rho); with physical rates
every frequency option and emitted frequency is physical too, converted
internally via omega = 2*Omega/(gamma+rho).  Detector efficiency is quoted
as the intensity value --eta2 and stored as amplitude.

Exit codes: 0 success, 1 configuration error, 2 runtime error (including a
failed oracle check).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from ._text import format_number, write_json
from .criteria import (
    OMEGA_LIMIT, SpectrumTable, _sweep, bandwidth, evaluate_criteria, teleport_fidelity
)
from .epr import Nopa, NopaParams, SqueezerSpectrum, ZeroBandwidth
from .linmode import Axis, InputModel, combine, normalized_variance, unit_input
from .oracle import McConfig, covariance_teleport, fidelity_to_coherent, mc_check
from .swap import SwapConfig, _swept
from .teleport import (
    _COHERENT, _IDEAL_DETECTOR, _UNIT_GAIN, BellDetector, GainSchedule, TeleportOutcome, teleport
)

__all__ = ["main", "run"]


class _ConfigError(Exception):
    """Invalid flags, config file entries, or parameter values."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; our contract reserves 2
    # for runtime failures, so turn usage problems into config errors.
    def error(self, message: str):
        raise _ConfigError(message)


def _float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _ConfigError(f"{name}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise _ConfigError(f"{name}: expected a finite number, got {raw!r}")
    return value


def _int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _ConfigError(f"{name}: expected an integer, got {raw!r}") from None


# Every option parses as text first so values from --config files and from
# flags go through the identical conversion and validation path.
_DEFAULTS = {
    "rho": "0",
    "beta": "1",
    "eta2": "1",
    "input": "coherent",
    "omega": "0",
    "omega_start": "0",
    "omega_stop": "5",
    "omega_step": "0.1",
    "threshold": "0.51",
    "pipeline": "teleport",
    "format": "csv",
    "samples": "1000000",
    "seed": "0",
}


# Each command's help line and options, declared once: _parser() and the
# plain route in run() both read this table.  An option stores its text
# under its flag's name (--omega-start: omega_start); a switch takes no
# value and stores "1".
_SOURCE_OPTS = (
    ("--epsilon", "dimensionless pump parameter in [0, 1]"),
    ("--kappa", "parametric gain rate (physical units)"),
    ("--gamma", "output coupling rate (physical units)"),
    ("--rho", "intracavity loss rate (default 0)"),
    ("--beta", "cavity escape efficiency in (0, 1] (default 1)"),
    ("--eta2", "detector intensity efficiency in (0, 1] (default 1)"),
    ("--gain", "unit | fixed:<value> | optimal-swap"),
    ("--input", "coherent | squeezed:<s>"),
    ("--config", "key=value file; flags override it"),
)
_GRID_OPTS = (
    ("--omega-start", "sweep start (default 0)"),
    ("--omega-stop", "sweep stop (default 5)"),
    ("--omega-step", "sweep step (default 0.1)"),
)
_OUTPUT_OPTS = (
    ("--output", "write to this path instead of stdout"),
    ("--format", "csv | json (default csv)"),
    ("--gnuplot", "also write a plotting script next to the CSV (needs --output)"),
)
_SWITCHES = frozenset({"--gnuplot"})
_SWEEP_OPTS = _SOURCE_OPTS + _GRID_OPTS + _OUTPUT_OPTS
_POINT_OPTS = _SOURCE_OPTS + (("--omega", "evaluation frequency (default 0)"),)

_OPTIONS = {
    "spectrum": ("teleportation variance and fidelity sweep", _SWEEP_OPTS),
    "swap-spectrum": ("entanglement-swapping fidelity sweep", _SWEEP_OPTS),
    "point": ("variances and fidelity at one frequency", _POINT_OPTS),
    "bandwidth": ("width of the above-threshold fidelity region", _SOURCE_OPTS + _GRID_OPTS + (
        ("--threshold", "fidelity threshold (default 0.51)"),
        ("--pipeline", "teleport | swap (default teleport)"),
    )),
    "criteria": ("full classical-vs-quantum report", _POINT_OPTS),
    "oracle-check": ("run the validation suites", _POINT_OPTS + (
        ("--samples", "Monte-Carlo sample count (default 1000000)"),
        ("--seed", "Monte-Carlo seed (default 0)"),
        ("--output", "write the JSON report to this path"),
    )),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The top-level parser, with one subparser per command.

    Built on the first run() that needs it, not at import, then reused:
    each parse_args() call starts from a fresh namespace, so no flag
    carries over from one run() to the next.
    """
    parser = _Parser(prog="cvteleport", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _OPTIONS.items():
        p = sub.add_parser(name, help=summary)
        for flag, text in options:
            if flag in _SWITCHES:
                p.add_argument(flag, dest=_dest(flag), action="store_const", const="1", help=text)
            else:
                p.add_argument(flag, dest=_dest(flag), help=text)
    return parser


# Per command: its unset values, and the dest of each flag taking a value.
_PLAIN_OPTIONS = {
    name: (
        {"command": name, **{_dest(flag): None for flag, _ in options}},
        {flag: _dest(flag) for flag, _ in options if flag not in _SWITCHES},
    )
    for name, (_, options) in _OPTIONS.items()
}


def _plain(args: list[str]) -> dict | None:
    """What argparse reads from a command and exact --flag value pairs, or None.

    argparse takes an exact option string followed by a token that does not
    start with "-" as that option and its value, and a repeated option keeps
    its last value.  Any other argv (help, abbreviated or joined flags, "--",
    a switch, a missing value, a value starting with "-", an unknown flag or
    command) returns None and is left to argparse and its messages.
    """
    if len(args) % 2 == 0 or args[0] not in _OPTIONS:
        return None
    unset, dests = _PLAIN_OPTIONS[args[0]]
    values = dict(unset)
    for flag, value in zip(args[1::2], args[2::2]):
        dest = dests.get(flag)
        if dest is None or value.startswith("-"):
            return None
        values[dest] = value
    return values


def _merge_config(parsed: dict) -> dict:
    """Flags first, then config file entries, then hard defaults."""
    values = {k: v for k, v in parsed.items() if k not in ("command", "config")}
    path = parsed.get("config")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise _ConfigError(f"--config: cannot read config file: {exc}") from None
        for i, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            dest = key.strip().replace("-", "_")
            if dest not in values:
                raise _ConfigError(f"{path}:{i}: unknown option {key.strip()!r}")
            if values[dest] is None:
                values[dest] = val.strip()
    return {k: _DEFAULTS.get(k) if v is None else v for k, v in values.items()}


def _resolve_source(v: dict) -> tuple[SqueezerSpectrum, float]:
    """Build the squeezing source; returns (source, frequency scale).

    The scale maps user frequencies to dimensionless ones: 1 for the
    --epsilon route, 2/(gamma+rho) for physical rates.
    """
    physical = v.get("kappa") is not None or v.get("gamma") is not None
    if v.get("epsilon") is not None and physical:
        raise _ConfigError("give either --epsilon or --kappa/--gamma, not both")
    try:
        if physical:
            if v.get("kappa") is None or v.get("gamma") is None:
                raise _ConfigError("physical rates need both --kappa and --gamma")
            if _float("--beta", v["beta"]) != 1.0:
                raise _ConfigError("--beta is implied by --gamma and --rho")
            params = NopaParams(
                _float("--kappa", v["kappa"]),
                _float("--gamma", v["gamma"]),
                _float("--rho", v["rho"]),
            )
            return Nopa.from_rates(params), 2.0 / params.total_rate
        if v.get("epsilon") is None:
            raise _ConfigError("a source is required: --epsilon or --kappa/--gamma")
        return Nopa(_float("--epsilon", v["epsilon"]), _float("--beta", v["beta"])), 1.0
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _check_frequency(flag: str, omega: float, scale: float) -> None:
    """Reject a dimensionless frequency of magnitude above OMEGA_LIMIT.

    omega is the user's frequency times scale; a scale other than 1 comes
    from physical rates, which may take a small frequency past the limit.
    """
    # The sources square every frequency; past the limit the square nears
    # the float range and the spectra turn to nan.
    if abs(omega) > OMEGA_LIMIT:
        scaled = "" if scale == 1.0 else f"; --gamma and --rho scale it by {format_number(scale)}"
        raise _ConfigError(
            f"{flag}: frequencies of magnitude above {OMEGA_LIMIT:g} (dimensionless) "
            f"are out of range{scaled}"
        )


def _resolve_detector(v: dict) -> BellDetector:
    eta2 = _float("--eta2", v["eta2"])
    if eta2 == 1.0:
        return _IDEAL_DETECTOR
    try:
        return BellDetector.from_efficiency(eta2)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _resolve_gain(v: dict, for_swap: bool) -> "GainSchedule | None":
    """None means per-frequency optimal swap gain (swap commands only)."""
    raw = v.get("gain")
    if raw is None:
        return None if for_swap else _UNIT_GAIN
    if raw == "unit":
        return _UNIT_GAIN
    if raw == "optimal-swap":
        if not for_swap:
            raise _ConfigError("gain optimal-swap only applies to the swap pipeline")
        return None
    if raw.startswith("fixed:"):
        return GainSchedule.fixed(_float("--gain", raw[len("fixed:"):]))
    raise _ConfigError(f"--gain: expected unit, fixed:<value> or optimal-swap, got {raw!r}")


def _resolve_input(v: dict) -> InputModel:
    raw = v["input"]
    if raw == "coherent":
        return _COHERENT
    if raw.startswith("squeezed:"):
        try:
            return InputModel.squeezed(_float("--input", raw[len("squeezed:"):]))
        except ValueError as exc:
            raise _ConfigError(f"--input: {exc}") from None
    raise _ConfigError(f"--input: expected coherent or squeezed:<s>, got {raw!r}")


_MAX_GRID_ROWS = 10 ** 6  # a tiny --omega-step must not ask for an unbounded list


def _resolve_grid(v: dict) -> np.ndarray:
    """The sweep grid in user units."""
    start = _float("--omega-start", v["omega_start"])
    stop = _float("--omega-stop", v["omega_stop"])
    step = _float("--omega-step", v["omega_step"])
    if step <= 0:
        raise _ConfigError("--omega-step must be positive")
    if start < 0:
        raise _ConfigError("--omega-start must be nonnegative")
    if stop < start:
        raise _ConfigError("--omega-stop must not be below --omega-start")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_ROWS:
        raise _ConfigError(
            f"--omega-step: the grid would exceed {_MAX_GRID_ROWS} rows "
            "from --omega-start to --omega-stop"
        )
    return start + np.arange(int(span) + 1) * step


def _write(path: str, text: str) -> None:
    """Write one --output file (or the plotting script beside it)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit_table(table: SpectrumTable, v: dict) -> None:
    """Write the table as --format says, to --output or stdout."""
    fmt = v["format"]
    if fmt not in ("csv", "json"):
        raise _ConfigError(f"--format: expected csv or json, got {fmt!r}")
    out = v.get("output")
    # The flag stores "1"; a config file may also give 0 or nothing.
    gnuplot = v.get("gnuplot") or "0"
    if gnuplot not in ("0", "1"):
        raise _ConfigError(f"--gnuplot: expected 1 or 0, got {gnuplot!r}")
    if gnuplot == "1" and (out is None or fmt != "csv"):
        raise _ConfigError("--gnuplot needs --output and csv format")
    text = table.to_csv() if fmt == "csv" else table.to_json()
    if out is None:
        sys.stdout.write(text)
        return
    _write(out, text)
    if gnuplot == "1":
        _write(
            os.path.splitext(out)[0] + ".gp",
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'omega'\n"
            "set yrange [0:1]\n"
            f"plot '{os.path.basename(out)}' using 1:4 with lines title 'fidelity'\n",
        )


def _reindex(table: SpectrumTable, user: float | np.ndarray, scale: float) -> SpectrumTable:
    # Report frequencies in the units the user supplied them in.
    if scale == 1.0:
        return table
    return table._relabeled(user)


def _setting(v: dict) -> tuple[GainSchedule, BellDetector, InputModel]:
    """The teleport's (gain, detector, input), resolved in that order."""
    return _resolve_gain(v, for_swap=False), _resolve_detector(v), _resolve_input(v)


def _point(v: dict) -> tuple[SqueezerSpectrum, float, float, tuple]:
    """(source, scale, user-unit --omega, setting) of a one-frequency command."""
    src, scale = _resolve_source(v)
    omega = _float("--omega", v["omega"])
    _check_frequency("--omega", omega * scale, scale)
    return src, scale, omega, _setting(v)


def _table(
    v: dict, pipeline: str, threshold: float | None = None
) -> tuple[SpectrumTable, np.ndarray, float]:
    """(table, user-unit frequencies, scale) on the sweep grid.

    The table has dimensionless frequencies and keeps its evaluator; a
    threshold goes to the sweep, for a bandwidth() on the table.
    """
    src, scale = _resolve_source(v)
    user = _resolve_grid(v)
    _check_frequency("--omega-start", user[0] * scale, scale)
    _check_frequency("--omega-stop", user[-1] * scale, scale)
    grid = user * scale
    if pipeline == "teleport":
        table = _sweep(lambda w: src, grid, *_setting(v), threshold)
    elif pipeline == "swap":
        # Swapping verifies with a coherent input on ideal detectors, at
        # unit gain over the swapped pair whatever the swap gain.
        if _float("--eta2", v["eta2"]) != 1.0:
            raise _ConfigError("--eta2 does not apply to the swap pipeline")
        if v["input"] != "coherent":
            raise _ConfigError("--input does not apply to the swap pipeline")
        table = _swept(SwapConfig(src, gain=_resolve_gain(v, for_swap=True)), grid, threshold)
    else:
        raise _ConfigError(f"--pipeline: expected teleport or swap, got {pipeline!r}")
    return table, user, scale


def _cmd_spectrum(v: dict, pipeline: str) -> int:
    table, user, scale = _table(v, pipeline)
    _emit_table(_reindex(table, user, scale), v)
    return 0


def _cmd_point(v: dict) -> int:
    # A one-row table from one scalar kernel call.
    src, scale, omega, setting = _point(v)
    table = _sweep(lambda w: src, omega * scale, *setting)
    sys.stdout.write(_reindex(table, omega, scale).to_csv())
    return 0


def _cmd_bandwidth(v: dict) -> int:
    threshold = _float("--threshold", v["threshold"])
    table, _, scale = _table(v, v["pipeline"], threshold=threshold)
    # A fidelity that never drops below the threshold prints inf.
    sys.stdout.write(format_number(bandwidth(table, threshold) / scale) + "\n")
    return 0


def _cmd_criteria(v: dict) -> int:
    src, scale, omega, setting = _point(v)
    try:
        report = evaluate_criteria(src, omega * scale, *setting)
    except OverflowError as exc:  # the gain's signal term passes the float range
        raise _ConfigError(f"--gain: {exc}") from None
    if scale != 1.0:
        report = report._relabeled(omega)
    sys.stdout.write(report.to_json())
    return 0


# mc_check sums m^2 for each sampled moment m = a^2, a ~ N(0, V/4): at up
# to 1e8 samples (the --samples limit) the sum is about 3e8 (V/4)^2, and
# it must stay below the float range (1.8e308) with room for the tail of
# the draws: V <= 1e148 leaves a factor of more than 1e4.
_MC_VARIANCE_LIMIT = 1e148

_GAUSS_POINTS = ((0.0, 1.0, 0j), (1.0, 1.0, 3 + 4j), (0.7, 1.6, 1 - 2j), (2.0, 0.5, -1 + 1j))


def _check_moments(flag: str, what: str, variance: float) -> None:
    if variance > _MC_VARIANCE_LIMIT:
        raise _ConfigError(
            f"{flag}: the {what} variance {format_number(variance)} is past "
            f"{_MC_VARIANCE_LIMIT:g}, where the Monte-Carlo sums of squared moments overflow"
        )


def _mc_entries(out: TeleportOutcome) -> list:
    # The teleported quadratures, their errors and the input: all sampled.
    return [
        ("x_out", out.x_tel, Axis.X),
        ("p_out", out.p_tel, Axis.P),
        ("x_err", combine(out.x_tel, unit_input(), 1.0, -1.0), Axis.X),
        ("p_err", combine(out.p_tel, unit_input(), 1.0, -1.0), Axis.P),
        ("x_in", unit_input(), Axis.X),
    ]


def _largest_variance(entries: list, model: InputModel) -> float:
    return max(normalized_variance(e, model, axis) for _, e, axis in entries)


def _cmd_oracle_check(v: dict) -> int:
    src, scale = _resolve_source(v)
    omega = _float("--omega", v["omega"]) * scale
    detector = _resolve_detector(v)
    schedule = _resolve_gain(v, for_swap=False)
    model = _resolve_input(v)
    try:
        cfg = McConfig(_int("--samples", v["samples"]), _int("--seed", v["seed"]))
    except ValueError as exc:
        flag = "--seed" if str(exc).startswith("seed") else "--samples"
        raise _ConfigError(f"{flag}: {exc}") from None
    entries = _mc_entries(teleport(src, schedule, detector, omega))
    # Every entry is sampled: an infinite variance would turn its estimates
    # into nan, and a finite one past _MC_VARIANCE_LIMIT would overflow the
    # sums of squared moments.  The input's own variance is --input's to
    # answer for.  Past it, the detector noise is --eta2's when the same
    # teleport on ideal detectors stays within the limit; anything else is
    # the gain's: at threshold only unit gain keeps the output finite, and
    # a gain from about 1e154 on takes it past the float range.
    _check_moments("--input", "input", max(model.v_x, model.v_p))
    variance = _largest_variance(entries, model)
    if not variance <= _MC_VARIANCE_LIMIT:
        flag = "--gain"
        cause = "a source at threshold needs unit gain, and a very large gain overflows it"
        if detector.eta < 1.0:
            ideal = _mc_entries(teleport(src, schedule, _IDEAL_DETECTOR, omega))
            if _largest_variance(ideal, model) <= _MC_VARIANCE_LIMIT:
                flag, cause = "--eta2", "the detector noise (1 - eta^2)/eta^2 overflows it"
        if not math.isfinite(variance):
            raise _ConfigError(
                f"{flag}: the teleported output variance is infinite at this frequency; {cause}"
            )
        _check_moments(flag, "teleported output", variance)
    report = mc_check(entries, model, cfg, pairs=(("x_out", "x_in"),))
    gauss_rows = []
    gauss_ok = True
    for r, g, alpha in _GAUSS_POINTS:
        state = covariance_teleport(r, g, alpha)
        est = fidelity_to_coherent(state, alpha)
        ana = teleport_fidelity(teleport(ZeroBandwidth(r), g), alpha=alpha).fidelity
        ok = abs(est - ana) <= 1e-9
        gauss_ok = gauss_ok and ok
        gauss_rows.append(
            {"name": f"fidelity(r={r:g},gain={g:g})", "analytic": ana, "estimate": est, "ok": ok}
        )
    all_ok = report.all_ok and gauss_ok
    text = write_json({"mc": report.payload(), "gaussian": gauss_rows, "all_ok": all_ok})
    if v.get("output") is not None:
        _write(v["output"], text)
    sys.stdout.write(text)
    return 0 if all_ok else 2


_COMMANDS: dict[str, Callable[[dict], int]] = {
    "spectrum": functools.partial(_cmd_spectrum, pipeline="teleport"),
    "swap-spectrum": functools.partial(_cmd_spectrum, pipeline="swap"),
    "point": _cmd_point,
    "bandwidth": _cmd_bandwidth,
    "criteria": _cmd_criteria,
    "oracle-check": _cmd_oracle_check,
}


def run(argv: Sequence[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        parsed = _plain(args)
        if parsed is None:
            parsed = vars(_parser().parse_args(args))
        values = _merge_config(parsed)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[parsed["command"]](values)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: IO, numerics, assertions
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
