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
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from ._text import write_json
from .criteria import SpectrumTable, bandwidth, evaluate_criteria, fidelity_spectrum, teleport_fidelity
from .epr import LosslessNopa, LossyNopa, NopaParams, SqueezerSpectrum
from .linmode import Axis, InputModel, combine, normalized_variance, unit_input
from .oracle import McConfig, covariance_teleport, fidelity_to_coherent, mc_check
from .swap import SwapConfig, swap_spectrum
from .teleport import BellDetector, GainSchedule, teleport, teleport_single_mode

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


def _add_source_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", help="dimensionless pump parameter in [0, 1]")
    p.add_argument("--kappa", help="parametric gain rate (physical units)")
    p.add_argument("--gamma", help="output coupling rate (physical units)")
    p.add_argument("--rho", help="intracavity loss rate (default 0)")
    p.add_argument("--beta", help="cavity escape efficiency in (0, 1] (default 1)")
    p.add_argument("--eta2", help="detector intensity efficiency in (0, 1] (default 1)")
    p.add_argument("--gain", help="unit | fixed:<value> | optimal-swap")
    p.add_argument("--input", help="coherent | squeezed:<s>")
    p.add_argument("--config", help="key=value file; flags override it")


def _add_sweep_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-start", dest="omega_start", help="sweep start (default 0)")
    p.add_argument("--omega-stop", dest="omega_stop", help="sweep stop (default 5)")
    p.add_argument("--omega-step", dest="omega_step", help="sweep step (default 0.1)")
    _add_output_opts(p)


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write to this path instead of stdout")
    p.add_argument("--format", help="csv | json (default csv)")
    p.add_argument(
        "--gnuplot",
        action="store_const",
        const="1",
        help="also write a plotting script next to the CSV (needs --output)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvteleport", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="teleportation variance and fidelity sweep")
    _add_source_opts(p)
    _add_sweep_opts(p)

    p = sub.add_parser("swap-spectrum", help="entanglement-swapping fidelity sweep")
    _add_source_opts(p)
    _add_sweep_opts(p)

    p = sub.add_parser("point", help="variances and fidelity at one frequency")
    _add_source_opts(p)
    p.add_argument("--omega", help="evaluation frequency (default 0)")

    p = sub.add_parser("bandwidth", help="width of the above-threshold fidelity region")
    _add_source_opts(p)
    _add_sweep_opts(p)
    p.add_argument("--threshold", help="fidelity threshold (default 0.51)")
    p.add_argument("--pipeline", help="teleport | swap (default teleport)")

    p = sub.add_parser("criteria", help="full classical-vs-quantum report")
    _add_source_opts(p)
    p.add_argument("--omega", help="evaluation frequency (default 0)")

    p = sub.add_parser("oracle-check", help="run the validation suites")
    _add_source_opts(p)
    p.add_argument("--omega", help="evaluation frequency (default 0)")
    p.add_argument("--samples", help="Monte-Carlo sample count (default 1000000)")
    p.add_argument("--seed", help="Monte-Carlo seed (default 0)")
    p.add_argument("--output", help="write the JSON report to this path")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # Built on the first run(), not at import, then reused: each
    # parse_args() call starts from a fresh namespace, so no flag carries
    # over from one run() to the next.
    return build_parser()


def _merge_config(ns: argparse.Namespace) -> dict:
    """Flags first, then config file entries, then hard defaults."""
    values = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    path = getattr(ns, "config", None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise _ConfigError(f"cannot read config file: {exc}") from None
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
    for key, default in _DEFAULTS.items():
        if key in values and values[key] is None:
            values[key] = default
    return values


def _resolve_source(v: dict) -> tuple[SqueezerSpectrum, float]:
    """Build the squeezing source; returns (source, frequency scale).

    The scale maps user frequencies to dimensionless ones: 1 for the
    --epsilon route, 2/(gamma+rho) for physical rates.
    """
    physical = any(v.get(k) is not None for k in ("kappa", "gamma"))
    if v.get("epsilon") is not None and physical:
        raise _ConfigError("give either --epsilon or --kappa/--gamma, not both")
    try:
        if physical:
            if v.get("kappa") is None or v.get("gamma") is None:
                raise _ConfigError("physical rates need both --kappa and --gamma")
            if v.get("beta") not in (None, "1"):
                raise _ConfigError("--beta is implied by --gamma and --rho")
            params = NopaParams(
                _float("--kappa", v["kappa"]),
                _float("--gamma", v["gamma"]),
                _float("--rho", v["rho"]),
            )
            scale = 2.0 / params.total_rate
            if params.rho == 0:
                return LosslessNopa.from_rates(params), scale
            return LossyNopa.from_rates(params), scale
        if v.get("epsilon") is None:
            raise _ConfigError("a source is required: --epsilon or --kappa/--gamma")
        epsilon = _float("--epsilon", v["epsilon"])
        beta = _float("--beta", v["beta"])
        if beta == 1.0:
            return LosslessNopa(epsilon), 1.0
        return LossyNopa(epsilon, beta), 1.0
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _resolve_detector(v: dict) -> BellDetector:
    try:
        return BellDetector.from_efficiency(_float("--eta2", v["eta2"]))
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _resolve_gain(v: dict, for_swap: bool) -> "GainSchedule | None":
    """None means per-frequency optimal swap gain (swap commands only)."""
    raw = v.get("gain")
    if raw is None:
        return None if for_swap else GainSchedule.unit()
    if raw == "unit":
        return GainSchedule.unit()
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
        return InputModel.coherent()
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
        raise _ConfigError(f"--omega-step: the grid would exceed {_MAX_GRID_ROWS} rows")
    return start + np.arange(int(span) + 1) * step


def _write(path: str, text: str) -> None:
    """Write one --output file (or the plotting script beside it)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit_table(table: SpectrumTable, v: dict) -> None:
    fmt = v["format"]
    if fmt not in ("csv", "json"):
        raise _ConfigError(f"--format: expected csv or json, got {fmt!r}")
    out = v.get("output")
    if v.get("gnuplot"):
        if out is None or fmt != "csv":
            raise _ConfigError("--gnuplot needs --output and csv format")
    text = table.to_csv() if fmt == "csv" else table.to_json()
    if out is None:
        sys.stdout.write(text)
        return
    _write(out, text)
    if v.get("gnuplot"):
        _write(
            os.path.splitext(out)[0] + ".gp",
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'omega'\n"
            "set yrange [0:1]\n"
            f"plot '{os.path.basename(out)}' using 1:4 with lines title 'fidelity'\n",
        )


def _reindex(table: SpectrumTable, user_grid: np.ndarray, scale: float) -> SpectrumTable:
    # Report frequencies in the units the user supplied them in.
    if scale == 1.0:
        return table
    return SpectrumTable(user_grid, table.v_x, table.v_p, table.fidelity)


def _table(v: dict, pipeline: str, point: bool = False) -> tuple[SpectrumTable, np.ndarray, float]:
    """(table, user-unit grid, scale) on the sweep grid, or at --omega if point.

    The table has dimensionless frequencies and keeps its evaluator.
    """
    src, scale = _resolve_source(v)
    user = np.array([_float("--omega", v["omega"])]) if point else _resolve_grid(v)
    grid = user * scale
    if pipeline == "teleport":
        table = fidelity_spectrum(
            src,
            grid,
            gain=_resolve_gain(v, for_swap=False),
            detector=_resolve_detector(v),
            in_model=_resolve_input(v),
        )
    elif pipeline == "swap":
        # Swapping verifies with a coherent input on ideal detectors.
        if _float("--eta2", v["eta2"]) != 1.0:
            raise _ConfigError("--eta2 does not apply to the swap pipeline")
        if v["input"] != "coherent":
            raise _ConfigError("--input does not apply to the swap pipeline")
        table = swap_spectrum(SwapConfig(src, gain=_resolve_gain(v, for_swap=True)), grid)
    else:
        raise _ConfigError(f"--pipeline: expected teleport or swap, got {pipeline!r}")
    return table, user, scale


def _cmd_spectrum(v: dict, pipeline: str) -> int:
    table, user, scale = _table(v, pipeline)
    _emit_table(_reindex(table, user, scale), v)
    return 0


def _cmd_point(v: dict) -> int:
    table, user, scale = _table(v, "teleport", point=True)
    sys.stdout.write(_reindex(table, user, scale).to_csv())
    return 0


def _cmd_bandwidth(v: dict) -> int:
    threshold = _float("--threshold", v["threshold"])
    table, _, scale = _table(v, v["pipeline"])
    # A fidelity that never drops below the threshold prints inf.
    sys.stdout.write(f"{bandwidth(table, threshold) / scale:.12g}\n")
    return 0


def _cmd_criteria(v: dict) -> int:
    src, scale = _resolve_source(v)
    omega = _float("--omega", v["omega"])
    report = evaluate_criteria(
        src,
        omega * scale,
        gain=_resolve_gain(v, for_swap=False),
        detector=_resolve_detector(v),
        in_model=_resolve_input(v),
    )
    if scale != 1.0:
        report = dataclasses.replace(report, omega=omega)
    sys.stdout.write(report.to_json())
    return 0


_GAUSS_POINTS = ((0.0, 1.0, 0j), (1.0, 1.0, 3 + 4j), (0.7, 1.6, 1 - 2j), (2.0, 0.5, -1 + 1j))


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
    out = teleport(src, schedule, detector, omega)
    # At threshold only unit gain keeps the output finite; an infinite
    # variance would turn every Monte-Carlo estimate into nan.
    if not all(
        math.isfinite(normalized_variance(e, model, axis))
        for e, axis in ((out.x_tel, Axis.X), (out.p_tel, Axis.P))
    ):
        raise _ConfigError(
            "--gain: the teleported output variance is infinite at this frequency; "
            "a source at threshold needs unit gain"
        )
    entries = [
        ("x_out", out.x_tel, Axis.X),
        ("p_out", out.p_tel, Axis.P),
        ("x_err", combine(out.x_tel, unit_input(), 1.0, -1.0), Axis.X),
        ("p_err", combine(out.p_tel, unit_input(), 1.0, -1.0), Axis.P),
        ("x_in", unit_input(), Axis.X),
    ]
    report = mc_check(entries, model, cfg, pairs=(("x_out", "x_in"),))
    gauss_rows = []
    gauss_ok = True
    for r, g, alpha in _GAUSS_POINTS:
        state = covariance_teleport(r, g, alpha)
        est = fidelity_to_coherent(state, alpha)
        ana = teleport_fidelity(teleport_single_mode(r, g), alpha=alpha).fidelity
        ok = abs(est - ana) <= 1e-9
        gauss_ok = gauss_ok and ok
        gauss_rows.append(
            {"name": f"fidelity(r={r:g},gain={g:g})", "analytic": ana, "estimate": est, "ok": ok}
        )
    all_ok = report.all_ok and gauss_ok
    text = write_json({"mc": json.loads(report.to_json()), "gaussian": gauss_rows, "all_ok": all_ok})
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
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
        values = _merge_config(ns)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[ns.command](values)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: IO, numerics, assertions
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
