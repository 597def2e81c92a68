"""Seeded workload generators: each op is a cvteleport argv plus its checker.

The seed picks only continuous parameters (epsilon, beta, eta^2, rates,
frequencies, thresholds, Monte-Carlo seeds).  The mix of commands, source
kinds, grid sizes and output formats is fixed per workload, so every seed
asks for the same amount of work and runs of different seeds are
comparable.  Every generated input is valid: no op is expected to fail.

No call uses --threads: the sweep thread pool is due to be removed, and a
call must not start failing when it is.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

WORKLOADS = ("sweep", "scan", "validate")
MC_SAMPLES = 1_000_000  # oracle-check default
BANDWIDTH_GRID_ROWS = 51  # default --omega-stop 5, --omega-step 0.1
SCAN_OPS = 220
THRESHOLD_MARGIN = 0.02  # F(0) stays this far above a bandwidth threshold


@dataclass(frozen=True)
class Source:
    """A squeezing source: its CLI flags and the parameters they imply."""

    flags: tuple[str, ...]
    eps: float
    beta: float
    scale: float  # user frequency -> dimensionless frequency


@dataclass(frozen=True)
class Op:
    """One CLI call and how to check what it printed or wrote."""

    command: str
    argv: tuple[str, ...]
    rows: int  # frequency rows the call asks for
    work: int  # units counted by work_per_s: rows, ops or MC samples
    swap: bool  # runs the swapping pipeline
    output: str | None  # file named by --output, else stdout is checked
    check: Callable[[str], None]  # raises reference.Mismatch


def _num(x: float) -> str:
    return f"{x:.6g}"


def _source(rng: random.Random, kind: str) -> Source:
    eps = float(_num(rng.uniform(0.2, 0.9)))
    if kind == "lossless":
        return Source(("--epsilon", _num(eps)), eps, 1.0, 1.0)
    if kind == "lossy":
        beta = float(_num(rng.uniform(0.7, 0.97)))
        return Source(("--epsilon", _num(eps), "--beta", _num(beta)), eps, beta, 1.0)
    # Physical rates: every frequency flag and emitted frequency is in these
    # units, scaled by 2/(gamma+rho) inside the program.
    gamma = float(_num(rng.uniform(1.0, 5.0)))
    rho = float(_num(gamma * rng.uniform(0.05, 0.3))) if kind == "physical-lossy" else 0.0
    total = gamma + rho
    kappa = float(_num(eps * total / 2.0))
    flags = ("--kappa", _num(kappa), "--gamma", _num(gamma))
    if rho:
        flags += ("--rho", _num(rho))
    return Source(flags, 2.0 * kappa / total, gamma / total, 2.0 / total)


def _eta2(rng: random.Random) -> float:
    return float(_num(rng.uniform(0.85, 0.99)))


def _grid(rng: random.Random, src: Source, rows: int) -> tuple[float, float, str]:
    """(start, step, stop flag) in user units giving exactly `rows` rows."""
    start = float(_num(rng.uniform(0.0, 1.0) / src.scale))
    step = float(_num(rng.uniform(0.002, 0.01) / src.scale))
    stop = start + (rows - 1) * step
    if int((stop - start) / step + 1e-9) + 1 != rows:
        raise RuntimeError("grid flags do not reproduce the row count")
    return start, step, repr(stop)


def _table_check(
    src: Source, fmt: str, start: float, step: float, rows: int, row_ref
) -> Callable[[str], None]:
    def check(text: str) -> None:
        cols = ref.parse_table(text, fmt)
        if len(cols["omega"]) != rows:
            raise ref.Mismatch(f"expected {rows} rows, got {len(cols['omega'])}")
        for i in range(rows):
            w = start + i * step
            ref.expect(f"row {i} omega", cols["omega"][i], w)
            v, f = row_ref(w * src.scale)
            ref.expect(f"row {i} v_x", cols["v_x"][i], v)
            ref.expect(f"row {i} v_p", cols["v_p"][i], v)
            ref.expect(f"row {i} fidelity", cols["fidelity"][i], f)

    return check


def _teleport_row(src: Source, eta2: float):
    def row(w: float) -> tuple[float, float]:
        return (
            ref.teleport_variance(src.eps, src.beta, eta2, w),
            ref.teleport_fidelity(src.eps, src.beta, eta2, w),
        )

    return row


def _swap_row(src: Source, gain: float | None):
    def row(w: float) -> tuple[float, float]:
        v = ref.swap_variance(src.eps, src.beta, w, gain)
        return v, 2.0 / (2.0 + v)

    return row


# ---------------------------------------------------------------------------
# sweep: the per-row hot path, 13 calls and 20,720 rows per pass.  Call
# times are spread roughly geometrically, so the median and the 90th
# percentile of call latency fall inside one call's cluster, not on the
# boundary between two.

# (command, source kind, rows, format, via --output, detector eta^2 < 1, fixed gain)
_SWEEP = (
    ("spectrum", "lossless", 10000, "csv", False, False, False),
    ("spectrum", "lossy", 3200, "json", True, True, False),
    ("swap-spectrum", "lossy", 1200, "json", True, False, False),
    ("spectrum", "physical-lossy", 1800, "csv", True, True, False),
    ("swap-spectrum", "lossless", 1150, "csv", False, False, False),
    ("spectrum", "physical", 1050, "csv", False, False, False),
    ("swap-spectrum", "physical-lossy", 520, "csv", False, False, False),
    ("spectrum", "lossless", 450, "json", False, True, False),
    ("swap-spectrum", "lossless", 300, "csv", True, False, True),
    ("swap-spectrum", "physical", 250, "json", False, False, False),
    ("spectrum", "lossy", 300, "csv", False, False, False),
    ("swap-spectrum", "lossy", 200, "csv", False, False, True),
    ("spectrum", "physical-lossy", 300, "csv", False, False, False),
)


def _sweep(rng: random.Random, workdir: str, size: float) -> list[Op]:
    ops = []
    for i, (command, kind, rows, fmt, to_file, lossy_detector, fixed) in enumerate(_SWEEP):
        rows = max(2, int(rows * size))
        src = _source(rng, kind)
        start, step, stop = _grid(rng, src, rows)
        argv = [command, *src.flags, "--omega-start", _num(start), "--omega-step", _num(step)]
        argv += ["--omega-stop", stop, "--format", fmt]
        output = None
        if to_file:
            output = os.path.join(workdir, f"sweep{i}.{fmt}")
            argv += ["--output", output]
        if command == "spectrum":
            eta2 = _eta2(rng) if lossy_detector else 1.0
            if lossy_detector:
                argv += ["--eta2", _num(eta2)]
            row_ref = _teleport_row(src, eta2)
        else:
            gain = float(_num(rng.uniform(0.3, 0.95))) if fixed else None
            if fixed:
                argv += ["--gain", f"fixed:{_num(gain)}"]
            row_ref = _swap_row(src, gain)
        check = _table_check(src, fmt, start, step, rows, row_ref)
        ops.append(Op(command, tuple(argv), rows, rows, command == "swap-spectrum", output, check))
    return ops


# ---------------------------------------------------------------------------
# scan: single-point calls, where fixed per-call costs dominate.

# Three point and three criteria calls to every four bandwidth calls: the
# median call is a single-point one, well clear of the slower bandwidth
# calls that make the tail.  Each cycle of ten uses one source kind.
_SCAN_COMMANDS = (
    "point", "criteria", "bandwidth", "point", "criteria",
    "bandwidth-swap", "point", "criteria", "bandwidth", "bandwidth-swap",
)
_SCAN_SOURCES = ("lossless", "lossy", "physical-lossy", "physical")


def _point_op(rng: random.Random, src: Source, eta2: float) -> Op:
    w = float(_num(rng.uniform(0.0, 5.0) / src.scale))
    argv = ["point", *src.flags, "--omega", _num(w)]
    if eta2 < 1.0:
        argv += ["--eta2", _num(eta2)]
    check = _table_check(src, "csv", w, 1.0, 1, _teleport_row(src, eta2))
    return Op("point", tuple(argv), 1, 1, False, None, check)


def _criteria_op(rng: random.Random, src: Source, eta2: float) -> Op:
    w = float(_num(rng.uniform(0.0, 5.0) / src.scale))
    argv = ["criteria", *src.flags, "--omega", _num(w)]
    if eta2 < 1.0:
        argv += ["--eta2", _num(eta2)]
    v = ref.teleport_variance(src.eps, src.beta, eta2, w * src.scale)
    f = ref.teleport_fidelity(src.eps, src.beta, eta2, w * src.scale)
    # Unit gain on a coherent input: V_out = 1 + V, V_c = V, T = 1/(1 + V).
    want = {
        "omega": w,
        "eta": eta2 ** 0.5,
        "v_x": v,
        "v_p": v,
        "v_out_x": 1.0 + v,
        "v_out_p": 1.0 + v,
        "v_c_x": v,
        "v_c_p": v,
        "t_x": 1.0 / (1.0 + v),
        "t_p": 1.0 / (1.0 + v),
        "fidelity": f,
        "out_product_limit": 9.0,
    }
    verdicts = {
        "variance_product": (v * v, 4.0, "<"),
        "variance_sum": (2.0 * v, 4.0, "<"),
        "output_product": ((1.0 + v) ** 2, 9.0, "<"),
        "conditional_sum": (2.0 * v, 2.0, "<"),
        "transfer_sum": (2.0 / (1.0 + v), 1.0, ">"),
        "fidelity": (f, 0.5, ">"),
    }

    def check(text: str) -> None:
        report = json.loads(text)
        for key, value in want.items():
            ref.expect(key, float(report[key]), value)
        if report["gain"] != 1.0:
            raise ref.Mismatch(f"gain: got {report['gain']!r}, reference 1.0")
        for name, (value, bound, side) in verdicts.items():
            if ref.close(value, bound):
                continue  # too close to the boundary to judge
            beaten = value < bound if side == "<" else value > bound
            if report["verdicts"][name] is not beaten:
                raise ref.Mismatch(f"verdict {name}: got {report['verdicts'][name]!r}")

    return Op("criteria", tuple(argv), 1, 1, False, None, check)


def _bandwidth_op(rng: random.Random, kind: str, swap: bool) -> Op:
    while True:  # redraw until the width is well defined and nonzero
        src = _source(rng, kind)
        eta2 = 1.0 if swap or kind in ("lossless", "physical") else _eta2(rng)
        threshold = float(_num(rng.uniform(0.51, 0.6)))
        if swap:
            f0 = ref.swap_fidelity(src.eps, src.beta, 0.0)
        else:
            f0 = ref.teleport_fidelity(src.eps, src.beta, eta2, 0.0)
        if f0 >= threshold + THRESHOLD_MARGIN:
            break
    argv = ["bandwidth", *src.flags, "--threshold", _num(threshold)]
    if swap:
        argv += ["--pipeline", "swap"]
        width = ref.swap_bandwidth(src.eps, src.beta, threshold)
    else:
        if eta2 < 1.0:
            argv += ["--eta2", _num(eta2)]
        width = ref.teleport_bandwidth(src.eps, src.beta, eta2, threshold)
    user_width = width / src.scale
    tol = ref.WIDTH_TOL / src.scale

    def check(text: str) -> None:
        ref.expect("bandwidth", ref.last_value(text), user_width, abs_tol=tol)

    return Op("bandwidth", tuple(argv), BANDWIDTH_GRID_ROWS, 1, swap, None, check)


def _scan(rng: random.Random, workdir: str, size: float) -> list[Op]:
    ops = []
    # At least one call of each command on each source kind.
    for i in range(max(40, int(SCAN_OPS * size))):
        command = _SCAN_COMMANDS[i % 10]
        kind = _SCAN_SOURCES[(i // 10) % 4]
        if command.startswith("bandwidth"):
            ops.append(_bandwidth_op(rng, kind, swap=command == "bandwidth-swap"))
            continue
        src = _source(rng, kind)
        eta2 = _eta2(rng) if kind in ("lossy", "physical-lossy") else 1.0
        make = _point_op if command == "point" else _criteria_op
        ops.append(make(rng, src, eta2))
    return ops


# ---------------------------------------------------------------------------
# validate: oracle-check at the default 10^6 Monte-Carlo samples.


def _oracle_op(rng: random.Random, kind: str, samples: int) -> Op:
    src = _source(rng, kind)
    eta2 = _eta2(rng) if kind != "lossless" else 1.0
    w = float(_num(rng.uniform(0.0, 3.0) / src.scale))
    argv = ["oracle-check", *src.flags, "--omega", _num(w), "--seed", str(rng.randrange(2**31))]
    if eta2 < 1.0:
        argv += ["--eta2", _num(eta2)]
    if samples != MC_SAMPLES:
        argv += ["--samples", str(samples)]
    v = ref.teleport_variance(src.eps, src.beta, eta2, w * src.scale)
    # Unit gain, coherent input: out = in + error, with error independent of in.
    want = {"x_out": 1.0 + v, "p_out": 1.0 + v, "x_err": v, "p_err": v, "x_in": 1.0, "x_out*x_in": 1.0}

    def check(text: str) -> None:
        payload = json.loads(text)
        if payload["all_ok"] is not True:
            raise ref.Mismatch("oracle-check reports a failed check")
        mc = payload["mc"]
        if mc["sample_count"] != samples:
            raise ref.Mismatch(f"sample_count {mc['sample_count']!r}")
        rows = {r["name"]: r for r in mc["rows"]}
        for name, value in want.items():
            ref.expect(f"mc {name}", float(rows[name]["analytic"]), value)
            if rows[name]["ok"] is not True:
                raise ref.Mismatch(f"mc {name} outside five standard errors")
        if not payload["gaussian"] or not all(r["ok"] is True for r in payload["gaussian"]):
            raise ref.Mismatch("covariance route disagrees")

    return Op("oracle-check", tuple(argv), 1, samples, False, None, check)


def _validate(rng: random.Random, workdir: str, size: float) -> list[Op]:
    samples = max(1000, int(MC_SAMPLES * size))  # oracle-check's floor is 1000
    return [_oracle_op(rng, kind, samples) for kind in ("lossless", "lossy", "physical-lossy")]


def generate(workload: str, seed: int, workdir: str, size: float = 1.0) -> list[Op]:
    """The op list of one pass of a workload; same seed, same ops.

    size scales grid rows, call count and Monte-Carlo samples down for the
    self-check; the benchmark always runs at size 1.
    """
    make = {"sweep": _sweep, "scan": _scan, "validate": _validate}[workload]
    return make(random.Random(f"{workload}:{seed}"), workdir, size)
