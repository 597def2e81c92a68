"""Machine-speed calibration, so times from a shared host are comparable.

On a shared machine the speed one thread gets drifts by up to 1.7x over
tens of seconds, as co-tenants load the same core.  Raw times then spread
by 30-40% between runs of identical code, far more than any change worth
detecting.  So every timed call is bracketed by runs of a fixed kernel and
its time is rescaled to the speed at which the kernel takes its reference
time:

    t_ref = t * ref_s / kernel_s

with kernel_s the mean of the kernel times measured just before and just
after the call.  The kernels are frozen benchmark code that shares nothing
with the program, so the rescaling cannot absorb a change in the program;
it removes only the machine's drift.  Three kernels track the kinds of
work the workloads do: interpreter-bound Python (a miniature sweep of
dict-built port expansions, fsum variances and CSV formatting) for sweep
and set-up; the same plus building an argument parser for scan, whose
short calls are dominated by per-call parsing; and the same plus numpy
sampling and reduction for validate.  On a 2-CPU shared host, over 30 s windows of a 4-minute run of
the sweep op list, the quartile spread of per-window median call times was
0.32 raw and 0.01 rescaled; for Monte-Carlo calls over 10 s windows, 0.19
raw and 0.03 rescaled.
"""

from __future__ import annotations

import argparse
import enum
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np


class _Axis(enum.Enum):
    X = "x"
    P = "p"


@dataclass(frozen=True)
class _Expansion:
    input_coeff: complex
    terms: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", {k: complex(v) for k, v in self.terms.items() if v != 0})


def _python_kernel(rng: np.random.Generator) -> str:
    """A miniature sweep: 40 rows of port expansions, fsum variances, CSV text."""
    h = math.sqrt(0.5)
    lines = []
    for i in range(40):
        w = 0.05 * i
        quiet = complex(0.4, w) / complex(1.6, -w)
        noisy = complex(1.6, w) / complex(0.4, -w)
        x: dict = {}
        p: dict = {}
        for label, axis, amp, first, second in (
            ("b1", _Axis.X, noisy, h, h),
            ("b2", _Axis.X, quiet, h, -h),
            ("b1", _Axis.P, quiet, h, h),
            ("b2", _Axis.P, noisy, h, -h),
        ):
            target = x if axis is _Axis.X else p
            weight = second - first
            target[(label, axis)] = target.get((label, axis), 0j) + (0j if weight == 0 else weight * amp)
        v = [
            math.fsum([abs(e.terms[k]) ** 2 for k in sorted(e.terms, key=lambda k: (k[0], k[1].value))])
            for e in (_Expansion(1.0, x), _Expansion(1.0, p))
        ]
        f = 1.0 / math.sqrt((v[0] + 2.0) * (v[1] + 2.0))
        lines.append(",".join(f"{t:.12g}" for t in (w, v[0], v[1], f)))
    return "\n".join(lines)


def _cli_kernel(rng: np.random.Generator) -> dict:
    """The Python kernel plus building an argument parser and parsing a command."""
    _python_kernel(rng)
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("first", "second", "third"):
        p = sub.add_parser(name, help="a subcommand")
        for opt in ("--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--zeta"):
            p.add_argument(opt, help="a value")
    return vars(parser.parse_args(["second", "--alpha", "0.5", "--gamma", "2"]))


def _numpy_kernel(rng: np.random.Generator) -> float:
    """The Python kernel plus Monte-Carlo style sampling and reduction."""
    _python_kernel(rng)
    a = rng.normal(0.0, 1.0, 1 << 15) + 1j * rng.normal(0.0, 1.0, 1 << 15)
    return math.fsum((a.real * a.real).tolist())


# Kernel and its reference time: a typical median on a 2-CPU shared x86
# host, where the medians ranged over 0.5-0.86 ms, about 1.9 ms and
# 4.3-5.8 ms.  The
# values only set the scale of every reported time and must stay fixed.
KERNELS = {
    "python": (_python_kernel, 0.7e-3),
    "cli": (_cli_kernel, 1.6e-3),
    "numpy": (_numpy_kernel, 4.7e-3),
}


class Speed:
    """Samples one kernel and rescales measured times to its reference speed."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._kernel, self.ref_s = KERNELS[kind]
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Kernel time now: the median of three runs."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel(self._rng)
            times.append(time.perf_counter() - t0)
        kernel_s = sorted(times)[1]
        self.samples.append(kernel_s)
        return kernel_s

    def rescale(self, t: float, before: float, after: float) -> float:
        return t * self.ref_s * 2.0 / (before + after)

    def median_factor(self) -> float:
        """ref_s over the run's median kernel time, for run-wide totals."""
        return self.ref_s / statistics.median(self.samples)
