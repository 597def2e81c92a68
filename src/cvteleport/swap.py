"""Broadband entanglement swapping as teleportation of half an EPR pair.

Two EPR pairs (modes 1-2 and 3-4) are built from independent squeezing
sources; a Bell detection on modes 2 and 3 followed by a displacement of
mode 4 with gain gs produces the swapped mode

    X_4' = gs*X_2 + X_4 - gs*X_3        P_4' = gs*P_2 + P_4 + gs*P_3

so modes 1 and 4', which never interacted, end up entangled.  The pair
(1, 4') is then one more teleportation resource: a unit-gain teleport over
it scores the swap with the same array kernel, closed form and cross-check
as any source.  It hands the two sources' EPR pairs to the one port walker
with the swap gain composed into their weights, for both the amplitudes of
the expansions and the powers of the kernel, so weights that cancel do so
exactly before the (possibly infinite) squeezing amplitude or power is
multiplied in, which keeps threshold results finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import SpectrumTable, _sweep, _weighted
from .epr import PortPowers, SqueezerSpectrum, _number, make_epr_pair
from .linmode import QuadExpansion
from .teleport import (
    _COHERENT, _IDEAL_DETECTOR, _UNIT_GAIN, GainSchedule, TeleportOutcome, _check_frequency,
    _one_frequency, as_gain, teleport,
)

__all__ = [
    "SwapConfig",
    "SwapOutcome",
    "optimal_gain",
    "swap_fidelity",
    "swap_once",
    "swap_spectrum",
    "verification_teleport",
]

# Distinct port labels for the two pairs; sources suffix their own loss
# ports, so these stay collision free.
_AB_LABELS = ("bar1", "bar2")
_CD_LABELS = ("bar3", "bar4")


def optimal_gain(powers: PortPowers, second: PortPowers | None = None) -> float | np.ndarray:
    """Swap gain minimizing the verification noise.

    (A - B)/(A + B) with A, B the summed squeezed-port powers |S+-|^2 of
    the two sources (second = None takes the first twice); for one source
    with |S+-|^2 = e^(+-2r) this is tanh 2r.  At threshold (infinite A)
    the limit is 1, which is also the only gain that keeps the
    verification output finite there.  The loss ports are left out, so for
    a lossy source this is not yet the optimum (which would take A, B from
    the spectra V+-).  Powers over a frequency grid give the array of gains.
    """
    second = powers if second is None else second
    a, b = powers.s_plus + second.s_plus, powers.s_minus + second.s_minus
    # Where both squeezed ports carry no power (epsilon = 0 at beta = 1/2,
    # omega = 0), all the noise is the loss ports', |gs-1|^2 + |gs+1|^2
    # times one spectrum, which is least at 0.  Only these limits, inf/inf
    # and 0/0, differ from the plain quotient, which is nan there, so only
    # a nan in it asks for the masks.
    total = a + b
    with np.errstate(invalid="ignore"):
        gain = np.divide(a - b, total)
    if np.isnan(gain).any():
        gain = np.where(np.isinf(a), 1.0, np.where(total == 0, 0.0, gain))
    return _number(gain)


@dataclass(frozen=True)
class SwapConfig:
    """Sources and gain policy of one swapping setup.

    source_cd = None reuses source_ab for the second pair, so SwapConfig(a)
    equals SwapConfig(a, a).  gain = None selects the optimal gain
    frequency by frequency; any fixed number or schedule forces it, and a
    number becomes a GainSchedule once, here.  The verification
    teleportation is always run at unit gain.
    """

    source_ab: SqueezerSpectrum
    source_cd: SqueezerSpectrum | None = None
    gain: GainSchedule | complex | None = None

    def __post_init__(self) -> None:
        if self.source_cd is None:
            object.__setattr__(self, "source_cd", self.source_ab)
        if self.gain is not None:
            object.__setattr__(self, "gain", as_gain(self.gain))

    def describe(self) -> str:
        ab = self.source_ab.describe()
        cd = self.source_cd.describe()
        g = "optimal" if self.gain is None else self.gain.describe()
        return f"swap[{ab} & {cd}, gain={g}]"


@dataclass(frozen=True)
class SwapOutcome:
    """Kept mode 1 and swapped mode 4' at one frequency."""

    x1: QuadExpansion
    p1: QuadExpansion
    x4p: QuadExpansion
    p4p: QuadExpansion
    omega: float
    swap_gain: complex
    source: str


class _SwappedPair:
    """The swapped pair (1, 4') over a frequency grid, as a teleportation resource.

    It stands in for a source in teleport(), make_epr_pair() and the
    spectrum kernel by composing the gain into the weights of the sources'
    pairs, not into their ports (see _pairs), so exact-zero weights still
    skip infinite amplitudes and powers.  Only the quiet spectrum of the
    pair is defined (variances() reports V+ as nan):
    V-_eff = (|gs-1|^2 A + |gs+1|^2 B)/4, A and B the summed V+ and V- of
    the two sources.  omega may be one frequency or an array.  This is the
    one place that evaluates the sources' powers and picks the swap gain,
    optimal or scheduled: each source object's powers are evaluated once,
    for the gain, the port noise and V-_eff alike, and its amplitudes only
    for expansions.
    """

    __slots__ = ("cfg", "gain", "powers", "quiet")

    def __init__(self, cfg: SwapConfig, omega: float | np.ndarray) -> None:
        self.cfg = cfg
        ab = cfg.source_ab.powers(omega)
        cd = ab if cfg.source_cd is cfg.source_ab else cfg.source_cd.powers(omega)
        self.powers = ab, cd
        self.gain = gs = optimal_gain(ab, cd) if cfg.gain is None else cfg.gain.at(omega)
        vp1, vm1 = cfg.source_ab.variances(omega, ab)
        vp2, vm2 = (vp1, vm1) if cd is ab else cfg.source_cd.variances(omega, cd)
        # The kernel's exact zeros (see criteria._weighted): the noisy term
        # is 0 at gs == 1, where 0*A is nan at threshold, and the quiet one
        # where B = 0, which is nan for a gain so large that |gs+1|^2 is inf.
        with np.errstate(invalid="ignore", over="ignore"):
            self.quiet = _weighted(gs - 1, vp1 + vp2) / 4.0 + _weighted(gs + 1, vm1 + vm2) / 4.0

    def _pairs(
        self, omega: float | np.ndarray, x_weights: tuple, p_weights: tuple
    ) -> tuple[tuple, tuple]:
        # (a, b) on modes (1, 4') is (a, gs*b) on pair ab and (-gs*b, b) on
        # X, (gs*b, b) on P of pair cd, over the powers the gain was taken
        # from (see SqueezerSpectrum._pairs).
        (xa, xb), (pa, pb) = x_weights, p_weights
        gx, gp = self.gain * xb, self.gain * pb
        ab, cd = self.powers
        return (
            (_AB_LABELS, self.cfg.source_ab, ab, (xa, gx), (pa, gp)),
            (_CD_LABELS, self.cfg.source_cd, cd, (-gx, xb), (gp, pb)),
        )

    def variances(
        self, omega: float | np.ndarray, powers: PortPowers | None = None
    ) -> tuple[float, np.ndarray]:
        return math.nan, self.quiet

    def describe(self) -> str:
        return self.cfg.describe()


def swap_once(cfg: SwapConfig, omega: float) -> SwapOutcome:
    """Materialize modes 1 and 4' after the swap at one frequency.

    Mode 4' contains the teleported mode 2 outright, so its raw variance
    diverges at the squeezing threshold; only the EPR combinations
    X_1 - X_4' and P_1 + P_4' stay finite there.  Any one finite omega
    is taken: a number, a numpy scalar or a 0-d array.  One that is not
    finite, or an array of another shape (one row included), raises
    ValueError before any source is evaluated.
    """
    _check_frequency(omega)
    pair = _SwappedPair(cfg, omega)
    m = make_epr_pair(pair, omega)
    return SwapOutcome(m.x1, m.p1, m.x2, m.p2, omega, pair.gain, cfg.describe())


def verification_teleport(cfg: SwapConfig, omega: float) -> TeleportOutcome:
    """Teleport a fresh input over the swapped pair (1, 4') at unit gain.

    The output is input plus the swapped-pair EPR noise:
    x_tel = x_in + (X_4' - X_1), p_tel = p_in + (P_4' + P_1).  Any one
    finite omega is taken, as by swap_once.
    """
    _check_frequency(omega)
    return teleport(_SwappedPair(cfg, omega), _UNIT_GAIN, _IDEAL_DETECTOR, omega)


def swap_fidelity(cfg: SwapConfig, omega: float) -> float:
    """Coherent-state fidelity of the verification teleportation.

    The teleport closed form F = 1/(1 + V-) of the swapped pair, with
    V-_eff = (|gs-1|^2 A + |gs+1|^2 B)/4 over the summed spectra
    A = V+_1 + V+_2 and B = V-_1 + V-_2, at any gain, threshold included;
    like every teleport row it is cross-checked against the generic
    Q-function fidelity to 1e-12.  The one-row swap_spectrum at omega,
    one frequency (a number, a numpy scalar or a 0-d array): an array of
    another shape, or an omega that is not finite or of magnitude past
    OMEGA_LIMIT, raises ValueError before any source is evaluated.
    """
    _one_frequency(omega)
    return float(_swept(cfg, omega).fidelity[0])


def swap_spectrum(cfg: SwapConfig, omegas: Sequence[float] | np.ndarray) -> SpectrumTable:
    """Sweep the swapping setup over a frequency grid.

    Columns hold the verification error variances and fidelity, computed
    for the whole grid at once; the attached evaluator lets bandwidth()
    bisect between and beyond rows.  A frequency that is not finite, or
    of magnitude past OMEGA_LIMIT, raises ValueError before any source is
    evaluated.
    """
    return _swept(cfg, omegas)


def _swept(
    cfg: SwapConfig, grid: Sequence[float] | np.ndarray, threshold: float | None = None
) -> SpectrumTable:
    # The sweep of the verification teleport over the swapped pair.
    pair = functools.partial(_SwappedPair, cfg)
    return _sweep(pair, grid, _UNIT_GAIN, _IDEAL_DETECTOR, _COHERENT, threshold)
