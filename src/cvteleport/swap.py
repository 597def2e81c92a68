"""Broadband entanglement swapping as teleportation of half an EPR pair.

Two EPR pairs (modes 1-2 and 3-4) are built from independent squeezing
sources; a Bell detection on modes 2 and 3 followed by a displacement of
mode 4 with gain gs produces the swapped mode

    X_4' = gs*X_2 + X_4 - gs*X_3        P_4' = gs*P_2 + P_4 + gs*P_3

so modes 1 and 4', which never interacted, end up entangled.  The pair
(1, 4') is then one more teleportation resource: a unit-gain teleport over
it scores the swap with the same row, closed form and cross-check as any
source.  Its weights are composed onto the sources' rotated EPR ports, so
weights that cancel do so exactly before the (possibly infinite) squeezing
amplitude is multiplied in, which keeps threshold results finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .criteria import SpectrumTable, _spectrum_table, _teleport_row
from .epr import SqueezerSpectrum, TransferPair, _project, make_epr_pair
from .linmode import Axis, InputModel, QuadExpansion, normalized_variance
from .teleport import BellDetector, GainSchedule, TeleportOutcome, as_gain, teleport

__all__ = [
    "SwapConfig",
    "SwapOutcome",
    "optimal_gain",
    "swap_fidelity",
    "swap_once",
    "swap_spectrum",
    "swapped_epr_variances",
    "verification_teleport",
]

# Distinct port labels for the two pairs; sources suffix their own loss
# ports, so these stay collision free.
_AB_LABELS = ("bar1", "bar2")
_CD_LABELS = ("bar3", "bar4")


def optimal_gain(pair: TransferPair, second: TransferPair | None = None) -> float:
    """Swap gain minimizing the verification noise.

    (A - B)/(A + B) with A, B the summed noisy/quiet magnitudes |S+-|^2 of
    the two sources; for one source with |S+-|^2 = e^(+-2r) this is tanh 2r.
    At threshold (infinite A) the limit is 1, which is also the only gain
    that keeps the verification output finite there.  The loss amplitudes
    are left out, so for a lossy source this is not yet the optimum (which
    would take A, B from the spectra V+-).
    """
    sp1, sm1 = pair.magnitudes_sq()
    sp2, sm2 = (second if second is not None else pair).magnitudes_sq()
    a, b = sp1 + sp2, sm1 + sm2
    if math.isinf(a):
        return 1.0
    if a + b == 0:
        raise ValueError("degenerate transfer pair: |S+|^2 + |S-|^2 must be positive")
    return (a - b) / (a + b)


@dataclass(frozen=True)
class SwapConfig:
    """Sources and gain policy of one swapping setup.

    source_cd = None reuses source_ab for the second pair.  gain = None
    selects the optimal gain frequency by frequency; any fixed number or
    schedule forces it.  The verification teleportation is always run at
    unit gain.
    """

    source_ab: SqueezerSpectrum
    source_cd: SqueezerSpectrum | None = None
    gain: GainSchedule | complex | None = None

    @property
    def second_source(self) -> SqueezerSpectrum:
        return self.source_cd if self.source_cd is not None else self.source_ab

    def gain_at(self, omega: float) -> complex:
        if self.gain is not None:
            return as_gain(self.gain).at(omega)
        second = None if self.source_cd is None else self.source_cd.pair(omega)
        return complex(optimal_gain(self.source_ab.pair(omega), second))

    def describe(self) -> str:
        ab = self.source_ab.describe()
        cd = self.second_source.describe()
        g = "optimal" if self.gain is None else as_gain(self.gain).describe()
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
    """The swapped pair (1, 4') at one frequency, as a teleportation resource.

    It stands in for a source in teleport() and make_epr_pair() by composing
    weights, not ports: (a, b) on modes (1, 4') is (a, gs*b) on pair ab and
    (-gs*b, b) on X, (gs*b, b) on P of pair cd, so exact-zero weights still
    skip infinite amplitudes.  Only the quiet spectrum of the pair is
    defined (variances() reports V+ as nan): V-_eff = (|gs-1|^2 A +
    |gs+1|^2 B)/4, A and B the summed V+ and V- of the two sources.
    """

    __slots__ = ("cfg", "gain", "ab", "cd", "quiet")

    def __init__(self, cfg: SwapConfig, omega: float) -> None:
        self.cfg = cfg
        self.gain = gs = cfg.gain_at(omega)
        self.ab = cfg.source_ab.epr_ports(omega, _AB_LABELS)
        self.cd = cfg.second_source.epr_ports(omega, _CD_LABELS)
        vp1, vm1 = cfg.source_ab.variances(omega)
        vp2, vm2 = (vp1, vm1) if cfg.source_cd is None else cfg.source_cd.variances(omega)
        # At gs == 1 the noisy term is dropped: 0*A is nan at threshold.
        noisy = 0.0 if gs == 1 else abs(gs - 1) ** 2 * (vp1 + vp2) / 4.0
        self.quiet = noisy + abs(gs + 1) ** 2 * (vm1 + vm2) / 4.0

    def _project_modes(self, omega: float, x_weights: tuple, p_weights: tuple) -> tuple[dict, dict]:
        (xa, xb), (pa, pb) = x_weights, p_weights
        # A zero b stays a real zero, as a source's own weight is: a complex
        # zero times an infinite real amplitude would give nan.
        gx = self.gain * xb if xb else xb
        gp = self.gain * pb if pb else pb
        x_terms, p_terms = _project(self.ab, (xa, gx), (pa, gp))
        return _project(self.cd, (-gx, xb), (gp, pb), x_terms, p_terms)

    def variances(self, omega: float) -> tuple[float, float]:
        return math.nan, self.quiet

    def describe(self) -> str:
        return self.cfg.describe()


# The verification teleportation: unit gain, ideal detectors, coherent input.
_UNIT_GAIN = GainSchedule.unit()
_IDEAL_DETECTOR = BellDetector(1.0)
_COHERENT = InputModel.coherent()


def swap_once(cfg: SwapConfig, omega: float) -> SwapOutcome:
    """Materialize modes 1 and 4' after the swap at one frequency.

    Mode 4' contains the teleported mode 2 outright, so its raw variance
    diverges at the squeezing threshold; only the EPR combinations with
    mode 1 stay finite there (see swapped_epr_variances).
    """
    pair = _SwappedPair(cfg, omega)
    m = make_epr_pair(pair, omega)
    return SwapOutcome(m.x1, m.p1, m.x2, m.p2, omega, pair.gain, cfg.describe())


def swapped_epr_variances(cfg: SwapConfig, omega: float) -> tuple[float, float]:
    """Variances of the swapped-pair EPR operators X_1 - X_4' and P_1 + P_4'.

    Normalized so two uncorrelated vacua give 2; anything below 2 certifies
    entanglement between the never-interacting modes 1 and 4'.  Built
    portwise with its own weights, not through the resource, so it is an
    independent reference for the verification teleportation.
    """
    pair = _SwappedPair(cfg, omega)
    gs = pair.gain
    x_terms, p_terms = _project(pair.ab, (1, -gs), (1, gs))
    _project(pair.cd, (gs, -1), (gs, 1), x_terms, p_terms)
    return (
        normalized_variance(QuadExpansion(0j, x_terms), _COHERENT, Axis.X),
        normalized_variance(QuadExpansion(0j, p_terms), _COHERENT, Axis.P),
    )


def verification_teleport(cfg: SwapConfig, omega: float) -> TeleportOutcome:
    """Teleport a fresh input over the swapped pair (1, 4') at unit gain.

    The output is input plus the swapped-pair EPR noise:
    x_tel = x_in + (X_4' - X_1), p_tel = p_in + (P_4' + P_1).
    """
    return teleport(_SwappedPair(cfg, omega), _UNIT_GAIN, _IDEAL_DETECTOR, omega)


def swap_fidelity(cfg: SwapConfig, omega: float) -> float:
    """Coherent-state fidelity of the verification teleportation.

    The teleport closed form F = 1/(1 + V-) of the swapped pair, with
    V-_eff = (|gs-1|^2 A + |gs+1|^2 B)/4 over the summed spectra
    A = V+_1 + V+_2 and B = V-_1 + V-_2, at any gain, threshold included;
    like every teleport row it is cross-checked against the symbolic
    pipeline to 1e-12.
    """
    return _swap_row(cfg, omega)[2]


def _swap_row(cfg: SwapConfig, omega: float) -> tuple[float, float, float]:
    pair = _SwappedPair(cfg, omega)
    return _teleport_row(pair, _UNIT_GAIN, _IDEAL_DETECTOR, _COHERENT, omega)[1:]


def swap_spectrum(cfg: SwapConfig, omegas: Sequence[float]) -> SpectrumTable:
    """Sweep the swapping setup over a frequency grid.

    Columns hold the verification error variances and fidelity; the
    attached evaluator lets bandwidth() bisect between and beyond rows.
    """
    return _spectrum_table(omegas, lambda w: _swap_row(cfg, w))
