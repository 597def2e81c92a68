"""Broadband entanglement swapping and its verification teleportation.

Two EPR pairs (modes 1-2 and 3-4) are built from independent squeezing
sources; a Bell detection on modes 2 and 3 followed by a displacement of
mode 4 with gain gs produces the swapped mode

    X_4' = gs*X_2 + X_4 - gs*X_3        P_4' = gs*P_2 + P_4 + gs*P_3

so modes 1 and 4', which never interacted, end up entangled.  The quality
is scored by teleporting a coherent state over the (1, 4') pair at unit
gain and evaluating its fidelity.  All outputs are built portwise: weights
that cancel do so exactly before the (possibly infinite) squeezing
amplitude is multiplied in, which keeps threshold results finite wherever
they physically are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .criteria import SpectrumTable, _spectrum_table, teleport_fidelity
from .epr import EprPort, SqueezerSpectrum, TransferPair, _project
from .linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    difference_variance,
    normalized_variance,
)
from .teleport import GainSchedule, TeleportOutcome, as_gain

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

    (A - B)/(A + B) with A, B the summed noisy/quiet spectral magnitudes of
    the two sources; for one source with |S+-|^2 = e^(+-2r) this is tanh 2r.
    At threshold (infinite A) the limit is 1, which is also the only gain
    that keeps the verification output finite there.
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

    source_cd = None reuses source_ab for the second pair (the equal-spectra
    case the closed forms assume).  gain = None selects the optimal gain
    frequency by frequency; any fixed number or schedule forces it.
    The verification teleportation is always run at unit gain.
    """

    source_ab: SqueezerSpectrum
    source_cd: SqueezerSpectrum | None = None
    gain: GainSchedule | complex | None = None

    @property
    def second_source(self) -> SqueezerSpectrum:
        return self.source_cd if self.source_cd is not None else self.source_ab

    def gain_at(self, omega: float) -> complex:
        return _swap_gain(self, omega)

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


_Pairs = tuple[TransferPair, TransferPair]


def _transfer_pairs(cfg: SwapConfig, omega: float) -> _Pairs:
    """Transfer pairs of both sources, evaluating a shared source once."""
    ab = cfg.source_ab.pair(omega)
    return ab, ab if cfg.source_cd is None else cfg.source_cd.pair(omega)


def _swap_gain(cfg: SwapConfig, omega: float, pairs: _Pairs | None = None) -> complex:
    if cfg.gain is not None:
        return as_gain(cfg.gain).at(omega)
    return complex(optimal_gain(*(pairs or _transfer_pairs(cfg, omega))))


def _swap_ports(
    cfg: SwapConfig, omega: float, pairs: _Pairs | None = None
) -> tuple[complex, tuple[EprPort, ...], tuple[EprPort, ...]]:
    """Swap gain and the EPR ports of both pairs at one frequency."""
    return (
        _swap_gain(cfg, omega, pairs),
        cfg.source_ab.epr_ports(omega, _AB_LABELS),
        cfg.second_source.epr_ports(omega, _CD_LABELS),
    )


def swap_once(cfg: SwapConfig, omega: float) -> SwapOutcome:
    """Materialize modes 1 and 4' after the swap at one frequency.

    Mode 4' contains the teleported mode 2 outright, so its raw variance
    diverges at the squeezing threshold; only the EPR combinations with
    mode 1 stay finite there (see swapped_epr_variances).
    """
    gs, ab, cd = _swap_ports(cfg, omega)
    x1, p1 = _project(ab, (1, 0), (1, 0))
    x4, p4 = _project(ab, (0, gs), (0, gs))
    _project(cd, (-gs, 1), (gs, 1), x4, p4)
    return SwapOutcome(
        x1=QuadExpansion(0j, x1),
        p1=QuadExpansion(0j, p1),
        x4p=QuadExpansion(0j, x4),
        p4p=QuadExpansion(0j, p4),
        omega=omega,
        swap_gain=gs,
        source=cfg.describe(),
    )


def swapped_epr_variances(cfg: SwapConfig, omega: float) -> tuple[float, float]:
    """Variances of the swapped-pair EPR operators X_1 - X_4' and P_1 + P_4'.

    Normalized so two uncorrelated vacua give 2; anything below 2 certifies
    entanglement between the never-interacting modes 1 and 4'.  Built
    portwise so the threshold cancellations happen at the weight level.
    """
    gs, ab, cd = _swap_ports(cfg, omega)
    x_terms, p_terms = _project(ab, (1, -gs), (1, gs))
    _project(cd, (gs, -1), (gs, 1), x_terms, p_terms)
    model = InputModel.coherent()
    return (
        normalized_variance(QuadExpansion(0j, x_terms), model, Axis.X),
        normalized_variance(QuadExpansion(0j, p_terms), model, Axis.P),
    )


def verification_teleport(cfg: SwapConfig, omega: float) -> TeleportOutcome:
    """Teleport a fresh input over the swapped pair (1, 4') at unit gain.

    The output is input plus the swapped-pair EPR noise:
    x_tel = x_in + (X_4' - X_1), p_tel = p_in + (P_4' + P_1).
    """
    return _verification(cfg, omega)[1]


def _verification(
    cfg: SwapConfig, omega: float, pairs: _Pairs | None = None
) -> tuple[complex, TeleportOutcome]:
    # The swap gain comes back with the outcome, so a row evaluates it once.
    gs, ab, cd = _swap_ports(cfg, omega, pairs)
    x_terms, p_terms = _project(ab, (-1, gs), (1, gs))
    _project(cd, (-gs, 1), (gs, 1), x_terms, p_terms)
    return gs, TeleportOutcome(
        x_tel=QuadExpansion(1.0, x_terms),
        p_tel=QuadExpansion(1.0, p_terms),
        omega=omega,
        gain=1.0,
        eta=1.0,
        source=cfg.describe(),
    )


def _uses_default_ports(src: SqueezerSpectrum) -> bool:
    # The two-pair closed form only describes sources with the pure
    # four-port decomposition; loss ports fall outside it.
    return type(src).epr_ports is SqueezerSpectrum.epr_ports


def _closed_form_swap_fidelity(pairs: _Pairs, gs: complex) -> float | None:
    if gs.imag != 0:
        return None
    sp1, sm1 = pairs[0].magnitudes_sq()
    sp2, sm2 = pairs[1].magnitudes_sq()
    a, b = sp1 + sp2, sm1 + sm2
    g = gs.real
    if math.isinf(a):
        # Finite only in the g -> 1 limit; leave it to the symbolic path.
        return None
    return 1.0 / (1.0 + (g - 1.0) ** 2 * a / 4.0 + (g + 1.0) ** 2 * b / 4.0)


def swap_fidelity(cfg: SwapConfig, omega: float) -> float:
    """Coherent-state fidelity of the verification teleportation.

    For pure sources and real gain this equals the closed form
    1/(1 + (gs-1)^2 A/4 + (gs+1)^2 B/4); the symbolic pipeline is always
    evaluated and the two must agree to 1e-12.
    """
    return _swap_row(cfg, omega)[2]


def _swap_row(cfg: SwapConfig, omega: float) -> tuple[float, float, float]:
    # The transfer pairs feed both the optimal gain and the closed form, so
    # a row evaluates them once, and only when one of the two needs them.
    pure = _uses_default_ports(cfg.source_ab) and _uses_default_ports(cfg.second_source)
    pairs = _transfer_pairs(cfg, omega) if pure or cfg.gain is None else None
    gs, out = _verification(cfg, omega, pairs)
    model = InputModel.coherent()
    v_x = difference_variance(out.x_tel, model, Axis.X)
    v_p = difference_variance(out.p_tel, model, Axis.P)
    f = teleport_fidelity(out).fidelity
    closed = _closed_form_swap_fidelity(pairs, gs) if pure else None
    if closed is not None:
        if not abs(closed - f) <= 1e-12:
            raise AssertionError(
                f"symbolic swap fidelity disagrees with closed form at omega={omega}"
            )
        f = closed
    return v_x, v_p, f


def swap_spectrum(cfg: SwapConfig, omegas: Sequence[float]) -> SpectrumTable:
    """Sweep the swapping setup over a frequency grid.

    Columns hold the verification error variances and fidelity; the
    attached evaluator lets bandwidth() bisect between and beyond rows.
    """
    return _spectrum_table(omegas, lambda w: _swap_row(cfg, w))
