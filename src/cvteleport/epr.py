"""Broadband squeezed resources from parametric-amplifier transfer functions.

A below-threshold nondegenerate parametric amplifier (NOPA) in a two-sided
cavity maps its input vacua onto a pair of output modes whose superpositions
are quadrature squeezed.  In a rotating frame at modulation frequency
``Omega`` the input-output relation is algebraic, so each source here is
just a frequency-indexed provider of complex transfer amplitudes:

* ``S_plus(omega)``  scales the noisy (antisqueezed) quadratures,
* ``S_minus(omega)`` scales the quiet (squeezed) quadratures,

and, for a lossy cavity, two more amplitudes couple in the loss-port vacua.
Superimposing the two decoupled squeezed modes on a balanced beamsplitter
yields the broadband EPR pair used by the teleportation pipeline.

Dimensionless parameterization: with pump ``kappa``, damping ``gamma`` and
intracavity loss ``rho``, set

    epsilon = 2*kappa/(gamma+rho),  omega = 2*Omega/(gamma+rho),
    beta    = gamma/(gamma+rho),

after which the lossless spectra read |S_minus|^2 = 1 - 4e/((1+e)^2 + w^2)
and |S_plus|^2 = 1 + 4e/((1-e)^2 + w^2).  At exact threshold (epsilon = 1,
omega = 0) the noisy amplitude diverges; sources report it as an IEEE
infinity and downstream consumers keep unit-gain results finite by applying
exactly-zero weights before multiplying (see EprPort).
"""

from __future__ import annotations

import abc
import bisect
import math
from dataclasses import dataclass
from typing import Iterable

from ._text import read_csv
from .linmode import Axis, QuadExpansion, combine

__all__ = [
    "CustomSpectrum",
    "EprPort",
    "EprQuadratures",
    "LosslessNopa",
    "LossyNopa",
    "NopaParams",
    "SqueezerSpectrum",
    "TransferPair",
    "ZeroBandwidth",
    "couple_modes",
    "make_epr_pair",
    "nopa_transfer",
    "squeezing_spectrum",
]

_ROOT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class NopaParams:
    """Physical cavity rates of a parametric amplifier.

    Parameters
    ----------
    kappa:
        Pump-induced coupling rate, same units as gamma.
    gamma:
        Cavity damping rate through the output coupler.
    rho:
        Additional intracavity loss rate (0 for a lossless cavity).
    """

    kappa: float
    gamma: float
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(r) for r in (self.kappa, self.gamma, self.rho)):
            raise ValueError("rates kappa, gamma and rho must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.kappa >= (self.gamma + self.rho) / 2:
            raise ValueError(
                "kappa must stay below the oscillation threshold (gamma+rho)/2"
            )

    @property
    def total_rate(self) -> float:
        return self.gamma + self.rho


@dataclass(frozen=True)
class TransferPair:
    """Noisy/quiet transfer amplitudes of a squeezer at one frequency."""

    s_plus: complex
    s_minus: complex

    def bogoliubov_defect(self) -> float:
        """Re(S+ conj(S-)) - 1; zero for any loss-free squeezer."""
        return (self.s_plus * self.s_minus.conjugate()).real - 1.0

    def magnitudes_sq(self) -> tuple[float, float]:
        return abs(self.s_plus) ** 2, abs(self.s_minus) ** 2


@dataclass(frozen=True)
class EprPort:
    """One vacuum port of an EPR pair, in factored (weight, amplitude) form.

    The port contributes ``first*amplitude`` to the first pair mode and
    ``second*amplitude`` to the second, on the given quadrature axis.
    Keeping the weights separate from the (possibly infinite) amplitude lets
    consumers cancel the weight exactly before any multiplication happens,
    which is what keeps unit-gain outputs finite at the squeezing threshold.
    """

    label: str
    axis: Axis
    amplitude: complex
    first: complex
    second: complex


@dataclass(frozen=True)
class EprQuadratures:
    """The four quadrature expansions of one EPR pair."""

    x1: QuadExpansion
    p1: QuadExpansion
    x2: QuadExpansion
    p2: QuadExpansion


def _project(
    ports: Iterable[EprPort],
    x_weights: tuple[complex, complex],
    p_weights: tuple[complex, complex],
    x_terms: dict | None = None,
    p_terms: dict | None = None,
) -> tuple[dict, dict]:
    """Map EPR ports onto one output mode's X and P coefficient tables.

    Each port adds (a*first + b*second)*amplitude to its axis's table, with
    (a, b) the weights of that axis; an exactly-zero combined weight adds
    nothing, whatever the amplitude.  Pass existing tables to accumulate a
    second pair into the same output.
    """
    x_terms = {} if x_terms is None else x_terms
    p_terms = {} if p_terms is None else p_terms
    for port in ports:
        if port.axis is Axis.X:
            (a, b), terms = x_weights, x_terms
        else:
            (a, b), terms = p_weights, p_terms
        key = (port.label, port.axis)
        w = a * port.first + b * port.second
        terms[key] = terms.get(key, 0j) + (0j if w == 0 else w * port.amplitude)
    return x_terms, p_terms


class SqueezerSpectrum(abc.ABC):
    """A frequency-indexed squeezing source.

    Concrete sources provide the transfer pair at a dimensionless frequency
    and a port decomposition of the EPR pair built from them.  Instances are
    immutable; concurrent frequency queries are safe.
    """

    @abc.abstractmethod
    def pair(self, omega: float) -> TransferPair:
        """Transfer amplitudes at dimensionless frequency omega."""

    def epr_ports(
        self, omega: float, labels: tuple[str, str] = ("bar1", "bar2")
    ) -> tuple[EprPort, ...]:
        """Port decomposition of the EPR pair at omega.

        The default covers pure two-port squeezers: two decoupled squeezed
        modes superimposed with 1/sqrt(2) weights, the noisy amplitude on
        (mode1, X) and (mode2, P), the quiet one on the conjugate slots,
        and a sign flip on the second output.
        """
        s = self.pair(omega)
        h = _ROOT_HALF
        l1, l2 = labels
        return (
            EprPort(l1, Axis.X, s.s_plus, h, h),
            EprPort(l2, Axis.X, s.s_minus, h, -h),
            EprPort(l1, Axis.P, s.s_minus, h, h),
            EprPort(l2, Axis.P, s.s_plus, h, -h),
        )

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class LosslessNopa(SqueezerSpectrum):
    """Ideal-cavity NOPA, parameterized by the dimensionless pump epsilon.

    epsilon = 1 is the threshold limit; it is representable and reports an
    infinite noisy amplitude at omega = 0.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    @classmethod
    def from_rates(cls, params: NopaParams) -> "LosslessNopa":
        if params.rho != 0:
            raise ValueError("lossless source requires rho = 0")
        return cls(2 * params.kappa / params.gamma)

    def pair(self, omega: float) -> TransferPair:
        e = self.epsilon
        s_minus = complex(1 - e, omega) / complex(1 + e, -omega)
        den = complex(1 - e, -omega)
        if den == 0:
            s_plus = complex(math.inf, 0.0)
        else:
            s_plus = complex(1 + e, omega) / den
        return TransferPair(s_plus, s_minus)

    def describe(self) -> str:
        return f"nopa(epsilon={self.epsilon:g})"


@dataclass(frozen=True)
class LossyNopa(SqueezerSpectrum):
    """NOPA with intracavity loss, in dimensionless (epsilon, beta) form.

    beta is the cavity escape efficiency gamma/(gamma+rho).  The EPR ports
    are the coupled squeezer inputs themselves (labels b1, b2) plus the two
    loss-port vacua (c1, c2); the loss weights vanish identically at
    beta = 1.
    """

    epsilon: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1) below threshold")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")

    @classmethod
    def from_rates(cls, params: NopaParams) -> "LossyNopa":
        t = params.total_rate
        return cls(2 * params.kappa / t, params.gamma / t)

    def transfer(self, omega: float) -> tuple[complex, complex, complex, complex]:
        """Main and loss-port amplitudes (G, g, G_loss, g_loss) at omega."""
        # Canonical scale gamma+rho = 2 makes the physical and dimensionless
        # frequencies coincide.
        params = NopaParams(self.epsilon, 2.0 * self.beta, 2.0 * (1.0 - self.beta))
        return nopa_transfer(params, omega)

    def pair(self, omega: float) -> TransferPair:
        big_g, small_g, _, _ = self.transfer(omega)
        return TransferPair(big_g + small_g, big_g - small_g)

    def epr_ports(
        self, omega: float, labels: tuple[str, str] = ("b1", "b2")
    ) -> tuple[EprPort, ...]:
        big_g, small_g, gl, gl2 = self.transfer(omega)
        l1, l2 = labels
        c1, c2 = l1 + "_loss", l2 + "_loss"
        return (
            EprPort(l1, Axis.X, 1.0, big_g, small_g),
            EprPort(l2, Axis.X, 1.0, small_g, big_g),
            EprPort(c1, Axis.X, 1.0, gl, gl2),
            EprPort(c2, Axis.X, 1.0, gl2, gl),
            EprPort(l1, Axis.P, 1.0, big_g, -small_g),
            EprPort(l2, Axis.P, 1.0, -small_g, big_g),
            EprPort(c1, Axis.P, 1.0, gl, -gl2),
            EprPort(c2, Axis.P, 1.0, -gl2, gl),
        )

    def describe(self) -> str:
        return f"nopa(epsilon={self.epsilon:g}, beta={self.beta:g})"


@dataclass(frozen=True)
class ZeroBandwidth(SqueezerSpectrum):
    """Frequency-flat squeezer with amplitudes (e^r, e^-r).

    r = inf models the ideal EPR limit.
    """

    r: float

    def __post_init__(self) -> None:
        if self.r < 0 or math.isnan(self.r):
            raise ValueError("squeezing parameter r must be nonnegative")

    def pair(self, omega: float) -> TransferPair:
        return TransferPair(math.exp(self.r), math.exp(-self.r))

    def describe(self) -> str:
        return f"zero-bandwidth(r={self.r:g})"


class CustomSpectrum(SqueezerSpectrum):
    """Squeezer defined by a tabulated transfer pair.

    Linear interpolation acts on Re and Im of each amplitude separately;
    queries outside the tabulated range are rejected.
    """

    def __init__(
        self,
        omegas: tuple[float, ...],
        s_plus: tuple[complex, ...],
        s_minus: tuple[complex, ...],
    ) -> None:
        if not (len(omegas) == len(s_plus) == len(s_minus)):
            raise ValueError("table columns must have equal length")
        if len(omegas) < 2:
            raise ValueError("table needs at least two rows")
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("table frequencies must be strictly increasing")
        self._omegas = tuple(float(w) for w in omegas)
        self._s_plus = tuple(complex(v) for v in s_plus)
        self._s_minus = tuple(complex(v) for v in s_minus)

    CSV_HEADER = ("omega", "s_plus_re", "s_plus_im", "s_minus_re", "s_minus_im")

    @classmethod
    def from_csv(cls, path_or_text: str) -> "CustomSpectrum":
        """Load a table from CSV text (anything containing a newline) or a file path."""
        omegas, pr, pi, mr, mi = read_csv(path_or_text, cls.CSV_HEADER)
        return cls(omegas, tuple(map(complex, pr, pi)), tuple(map(complex, mr, mi)))

    def pair(self, omega: float) -> TransferPair:
        grid = self._omegas
        if omega < grid[0] or omega > grid[-1]:
            raise ValueError(
                f"frequency {omega:g} outside tabulated range "
                f"[{grid[0]:g}, {grid[-1]:g}]"
            )
        hi = bisect.bisect_left(grid, omega)
        if hi < len(grid) and grid[hi] == omega:
            return TransferPair(self._s_plus[hi], self._s_minus[hi])
        lo = hi - 1
        t = (omega - grid[lo]) / (grid[hi] - grid[lo])

        def lerp(values: tuple[complex, ...]) -> complex:
            a, b = values[lo], values[hi]
            return complex(
                a.real + t * (b.real - a.real), a.imag + t * (b.imag - a.imag)
            )

        return TransferPair(lerp(self._s_plus), lerp(self._s_minus))

    def describe(self) -> str:
        return f"custom({len(self._omegas)} rows)"


def nopa_transfer(
    params: NopaParams, big_omega: float
) -> tuple[complex, complex, complex, complex]:
    """Input-output amplitudes of a parametric cavity at physical frequency.

    Returns (G, g, G_loss, g_loss): the main-port direct and conjugate
    amplitudes and their loss-port counterparts.  With rho = 0 the loss
    amplitudes vanish and (G, g) reduce to the ideal-cavity forms.
    """
    kappa, gamma, rho = params.kappa, params.gamma, params.rho
    d = complex((gamma + rho) / 2, -big_omega)
    den = d * d - kappa * kappa
    big_g = (kappa * kappa + (gamma - d) * d) / den
    small_g = kappa * gamma / den
    loss = math.sqrt(gamma * rho)
    return big_g, small_g, loss * d / den, kappa * loss / den


def squeezing_spectrum(
    src_or_epsilon: "LosslessNopa | float", omega: float
) -> tuple[float, float]:
    """(|S_plus|^2, |S_minus|^2) closed forms for the lossless NOPA."""
    if isinstance(src_or_epsilon, LosslessNopa):
        epsilon = src_or_epsilon.epsilon
    else:
        epsilon = float(src_or_epsilon)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
    noisy_den = (epsilon - 1.0) ** 2 + omega * omega
    quiet = 1.0 - 4.0 * epsilon / ((epsilon + 1.0) ** 2 + omega * omega)
    noisy = math.inf if noisy_den == 0 else 1.0 + 4.0 * epsilon / noisy_den
    return noisy, quiet


def make_epr_pair(src: SqueezerSpectrum, omega: float) -> EprQuadratures:
    """EPR pair of a source at omega, materialized as expansions."""
    ports = src.epr_ports(omega)
    x1, p1 = _project(ports, (1, 0), (1, 0))
    x2, p2 = _project(ports, (0, 1), (0, 1))
    return EprQuadratures(
        QuadExpansion(0j, x1),
        QuadExpansion(0j, p1),
        QuadExpansion(0j, x2),
        QuadExpansion(0j, p2),
    )


def couple_modes(
    a: QuadExpansion, b: QuadExpansion
) -> tuple[QuadExpansion, QuadExpansion]:
    """Balanced beamsplitter on two mode expansions: ((a+b), (a-b))/sqrt(2).

    Self-inverse, which is what decouples an EPR pair back into its two
    independent squeezers.
    """
    h = _ROOT_HALF
    return combine(a, b, h, h), combine(a, b, h, -h)
