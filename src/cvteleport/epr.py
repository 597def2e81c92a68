"""Broadband squeezed resources from parametric-amplifier transfer functions.

A below-threshold nondegenerate parametric amplifier (NOPA) in a two-sided
cavity maps its input vacua onto a pair of output modes whose superpositions
are quadrature squeezed.  In a rotating frame at modulation frequency
``Omega`` the input-output relation is algebraic, so each source here is
just a frequency-indexed provider of complex transfer amplitudes, at one
frequency or as numpy arrays over a whole grid:

* ``S_plus(omega)``  scales the noisy (antisqueezed) quadratures,
* ``S_minus(omega)`` scales the quiet (squeezed) quadratures,

and, for a lossy cavity, ``L_plus``/``L_minus`` couple in the loss-port
vacua on the same quadratures, giving the spectra V+- = |S+-|^2 + |L+-|^2.
Superimposing the two decoupled squeezed modes on a balanced beamsplitter
yields the broadband EPR pair; every source shares that one rotated port
layout, and one walker (_ports) maps its amplitudes onto a protocol's
weights.

Powers serve spectra, amplitudes serve expansions.  A variance only ever
adds |w*amplitude|^2 = |w|^2*|amplitude|^2 per port, and the rotated
layout gives the noisy and the quiet spectrum one weight each per axis,
so the spectrum kernel weighs each source's two spectra, summed from its
real port powers (SqueezerSpectrum.powers), and never builds a complex
amplitude; the NOPA gives the powers in cancellation-free real form.  The
complex amplitudes (SqueezerSpectrum.pair) are walked only for the
quadrature expansions of teleport(), which the oracles and the commutator
checks use.

Dimensionless parameterization: with pump ``kappa``, damping ``gamma`` and
intracavity loss ``rho``, set

    epsilon = 2*kappa/(gamma+rho),  omega = 2*Omega/(gamma+rho),
    beta    = gamma/(gamma+rho),

after which the spectra read V- = 1 - 4eb/((1+e)^2 + w^2) and
V+ = 1 + 4eb/((1-e)^2 + w^2), b = 1 for a lossless cavity.  At exact
threshold (epsilon = 1, omega = 0) the noisy amplitude diverges; sources
report it, and its power, as an IEEE infinity, and downstream consumers
keep unit-gain results finite by applying exactly-zero weights before
multiplying (see _ports).
"""

from __future__ import annotations

import abc
import contextlib
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from ._text import read_csv
from .linmode import Axis, QuadExpansion

__all__ = [
    "CustomSpectrum",
    "EprQuadratures",
    "Nopa",
    "NopaParams",
    "PortPowers",
    "SqueezerSpectrum",
    "TransferPair",
    "ZeroBandwidth",
    "make_epr_pair",
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
        if self.gamma / (self.gamma + self.rho) == 0:
            raise ValueError("the escape efficiency gamma/(gamma+rho) rounds to 0")

    @property
    def total_rate(self) -> float:
        return self.gamma + self.rho


@dataclass(frozen=True)
class TransferPair:
    """Noisy/quiet squeezed-port (s_*) and loss-port (l_*) amplitudes.

    Each field is one amplitude, or an array of them over a frequency grid.
    """

    s_plus: complex | np.ndarray
    s_minus: complex | np.ndarray
    l_plus: complex | np.ndarray = 0j
    l_minus: complex | np.ndarray = 0j

    def __post_init__(self) -> None:
        for name in ("s_plus", "s_minus", "l_plus", "l_minus"):
            object.__setattr__(self, name, _number(getattr(self, name)))

    def powers(self) -> "PortPowers":
        """The squared magnitudes of the four amplitudes."""
        with np.errstate(over="ignore"):  # a diverging amplitude squares to inf
            return PortPowers(*map(_abs2, (self.s_plus, self.s_minus, self.l_plus, self.l_minus)))


class PortPowers(NamedTuple):
    """Squeezed-port (s_*) and loss-port (l_*) powers |S+-|^2, |L+-|^2.

    Each field is one power, or an array of them over a frequency grid;
    a diverging noisy amplitude has power inf.
    """

    s_plus: float | np.ndarray
    s_minus: float | np.ndarray
    l_plus: float | np.ndarray = 0.0
    l_minus: float | np.ndarray = 0.0

    def variances(self) -> tuple[float, float]:
        """(V+, V-) = (|S+|^2 + |L+|^2, |S-|^2 + |L-|^2), vacuum = 1."""
        return self.s_plus + self.l_plus, self.s_minus + self.l_minus


@dataclass(frozen=True)
class EprQuadratures:
    """The four quadrature expansions of one EPR pair."""

    x1: QuadExpansion
    p1: QuadExpansion
    x2: QuadExpansion
    p2: QuadExpansion


def _rotated(plus, minus, slot: int = 0) -> tuple[tuple, ...]:
    # Two decoupled squeezed vacua superimposed with 1/sqrt(2) weights: the
    # noisy value on (label 1, X) and (label 2, P), the quiet one on the
    # conjugate slots, and a sign flip on the second output.  Ports are
    # (label slot, axis, value, first, second).
    h = _ROOT_HALF
    return (
        (slot, Axis.X, plus, h, h),
        (slot + 1, Axis.X, minus, h, -h),
        (slot, Axis.P, minus, h, h),
        (slot + 1, Axis.P, plus, h, -h),
    )


def _layout(s: TransferPair) -> tuple[tuple, ...]:
    # The rotated layout of one source's amplitudes, loss ports (label
    # slots 2 and 3) only where the loss amplitudes are not all zero.
    ports = _rotated(s.s_plus, s.s_minus)
    if np.count_nonzero(s.l_plus) or np.count_nonzero(s.l_minus):
        ports += _rotated(s.l_plus, s.l_minus, 2)
    return ports


def _ports(
    amplitudes: TransferPair,
    x_weights: tuple[complex, complex],
    p_weights: tuple[complex, complex],
) -> Iterator[tuple[int, Axis, complex | np.ndarray, complex | np.ndarray]]:
    """Walk one EPR pair's ports for the output mode a*mode1 + b*mode2.

    Yields each port's label slot (see _rotated), its axis, its combined
    weight a*first + b*second, with (a, b) the weights of its axis, and its
    amplitude, one number or an array over a frequency grid, as are the
    weights.  The weight stays apart from the (possibly infinite) amplitude
    so that a consumer applies an exactly-zero weight before multiplying,
    which keeps unit-gain outputs finite at threshold.
    """
    for slot, axis, amplitude, first, second in _layout(amplitudes):
        a, b = x_weights if axis is Axis.X else p_weights
        yield slot, axis, a * first + b * second, amplitude


def _terms(
    resource,
    omega: float | np.ndarray,
    x_weights: tuple,
    p_weights: tuple,
    pairs: dict[int, TransferPair] | None = None,
) -> tuple[dict, dict]:
    # The X and P coefficient tables of a*mode1 + b*mode2 for QuadExpansion:
    # over each EPR pair of the resource (see SqueezerSpectrum._pairs), each
    # port's combined weight times its amplitude, under '<label>' or
    # '<label>_loss', and exactly zero wherever the weight is.  Each source's
    # pair(omega) is evaluated once and kept in pairs, by the source's id:
    # two EPR pairs may share one source, and callers that build several
    # modes at one omega pass one dict to every call.
    tables: dict[Axis, dict] = {Axis.X: {}, Axis.P: {}}
    pairs = {} if pairs is None else pairs
    for (l1, l2), source, _, x_w, p_w in resource._pairs(omega, x_weights, p_weights):
        names = (l1, l2, l1 + "_loss", l2 + "_loss")
        amplitudes = pairs.get(id(source))
        if amplitudes is None:
            amplitudes = pairs[id(source)] = source.pair(omega)
        with np.errstate(invalid="ignore", over="ignore"):  # 0*inf goes to the where
            for slot, axis, w, amplitude in _ports(amplitudes, x_w, p_w):
                tables[axis][names[slot], axis] = np.where(w == 0, 0, w * amplitude)
    return tables[Axis.X], tables[Axis.P]


def _number(x):
    # A 0-d numpy result (a numpy scalar or 0-d array) as a plain Python
    # number, so one-frequency calls return what they always did; arrays
    # and plain numbers pass through.
    return x.item() if getattr(x, "ndim", None) == 0 else x


def _abs2(z):
    # |z|^2 through hypot, as Python's abs() computes it: numpy's complex
    # abs rounds differently in about a third of cases.  hypot(inf, nan)
    # is inf, so an infinite part times a zero part still reads inf.  A
    # plain number stays in Python, where a*a overflows to inf silently.
    # A real float array squares as z*z: hypot(x, 0) is exactly |x|, so
    # the bits are the same, signed zeros, inf and nan included.
    if type(z) in (float, complex, int):
        a = abs(z)
        return float(a * a)
    if getattr(z, "dtype", None) == np.float64:
        return _number(z * z)
    return _number(np.hypot(np.real(z), np.imag(z)) ** 2)


def _complex(re, im) -> np.ndarray:
    # re + i*im with both parts exact, unlike re + 1j*im, where an infinite
    # im puts 0*inf = nan into the real part.
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _quot(num, den) -> np.ndarray:
    # num/den by the scaled steps of Python's complex division; numpy's
    # divide multiplies by a rounded reciprocal instead, which costs an ulp
    # and overflows where 1/den does.  A zero den gives nan.
    a, b, c, d = np.real(num), np.imag(num), np.real(den), np.imag(den)
    by_re = np.abs(c) >= np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(by_re, d / c, c / d)
        scale = np.where(by_re, c + d * ratio, c * ratio + d)
        re = np.where(by_re, a + b * ratio, a * ratio + b) / scale
        im = np.where(by_re, b - a * ratio, b * ratio - a) / scale
    return _complex(re, im)


class SqueezerSpectrum(abc.ABC):
    """A frequency-indexed squeezing source.

    Concrete sources provide the transfer pair at a dimensionless frequency,
    or at every frequency of an array at once; the port powers and the
    spectra follow from it.  Instances are immutable; concurrent frequency
    queries are safe.
    """

    @abc.abstractmethod
    def pair(self, omega: float | np.ndarray) -> TransferPair:
        """Transfer amplitudes at dimensionless frequency omega (or an array of them)."""

    def powers(self, omega: float | np.ndarray) -> PortPowers:
        """Port powers |S+-|^2, |L+-|^2 at omega (or an array of them).

        The squared magnitudes of pair(omega); sources with a real form
        override this so that spectra never build complex amplitudes.
        """
        return self.pair(omega).powers()

    def variances(
        self, omega: float | np.ndarray, powers: PortPowers | None = None
    ) -> tuple[float, float]:
        """Noisy and quiet spectra (V+, V-) at omega, vacuum = 1.

        The sums of the port powers; powers, if given, must be this
        source's powers(omega), which then are not evaluated again.
        Sources with a real form of the spectra override this and ignore
        them.
        """
        return (self.powers(omega) if powers is None else powers).variances()

    def _pairs(
        self, omega: float | np.ndarray, x_weights: tuple, p_weights: tuple
    ) -> tuple[tuple, ...]:
        # The EPR pairs behind the output mode a*mode1 + b*mode2, one
        # (labels, source, port powers, x weights, p weights) entry each:
        # the expansions walk each source's ports (see _ports), the
        # spectrum kernel weighs its powers.  A source is its own one pair,
        # and a composed resource stands in for a source by overriding
        # this.  The powers are None where they are the source's own
        # powers(omega), which only the spectrum kernel reads.
        return ((("bar1", "bar2"), self, None, x_weights, p_weights),)

    def describe(self) -> str:
        return type(self).__name__


def _noisy_numerator(e: float, b: float) -> float:
    # gamma - 1 + kappa = 2b - 1 + e, the real part of S+'s numerator, to
    # about one rounding where it cancels (e near 1 - 2b, a small escape
    # efficiency).  2b - 1 is exact from b = 1/4 on, and below that its
    # rounding error, 2b - (2b - 1 + 1) exactly, is added back after the
    # cancelling sum; from b = 1/4 on that error is 0 and the bits are
    # those of (2b - 1) + e.
    gamma_minus_1 = 2.0 * b - 1.0
    return (gamma_minus_1 + e) + (2.0 * b - (gamma_minus_1 + 1.0))


_NO_ERRSTATE = contextlib.nullcontext()


def _noisy_errstate(e: float):
    # What a NOPA's noisy quotients need: only at threshold (e = 1) is the
    # noisy denominator (1 - e)^2 + w^2 zero, at omega = 0, or so small just
    # off it that the quotient passes the float range (inf, silently).
    # Below threshold it is at least 2^-106, so nothing can warn, and no
    # errstate is entered: one costs about a microsecond a call.
    return np.errstate(divide="ignore", over="ignore") if e == 1.0 else _NO_ERRSTATE


@dataclass(frozen=True)
class Nopa(SqueezerSpectrum):
    """NOPA in dimensionless (epsilon, beta) form.

    epsilon is the pump and beta the cavity escape efficiency
    gamma/(gamma+rho).  beta = 1 is the lossless cavity: its loss ports
    vanish, and it alone may sit at threshold, epsilon = 1, where it
    reports an infinite noisy amplitude at omega = 0.
    """

    epsilon: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.beta == 1.0:
            if not 0.0 <= self.epsilon <= 1.0:
                raise ValueError("epsilon must lie in [0, 1]")
        elif not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1) below threshold")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")

    @classmethod
    def from_rates(cls, params: NopaParams) -> "Nopa":
        # At rho = 0 the total rate is gamma, so beta is exactly 1.
        t = params.total_rate
        return cls(2 * params.kappa / t, params.gamma / t)

    def pair(self, omega: float | np.ndarray) -> TransferPair:
        # G +- g and G_loss +- g_loss of the cavity's input-output map
        # (nopa_transfer in tests/references.py) at the canonical scale
        # gamma + rho = 2 (d = 1 - i*omega, gamma = 2*beta, kappa = epsilon):
        # S+- = (gamma +- kappa - d)/(d -+ kappa), L+- = sqrt(gamma*rho)/(d -+ kappa).
        # Unlike G - g, no term of order 1/(1 - epsilon) cancels.  At
        # threshold the noisy denominator is zero and S+ is inf.
        e, b = self.epsilon, self.beta
        noisy_den = _complex(1 - e, np.negative(omega))
        quiet_den = _complex(1 + e, np.negative(omega))
        s_plus = _quot(_complex(_noisy_numerator(e, b), omega), noisy_den)
        s_plus = np.where(noisy_den == 0, complex(math.inf, 0.0), s_plus)
        s_minus = _quot(_complex(2.0 * b - 1.0 - e, omega), quiet_den)
        if b == 1.0:
            return TransferPair(s_plus, s_minus)
        loss = 2.0 * math.sqrt(b * (1.0 - b))
        return TransferPair(s_plus, s_minus, _quot(loss, noisy_den), _quot(loss, quiet_den))

    def powers(self, omega: float | np.ndarray) -> PortPowers:
        # |S+-|^2 = ((2b - 1 +- e)^2 + w^2)/((1 -+ e)^2 + w^2) and
        # |L+-|^2 = 4b(1 - b)/((1 -+ e)^2 + w^2), the squared magnitudes of
        # pair() in real form.  A lossless cavity has exactly zero loss
        # powers and |S+-|^2 = 1 exactly at epsilon = 0; at threshold
        # |S-|^2 = 0 and |S+|^2 = inf exactly, and just off it |S+|^2
        # passes the float range: inf, silently.
        e, b = self.epsilon, self.beta
        w2 = np.square(omega, dtype=float)
        noisy_den = (1.0 - e) ** 2 + w2
        quiet_den = (1.0 + e) ** 2 + w2
        with _noisy_errstate(e):
            s_plus = _number((_noisy_numerator(e, b) ** 2 + w2) / noisy_den)
        s_minus = _number(((2.0 * b - 1.0 - e) ** 2 + w2) / quiet_den)
        if b == 1.0:
            return PortPowers(s_plus, s_minus)
        loss = 4.0 * b * (1.0 - b)
        return PortPowers(s_plus, s_minus, _number(loss / noisy_den), _number(loss / quiet_den))

    def variances(
        self, omega: float | np.ndarray, powers: PortPowers | None = None
    ) -> tuple[float, float]:
        # V-+ = 1 -+ 4*epsilon*beta/((1 +- epsilon)^2 + omega^2) in real form,
        # which keeps V = 1 exact at epsilon = 0 and V- = 0 exact at threshold,
        # where the noisy denominator is zero and V+ is inf.  The powers are
        # ignored: this form is the closed form, independent of them, that
        # the spectrum kernel checks its port sums against.
        e, b = self.epsilon, self.beta
        w2 = np.square(omega, dtype=float)
        quiet = 1.0 - 4.0 * e * b / ((e + 1.0) ** 2 + w2)
        with _noisy_errstate(e):
            noisy = 1.0 + 4.0 * e * b / ((e - 1.0) ** 2 + w2)
        return _number(noisy), _number(quiet)

    def describe(self) -> str:
        if self.beta == 1.0:
            return f"nopa(epsilon={self.epsilon:g})"
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

    def pair(self, omega: float | np.ndarray) -> TransferPair:
        shape = np.shape(omega)
        return TransferPair(np.full(shape, math.exp(self.r)), np.full(shape, math.exp(-self.r)))

    def describe(self) -> str:
        return f"zero-bandwidth(r={self.r:g})"


# How far below 1 a node's |S+|*|S-| may fall before CustomSpectrum rejects
# it, in units of 2^-52: rounding only.  The amplitudes of a lossless NOPA
# (Nopa(e).pair) reach 3.5 below 1 over e up to 1 - 2^-52 and omega up to
# 10^4.
_PRODUCT_ULPS = 8


class CustomSpectrum(SqueezerSpectrum):
    """Squeezer defined by a tabulated transfer pair.

    Between nodes the magnitude and the unwrapped phase of each amplitude
    are interpolated linearly; a node gives its own amplitude exactly, and
    queries outside the tabulated range are rejected.  A lossless squeezer
    has V+ V- = |S+|^2 |S-|^2 >= 1, and a table whose |S+|*|S-| falls below
    1 at a node by more than rounding (_PRODUCT_ULPS units of 2^-52) is
    rejected, naming the row.  Linear magnitudes keep the bound between
    nodes: (1-t)a + tb times (1-t)c + td is at least 1 when ac and bd are.
    (Interpolating Re and Im instead lost magnitude where an amplitude
    rotates, so the spectra fell below vacuum.)
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
        if not all(map(math.isfinite, omegas)):
            raise ValueError("table frequencies must be finite")
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("table frequencies must be strictly increasing")
        self._omegas = np.array(omegas, dtype=float)
        self._s_plus = np.array(s_plus, dtype=complex)
        self._s_minus = np.array(s_minus, dtype=complex)
        if not (np.isfinite(self._s_plus).all() and np.isfinite(self._s_minus).all()):
            raise ValueError("table amplitudes must be finite")
        magnitudes = np.abs(self._s_plus), np.abs(self._s_minus)
        product = magnitudes[0] * magnitudes[1]
        low = product < 1.0 - _PRODUCT_ULPS * 2.0 ** -52
        if low.any():
            k = int(np.argmax(low))
            raise ValueError(
                f"row {k + 1} (omega={self._omegas[k]:g}): |S+|*|S-| = {float(product[k])!r} is "
                f"below 1 by more than {_PRODUCT_ULPS} units of 2^-52 (V+ V- >= 1 for a squeezer)"
            )
        phases = np.unwrap(np.angle(self._s_plus)), np.unwrap(np.angle(self._s_minus))
        self._polar = tuple(zip(magnitudes, phases))

    CSV_HEADER = ("omega", "s_plus_re", "s_plus_im", "s_minus_re", "s_minus_im")

    @classmethod
    def from_csv(cls, path_or_text: str) -> "CustomSpectrum":
        """Load a table from CSV text (anything containing a newline) or a file path."""
        omegas, pr, pi, mr, mi = read_csv(path_or_text, cls.CSV_HEADER)
        return cls(omegas, tuple(map(complex, pr, pi)), tuple(map(complex, mr, mi)))

    def pair(self, omega: float | np.ndarray) -> TransferPair:
        grid = self._omegas
        w = np.asarray(omega, dtype=float)
        outside = ~((w >= grid[0]) & (w <= grid[-1]))
        if outside.any():
            raise ValueError(
                f"frequency {np.extract(outside, w)[0]:g} outside tabulated range "
                f"[{grid[0]:g}, {grid[-1]:g}]"
            )
        hi = np.searchsorted(grid, w)
        node = grid[hi] == w
        lo = np.maximum(hi - 1, 0)
        with np.errstate(invalid="ignore"):  # 0/0 on the first node, which is exact
            t = (w - grid[lo]) / (grid[hi] - grid[lo])

        def interpolated(values: np.ndarray, polar: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
            r, phase = (v[lo] + t * (v[hi] - v[lo]) for v in polar)
            return np.where(node, values[hi], _complex(r * np.cos(phase), r * np.sin(phase)))

        return TransferPair(
            interpolated(self._s_plus, self._polar[0]), interpolated(self._s_minus, self._polar[1])
        )

    def describe(self) -> str:
        return f"custom({len(self._omegas)} rows)"


def make_epr_pair(src: SqueezerSpectrum, omega: float) -> EprQuadratures:
    """EPR pair of a source at omega, materialized as expansions."""
    pairs: dict[int, TransferPair] = {}  # both modes share each source's pair()
    x1, p1 = _terms(src, omega, (1, 0), (1, 0), pairs)
    x2, p2 = _terms(src, omega, (0, 1), (0, 1), pairs)
    return EprQuadratures(
        QuadExpansion(0j, x1),
        QuadExpansion(0j, p1),
        QuadExpansion(0j, x2),
        QuadExpansion(0j, p2),
    )
