"""Classical-vs-quantum boundary evaluations.

Four families of criteria:

* added-noise variance limits (product and sum, classical floor 4),
* output-variance product limit (9 for coherent inputs),
* conditional variance / transfer coefficient pairs,
* Gaussian fidelity against the input coherent state (classical ceiling 1/2),

plus the fidelity spectrum machinery (one array kernel over the frequency
grid) and the bandwidth extraction used for sweeps.  The least-noisy
classical channel, which saturates the floors and against which the gate
checks them, is test code, in tests/classical.py.

The kernel (_teleport_columns) weighs each EPR pair's two real spectra,
never complex amplitudes, and it serves every spectrum row, the criteria
report and the bandwidth: the report's variances and fidelity are a
kernel call at a scalar frequency, bit for bit the values of a one-row
spectrum, and its output and conditional variances and transfer
coefficients follow from the linear-channel identities.  bandwidth()
asks the kernel for many frequencies per call to narrow a bracket around
the threshold crossing, then interpolates inside it, so a width is exact
to a few ulps on a smooth source.  One sweep (_sweep) builds every kernel
table, a swap's and the command line's included, and swap_fidelity is
its one-row swap table.  teleport_fidelity acts
on quadrature expansions; the expansion reference for the conditional
variances and transfer coefficients (ralph_lam) is test code, in
tests/references.py.

Variances are normalized to vacuum = 1 throughout; Q-function widths (the
sigma arguments of the fidelity) are in absolute units where vacuum
variance is 1/4, so a coherent state has sigma = 1/2 per axis.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ._text import _json_value, read_csv, write_csv, write_json, write_json_columns
from .epr import Nopa, PortPowers, SqueezerSpectrum, _abs2
from .linmode import Axis, InputModel, normalized_variance
from .teleport import (
    _COHERENT,
    _IDEAL_DETECTOR,
    _UNIT_GAIN,
    BellDetector,
    GainSchedule,
    NonUnitGainWarning,
    TeleportOutcome,
    _one_frequency,
    as_gain,
)

__all__ = [
    "CONDITIONAL_SUM_LIMIT",
    "FIDELITY_CLASSICAL_BOUND",
    "OMEGA_LIMIT",
    "OUTPUT_PRODUCT_LIMIT",
    "TRANSFER_SUM_LIMIT",
    "VARIANCE_PRODUCT_LIMIT",
    "VARIANCE_SUM_LIMIT",
    "CriteriaReport",
    "SpectrumTable",
    "bandwidth",
    "evaluate_criteria",
    "fidelity_point",
    "fidelity_spectrum",
    "output_product_limit",
    "teleport_fidelity",
]

# Classical boundaries, in vacuum-normalized variance units.
VARIANCE_PRODUCT_LIMIT = 4.0
VARIANCE_SUM_LIMIT = 4.0
OUTPUT_PRODUCT_LIMIT = 9.0  # coherent input; see output_product_limit()
CONDITIONAL_SUM_LIMIT = 2.0
TRANSFER_SUM_LIMIT = 1.0
FIDELITY_CLASSICAL_BOUND = 0.5


def output_product_limit(in_model: InputModel) -> float:
    """Classical floor on V_out_x * V_out_p; equals 9 for coherent inputs."""
    return (math.sqrt(in_model.v_x * in_model.v_p) + 2.0) ** 2


# ---------------------------------------------------------------------------
# Fidelity


def fidelity_point(
    gain: complex | np.ndarray,
    sigma_x: float | np.ndarray,
    sigma_p: float | np.ndarray,
    alpha: complex = 0j,
) -> float | np.ndarray:
    """Coherent-state fidelity from the teleported Q function.

    F = 1/(2*sqrt(sigma_x*sigma_p)) * exp(-dx^2/(2*sigma_x) - dp^2/(2*sigma_p))
    where (dx, dp) are the components of the amplitude error (1 - gain)*alpha
    and the sigmas are Q-function variances in absolute units (vacuum 1/4,
    so a perfectly teleported coherent state has sigma = 1/2 and F = 1).
    Physical Q functions have sigma >= 1/2, which caps the formula at 1.
    The gain and the sigmas may be arrays over a frequency grid; an
    infinite sigma gives F = 0.  At alpha = 0 the result is the amplitude
    factor 1/(2*sqrt(sigma_x*sigma_p)) itself: a finite gain (every
    GainSchedule is finite) leaves a zero amplitude error, so the Gaussian
    factor is exp(-0) = 1 exactly and the product would be the same bits.
    """
    # One minimum per width (one for both when they are one array): a nan
    # minimum fails > 0 as a nan width does, and an empty grid passes.
    positive = np.minimum.reduce(sigma_x, axis=None, initial=math.inf) > 0
    if positive and sigma_p is not sigma_x:
        positive = np.minimum.reduce(sigma_p, axis=None, initial=math.inf) > 0
    if not positive:
        raise ValueError("Q-function variances must be positive")
    amp = 0.5 / np.sqrt(sigma_x * sigma_p)
    if alpha == 0:
        return amp
    # The amplitude error part by part, in real arithmetic: numpy's complex
    # multiply of arrays rounds differently from a scalar's (Python's, or a
    # numpy scalar's), and these are the scalar's bits for a gain of either
    # kind.  Squared by multiplying, as numpy squares an array: past the
    # float range a Python float's ** raises OverflowError, where the
    # product is inf for a scalar gain as for an array of them.  Over an
    # infinite width that is inf/inf, a nan the kernel's [0, 1] check
    # rejects.
    error, alpha = 1.0 - gain, complex(alpha)
    dx = error.real * alpha.real - error.imag * alpha.imag
    dp = error.real * alpha.imag + error.imag * alpha.real
    return amp * np.exp(-(dx * dx) / (2.0 * sigma_x) - (dp * dp) / (2.0 * sigma_p))


def teleport_fidelity(
    outcome: TeleportOutcome,
    in_model: InputModel | None = None,
    alpha: complex = 0j,
) -> float:
    """Fidelity of one teleportation run against a coherent input at alpha.

    The Q-function variance per axis is (V_out + 1)/4 with V_out the
    vacuum-normalized output variance: V_out/4 is the state variance in
    absolute units and the Q function adds one vacuum unit (1/4) on top.
    An alpha that is not finite, or a fidelity outside [0, 1] (nan
    included, as a non-physical input can give), raises ValueError.
    """
    if alpha != 0 and not cmath.isfinite(alpha):
        raise ValueError(f"alpha: expected a finite amplitude, got {alpha}")
    model = in_model if in_model is not None else _COHERENT
    v_out_x = normalized_variance(outcome.x_tel, model, Axis.X)
    v_out_p = normalized_variance(outcome.p_tel, model, Axis.P)
    sigma_x = (v_out_x + 1.0) / 4.0
    sigma_p = (v_out_p + 1.0) / 4.0
    f = float(fidelity_point(outcome.gain, sigma_x, sigma_p, alpha))
    if not -0.0 <= f <= 1.0 + 1e-9:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    return f


def _closed_fidelity(
    src: SqueezerSpectrum,
    omega: float | np.ndarray,
    detector: BellDetector,
    powers: PortPowers | None = None,
) -> float | np.ndarray:
    # At unit gain the noisy ports cancel exactly, so each axis carries twice
    # the quiet spectrum V- plus twice the detector noise tau^2, and any
    # source teleports a coherent state at alpha = 0 with
    # F = 1/(1 + V- + tau^2).  powers are src's own, where the kernel holds
    # them (see SqueezerSpectrum.variances).
    eta = detector.eta
    tau2 = (1.0 - eta * eta) / (eta * eta)
    return 1.0 / (1.0 + src.variances(omega, powers)[1] + tau2)


def _closed_rows(
    gain: complex | np.ndarray, in_model: InputModel, alpha: complex
) -> bool | np.ndarray:
    # The rows where the closed form is the fidelity: every unit-gain row of
    # a coherent input at alpha = 0.  The kernel and the plan read this one
    # rule.  One gain for every row gives a 0-d mask: == on a number is
    # Python's, far cheaper than np.equal's on a scalar.
    return alpha == 0 and in_model.v_x == in_model.v_p == 1.0 and np.asarray(gain == 1)


def _checked_fidelity(
    src: SqueezerSpectrum,
    omega: float | np.ndarray,
    gain: complex | np.ndarray,
    detector: BellDetector,
    in_model: InputModel,
    alpha: complex,
    generic: float | np.ndarray,
    powers: PortPowers | None,
) -> float | np.ndarray:
    # The closed form (see _closed_fidelity) is exact to a few ulps, so on
    # its rows (see _closed_rows) it replaces the float roundoff of the
    # generic Q-function fidelity, once the two agree to 1e-12.  A real
    # exception, not an assert, so python -O keeps the check.
    unit = _closed_rows(gain, in_model, alpha)
    units = np.count_nonzero(unit)
    if not units:
        return generic
    closed = _closed_fidelity(src, omega, detector, powers)
    # The largest gap on a unit row decides the check (a nan gap fails
    # it); the mask that names the first row off is built only then.
    gap = np.abs(closed - generic)
    if not np.maximum.reduce(gap, axis=None, where=unit, initial=0.0) <= 1e-12:
        off = unit & ~(gap <= 1e-12)
        raise AssertionError(
            "generic fidelity path disagrees with closed form at "
            f"omega={np.extract(off, omega)[0]}"
        )
    return closed if units == unit.size else np.where(unit, closed, generic)


# ---------------------------------------------------------------------------
# Spectra


CSV_HEADER = ("omega", "v_x", "v_p", "fidelity")


@dataclass(eq=False)
class SpectrumTable:
    """Frequency sweep of variances and fidelity, with stable serialization.

    Each column is a read-only float64 numpy array (earlier releases held
    tuples of floats), the table's own copy of any sequence of floats it
    was given, read-only arrays included; one number (a 0-d column, as
    the kernel gives at a scalar frequency) is a one-row column, and a
    column of more than one dimension is refused.  Rows are
    ascending in omega; rows() yields them as Python floats.  Two tables
    are equal when their columns are, value by value (so 0.0 equals -0.0
    and a nan equals nothing); the evaluator
    is not compared.  An optional evaluator (an array of frequencies -> the
    array of their fidelities) lets bandwidth() refine beyond the tabulated
    grid; it is attached by the sweep constructors and absent on tables
    loaded from disk.

    to_csv and to_json write each value to 12 significant digits through
    the _text writers, which format a column once when v_p is v_x itself,
    as it is on every kernel table whose v_p matches v_x (an input with
    v_x == v_p, coherent inputs and swaps included, or one gain of 1).
    Only identity says so: 0.0 and -0.0 compare equal but print
    differently.
    """

    omega: np.ndarray
    v_x: np.ndarray
    v_p: np.ndarray
    fidelity: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # v_p given as v_x itself, as the kernel gives it wherever the two
        # match, stays one array: one copy, and one text in to_csv and to_json.
        v_x = _column(self.v_x)
        v_p = v_x if self.v_p is self.v_x else _column(self.v_p)
        self.omega, self.v_x, self.v_p = _column(self.omega), v_x, v_p
        self.fidelity = _column(self.fidelity)
        self._check()

    def _check(self) -> None:
        omega = self.omega
        if not omega.ndim == self.v_x.ndim == self.v_p.ndim == self.fidelity.ndim == 1:
            raise ValueError("every column must be one-dimensional")
        if not len(omega) == len(self.v_x) == len(self.v_p) == len(self.fidelity):
            raise ValueError("all columns must have equal length")
        if len(omega) == 0:
            raise ValueError("empty spectrum table")
        # Strictly increasing from a finite first row to a finite last one is
        # finite throughout (a nan compares false), so every row is tested
        # for finiteness only once that fails, to give the right message.
        # One row is strictly increasing: only its finiteness is tested.
        increasing = len(omega) == 1 or (omega[1:] > omega[:-1]).all()
        if not (-math.inf < omega[0] and omega[-1] < math.inf and increasing):
            if not np.isfinite(omega).all():
                raise ValueError("omega column must be finite")
            raise ValueError("omega column must be strictly increasing")

    def _relabeled(self, omega: float | Sequence[float] | np.ndarray) -> "SpectrumTable":
        # These rows at other frequencies (the command line's user units),
        # with no evaluator.  The new omega is copied and checked as the
        # constructor does; the other columns are this table's own, copied
        # and read-only already, so the new table shares them.
        table = object.__new__(SpectrumTable)
        table.omega, table.v_x, table.v_p = _column(omega), self.v_x, self.v_p
        table.fidelity, table.evaluator = self.fidelity, None
        table._check()
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectrumTable):
            return NotImplemented
        mine = (self.omega, self.v_x, self.v_p, self.fidelity)
        return all(map(np.array_equal, mine, (other.omega, other.v_x, other.v_p, other.fidelity)))

    def __len__(self) -> int:
        return len(self.omega)

    def rows(self) -> Iterable[tuple[float, float, float, float]]:
        columns = (self.omega, self.v_x, self.v_p, self.fidelity)
        return zip(*(c.tolist() for c in columns))

    def to_csv(self) -> str:
        return write_csv(CSV_HEADER, (self.omega, self.v_x, self.v_p, self.fidelity))

    @classmethod
    def from_csv(cls, path_or_text: str) -> "SpectrumTable":
        """Load a table from CSV text (anything containing a newline) or a file path."""
        return cls(*read_csv(path_or_text, CSV_HEADER))

    def to_json(self) -> str:
        columns = (self.omega, self.v_x, self.v_p, self.fidelity)
        return write_json_columns(dict(zip(CSV_HEADER, columns)))


def _column(values) -> np.ndarray:
    # A table's own read-only float64 copy of a column, one number a row.
    column = np.array(values, float, ndmin=1)
    column.setflags(write=False)
    return column


class _Columns(NamedTuple):
    # The kernel's arrays over the grid (0-d at a scalar frequency): error
    # variances, fidelity, the output variances V_out = |g|^2 V_in + noise
    # and the noise itself, which is the same on both axes (see _port_noise).
    v_x: np.ndarray
    v_p: np.ndarray
    fidelity: np.ndarray
    v_out_x: np.ndarray
    v_out_p: np.ndarray
    noise: np.ndarray


def _teleport_columns(
    src: SqueezerSpectrum,
    omega: float | np.ndarray,
    gain: complex | np.ndarray,
    detector: BellDetector,
    in_model: InputModel,
    alpha: complex = 0j,
) -> _Columns:
    # The one kernel behind every spectrum row and the criteria report: the
    # variances and the fidelity of a teleport over src of a coherent
    # amplitude alpha, on a frequency grid, with gain one number or an
    # array over the grid.  A scalar frequency runs the same statements
    # and gives 0-d columns, bit for bit the values of the one-element
    # grid, since numpy rounds alike on a scalar and on an array.  One
    # noise array, summed over the source's EPR pairs from their spectra
    # (see _port_noise), serves both axes, so no (ports x omega) matrix and
    # no complex amplitude is ever held; on a symmetric input (v_x == v_p)
    # the P columns are the X arrays themselves, and at one gain of 1 the
    # error variance v_p is v_x itself on any input.  A scalar is taken as
    # a 0-d array.
    omega = np.asarray(omega, dtype=float)
    pairs = src._pairs(omega, (-gain, 1), (gain, 1))
    own = None
    if pairs[0][2] is None:
        # src is a source, its own one pair (see SqueezerSpectrum._pairs):
        # its powers, evaluated once for the port noise and the closed form.
        ((labels, _, _, x_w, p_w),) = pairs
        own = src.powers(omega)
        pairs = ((labels, src, own, x_w, p_w),)
    # A power or a weight square past the float range is a diverging noise
    # term: inf, silently; a 0*inf term is its exact zero (see _port_noise).
    # Past the port sums no term is 0*inf or inf - inf (V_in is finite and
    # positive); only fidelity_point's exponent at alpha != 0 can be inf/inf,
    # and the [0, 1] check below rejects the nan it gives.
    with np.errstate(over="ignore", invalid="ignore"):
        noise = _port_noise(pairs, omega)
        if detector.eta < 1.0:
            # Two detector vacua per photocurrent, each weighted gain*tau.
            det = _abs2(gain * detector.excess)
            noise += det
            noise += det
        mismatch, g2 = _abs2(gain - 1), _abs2(gain)
        v_x = mismatch * in_model.v_x + noise
        v_out_x = g2 * in_model.v_x + noise
        # Q-function widths (V_out + 1)/4; widths whose product passes the
        # float range give F = 0, as infinite ones do (it is below 4e-155).
        sigma_x = (v_out_x + 1.0) / 4.0
        if in_model.v_p == in_model.v_x:
            v_p, v_out_p, sigma_p = v_x, v_out_x, sigma_x
        else:
            # One gain of 1 leaves no input term on either axis: v_p is v_x.
            unit = type(mismatch) is float and mismatch == 0
            v_p = v_x if unit else mismatch * in_model.v_p + noise
            v_out_p = g2 * in_model.v_p + noise
            sigma_p = (v_out_p + 1.0) / 4.0
        generic = fidelity_point(gain, sigma_x, sigma_p, alpha)
    # The extremes decide the check (a nan one fails it); the mask that
    # names the first value outside is built only then.  The ufuncs reduce
    # a scalar as cheaply as an array, where the methods do not.
    low = np.minimum.reduce(generic, axis=None, initial=0.0)
    high = np.maximum.reduce(generic, axis=None, initial=1.0)
    if not (low >= 0.0 and high <= 1.0 + 1e-9):
        inside = (generic >= 0.0) & (generic <= 1.0 + 1e-9)
        raise ValueError(f"fidelity {np.extract(~inside, generic)[0]} outside [0, 1]")
    f = _checked_fidelity(src, omega, gain, detector, in_model, alpha, generic, own)
    return _Columns(v_x, v_p, f, v_out_x, v_out_p, noise)


def _port_noise(pairs: tuple, omega: np.ndarray) -> np.ndarray:
    # Each EPR pair, weighted (a, b) on X, adds (|a+b|^2 V+ + |a-b|^2 V-)/2,
    # its rotated ports' weights a*first + b*second squared (see epr._rotated)
    # over its two spectra V+-, each a squeezed plus a loss port's power.
    # That is the noise of P too: the kernel weighs every pair (-a, b) on P,
    # the swapped pair's included (see swap._SwappedPair._pairs), and
    # (|-a+b|^2 V- + |-a-b|^2 V+)/2 has the same terms bit for bit, since
    # negation is exact, at any gain, complex or per frequency; so the P
    # weights are never read.  A constant zero weight skips its term; a
    # term is exactly zero wherever its weight or its spectrum is, even
    # where a finite weight's square passed the float range.
    # [()] takes a 0-d array's numpy scalar, whose arithmetic costs a tenth
    # of the 0-d array's; an array stays an array (a view), summed in place.
    noise = np.zeros(omega.shape)[()]
    for _, _, powers, (a, b), _ in pairs:
        plus, minus = powers.variances()
        noise += _weighted(a + b, plus) + _weighted(a - b, minus)
    noise *= 0.5
    return noise


def _weighted(w: complex | np.ndarray, spectrum: float | np.ndarray) -> float | np.ndarray:
    # |w|^2 times the spectrum, with the one exact-zero rule, that of
    # _port_noise and of the swapped pair's quiet spectrum: zero wherever
    # the weight or the spectrum is.  It differs from the plain product
    # only at 0*inf and 0*nan, where that is nan, so only a nan in it asks
    # for the mask.
    w2 = _abs2(w)
    if type(w2) is float and w2 < math.inf:
        return w2 * spectrum if w2 != 0 else 0.0
    product = w2 * spectrum
    if np.isnan(product).any():
        product = np.where((w2 == 0) | (spectrum == 0), 0.0, product)
    return product


def _sweep(
    resource: Callable[[np.ndarray], SqueezerSpectrum],
    grid: float | Sequence[float] | np.ndarray,
    gain: GainSchedule | complex,
    detector: BellDetector,
    model: InputModel,
    threshold: float | None = None,
) -> SpectrumTable:
    # The kernel's table of a teleport over resource(omega) on grid, with
    # the kernel on the frequencies asked for as its evaluator; one number
    # for grid is a one-row table from one scalar kernel call.  Given a
    # threshold, where the one gain of the schedule is unit on a coherent
    # input (the closed form is then the fidelity on every row, see
    # _closed_rows), the table is built on the rows that bandwidth() would
    # ask its evaluator for up to and including its first refinement (see
    # _bandwidth_grid), planned on the closed form before the kernel runs.
    # The kernel works row by row and its fidelity on these rows is the
    # closed form bit for bit, so they are the rows those calls would
    # merge, and bandwidth() reads the same width from the table with those
    # calls fewer.  The command line asks for this plan only where the
    # width has no closed root (see _closed_width), or the kernel did not
    # confirm it: a lossy swap's, at any swap gain, and a swap's at a fixed
    # one.
    _check_omega(grid)
    schedule = as_gain(gain)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim > 1:
        raise ValueError(
            f"omega: expected one frequency or a one-dimensional grid, got shape {grid.shape}"
        )
    gains, src = schedule.at(grid), resource(grid)
    if threshold is not None and schedule.fn is None and _closed_rows(gains, model, 0j):
        closed = _closed_fidelity(src, grid, detector)
        planned = _bandwidth_grid(
            grid, closed, threshold, lambda w: _closed_fidelity(resource(w), w, detector)
        )
        if planned is not grid:
            grid, src = planned, resource(planned)

    def fidelity(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).reshape(-1)
        return _teleport_columns(resource(w), w, schedule.at(w), detector, model).fidelity

    values = _teleport_columns(src, grid, gains, detector, model)
    if np.count_nonzero(gains != 1):  # a row off unit gain
        warnings.warn(
            "nonunit gain: the v_x/v_p columns include the gain-mismatch "
            "input term and are not error spectra",
            NonUnitGainWarning,
            stacklevel=3,
        )
    return SpectrumTable(grid, values.v_x, values.v_p, values.fidelity, evaluator=fidelity)


def fidelity_spectrum(
    src: SqueezerSpectrum,
    omegas: Sequence[float] | np.ndarray,
    gain: GainSchedule | complex = _UNIT_GAIN,
    detector: BellDetector = _IDEAL_DETECTOR,
    in_model: InputModel | None = None,
) -> SpectrumTable:
    """Sweep the teleporter over a frequency grid.

    Rows carry the per-axis added-noise variances and the coherent-state
    fidelity, computed for the whole grid at once.  At unit gain on
    coherent inputs the fidelity column is the closed form
    1/(1 + V- + tau^2) of the source's quiet spectrum, cross-checked
    against the generic Q-function path on every row; otherwise the generic
    path stands alone.  A frequency that is not finite, or of magnitude
    past OMEGA_LIMIT, raises ValueError before any source is evaluated.
    """
    model = in_model if in_model is not None else _COHERENT
    return _sweep(lambda w: src, omegas, gain, detector, model)


def bandwidth(spectrum: SpectrumTable, threshold: float = 0.51) -> float:
    """Full width 2*omega_max of the region where fidelity >= threshold.

    Assumes the spectrum decreases away from omega = 0 (true for every
    source here).  The crossing is bracketed on the grid, or beyond it by
    doubling the last frequency up to OMEGA_LIMIT (see _doubling), and the
    bracket is narrowed with the table's evaluator until it is at most
    1e-6 wide: each call takes an even grid across the bracket and a
    stencil of points 5e-7 apart around the crossing that the rows next to
    it predict (see _refinement_points), and the bracket becomes the pair
    of neighbouring rows that straddles the threshold.  On a table of the
    plain grid a smooth crossing on the grid takes one call, one in the
    first octave past the grid two (the first doubling call and one
    refinement), one further out four; at one unit gain on a coherent
    input the command line plans the row at omega = 0 or the doubling, and
    the first refinement, into its table (see _sweep), so a width there
    takes about one kernel call.  The command line searches only widths
    with no closed root, lossy and fixed-gain swaps among them: a unit-gain
    teleport of a coherent input over a Nopa and an optimal-gain swap of a
    lossless one take the root in closed form, which one kernel call on
    the two rows around it confirms.  The width is twice the crossing
    that the rows next to the final bracket predict, which is exact to a
    few ulps on a smooth source; it lies inside that bracket whatever the
    evaluator.  Tables without an evaluator fall back to linear
    interpolation between the bracketing rows.  A first row below
    threshold returns 0 at omega <= 0; past omega = 0 the evaluator is
    asked for omega = 0, and the width is 0 if that is below threshold
    too, else [0, first row] is the bracket (without an evaluator this
    raises ValueError, naming the first row's frequency).  Returns
    math.inf when the evaluator never drops below threshold up to
    OMEGA_LIMIT (a threshold at or below the large-omega limit of the
    fidelity: 1/2 at unit gain, 1/(1 + g^2) at fixed gain g).  A nan (or
    inf) row next to the final bracket raises ValueError, naming its
    frequency, and a threshold that is not finite raises ValueError before
    the table is read.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: expected a finite number, got {threshold}")
    ev = spectrum.evaluator
    om, fs, c = _bracketed(spectrum.omega, spectrum.fidelity, threshold, ev)
    if c == 0:
        return 0.0
    if c == len(om):
        return math.inf
    # The rows are sorted by frequency, and the bracket is rows c - 1 and c,
    # the first row below threshold and its neighbour: no row lies inside.
    # Only the rows around it are read (see _window).
    om, fs, c = _window(om, fs, c)
    om, fs = om.tolist(), fs.tolist()
    if ev is None:
        crossing = _secant(om[c - 1], fs[c - 1], om[c], fs[c], threshold)
    else:
        while om[c] - om[c - 1] > _STOP:
            points = _refinement_points(om, fs, c, threshold)
            if not len(points):
                break  # lo and hi are neighbouring floats, more than _STOP apart
            values = ev(points).tolist()
            om[c:c], fs[c:c] = points.tolist(), values
            # The first new row below threshold, or hi if none is.
            c += next((k for k, f in enumerate(values) if f < threshold), len(values))
            om, fs, c = _window(om, fs, c)
        crossing = _crossing(om, fs, c, threshold)
    # Row c is below threshold, so only a nan or inf row c - 1 gives a nan.
    if math.isnan(crossing):
        raise ValueError(f"fidelity {fs[c - 1]} at omega={om[c - 1]} next to the crossing")
    return 2.0 * crossing


def _window(om, fs, c: int):
    # The rows (om, fs) within _GUESS_ROWS // 2 of the bracket of rows
    # c - 1 and c, at most _GUESS_ROWS of them, and c among them: every row
    # that _crossing reads, and so every row the width search reads.
    start = max(c - _GUESS_ROWS // 2, 0)
    rows = slice(start, c + _GUESS_ROWS // 2)
    return om[rows], fs[rows], c - start


def _bracketed(
    om: np.ndarray, fs: np.ndarray, threshold: float, ev: Callable[[np.ndarray], np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray, int]:
    # The rows (om, fs) that bandwidth() brackets the crossing on before it
    # refines, and c, the first of them below threshold: the table's rows,
    # with ev's row at omega = 0 in front where the first row is below
    # threshold past omega = 0, or with the doubling rows past them (see
    # _doubling) where no row is below.  c = 0 is a width of 0, and
    # c = len(om) a fidelity that never drops below threshold up to
    # OMEGA_LIMIT.
    below = fs < threshold
    if below[0]:
        if not om[0] > 0:
            return om, fs, 0
        if ev is None:
            raise ValueError(
                f"fidelity below threshold from the first row, omega={om[0]}, "
                "and no evaluator is attached to read omega = 0"
            )
        f0 = ev(np.zeros(1))
        return np.concatenate(([0.0], om)), np.concatenate((f0, fs)), int(not f0[0] < threshold)
    if not below.any():
        if ev is None:
            raise ValueError(
                "fidelity stays above threshold across the table and no "
                "evaluator is attached to extend it"
            )
        om, fs = _doubling(ev, om, fs, threshold)
        below = fs < threshold
    c = int(np.argmax(below))
    return om, fs, c if below[c] else len(om)


def _bandwidth_grid(
    grid: np.ndarray,
    fidelity: np.ndarray,
    threshold: float,
    closed: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    # The rows of bandwidth()'s calls on the table of grid up to and
    # including its first refinement, fidelity being that table's column
    # and closed its evaluator (see _sweep): the rows it brackets on (see
    # _bracketed), then, where that bracket is wider than _STOP, the
    # frequencies of the first refinement merged in.  Rows added to grid
    # stand only where they stay strictly increasing, as a table's must:
    # they repeat where the floats are coarser than the octave below the
    # first doubling candidate, near the smallest subnormals, or than the
    # stencil, past about 4e9; the plan is then grid itself.
    om, fs, c = _bracketed(grid, fidelity, threshold, closed)
    if 0 < c < len(om) and om[c] - om[c - 1] > _STOP:
        near, near_fs, k = _window(om, fs, c)
        points = _refinement_points(near.tolist(), near_fs.tolist(), k, threshold)
        om = np.concatenate((om[:c], points, om[c:]))
    return om if om is grid or (om[1:] > om[:-1]).all() else grid


def _closed_width(
    src: SqueezerSpectrum,
    threshold: float,
    detector: BellDetector = _IDEAL_DETECTOR,
    swap: bool = False,
) -> float | None:
    # The crossing in closed form: the frequency omega >= 0 up to which
    # F >= threshold, 0 where F(0) is below it, inf where F stays at or above
    # it up to OMEGA_LIMIT; None where src has no closed root.  The caller
    # answers for the setting, and the kernel for the value (the command
    # line reads F on the rows around the crossing).  For a unit-gain
    # teleport of a coherent input over a Nopa (e, b) on detector,
    # F = 1/(1 + V- + tau^2) (see _closed_fidelity) with
    # V- = 1 - 4eb/((1 + e)^2 + omega^2), so
    #     omega^2 = 4eb/k - (1 + e)^2,  k = 2 + tau^2 - 1/threshold.
    # With swap, for src swapped with itself at the optimal gain where src
    # is lossless (b = 1): V+ V- = 1 makes V-_eff = 2/(V+ + V-), and
    #     omega^2 = 2e(sqrt(1 + 4/k) - 1) - (1 - e)^2,
    #     k = 2(2 threshold - 1)/(1 - threshold).
    # Both are taken without cancellation in k: near threshold 1/2 the
    # differences 2 threshold - 1 and 1 - threshold are exact, and so is
    # 1 - eta in tau^2 = (1 - eta)(1 + eta)/eta^2.  omega^2 is taken in
    # exact Fractions (some 25 us, against 1 us in floats) where k's terms
    # have opposite signs (a teleport below threshold 1/2 on a lossy
    # detector), or where the last subtraction would lose more than two
    # bits: it cancels as F(0) nears the threshold.  Otherwise, the terms
    # of omega^2 being within 8u of their values (u = 2^-53), omega^2 is
    # within 48u and omega within 25u.
    if type(src) is not Nopa or swap and src.beta != 1.0:
        return None
    e, b = src.epsilon, src.beta
    if swap:
        if not threshold < 1.0:
            return 0.0  # F <= 1, and F = 1 only at omega = 0
        if not threshold > 0.5:
            return math.inf  # F > 1/2
        u = 2.0 * (1.0 - threshold) / (2.0 * threshold - 1.0)  # 4/k
        q = 2.0 * e * u / (math.sqrt(1.0 + u) + 1.0)
        square = q - (1.0 - e) ** 2
        exact = q > 4.0 * abs(square)
    else:
        if not threshold > 0.0:
            return math.inf  # F > 0
        eta = detector.eta
        tau2 = (1.0 - eta) * (1.0 + eta) / (eta * eta)
        k = (2.0 * threshold - 1.0) / threshold + tau2
        exact = threshold < 0.5 and tau2 > 0.0  # k's terms of opposite signs
        if not exact:
            if not k > 0.0:
                return math.inf  # F(inf) = 1/(2 + tau^2) is at or above threshold
            q = 4.0 * e * b / k
            square = q - (1.0 + e) ** 2
            exact = q > 4.0 * abs(square)
    if exact:
        # Imported here: fractions, with the decimal module it loads, adds
        # about 2 ms to the start of every command.
        from fractions import Fraction

        t, e = Fraction(threshold), Fraction(e)
        if swap:
            u = 2 * (1 - t) / (2 * t - 1)
            n, d = (1 + u).as_integer_ratio()
            root = Fraction(math.isqrt(n * d << 256), d << 128)  # to 2^-128 of itself
            square = float(2 * e * u / (root + 1) - (1 - e) ** 2)
        else:
            eta2 = Fraction(detector.eta) ** 2
            k = 2 + (1 - eta2) / eta2 - 1 / t
            if not k > 0:
                return math.inf
            square = float(4 * e * Fraction(b) / k - (1 + e) ** 2)
    if not square > 0.0:
        return 0.0
    crossing = math.sqrt(square)
    return crossing if crossing < OMEGA_LIMIT else math.inf


# The frequency past which bandwidth() stops doubling, and above which every
# sweep, report and command rejects a frequency: the sources square it, and
# from about 1.3e154 on the square passes the float range.
OMEGA_LIMIT = 1e154


def _check_omega(omega: float | Sequence[float] | np.ndarray) -> None:
    # The one rule for the frequencies asked of a sweep or a report, the
    # command line's: finite, and of magnitude at most OMEGA_LIMIT, checked
    # before any source is evaluated.  A plain number is tested in Python,
    # at no measurable cost; a nan fails either test.  Anything else is
    # reduced in float64: a narrower float would cast OMEGA_LIMIT past its
    # own range, and an int past the float range is out of range too.
    if type(omega) is float:
        largest = abs(omega)
    else:
        try:
            largest = np.maximum.reduce(np.abs(omega), axis=None, initial=0.0, dtype=float)
        except OverflowError:
            largest = math.inf
    if not largest <= OMEGA_LIMIT:
        bad = next(w for w in np.ravel(omega).tolist() if not abs(w) <= OMEGA_LIMIT)
        raise ValueError(
            f"omega: {bad!r} is not a finite frequency of magnitude at most {OMEGA_LIMIT:g}"
        )


_STOP = 1e-6  # bandwidth() narrows its bracket to this width
# Points of the even grid that every evaluator call takes across the
# bracket (and the first doubling call across the octave below its
# candidate): a guess that misses still shrinks the bracket 64-fold.
_GRID = 63
# Stencil points on either side of the guess, _STOP/2 apart: a guess that
# misses the crossing by up to 16 stop widths still finishes in one call.
_STENCIL = 32
# Rows around the bracket that predict the crossing: the degree-7 inverse
# polynomial through 8 rows of a smooth grid misses by under _STOP on most
# crossings, where the cubic through 4 missed by several.
_GUESS_ROWS = 8
# The stencil's offsets from the guess.
_OFFSETS = 0.5 * _STOP * np.arange(-_STENCIL, _STENCIL + 1)
# The even grid across [lo, hi] is _FRACTIONS * ((hi - lo) / (_GRID + 1))
# + lo, numpy's own linspace formula without linspace's per-call cost: the
# same bits wherever the step is not 0 (that is, but for subnormal ends).
_FRACTIONS = np.arange(1.0, _GRID + 1)


def _doubling(
    ev: Callable[[np.ndarray], np.ndarray], om: np.ndarray, fs: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    # The rows (om, fs) of a grid that never drops below threshold, extended
    # by the doubling candidates past its last row up to OMEGA_LIMIT and by
    # an even grid of _GRID rows across the first octave [last row, first
    # candidate].  The first call takes the first candidate with that
    # octave, since most crossings past a grid lie within an octave of it:
    # its rows then bracket the crossing as finely as a grid does.  A second
    # call takes every other candidate.  An evaluator with a finite range
    # (a CustomSpectrum table) may reject that call for candidates past the
    # crossing; then the rest go one at a time, stopping at the first below
    # threshold as one-point doubling does, so nothing past it is asked for
    # and a frequency the one-point search would reach still raises.  The
    # first call asks for nothing past the first candidate, which comes
    # first so that an evaluator rejecting it names it, as the one-point
    # search does.
    last = float(om[-1])
    first = last * 2.0 if last > 0 else 1.0
    # Counted from the binary exponents: OMEGA_LIMIT / first passes the
    # float range once first is below about 1e-154.
    count = math.frexp(OMEGA_LIMIT)[1] - math.frexp(first)[1] + 1
    candidates = np.ldexp(first, np.arange(count))
    candidates = candidates[candidates <= OMEGA_LIMIT]
    if not len(candidates):
        return om, fs
    octave = _FRACTIONS * ((first - last) / (_GRID + 1)) + last
    values = ev(np.concatenate(([first], octave)))
    found = [values[:1]]
    if values[0] >= threshold and len(candidates) > 1:
        try:
            found.append(ev(candidates[1:]))
        except Exception:
            for k in range(1, len(candidates)):
                found.append(ev(candidates[k : k + 1]))
                if found[-1][0] < threshold:
                    break
    found = np.concatenate(found)
    return (
        np.concatenate((om, octave, candidates[: len(found)])),
        np.concatenate((fs, values[1:], found)),
    )


def _secant(lo: float, f_lo: float, hi: float, f_hi: float, threshold: float) -> float:
    # Where the chord through (lo, f_lo) and (hi, f_hi) meets threshold.
    return lo + (f_lo - threshold) * (hi - lo) / (f_lo - f_hi)


def _refinement_points(om: list, fs: list, c: int, threshold: float) -> np.ndarray:
    # The frequencies of one evaluator call on the bracket of rows c - 1 and
    # c: the stencil around the crossing that the rows next to it predict,
    # and the even grid of _GRID points across the bracket outside the
    # stencil; those strictly inside the bracket, sorted as the rows are.
    # None where lo and hi are neighbouring floats, more than _STOP apart,
    # nor where the guess is nan (a nan row next to the bracket).
    lo, hi = om[c - 1], om[c]
    guess = _crossing(om, fs, c, threshold)
    if math.isnan(guess):
        return _OFFSETS[:0]
    stencil = guess + _OFFSETS
    grid = _FRACTIONS * ((hi - lo) / (_GRID + 1)) + lo
    first, last = grid.searchsorted(stencil[0]), grid.searchsorted(stencil[-1], "right")
    points = np.concatenate((grid[:first], stencil, grid[last:]))
    return points[points.searchsorted(lo, "right") : points.searchsorted(hi)]


def _crossing(om: list, fs: list, c: int, threshold: float) -> float:
    # The crossing inside the bracket of rows c - 1 and c: the inverse
    # polynomial through the rows around it, at most _GUESS_ROWS of them
    # (see _window), or, where that falls outside the bracket (or does not
    # exist), the secant through the bracket, clamped inside it.
    x = _inverse_guess(om, fs, threshold)
    lo, hi = om[c - 1], om[c]
    if lo <= x <= hi:
        return x
    return min(max(_secant(lo, fs[c - 1], hi, fs[c], threshold), lo), hi)


def _inverse_guess(xs: Sequence[float], fs: Sequence[float], threshold: float) -> float:
    # The crossing by inverse interpolation: the polynomial x(f) through the
    # rows around the bracket, evaluated at the threshold; nan when two rows
    # share a fidelity and x(f) does not exist.  Past that check the
    # fidelities are distinct, so g != f skips exactly the row's own factor
    # (a nan row makes every term nan either way).
    if len(set(fs)) < len(fs):
        return math.nan
    gaps = [threshold - g for g in fs]
    guess = 0.0
    for x, f in zip(xs, fs):
        for g, gap in zip(fs, gaps):
            if g != f:
                x *= gap / (f - g)
        guess += x
    return guess


# ---------------------------------------------------------------------------
# Combined report


@dataclass(frozen=True)
class CriteriaReport:
    """Every boundary quantity for one teleportation setting.

    Verdicts are recomputed from the stored values against the quoted
    classical limits (4, 9, 2, 1, 1/2); True means the classical bound is
    beaten.  avg_fidelity_zero records the plane-averaged-fidelity rule:
    any nonunit gain drives the average over all coherent amplitudes to 0,
    however good the per-state fidelity looks.
    """

    omega: float
    gain: complex
    eta: float
    v_x: float
    v_p: float
    v_out_x: float
    v_out_p: float
    v_c_x: float
    v_c_p: float
    t_x: float
    t_p: float
    fidelity: float
    out_product_limit: float
    avg_fidelity_zero: bool

    @property
    def v_product(self) -> float:
        return self.v_x * self.v_p

    @property
    def v_sum(self) -> float:
        return self.v_x + self.v_p

    @property
    def v_out_product(self) -> float:
        return self.v_out_x * self.v_out_p

    @property
    def verdicts(self) -> dict[str, bool]:
        return {
            "variance_product": self.v_product < VARIANCE_PRODUCT_LIMIT,
            "variance_sum": self.v_sum < VARIANCE_SUM_LIMIT,
            "output_product": self.v_out_product < self.out_product_limit,
            "conditional_sum": self.v_c_x + self.v_c_p < CONDITIONAL_SUM_LIMIT,
            "transfer_sum": self.t_x + self.t_p > TRANSFER_SUM_LIMIT,
            "fidelity": self.fidelity > FIDELITY_CLASSICAL_BOUND,
        }

    def to_json(self) -> str:
        """write_json of the report's payload, byte for byte, from one template.

        The payload is every field, with the gain as a number (as [re, im]
        when its imaginary part is not 0), plus v_product, v_sum,
        v_out_product and the verdicts.  Its key set is fixed, so its text
        is one % over _REPORT_JSON, each value in key order as write_json
        writes it (a value json cannot write raises the same TypeError).
        A P-axis float that is its X twin's object (as evaluate_criteria
        gives them on a symmetric input) is formatted once, for both.
        """
        gain = self.gain
        gain = gain.real if gain.imag == 0 else [gain.real, gain.imag]
        v_product, v_sum, v_out_product = self.v_product, self.v_sum, self.v_out_product
        verdicts = self.verdicts
        t_p, v_c_p, v_out_p, v_p = self.t_p, self.v_c_p, self.v_out_p, self.v_p
        return _REPORT_JSON % (
            _json_value(self.avg_fidelity_zero),
            _json_value(self.eta),
            _json_value(self.fidelity),
            _json_value(gain),
            _json_value(self.omega),
            _json_value(self.out_product_limit),
            (t_p_text := _json_value(t_p)),
            t_p_text if self.t_x is t_p else _json_value(self.t_x),
            (v_c_p_text := _json_value(v_c_p)),
            v_c_p_text if self.v_c_x is v_c_p else _json_value(self.v_c_x),
            (v_out_p_text := _json_value(v_out_p)),
            _json_value(v_out_product),
            v_out_p_text if self.v_out_x is v_out_p else _json_value(self.v_out_x),
            (v_p_text := _json_value(v_p)),
            _json_value(v_product),
            _json_value(v_sum),
            v_p_text if self.v_x is v_p else _json_value(self.v_x),
            *[_json_value(verdicts[key], "\n    ") for key in _VERDICT_KEYS],
        )

    def _relabeled(self, omega: float) -> "CriteriaReport":
        # This report at another frequency label (the command line's user
        # units).  The instance dict is copied with the new omega, as
        # SpectrumTable._relabeled shares its columns: dataclasses.replace
        # would rerun the frozen __init__ over every field.
        report = object.__new__(CriteriaReport)
        report.__dict__.update(self.__dict__, omega=omega)
        return report


# The verdicts in key order, and CriteriaReport.to_json's text: write_json's
# own layout of the payload's keys, each value a %s.
_VERDICT_KEYS = (
    "conditional_sum", "fidelity", "output_product", "transfer_sum",
    "variance_product", "variance_sum",
)
_REPORT_JSON = write_json(
    dict.fromkeys([*CriteriaReport.__dataclass_fields__, "v_product", "v_sum", "v_out_product"], 0)
    | {"verdicts": dict.fromkeys(_VERDICT_KEYS, 0)}
).replace(": 0", ": %s")


def evaluate_criteria(
    src: SqueezerSpectrum,
    omega: float = 0.0,
    gain: GainSchedule | complex = _UNIT_GAIN,
    detector: BellDetector = _IDEAL_DETECTOR,
    in_model: InputModel | None = None,
    alpha: complex = 0j,
) -> CriteriaReport:
    """Run one teleportation and score it against every classical boundary.

    One call of the spectrum kernel at the scalar frequency omega gives
    the error variances, the fidelity and the output variances; at
    alpha = 0 the first three are the one-row fidelity_spectrum values
    bit for bit.  The conditional variances and transfer coefficients
    follow from the output variances (see _conditional).  Where the
    kernel gives one column for both axes and the input is symmetric
    (v_x == v_p), the report's v_p, v_out_p, v_c_p and t_p are the X-axis
    float objects themselves, the bits _conditional would give P, so
    to_json formats each once.  omega is one frequency: the report keeps
    a Python int or float as given and holds a numpy scalar or 0-d array
    as its float64 value.  An omega that is an array of another shape, or
    not finite, or of magnitude past OMEGA_LIMIT, or an alpha that is not
    finite raises ValueError before any source is evaluated.
    """
    _check_omega(omega)
    omega = _one_frequency(omega)
    # An infinite amplitude makes the amplitude error 0*inf or inf/inf, a
    # nan fidelity; the default 0 costs one comparison.
    if alpha != 0 and not cmath.isfinite(alpha):
        raise ValueError(f"alpha: expected a finite amplitude, got {alpha}")
    model = in_model if in_model is not None else _COHERENT
    g = as_gain(gain).at(omega)
    cols = _teleport_columns(src, omega, g, detector, model, alpha)
    v_x, v_out_x, noise = float(cols.v_x), float(cols.v_out_x), float(cols.noise)
    v_c_x, t_x = _conditional(v_out_x, noise, g, model.v_x)
    if cols.v_p is cols.v_x and model.v_p == model.v_x:
        v_p, v_out_p, v_c_p, t_p = v_x, v_out_x, v_c_x, t_x
    else:
        v_p, v_out_p = float(cols.v_p), float(cols.v_out_p)
        v_c_p, t_p = _conditional(v_out_p, noise, g, model.v_p)
    return CriteriaReport(
        omega=omega,
        gain=g,
        eta=detector.eta,
        v_x=v_x,
        v_p=v_p,
        v_out_x=v_out_x,
        v_out_p=v_out_p,
        v_c_x=v_c_x,
        v_c_p=v_c_p,
        t_x=t_x,
        t_p=t_p,
        fidelity=float(cols.fidelity),
        out_product_limit=output_product_limit(model),
        avg_fidelity_zero=g != 1,
    )


def _conditional(
    v_out: float, noise: float, gain: complex, v_in: float
) -> tuple[float, float]:
    # (V_c, T) of one axis of a linear channel out = gain*in + noise, from
    # its output variance and its noise: the in-out covariance is
    # C = Re(gain)*V_in, so V_c = V_out - C^2/V_in = Im(gain)^2 V_in + noise
    # and T = |gain|^2 V_in/V_out, as ralph_lam computes them on the
    # expansions; a zero output has V_c = T = 0.  V_c is taken as the sum:
    # the difference cancels once V_in dwarfs the noise.  A gain whose
    # signal term |gain|^2 V_in overflows leaves T = inf/inf: an
    # OverflowError, which the command line reports as a --gain error.
    if v_out == 0.0:
        return 0.0, 0.0
    v_c, t = gain.imag * gain.imag * v_in + noise, _abs2(gain) * v_in / v_out
    if math.isnan(v_c) or math.isnan(t):
        raise OverflowError(f"gain {gain} takes the output variance past the float range")
    return v_c, t
