"""Classical-vs-quantum boundary evaluations.

Four families of criteria:

* added-noise variance limits (product and sum, classical floor 4),
* output-variance product limit (9 for coherent inputs),
* conditional variance / transfer coefficient pairs,
* Gaussian fidelity against the input coherent state (classical ceiling 1/2),

plus the least-noisy classical channel model that saturates the floors, the
fidelity spectrum machinery (one array kernel over the frequency grid), and
the bandwidth extraction used for sweeps.

The kernel (_teleport_columns) sums real port powers, never complex
amplitudes, and it serves every spectrum row and the criteria report: the
report's variances and fidelity are a one-point kernel call, bit for bit
the values of a one-row spectrum, and its output and conditional variances
and transfer coefficients follow from the linear-channel identities.  The
functions that act on quadrature expansions (ralph_lam,
teleport_fidelity, classical_objective) remain as their references.

Variances are normalized to vacuum = 1 throughout; Q-function widths (the
sigma arguments of the fidelity) are in absolute units where vacuum
variance is 1/4, so a coherent state has sigma = 1/2 per axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ._text import read_csv, write_json, write_json_columns
from .epr import SqueezerSpectrum, _abs2
from .linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    covariance,
    difference_variance,
    normalized_variance,
    unit_input,
)
from .teleport import (
    BellDetector,
    GainSchedule,
    NonUnitGainWarning,
    TeleportOutcome,
    as_gain,
)

__all__ = [
    "CONDITIONAL_SUM_LIMIT",
    "FIDELITY_CLASSICAL_BOUND",
    "OUTPUT_PRODUCT_LIMIT",
    "TRANSFER_SUM_LIMIT",
    "VARIANCE_PRODUCT_LIMIT",
    "VARIANCE_SUM_LIMIT",
    "ClassicalModelParams",
    "CriteriaReport",
    "FidelityPoint",
    "OBJECTIVES",
    "RalphLamResult",
    "SpectrumTable",
    "bandwidth",
    "classical_model",
    "classical_objective",
    "evaluate_criteria",
    "fidelity_point",
    "fidelity_spectrum",
    "grid_search_classical",
    "nopa_fidelity_spectrum",
    "optimize_classical",
    "output_product_limit",
    "ralph_lam",
    "teleport_fidelity",
]

# Classical boundaries, in vacuum-normalized variance units.
VARIANCE_PRODUCT_LIMIT = 4.0
VARIANCE_SUM_LIMIT = 4.0
OUTPUT_PRODUCT_LIMIT = 9.0  # coherent input; see output_product_limit()
CONDITIONAL_SUM_LIMIT = 2.0
TRANSFER_SUM_LIMIT = 1.0
FIDELITY_CLASSICAL_BOUND = 0.5


# ---------------------------------------------------------------------------
# Least-noisy classical channel


@dataclass(frozen=True)
class ClassicalModelParams:
    """Splitting ratios and gains of the classical measure-and-resend channel.

    s_a is the sender's asymmetric measurement split, s_b the receiver's
    noise split; both strictly positive.  Gains default to unit, the only
    regime in which the variance limits apply.
    """

    s_a: float = 1.0
    s_b: float = 1.0
    gamma_x: float = 1.0
    gamma_p: float = 1.0

    def __post_init__(self) -> None:
        if self.s_a <= 0 or self.s_b <= 0:
            raise ValueError("splitting parameters s_a, s_b must be positive")


def classical_model(params: ClassicalModelParams) -> tuple[QuadExpansion, QuadExpansion]:
    """Output expansions of the least noisy linear classical channel.

    The sender measures both quadratures through an s_a split, the receiver
    reconstructs through an s_b split:

        X_out = gx*X_in + (gx/s_a)*X_a + (1/s_b)*X_b
        P_out = gp*P_in - (gp*s_a)*P_a + s_b*P_b

    with two fresh vacua a, b.  The commutator pairing is 1 for any gains,
    so the channel is a legitimate quantum map; it merely has no shared
    entanglement.
    """
    gx, gp = params.gamma_x, params.gamma_p
    x_out = QuadExpansion(
        complex(gx),
        {
            ("a", Axis.X): complex(gx / params.s_a),
            ("b", Axis.X): complex(1.0 / params.s_b),
        },
    )
    p_out = QuadExpansion(
        complex(gp),
        {
            ("a", Axis.P): complex(-gp * params.s_a),
            ("b", Axis.P): complex(params.s_b),
        },
    )
    return x_out, p_out


OBJECTIVES = ("product", "sum", "out_product", "out_sum")


def classical_objective(
    params: ClassicalModelParams, in_model: InputModel, objective: str
) -> float:
    """Evaluate one of the four boundary objectives for given parameters.

    "product"/"sum" act on the added-noise (out minus in) variances,
    "out_product"/"out_sum" on the raw output variances.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    x_out, p_out = classical_model(params)
    if objective in ("product", "sum"):
        vx = difference_variance(x_out, in_model, Axis.X)
        vp = difference_variance(p_out, in_model, Axis.P)
    else:
        vx = normalized_variance(x_out, in_model, Axis.X)
        vp = normalized_variance(p_out, in_model, Axis.P)
    return vx * vp if objective.endswith("product") else vx + vp


def output_product_limit(in_model: InputModel) -> float:
    """Classical floor on V_out_x * V_out_p; equals 9 for coherent inputs."""
    return (math.sqrt(in_model.v_x * in_model.v_p) + 2.0) ** 2


def optimize_classical(
    in_model: InputModel, objective: str
) -> tuple[ClassicalModelParams, float]:
    """Closed-form optimum of a classical objective at unit gain.

    product: 4 for any s_a = s_b.  sum: 4 at s_a = s_b = 1.
    out_product: (sqrt(v_x*v_p) + 2)^2 at s_a = s_b = (v_p/v_x)^(1/4).
    out_sum: v_x + v_p + 4 at s_a = s_b = 1.

    A local multiplicative grid around the optimum double checks that no
    neighboring parameter choice does better.
    """
    vx, vp = in_model.v_x, in_model.v_p
    if objective == "product":
        params, value = ClassicalModelParams(1.0, 1.0), 4.0
    elif objective == "sum":
        params, value = ClassicalModelParams(1.0, 1.0), 4.0
    elif objective == "out_product":
        s = (vp / vx) ** 0.25
        params, value = ClassicalModelParams(s, s), (math.sqrt(vx * vp) + 2.0) ** 2
    elif objective == "out_sum":
        params, value = ClassicalModelParams(1.0, 1.0), vx + vp + 4.0
    else:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    attained = classical_objective(params, in_model, objective)
    if not math.isclose(attained, value, rel_tol=1e-12, abs_tol=1e-12):
        raise AssertionError(
            f"closed-form optimum not attained: {attained} vs {value} for {objective}"
        )
    factors = [0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25]
    best = min(
        classical_objective(
            ClassicalModelParams(params.s_a * fa, params.s_b * fb),
            in_model,
            objective,
        )
        for fa in factors
        for fb in factors
    )
    if best < value - 1e-9:
        raise AssertionError(
            f"local refinement beat the closed form for {objective}: {best} < {value}"
        )
    return params, value


def grid_search_classical(
    in_model: InputModel,
    objective: str,
    points: int = 41,
    bounds: tuple[float, float] = (0.1, 10.0),
) -> tuple[ClassicalModelParams, float]:
    """Brute-force refinement oracle: log grid over (s_a, s_b) at unit gain."""
    lo, hi = bounds
    if not (0 < lo < hi) or points < 2:
        raise ValueError("need 0 < lo < hi and at least two grid points")
    ratio = (hi / lo) ** (1.0 / (points - 1))
    grid = [lo * ratio ** k for k in range(points)]
    best_params, best_value = None, math.inf
    for sa in grid:
        for sb in grid:
            p = ClassicalModelParams(sa, sb)
            v = classical_objective(p, in_model, objective)
            if v < best_value:
                best_params, best_value = p, v
    if best_params is None:
        raise ValueError(f"{objective} objective is not finite anywhere on the grid")
    return best_params, best_value


# ---------------------------------------------------------------------------
# Conditional variance and transfer coefficient


class RalphLamResult(NamedTuple):
    """Conditional variances and transfer coefficients, per axis."""

    v_c_x: float
    v_c_p: float
    t_x: float
    t_p: float

    @property
    def conditional_sum(self) -> float:
        return self.v_c_x + self.v_c_p

    @property
    def transfer_sum(self) -> float:
        return self.t_x + self.t_p


def ralph_lam(
    out_x: QuadExpansion, out_p: QuadExpansion, in_model: InputModel
) -> RalphLamResult:
    """Conditional variance V_c and transfer coefficient T for both axes.

    V_c = V_out * (1 - C^2/(V_out*V_in)) with C the in-out covariance;
    T is the SNR ratio, which for a linear channel reduces to the
    amplitude-independent |gain|^2 * V_in / V_out.  Classical channels obey
    V_c_x + V_c_p >= 2 and T_x + T_p <= 1; beating either needs entanglement,
    beating both needs more than 3 dB of squeezing.

    Zero output variance only happens when the channel output is the
    (unnormalizable) zero operator; V_c and T are then defined as 0.
    """
    values: list[float] = []
    probe = unit_input()
    for out, axis in ((out_x, Axis.X), (out_p, Axis.P)):
        v_in = in_model.variance(axis)
        v_out = normalized_variance(out, in_model, axis)
        if v_out == 0.0:
            values += [0.0, 0.0]
            continue
        c = covariance(out, probe, in_model, axis)
        v_c = v_out - c * c / v_in
        t = abs(out.input_coeff) ** 2 * v_in / v_out
        values += [v_c, t]
    return RalphLamResult(values[0], values[2], values[1], values[3])


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
    infinite sigma gives F = 0.
    """
    if not (np.all(sigma_x > 0) and np.all(sigma_p > 0)):
        raise ValueError("Q-function variances must be positive")
    delta = (1.0 - gain) * complex(alpha)
    amp = 0.5 / np.sqrt(sigma_x * sigma_p)
    return amp * np.exp(-delta.real ** 2 / (2.0 * sigma_x) - delta.imag ** 2 / (2.0 * sigma_p))


@dataclass(frozen=True)
class FidelityPoint:
    """One fidelity evaluation with the Q-function widths behind it."""

    fidelity: float
    sigma_x: float
    sigma_p: float
    gain: complex
    alpha: complex

    def __post_init__(self) -> None:
        if not self.sigma_x > 0 or not self.sigma_p > 0:
            raise ValueError("Q-function variances must be positive")
        if math.isnan(self.fidelity) or not -0.0 <= self.fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def teleport_fidelity(
    outcome: TeleportOutcome,
    in_model: InputModel | None = None,
    alpha: complex = 0j,
) -> FidelityPoint:
    """Fidelity of one teleportation run against a coherent input at alpha.

    The Q-function variance per axis is (V_out + 1)/4 with V_out the
    vacuum-normalized output variance: V_out/4 is the state variance in
    absolute units and the Q function adds one vacuum unit (1/4) on top.
    """
    model = in_model if in_model is not None else InputModel.coherent()
    v_out_x = normalized_variance(outcome.x_tel, model, Axis.X)
    v_out_p = normalized_variance(outcome.p_tel, model, Axis.P)
    sigma_x = (v_out_x + 1.0) / 4.0
    sigma_p = (v_out_p + 1.0) / 4.0
    f = float(fidelity_point(outcome.gain, sigma_x, sigma_p, alpha))
    return FidelityPoint(f, sigma_x, sigma_p, outcome.gain, alpha)


def nopa_fidelity_spectrum(
    epsilon: float, omega: float, beta: float = 1.0, eta: float = 1.0
) -> float:
    """Closed-form unit-gain coherent-state fidelity of a NOPA teleporter.

    F = [2 - 4*eps*beta/((1+eps)^2 + omega^2) + (1-eta^2)/eta^2]^-1.
    Exactly 1/2 at epsilon = 0 (the classical boundary) and exactly 1 at
    epsilon = 1, omega = 0, beta = eta = 1.
    """
    a = (1.0 + epsilon) ** 2 + omega * omega
    return 1.0 / (2.0 - 4.0 * epsilon * beta / a + (1.0 - eta * eta) / (eta * eta))


def _closed_form_fidelity(
    src: SqueezerSpectrum, omega: float | np.ndarray, detector: BellDetector
) -> float | np.ndarray:
    # At unit gain the noisy ports cancel exactly, so each axis carries twice
    # the quiet spectrum V- plus twice the detector noise tau^2, and any
    # source teleports a coherent state at alpha = 0 with
    # F = 1/(1 + V- + tau^2).
    eta = detector.eta
    tau2 = (1.0 - eta * eta) / (eta * eta)
    return 1.0 / (1.0 + src.variances(omega)[1] + tau2)


def _checked_fidelity(
    src: SqueezerSpectrum,
    omega: float | np.ndarray,
    gain: complex | np.ndarray,
    detector: BellDetector,
    in_model: InputModel,
    alpha: complex,
    generic: float | np.ndarray,
) -> float | np.ndarray:
    # The closed form is exact to a few ulps, so on every unit-gain row of a
    # coherent input at alpha = 0 it replaces the float roundoff of the
    # generic Q-function fidelity, once the two agree to 1e-12.  A real
    # exception, not an assert, so python -O keeps the check.
    if alpha != 0 or in_model.v_x != 1.0 or in_model.v_p != 1.0:
        return generic
    unit = np.equal(gain, 1)
    if not np.any(unit):
        return generic
    closed = _closed_form_fidelity(src, omega, detector)
    off = unit & ~(np.abs(closed - generic) <= 1e-12)
    if np.any(off):
        raise AssertionError(
            "generic fidelity path disagrees with closed form at "
            f"omega={np.extract(off, omega)[0]}"
        )
    return np.where(unit, closed, generic)


# ---------------------------------------------------------------------------
# Spectra


CSV_HEADER = ("omega", "v_x", "v_p", "fidelity")


@dataclass
class SpectrumTable:
    """Frequency sweep of variances and fidelity, with stable serialization.

    Rows are ascending in omega.  An optional evaluator (an array of
    frequencies -> the array of their fidelities) lets bandwidth() refine
    beyond the tabulated grid; it is attached by the sweep constructors and
    absent on tables loaded from disk.
    """

    omega: tuple[float, ...]
    v_x: tuple[float, ...]
    v_p: tuple[float, ...]
    fidelity: tuple[float, ...]
    evaluator: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # Columns may arrive as arrays; they are checked whole and kept as
        # tuples of Python floats.
        columns = [
            np.asarray(c, dtype=float) for c in (self.omega, self.v_x, self.v_p, self.fidelity)
        ]
        omega = columns[0]
        if any(len(c) != len(omega) for c in columns):
            raise ValueError("all columns must have equal length")
        if len(omega) == 0:
            raise ValueError("empty spectrum table")
        if not np.isfinite(omega).all():
            raise ValueError("omega column must be finite")
        if not (omega[1:] > omega[:-1]).all():
            raise ValueError("omega column must be strictly increasing")
        self.omega, self.v_x, self.v_p, self.fidelity = (tuple(c.tolist()) for c in columns)

    def __len__(self) -> int:
        return len(self.omega)

    def rows(self) -> Iterable[tuple[float, float, float, float]]:
        return zip(self.omega, self.v_x, self.v_p, self.fidelity)

    def to_csv(self) -> str:
        lines = [",".join(CSV_HEADER)]
        lines += ["%.12g,%.12g,%.12g,%.12g" % row for row in self.rows()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path_or_text: str) -> "SpectrumTable":
        """Load a table from CSV text (anything containing a newline) or a file path."""
        return cls(*read_csv(path_or_text, CSV_HEADER))

    def to_json(self) -> str:
        columns = (self.omega, self.v_x, self.v_p, self.fidelity)
        return write_json_columns(dict(zip(CSV_HEADER, columns)))


class _Columns(NamedTuple):
    # The kernel's arrays over the grid: error variances, fidelity and the
    # output variances V_out = |g|^2 V_in + noise.
    v_x: np.ndarray
    v_p: np.ndarray
    fidelity: np.ndarray
    v_out_x: np.ndarray
    v_out_p: np.ndarray


def _teleport_columns(
    src: SqueezerSpectrum,
    omega: np.ndarray,
    gain: complex | np.ndarray,
    detector: BellDetector,
    in_model: InputModel,
    alpha: complex = 0j,
) -> _Columns:
    # The one kernel behind every spectrum row and the criteria report: the
    # variances and the fidelity of a teleport over src of a coherent
    # amplitude alpha, on a frequency grid, with gain one number or an
    # array over the grid.  Every port the source projects adds its real
    # power |w|^2 |amplitude|^2 to its axis's noise, one port at a time, so
    # no (ports x omega) matrix and no complex amplitude is ever held.
    noise_x, noise_p = np.zeros(len(omega)), np.zeros(len(omega))
    # A power past the float range is a diverging noise term: inf, silently.
    with np.errstate(over="ignore"):
        for axis, power in src._mode_powers(omega, (-gain, 1), (gain, 1)):
            noise = noise_x if axis is Axis.X else noise_p
            noise += power
        if detector.eta < 1.0:
            # Two detector vacua per photocurrent, each weighted gain*tau.
            det = _abs2(gain * detector.excess)
            for noise in (noise_x, noise_p):
                noise += det
                noise += det
        mismatch, g2 = _abs2(gain - 1), _abs2(gain)
        v_x = mismatch * in_model.v_x + noise_x
        v_p = mismatch * in_model.v_p + noise_p
        v_out_x = g2 * in_model.v_x + noise_x
        v_out_p = g2 * in_model.v_p + noise_p
    # Q-function widths (V_out + 1)/4.
    generic = fidelity_point(gain, (v_out_x + 1.0) / 4.0, (v_out_p + 1.0) / 4.0, alpha)
    inside = (generic >= 0.0) & (generic <= 1.0 + 1e-9)
    if not inside.all():
        raise ValueError(f"fidelity {np.extract(~inside, generic)[0]} outside [0, 1]")
    f = _checked_fidelity(src, omega, gain, detector, in_model, alpha, generic)
    return _Columns(v_x, v_p, f, v_out_x, v_out_p)


def _spectrum_table(
    grid: np.ndarray, values: _Columns, columns: Callable[[np.ndarray], _Columns]
) -> SpectrumTable:
    # The sweep's values as a table; its evaluator, which bandwidth()
    # refines with, is the same kernel (columns) on the frequencies asked for.
    return SpectrumTable(
        grid,
        values.v_x,
        values.v_p,
        values.fidelity,
        evaluator=lambda w: columns(np.asarray(w, dtype=float).reshape(-1)).fidelity,
    )


def fidelity_spectrum(
    src: SqueezerSpectrum,
    omegas: Sequence[float] | np.ndarray,
    gain: GainSchedule | complex = GainSchedule.unit(),
    detector: BellDetector = BellDetector(1.0),
    in_model: InputModel | None = None,
) -> SpectrumTable:
    """Sweep the teleporter over a frequency grid.

    Rows carry the per-axis added-noise variances and the coherent-state
    fidelity, computed for the whole grid at once.  At unit gain on
    coherent inputs the fidelity column is the closed form
    1/(1 + V- + tau^2) of the source's quiet spectrum, cross-checked
    against the generic Q-function path on every row; otherwise the generic
    path stands alone.
    """
    schedule = as_gain(gain)
    model = in_model if in_model is not None else InputModel.coherent()
    grid = np.asarray(omegas, dtype=float)
    gains = schedule.at(grid)

    def columns(w: np.ndarray, g: complex | np.ndarray) -> _Columns:
        return _teleport_columns(src, w, g, detector, model)

    table = _spectrum_table(
        grid, columns(grid, gains), lambda w: columns(w, schedule.at(w))
    )
    if np.any(gains != 1):
        warnings.warn(
            "nonunit gain: the v_x/v_p columns include the gain-mismatch "
            "input term and are not error spectra",
            NonUnitGainWarning,
            stacklevel=2,
        )
    return table


def bandwidth(spectrum: SpectrumTable, threshold: float = 0.51) -> float:
    """Full width 2*omega_max of the region where fidelity >= threshold.

    Assumes the spectrum decreases away from omega = 0 (true for every
    source here).  The crossing is bracketed on the grid, then refined by
    bisection of the table's evaluator to 1e-6, many steps per evaluator
    call (see _bisect); tables without an evaluator fall back to linear
    interpolation between the bracketing rows.  Returns
    0 when even the first row is below threshold, and math.inf when the
    evaluator never drops below it (a threshold at or below the large-omega
    limit of the fidelity: 1/2 at unit gain, 1/(1 + g^2) at fixed gain g).
    """
    om, fs = spectrum.omega, spectrum.fidelity
    if fs[0] < threshold:
        return 0.0
    cross = next((i for i, v in enumerate(fs) if v < threshold), None)
    ev = spectrum.evaluator
    if cross is None:
        # Threshold never reached on the grid; extend by doubling if we can.
        if ev is None:
            raise ValueError(
                "fidelity stays above threshold across the table and no "
                "evaluator is attached to extend it"
            )
        lo = om[-1]
        hi = lo * 2.0 if lo > 0 else 1.0
        for _ in range(200):
            if ev(np.array([hi]))[0] < threshold:
                break
            lo, hi = hi, hi * 2.0
        else:
            return math.inf
    else:
        lo, hi = om[cross - 1], om[cross]
        if ev is None:
            f_lo, f_hi = fs[cross - 1], fs[cross]
            if f_lo == f_hi:
                return 2.0 * lo
            return 2.0 * (lo + (f_lo - threshold) * (hi - lo) / (f_lo - f_hi))
    lo, hi = _bisect(ev, lo, hi, threshold)
    return lo + hi  # 2 * midpoint


def _bisect(
    ev: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, threshold: float
) -> tuple[float, float]:
    # Bisect [lo, hi] to 1e-6 on ev >= threshold, _BISECT_LEVELS steps per
    # evaluator call: every midpoint the next steps can reach goes into one
    # array call, then the walk takes exactly the steps of one-point
    # bisection, so the bracket is the same to the last bit.
    while hi - lo > 1e-6:
        mids = []
        brackets = [(lo, hi)]
        for _ in range(_BISECT_LEVELS):
            reachable = []
            for a, b in brackets:
                if b - a > 1e-6:
                    mid = 0.5 * (a + b)
                    mids.append(mid)
                    reachable += [(mid, b), (a, mid)]
            brackets = reachable
        fidelity = dict(zip(mids, ev(np.array(mids)).tolist()))
        for _ in range(_BISECT_LEVELS):
            if not hi - lo > 1e-6:
                break
            mid = 0.5 * (lo + hi)
            if fidelity[mid] >= threshold:
                lo = mid
            else:
                hi = mid
    return lo, hi


_BISECT_LEVELS = 6  # 63 midpoints per evaluator call


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
        gain = self.gain
        payload = asdict(self)
        payload.update(
            gain=gain.real if gain.imag == 0 else [gain.real, gain.imag],
            v_product=self.v_product,
            v_sum=self.v_sum,
            v_out_product=self.v_out_product,
            verdicts=self.verdicts,
        )
        return write_json(payload)


def evaluate_criteria(
    src: SqueezerSpectrum,
    omega: float = 0.0,
    gain: GainSchedule | complex = GainSchedule.unit(),
    detector: BellDetector = BellDetector(1.0),
    in_model: InputModel | None = None,
    alpha: complex = 0j,
) -> CriteriaReport:
    """Run one teleportation and score it against every classical boundary.

    One one-point call of the spectrum kernel gives the error variances,
    the fidelity and the output variances; at alpha = 0 the first three
    are the one-row fidelity_spectrum values bit for bit.  The conditional
    variances and transfer coefficients follow from the output variances
    (see _conditional).
    """
    model = in_model if in_model is not None else InputModel.coherent()
    g = as_gain(gain).at(omega)
    cols = _teleport_columns(src, np.array([float(omega)]), g, detector, model, alpha)
    v_out_x, v_out_p = float(cols.v_out_x[0]), float(cols.v_out_p[0])
    v_c_x, t_x = _conditional(v_out_x, g, model.v_x)
    v_c_p, t_p = _conditional(v_out_p, g, model.v_p)
    return CriteriaReport(
        omega=omega,
        gain=g,
        eta=detector.eta,
        v_x=float(cols.v_x[0]),
        v_p=float(cols.v_p[0]),
        v_out_x=v_out_x,
        v_out_p=v_out_p,
        v_c_x=v_c_x,
        v_c_p=v_c_p,
        t_x=t_x,
        t_p=t_p,
        fidelity=float(cols.fidelity[0]),
        out_product_limit=output_product_limit(model),
        avg_fidelity_zero=g != 1,
    )


def _conditional(v_out: float, gain: complex, v_in: float) -> tuple[float, float]:
    # (V_c, T) of one axis of a linear channel out = gain*in + noise, from
    # its output variance: the in-out covariance is C = Re(gain)*V_in, so
    # V_c = V_out - C^2/V_in and T = |gain|^2 V_in/V_out, as ralph_lam
    # computes them on the expansions; a zero output has V_c = T = 0.  A
    # gain whose signal term |gain|^2 V_in overflows leaves inf - inf.
    if v_out == 0.0:
        return 0.0, 0.0
    c = gain.real * v_in
    v_c, t = v_out - c * c / v_in, _abs2(gain) * v_in / v_out
    if math.isnan(v_c) or math.isnan(t):
        raise ValueError(f"gain {gain} takes the output variance past the float range")
    return v_c, t
