"""Independent validation of the symbolic pipeline.

Two routes that share no code with the expansion algebra:

* a Gaussian covariance simulator for the zero-bandwidth protocol --
  explicit 6x6 covariance matrices, symplectic beamsplitters, Schur
  conditioning on the homodyne outcomes, analytic outcome averaging;
* a Monte-Carlo sampler that draws every vacuum component as an actual
  Gaussian variate and measures variances and covariances of the
  resulting linear combinations: one seeded child stream per batch, its
  standard draws, value and moment buffers allocated once per call,
  every entry's Re and Im parts from one product with a real weight
  matrix that carries the draw scales, numpy's pairwise sums per batch,
  batch totals combined with ``math.fsum``, so a (seed, sample_count)
  gives the same report on a fixed numpy build and BLAS.

Both report against the analytic values; disagreement beyond tolerance
means a bug on one side or the other.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._text import write_json
from .linmode import Axis, InputModel, QuadExpansion, covariance, normalized_variance

__all__ = [
    "GaussianState",
    "McConfig",
    "McReport",
    "covariance_teleport",
    "fidelity_to_coherent",
    "mc_check",
    "two_mode_squeezed_cov",
]

_VAC = 0.25  # absolute vacuum variance per quadrature


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix over (x, p) per mode, vacuum = I/4."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a flat vector with an (x, p) pair per mode")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean vector")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-12:
            raise ValueError("covariance must be positive semidefinite")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def two_mode_squeezed_cov(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum, ordering (x1, p1, x2, p2)."""
    try:
        c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise ValueError(f"r must be finite with a finite cosh(2r), got {r}")
    c *= _VAC
    s *= _VAC
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


# Quadrature layout before the beamsplitter: input (0, 1), EPR mode 1
# (2, 3), EPR mode 2 (4, 5).  After it: x_u, p_u, x_v, p_v, x_2, p_2.
_MEASURED = (0, 3)  # x_u and p_v
_KEPT = (1, 2, 4, 5)


# Largest |r| _initial_state takes, for covariance_teleport and for the
# shot-by-shot sampler of tests/references.py.  Both carry roundoff of order
# 1e-16 * e^(2|r|) into an output variance that stays near vacuum at unit
# gain; scanned in steps of 0.01 over gains in [-1, 2], both stay within the
# oracle-check's 1e-9 up to r = 7.5 and first leave it at r = 7.53.
_MAX_SQUEEZE = 7.5


def _initial_state(r: float, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    # Coherent input at alpha (modes 0-1) beside a two-mode squeezed vacuum.
    epr = two_mode_squeezed_cov(r)
    if abs(r) > _MAX_SQUEEZE:
        raise ValueError(
            f"r must lie in [-{_MAX_SQUEEZE}, {_MAX_SQUEEZE}], past which the "
            f"covariance routes lose the 1e-9 precision they are checked to; got {r}"
        )
    mean0 = np.array([alpha.real, alpha.imag, 0.0, 0.0, 0.0, 0.0])
    cov0 = np.zeros((6, 6))
    cov0[:2, :2] = np.eye(2) * _VAC
    cov0[2:, 2:] = epr
    return mean0, cov0


def _bell_splitter() -> np.ndarray:
    h = 1.0 / math.sqrt(2.0)
    m = np.zeros((6, 6))
    m[0, 0], m[0, 2] = h, -h
    m[1, 1], m[1, 3] = h, -h
    m[2, 0], m[2, 2] = h, h
    m[3, 1], m[3, 3] = h, h
    m[4, 4] = m[5, 5] = 1.0
    return m


def covariance_teleport(r: float, gain: float, alpha: complex = 0j) -> GaussianState:
    """Teleport a coherent state through the covariance formalism.

    Builds input + EPR pair, splits input against EPR mode 1, conditions on
    the Bell outcomes, displaces mode 2 by sqrt(2)*gain times the outcomes,
    and averages over the outcome distribution analytically (the feedback
    is linear, so the unconditional output is exactly Gaussian).  Returns
    the output single-mode state.  |r| above 7.5 raises ValueError.
    """
    mean0, cov0 = _initial_state(r, alpha)
    m = _bell_splitter()
    mean1 = m @ mean0
    cov1 = m @ cov0 @ m.T
    smm = cov1[np.ix_(_MEASURED, _MEASURED)]
    skm = cov1[np.ix_(_KEPT, _MEASURED)]
    skk = cov1[np.ix_(_KEPT, _KEPT)]
    a = np.linalg.solve(smm, skm.T).T  # kept-from-measured regression
    cov_cond = skk - a @ skm.T
    # Output mode rows within the kept block.
    out = (2, 3)
    sa = a[out, :]
    d = math.sqrt(2.0) * gain * np.eye(2)
    cov_out = cov_cond[np.ix_(out, out)] + (sa + d) @ smm @ (sa + d).T
    cov_out = 0.5 * (cov_out + cov_out.T)
    mean_out = mean1[list(_KEPT)][list(out)] + d @ mean1[list(_MEASURED)]
    return GaussianState(mean_out, cov_out)


def fidelity_to_coherent(state: GaussianState, alpha: complex = 0j) -> float:
    """Overlap of a single-mode Gaussian state with the coherent state alpha.

    pi times the state's Q function at alpha: the Q covariance is the state
    covariance plus one vacuum unit on each axis.
    """
    if state.n_modes != 1:
        raise ValueError("fidelity_to_coherent needs a single-mode state")
    sigma_q = state.cov + np.eye(2) * _VAC
    delta = state.mean - np.array([alpha.real, alpha.imag])
    det = float(np.linalg.det(sigma_q))
    quad = float(delta @ np.linalg.solve(sigma_q, delta))
    return 0.5 / math.sqrt(det) * math.exp(-0.5 * quad)


# ---------------------------------------------------------------------------
# Monte-Carlo variance checks


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed of one Monte-Carlo run."""

    sample_count: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sample_count", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass, so excluded too
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # Below 1000 no check is meaningful; 10^8 bounds the per-batch seed streams.
        if not 1_000 <= self.sample_count <= 10 ** 8:
            raise ValueError(f"sample_count must lie in [1000, 10^8], got {self.sample_count}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class McCheckRow:
    """One compared quantity: analytic value vs sampled estimate."""

    name: str
    kind: str  # "variance" or "covariance"
    analytic: float
    estimate: float
    se: float
    ok: bool


@dataclass(frozen=True)
class McReport:
    sample_count: int
    seed: int
    rows: tuple[McCheckRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def payload(self) -> dict:
        """The report as the dict to_json writes."""
        return dict(asdict(self), all_ok=self.all_ok)

    def to_json(self) -> str:
        return write_json(self.payload())


_BATCH = 1 << 16


def mc_check(
    entries: Sequence[tuple[str, QuadExpansion, Axis]],
    in_model: InputModel,
    cfg: McConfig,
    pairs: Sequence[tuple[str, str]] = (),
) -> McReport:
    """Sample every vacuum component and compare moments to the algebra.

    All entries share one draw of the common basis per sample, so
    covariances between entries are physical.  Every complex component
    (the signal's x and p, then each vacuum term in sorted basis order) is
    a pair of real rows, Re then Im, each with half the component's
    absolute variance.  Each batch uses its own child stream of the seed
    and fills one real (rows, n) buffer with a single standard-normal
    draw: the stream of one ``rng.normal`` call per row in the same order.
    One real weight matrix, built once per call, holds an [Re c, -Im c] /
    [Im c, Re c] block per entry and component, each column times the
    scale of its draw row, so the batch's entry values (Re and Im rows)
    are one matrix product of the unscaled draws.

    Every row is a moment Re<a conj(b)>: variance rows (an entry with
    itself) first, then one row per pair.  Each batch keeps numpy's
    pairwise sums of each moment and its square; the batch totals are
    combined with ``math.fsum``, so the report is byte-identical for a
    fixed (seed, sample_count) on a fixed numpy build and BLAS (checked
    under one and two BLAS threads).  A row passes when the estimate is
    within five standard errors of the analytic value.

    The draw, value and moment buffers are allocated once per call and
    every batch fills them in place: working memory of about
    (rows + 2 * entries + 2) x 65,536 doubles, 16 MiB for the 20 draw
    rows and 5 entries of an oracle-check on a lossy source.
    """
    named = {name: (e, axis) for name, e, axis in entries}
    if len(named) != len(entries):
        raise ValueError("entry names must be unique")
    for a, b in pairs:
        if a not in named or b not in named:
            raise ValueError(f"pair ({a}, {b}) references unknown entries")
        if named[a][1] is not named[b][1]:
            raise ValueError("covariance pairs must share an axis")
    moments = [(n, n) for n in named] + list(pairs)
    # A fixed basis order fixes which draw feeds which term, and so the
    # seeded results.  Components: in_x, in_p, then the basis keys.
    basis = sorted(
        {k for _, e, _ in entries for k in e.terms}, key=lambda k: (k[0], k[1].value)
    )
    component = {key: 2 + i for i, key in enumerate(basis)}
    n_rows = 2 * (2 + len(basis))
    var_norm = [in_model.v_x, in_model.v_p] + [1.0] * len(basis)
    row = {name: 2 * k for k, name in enumerate(named)}
    weights = np.zeros((2 * len(named), n_rows))
    for name, (e, axis) in named.items():
        terms = [(0 if axis is Axis.X else 1, e.input_coeff)]
        terms += [(component[key], c) for key, c in e.terms.items()]
        for i, c in terms:
            # (Re, Im) of c * (zr + i zi) for component i's draws (zr, zi).
            weights[row[name] : row[name] + 2, 2 * i : 2 * i + 2] = [
                [c.real, -c.imag],
                [c.imag, c.real],
            ]
    # Re and Im of a component each carry half its absolute variance: the
    # scale of each draw row goes into its weight column, so the standard
    # draws are never rescaled.
    weights *= np.repeat([math.sqrt(v * _VAC / 2.0) for v in var_norm], 2)
    n_batches = -(-cfg.sample_count // _BATCH)
    streams = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    sums = np.empty((len(moments), 2, n_batches))  # sum of m and of m*m per batch
    # Every batch fills these buffers, a partial one their leading part.
    z_buf = np.empty(n_rows * _BATCH)
    values_buf = np.empty(len(weights) * _BATCH)
    moment_buf = np.empty((2, _BATCH))  # a moment m and m*m
    left = cfg.sample_count
    for j, seq in enumerate(streams):
        n = min(left, _BATCH)
        left -= n
        z = z_buf[: n_rows * n].reshape(n_rows, n)
        np.random.default_rng(seq).standard_normal(out=z)
        values = np.matmul(weights, z, out=values_buf[: len(weights) * n].reshape(-1, n))
        m, sq = moment_buf[:, :n]
        for k, (a, b) in enumerate(moments):
            (a_re, a_im), (b_re, b_im) = values[row[a] : row[a] + 2], values[row[b] : row[b] + 2]
            # m = Re(va * conj(vb)) = a_re * b_re + a_im * b_im
            np.multiply(a_re, b_re, out=m)
            np.multiply(a_im, b_im, out=sq)
            m += sq
            np.multiply(m, m, out=sq)
            sums[k, :, j] = m.sum(), sq.sum()
    n_tot = cfg.sample_count
    rows: list[McCheckRow] = []
    for k, (a, b) in enumerate(moments):
        mean, mean_sq = (math.fsum(s) / n_tot for s in sums[k])
        se = math.sqrt(max(mean_sq - mean * mean, 0.0) / n_tot) / _VAC
        est = mean / _VAC
        (ea, axis), (eb, _) = named[a], named[b]
        if k < len(named):
            name, kind, analytic = a, "variance", normalized_variance(ea, in_model, axis)
        else:
            name, kind, analytic = f"{a}*{b}", "covariance", covariance(ea, eb, in_model, axis)
        ok = abs(est - analytic) <= max(5.0 * se, 1e-12)
        rows.append(McCheckRow(name, kind, analytic, est, se, ok))
    return McReport(cfg.sample_count, cfg.seed, tuple(rows))
