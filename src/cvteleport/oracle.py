"""Independent validation of the symbolic pipeline.

Two routes that share no code with the expansion algebra:

* a Gaussian covariance simulator for the zero-bandwidth protocol --
  explicit 6x6 covariance matrices, symplectic beamsplitters, Schur
  conditioning on the homodyne outcomes, analytic outcome averaging;
* a Monte-Carlo sampler that draws every vacuum component as an actual
  Gaussian variate and measures variances of the resulting linear
  combinations, with deterministic seeding and batched, order-independent
  reduction.

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
    "condition_on",
    "covariance_teleport",
    "fidelity_to_coherent",
    "mc_check",
    "sample_teleport_outcomes",
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

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(np.zeros(2 * n_modes), np.eye(2 * n_modes) * _VAC)


def two_mode_squeezed_cov(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum, ordering (x1, p1, x2, p2)."""
    c = math.cosh(2.0 * r) * _VAC
    s = math.sinh(2.0 * r) * _VAC
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def condition_on(state: GaussianState, index: int, value: float) -> GaussianState:
    """Gaussian update after a precise homodyne outcome on one quadrature.

    Schur-complement conditioning: the measured quadrature collapses to
    variance 0 at the observed value, correlated quadratures shift, and
    positive semidefiniteness is preserved.
    """
    sigma = state.cov[index, index]
    if sigma <= 0:
        raise ValueError("measured quadrature must have positive variance")
    g = state.cov[:, index] / sigma
    cov = state.cov - np.outer(g, state.cov[index, :])
    cov = 0.5 * (cov + cov.T)
    cov[index, :] = 0.0
    cov[:, index] = 0.0
    mean = state.mean + g * (value - state.mean[index])
    mean = mean.copy()
    mean[index] = value
    return GaussianState(mean, cov)


# Quadrature layout before the beamsplitter: input (0, 1), EPR mode 1
# (2, 3), EPR mode 2 (4, 5).  After it: x_u, p_u, x_v, p_v, x_2, p_2.
_MEASURED = (0, 3)  # x_u and p_v
_KEPT = (1, 2, 4, 5)


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
    the output single-mode state.
    """
    mean0 = np.array([alpha.real, alpha.imag, 0.0, 0.0, 0.0, 0.0])
    cov0 = np.zeros((6, 6))
    cov0[:2, :2] = np.eye(2) * _VAC
    cov0[2:, 2:] = two_mode_squeezed_cov(r)
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


def sample_teleport_outcomes(
    r: float, gain: float, alpha: complex, cfg: "McConfig"
) -> tuple[np.ndarray, np.ndarray]:
    """Shot-by-shot zero-bandwidth protocol; returns sample mean and cov.

    Every run draws the full initial Gaussian, reads the two homodyne
    values off the transformed sample, and applies the displacement those
    values dictate; no analytic averaging anywhere.
    """
    mean0 = np.array([alpha.real, alpha.imag, 0.0, 0.0, 0.0, 0.0])
    cov0 = np.zeros((6, 6))
    cov0[:2, :2] = np.eye(2) * _VAC
    cov0[2:, 2:] = two_mode_squeezed_cov(r)
    chol = np.linalg.cholesky(cov0 + np.eye(6) * 1e-30)
    m = _bell_splitter()
    rng = np.random.default_rng(cfg.seed)
    n_left = cfg.sample_count
    s1 = np.zeros(2)
    s2 = np.zeros((2, 2))
    scale = math.sqrt(2.0) * gain
    while n_left > 0:
        n = min(n_left, 1 << 16)
        z = rng.standard_normal((n, 6))
        v = (z @ chol.T + mean0) @ m.T
        x_out = v[:, 4] + scale * v[:, 0]
        p_out = v[:, 5] + scale * v[:, 3]
        out = np.stack([x_out, p_out], axis=1)
        s1 += out.sum(axis=0)
        s2 += out.T @ out
        n_left -= n
    n_tot = cfg.sample_count
    mean = s1 / n_tot
    cov = (s2 - n_tot * np.outer(mean, mean)) / (n_tot - 1)
    return mean, cov


# ---------------------------------------------------------------------------
# Monte-Carlo variance checks


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed of one Monte-Carlo run."""

    sample_count: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count < 1_000:
            raise ValueError("sample_count below 1000 cannot give a meaningful check")


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

    def to_json(self) -> str:
        return write_json(dict(asdict(self), all_ok=self.all_ok))


_BATCH = 1 << 16


def _draw(rng: np.random.Generator, var_norm: float, n: int) -> np.ndarray:
    # One complex frequency component: Re and Im independent, half the
    # absolute variance each.  Draw order is fixed (Re then Im).
    s = math.sqrt(var_norm * _VAC / 2.0)
    re = rng.normal(0.0, s, n)
    im = rng.normal(0.0, s, n)
    return re + 1j * im


def mc_check(
    entries: Sequence[tuple[str, QuadExpansion, Axis]],
    in_model: InputModel,
    cfg: McConfig,
    pairs: Sequence[tuple[str, str]] = (),
) -> McReport:
    """Sample every vacuum component and compare variances to the algebra.

    All entries share one draw of the common basis per sample, so
    covariances between entries are physical.  Batches use independent
    child streams of the seed and are reduced with compensated summation,
    making the report byte-identical for a fixed (seed, sample_count) and
    independent of batch execution order.  A row passes when the estimate
    falls within five standard errors of the analytic value.
    """
    named = {name: (e, axis) for name, e, axis in entries}
    if len(named) != len(entries):
        raise ValueError("entry names must be unique")
    for a, b in pairs:
        if a not in named or b not in named:
            raise ValueError(f"pair ({a}, {b}) references unknown entries")
        if named[a][1] is not named[b][1]:
            raise ValueError("covariance pairs must share an axis")
    # A fixed basis order fixes which draw feeds which term, and so the
    # seeded results.
    basis = sorted(
        {k for _, e, _ in entries for k in e.terms}, key=lambda k: (k[0], k[1].value)
    )
    n_batches = -(-cfg.sample_count // _BATCH)
    streams = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    sums2 = {name: [] for name in named}
    sums4 = {name: [] for name in named}
    psums = {p: [] for p in pairs}
    psums2 = {p: [] for p in pairs}
    left = cfg.sample_count
    for seq in streams:
        n = min(left, _BATCH)
        left -= n
        rng = np.random.default_rng(seq)
        in_x = _draw(rng, in_model.v_x, n)
        in_p = _draw(rng, in_model.v_p, n)
        draws = {key: _draw(rng, 1.0, n) for key in basis}
        values = {}
        for name, (e, axis) in named.items():
            v = e.input_coeff * (in_x if axis is Axis.X else in_p)
            for key, c in e.terms.items():
                v = v + c * draws[key]
            values[name] = v
            m2 = v.real * v.real + v.imag * v.imag
            sums2[name].append(math.fsum(m2.tolist()))
            sums4[name].append(math.fsum((m2 * m2).tolist()))
        for p in pairs:
            va, vb = values[p[0]], values[p[1]]
            c = va.real * vb.real + va.imag * vb.imag  # Re(va * conj(vb))
            psums[p].append(math.fsum(c.tolist()))
            psums2[p].append(math.fsum((c * c).tolist()))
    n_tot = cfg.sample_count
    rows: list[McCheckRow] = []
    for name, (e, axis) in named.items():
        mean2 = math.fsum(sums2[name]) / n_tot
        var2 = max(math.fsum(sums4[name]) / n_tot - mean2 * mean2, 0.0)
        se = math.sqrt(var2 / n_tot) / _VAC
        est = mean2 / _VAC
        analytic = normalized_variance(e, in_model, axis)
        ok = abs(est - analytic) <= max(5.0 * se, 1e-12)
        rows.append(McCheckRow(name, "variance", analytic, est, se, ok))
    for p in pairs:
        (ea, axis), (eb, _) = named[p[0]], named[p[1]]
        meanc = math.fsum(psums[p]) / n_tot
        varc = max(math.fsum(psums2[p]) / n_tot - meanc * meanc, 0.0)
        se = math.sqrt(varc / n_tot) / _VAC
        est = meanc / _VAC
        analytic = covariance(ea, eb, in_model, axis)
        ok = abs(est - analytic) <= max(5.0 * se, 1e-12)
        rows.append(McCheckRow(f"{p[0]}*{p[1]}", "covariance", analytic, est, se, ok))
    return McReport(cfg.sample_count, cfg.seed, tuple(rows))
