"""The least-noisy classical channel, against which the gate checks the floors.

A measure-and-resend channel with no shared entanglement, built on
quadrature expansions: its added-noise and output variances saturate the
classical limits the package scores a teleport against (product and sum
4, output product (sqrt(v_x v_p) + 2)^2, output sum v_x + v_p + 4).
optimize_classical gives each optimum in closed form, checked against a
local grid, and grid_search_classical is the brute-force oracle that
acceptance criterion 05 holds it against.  No command uses this channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from cvteleport.criteria import VARIANCE_PRODUCT_LIMIT, VARIANCE_SUM_LIMIT, output_product_limit
from cvteleport.linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    difference_variance,
    normalized_variance,
)


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
        params, value = ClassicalModelParams(1.0, 1.0), VARIANCE_PRODUCT_LIMIT
    elif objective == "sum":
        params, value = ClassicalModelParams(1.0, 1.0), VARIANCE_SUM_LIMIT
    elif objective == "out_product":
        s = (vp / vx) ** 0.25
        params, value = ClassicalModelParams(s, s), output_product_limit(in_model)
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
