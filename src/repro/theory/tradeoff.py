"""Utility-privacy trade-off (paper Section 4.3, Theorem 4.9 / Eq. 19).

A noise level ``c`` simultaneously delivers (alpha, beta)-utility and
(epsilon, delta)-LDP iff it lies in the window

    [ c_min (privacy, Thm 4.8) ,  c_max (utility, Thm 4.3) ].

:func:`noise_level_window` computes the window; :func:`matched_lambda1`
solves Eq. 19 — the ``lambda1`` at which the window closes to a single
point (the knife-edge trade-off the paper discusses); and
:func:`choose_noise_level` picks a deployable ``c`` (geometric midpoint of
a non-empty window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.theory.privacy import min_noise_level
from repro.theory.utility import alpha_threshold, max_noise_level
from repro.utils.validation import (
    ensure_in_range,
    ensure_int,
    ensure_positive,
)


@dataclass(frozen=True)
class TradeoffWindow:
    """The feasible noise-level interval for a parameter set."""

    c_min: float
    c_max: float
    lambda1: float
    alpha: float
    beta: float
    epsilon: float
    delta: float
    num_users: int

    @property
    def feasible(self) -> bool:
        """True when some noise level satisfies both theorems."""
        return self.c_min <= self.c_max and self.c_max > 0

    @property
    def width(self) -> float:
        return max(0.0, self.c_max - self.c_min)

    def contains(self, c: float) -> bool:
        return self.feasible and self.c_min <= c <= self.c_max


def noise_level_window(
    lambda1: float,
    alpha: float,
    beta: float,
    num_users: int,
    epsilon: float,
    delta: float,
    *,
    b: float = 3.0,
    eta: float = 0.95,
) -> TradeoffWindow:
    """Theorem 4.9: the interval of c meeting both guarantees.

    ``c_min`` comes from Theorem 4.8 (privacy), ``c_max`` from Theorem
    4.3 (utility).  ``feasible`` is False when privacy demands more noise
    than utility can absorb.
    """
    c_max = max_noise_level(lambda1, alpha, beta, num_users)
    c_min = min_noise_level(lambda1, epsilon, delta, b=b, eta=eta)
    return TradeoffWindow(
        c_min=c_min,
        c_max=c_max,
        lambda1=lambda1,
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        delta=delta,
        num_users=num_users,
    )


def matched_lambda1(
    alpha: float,
    beta: float,
    num_users: int,
    epsilon: float,
    delta: float,
    *,
    b: float = 3.0,
    eta: float = 0.95,
    bracket: tuple[float, float] = (1e-3, 1e6),
) -> float:
    """Solve Eq. 19 for ``lambda1``: the data quality at which the
    utility upper bound equals the privacy lower bound.

    ``C(lambda1) = K1 * lambda1 - 2`` is increasing in ``lambda1`` while
    the privacy bound ``K2 / lambda1`` is decreasing, so a unique
    crossing exists whenever the bracket straddles it (Brent's method).

    Raises ``ValueError`` when no crossing lies inside ``bracket``.
    """
    ensure_positive(alpha, "alpha")
    ensure_in_range(beta, "beta", 0.0, 1.0)
    ensure_int(num_users, "num_users", minimum=1)
    ensure_positive(epsilon, "epsilon")
    ensure_in_range(delta, "delta", 0.0, 1.0, low_inclusive=False, high_inclusive=False)

    def gap(lambda1: float) -> float:
        return max_noise_level(lambda1, alpha, beta, num_users) - min_noise_level(
            lambda1, epsilon, delta, b=b, eta=eta
        )

    lo, hi = bracket
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo > 0 and g_hi > 0:
        raise ValueError(
            "window already open across the whole bracket; no knife-edge "
            "lambda1 inside it"
        )
    if g_lo < 0 and g_hi < 0:
        raise ValueError(
            "window closed across the whole bracket; requested guarantees "
            "are infeasible for any lambda1 in it"
        )
    from scipy import optimize

    return float(optimize.brentq(gap, lo, hi))


def choose_noise_level(window: TradeoffWindow) -> Optional[float]:
    """Pick a deployable c from a window: geometric midpoint, or None.

    The geometric mean balances the multiplicative slack toward each
    bound; for a degenerate (single-point) window it returns that point.
    """
    if not window.feasible:
        return None
    lo = max(window.c_min, 1e-12)
    return math.sqrt(lo * window.c_max)


def alpha_feasibility_floor(lambda1: float, c: float) -> float:
    """Convenience re-export of the utility alpha threshold at (lambda1, c).

    Theorem 4.9's quantifier is "forall alpha > alpha_threshold"; callers
    building parameter grids use this to stay in the valid region.
    """
    return alpha_threshold(lambda1, c)


def lambda2_for_noise_level(lambda1: float, c: float) -> float:
    """Map a chosen noise level ``c`` back to the mechanism knob:
    ``lambda2 = lambda1 / c`` (since c = lambda1/lambda2)."""
    ensure_positive(lambda1, "lambda1")
    ensure_positive(c, "c")
    return lambda1 / c
