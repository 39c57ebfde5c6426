"""Distribution of the pairwise deviation scale ``Y`` (proof of Thm 4.3).

In the utility proof the key random variable is

    Y_{s,s'} = sqrt(sigma_s^2 + sigma_{s'}^2 + delta_{s'}^2),

where the two error variances are i.i.d. ``Exp(lambda1)`` and the noise
variance is ``Exp(lambda2)`` (independent).  Writing ``T = Y^2``, ``T`` is
the sum of a ``Gamma(2, 1/lambda1)`` and an ``Exp(lambda2)`` variable.

Closed forms implemented here (all cross-checked against numerical
integration and Monte Carlo in ``tests/theory/``):

* density ``f_T`` by convolution; for ``lambda1 != lambda2``:

      f_T(t) = A [ e^{-l2 t} - e^{-l1 t} - (l1 - l2) t e^{-l1 t} ],
      A = l1^2 l2 / (l1 - l2)^2,

  which, via ``h(y) = 2 y f_T(y^2)``, reproduces the paper's printed
  h(y) exactly;
* for ``lambda1 == lambda2`` (the paper's Appendix A case):
  ``T ~ Gamma(3, 1/lambda1)``, ``h(y) = lambda1^3 y^5 e^{-lambda1 y^2}``;
* moments:  ``E[T] = 2/l1 + 1/l2`` (the paper's E(Y^2)),
  ``E[sqrt(T)]`` from termwise ``integral sqrt(t) e^{-l t} dt =
  sqrt(pi) / (2 l^{3/2})`` and ``integral t^{3/2} e^{-l t} dt =
  3 sqrt(pi) / (4 l^{5/2})``.

The printed E(Y) expression in the paper is typographically garbled; we
use the derivation above (see DESIGN.md, "Known typos").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ensure_positive

#: relative |lambda1 - lambda2| below which the equal-rate (c = 1)
#: formulas are used to avoid catastrophic cancellation.
_EQUAL_RATE_RTOL = 1e-6


@dataclass(frozen=True)
class PairDeviationDistribution:
    """The distribution of ``Y = sqrt(T)`` for given ``(lambda1, lambda2)``."""

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        ensure_positive(self.lambda1, "lambda1")
        ensure_positive(self.lambda2, "lambda2")

    # -- regime ---------------------------------------------------------
    @property
    def is_equal_rate(self) -> bool:
        """True when lambda1 ~= lambda2 (noise level c ~= 1)."""
        return (
            abs(self.lambda1 - self.lambda2)
            <= _EQUAL_RATE_RTOL * max(self.lambda1, self.lambda2)
        )

    @property
    def noise_level(self) -> float:
        """``c = (1/lambda2) / (1/lambda1) = lambda1 / lambda2``."""
        return self.lambda1 / self.lambda2

    # -- densities ------------------------------------------------------
    def pdf_t(self, t) -> np.ndarray:
        """Density of ``T = Y^2`` at ``t`` (vectorised)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        l1, l2 = self.lambda1, self.lambda2
        if self.is_equal_rate:
            # T ~ Gamma(3, 1/l1):  f(t) = l1^3 t^2 e^{-l1 t} / 2
            out[pos] = 0.5 * l1**3 * t[pos] ** 2 * np.exp(-l1 * t[pos])
            return out
        a = l1**2 * l2 / (l1 - l2) ** 2
        tp = t[pos]
        out[pos] = a * (
            np.exp(-l2 * tp)
            - np.exp(-l1 * tp)
            - (l1 - l2) * tp * np.exp(-l1 * tp)
        )
        return out

    def pdf_y(self, y) -> np.ndarray:
        """Density of ``Y`` at ``y``: ``h(y) = 2 y f_T(y^2)``.

        Matches the paper's h(y) for c != 1 and the Appendix A
        ``lambda1^3 y^5 exp(-lambda1 y^2)`` for c = 1.
        """
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = 2.0 * y[pos] * self.pdf_t(y[pos] ** 2)
        return out

    # -- moments --------------------------------------------------------
    def mean_square(self) -> float:
        """``E[Y^2] = 2/lambda1 + 1/lambda2`` (paper's E(Y^2))."""
        return 2.0 / self.lambda1 + 1.0 / self.lambda2

    def mean(self) -> float:
        """``E[Y]`` in closed form (derivation in module docstring)."""
        l1, l2 = self.lambda1, self.lambda2
        if self.is_equal_rate:
            # E[sqrt(T)], T ~ Gamma(3, 1/l1):
            # Gamma(3.5)/Gamma(3) / sqrt(l1) = (15/16) sqrt(pi / l1)
            return 15.0 * math.sqrt(math.pi) / (16.0 * math.sqrt(l1))
        a = l1**2 * l2 / (l1 - l2) ** 2
        term_exp = 0.5 * math.sqrt(math.pi) * (l2**-1.5 - l1**-1.5)
        term_t = (l1 - l2) * 0.75 * math.sqrt(math.pi) * l1**-2.5
        return a * (term_exp - term_t)

    def variance(self) -> float:
        """``Var[Y] = E[Y^2] - E[Y]^2``."""
        return self.mean_square() - self.mean() ** 2

    # -- numeric cross-checks ------------------------------------------
    def mean_numeric(self) -> float:
        """``E[Y]`` by adaptive quadrature over ``h(y)`` (for testing)."""
        from scipy import integrate

        val, _err = integrate.quad(
            lambda y: y * float(self.pdf_y(np.array([y]))[0]), 0.0, np.inf,
            limit=200,
        )
        return val

    def mean_square_numeric(self) -> float:
        """``E[Y^2]`` by quadrature (for testing)."""
        from scipy import integrate

        val, _err = integrate.quad(
            lambda y: y**2 * float(self.pdf_y(np.array([y]))[0]), 0.0, np.inf,
            limit=200,
        )
        return val

    def normalisation_numeric(self) -> float:
        """Integral of ``h`` over (0, inf); should be 1."""
        from scipy import integrate

        val, _err = integrate.quad(
            lambda y: float(self.pdf_y(np.array([y]))[0]), 0.0, np.inf,
            limit=200,
        )
        return val

    # -- sampling -------------------------------------------------------
    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        """Monte Carlo draws of ``Y`` (two error draws + one noise draw)."""
        rng = as_generator(random_state)
        sigma_sq_a = rng.exponential(scale=1.0 / self.lambda1, size=size)
        sigma_sq_b = rng.exponential(scale=1.0 / self.lambda1, size=size)
        delta_sq = rng.exponential(scale=1.0 / self.lambda2, size=size)
        return np.sqrt(sigma_sq_a + sigma_sq_b + delta_sq)


def pair_deviation_from_noise_level(
    lambda1: float, c: float
) -> PairDeviationDistribution:
    """Build the Y distribution from ``(lambda1, c)`` with ``c = l1/l2``."""
    ensure_positive(lambda1, "lambda1")
    ensure_positive(c, "c")
    return PairDeviationDistribution(lambda1=lambda1, lambda2=lambda1 / c)


def expected_pairwise_gap(lambda1: float, c: float) -> float:
    """``sqrt(2/pi) * E[Y]`` — the mean of ``|x^s_n - xhat^{s'}_n|``.

    Eq. 10 of the paper: for Gaussian deviations the mean absolute
    difference is ``sqrt(2/pi)`` times the deviation scale ``Y``.
    """
    dist = pair_deviation_from_noise_level(lambda1, c)
    return math.sqrt(2.0 / math.pi) * dist.mean()
