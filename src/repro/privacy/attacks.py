"""Adversarial auditing of the perturbation mechanism.

The paper argues (Section 3.2) that a key strength of the mechanism is
that "the noise distribution is unknown to any other parties including
the server": the server knows only the hyper-parameter ``lambda2``, not
any user's realised variance.  This module makes that claim empirically
testable by implementing the strongest reasonable attackers on both
sides of the boundary:

* :class:`ThresholdAttacker` — knows nothing about the noise; guesses
  from the observed value alone (baseline).
* :class:`LikelihoodRatioAttacker` — the Neyman-Pearson-optimal test
  given the *marginal* output distribution the adversary can actually
  compute.  Two knowledge levels:

  - ``known_variance``: the adversary magically knows the user's
    realised variance (the counterfactual the paper's design removes);
  - ``marginal``: the adversary knows only lambda2 and must integrate
    over Exp(lambda2) — the real threat model.

``audit_mechanism`` runs the distinguishing game
(x1 vs x2, separated by the sensitivity) many times and reports each
attacker's advantage, quantifying how much protection the private
variance layer adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ensure_int, ensure_positive


@dataclass(frozen=True)
class AttackReport:
    """Outcome of a distinguishing game for one attacker."""

    attacker: str
    accuracy: float
    advantage: float  # accuracy - 0.5, in [0, 0.5]
    num_trials: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError("accuracy must be in [0, 1]")


class ThresholdAttacker:
    """Guess x1 when the output is closer to x1 than to x2."""

    name = "threshold"

    def __init__(self, x1: float, x2: float) -> None:
        if x1 == x2:
            raise ValueError("x1 and x2 must differ")
        self._midpoint = (x1 + x2) / 2.0
        self._x1_low = x1 < x2

    def guess_is_x1(self, observed: float) -> bool:
        below = observed < self._midpoint
        return below if self._x1_low else not below


class LikelihoodRatioAttacker:
    """Optimal test given a density model of the mechanism's output.

    ``density(observed, centre)`` must return the adversary's model of
    the output density given the true value ``centre``.
    """

    name = "likelihood-ratio"

    def __init__(
        self,
        x1: float,
        x2: float,
        density: Callable[[float, float], float],
    ) -> None:
        if x1 == x2:
            raise ValueError("x1 and x2 must differ")
        self._x1, self._x2 = x1, x2
        self._density = density

    def guess_is_x1(self, observed: float) -> bool:
        return self._density(observed, self._x1) >= self._density(
            observed, self._x2
        )


def gaussian_density_known_variance(variance: float):
    """Adversary model: exact Gaussian with the user's realised variance."""
    ensure_positive(variance, "variance")

    def density(observed: float, centre: float) -> float:
        return math.exp(-((observed - centre) ** 2) / (2.0 * variance)) / math.sqrt(
            2.0 * math.pi * variance
        )

    return density


def marginal_density(lambda2: float):
    """Adversary model: Gaussian noise with Exp(lambda2) variance mixed out.

    The marginal output density for true value ``centre`` is

        f(x) = integral_0^inf N(x; centre, v) lambda2 e^{-lambda2 v} dv
             = sqrt(lambda2 / 2) * exp(-sqrt(2 lambda2) |x - centre|),

    a Laplace density with scale ``1/sqrt(2 lambda2)`` — the well-known
    Gaussian-scale-mixture identity (exponential mixing of the variance
    yields a Laplace marginal).  Implemented in closed form, verified
    against numeric integration in the tests.
    """
    ensure_positive(lambda2, "lambda2")
    b = 1.0 / math.sqrt(2.0 * lambda2)

    def density(observed: float, centre: float) -> float:
        return math.exp(-abs(observed - centre) / b) / (2.0 * b)

    return density


def marginal_density_numeric(lambda2: float):
    """Quadrature version of :func:`marginal_density` (for verification)."""
    from scipy import integrate

    ensure_positive(lambda2, "lambda2")

    def density(observed: float, centre: float) -> float:
        def integrand(v: float) -> float:
            return (
                math.exp(-((observed - centre) ** 2) / (2.0 * v))
                / math.sqrt(2.0 * math.pi * v)
                * lambda2
                * math.exp(-lambda2 * v)
            )

        value, _err = integrate.quad(integrand, 0.0, np.inf, limit=200)
        return value

    return density


def audit_mechanism(
    lambda2: float,
    x1: float,
    x2: float,
    *,
    num_trials: int = 4000,
    random_state: RandomState = None,
) -> dict[str, AttackReport]:
    """Run the distinguishing game against all three attacker models.

    Each trial: flip a fair coin for the true value, sample a fresh
    private variance ``v ~ Exp(lambda2)`` and noise ``N(0, v)``, then let
    each attacker guess.  The ``known-variance`` attacker is handed the
    realised ``v`` (the counterfactual adversary the private-variance
    design defeats); the others see only the output.
    """
    ensure_positive(lambda2, "lambda2")
    ensure_int(num_trials, "num_trials", minimum=100)
    if x1 == x2:
        raise ValueError("x1 and x2 must differ")
    rng = as_generator(random_state)

    threshold = ThresholdAttacker(x1, x2)
    marginal = LikelihoodRatioAttacker(x1, x2, marginal_density(lambda2))

    correct = {"threshold": 0, "marginal-lr": 0, "known-variance-lr": 0}
    for _ in range(num_trials):
        truth_is_x1 = bool(rng.random() < 0.5)
        centre = x1 if truth_is_x1 else x2
        variance = float(rng.exponential(1.0 / lambda2))
        observed = centre + float(rng.normal(0.0, math.sqrt(variance)))

        if threshold.guess_is_x1(observed) == truth_is_x1:
            correct["threshold"] += 1
        if marginal.guess_is_x1(observed) == truth_is_x1:
            correct["marginal-lr"] += 1
        oracle = LikelihoodRatioAttacker(
            x1, x2, gaussian_density_known_variance(variance)
        )
        if oracle.guess_is_x1(observed) == truth_is_x1:
            correct["known-variance-lr"] += 1

    reports = {}
    for name, hits in correct.items():
        accuracy = hits / num_trials
        reports[name] = AttackReport(
            attacker=name,
            accuracy=accuracy,
            advantage=max(0.0, accuracy - 0.5),
            num_trials=num_trials,
        )
    return reports


def theoretical_marginal_advantage(lambda2: float, gap: float) -> float:
    """Best possible advantage of the marginal (Laplace) attacker.

    For two Laplace(b) distributions ``gap`` apart, the total variation
    distance is ``1 - exp(-gap / (2b))`` and the optimal distinguishing
    advantage is ``TV / 2``.
    """
    ensure_positive(lambda2, "lambda2")
    ensure_positive(gap, "gap", strict=False)
    b = 1.0 / math.sqrt(2.0 * lambda2)
    tv = 1.0 - math.exp(-gap / (2.0 * b))
    return tv / 2.0
