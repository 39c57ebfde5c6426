"""Tests for the extension experiments module.

The privacy audit and the Theorem 4.3 check are Monte Carlo estimates,
so their tolerances are binomial bounds with a stated false-alarm rate:
the chance that the test fails although the claim it checks holds.
"""

import math

from scipy.stats import binom, norm

from repro.experiments import run_experiment
from repro.experiments.extensions import (
    AUDIT_GAP,
    AUDIT_LAMBDAS,
    THEORY_NOISE_LEVELS,
    categorical_rr,
    privacy_audit,
    theory_check,
    tradeoff_window,
)
from repro.experiments.runner import Profile
from repro.privacy.ldp import marginal_laplace_epsilon

TINY = Profile(name="quick", num_trials=2, grid_points=3, num_users=24, num_objects=8)


class TestPrivacyAudit:
    def test_structure(self):
        result = privacy_audit(TINY, base_seed=1)
        labels = {s.label for s in result.panels[0].series}
        assert labels == {
            "threshold", "marginal-lr", "known-variance-lr", "theory",
        }

    def test_accuracy_decreases_with_noise(self):
        result = privacy_audit(TINY, base_seed=1)
        theory = result.panels[0].series_by_label("theory").y
        # lambda2 grid is increasing => noise decreasing => accuracy up
        assert all(a <= b for a, b in zip(theory, theory[1:]))

    def test_marginal_attacker_matches_theory_and_the_pure_epsilon_cap(self):
        """The optimal marginal attacker leaks what the Laplace-marginal
        analysis says and no more.  Its accuracy is a binomial mean over
        ``n`` games, so it may sit ``z * sqrt(p (1 - p) / n)`` from its
        expectation ``p``; ``z`` gives each of the two checks a
        false-alarm rate of 1e-3 across the six noise levels."""
        result = privacy_audit(TINY, base_seed=1)
        panel = result.panels[0]
        n = result.metadata["trials"]
        assert n == 4_000
        z_two_sided = norm.isf(1e-3 / len(AUDIT_LAMBDAS) / 2)
        z_one_sided = norm.isf(1e-3 / len(AUDIT_LAMBDAS))

        def tolerance(p, z):
            return z * math.sqrt(p * (1.0 - p) / n)

        measured = panel.series_by_label("marginal-lr").y
        predicted = panel.series_by_label("theory").y
        for lam, acc, theory in zip(AUDIT_LAMBDAS, measured, predicted):
            assert abs(acc - theory) <= tolerance(theory, z_two_sided), (
                f"lambda2={lam}: attacker accuracy {acc:.4f} vs theory "
                f"{theory:.4f}"
            )
            eps = marginal_laplace_epsilon(lam, AUDIT_GAP)
            cap = 0.5 + (1.0 - math.exp(-eps / 2.0)) / 2.0
            assert acc <= cap + tolerance(cap, z_one_sided), (
                f"lambda2={lam}: accuracy {acc:.4f} above the pure-epsilon "
                f"cap {cap:.4f}"
            )


class TestCategoricalRR:
    def test_structure_and_shape(self):
        result = categorical_rr(TINY, base_seed=1)
        panel = result.panels[0]
        assert {s.label for s in panel.series} == {
            "majority", "weighted-voting", "accuracy-em",
        }
        for series in panel.series:
            assert series.y[-1] <= series.y[0] + 1e-9


class TestTheoryCheck:
    def test_bound_dominates_empirical(self):
        """Theorem 4.3 says each replicate fails with probability at most
        the bound, so the exceedance count is at most Binomial(n, bound).
        A count whose upper tail under that law is below 1e-3 (split
        over the noise levels) refutes the theorem; a correct theorem
        fails this test with probability at most 1e-3.  The bounds are
        ~1e-4, so at n = 60 this allows one exceedance per level."""
        result = theory_check(TINY, base_seed=1)
        panel = result.panels[0]
        n = result.metadata["replicates"]
        empirical = panel.series_by_label("empirical").y
        bound = panel.series_by_label("theorem bound").y
        false_alarm = 1e-3 / len(THEORY_NOISE_LEVELS)
        for c, emp, thm in zip(panel.series[0].x, empirical, bound):
            exceedances = round(emp * n)
            assert binom.sf(exceedances - 1, n, thm) >= false_alarm, (
                f"c={c}: {exceedances} of {n} replicates exceed alpha, "
                f"against a Theorem 4.3 bound of {thm:.2e}"
            )


class TestTradeoffWindow:
    def test_bounds_monotone(self):
        result = tradeoff_window(TINY, base_seed=1)
        panel = result.panels[0]
        c_min = panel.series_by_label("c_min (privacy, Thm 4.8)").y
        c_max = panel.series_by_label("c_max (utility, Thm 4.3)").y
        assert all(a > b for a, b in zip(c_min, c_min[1:]))
        assert all(a < b for a, b in zip(c_max, c_max[1:]))

    def test_knife_edge_recorded(self):
        result = tradeoff_window(TINY, base_seed=1)
        knife = float(result.metadata["knife_edge_lambda1"])
        assert 0.01 < knife < 10.0
        # The window flips at the independently solved knife edge:
        # closed below it, open above it.
        panel = result.panels[0]
        c_min, c_max = panel.series[0].y, panel.series[1].y
        for x, lo, hi in zip(panel.series[0].x, c_min, c_max):
            if x < knife * 0.95:
                assert lo > hi, f"window should be closed at lambda1={x}"
            if x > knife * 1.05:
                assert lo < hi, f"window should be open at lambda1={x}"

    def test_registered(self):
        result = run_experiment("ext-tradeoff-window", TINY, base_seed=1)
        assert result.figure_id == "ext-tradeoff-window"
