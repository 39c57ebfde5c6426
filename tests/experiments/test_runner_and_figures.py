"""Tests for the experiment runner and the per-figure experiments.

Figure experiments run under a tiny ad-hoc profile so the whole module
stays fast; shape assertions mirror the qualitative claims the paper
makes about each figure; ``repro all --profile quick`` runs the real
profile end to end.
"""

import numpy as np
import pytest

from repro.core.mechanism import PrivateTruthDiscovery
from repro.experiments import (
    EXPERIMENTS,
    available_experiments,
    run_experiment,
)
from repro.experiments.figures import fig2, fig3, fig4, fig5, fig6, fig7, fig8
from repro.experiments.figures.common import check_tradeoff_shape
from repro.experiments.runner import (
    FULL,
    QUICK,
    Profile,
    TrialStats,
    epsilon_grid,
    get_profile,
    measure_utility,
    sweep,
)

TINY = Profile(name="quick", num_trials=2, grid_points=3, num_users=30, num_objects=8)


class TestProfile:
    def test_lookup(self):
        assert get_profile("quick") is QUICK
        assert get_profile("full") is FULL
        assert get_profile(TINY) is TINY

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_profile("huge")

    def test_validation(self):
        with pytest.raises(ValueError):
            Profile(name="bad", num_trials=0, grid_points=3, num_users=5, num_objects=5)


class TestTrialStats:
    def test_from_values(self):
        stats = TrialStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialStats.from_values([])


class TestMeasureUtility:
    def test_statistics_collected(self, synthetic_dataset):
        pipeline = PrivateTruthDiscovery(method="crh", lambda2=2.0)
        point = measure_utility(
            synthetic_dataset.claims, pipeline, num_trials=3, base_seed=0
        )
        assert point.mae.count == 3
        assert point.noise.mean > 0
        assert point.rmse.mean >= point.mae.mean

    def test_deterministic(self, synthetic_dataset):
        pipeline = PrivateTruthDiscovery(method="crh", lambda2=2.0)
        a = measure_utility(
            synthetic_dataset.claims, pipeline, num_trials=2, base_seed=1
        )
        b = measure_utility(
            synthetic_dataset.claims, pipeline, num_trials=2, base_seed=1
        )
        assert a.mae.mean == b.mae.mean

    def test_label_changes_seeds(self, synthetic_dataset):
        pipeline = PrivateTruthDiscovery(method="crh", lambda2=2.0)
        a = measure_utility(
            synthetic_dataset.claims, pipeline, num_trials=2, base_seed=1, label="x"
        )
        b = measure_utility(
            synthetic_dataset.claims, pipeline, num_trials=2, base_seed=1, label="y"
        )
        assert a.mae.mean != b.mae.mean


class TestSweepHelpers:
    def test_sweep(self):
        xs, ys = sweep([1, 2, 3], lambda v: (v, v * v))
        assert xs == (1.0, 2.0, 3.0)
        assert ys == (1.0, 4.0, 9.0)

    def test_epsilon_grid(self):
        grid = epsilon_grid(TINY)
        assert len(grid) == TINY.grid_points
        assert grid[0] == pytest.approx(0.25)
        assert grid[-1] == pytest.approx(3.0)


class TestRegistry:
    def test_all_figures_present(self):
        names = available_experiments()
        for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert fig in names
        assert "ablation-methods" in names

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")


class TestFig2:
    def test_structure_and_shape(self):
        result = fig2.run(TINY, base_seed=11)
        assert result.figure_id == "fig2"
        assert len(result.panels) == 2
        assert len(result.panels[0].series) == 4  # four deltas
        problems = check_tradeoff_shape(result)
        assert problems == [], problems

    def test_delta_ordering_of_noise(self):
        # At fixed epsilon, larger delta allows smaller noise.
        result = fig2.run(TINY, base_seed=11)
        noise = result.panel("(b) Average of Added Noise")
        first_x = {
            s.label: s.y[0] for s in noise.series
        }
        assert first_x["delta=0.2"] > first_x["delta=0.5"]

    def test_catd_same_shape(self):
        # Method generality beyond the paper's CRH and GTM.
        result = run_experiment("fig2-catd", TINY, base_seed=11)
        assert result.metadata["method"] == "catd"
        problems = check_tradeoff_shape(result)
        assert problems == [], problems


class TestFig3:
    def test_both_panels_decrease(self):
        result = fig3.run(TINY, base_seed=11)
        noise = result.panel("(b) Average of Added Noise").series[0].y
        mae = result.panel("(a) MAE").series[0].y
        # noise strictly decreases with lambda1 (deterministic mapping)
        assert all(a > b for a, b in zip(noise, noise[1:]))
        # MAE trends down end-to-end (stochastic, so endpoint comparison)
        assert mae[-1] < mae[0]


class TestFig4:
    def test_noise_flat_and_mae_falls(self):
        result = fig4.run(TINY, base_seed=11)
        noise = result.panel("(b) Average of Added Noise").series[0].y
        mae = result.panel("(a) MAE").series[0].y
        spread = (max(noise) - min(noise)) / np.mean(noise)
        assert spread < 0.35  # flat in S up to sampling noise
        assert mae[-1] < mae[0]  # more users help utility


class TestFig5:
    def test_gtm_same_shape(self):
        result = fig5.run(TINY, base_seed=11)
        assert result.figure_id == "fig5"
        assert result.metadata["method"] == "gtm"
        problems = check_tradeoff_shape(result)
        assert problems == [], problems


class TestFig6:
    def test_floorplan_tradeoff(self):
        result = fig6.run(TINY, base_seed=11)
        assert result.figure_id == "fig6"
        problems = check_tradeoff_shape(result)
        assert problems == [], problems


class TestFig7:
    def test_panels_and_correlations(self):
        result = fig7.run(TINY, base_seed=11)
        assert len(result.panels) == 2
        for panel in result.panels:
            assert {s.label for s in panel.series} == {"true", "estimated"}
            assert len(panel.series[0].x) == 7
        # estimated weights track true weights on the full population
        assert float(result.metadata["pearson_original"]) > 0.5
        assert float(result.metadata["pearson_perturbed"]) > 0.5

    def test_noisiest_user_downweighted(self):
        result = fig7.run(TINY, base_seed=11)
        w_orig = float(result.metadata["noisiest_user_weight_original"])
        w_pert = float(result.metadata["noisiest_user_weight_perturbed"])
        assert w_pert < w_orig


class TestFig8:
    def test_two_series_present(self):
        result = fig8.run(TINY, base_seed=11)
        panel = result.panels[0]
        labels = {s.label for s in panel.series}
        assert labels == {"perturbed", "original (baseline)"}

    def test_time_roughly_flat_in_noise(self):
        result = fig8.run(TINY, base_seed=11)
        times = result.panels[0].series_by_label("perturbed").y
        assert max(times) < 20 * max(min(times), 1e-6)


class TestRunExperimentDispatch:
    def test_run_by_name(self):
        result = run_experiment("fig3", TINY, base_seed=5)
        assert result.figure_id == "fig3"

    def test_every_registered_experiment_runs(self):
        for name in EXPERIMENTS:
            result = run_experiment(name, TINY, base_seed=5)
            assert result.panels
