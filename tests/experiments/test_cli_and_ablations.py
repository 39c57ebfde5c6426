"""Tests for the CLI and the ablation experiments."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.ablations import (
    mechanisms_ablation,
    methods_ablation,
    scaling_experiment,
    sparsity_ablation,
)
from repro.experiments.runner import Profile

TINY = Profile(name="quick", num_trials=2, grid_points=3, num_users=24, num_objects=8)


class TestAblations:
    def test_methods_ablation_structure(self):
        result = methods_ablation(TINY, base_seed=3)
        panel = result.panels[0]
        labels = {s.label for s in panel.series}
        assert {"crh", "gtm", "catd", "mean", "median"} <= labels
        # At the default biased minority too, CRH beats plain averaging.
        assert sum(panel.series_by_label("crh").y) < sum(
            panel.series_by_label("mean").y
        )

    def test_weighted_beats_mean_under_adversaries(self):
        result = methods_ablation(TINY, base_seed=3, adversary_fraction=0.25)
        panel = result.panels[0]
        crh = panel.series_by_label("crh").y
        mean = panel.series_by_label("mean").y
        # averaged across the noise grid, CRH should beat plain averaging
        assert sum(crh) < sum(mean)

    def test_mechanisms_ablation_structure(self):
        result = mechanisms_ablation(TINY, base_seed=3)
        labels = {s.label for s in result.panels[0].series}
        assert labels == {"exp-gaussian", "fixed-gaussian", "laplace"}
        # Weighted aggregation absorbs noise whatever its shape: every
        # mechanism's MAE stays below the noise it injected.
        for series in result.panels[0].series:
            for target, mae in zip(series.x, series.y):
                assert mae < target, (
                    f"{series.label}: MAE {mae:.3f} not below noise {target:.3f}"
                )

    def test_sparsity_degrades_gracefully(self):
        result = sparsity_ablation(TINY, base_seed=3)
        utility = result.panels[0].series_by_label("vs unperturbed").y
        # Even at the highest missing rate the private aggregate stays
        # within the 0.5 injected noise of the unperturbed one.
        assert max(utility) < 0.5

    def test_scaling_monotone(self):
        result = scaling_experiment(TINY, base_seed=3)
        sizes = result.panels[0].series[0].x
        times = result.panels[0].series[0].y
        # larger problems cannot be systematically faster end-to-end
        assert times[-1] > times[0] * 0.5
        # Near-linear in objects (Section 5.3): the time ratio stays
        # under 5x the size ratio.
        assert times[-1] / times[0] < 5 * sizes[-1] / sizes[0]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig8" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_recover_command(self, capsys, tmp_path):
        import numpy as np

        from repro.durable import DurabilityManager
        from repro.service import IngestService, ServiceConfig, Topology

        wal_dir = tmp_path / "wal"
        manager = DurabilityManager(wal_dir)
        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=32),
            topology=Topology.in_process(durability=manager),
        )
        service.register_campaign("cli-c0", ["a", "b"], max_users=4)
        rng = np.random.default_rng(0)
        service.submit_columns(
            "cli-c0",
            rng.integers(0, 4, size=64),
            rng.integers(0, 2, size=64),
            rng.normal(size=64),
        )
        service.flush()
        manager.close()

        out_json = tmp_path / "report.json"
        code = main(
            [
                "recover", str(wal_dir),
                "--campaign", "cli-c0",
                "--output", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered 1 campaign(s)" in out
        assert "campaign cli-c0" in out
        import json

        report = json.loads(out_json.read_text())
        assert report["claims_replayed"] == 64

    def test_recover_missing_directory_errors(self, capsys, tmp_path):
        code = main(["recover", str(tmp_path / "absent")])
        assert code == 2
        assert "no durability directory" in capsys.readouterr().err

    def test_recover_corrupt_log_errors_cleanly(self, capsys, tmp_path):
        # Mid-log damage must exit 2 with a message, not a traceback.
        from repro.durable import records as rec
        from repro.durable.wal import WriteAheadLog, list_segments

        with WriteAheadLog(tmp_path, max_segment_bytes=128) as wal:
            for i in range(6):
                wal.append(
                    rec.REFRESH,
                    rec.encode_json_payload({"campaign_id": f"c{i}"}),
                )
        first = list_segments(tmp_path)[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF
        first.write_bytes(bytes(data))
        code = main(["recover", str(tmp_path)])
        assert code == 2
        assert "corrupt frame mid-log" in capsys.readouterr().err

    def test_run_fig3_quick(self, capsys, monkeypatch):
        # Patch the quick profile lookup to the tiny one to keep CI fast.
        import repro.experiments.runner as runner_mod

        monkeypatch.setitem(runner_mod._PROFILES, "quick", TINY)
        assert main(["run", "fig3", "--profile", "quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "legend" in out

    def test_run_markdown_output(self, capsys, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setitem(runner_mod._PROFILES, "quick", TINY)
        assert main(["run", "fig3", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "### fig3" in out
        assert "|" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_main_builds_only_the_subparser_it_runs(self, monkeypatch):
        """A launcher child pays for its own role's subparser alone; an
        argv that names no subcommand first gets every one."""
        import repro.cli as cli
        import repro.net.host

        built = []
        for name, add in list(cli.SUBCOMMANDS.items()):
            monkeypatch.setitem(
                cli.SUBCOMMANDS,
                name,
                lambda sub, name=name, add=add: (built.append(name), add(sub)),
            )
        served = []
        monkeypatch.setattr(
            repro.net.host, "serve_shard", lambda **kw: served.append(kw) or 0
        )
        assert main(["serve-shard", "--port", "0", "--worker-id", "3"]) == 0
        assert built == ["serve-shard"]
        assert served[0]["worker_id"] == 3
        for argv in (["serve"], ["no-such-command"], []):
            built.clear()
            with pytest.raises(SystemExit):
                main(argv)
            assert built == list(cli.SUBCOMMANDS)

    def test_verbose_flag(self, capsys, monkeypatch):
        import logging

        import repro.experiments.runner as runner_mod

        monkeypatch.setitem(runner_mod._PROFILES, "quick", TINY)
        assert main(["-v", "run", "fig3"]) == 0
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_console", False):
                logger.removeHandler(handler)
