"""Crowdsensing-over-service integration tests (plus a slow target check)."""

import sys
from pathlib import Path

import pytest

from repro.crowdsensing import (
    CampaignSpec,
    InProcessTransport,
    build_devices,
    run_campaign,
)
from repro.crowdsensing.messages import ClaimSubmission
from repro.crowdsensing.server import AggregationServer
from repro.service import IngestService, ServiceConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "crowdsensing"))
from classic_server_reference import classic_finalise  # noqa: E402


class RecordingTransport(InProcessTransport):
    """Keeps every message the server drains, in arrival order."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.server_inbox: list = []

    def receive(self, node_id: str) -> list:
        messages = super().receive(node_id)
        if node_id == "server":
            self.server_inbox.extend(messages)
        return messages


def observations(num_users: int) -> dict:
    return {
        f"u{i}": {"o1": 1.0 + 0.01 * i, "o2": 2.0 - 0.01 * i}
        for i in range(num_users)
    }


class TestServiceBackedCampaigns:
    def test_run_campaign_matches_classic_path(self):
        spec = CampaignSpec(
            campaign_id="parity", object_ids=("o1", "o2"), lambda2=2.0
        )
        transport = RecordingTransport(random_state=5)
        service = IngestService(ServiceConfig(num_shards=2, max_batch=4))
        served = run_campaign(
            spec, build_devices(observations(8), random_state=5),
            transport=transport, service=service,
        )
        truths, weights, contributors, received = classic_finalise(
            spec, transport.server_inbox
        )
        assert served.succeeded
        assert served.contributors == contributors
        assert served.submissions_received == received == 8
        # Same claims, same batch fit: the same bits.
        assert served.truths.tobytes() == truths.tobytes()
        assert served.weights.tobytes() == weights.tobytes()

    def test_quorum_enforced_on_service_path(self):
        spec = CampaignSpec(
            campaign_id="quorum", object_ids=("o1", "o2"), lambda2=2.0,
            min_contributors=5,
        )
        service = IngestService(ServiceConfig(num_shards=1))
        report = run_campaign(
            spec, build_devices(observations(3), random_state=5),
            random_state=5, service=service,
        )
        assert not report.succeeded
        assert report.submissions_received == 3

    def test_mid_campaign_snapshot_readable(self):
        transport = InProcessTransport(random_state=0)
        service = IngestService(ServiceConfig(num_shards=1, max_batch=2))
        server = AggregationServer(transport, service=service)
        spec = CampaignSpec(
            campaign_id="live", object_ids=("o1",), lambda2=1.0,
            min_contributors=1,
        )
        server.announce_campaign(spec, ["u1", "u2"])
        transport.drain_until_idle()
        transport.send("u1", "server", ClaimSubmission("live", "u1", ("o1",), (4.0,)))
        transport.drain_until_idle()
        assert server.collect() == {"live": 1}
        # Fresh truths are queryable before finalise — the classic path
        # cannot do this.
        snap = service.snapshot("live")
        assert snap.truth_for("o1") == pytest.approx(4.0)
        report = server.finalise(spec, assignments_sent=2)
        assert report.succeeded

    def test_uncovered_objects_fail_the_campaign(self):
        """No published truth may be a 0.0 placeholder for an unclaimed
        object, and a round that leaves one unclaimed fails, whichever
        service the server runs on (``None``: its own)."""
        for service in (IngestService(ServiceConfig(num_shards=1)), None):
            transport = InProcessTransport(random_state=0)
            server = AggregationServer(transport, service=service)
            spec = CampaignSpec(
                campaign_id="gaps", object_ids=("o1", "o2"), lambda2=1.0,
                min_contributors=1,
            )
            server.announce_campaign(spec, ["u1", "u2"])
            transport.drain_until_idle()
            for user, value in (("u1", 4.0), ("u2", 5.0)):
                transport.send(
                    user, "server",
                    ClaimSubmission("gaps", user, ("o1",), (value,)),
                )
                transport.drain_until_idle()
            server.collect()
            report = server.finalise(spec, assignments_sent=2, announce=False)
            assert not report.succeeded  # o2 never received a claim
            assert report.truths is None and report.weights is None
            assert report.contributors == ("u1", "u2")

    def test_finalise_without_announce_fails_like_classic_path(self):
        transport = InProcessTransport(random_state=0)
        service = IngestService(ServiceConfig(num_shards=1))
        server = AggregationServer(transport, service=service)
        spec = CampaignSpec(
            campaign_id="ghost", object_ids=("o1",), lambda2=1.0
        )
        report = server.finalise(spec, assignments_sent=0, announce=False)
        assert not report.succeeded
        assert report.contributors == ()

    def test_reannounce_resets_service_state(self):
        """Round 2 of a campaign must not inherit round 1's aggregates."""
        transport = InProcessTransport(random_state=0)
        service = IngestService(ServiceConfig(num_shards=1, max_batch=2))
        server = AggregationServer(transport, service=service)
        spec = CampaignSpec(
            campaign_id="rounds", object_ids=("o1",), lambda2=1.0,
            min_contributors=1,
        )
        for round_value in (10.0, 20.0):
            server.announce_campaign(spec, ["u1"])
            transport.drain_until_idle()
            transport.send(
                "u1", "server",
                ClaimSubmission("rounds", "u1", ("o1",), (round_value,)),
            )
            transport.drain_until_idle()
            server.collect()
            report = server.finalise(spec, assignments_sent=1, announce=False)
            assert report.succeeded
            # Each round aggregates only its own claim.
            assert report.truths[0] == pytest.approx(round_value)


class TestServerRegressions:
    """Late/duplicate submission handling on the server's own service."""

    def test_collect_returns_per_campaign_counts(self):
        transport = InProcessTransport(random_state=0)
        server = AggregationServer(transport)
        for cid in ("a", "b"):
            server.announce_campaign(
                CampaignSpec(campaign_id=cid, object_ids=("o1",), lambda2=1.0),
                ["u1", "u2"],
            )
        transport.send("u1", "server", ClaimSubmission("a", "u1", ("o1",), (1.0,)))
        transport.send("u2", "server", ClaimSubmission("a", "u2", ("o1",), (2.0,)))
        transport.send("u1", "server", ClaimSubmission("b", "u1", ("o1",), (3.0,)))
        transport.drain_until_idle()
        assert server.collect() == {"a": 2, "b": 1}

    def test_late_submission_counted_not_silently_dropped(self, caplog):
        transport = InProcessTransport(random_state=0)
        server = AggregationServer(transport)
        spec = CampaignSpec(
            campaign_id="late", object_ids=("o1",), lambda2=1.0,
            min_contributors=1,
        )
        server.announce_campaign(spec, ["u1"])
        transport.send("u1", "server", ClaimSubmission("late", "u1", ("o1",), (1.0,)))
        transport.drain_until_idle()
        server.collect()
        server.finalise(spec, assignments_sent=1, announce=False)
        # A straggler retries after the campaign closed.
        transport.send("u1", "server", ClaimSubmission("late", "u1", ("o1",), (1.1,)))
        transport.drain_until_idle()
        with caplog.at_level("WARNING", logger="repro.crowdsensing.server"):
            counts = server.collect()
        assert counts == {}
        assert server.late_submission_counts == {"late": 1}
        assert any("late submission" in r.message for r in caplog.records)

    def test_reannounce_reopens_campaign(self):
        transport = InProcessTransport(random_state=0)
        server = AggregationServer(transport)
        spec = CampaignSpec(
            campaign_id="re", object_ids=("o1",), lambda2=1.0,
            min_contributors=1,
        )
        server.announce_campaign(spec, [])
        server.finalise(spec, assignments_sent=0, announce=False)
        # A round-1 straggler arrives after the close and is counted.
        transport.send("u9", "server", ClaimSubmission("re", "u9", ("o1",), (9.0,)))
        transport.drain_until_idle()
        server.collect()
        assert server.late_submission_counts == {"re": 1}
        server.announce_campaign(spec, [])  # round 2 reopens the bucket
        transport.send("u1", "server", ClaimSubmission("re", "u1", ("o1",), (2.0,)))
        transport.drain_until_idle()
        assert server.collect() == {"re": 1}
        # Round 1's stragglers do not haunt round 2's counters.
        assert server.late_submission_counts == {}

    def test_duplicate_submissions_still_deduplicated(self):
        transport = InProcessTransport(random_state=0)
        server = AggregationServer(transport)
        spec = CampaignSpec(
            campaign_id="dup", object_ids=("o1",), lambda2=1.0,
            min_contributors=1,
        )
        server.announce_campaign(spec, ["u1"])
        received = 0
        for value in (1.0, 2.0, 3.0):
            transport.send(
                "u1", "server", ClaimSubmission("dup", "u1", ("o1",), (value,))
            )
            # Drain between retries so arrival order is deterministic
            # (the reliable link still jitters per-message latency).
            transport.drain_until_idle()
            received += server.collect().get("dup", 0)
        assert received == 3
        report = server.finalise(spec, assignments_sent=1, announce=False)
        assert report.submissions_received == 1
        assert report.truths[0] == pytest.approx(3.0)  # last retry wins

    def test_retry_over_a_subset_replaces_cell_by_cell(self):
        """Below the full-refit switch a repeated (user, object) claim
        replaces that cell only; the user's other claims stand."""
        transport = InProcessTransport(random_state=0)
        server = AggregationServer(transport)
        spec = CampaignSpec(
            campaign_id="cells", object_ids=("o1", "o2"), lambda2=1.0,
            method="mean",
        )
        server.announce_campaign(spec, ["u1", "u2"])
        for sub in (
            ClaimSubmission("cells", "u1", ("o1", "o2"), (1.0, 5.0)),
            ClaimSubmission("cells", "u2", ("o1", "o2"), (2.0, 6.0)),
            ClaimSubmission("cells", "u1", ("o1",), (1.5,)),  # the retry
        ):
            transport.send(sub.user_id, "server", sub)
            transport.drain_until_idle()
        assert server.collect() == {"cells": 3}
        report = server.finalise(spec, assignments_sent=2, announce=False)
        assert report.submissions_received == 2
        assert report.truths.tolist() == [1.75, 5.5]

    def test_submission_from_an_unannounced_user_is_refused(self, caplog):
        transport = InProcessTransport(random_state=0)
        service = IngestService(ServiceConfig(num_shards=1))
        server = AggregationServer(transport, service=service)
        spec = CampaignSpec(
            campaign_id="closed-list", object_ids=("o1",), lambda2=1.0,
            min_contributors=1,
        )
        server.announce_campaign(spec, ["u1"])
        for user, value in (("u1", 1.0), ("stranger", 9.0)):
            transport.send(
                user, "server",
                ClaimSubmission("closed-list", user, ("o1",), (value,)),
            )
            transport.drain_until_idle()
        with caplog.at_level("WARNING", logger="repro.crowdsensing.server"):
            assert server.collect() == {"closed-list": 1}
        assert service.stats.rejected_capacity == 1
        assert any(
            "stranger" in r.getMessage() and "capacity" in r.getMessage()
            for r in caplog.records
        )
        report = server.finalise(spec, assignments_sent=1, announce=False)
        assert report.contributors == ("u1",)
        assert report.truths.tolist() == [1.0]
