"""The aggregation server (untrusted, in the paper's threat model).

The server can only observe what arrives on the wire: perturbed claims.
It assigns tasks, collects submissions until the campaign deadline, runs
truth discovery on whatever arrived, and publishes the aggregate.  It
never sees noise variances or original values — by construction, those
fields do not exist in the message schema.

Campaign storage and aggregation run on an
:class:`~repro.service.ingest.IngestService`: ``announce_campaign``
registers the campaign there, every collected submission is submitted
to it, and ``finalise`` reads the campaign's
:class:`~repro.service.snapshot.TruthSnapshot`.  Small campaigns fit
their method on the claims held (a repeated claim for one user and
object replaces the earlier one); large CRH/GTM/CATD campaigns stream
(see :func:`~repro.service.aggregator.resolve_backend`).

Campaigns are *closed* by finalise: submissions that arrive afterwards
(stragglers, duplicates, replays) are counted and logged per campaign
rather than silently dropped, so late traffic is observable under load
via :attr:`AggregationServer.late_submission_counts`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.crowdsensing.campaign import CampaignReport, CampaignSpec
from repro.crowdsensing.messages import (
    AggregateAnnouncement,
    ClaimSubmission,
    TaskAssignment,
)
from repro.crowdsensing.transport import InProcessTransport
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.service.ingest import IngestService

_LOGGER = get_logger("crowdsensing.server")


class AggregationServer:
    """Server-side of the crowd sensing protocol.

    Parameters
    ----------
    transport:
        The message transport to announce/collect over.
    node_id:
        Transport identity; must keep the ``server`` prefix so the
        transport can audit user-to-user traffic.
    service:
        The :class:`~repro.service.ingest.IngestService` campaigns run
        on — pass one for a durable, sharded or budget-ledgered
        deployment.  Default: a fresh in-process service.
    """

    def __init__(
        self,
        transport: InProcessTransport,
        *,
        node_id: str = "server",
        service: Optional["IngestService"] = None,
    ) -> None:
        if not node_id.startswith("server"):
            raise ValueError(
                "server node ids must start with 'server' (the transport "
                "uses the prefix to audit user-to-user traffic)"
            )
        if service is None:
            # Imported here: repro.service.ingest imports this package.
            from repro.service.ingest import IngestService

            service = IngestService()
        self.node_id = node_id
        self._transport = transport
        self._service = service
        self._announced: set[str] = set()
        self._closed: set[str] = set()
        self._late_counts: dict[str, int] = {}
        self._unknown_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def late_submission_counts(self) -> dict[str, int]:
        """Per-campaign submissions that arrived after finalise closed it."""
        return dict(self._late_counts)

    @property
    def unknown_submission_counts(self) -> dict[str, int]:
        """Submissions received for campaigns never announced here."""
        return dict(self._unknown_counts)

    def announce_campaign(
        self, spec: CampaignSpec, user_ids: list[str]
    ) -> int:
        """Register the campaign and send the task assignment to every
        user; returns the send count.

        Re-announcing a campaign starts a fresh round: the service's
        state for the old round is discarded.  Only the announced users
        hold a slot, so a submission from anyone else is refused.
        """
        campaign_id = spec.campaign_id
        self._announced.add(campaign_id)
        self._closed.discard(campaign_id)
        # A fresh round starts with a clean late-arrival counter;
        # round N's stragglers must not show up against round N+1.
        self._late_counts.pop(campaign_id, None)
        if self._service.has_campaign(campaign_id):
            self._service.unregister_campaign(campaign_id)
        # Slots in id order: a refit then sees its users in the report's
        # contributor order, whatever order they were announced in.
        slot_ids = sorted(set(user_ids))
        self._service.register_campaign(
            campaign_id,
            spec.object_ids,
            max_users=max(len(slot_ids), 1),
            user_ids=slot_ids,
            method=spec.method,
        )
        assignment = TaskAssignment(
            campaign_id=campaign_id,
            object_ids=tuple(spec.object_ids),
            lambda2=spec.lambda2,
            deadline=spec.deadline,
        )
        sent = 0
        for user_id in user_ids:
            self._transport.send(self.node_id, user_id, assignment)
            sent += 1
        _LOGGER.debug("campaign %s announced to %d users", campaign_id, sent)
        return sent

    def collect(self) -> dict[str, int]:
        """Drain the server inbox into the service.

        Returns the number of accepted submissions per campaign.  Late
        submissions (for campaigns already finalised), submissions for
        unknown campaigns and submissions the service refuses are
        logged and counted — never silently dropped — but excluded from
        the returned counts.
        """
        counts: dict[str, int] = {}
        for message in self._transport.receive(self.node_id):
            if not isinstance(message, ClaimSubmission):
                continue
            campaign_id = message.campaign_id
            if campaign_id in self._closed:
                self._late_counts[campaign_id] = (
                    self._late_counts.get(campaign_id, 0) + 1
                )
                _LOGGER.warning(
                    "late submission from %s for closed campaign %s "
                    "(%d late so far)",
                    message.user_id,
                    campaign_id,
                    self._late_counts[campaign_id],
                )
                continue
            if campaign_id not in self._announced:
                self._unknown_counts[campaign_id] = (
                    self._unknown_counts.get(campaign_id, 0) + 1
                )
                _LOGGER.warning(
                    "submission for unknown campaign %s ignored",
                    campaign_id,
                )
                continue
            result = self._service.submit(message)
            if not result.ok:
                _LOGGER.warning(
                    "service rejected submission from %s for %s: %s",
                    message.user_id,
                    campaign_id,
                    result.reason,
                )
                continue
            counts[campaign_id] = counts.get(campaign_id, 0) + 1
        return counts

    # ------------------------------------------------------------------
    def finalise(
        self,
        spec: CampaignSpec,
        *,
        assignments_sent: int,
        announce: bool = True,
    ) -> CampaignReport:
        """Aggregate the collected submissions for ``spec`` (Algorithm 2
        line 6), close the campaign, and optionally publish the result.

        The campaign fails — no truths — when fewer than
        ``spec.min_contributors`` distinct users contributed claims, or
        when an object received none (its truth would be a placeholder).
        A campaign never announced here fails with no contributors.
        """
        campaign_id = spec.campaign_id
        truths = weights = None
        contributors: tuple = ()
        if campaign_id in self._announced:
            snapshot = self._service.snapshot(campaign_id)
            contributors = tuple(sorted(snapshot.weights_by_user))
        num_received = len(contributors)
        self._closed.add(campaign_id)

        # min_contributors >= 1: a campaign never announced stops here.
        if num_received < spec.min_contributors:
            _LOGGER.warning(
                "campaign %s failed: %d contributors < %d required",
                campaign_id,
                num_received,
                spec.min_contributors,
            )
        elif not snapshot.seen_objects.all():
            _LOGGER.warning(
                "campaign %s failed: %d of %d objects received no claims",
                campaign_id,
                int((~snapshot.seen_objects).sum()),
                len(spec.object_ids),
            )
        else:
            truths = snapshot.truths.copy()
            weights = np.array(
                [snapshot.weights_by_user[u] for u in contributors],
                dtype=float,
            )
            if announce:
                announcement = AggregateAnnouncement(
                    campaign_id=campaign_id,
                    object_ids=tuple(spec.object_ids),
                    truths=tuple(float(t) for t in truths),
                    num_contributors=num_received,
                )
                for user_id in contributors:
                    self._transport.send(self.node_id, user_id, announcement)

        return CampaignReport(
            spec=spec,
            truths=truths,
            weights=weights,
            contributors=contributors,
            submissions_received=num_received,
            assignments_sent=assignments_sent,
            completed_at=self._transport.now,
            messages_total=self._transport.stats.sent,
            user_to_user_messages=self._transport.user_to_user_messages(),
        )
