"""Simulated crowd sensing system (the paper's deployment context).

Server, user devices, message protocol, and an in-process transport with
fault injection — a runnable model of Figure 1's architecture in which
Algorithm 2's client side executes on the devices and the untrusted
server only ever sees perturbed claims.  The deployment is strictly
server-mediated: devices talk only to the server, never to each other,
and :class:`TransportStats` counts any message that breaks that shape.
The server's storage and aggregation are the serving layer's: every
campaign runs on an :class:`~repro.service.ingest.IngestService`, a
fresh in-process one unless :func:`run_campaign` is given ``service=``.
Per-user privacy budgets are enforced there too, not here: a service
with a :class:`~repro.service.ledger.BudgetLedger` admits every
submission against it.
"""

from repro.crowdsensing.campaign import CampaignReport, CampaignSpec
from repro.crowdsensing.device import SensorModel, UserDevice
from repro.crowdsensing.faults import RELIABLE, FaultModel, lossy
from repro.crowdsensing.messages import (
    AggregateAnnouncement,
    ClaimSubmission,
    Envelope,
    TaskAssignment,
    from_wire,
    to_wire,
)
from repro.crowdsensing.runtime import build_devices, run_campaign
from repro.crowdsensing.server import AggregationServer
from repro.crowdsensing.transport import InProcessTransport, TransportStats

__all__ = [
    "AggregateAnnouncement",
    "AggregationServer",
    "CampaignReport",
    "CampaignSpec",
    "ClaimSubmission",
    "Envelope",
    "FaultModel",
    "InProcessTransport",
    "RELIABLE",
    "SensorModel",
    "TaskAssignment",
    "TransportStats",
    "UserDevice",
    "build_devices",
    "from_wire",
    "lossy",
    "run_campaign",
    "to_wire",
]
