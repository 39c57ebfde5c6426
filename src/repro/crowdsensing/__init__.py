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

from repro._lazy import lazy_exports

_EXPORTS = {
    "AggregateAnnouncement": "repro.crowdsensing.messages",
    "AggregationServer": "repro.crowdsensing.server",
    "CampaignReport": "repro.crowdsensing.campaign",
    "CampaignSpec": "repro.crowdsensing.campaign",
    "ClaimSubmission": "repro.crowdsensing.messages",
    "Envelope": "repro.crowdsensing.messages",
    "FaultModel": "repro.crowdsensing.faults",
    "InProcessTransport": "repro.crowdsensing.transport",
    "RELIABLE": "repro.crowdsensing.faults",
    "SensorModel": "repro.crowdsensing.device",
    "TaskAssignment": "repro.crowdsensing.messages",
    "TransportStats": "repro.crowdsensing.transport",
    "UserDevice": "repro.crowdsensing.device",
    "build_devices": "repro.crowdsensing.runtime",
    "from_wire": "repro.crowdsensing.messages",
    "lossy": "repro.crowdsensing.faults",
    "run_campaign": "repro.crowdsensing.runtime",
    "to_wire": "repro.crowdsensing.messages",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
