"""Campaign runtime: drives devices, transport, and server to completion.

:func:`run_campaign` executes one full protocol round under simulated
time:

1. the server announces the campaign (assignment messages fan out);
2. the clock advances past delivery; each device that received its
   assignment perturbs locally and submits;
3. the clock advances to the deadline; the server collects whatever
   arrived and finalises the aggregate.

Everything is deterministic given the seeds baked into the devices and
transport, so protocol-level tests are exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.crowdsensing.campaign import CampaignReport, CampaignSpec
from repro.crowdsensing.device import UserDevice
from repro.crowdsensing.faults import RELIABLE, FaultModel
from repro.crowdsensing.messages import TaskAssignment
from repro.crowdsensing.server import AggregationServer
from repro.crowdsensing.transport import InProcessTransport
from repro.utils.rng import RandomState, spawn_generators

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.service.ingest import IngestService


def build_devices(
    observations_by_user: Mapping[str, Mapping[object, float]],
    *,
    random_state: RandomState = None,
) -> list[UserDevice]:
    """Construct one device per user with independent RNG streams."""
    users = list(observations_by_user)
    streams = spawn_generators(random_state, len(users))
    return [
        UserDevice(user_id, observations_by_user[user_id], random_state=stream)
        for user_id, stream in zip(users, streams)
    ]


def run_campaign(
    spec: CampaignSpec,
    devices: Sequence[UserDevice],
    *,
    fault_model: FaultModel = RELIABLE,
    transport: Optional[InProcessTransport] = None,
    random_state: RandomState = None,
    service: Optional["IngestService"] = None,
) -> CampaignReport:
    """Run one campaign end to end and return its report.

    Parameters
    ----------
    spec:
        The campaign to run.
    devices:
        Participating user devices (each owns its observations and RNG).
    fault_model:
        Link behaviour for the whole round (drops, latency, stragglers).
    transport:
        Supply an existing transport to chain multiple campaigns over
        one network (stats accumulate); default builds a fresh one.
    service:
        The ingestion service the server stores and aggregates the
        campaign on (``repro.service``) — pass one for a durable,
        sharded or budget-ledgered deployment; default: a fresh
        in-process service.
    """
    if transport is None:
        transport = InProcessTransport(
            fault_model=fault_model, random_state=random_state
        )
    server = AggregationServer(transport, service=service)

    user_ids = [d.user_id for d in devices]
    assignments_sent = server.announce_campaign(spec, user_ids)

    # Deliver assignments: advance to just past the latest queued delivery
    # but never beyond the deadline.
    transport.drain_until_idle(max_time=spec.deadline / 2.0)

    # Devices react to whatever reached them.
    for device in devices:
        for message in transport.receive(device.user_id):
            if isinstance(message, TaskAssignment):
                submission = device.handle_assignment(message)
                if submission is not None:
                    transport.send(device.user_id, server.node_id, submission)

    # Let submissions arrive until the deadline, then close the round.
    transport.drain_until_idle(max_time=spec.deadline)
    server.collect()
    report = server.finalise(spec, assignments_sent=assignments_sent)
    # Flush announcement messages so chained campaigns start clean.
    transport.drain_until_idle(max_time=spec.deadline + 1.0)
    return report
