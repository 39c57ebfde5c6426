"""A CHARGE record carries every charge admitted since the last one.

A manager records a charge at admission and logs it in order, no later
than the first batch or commit point after it.  These tests hold that
to the one-record-per-charge logging it replaced
(``per_charge_reference``): over arbitrary sessions the recovered
ledger is bitwise the same and the logged charges, flattened, are the
admissions; and no prefix of a log replays a submission's claims
without its charge.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import per_charge_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryManager,
    read_wal,
)
from repro.durable import records as rec
from repro.durable.wal import list_segments
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.topology import Topology

#: Campaigns of different cost; a cap of 2.0 refuses some admissions.
COSTS = {
    "c0": LDPGuarantee(epsilon=0.3, delta=0.0),
    "c1": LDPGuarantee(epsilon=0.7, delta=1e-7),
}
OBJECTS = tuple(f"o{i}" for i in range(4))
USERS = tuple(f"u{i}" for i in range(6))
MAX_USERS = 8
#: Named up front; a costed chunk that addresses a slot no user has
#: taken yet raises ValueError, an outcome both sides must share.
KNOWN = USERS[:3]

campaigns = st.sampled_from(sorted(COSTS))
values = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def device_submits(draw):
    n = draw(st.integers(1, 4))
    return ("submit", ClaimSubmission(
        campaign_id=draw(campaigns),
        user_id=draw(st.sampled_from(USERS)),
        object_ids=tuple(draw(st.lists(
            st.sampled_from(OBJECTS), min_size=n, max_size=n
        ))),
        values=tuple(draw(st.lists(values, min_size=n, max_size=n))),
    ))


@st.composite
def column_chunks(draw):
    n = draw(st.integers(1, 6))
    users = draw(st.lists(
        st.integers(0, MAX_USERS - 1), min_size=n, max_size=n
    ))
    objects = draw(st.lists(
        st.integers(0, len(OBJECTS) - 1), min_size=n, max_size=n
    ))
    return ("columns", draw(campaigns), np.array(users), np.array(objects),
            np.array(draw(st.lists(values, min_size=n, max_size=n))))


sessions = st.lists(
    st.one_of(
        device_submits(), device_submits(), device_submits(),
        column_chunks(),
        st.sampled_from(
            [("pump",), ("flush",), ("checkpoint",), ("compact",), ("crash",)]
        ),
    ),
    max_size=40,
)


def durable_service(directory, fsync, *, reference):
    manager = DurabilityManager(DurabilityConfig(directory, fsync=fsync))
    if reference:
        per_charge_reference.install(manager)
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=4),
        ledger=BudgetLedger(epsilon_cap=2.0, delta_cap=1e-6),
        topology=Topology.in_process(durability=manager),
    )
    for campaign_id, cost in COSTS.items():
        service.register_campaign(
            campaign_id, OBJECTS, max_users=MAX_USERS, user_ids=KNOWN,
            cost=cost,
        )
    return service, manager


def apply(service, op):
    """Run ``op``; a submission's outcome, else None."""
    kind = op[0]
    if kind == "submit":
        return service.submit(op[1])
    if kind == "columns":
        try:
            return service.submit_columns(*op[1:])
        except ValueError as exc:  # a costed chunk on an unnamed slot
            return str(exc)
    if kind == "pump":
        service.pump()
    elif kind == "flush":
        service.flush()
    elif kind == "checkpoint":
        service.durability.checkpoint()
    elif kind == "compact":
        service.durability.compact()


def recovered_ledger(directory: Path, crash: Path) -> str:
    """The ledger recovered from a copy of ``directory`` as it stands:
    in synchronous mode, exactly the records at or below the durable
    watermark.  ``repr`` keeps the float bits and the record order."""
    shutil.copytree(directory, crash)
    recovered = RecoveryManager(crash).recover()
    return repr(recovered.service.ledger.to_records())


def charge_entries(directory: Path) -> list:
    """Every CHARGE record's charges, flattened in log order."""
    return [
        entry
        for record in read_wal(directory, repair=False).records
        if record.rtype == rec.CHARGE
        for entry in rec.charge_entries(record.decode())
    ]


@settings(max_examples=60, deadline=None)
@given(ops=sessions, fsync=st.sampled_from(["batch", "always"]))
def test_charge_groups_recover_what_per_charge_records_did(ops, fsync):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        group, _ = durable_service(root / "group", fsync, reference=False)
        ref, ref_manager = durable_service(root / "ref", fsync, reference=True)
        admitted = []
        log_charge = ref_manager.log_charge

        def record_admission(user_id, guarantee, *, label=""):
            admitted.append(
                (user_id, guarantee.epsilon, guarantee.delta, label)
            )
            return log_charge(user_id, guarantee, label=label)

        ref_manager.log_charge = record_admission
        for step, op in enumerate([*ops, ("crash",)]):
            if op[0] != "crash":
                assert apply(group, op) == apply(ref, op), op
                continue
            crash = root / f"crash-{step}"
            assert recovered_ledger(
                root / "group", crash / "group"
            ) == recovered_ledger(root / "ref", crash / "ref")
        for service in (group, ref):
            service.close()
            service.durability.close()
        assert charge_entries(root / "ref") == admitted
        assert charge_entries(root / "group") == admitted


def frame_ends(segment: Path) -> list[int]:
    """Byte offsets at which each frame of a segment ends."""
    data = segment.read_bytes()
    ends, offset = [], 8  # past the segment magic
    while offset < len(data):
        offset += 8 + int.from_bytes(data[offset:offset + 4], "little")
        ends.append(offset)
    return ends


def test_no_log_prefix_replays_claims_without_their_charges(tmp_path):
    """Cut the log of a device session at every frame boundary, and one
    byte past it (a torn frame, which recovery truncates): in every
    prefix each user has at least as many charges replayed as
    submissions whose claims were replayed.

    This is the ordering that makes grouping safe.  A group logged at
    the pump's commit point, *after* the batches the pump wrote, leaves
    prefixes that end between a batch and the charges that admitted
    its claims: a crash there would replay claims whose budget was
    never spent, so the group must be appended before any BATCH record.
    """
    claims_per_submission = 2
    cost = LDPGuarantee(epsilon=1.0, delta=0.0)
    manager = DurabilityManager(DurabilityConfig(tmp_path / "live"))
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=4),
        ledger=BudgetLedger(epsilon_cap=1e6),
        topology=Topology.in_process(durability=manager),
    )
    service.register_campaign("c0", OBJECTS, max_users=MAX_USERS, cost=cost)
    rng = np.random.default_rng(5)
    for burst in range(6):
        for _ in range(5):
            service.submit(ClaimSubmission(
                "c0", str(rng.choice(USERS)), OBJECTS[:claims_per_submission],
                tuple(rng.normal(size=claims_per_submission)),
            ))
        if burst % 2:
            service.flush()
        else:
            service.pump()
    service.close()
    manager.close()
    (segment,) = list_segments(tmp_path / "live")
    data = segment.read_bytes()
    ends = frame_ends(segment)
    assert ends[-1] == len(data)
    kinds = [r.rtype for r in read_wal(tmp_path / "live").records]
    assert kinds.count(rec.CHARGE) < kinds.count(rec.BATCH)
    for cut in (n for end in ends for n in (end, end + 1) if n <= len(data)):
        directory = tmp_path / f"cut-{cut}"
        directory.mkdir()
        (directory / segment.name).write_bytes(data[:cut])
        recovered = RecoveryManager(directory).recover().service
        if not recovered.has_campaign("c0"):
            continue  # cut before the registration
        ledger = recovered.ledger
        state = recovered.campaign_state("c0")
        for slot, user_id in enumerate(state.user_table):
            submissions = state.claims_by_slot[slot] // claims_per_submission
            charges = ledger.spent(user_id).epsilon / cost.epsilon
            assert charges >= submissions, (cut, user_id)


def test_charge_is_logged_at_admission_under_fsync_always(tmp_path):
    manager = DurabilityManager(DurabilityConfig(tmp_path, fsync="always"))
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=64),
        ledger=BudgetLedger(epsilon_cap=10.0),
        topology=Topology.in_process(durability=manager),
    )
    service.register_campaign(
        "c0", OBJECTS, max_users=MAX_USERS, cost=COSTS["c1"]
    )
    for i, user_id in enumerate(("u0", "u1", "u0")):
        assert service.submit(
            ClaimSubmission("c0", user_id, OBJECTS[:1], (float(i),))
        ).ok
        # Nothing was pumped: the charge alone reached the disk.
        assert charge_entries(tmp_path)[-1] == (
            user_id, COSTS["c1"].epsilon, COSTS["c1"].delta, "c0"
        )
        assert len(charge_entries(tmp_path)) == i + 1
    service.close()
    manager.close()
