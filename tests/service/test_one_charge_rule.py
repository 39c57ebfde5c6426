"""Both submit doors charge through one columnar ledger rule.

``submit()`` charges one row of the ledger's spent columns;
``submit_columns()`` hands the chunk's distinct users to
``BudgetLedger.charge_group``, which compares the whole group against
the caps and then charges it.  Neither may show against the frozen dict
ledger and its per-user bulk loop (``dict_ledger_reference``): after
every step of any mix of both doors, recovered charges, ledger round
trips and crashes, every result, ledger total, counter, accountant event
and logged byte is bitwise equal.  The one declared difference: a costed
chunk that addresses a slot with no name raises ``ValueError`` before
anything is reserved or charged, where the reference charged it as
``"slot:N"``, one row shared by every campaign.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_ledger_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable.manager import DurabilityConfig
from repro.durable.recovery import RecoveryManager
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.ldp import LDPGuarantee
from repro.service import ledger as ledger_module
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.topology import Topology

#: alpha, beta and wide charge; gamma is cost-free, so its chunks may
#: address unnamed slots ("slot:N" placeholders, never charged).
COSTS = {
    "alpha": LDPGuarantee(epsilon=0.1, delta=0.05),
    "beta": LDPGuarantee(epsilon=0.1, delta=0.0),
    "gamma": None,
    "wide": LDPGuarantee(epsilon=0.1, delta=0.0),
}
OBJECTS = ("o0", "o1", "o2")
USERS = ("u0", "u1", "u2", "u3")
#: Named in alpha, beta and gamma up front: u0 spends one budget in
#: alpha and beta.  u2 and u3 get slots 2 and 3 through submit(), when
#: they do.
KNOWN = USERS[:2]
MAX_USERS = 4
#: All named in "wide" up front: charges through both doors there take
#: the ledger past its first 16 rows, where its columns double.
WIDE = tuple(f"w{i}" for i in range(64))
#: Every row a ledger may hold, "slot:0" only through a recovered
#: charge (a log written before chunks had to name their users).
UNIVERSE = USERS + ("slot:0", "slot:1") + WIDE
#: Caps on and within the 1e-12 / 1e-15 slack of the sums the costs
#: reach (0.1 x 3 is 0.30000000000000004; 0.05 x 3 is
#: 0.15000000000000002), and ones that never refuse.
EPSILON_CAPS = st.sampled_from([0.3, 0.3 - 2e-12, 0.3 + 5e-13, 0.6, 1e6])
DELTA_CAPS = st.sampled_from([0.15, 0.15 - 2e-15, 0.15 + 5e-16, 1.0])

finite = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def submissions(draw):
    n = draw(st.integers(1, 3))
    campaign_id = draw(st.sampled_from(sorted(COSTS)))
    return ("submit", ClaimSubmission(
        campaign_id=campaign_id,
        user_id=draw(st.sampled_from(
            WIDE if campaign_id == "wide" else USERS
        )),
        object_ids=tuple(draw(st.lists(
            st.sampled_from(OBJECTS), min_size=n, max_size=n
        ))),
        values=tuple(draw(st.lists(finite, min_size=n, max_size=n))),
    ))


@st.composite
def column_chunks(draw):
    campaign_id = draw(st.sampled_from(sorted(COSTS)))
    # Mostly the named slots; 2 and 3 are named only once their user
    # submitted.  Wide chunks reach any of its 64 slots.
    slots = (
        st.integers(0, len(WIDE) - 1) if campaign_id == "wide"
        else st.sampled_from([0, 0, 1, 1, 2, 3])
    )
    n = draw(st.integers(1, 24 if campaign_id == "wide" else 10))
    return (
        "columns",
        campaign_id,
        np.array(draw(st.lists(slots, min_size=n, max_size=n))),
        np.array(draw(st.lists(
            st.integers(0, len(OBJECTS) - 1), min_size=n, max_size=n
        ))),
        np.array(draw(st.lists(finite, min_size=n, max_size=n))),
    )


recovered = st.tuples(
    st.just("record_spent"),
    st.sampled_from(UNIVERSE),
    st.sampled_from([0.0, 0.05, 0.1, 0.2]),
    st.sampled_from([0.0, 0.05]),
)
operations = st.lists(
    st.one_of(
        submissions(), submissions(), column_chunks(), column_chunks(),
        column_chunks(), recovered,
        st.sampled_from([("pump",), ("roundtrip",), ("crash",)]),
    ),
    min_size=8, max_size=40,
)


def build(caps, directory, fsync, reference):
    topology = None
    if directory is not None:
        topology = Topology.in_process(
            durability=DurabilityConfig(directory=directory, fsync=fsync)
        )
    ledger_type = (
        dict_ledger_reference.BudgetLedger if reference else BudgetLedger
    )
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=4, queue_capacity=64),
        ledger=ledger_type(
            caps[0], delta_cap=caps[1], accountant=PrivacyAccountant()
        ),
        topology=topology,
    )
    for campaign_id, cost in COSTS.items():
        names = WIDE if campaign_id == "wide" else KNOWN
        service.register_campaign(
            campaign_id, OBJECTS, max_users=max(len(names), MAX_USERS),
            user_ids=names, method="crh", cost=cost,
        )
    return watch(service, reference)


def watch(service, reference):
    """Install the reference bulk charge on a reference service, and
    record what every bulk charge returned (the refused user)."""
    if reference:
        dict_ledger_reference.install(service)
    charge_chunk = service._charge_chunk
    service.chunk_charges = []
    service.unnamed_refused = 0  # submissions the reference never saw

    def recorded(*args):
        refused = charge_chunk(*args)
        service.chunk_charges.append(refused)
        return refused

    service._charge_chunk = recorded
    return service


def bitwise(value):
    """``value`` with every float as its hex form, so that comparing two
    views compares bits (0.0 and -0.0 differ) and types (1 and 1.0)."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, LDPGuarantee):
        return ("guarantee", bitwise(value.epsilon), bitwise(value.delta))
    if isinstance(value, (list, tuple)):
        return tuple(bitwise(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, bitwise(v)) for k, v in value.items())
    return value


def view(service):
    ledger = service.ledger
    stats = service.stats.as_dict()
    for timing in ("snapshot_read_seconds", "wal_commit_seconds"):
        stats.pop(timing, None)
    stats["submissions"] -= service.unnamed_refused
    return {key: bitwise(value) for key, value in {
        "records": ledger.to_records(),
        "spent": [ledger.spent(u) for u in UNIVERSE],
        "remaining": [ledger.remaining_epsilon(u) for u in UNIVERSE],
        "worst": ledger.worst_case(),
        "num_users": ledger.num_users,
        "admitted": ledger.admitted,
        "denied": ledger.denied,
        "events": [
            (e.user_id, e.guarantee, e.mechanism, e.label)
            for e in ledger.accountant._events
        ],
        "chunk_charges": service.chunk_charges,
        "stats": stats,
        "reserved": [shard._reserved for shard in service._shards],
        "user_tables": [
            list(service.campaign_state(c).user_table) for c in COSTS
        ],
    }.items()}


def directory_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


def unnamed_costed_chunk(service, op):
    if op[0] != "columns":
        return False
    state = service.campaign_state(op[1])
    return state.cost is not None and op[2].max() >= len(state.user_table)


def apply(service, op):
    kind = op[0]
    if kind == "submit":
        return service.submit(op[1])
    if kind == "columns":
        return service.submit_columns(*op[1:])
    if kind == "record_spent":
        return service.ledger.record_spent(
            op[1], LDPGuarantee(epsilon=op[2], delta=op[3])
        )
    return service.pump()


def round_trip(service):
    """Rebuild the ledger from its records, keeping its accountant."""
    ledger = service.ledger
    service._ledger = type(ledger).from_records(
        ledger.to_records(), epsilon_cap=ledger.epsilon_cap,
        delta_cap=ledger.delta_cap, accountant=ledger.accountant,
    )


def crash(service, directory, generation, fsync, reference, monkeypatch):
    """Copy the log as it stands, abandon ``service`` and recover the
    copy (checkpoint records through ``from_records``, later charges
    through ``record_spent``), on the reference ledger for the
    reference side."""
    crashed = Path(directory).with_name(
        f"{Path(directory).name.split('-')[0]}-{generation}"
    )
    shutil.copytree(directory, crashed)
    service.close()
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(
                ledger_module, "BudgetLedger",
                dict_ledger_reference.BudgetLedger,
            )
        recovered = RecoveryManager(crashed).recover(
            accountant=PrivacyAccountant(), resume=True,
            durability_config=DurabilityConfig(crashed, fsync=fsync),
        ).service
    return watch(recovered, reference), str(crashed)


def wide(*slots):
    return ("columns", "wide", np.array(slots), np.zeros(len(slots), int),
            np.ones(len(slots)))


def wide_submit(user):
    return ("submit", ClaimSubmission("wide", WIDE[user], ("o0",), (1.0,)))


#: Both doors across every doubling of the ledger's columns: a chunk
#: whose new users straddle row 15 (the spare of 16 rows), submit()
#: taking row 31, a chunk ending on row 63, a single high slot, a round
#: trip through 65 records and a refused group (w5's four claims).
ACROSS_THE_SPARE_ROWS = [
    *(wide_submit(i) for i in range(10)),
    wide(*range(10, 30), 12, 29),
    wide_submit(30), wide_submit(31), ("pump",),
    wide(63), ("crash",),
    wide(*range(32, 63)),
    ("record_spent", "slot:0", 0.1, 0.0),
    ("roundtrip",),
    wide(0, 5, 5, 5, 5, 40), wide(0, 40, 63), ("pump",), ("crash",),
]


@pytest.mark.parametrize("durable", [None, "never", "always"])
@given(ops=operations, caps=st.tuples(EPSILON_CAPS, DELTA_CAPS))
@example(ops=ACROSS_THE_SPARE_ROWS, caps=(0.3, 0.15))
@example(ops=ACROSS_THE_SPARE_ROWS, caps=(1e6, 1.0))
@settings(max_examples=80, deadline=None)
def test_one_rule_equals_the_dict_ledger(durable, ops, caps):
    with (
        tempfile.TemporaryDirectory() as tmp,
        pytest.MonkeyPatch.context() as mp,
    ):
        dirs = [f"{tmp}/{side}-0" if durable else None for side in "ab"]
        sides = [
            build(caps, dirs[0], durable, reference=False),
            build(caps, dirs[1], durable, reference=True),
        ]
        try:
            for step, op in enumerate(ops + [("pump",)]):
                service, reference = sides
                if op == ("crash",):
                    if not durable:
                        continue
                    for i, ref in enumerate((False, True)):
                        sides[i], dirs[i] = crash(
                            sides[i], dirs[i], step + 1, durable, ref, mp
                        )
                elif op == ("roundtrip",):
                    round_trip(service)
                    round_trip(reference)
                elif unnamed_costed_chunk(service, op):
                    # The declared difference: refused before anything
                    # is reserved or charged; the reference charged
                    # "slot:N" and is not asked.
                    before = view(service)
                    with pytest.raises(ValueError, match="name its users"):
                        apply(service, op)
                    service.unnamed_refused += 1
                    assert view(service) == before, op
                else:
                    assert apply(service, op) == apply(reference, op), op
                assert view(sides[0]) == view(sides[1]), op
                if durable:
                    assert directory_bytes(dirs[0]) == directory_bytes(
                        dirs[1]
                    ), op
        finally:
            for service in sides:
                service.close()


class TestOneIdentity:
    """A ledger row is a person: the two-campaign reproduction."""

    def service(self, *, cap=1.0):
        ledger = BudgetLedger(epsilon_cap=cap)
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=8), ledger=ledger
        )
        cost = LDPGuarantee(epsilon=1.0, delta=0.0)
        service.register_campaign(
            "A", ("o0",), max_users=4, user_ids=("ann",), cost=cost
        )
        service.register_campaign(
            "B", ("o0",), max_users=4, user_ids=("bob",), cost=cost
        )
        return service, ledger

    @staticmethod
    def chunk(campaign_id, slot):
        return (campaign_id, np.array([slot]), np.array([0]), np.array([1.0]))

    def test_named_users_of_two_campaigns_get_their_own_charge(self):
        service, ledger = self.service()
        assert service.submit_columns(*self.chunk("A", 0)).ok
        assert service.submit_columns(*self.chunk("B", 0)).ok
        assert ledger.spent("ann").epsilon == 1.0
        assert ledger.spent("bob").epsilon == 1.0
        assert ledger.num_users == 2

    def test_one_name_shares_one_budget(self):
        service, ledger = self.service()
        service.register_campaign(
            "C", ("o0",), max_users=4, user_ids=("ann",),
            cost=LDPGuarantee(epsilon=1.0, delta=0.0),
        )
        assert service.submit_columns(*self.chunk("A", 0)).ok
        assert service.submit_columns(*self.chunk("C", 0)).reason == "budget"
        assert ledger.spent("ann").epsilon == 1.0

    def test_an_unnamed_costed_slot_is_refused_with_nothing_spent(self):
        service, ledger = self.service()
        stats_before = service.stats.as_dict()
        with pytest.raises(ValueError, match="name its users"):
            service.submit_columns(*self.chunk("A", 1))
        assert ledger.num_users == 0 and ledger.admitted == 0
        assert [shard._reserved for shard in service._shards] == [0, 0]
        assert service.queue_depths() == [0, 0]
        assert len(service.campaign_state("A").user_table) == 1
        stats = service.stats.as_dict()
        assert stats["submissions"] == stats_before["submissions"] + 1
        assert stats["claims_accepted"] == 0
        # The named slot still charges, and a named user of the other
        # campaign is untouched.
        assert service.submit_columns(*self.chunk("A", 0)).ok
        assert service.submit_columns(*self.chunk("B", 0)).ok

    def test_a_cost_free_chunk_keeps_its_placeholders(self):
        service, ledger = self.service()
        service.register_campaign("free", ("o0",), max_users=4)
        assert service.submit_columns(*self.chunk("free", 2)).ok
        table = service.campaign_state("free").user_table
        assert list(table) == ["slot:0", "slot:1", "slot:2"]
        assert ledger.num_users == 0

    def test_a_recovered_placeholder_row_is_never_charged_again(self):
        # A log written before chunks had to name their users holds
        # "slot:0" charges: they replay as they are, and no live charge
        # reaches that row.
        service, ledger = self.service(cap=5.0)
        ledger.record_spent("slot:0", LDPGuarantee(epsilon=1.0, delta=0.0))
        service.register_campaign(
            "free", ("o0",), max_users=4, cost=None
        )
        assert service.submit_columns(*self.chunk("free", 0)).ok
        assert service.submit_columns(*self.chunk("A", 0)).ok
        with pytest.raises(ValueError):
            service.submit_columns(*self.chunk("B", 1))
        assert ledger.to_records() == [
            {"user_id": "ann", "epsilon": 1.0, "delta": 0.0},
            {"user_id": "slot:0", "epsilon": 1.0, "delta": 0.0},
        ]
