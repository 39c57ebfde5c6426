"""Record/work-item encoding tests for the durable subsystem."""

import json

import numpy as np
import per_charge_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import records as rec
from repro.durable.records import RecordError, WalRecord, WorkItem


def make_item(n=5, campaign_id="camp-0", wide=False):
    rng = np.random.default_rng(7)
    high = 2**40 if wide else 100
    return WorkItem(
        campaign_id=campaign_id,
        user_slots=rng.integers(0, high, size=n),
        object_slots=rng.integers(0, high, size=n),
        values=rng.normal(size=n),
    )


class TestWorkItem:
    def test_round_trip(self):
        item = make_item()
        back = WorkItem.from_bytes(item.to_bytes())
        assert back.campaign_id == item.campaign_id
        np.testing.assert_array_equal(back.user_slots, item.user_slots)
        np.testing.assert_array_equal(back.object_slots, item.object_slots)
        # Values must survive bit-for-bit, not approximately.
        assert back.values.tobytes() == item.values.tobytes()

    def test_round_trip_wide_slots(self):
        # Slots beyond i32 fall back to the wide encoding transparently.
        item = make_item(wide=True)
        back = WorkItem.from_bytes(item.to_bytes())
        np.testing.assert_array_equal(back.user_slots, item.user_slots)
        np.testing.assert_array_equal(back.object_slots, item.object_slots)

    def test_narrow_encoding_is_smaller(self):
        narrow = make_item(n=100).to_bytes()
        wide = make_item(n=100, wide=True).to_bytes()
        assert len(narrow) < len(wide)

    def test_unicode_campaign_id(self):
        item = make_item(campaign_id="luftqualität-α")
        assert WorkItem.from_bytes(item.to_bytes()).campaign_id == (
            "luftqualität-α"
        )

    def test_decoded_arrays_match_dtype(self):
        back = WorkItem.from_bytes(make_item().to_bytes())
        assert back.user_slots.dtype == np.int64
        assert back.values.dtype == np.float64

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one claim"):
            WorkItem("c", np.array([]), np.array([]), np.array([]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="share a shape"):
            WorkItem("c", np.arange(3), np.arange(2), np.arange(3.0))

    def test_truncated_payload_raises(self):
        payload = make_item().to_bytes()
        with pytest.raises(RecordError):
            WorkItem.from_bytes(payload[:-3])

    def test_garbage_payload_raises(self):
        with pytest.raises(RecordError):
            WorkItem.from_bytes(b"\xff\xff definitely not a work item")


class TestWalRecord:
    def test_batch_decode(self):
        item = make_item()
        record = WalRecord(lsn=9, rtype=rec.BATCH, payload=item.to_bytes())
        decoded = record.decode()
        assert isinstance(decoded, WorkItem)
        assert decoded.campaign_id == item.campaign_id

    def test_json_decode(self):
        body = {"campaign_id": "c1", "max_users": 4}
        record = WalRecord(
            lsn=1,
            rtype=rec.REGISTER,
            payload=rec.encode_json_payload(body),
        )
        assert record.decode() == body

    def test_unknown_type_raises(self):
        with pytest.raises(RecordError, match="unknown record type"):
            WalRecord(lsn=1, rtype=99, payload=b"{}").decode()

    def test_malformed_json_raises(self):
        record = WalRecord(lsn=1, rtype=rec.CHARGE, payload=b"{nope")
        with pytest.raises(RecordError, match="malformed JSON"):
            record.decode()

    def test_encode_json_payload_rejects_unserialisable(self):
        with pytest.raises(RecordError, match="not JSON-serialisable"):
            rec.encode_json_payload({"oops": object()})

    def test_json_payload_is_compact_and_sorted(self):
        payload = rec.encode_json_payload({"b": 1, "a": 2})
        assert payload == b'{"a":2,"b":1}'
        assert json.loads(payload) == {"a": 2, "b": 1}


def _json_charge(user_id, epsilon, delta, label):
    return rec.encode_json_payload(
        {"user_id": user_id, "epsilon": epsilon, "delta": delta, "label": label}
    )


_AWKWARD_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é☃𝄞", "\ud800", ""]),
)
_FLOATS = st.one_of(
    st.floats(),  # NaN and infinities take the general encoder's spelling
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     1e16, 1e-7, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf")]),
    st.integers(0, 2**70),
    st.floats().map(np.float64),
)


class TestChargePayload:
    """Format 2's one-charge body, which logs written before charge
    groups still hold (its frozen encoder), and the admission check
    that refuses what a group record could not encode."""

    @settings(max_examples=300, deadline=None)
    @given(
        user_id=st.one_of(_AWKWARD_TEXT, st.integers(), st.booleans(), st.none()),
        epsilon=_FLOATS,
        delta=_FLOATS,
        label=_AWKWARD_TEXT,
    )
    def test_bytes_equal_the_general_encoder(self, user_id, epsilon, delta, label):
        assert per_charge_reference.encode_charge_payload(
            user_id, epsilon, delta, label
        ) == _json_charge(user_id, epsilon, delta, label)

    @pytest.mark.parametrize("user_id", [b"raw", object(), {1, 2}, np.int64(3)])
    def test_unserialisable_user_ids_raise_on_both(self, user_id):
        with pytest.raises(RecordError):
            _json_charge(user_id, 0.5, 0.0, "c1")
        with pytest.raises(RecordError):
            rec.check_json_value(user_id)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                _AWKWARD_TEXT, _FLOATS, st.booleans(), st.none(),
                st.integers(10**4299, 10**4301), st.binary(max_size=2),
                st.just(object()), st.just({1: 0, "a": 1}),
            ),
            min_size=4, max_size=4,
        ),
    )
    def test_check_refuses_exactly_what_the_general_encoder_refuses(self, values):
        try:
            _json_charge(*values)
        except RecordError:
            with pytest.raises(RecordError):
                for value in values:
                    rec.check_json_value(value)
        else:
            for value in values:
                rec.check_json_value(value)
            rec.encode_charge_group([tuple(values)])

    def test_round_trips_through_a_wal_record(self):
        payload = per_charge_reference.encode_charge_payload("ué", 0.5, 1e-7, "c1")
        assert WalRecord(1, rec.CHARGE, payload).decode() == {
            "user_id": "ué", "epsilon": 0.5, "delta": 1e-7, "label": "c1",
        }

    def test_a_format_2_body_still_decodes_to_its_charge(self):
        payload = per_charge_reference.encode_charge_payload("ué", 0.5, 1e-7, "c1")
        body = WalRecord(1, rec.CHARGE, payload).decode()
        assert rec.charge_entries(body) == [("ué", 0.5, 1e-7, "c1")]


class TestChargeGroup:
    def test_group_round_trips_in_admission_order(self):
        charges = [
            ("u1", 0.5, 0.0, "c1"),
            ("u2", 0.25, 1e-7, "c2"),
            ("u1", 0.5, 0.0, "c1"),
            (7, 0.5, 0.0, "c2"),
            ("ué \\ \"☃", 1 / 3, 0.0, "c1"),
        ]
        payload = rec.encode_charge_group(charges)
        body = WalRecord(1, rec.CHARGE, payload).decode()
        assert rec.charge_entries(body) == charges
        # Columns: one row per distinct (label, epsilon, delta), in
        # order of first use; the canonical JSON encoding.
        assert body["rows"] == [
            ["c1", 0.5, 0.0], ["c2", 0.25, 1e-7], ["c2", 0.5, 0.0],
            ["c1", 1 / 3, 0.0],
        ]
        assert body["row"] == [0, 1, 0, 2, 3]
        assert payload == rec.encode_json_payload(body)

    @settings(max_examples=200, deadline=None)
    @given(
        charges=st.lists(
            st.tuples(
                st.one_of(_AWKWARD_TEXT, st.integers(), st.none()),
                st.sampled_from([0.0, 0.1, 0.5, 1 / 3, 1e-300]),
                st.sampled_from([0.0, 1e-7]),
                st.sampled_from(["c0", "c1", "é"]),
            ),
            min_size=1, max_size=30,
        )
    )
    def test_entries_are_the_charges(self, charges):
        body = WalRecord(1, rec.CHARGE, rec.encode_charge_group(charges)).decode()
        assert rec.charge_entries(body) == charges
