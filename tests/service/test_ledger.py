"""Budget-ledger admission control tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.ldp import LDPGuarantee
from repro.service.ledger import BudgetLedger

RELEASE = LDPGuarantee(epsilon=1.0, delta=0.05)


class TestBudgetLedger:
    def test_admits_until_epsilon_cap(self):
        ledger = BudgetLedger(epsilon_cap=2.5)
        assert ledger.admit("u1", RELEASE).admitted
        assert ledger.admit("u1", RELEASE).admitted
        denial = ledger.admit("u1", RELEASE)
        assert not denial.admitted
        assert denial.reason == "epsilon-exhausted"
        assert denial.remaining_epsilon == pytest.approx(0.5)
        assert ledger.admitted == 2 and ledger.denied == 1

    def test_denial_spends_nothing(self):
        ledger = BudgetLedger(epsilon_cap=1.5)
        ledger.admit("u1", RELEASE)
        ledger.admit("u1", RELEASE)  # denied
        assert ledger.spent("u1").epsilon == pytest.approx(1.0)
        # A smaller release still fits afterwards.
        assert ledger.admit("u1", LDPGuarantee(0.5, 0.0)).admitted

    def test_delta_cap_enforced(self):
        ledger = BudgetLedger(epsilon_cap=100.0, delta_cap=0.08)
        assert ledger.admit("u1", RELEASE).admitted
        denial = ledger.admit("u1", RELEASE)
        assert not denial.admitted
        assert denial.reason == "delta-exhausted"

    def test_per_user_isolation(self):
        ledger = BudgetLedger(epsilon_cap=1.0)
        assert ledger.admit("u1", RELEASE).admitted
        assert not ledger.admit("u1", RELEASE).admitted
        assert ledger.admit("u2", RELEASE).admitted
        assert ledger.num_users == 2

    def test_wrapped_accountant_records_admitted_only(self):
        accountant = PrivacyAccountant()
        ledger = BudgetLedger(epsilon_cap=1.0, accountant=accountant)
        ledger.admit("u1", RELEASE, mechanism="exp-gauss", label="c1")
        ledger.admit("u1", RELEASE)  # denied, must not be recorded
        assert accountant.num_events == 1
        composed = accountant.composed_guarantee("u1")
        assert composed.epsilon == pytest.approx(ledger.spent("u1").epsilon)

    def test_worst_case_tracks_heaviest_spender(self):
        ledger = BudgetLedger(epsilon_cap=10.0)
        ledger.admit("light", LDPGuarantee(0.5, 0.0))
        for _ in range(3):
            ledger.admit("heavy", RELEASE)
        assert ledger.worst_case().epsilon == pytest.approx(3.0)

    def test_worst_case_is_elementwise_over_users(self):
        # Biggest epsilon- and delta-spenders differ: the bound must
        # cover both, not just the lexicographic max user.
        ledger = BudgetLedger(epsilon_cap=10.0)
        ledger.admit("eps-heavy", LDPGuarantee(1.0, 0.0))
        ledger.admit("delta-heavy", LDPGuarantee(0.9, 0.8))
        worst = ledger.worst_case()
        assert worst.epsilon == pytest.approx(1.0)
        assert worst.delta == pytest.approx(0.8)

    def test_reset(self):
        ledger = BudgetLedger(epsilon_cap=1.0)
        ledger.admit("u1", RELEASE)
        ledger.reset()
        assert ledger.num_users == 0
        assert ledger.admit("u1", RELEASE).admitted


class TestLedgerSerialisation:
    def test_round_trip_preserves_spend(self):
        ledger = BudgetLedger(epsilon_cap=2.0, delta_cap=0.2)
        ledger.admit("u1", RELEASE)
        ledger.admit("u2", LDPGuarantee(0.25, 0.0))
        records = ledger.to_records()
        restored = BudgetLedger.from_records(
            records, epsilon_cap=2.0, delta_cap=0.2
        )
        for user in ("u1", "u2"):
            assert restored.spent(user) == ledger.spent(user)
        assert restored.num_users == 2

    def test_records_are_json_friendly(self):
        import json

        ledger = BudgetLedger(epsilon_cap=2.0)
        ledger.admit("u1", RELEASE)
        round_tripped = json.loads(json.dumps(ledger.to_records()))
        restored = BudgetLedger.from_records(round_tripped, epsilon_cap=2.0)
        assert restored.spent("u1") == ledger.spent("u1")

    def test_recovered_ledger_refuses_over_budget_users(self):
        # The ISSUE-2 satellite: spent state survives a restart and an
        # exhausted user stays exhausted.
        ledger = BudgetLedger(epsilon_cap=2.0)
        ledger.admit("u1", RELEASE)
        ledger.admit("u1", RELEASE)  # 2.0 spent: exactly at the cap
        restored = BudgetLedger.from_records(
            ledger.to_records(), epsilon_cap=2.0
        )
        denial = restored.admit("u1", RELEASE)
        assert not denial.admitted
        assert denial.reason == "epsilon-exhausted"
        # A fresh user is unaffected.
        assert restored.admit("u9", RELEASE).admitted

    def test_restore_above_cap_is_kept_not_clamped(self):
        restored = BudgetLedger.from_records(
            [{"user_id": "u1", "epsilon": 5.0, "delta": 0.0}],
            epsilon_cap=2.0,
        )
        assert restored.spent("u1").epsilon == pytest.approx(5.0)
        assert not restored.admit("u1", LDPGuarantee(0.01, 0.0)).admitted

    def test_duplicate_records_rejected(self):
        records = [
            {"user_id": "u1", "epsilon": 1.0, "delta": 0.0},
            {"user_id": "u1", "epsilon": 0.5, "delta": 0.0},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            BudgetLedger.from_records(records, epsilon_cap=2.0)

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            BudgetLedger.from_records(
                [{"user_id": "u1", "epsilon": -1.0, "delta": 0.0}],
                epsilon_cap=2.0,
            )

    def test_record_spent_bypasses_caps(self):
        ledger = BudgetLedger(epsilon_cap=1.0)
        ledger.record_spent("u1", LDPGuarantee(3.0, 0.0))
        assert ledger.spent("u1").epsilon == pytest.approx(3.0)
        assert not ledger.admit("u1", LDPGuarantee(0.1, 0.0)).admitted


class TestLedgerConcurrency:
    def test_concurrent_admits_never_oversubscribe_the_cap(self):
        import threading

        charge = LDPGuarantee(epsilon=0.1, delta=0.0)
        ledger = BudgetLedger(epsilon_cap=1.0)  # room for exactly 10
        admitted = []

        def worker():
            wins = 0
            for _ in range(10):
                if ledger.admit("u1", charge).admitted:
                    wins += 1
            admitted.append(wins)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        # A torn read-modify-write would either lose a charge (spent <
        # admitted * 0.1) or admit past the cap (sum > 10).
        assert sum(admitted) == 10
        assert ledger.spent("u1").epsilon == pytest.approx(1.0)

    def test_lock_composes_for_atomic_sections(self):
        ledger = BudgetLedger(epsilon_cap=1.0)
        with ledger.lock:  # re-entrant: inner calls must not deadlock
            assert ledger.to_records() == []
            assert ledger.admit("u1", RELEASE).admitted
        assert ledger.spent("u1").epsilon == pytest.approx(1.0)


def _reference_admit(spent_eps, spent_delta, user_id, guarantee, eps_cap, delta_cap):
    """The admission arithmetic as ``admit()`` held it before ``charge()``."""
    eps = spent_eps.get(user_id, 0.0)
    new_eps = eps + guarantee.epsilon
    if new_eps > eps_cap + 1e-12:
        return False, "epsilon-exhausted", eps_cap - eps
    new_delta = spent_delta.get(user_id, 0.0) + guarantee.delta
    if new_delta > delta_cap + 1e-15:
        return False, "delta-exhausted", eps_cap - eps
    spent_eps[user_id] = new_eps
    spent_delta[user_id] = new_delta
    return True, "", eps_cap - new_eps


# Shares whose running sums land on or within rounding of both caps
# (0.1 x 10 is 0.9999999999999999), steps on either side of the
# slack (1e-12 on epsilon, 1e-15 on delta), plus arbitrary draws.
_EPSILONS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 1.0]),
    st.sampled_from([5e-13, 2e-12]),
    st.floats(0.0, 1.5),
)
_DELTAS = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.5e-6, 1e-5 / 3, 5e-6, 1e-5]),
    st.sampled_from([5e-16, 2e-15]),
    st.floats(0.0, 2e-5),
)


@settings(max_examples=150, deadline=None)
@given(
    eps_cap=st.sampled_from([1.0, 1.5, 0.3]),
    delta_cap=st.sampled_from([1e-5, 0.0, 1.0]),
    steps=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), _EPSILONS, _DELTAS),
        max_size=40,
    ),
)
# Fill both caps exactly, then step just inside and just past each
# slack: the slack is part of the rule.
@example(1.0, 1e-5, [("a", 1.0, 1e-5), ("a", 5e-13, 0.0), ("a", 2e-12, 0.0),
                     ("a", 0.0, 5e-16), ("a", 0.0, 2e-15)])
@example(1.0, 1e-5, [("b", 0.5, 5e-6), ("b", 0.5, 5e-6), ("b", 2e-12, 0.0),
                     ("b", 0.0, 2e-15), ("b", 5e-13, 5e-16)])
def test_charge_and_admit_are_one_rule(eps_cap, delta_cap, steps):
    triplets = [
        BudgetLedger(eps_cap, delta_cap=delta_cap, accountant=PrivacyAccountant())
        for _ in range(3)
    ]
    via_charge, via_admit, via_group = triplets
    spent_eps, spent_delta = {}, {}
    for user_id, eps, delta in steps:
        guarantee = LDPGuarantee(eps, delta)
        reason = via_charge.charge(user_id, guarantee, mechanism="m", label="l")
        # A group of one is the same rule; a refused group counts no
        # denial.
        refused = via_group.charge_group(
            [user_id], np.array([eps]), np.array([delta]), label="l"
        )
        assert (refused is None) == (not reason)
        decision = via_admit.admit(user_id, guarantee, mechanism="m", label="l")
        expected = _reference_admit(
            spent_eps, spent_delta, user_id, guarantee, eps_cap, delta_cap
        )
        assert (decision.admitted, decision.reason) == (not reason, reason)
        assert (
            decision.admitted, decision.reason, decision.remaining_epsilon
        ) == expected
    assert via_charge.to_records() == via_admit.to_records()
    assert {r["user_id"]: r["epsilon"] for r in via_charge.to_records()} == spent_eps
    assert via_charge.worst_case() == via_admit.worst_case()
    assert (via_charge.admitted, via_charge.denied) == (
        via_admit.admitted, via_admit.denied,
    )
    assert via_group.to_records() == via_charge.to_records()
    assert via_group.worst_case() == via_charge.worst_case()
    assert (via_group.admitted, via_group.denied) == (via_charge.admitted, 0)
    for user_id in "abc":
        assert via_charge.accountant.events_for(user_id) == (
            via_admit.accountant.events_for(user_id)
        )
        assert [
            (e.guarantee, e.label)
            for e in via_group.accountant.events_for(user_id)
        ] == [
            (e.guarantee, e.label)
            for e in via_charge.accountant.events_for(user_id)
        ]
