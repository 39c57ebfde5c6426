"""Frozen ``BudgetLedger`` and ``IngestService._charge_chunk`` as they
were while the ledger kept its spent totals in two dicts.

``submit()`` charged one user per call through ``_charge_locked``;
``submit_columns()`` ran ``_charge_chunk``, which checked every distinct
user of a chunk with ``can_admit`` and then charged each with
``_charge_locked``, one Python iteration per user, and charged an
unnamed slot as ``"slot:N"``.  It exists only as the reference the
columnar ledger is held to bitwise; do not "modernise" it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.ldp import LDPGuarantee
from repro.utils.validation import ensure_in_range, ensure_positive


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one ledger check.

    ``admitted`` is the verdict; ``reason`` is empty when admitted and a
    short machine-readable tag (``"epsilon-exhausted"`` /
    ``"delta-exhausted"``) otherwise.  ``remaining_epsilon`` reflects the
    state *after* the charge when admitted, before it when denied.
    """

    admitted: bool
    reason: str
    remaining_epsilon: float


class BudgetLedger:
    """Admission control against per-user (epsilon, delta) caps.

    Parameters
    ----------
    epsilon_cap:
        Maximum composed epsilon any single user may spend.
    delta_cap:
        Maximum composed delta (basic composition sums deltas too).
    accountant:
        Optional audit-trail accountant; every *admitted* charge is also
        recorded there.  Pass ``None`` on hot paths that only need the
        running totals.
    """

    def __init__(
        self,
        epsilon_cap: float,
        *,
        delta_cap: float = 1.0,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> None:
        self._epsilon_cap = ensure_positive(epsilon_cap, "epsilon_cap")
        self._delta_cap = ensure_in_range(delta_cap, "delta_cap", 0.0, 1.0)
        self._accountant = accountant
        self._spent_epsilon: dict[Hashable, float] = {}
        self._spent_delta: dict[Hashable, float] = {}
        #: Serialises every read-modify-write of the spent totals.  The
        #: ledger is the budget authority for the (multi-producer)
        #: ingest path: an unlocked check-then-charge could admit two
        #: concurrent releases against the same remaining headroom.
        #: Re-entrant so callers can compose several calls into one
        #: atomic section (``with ledger.lock: ...``) — e.g. the bulk
        #: path's check-all-then-charge-all, or admission plus its
        #: write-ahead charge record.
        self.lock = threading.RLock()
        self.admitted = 0
        self.denied = 0

    # ------------------------------------------------------------------
    @property
    def epsilon_cap(self) -> float:
        return self._epsilon_cap

    @property
    def delta_cap(self) -> float:
        return self._delta_cap

    @property
    def accountant(self) -> Optional[PrivacyAccountant]:
        """The wrapped audit accountant (None when running ledger-only)."""
        return self._accountant

    def spent(self, user_id: Hashable) -> LDPGuarantee:
        """Composed guarantee charged so far for ``user_id``."""
        return LDPGuarantee(
            epsilon=self._spent_epsilon.get(user_id, 0.0),
            delta=min(self._spent_delta.get(user_id, 0.0), 1.0),
        )

    def remaining_epsilon(self, user_id: Hashable) -> float:
        return self._epsilon_cap - self._spent_epsilon.get(user_id, 0.0)

    # ------------------------------------------------------------------
    def can_admit(self, user_id: Hashable, guarantee: LDPGuarantee) -> bool:
        """Would :meth:`admit` succeed?  Checks both caps, spends nothing.

        Lets callers admission-check a whole group before charging
        anyone (atomic multi-user admission on the bulk path — hold
        ``ledger.lock`` across the whole check-then-charge sequence).
        """
        with self.lock:
            return not self._check(user_id, guarantee)[0]

    def _check(
        self, user_id: Hashable, guarantee: LDPGuarantee
    ) -> tuple[str, float, float]:
        """The one cap rule, under the caller's ``lock`` hold:
        ``(refusal tag, new epsilon, new delta)``, the tag ``""`` when
        ``guarantee`` fits under both caps; the totals are what charging
        it would leave (meaningful only then)."""
        new_eps = self._spent_epsilon.get(user_id, 0.0) + guarantee.epsilon
        if new_eps > self._epsilon_cap + 1e-12:
            return "epsilon-exhausted", new_eps, 0.0
        new_delta = self._spent_delta.get(user_id, 0.0) + guarantee.delta
        if new_delta > self._delta_cap + 1e-15:
            return "delta-exhausted", new_eps, new_delta
        return "", new_eps, new_delta

    def charge(
        self,
        user_id: Hashable,
        guarantee: LDPGuarantee,
        *,
        mechanism: str = "",
        label: str = "",
    ) -> str:
        """Charge ``guarantee`` to ``user_id`` if it fits under the caps.

        The one admission rule: returns ``""`` when admitted, else the
        refusal tag (``"epsilon-exhausted"`` / ``"delta-exhausted"``).
        Builds no decision object, so both submit paths call it per
        submission; :meth:`admit` is the same charge with one.
        """
        with self.lock:
            return self._charge_locked(user_id, guarantee, mechanism, label)

    def _charge_locked(
        self,
        user_id: Hashable,
        guarantee: LDPGuarantee,
        mechanism: str = "",
        label: str = "",
    ) -> str:
        """:meth:`charge` for a caller that already holds ``lock``: the
        ingest paths, which hold it across the charge and its log
        record anyway, enter the re-entrant lock once instead of twice."""
        refusal, new_eps, new_delta = self._check(user_id, guarantee)
        if refusal:
            self.denied += 1
            return refusal
        self._spent_epsilon[user_id] = new_eps
        self._spent_delta[user_id] = new_delta
        self.admitted += 1
        if self._accountant is not None:
            self._accountant.record(
                user_id, guarantee, mechanism=mechanism, label=label
            )
        return ""

    def admit(
        self,
        user_id: Hashable,
        guarantee: LDPGuarantee,
        *,
        mechanism: str = "",
        label: str = "",
    ) -> AdmissionDecision:
        """:meth:`charge`, reported as an :class:`AdmissionDecision`."""
        with self.lock:
            reason = self._charge_locked(user_id, guarantee, mechanism, label)
            return AdmissionDecision(
                admitted=not reason,
                reason=reason,
                remaining_epsilon=self.remaining_epsilon(user_id),
            )

    def record_spent(
        self, user_id: Hashable, guarantee: LDPGuarantee
    ) -> None:
        """Re-apply an already-admitted charge without re-checking caps.

        Crash recovery replays the write-ahead log's charge records
        through this method: the charges were admitted before the crash
        and the data they covered was released, so they must be restored
        verbatim even if the composed total now sits above the cap
        (future :meth:`admit` calls will then deny, which is the safe
        direction).  Not for use on the live admission path.
        """
        with self.lock:
            self._spent_epsilon[user_id] = (
                self._spent_epsilon.get(user_id, 0.0) + guarantee.epsilon
            )
            self._spent_delta[user_id] = (
                self._spent_delta.get(user_id, 0.0) + guarantee.delta
            )
            self.admitted += 1
            if self._accountant is not None:
                self._accountant.record(
                    user_id, guarantee, mechanism="", label="recovered"
                )

    # ------------------------------------------------------------------
    def to_records(self) -> list[dict]:
        """Spent-budget state as JSON-friendly per-user records.

        Each record carries one user's composed totals; together with
        the caps this is the ledger's full durable state (the
        admitted/denied counters are observability, not state, and are
        not exported).  User ids must be JSON-serialisable for the
        records to survive a round-trip through a checkpoint file.
        """
        with self.lock:
            return [
                {
                    "user_id": user_id,
                    "epsilon": eps,
                    "delta": self._spent_delta.get(user_id, 0.0),
                }
                for user_id, eps in sorted(
                    self._spent_epsilon.items(), key=lambda kv: str(kv[0])
                )
            ]

    @classmethod
    def from_records(
        cls,
        records: list[dict],
        *,
        epsilon_cap: float,
        delta_cap: float = 1.0,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> "BudgetLedger":
        """Rebuild a ledger from :meth:`to_records` output.

        Spent totals are restored verbatim — even above the caps (a
        restart must never hand exhausted users fresh budget), in which
        case the user's next :meth:`admit` is denied.
        """
        ledger = cls(
            epsilon_cap, delta_cap=delta_cap, accountant=accountant
        )
        for record in records:
            user_id = record["user_id"]
            eps = float(record["epsilon"])
            delta = float(record["delta"])
            if eps < 0 or delta < 0:
                raise ValueError(
                    f"negative spent budget in record for {user_id!r}"
                )
            if user_id in ledger._spent_epsilon:
                raise ValueError(f"duplicate record for user {user_id!r}")
            ledger._spent_epsilon[user_id] = eps
            ledger._spent_delta[user_id] = delta
        return ledger

    # ------------------------------------------------------------------
    def worst_case(self) -> LDPGuarantee:
        """Elementwise-worst composed guarantee across all charged users.

        Takes the maximum epsilon and the maximum delta independently
        (possibly from different users), so the result bounds *every*
        user's composed guarantee — a single-user maximum under a
        lexicographic order would understate delta whenever the
        biggest epsilon-spender is not the biggest delta-spender.
        """
        with self.lock:
            if not self._spent_epsilon:
                return LDPGuarantee(epsilon=0.0, delta=0.0)
            return LDPGuarantee(
                epsilon=max(self._spent_epsilon.values()),
                delta=min(
                    max(self._spent_delta.values(), default=0.0), 1.0
                ),
            )

    @property
    def num_users(self) -> int:
        """Users with at least one admitted charge."""
        return len(self._spent_epsilon)

    def reset(self) -> None:
        with self.lock:
            self._spent_epsilon.clear()
            self._spent_delta.clear()
            self.admitted = 0
            self.denied = 0


def charge_chunk(service, state, campaign_id, user_slots):
    """Charge a chunk's users all or none; the refused user, or None.

    Two-phase atomic admission: resolve each distinct slot to its
    (possibly prospective) user id, check every user's headroom
    first, and only then charge — so a rejected chunk spends no
    one's budget.  Unlike the protocol path (one submission = one
    release under a shared variance draw), each bulk claim is an
    independent release, so a user is charged ``cost`` composed over
    their claim count in the chunk — merging submissions into chunks
    cannot under-charge.
    """
    cost = state.cost
    ledger = service._ledger
    unique_slots, claim_counts = np.unique(user_slots, return_counts=True)
    chunk_charges = [
        (
            state.user_table[s]
            if s < len(state.user_table)
            else f"slot:{s}",
            LDPGuarantee(
                epsilon=cost.epsilon * int(c),
                delta=min(cost.delta * int(c), 1.0),
            ),
        )
        for s, c in zip(unique_slots, claim_counts)
    ]
    # The whole check-then-charge sequence holds the ledger lock:
    # concurrent producers cannot admit against the same headroom
    # between our check and our charge, and a concurrent checkpoint
    # sees the chunk's charges and their log records together or
    # not at all.
    with ledger.lock:
        for user_id, charge in chunk_charges:
            if not ledger.can_admit(user_id, charge):
                return user_id
        for user_id, charge in chunk_charges:
            if ledger._charge_locked(user_id, charge, "", campaign_id):
                # Cannot happen while slots map to distinct users
                # (can_admit passed above, under the same lock
                # hold); never swallow a failed charge for accepted
                # claims.
                raise RuntimeError(
                    f"budget charge failed after admission check "
                    f"for {user_id!r}"
                )
            if service._durability is not None:
                service._durability.log_charge(
                    user_id, charge, label=campaign_id
                )
    return None


def install(service) -> None:
    """Make ``service`` charge bulk chunks as it used to (give it a
    reference :class:`BudgetLedger` too)."""
    service._charge_chunk = (
        lambda state, campaign_id, user_slots: charge_chunk(
            service, state, campaign_id, user_slots
        )
    )
