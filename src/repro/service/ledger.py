"""Per-user privacy-budget ledger for admission control.

The :class:`~repro.privacy.accountant.PrivacyAccountant` answers "what
has this user spent?" by scanning its event log — fine for audits,
too slow to consult on every submission of a high-rate stream.  The
:class:`BudgetLedger` keeps running (epsilon, delta) totals in two
``float64`` columns, one row per user, while still (optionally)
recording every admitted release into a wrapped accountant so the audit
trail and the fast path can never disagree about what was spent.

Admission uses basic composition, matching the accountant: a release is
admitted iff the user's composed epsilon and delta would both stay
within the ledger's caps.  Denied releases spend nothing.  Both submit
doors charge under this one rule, on the same columns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Optional, Sequence

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
        #: The one cap rule: a composed total above its limit is refused.
        self._epsilon_limit = self._epsilon_cap + 1e-12
        self._delta_limit = self._delta_cap + 1e-15
        self._accountant = accountant
        #: Serialises every read-modify-write of the spent totals.  The
        #: ledger is the budget authority for the (multi-producer)
        #: ingest path: an unlocked check-then-charge could admit two
        #: concurrent releases against the same remaining headroom.
        #: Re-entrant so callers can compose several calls into one
        #: atomic section (``with ledger.lock: ...``) — e.g. a charge
        #: and its write-ahead charge records.
        self.lock = threading.RLock()
        self.reset()

    def _columns(self, epsilon: np.ndarray, delta: np.ndarray) -> None:
        """Install the spent columns.  Row -1 stays zero: a user without
        a row reads it.  The memoryviews read and write one row as
        Python floats, cheaper than NumPy indexing."""
        self._epsilon, self._delta = epsilon, delta
        self._eps_view, self._delta_view = memoryview(epsilon), memoryview(delta)

    def _row(self, user_id: Hashable) -> int:
        """``user_id``'s row, given the next one if it has none."""
        row = self._rows.setdefault(user_id, len(self._rows))
        if row == len(self._epsilon) - 1:  # the spare: double the columns
            self._columns(np.pad(self._epsilon, (0, row + 1)),
                          np.pad(self._delta, (0, row + 1)))
        return row

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
        row = self._rows.get(user_id, -1)
        return LDPGuarantee(
            epsilon=self._eps_view[row],
            delta=min(self._delta_view[row], 1.0),
        )

    def remaining_epsilon(self, user_id: Hashable) -> float:
        return self._epsilon_cap - self._eps_view[self._rows.get(user_id, -1)]

    # ------------------------------------------------------------------
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
        Builds no decision object, so ``submit()`` calls it per
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
        """:meth:`charge` for a caller that already holds ``lock``:
        ``submit()``, which holds it across the charge and its log
        record anyway, enters the re-entrant lock once instead of twice."""
        row = self._rows.get(user_id, -1)
        new_eps = self._eps_view[row] + guarantee.epsilon
        new_delta = self._delta_view[row] + guarantee.delta
        if new_eps > self._epsilon_limit or new_delta > self._delta_limit:
            self.denied += 1
            if new_eps > self._epsilon_limit:
                return "epsilon-exhausted"
            return "delta-exhausted"
        if row < 0:
            row = self._row(user_id)
        self._eps_view[row] = new_eps
        self._delta_view[row] = new_delta
        self.admitted += 1
        if self._accountant is not None:
            self._accountant.record(
                user_id, guarantee, mechanism=mechanism, label=label
            )
        return ""

    def charge_group(
        self, user_ids: Sequence[Hashable], epsilon: np.ndarray,
        delta: np.ndarray, *, label: str = "",
    ) -> Optional[Hashable]:
        """Charge each of the distinct ``user_ids[i]`` the release
        ``(epsilon[i], delta[i])``, all or none, under the one rule; the
        first user without headroom, or None when all were charged.

        The whole group is checked before anyone is charged, so a
        refused group spends and counts nothing.  An admitted one counts
        and records (label ``label``) one admission per user, in order.
        """
        with self.lock:
            index = np.fromiter(
                map(self._rows.get, user_ids, repeat(-1)), np.intp,
                len(user_ids),
            )
            new_eps = self._epsilon[index] + epsilon
            new_delta = self._delta[index] + delta
            over = (new_eps > self._epsilon_limit) | (
                new_delta > self._delta_limit
            )
            if over.any():
                return user_ids[int(over.argmax())]
            for i in np.flatnonzero(index < 0).tolist():
                index[i] = self._row(user_ids[i])
            self._epsilon[index] = new_eps
            self._delta[index] = new_delta
            self.admitted += len(index)
            if self._accountant is not None:
                for user_id, eps, dlt in zip(
                    user_ids, epsilon.tolist(), delta.tolist()
                ):
                    self._accountant.record(
                        user_id, LDPGuarantee(epsilon=eps, delta=dlt),
                        label=label,
                    )
            return None

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
            row = self._row(user_id)
            self._eps_view[row] += guarantee.epsilon
            self._delta_view[row] += guarantee.delta
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
                    "epsilon": self._eps_view[row],
                    "delta": self._delta_view[row],
                }
                for user_id, row in sorted(
                    self._rows.items(), key=lambda kv: str(kv[0])
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
            if user_id in ledger._rows:
                raise ValueError(f"duplicate record for user {user_id!r}")
            row = ledger._row(user_id)
            ledger._eps_view[row] = eps
            ledger._delta_view[row] = delta
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
        with self.lock:  # rows past the charged ones are zero
            return LDPGuarantee(
                epsilon=float(self._epsilon.max()),
                delta=min(float(self._delta.max()), 1.0),
            )

    @property
    def num_users(self) -> int:
        """Users with at least one admitted charge."""
        return len(self._rows)

    def reset(self) -> None:
        with self.lock:
            #: User id -> row of the spent columns, in first-charge order.
            self._rows: dict[Hashable, int] = {}
            self._columns(np.zeros(16), np.zeros(16))
            self.admitted = 0
            self.denied = 0
