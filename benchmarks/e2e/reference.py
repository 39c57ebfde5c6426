"""The trivially simple reference model the benchmark checks against.

Every check returns per-operation verdicts into a :class:`Verdicts`, so
``error_share`` is a count of wrong operations over operations
attempted, not a flag.  The references are deliberately dumb:

* a dict ledger with basic composition predicts every accept/refuse;
* bare streaming estimators, fed the same chunks in the same order,
  predict every dirty read bit for bit;
* an in-process, volatile service fed the same call sequence predicts
  the truths of the socket fabric bit for bit;
* a ``FullRefitAggregator`` on a duplicate-free dense round bounds the
  streaming estimators' distance from the batch fixed point.
"""

from __future__ import annotations

import numpy as np

from repro.service import FullRefitAggregator, IngestService, LoadGenerator, ServiceConfig
from repro.truthdiscovery.streaming import STREAMING_ESTIMATORS, ClaimBatch

#: The ledger's own admission tolerance (``BudgetLedger.admit``).
_EPS_TOLERANCE = 1e-12
#: Streaming-vs-batch agreement bound on dense data (RMSE).
AGREEMENT_RMSE = 1e-3
#: StreamingCRH shares its fixed point with the squared-distance CRH.
_BATCH_KWARGS = {"crh": {"distance": "squared"}}


class Verdicts:
    """Operations attempted and operations whose outcome was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: The first few failures, for the report.
        self.examples: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.check_many(np.asarray([bool(ok)]), what)

    def check_many(self, oks, what: str) -> None:
        oks = np.asarray(oks, dtype=bool)
        self.attempted += int(oks.size)
        bad = int(oks.size - np.count_nonzero(oks))
        if bad:
            self.failed += bad
            if len(self.examples) < 8:
                first = int(np.flatnonzero(~oks)[0])
                self.examples.append(f"{what}: {bad} of {oks.size} wrong (first at {first})")

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
class DictLedger:
    """Per-user spent epsilon under basic composition."""

    def __init__(self, epsilon_cap: float) -> None:
        self.cap = epsilon_cap
        self.spent: dict[str, float] = {}

    def admit(self, user_id: str, epsilon: float) -> bool:
        new = self.spent.get(user_id, 0.0) + epsilon
        if new > self.cap + _EPS_TOLERANCE:
            return False
        self.spent[user_id] = new
        return True


def cap_for_refusal_share(user_sequence, epsilon: float, share: float) -> float:
    """The largest cap at which at least ``share`` of the sequence is refused.

    A user submitting ``n`` times under a cap of ``k`` submissions is
    refused ``max(n - k, 0)`` times, so the refused count is exact.
    """
    _, counts = np.unique(np.asarray(user_sequence), return_counts=True)
    total = counts.sum()
    k = int(counts.max())
    while k > 1 and np.maximum(counts - (k - 1), 0).sum() <= share * total:
        k -= 1
    return k * epsilon


def check_device_outcomes(verdicts: Verdicts, *, user_sequence, reasons, epsilon: float,
                          cap: float, claims_per_submission: int, service) -> None:
    """Every accept/refuse, the refusal counter and the spent maximum."""
    ledger = DictLedger(cap)
    expected = np.asarray([ledger.admit(user, epsilon) for user in user_sequence])
    accepted = np.asarray([reason == "" for reason in reasons])
    refused_budget = np.asarray([reason == "budget" for reason in reasons])
    verdicts.check_many(
        (accepted == expected) & (accepted | refused_budget), "accept/refuse outcome"
    )
    verdicts.check(
        service.stats.rejected_budget == int((~expected).sum()) * claims_per_submission,
        "stats.rejected_budget",
    )
    worst = service.ledger.worst_case().epsilon
    verdicts.check(worst <= cap + _EPS_TOLERANCE, "max spent epsilon within cap")
    verdicts.check(worst == max(ledger.spent.values(), default=0.0), "max spent epsilon")


# ----------------------------------------------------------------------
class BareStreams:
    """One bare streaming estimator per campaign, no service around it.

    With ``decay=1`` a streaming aggregator that is read after every
    chunk folds exactly that chunk, so feeding the estimator the same
    chunks reproduces every dirty read bit for bit.
    """

    def __init__(self, methods: dict[str, str], *, users: int, objects: int,
                 refine_sweeps: int) -> None:
        self._streams = {
            cid: STREAMING_ESTIMATORS[method](users, objects, refine_sweeps=refine_sweeps)
            for cid, method in methods.items()
        }

    def ingest(self, chunk) -> None:
        self._streams[chunk.campaign_id].ingest(
            ClaimBatch(users=chunk.user_slots, objects=chunk.object_slots, values=chunk.values),
            decay_steps=0,
        )

    def truths(self, campaign_id: str) -> np.ndarray:
        return self._streams[campaign_id].truths


def dense_agreement_rmse(method: str, seed: int, *, users: int = 60, objects: int = 40) -> float:
    """Service streaming truths vs a full refit of the same batches.

    One duplicate-free dense round (both estimators see identical
    evidence) through the real service path, refined to the fixed
    point; the reference is a ``FullRefitAggregator`` fed the very
    batches the service's aggregator ingested.
    """
    gen = LoadGenerator(
        f"dense-{method}", num_users=users, num_objects=objects, lambda2=1.0,
        random_state=np.random.SeedSequence([seed, 99]),
    )
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=256, refine_sweeps=40, refine_every=10**9)
    )
    service.register_campaign(
        gen.campaign_id, gen.object_ids, max_users=users, user_ids=gen.user_ids,
        method=method, aggregator="streaming",
    )
    reference = FullRefitAggregator(users, objects, method=method, **_BATCH_KWARGS.get(method, {}))
    user_slots = np.repeat(np.arange(users), objects)
    object_slots = np.tile(np.arange(objects), users)
    values = np.concatenate([np.asarray(s.values) for s in gen.dense_round()])
    for lo in range(0, values.size, 256):
        hi = lo + 256
        service.submit_columns(gen.campaign_id, user_slots[lo:hi], object_slots[lo:hi], values[lo:hi])
        reference.ingest(
            ClaimBatch(users=user_slots[lo:hi], objects=object_slots[lo:hi], values=values[lo:hi])
        )
    streamed = service.snapshot(gen.campaign_id).truths
    service.close()
    return float(np.sqrt(np.mean((streamed - reference.truths()) ** 2)))


def truth_rmse(estimates: dict[str, np.ndarray], ground_truth: dict[str, np.ndarray]) -> float:
    """RMSE of the final truths against the generator's, all campaigns pooled."""
    errors = np.concatenate([estimates[cid] - ground_truth[cid] for cid in sorted(estimates)])
    return float(np.sqrt(np.mean(errors**2)))


def check_bitwise(verdicts: Verdicts, observed, expected, what: str) -> None:
    """One verdict per array pair: equal to the last bit."""
    verdicts.check(len(observed) == len(expected), f"{what}: count")
    verdicts.check_many(
        [np.array_equal(a, b) for a, b in zip(observed, expected)], what
    )
