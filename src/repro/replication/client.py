"""Client side of a standby's read/control surface.

:class:`ReplicaReadClient` speaks to one
:class:`~repro.replication.standby.StandbyServer` over the shared
framed transport and exposes the replica read path the ROADMAP promises
— ``TruthSnapshot`` reads that never touch the primary's ingest hot
path — plus the operational verbs (status, promote) the promotion
runbook in ``docs/replication.md`` uses.  A read whose last reply still
holds costs one round trip with an empty answer.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.net.transport import connect
from repro.replication import protocol as rp
from repro.service.snapshot import TruthSnapshot
from repro.workers import protocol as proto
from repro.workers.protocol import ProtocolError


class ReplicaError(RuntimeError):
    """The standby refused or failed a request."""


def expect_reply(reply: tuple, expected: int) -> bytes:
    """The payload of a ``(rtype, payload)`` reply of type ``expected``;
    a ``REPL_ERROR`` (or any other type) raises :class:`ReplicaError`."""
    resp_type, resp = reply
    if resp_type == rp.REPL_ERROR:
        raise ReplicaError(
            rp.decode_json(resp).get("error", "standby error")
        )
    if resp_type != expected:
        raise ReplicaError(f"expected frame {expected}, got {resp_type}")
    return resp


def _decode_read(blob: bytes) -> tuple:
    """``(version, snapshot)`` from a non-empty ``READ_RESP``."""
    state = proto.unpack_state(blob)
    return state["version"], TruthSnapshot(
        campaign_id=state["campaign_id"],
        object_ids=tuple(state["object_ids"]),
        truths=np.asarray(state["truths"], dtype=float),
        seen_objects=np.asarray(state["seen_objects"], dtype=bool),
        contributor_ids=tuple(state["weight_users"]),
        contributor_weights=state["weight_values"],
        claims_ingested=int(state["claims_ingested"]),
        batches_ingested=int(state["batches_ingested"]),
        pending_claims=int(state["pending_claims"]),
    )


class ReplicaReadClient:
    """One connection to a standby (thread-safe, request/response).

    Parameters
    ----------
    address:
        The standby listener's ``(host, port)``.
    timeout:
        Dial budget (the standby may still be starting up), and the
        bound on each wait for a reply: a standby that accepted and then
        went mute (wedged, SIGSTOPped) raises ``TimeoutError``.
    """

    def __init__(self, address, *, timeout: float = 30.0) -> None:
        self._address = tuple(address)
        self._timeout = timeout
        self._conn = connect(self._address, timeout=timeout)
        self._lock = threading.Lock()
        #: campaign id -> (the standby's version, the last snapshot)
        self._cache: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def _exchange(self, rtype: int, payload: bytes, expected: int):
        """One request and its reply; the caller holds ``_lock``."""
        self._conn.send_frame(rtype, payload)
        if not self._conn.poll(self._timeout):
            # A late reply would answer the *next* request: the
            # stream is unusable from here on.
            self._conn.close()
            raise TimeoutError(
                f"standby {self._address} sent no reply within "
                f"{self._timeout}s"
            )
        return expect_reply(self._conn.recv_frame(), expected)

    def _call(self, rtype: int, payload: bytes, expected: int):
        with self._lock:
            return self._exchange(rtype, payload, expected)

    def snapshot(self, campaign_id: str) -> TruthSnapshot:
        """The campaign's :class:`TruthSnapshot` as the standby's applied
        log defines it (``pending_claims`` counts what its truths trail).

        The request carries the version of this client's last reply for
        the campaign; while it holds, the standby answers empty and that
        reply's snapshot, which is immutable, is returned again.  A read
        that raises (a refusal, such as an unknown campaign, or a reply
        this client cannot decode) drops the campaign's cache, so the
        next read starts over.
        """
        with self._lock:
            cached = self._cache.pop(campaign_id, None)
            request = {"campaign_id": campaign_id}
            if cached is not None:
                request["version"] = cached[0]
            resp = self._exchange(
                rp.READ_REQ, rp.encode_json(request), rp.READ_RESP
            )
            if not resp and cached is not None:
                self._cache[campaign_id] = cached
                return cached[1]
            try:
                version, snapshot = _decode_read(resp)
            except (ProtocolError, KeyError, TypeError, ValueError) as exc:
                raise ReplicaError(
                    f"bad READ_RESP for {campaign_id!r}: {exc}"
                ) from exc
            self._cache[campaign_id] = (version, snapshot)
            return snapshot

    def status(self) -> dict:
        """Watermarks, campaign list, spent-budget ledger."""
        resp = self._call(rp.STATUS_REQ, b"", rp.STATUS_RESP)
        return rp.decode_json(resp)

    def promote(self, *, epoch=None) -> dict:
        """Ask the standby to become primary; returns its report.

        ``epoch`` carries the caller's fencing epoch; the standby
        refuses (``ReplicaError``) anything at or below the highest
        epoch it ever accepted.  ``None`` means a manual promotion that
        fences at the standby's next epoch.
        """
        payload = b"" if epoch is None else rp.encode_json(
            {"epoch": int(epoch)}
        )
        resp = self._call(rp.PROMOTE_REQ, payload, rp.PROMOTE_RESP)
        return rp.decode_json(resp)

    def ping(self) -> bool:
        try:
            self._call(proto.PING, b"", proto.PONG)
            return True
        except (OSError, EOFError, ReplicaError):
            return False

    def shutdown(self) -> None:
        """Tell the standby process to exit cleanly."""
        with self._lock:
            self._conn.send_frame(proto.SHUTDOWN)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ReplicaReadClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FailoverReadClient:
    """Replica reads that survive standby deaths and promotions.

    Holds the full standby address list and one live
    :class:`ReplicaReadClient` at a time.  When the current standby
    stops answering — it died, or a chaos drill reset the stream — the
    client *re-points*: it drops the connection, advances to the next
    address that dials, and retries the request once per address.  After
    an automatic promotion the promoted standby keeps serving the same
    listener, so a reader rides through a failover with at most one
    re-point and no address changes.

    Parameters
    ----------
    addresses:
        Every standby listener, in launch order.
    timeout:
        Dial budget per re-point attempt.
    """

    def __init__(self, addresses, *, timeout: float = 10.0) -> None:
        if not addresses:
            raise ValueError("need at least one standby address")
        self._addresses = [tuple(a) for a in addresses]
        self._timeout = timeout
        self._lock = threading.Lock()
        self._client: "ReplicaReadClient | None" = None
        self._index = 0
        self.repoints = 0

    # ------------------------------------------------------------------
    @property
    def current_address(self) -> tuple:
        """Where the next request will go."""
        return self._addresses[self._index % len(self._addresses)]

    def _drop(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
        self._index += 1
        self.repoints += 1

    def _invoke(self, method: str, *args):
        # One attempt per address, starting from the current one; a
        # ReplicaError (the standby answered, and refused) propagates —
        # only transport failures re-point.
        last: Exception | None = None
        with self._lock:
            for _ in range(len(self._addresses)):
                if self._client is None:
                    address = self._addresses[
                        self._index % len(self._addresses)
                    ]
                    try:
                        self._client = ReplicaReadClient(
                            address, timeout=self._timeout
                        )
                    except (ConnectionError, OSError) as exc:
                        last = exc
                        self._drop()
                        continue
                try:
                    return getattr(self._client, method)(*args)
                except (OSError, EOFError, ConnectionError) as exc:
                    last = exc
                    self._drop()
        raise ReplicaError(f"no standby reachable: {last}")

    # ------------------------------------------------------------------
    def snapshot(self, campaign_id: str) -> TruthSnapshot:
        return self._invoke("snapshot", campaign_id)

    def status(self) -> dict:
        return self._invoke("status")

    def ping(self) -> bool:
        try:
            return bool(self._invoke("ping"))
        except ReplicaError:
            return False

    def close(self) -> None:
        with self._lock:
            if self._client is not None:
                self._client.close()
                self._client = None

    def __enter__(self) -> "FailoverReadClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
