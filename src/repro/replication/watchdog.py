"""Automated failover: heartbeat the primary, promote the freshest standby.

``docs/replication.md`` used to end with a *manual* promotion runbook —
an operator notices the primary is gone, inspects every standby's
watermark, and calls ``promote()`` on the best one.  This module is
that runbook as code:

* :class:`PrimaryStatusServer` gives the primary a liveness surface:
  a listener answering the worker protocol's ``PING`` and the
  replication protocol's ``STATUS_REQ`` (role, watermarks) without
  touching the ingest hot path;
* :class:`FailoverWatchdog` heartbeats that listener on an interval.
  After ``misses`` consecutive failed probes it declares the primary
  dead, queries every standby's replicated watermark over the same
  STATUS frames standbys already serve, elects the freshest (highest
  ``durable_lsn``; ties break to the lowest index — a deterministic
  rule, so two drills with the same schedule elect the same standby),
  and calls ``PROMOTE`` on it;
* :func:`launch_watchdog` runs that loop in a *detached* ``repro
  watchdog`` process.  Detachment is the point: a watchdog thread
  inside the primary dies with the primary, while an orphaned child
  keeps running after SIGKILL — which is exactly when it is needed.

A single watchdog is a single point of *false* detection: a network
partition between it and the primary looks exactly like primary death.
``Topology.replicated(auto_failover=True, watchdogs=N)`` therefore
launches N watchdogs that vote before promoting: each runs a tiny
:class:`WatchdogPeerServer`, a watchdog that detects death asks its
peers for votes (``WD_VOTE_REQ``), and only a strict majority of the
fleet may promote.  A peer grants a vote only if its *own* probe of
the primary fails too, it has not observed a promotion, and it has not
already voted for another candidate at that epoch.  The winner
promotes with a monotone **fencing epoch** — one above the highest
epoch any standby reported — which the standby persists before
flipping, so a partitioned stale watchdog's late PROMOTE is refused by
construction.  With ``watchdogs=1`` the self-vote is the majority and
behaviour is exactly the old single-watchdog flow.

``Topology.replicated(auto_failover=True)`` wires all three together;
the manual ``promote()`` path remains as the fallback when no watchdog
is armed.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional, Sequence

from repro.net.fabric import HostProcess, spawn_cli
from repro.net.transport import FrameServer, call
from repro.replication import protocol as rp
from repro.replication.client import ReplicaError, expect_reply
from repro.utils.backoff import Backoff
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.utils.validation import ensure_int, ensure_positive
from repro.workers import protocol as proto
from repro.workers.protocol import ProtocolError, send_frame

_LOGGER = get_logger("replication.watchdog")


class WatchdogError(RuntimeError):
    """The watchdog could not complete a failover."""


class _FrameListener(FrameServer):
    """A :class:`FrameServer` answering from a request/reply table.

    A subclass supplies the table as :meth:`handle`; this class owns
    ``SHUTDOWN`` (ends the connection) and the unsupported-frame reply.
    Connections are served concurrently, so ``handle`` may be running
    for several peers at once: shared counters go under ``_lock``.
    """

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port, self._reply, name=type(self).__name__)
        self._lock = threading.Lock()

    def handle(self, rtype: int, payload: bytes) -> Optional[tuple]:
        """The reply ``(rtype, payload)`` to one frame, or None when
        the frame type is not served."""
        raise NotImplementedError

    def _reply(self, conn, rtype: int, payload: bytes) -> bool:
        if rtype == proto.SHUTDOWN:
            return False
        reply = self.handle(rtype, payload)
        if reply is None:
            reply = (
                rp.REPL_ERROR,
                rp.encode_json({"error": f"unsupported frame type {rtype}"}),
            )
        send_frame(conn, *reply)
        return True


class PrimaryStatusServer(_FrameListener):
    """The primary's liveness/status listener (one background thread).

    Answers ``PING`` → ``PONG`` and ``STATUS_REQ`` → ``STATUS_RESP``
    with the primary's role and WAL watermarks, read straight off the
    :class:`~repro.durable.manager.DurabilityManager` — no locks shared
    with the ingest path.  The expected clients are watchdogs that
    dial, probe, and hang up.
    """

    def __init__(
        self, manager, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(host, port)
        self._manager = manager
        self.probes_answered = 0

    def _status(self) -> dict:
        return {
            "role": "primary",
            "pid": os.getpid(),
            "durable_lsn": self._manager.durable_lsn,
            "last_lsn": self._manager.last_lsn,
        }

    def handle(self, rtype: int, payload: bytes) -> Optional[tuple]:
        if rtype == proto.PING:
            with self._lock:
                self.probes_answered += 1
            return proto.PONG, b""
        if rtype == rp.STATUS_REQ:
            return rp.STATUS_RESP, rp.encode_json(self._status())
        return None


class WatchdogPeerServer(_FrameListener):
    """One watchdog's voting surface (quorum-fenced promotion).

    Answers three frames on its own listener (peers dial, ask, hang
    up):

    * ``WD_VOTE_REQ`` (JSON ``{"epoch": E, "requester": i}``): grant
      iff this watchdog has not observed a promotion, its *own*
      instantaneous probe of the primary also fails (a peer that can
      still reach the primary refuses — that is the partition defence),
      and no *other* requester holds an unexpired grant.  The grant is
      **single and leased**: one outstanding endorsement at a time, so
      two candidates can never assemble disjoint majorities at
      different epochs; if the grantee dies before promoting, the
      lease expires and the fleet can try again.
    * ``WD_PROMOTED`` (JSON report): a peer announces it promoted;
      recorded so every later vote request is refused and the local
      failover loop stands down.
    * ``PING`` → ``PONG`` (liveness).
    """

    #: How long a granted vote stays exclusive when the grantee never
    #: promotes (it died mid-failover).  Long enough for any real
    #: promotion to complete, short enough that a drill retries fast.
    VOTE_LEASE_SECONDS = 15.0

    def __init__(
        self, watchdog: "FailoverWatchdog", *, host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self._watchdog = watchdog
        #: The one outstanding grant: (requester, epoch, granted_at).
        self._grant: Optional[tuple[int, int, float]] = None
        self.votes_granted = 0
        self.votes_denied = 0
        #: Report announced via WD_PROMOTED (or None).
        self.promotion_observed: Optional[dict] = None

    def _holder(self, requester: int) -> Optional[int]:
        """The live grantee blocking ``requester``, or None (lock held)."""
        if self._grant is None:
            return None
        holder, _epoch, granted_at = self._grant
        if holder == requester:
            return None  # re-ask / higher epoch: refresh below
        if time.monotonic() - granted_at > self.VOTE_LEASE_SECONDS:
            self._grant = None  # grantee died mid-failover; lease over
            return None
        return holder

    def _vote(self, body: dict) -> dict:
        epoch = int(body.get("epoch", 0))
        requester = int(body.get("requester", -1))
        with self._lock:
            if self.promotion_observed is not None:
                self.votes_denied += 1
                return {
                    "granted": False,
                    "reason": "promotion already observed",
                    "promoted": True,
                }
            holder = self._holder(requester)
            if holder is not None:
                self.votes_denied += 1
                return {
                    "granted": False,
                    "reason": f"vote leased to watchdog {holder}",
                    "promoted": False,
                }
        # Probe outside the lock: the primary may take probe_timeout
        # to answer, and a PING must never queue behind it.
        if self._watchdog.probe():
            with self._lock:
                self.votes_denied += 1
            return {
                "granted": False,
                "reason": "primary is alive from here",
                "promoted": False,
            }
        with self._lock:
            if self.promotion_observed is not None:
                self.votes_denied += 1
                return {
                    "granted": False,
                    "reason": "promotion already observed",
                    "promoted": True,
                }
            holder = self._holder(requester)
            if holder is not None:
                self.votes_denied += 1
                return {
                    "granted": False,
                    "reason": f"vote leased to watchdog {holder}",
                    "promoted": False,
                }
            self._grant = (requester, epoch, time.monotonic())
            self.votes_granted += 1
        return {"granted": True, "reason": "ok", "promoted": False}

    def observe_promotion(self, report: dict) -> None:
        with self._lock:
            if self.promotion_observed is None:
                self.promotion_observed = dict(report)

    def handle(self, rtype: int, payload: bytes) -> Optional[tuple]:
        if rtype == rp.WD_VOTE_REQ:
            verdict = self._vote(rp.decode_json(payload))
            return rp.WD_VOTE_RESP, rp.encode_json(verdict)
        if rtype == rp.WD_PROMOTED:
            self.observe_promotion(rp.decode_json(payload))
            return proto.PONG, b""
        if rtype == proto.PING:
            return proto.PONG, b""
        return None


class FailoverWatchdog:
    """Detect primary death and promote the freshest standby.

    Parameters
    ----------
    primary_address:
        The primary's :class:`PrimaryStatusServer` ``(host, port)``.
    standby_addresses:
        Every standby listener, in launch order (index order is the
        election tie-break).
    interval:
        Seconds between heartbeats.
    misses:
        Consecutive failed probes before the primary is declared dead.
    probe_timeout:
        Dial + response budget of a single probe (and of each election
        status query).
    on_armed:
        Called once, after the first successful probe — the hook the
        CLI uses to print ``ARMED`` so a drill knows the watchdog is
        live before it starts killing things.
    index:
        This watchdog's identity within the fleet (0-based; also the
        jitter seed of its retry backoff, which breaks vote symmetry).
    peers:
        The *other* watchdogs' :class:`WatchdogPeerServer` addresses.
        Non-empty peers (or ``peer_port``) switch on quorum voting:
        this watchdog starts its own peer server and only promotes
        with a strict majority of ``len(peers) + 1`` votes.
    peer_port:
        Port for this watchdog's own peer server (0 picks a free one;
        the fleet launcher pre-allocates ports so every member knows
        the others up front).
    election_attempts:
        Consecutive empty elections (zero reachable standbys) tolerated
        — each retried under the jittered backoff, never a tight loop —
        before the failover is abandoned with :class:`WatchdogError`.
    """

    def __init__(
        self,
        primary_address: tuple,
        standby_addresses: Sequence[tuple],
        *,
        interval: float = 0.5,
        misses: int = 4,
        probe_timeout: float = 1.0,
        on_armed: Optional[Callable[[], None]] = None,
        index: int = 0,
        peers: Sequence[tuple] = (),
        peer_port: Optional[int] = None,
        election_attempts: int = 6,
    ) -> None:
        if not standby_addresses:
            raise ValueError("watchdog needs at least one standby address")
        ensure_positive(interval, "interval")
        ensure_int(misses, "misses", minimum=1)
        ensure_positive(probe_timeout, "probe_timeout")
        ensure_int(index, "index", minimum=0)
        ensure_int(election_attempts, "election_attempts", minimum=1)
        self.primary_address = tuple(primary_address)
        self.standby_addresses = [tuple(a) for a in standby_addresses]
        self.interval = float(interval)
        self.misses = int(misses)
        self.probe_timeout = float(probe_timeout)
        self._on_armed = on_armed
        self.index = int(index)
        self.peers = [tuple(a) for a in peers]
        self.election_attempts = int(election_attempts)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.armed = False
        self.heartbeats_sent = 0
        self.heartbeat_misses = 0
        self.elections = 0
        self.failed_elections = 0
        self.quorum_denied = 0
        self.promotions_refused = 0
        self.auto_promotions = 0
        self.detection_seconds: Optional[float] = None
        self.promotion_seconds: Optional[float] = None
        self.result: Optional[dict] = None
        #: Last per-standby reachability, for state-change-only logging.
        self._standby_reachable: dict[int, bool] = {}
        #: Highest fencing epoch any standby reported in the last scan.
        self._max_epoch_seen = 0
        #: Set by elect() when a standby already reports promoted=True.
        self._promoted_standby: Optional[dict] = None
        self.peer_server: Optional[WatchdogPeerServer] = None
        if self.peers or peer_port is not None:
            self.peer_server = WatchdogPeerServer(
                self, port=peer_port or 0
            )
            self.peer_server.start()

    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """One PING round-trip against the primary's status listener
        (one dial: a refused connection *is* the answer, at once)."""
        try:
            rtype, _ = call(
                self.primary_address, proto.PING, timeout=self.probe_timeout
            )
        except OSError:
            return False
        return rtype == proto.PONG

    def _ask(
        self, address: tuple, rtype: int, payload: bytes, expected: int
    ) -> dict:
        """One JSON request/reply with a standby: ``OSError`` if not had
        within ``probe_timeout``, :class:`ReplicaError` if refused."""
        reply = call(address, rtype, payload, timeout=self.probe_timeout)
        return rp.decode_json(expect_reply(reply, expected))

    # ------------------------------------------------------------------
    def elect(self) -> tuple[int, tuple, int]:
        """Pick the freshest reachable standby.

        Returns ``(index, address, watermark_lsn)``.  Standbys that are
        dead or unreachable are skipped; strict ``>`` keeps the lowest
        index on watermark ties.  Reachability is logged once per
        *state change* (unreachable↔reachable), not per probe — an
        election retry loop must not flood the log.  Side effects: the
        highest ``fencing_epoch`` seen lands in ``_max_epoch_seen``,
        and a standby already reporting ``promoted=True`` lands in
        ``_promoted_standby`` (someone else won; the caller stands
        down).
        """
        best: Optional[tuple[int, tuple, int]] = None
        for index, address in enumerate(self.standby_addresses):
            try:
                status = self._ask(
                    address, rp.STATUS_REQ, b"", rp.STATUS_RESP
                )
            except (OSError, ReplicaError, ProtocolError):
                if self._standby_reachable.get(index, True):
                    _LOGGER.warning(
                        "election: standby %d at %s unreachable",
                        index,
                        address,
                    )
                self._standby_reachable[index] = False
                continue
            watermark = int(status.get("durable_lsn", -1))
            self._max_epoch_seen = max(
                self._max_epoch_seen,
                int(status.get("fencing_epoch", 0) or 0),
            )
            if status.get("promoted"):
                self._promoted_standby = {
                    "promoted_index": index,
                    "promoted_address": list(address),
                    "watermark_lsn": watermark,
                }
            if not self._standby_reachable.get(index, False):
                _LOGGER.info(
                    "election: standby %d at %s holds lsn %d",
                    index,
                    address,
                    watermark,
                )
            self._standby_reachable[index] = True
            if best is None or watermark > best[2]:
                best = (index, address, watermark)
        if best is None:
            raise WatchdogError(
                "no standby reachable; cannot promote anything"
            )
        return best

    # ------------------------------------------------------------------
    @property
    def fleet_size(self) -> int:
        """Voters in the fleet (peers plus this watchdog)."""
        return len(self.peers) + 1

    def _gather_votes(self, epoch: int, candidate: int) -> int:
        """Ask every peer to endorse promoting at ``epoch``.

        Returns granted votes including the self-vote.  An unreachable
        peer is simply a vote not granted — a partitioned minority can
        never reach a majority, which is the whole point.  A peer that
        answers "promotion already observed" feeds
        :attr:`peer_server.promotion_observed` so the caller stands
        down.
        """
        granted = 1  # self-vote: this watchdog detected the death
        body = rp.encode_json(
            {"epoch": epoch, "candidate": candidate,
             "requester": self.index}
        )
        for address in self.peers:
            try:
                rtype, payload = call(
                    address, rp.WD_VOTE_REQ, body, timeout=self.probe_timeout
                )
                if rtype != rp.WD_VOTE_RESP:
                    continue
                verdict = rp.decode_json(payload)
            except (OSError, ProtocolError):
                continue
            if verdict.get("granted"):
                granted += 1
            elif verdict.get("promoted") and self.peer_server is not None:
                self.peer_server.observe_promotion(
                    {"reason": "peer observed a promotion"}
                )
        return granted

    def _announce_promotion(self, result: dict) -> None:
        """Broadcast the completed failover (best effort).

        Peers record it and stand down; every *other* standby persists
        the winning fencing epoch (``WD_PROMOTED`` advances a standby's
        fence without promoting it), so a partitioned watchdog's late
        PROMOTE at the same or a lower epoch is refused fleet-wide,
        not just on the promoted standby.
        """
        if self.peer_server is not None:
            self.peer_server.observe_promotion(result)
        body = rp.encode_json(result)
        targets = list(self.peers) + [
            tuple(a)
            for a in self.standby_addresses
            if list(a) != list(result.get("promoted_address", ()))
        ]
        for address in targets:
            try:
                call(address, rp.WD_PROMOTED, body, timeout=self.probe_timeout)
            except OSError:
                continue

    def _observed_promotion(self) -> Optional[dict]:
        if self.peer_server is None:
            return None
        return self.peer_server.promotion_observed

    def _stand_down(self, observed: dict) -> dict:
        result = dict(observed)
        result["observed"] = True
        result.setdefault("promoted_index", None)
        self.result = result
        _LOGGER.warning(
            "standing down: a peer watchdog already promoted (%s)",
            observed,
        )
        return result

    def failover(self) -> dict:
        """Elect, gather a quorum, and promote with a fencing epoch.

        Returns the failover report.  With peers configured, the
        promotion only proceeds on a strict majority of the fleet; a
        denied quorum retries under the jittered backoff (re-checking
        for a peer's completed promotion each round).  The report of a
        promotion done *elsewhere* carries ``observed: True``.
        """
        start = time.perf_counter()
        backoff = Backoff(
            base=0.05,
            cap=1.0,
            random_state=derive_seed(0, "watchdog.failover", self.index),
        )
        empty_elections = 0
        while not self._stop.is_set():
            observed = self._observed_promotion()
            if observed is not None:
                return self._stand_down(observed)
            self.elections += 1
            try:
                index, address, watermark = self.elect()
            except WatchdogError:
                self.failed_elections += 1
                empty_elections += 1
                if empty_elections >= self.election_attempts:
                    raise
                self._stop.wait(backoff.next())
                continue
            empty_elections = 0
            if self._promoted_standby is not None:
                return self._stand_down(self._promoted_standby)
            epoch = self._max_epoch_seen + 1
            if self.peers:
                granted = self._gather_votes(epoch, index)
                if granted * 2 <= self.fleet_size:
                    self.quorum_denied += 1
                    _LOGGER.warning(
                        "quorum denied: %d/%d vote(s) at epoch %d",
                        granted,
                        self.fleet_size,
                        epoch,
                    )
                    observed = self._observed_promotion()
                    if observed is not None:
                        return self._stand_down(observed)
                    self._stop.wait(backoff.next())
                    continue
            try:
                report = self._ask(
                    address,
                    rp.PROMOTE_REQ,
                    rp.encode_json({"epoch": epoch}),
                    rp.PROMOTE_RESP,
                )
            except ReplicaError as exc:
                # Lost the race: another watchdog fenced a higher (or
                # this) epoch first, or the standby refused.  Re-elect;
                # the next scan observes the winner's promoted=True.
                self.promotions_refused += 1
                _LOGGER.warning(
                    "promotion at epoch %d refused by standby %d: %s",
                    epoch,
                    index,
                    exc,
                )
                self._stop.wait(backoff.next())
                continue
            except (OSError, ProtocolError):
                self._stop.wait(backoff.next())
                continue
            self.promotion_seconds = time.perf_counter() - start
            self.auto_promotions += 1
            result = {
                "promoted_index": index,
                "promoted_address": list(address),
                "watermark_lsn": int(
                    report.get("watermark_lsn", watermark)
                ),
                "records_applied": report.get("records_applied"),
                "fencing_epoch": int(
                    report.get("fencing_epoch", epoch)
                ),
                "detection_seconds": self.detection_seconds,
                "promotion_seconds": self.promotion_seconds,
                "heartbeats_sent": self.heartbeats_sent,
                "heartbeat_misses": self.heartbeat_misses,
                "watchdog_index": self.index,
            }
            self.result = result
            self._announce_promotion(result)
            _LOGGER.warning(
                "auto-promoted standby %d at %s (watermark lsn %d, "
                "epoch %d, detection %.3fs, promotion %.3fs)",
                index,
                address,
                result["watermark_lsn"],
                result["fencing_epoch"],
                self.detection_seconds or -1.0,
                self.promotion_seconds,
            )
            return result
        raise WatchdogError("stopped before the failover completed")

    # ------------------------------------------------------------------
    def run(self) -> Optional[dict]:
        """Heartbeat until the primary dies, then fail over.

        Misses only count once the watchdog is *armed* (has seen the
        primary alive at least once), so a slow-booting primary is
        never "detected dead" before it ever lived.  Returns the
        failover report, or None when stopped while the primary was
        still healthy.
        """
        consecutive = 0
        first_miss: Optional[float] = None
        while not self._stop.is_set():
            ok = self.probe()
            self.heartbeats_sent += 1
            now = time.monotonic()
            if ok:
                consecutive = 0
                first_miss = None
                if not self.armed:
                    self.armed = True
                    _LOGGER.info(
                        "armed: primary %s is alive", self.primary_address
                    )
                    if self._on_armed is not None:
                        self._on_armed()
            elif self.armed:
                self.heartbeat_misses += 1
                consecutive += 1
                if first_miss is None:
                    first_miss = now
                if consecutive >= self.misses:
                    self.detection_seconds = now - first_miss
                    _LOGGER.warning(
                        "primary %s dead: %d consecutive misses in %.3fs",
                        self.primary_address,
                        consecutive,
                        self.detection_seconds,
                    )
                    return self.failover()
            self._stop.wait(self.interval)
        return None

    def start(self) -> None:
        """Run the heartbeat loop on a background thread (tests, or an
        in-process watchdog on a *third* machine; production failover
        uses :func:`launch_watchdog`)."""
        if self._thread is not None:
            raise RuntimeError("watchdog already started")
        self._thread = threading.Thread(
            target=self._run_thread, name="repro-watchdog", daemon=True
        )
        self._thread.start()

    def _run_thread(self) -> None:
        try:
            self.run()
        except WatchdogError as exc:  # pragma: no cover - all dead
            _LOGGER.error("failover failed: %s", exc)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        if self.peer_server is not None:
            self.peer_server.stop()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-friendly counters (telemetry / drill report)."""
        peer = self.peer_server
        return {
            "armed": self.armed,
            "index": self.index,
            "fleet_size": self.fleet_size,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeat_misses": self.heartbeat_misses,
            "elections": self.elections,
            "failed_elections": self.failed_elections,
            "quorum_denied": self.quorum_denied,
            "promotions_refused": self.promotions_refused,
            "auto_promotions": self.auto_promotions,
            "votes_granted": 0 if peer is None else peer.votes_granted,
            "votes_denied": 0 if peer is None else peer.votes_denied,
            "detection_seconds": self.detection_seconds,
            "promotion_seconds": self.promotion_seconds,
            "promoted_index": (
                None
                if self.result is None
                else self.result.get("promoted_index")
            ),
        }


def format_address(address: tuple) -> str:
    return f"{address[0]}:{address[1]}"


def parse_address(text: str) -> tuple[str, int]:
    """``host:port`` → ``(host, port)`` (the CLI's address syntax)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, int(port)


def allocate_peer_ports(count: int, *, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` free ports for a watchdog fleet's peer servers.

    Every fleet member must know the others' peer addresses *before*
    any of them starts, so the launcher binds ephemeral listeners,
    reads the assigned ports, and releases them.  The tiny window
    before the watchdogs re-bind is racy in theory; in practice the
    kernel does not recycle just-released ephemeral ports that fast.
    """
    import socket

    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def launch_watchdog(
    primary_address: tuple,
    standby_addresses: Sequence[tuple],
    *,
    interval: float = 0.5,
    misses: int = 4,
    probe_timeout: float = 1.0,
    index: int = 0,
    peer_port: Optional[int] = None,
    peers: Sequence[tuple] = (),
) -> HostProcess:
    """Start a detached ``repro watchdog`` process.

    The child inherits this process's stdout/stderr (its ``ARMED`` and
    ``PROMOTED`` lines land in this process's stream — the chaos drill
    reads them from there even after this process is SIGKILLed) and is
    *not* waited on: it must outlive this process, that is its job.

    ``index``/``peer_port``/``peers`` configure quorum voting (see
    :class:`WatchdogPeerServer`).
    """
    argv = [
        "watchdog",
        "--primary",
        format_address(primary_address),
        "--interval",
        str(interval),
        "--misses",
        str(misses),
        "--probe-timeout",
        str(probe_timeout),
        "--index",
        str(index),
    ]
    for address in standby_addresses:
        argv.extend(["--standby", format_address(address)])
    if peer_port is not None:
        argv.extend(["--peer-port", str(peer_port)])
    for address in peers:
        argv.extend(["--peer", format_address(address)])
    process, _ = spawn_cli(argv)
    _LOGGER.info(
        "watchdog %d pid %d armed over primary %s, %d standby(s), "
        "%d peer(s)",
        index,
        process.pid,
        format_address(primary_address),
        len(standby_addresses),
        len(peers),
    )
    return process
