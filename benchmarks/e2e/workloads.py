"""The six workloads: set-up, drive loop, post-window phases, checks.

Each ``run_*`` function takes a :class:`Context` and returns a
:class:`Result`.  The program is driven only through public functions
of ``repro.service``, ``repro.durable``, ``repro.net``/``repro.workers``
and ``repro.replication``.  Work is a fixed amount per ``--seconds``
(the constants below, sized so the timed window lasts about that long
on the reference 2-core box), never "whatever fits": counts, truths and
WAL bytes then repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import contextlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import measure
import reference
import traffic as traffic_mod
from repro.durable import DurabilityConfig, RecoveryManager
from repro.privacy.ldp import LDPGuarantee
from repro.privacy.mechanisms import ExponentialVarianceGaussianMechanism
from repro.service import BudgetLedger, IngestService, ServiceConfig, Topology
from repro.truthdiscovery.claims import ClaimMatrix

clock = time.perf_counter

# Work per second of ``--seconds``.
DEVICE_SUBMISSIONS_PER_S = 45_056  # 44 pump groups of 1024
BULK_DURABLE_CHUNKS_PER_S = 2_560  # x 2048 claims
FABRIC_CHUNKS_PER_S = 896
REPLICATED_CHUNKS_PER_S = 1_536
READ_MIX_ROUNDS_PER_S = 232
#: A quarter of what the paced loop can carry on the reference box (a
#: flush costs ~27 ms of each 100 ms tick, a submission ~35 us), so the
#: run still keeps up when the sandbox is at half speed.
PACED_SUBMISSIONS_PER_S = 5_000
#: The paced front end flushes on this tick.  Flushing as fast as
#: possible instead keeps the loop busy at any rate (a flush outlasts the
#: gap between arrivals), and latency then follows machine speed with gain
#: 1/(1-utilisation) — too unsteady to gate on a shared box.
PACED_FLUSH_INTERVAL_S = 0.1

#: Set-ups per run (the median is reported).
SETUPS_IN_PROCESS = 40
SETUPS_SPAWNING = 5
#: Speed samples (1 ms each) before every in-process set-up and after the last.
SETUP_GAUGE_SAMPLES = 12

CHUNK = 2048
DEVICE = {"campaigns": 4, "users": 2000, "objects": 64}
BULK = {"campaigns": 8, "users": 200, "objects": 48}
READ = {"methods": ("crh", "gtm", "catd"), "users": 400, "objects": 64}
COST = LDPGuarantee(epsilon=0.5, delta=0.0)
REFUSED_SHARE = 0.03


@dataclass
class Context:
    seed: int
    seconds: float
    work_dir: Path
    tracer: Optional[object] = None
    #: Smoke sizes: one set-up, one recovery/failover, few replica reads.
    quick: bool = False
    #: False skips post-window phases and checks (the untraced twin of
    #: a traced pass only needs the window).
    post: bool = True
    #: ``ServiceConfig(obs=...)`` for the observability-overhead twin.
    obs: bool = True

    def repeats(self, full: int) -> int:
        return 1 if self.quick or not self.post else full

    def phase(self, name: str):
        """A root span around a post-window phase (no-op untraced)."""
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def untraced(self):
        """No spans inside: reference replays run the same code."""
        return contextlib.nullcontext() if self.tracer is None else self.tracer.paused()

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        return path


@dataclass
class Result:
    end_to_end: dict = field(default_factory=dict)
    ungated: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    verdicts: reference.Verdicts = field(default_factory=reference.Verdicts)
    info: dict = field(default_factory=dict)


class Window:
    """Wall clock and CPU seconds around the timed part of a run.

    :meth:`tick`, called between groups of work, samples the machine's
    speed; the time it takes is outside the window.  ``ref_wall_s`` and
    ``ref_cpu_s`` are the window in reference seconds (see
    ``measure.SpeedGauge``), ``wall_s`` and ``cpu_s`` as observed;
    ``elapsed_s`` is first to last instant, speed samples included.
    """

    def __init__(self, ctx: Context, child_pids=()) -> None:
        self._ctx = ctx
        self._pids = tuple(child_pids)
        self._span = None
        self._tick_wall = 0.0
        self._tick_cpu = 0.0
        self.gauge = measure.SpeedGauge()
        self.elapsed_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Window":
        if self._ctx.tracer is not None:
            self._span = self._ctx.tracer.span("bench.window")
            self._span.__enter__()
        self._sample(self.gauge.sample)
        self._tick_wall = self._tick_cpu = 0.0  # that one was before the clocks
        self._cpu0 = measure.cpu_seconds(self._pids)
        self._t0 = clock()
        return self

    def _sample(self, sample) -> None:
        # A span of its own when traced, so it is not time the trace
        # failed to attribute.
        with self._ctx.phase("bench.calibrate"):
            wall, cpu = sample()
        self._tick_wall += wall
        self._tick_cpu += cpu

    def tick(self) -> None:
        """One speed sample if the last is 25 ms old; out of the window."""
        self._sample(self.gauge.sample_if_due)

    def sample(self, repeats: int) -> None:
        self._sample(lambda: self.gauge.sample(repeats))

    def __exit__(self, *exc_info) -> None:
        self.elapsed_s = clock() - self._t0
        self.wall_s = self.elapsed_s - self._tick_wall
        self.cpu_s = measure.cpu_seconds(self._pids) - self._cpu0 - self._tick_cpu
        self._sample(self.gauge.sample)
        if self._span is not None:
            self._span.__exit__(*exc_info)

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.gauge.factor

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.gauge.factor


def _setups(ctx: Context, full: int) -> int:
    # A traced pass reports no setup_s: one set-up is enough.
    return 1 if ctx.tracer is not None else ctx.repeats(full)


def _in_process_setups(ctx: Context, build):
    """Build the service ``SETUPS_IN_PROCESS`` times; keep the last and
    return it with the median build time, ``(reference seconds,
    observed seconds)``.

    ``build(i)`` constructs the service through its last
    ``register_campaign``.  A build costs milliseconds; the speed
    samples between builds turn the median into reference seconds.
    """
    gauge = measure.SpeedGauge()
    times = []
    service = None
    for i in range(_setups(ctx, SETUPS_IN_PROCESS)):
        if service is not None:
            service.close()
        gauge.sample(SETUP_GAUGE_SAMPLES)
        start = clock()
        service = build(i)
        times.append(clock() - start)
    gauge.sample(SETUP_GAUGE_SAMPLES)
    observed = statistics.median(times)
    return service, (observed * gauge.factor, observed)


def _spawning_setups(ctx: Context, build):
    """As :func:`_in_process_setups` for a ``build`` that spawns a
    process and waits for its handshake: ``SETUPS_SPAWNING`` builds of
    about a second, each turned into reference seconds by speed samples
    taken from another thread during that very wait."""
    times, reference_s = [], []
    service = None
    for i in range(_setups(ctx, SETUPS_SPAWNING)):
        if service is not None:
            service.close()
        gauge = measure.SpeedGauge()
        with gauge.sampling_in_background():
            start = clock()
            service = build(i)
            times.append(clock() - start)
        reference_s.append(times[-1] * gauge.factor)
    return service, (statistics.median(reference_s), statistics.median(times))


def _child_pids(service) -> list[int]:
    pids = []
    if service.worker_pool is not None:
        pids += [h.process.pid for h in service.worker_pool.handles]
    if service.standbys is not None:
        pids += [h.process.pid for h in service.standbys.handles]
    return pids


def _directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _final_truths(service, campaign_ids) -> dict[str, np.ndarray]:
    return {cid: service.snapshot(cid).truths for cid in campaign_ids}


def _time_perturb(ctx: Context, columns) -> None:
    """Time the client-side mechanism once on the synthesised columns.

    Devices pay this, not the server, so it sits outside every window;
    the span shows what Algorithm 2 costs next to what ingest costs.
    """
    if ctx.tracer is None:
        return
    users, objects, values = columns
    active_users, user_index = np.unique(users, return_inverse=True)
    seen_objects, object_index = np.unique(objects, return_inverse=True)
    matrix = ClaimMatrix.from_columns(
        user_index, object_index, values,
        user_ids=tuple(int(u) for u in active_users),
        object_ids=tuple(int(o) for o in seen_objects),
    )
    with ctx.tracer.span("bench.synthesis"):
        ExponentialVarianceGaussianMechanism(traffic_mod.LAMBDA2).perturb(matrix, ctx.seed)


def _claims_aggregated(service, campaign_ids) -> int:
    return sum(service.campaign_state(cid).aggregator.claims_ingested for cid in campaign_ids)


def _service_counts(service, campaign_ids, max_batch: int) -> dict:
    states = [service.campaign_state(cid) for cid in campaign_ids]
    batches = sum(s.batcher.batches_emitted for s in states)
    claims = _claims_aggregated(service, campaign_ids)
    counts = {
        "service.claims_accepted": service.stats.claims_accepted,
        "service.claims_refused_budget": service.stats.rejected_budget,
        "service.batches": batches,
        "service.batch_fill": claims / batches / max_batch if batches else 0.0,
        # Remote aggregators (fabric) refresh in the shard host; the
        # parent-side proxies count none.
        "service.refreshes": sum(s.aggregator.refreshes for s in states),
    }
    manager = service.durability
    if manager is not None:
        wal = manager.wal
        counts.update({
            "durable.wal.records": wal.records_written,
            "durable.wal.bytes": wal.bytes_written,
            "durable.wal.commit_groups": wal.groups_committed,
            "durable.wal.records_per_group": (
                wal.records_written / wal.groups_committed if wal.groups_committed else 0.0
            ),
            "durable.checkpoints": manager.checkpoints_written,
            # Checkpoints still on disk (retention keeps the newest few).
            "durable.checkpoint_bytes": sum(p.stat().st_size for p in manager.checkpoints.paths()),
        })
    pool = service.worker_pool
    if pool is not None:
        counts["net.rpcs"] = sum(h.rpc_count for h in pool.handles)
        if pool.supervisor is not None:
            stats = pool.supervisor.stats()
            counts["net.supervisor.captures"] = stats["captures"]
            counts["net.supervisor.restarts"] = stats["restarts"]
    if service.replication is not None:
        link = service.replication.stats()["standbys"][0]
        counts["replication.records_shipped"] = link["records_shipped"]
        counts["replication.bytes_shipped"] = link["bytes_shipped"]
        counts["replication.groups_shipped"] = link["groups_shipped"]
    return counts


def _latency_metrics(result: Result, factor: float, *, ack_s, read_s, clean_s=(),
                     ack_factor=None) -> None:
    """Medians and tails, each with the percentile the sample supports.

    ``factor`` turns the observed seconds into reference seconds: the
    window's, or for reads made after it that of a gauge sampled beside
    them.  ``ack_factor`` is 1 for the open loop, whose ack counts from
    due times on the wall clock.
    """
    e2e, ungated, info = result.end_to_end, result.ungated, result.info
    if ack_factor is None:
        ack_factor = factor
    p50, _, info["ack_samples"] = measure.percentile_ms(ack_s, 50.0)
    tail, info["ack_tail_percentile"], _ = measure.percentile_ms(ack_s, 99.0)
    ungated["ack_p50_ms"], ungated["ack_p99_ms"] = p50 * ack_factor, tail * ack_factor
    p50, _, info["read_samples"] = measure.percentile_ms(read_s, 50.0)
    e2e["read_p50_ms"] = p50 * factor
    tail, used, _ = measure.percentile_ms(read_s, 99.0)
    # The name says p99; a sample too small for it reports nothing.
    ungated["read_p99_ms"] = tail * factor if used == 99.0 else 0.0
    if len(clean_s):
        p50, _, info["clean_read_samples"] = measure.percentile_ms(clean_s, 50.0)
        ungated["clean_read_p50_ms"] = p50 * factor


def _reads_after_window(ctx: Context, phase: str, snapshot, campaign_ids):
    """Reads of a quiescent service, round robin over the campaigns:
    ``(seconds, truths, campaign)`` per read and the factor that turns
    those seconds into reference seconds (a gauge sampled beside them)."""
    reads = 100 if ctx.quick or not ctx.post else 1000
    gauge = measure.SpeedGauge(every_s=0.004)
    read_s, truths, cids = [], [], []
    with ctx.phase(phase):
        for k in range(reads):
            cid = campaign_ids[k % len(campaign_ids)]
            start = clock()
            snap = snapshot(cid)
            read_s.append(clock() - start)
            truths.append(snap.truths)
            cids.append(cid)
            gauge.sample_if_due()
    return read_s, truths, cids, gauge.factor


def _finish(result: Result, window: Window, service, traffic, *, claims: int, max_batch: int,
            setup: tuple[float, float], gen_s: float,
            rate_on_schedule: bool = False) -> dict[str, np.ndarray]:
    """What every workload reports once its window has closed; returns
    the final truths per campaign.  ``rate_on_schedule``: the open
    loop's rate is what its schedule delivered per wall-clock second."""
    e2e = result.end_to_end
    e2e["setup_s"] = setup[0]
    observed_s = window.elapsed_s if rate_on_schedule else window.wall_s
    e2e["ingest_claims_per_s"] = claims / (observed_s if rate_on_schedule else window.ref_wall_s)
    e2e["cpu_us_per_claim"] = window.ref_cpu_s / claims * 1e6
    e2e["peak_rss_mb"] = measure.peak_rss_mb(_child_pids(service))
    truths = _final_truths(service, traffic.campaign_ids)
    e2e["truth_rmse"] = reference.truth_rmse(truths, traffic.ground_truth())
    result.counts = _service_counts(service, traffic.campaign_ids, max_batch)
    result.counts["bench.traffic_gen_s"] = gen_s
    result.counts["bench.machine_speed"] = window.gauge.factor
    result.info.update(
        window_s=window.wall_s, window_cpu_s=window.cpu_s, window_ref_s=window.ref_wall_s,
        window_ref_cpu_s=window.ref_cpu_s, window_claims=claims, setup_observed_s=setup[1],
        observed_claims_per_s=claims / observed_s,
        speed_samples=len(window.gauge.kernel_s), traffic_sha256=traffic.sha256,
    )
    return truths


# ======================================================================
# Device path (protocol submissions)
# ======================================================================
def _device_traffic(ctx: Context, prefix: str):
    start = clock()
    pool_per_campaign = 2048 if ctx.quick else 16_384
    traffic = traffic_mod.device_traffic(
        ctx.seed, prefix=prefix, pool_per_campaign=pool_per_campaign, **DEVICE
    )
    _time_perturb(ctx, traffic_mod.device_columns(traffic, traffic.campaign_ids[0]))
    return traffic, clock() - start


def _build_device(ctx: Context, traffic, *, cap: float, topology=None):
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=1024, obs=ctx.obs),
        ledger=BudgetLedger(epsilon_cap=cap),
        topology=topology,
    )
    for gen in traffic.generators:
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=gen.num_users, method="crh", cost=COST
        )
    return service


def _drive_device(service, pool, lo: int, hi: int, *, pump_every: int, rec,
                  after_group=None) -> None:
    """Submissions ``lo..hi-1`` closed loop: a pump per group of
    ``pump_every``, then ``after_group()`` (the window's speed sample)."""
    submit = service.submit
    size = len(pool)
    reasons, t_submit, t_ack = rec["reasons"], rec["t_submit"], rec["t_ack"]
    i = lo
    while i < hi:
        stop = min(i + pump_every, hi)
        for k in range(i, stop):
            t_submit[k] = clock()
            reasons[k] = submit(pool[k % size]).reason
        service.pump()
        t_ack[i:stop] = clock()
        if after_group is not None:
            after_group()
        i = stop


def run_device_submit(ctx: Context) -> Result:
    result = Result()
    pump_every = 1024
    traffic, gen_s = _device_traffic(ctx, "dev")
    warm = 2 * pump_every
    total = warm + max(int(ctx.seconds * DEVICE_SUBMISSIONS_PER_S) // pump_every, 1) * pump_every
    pool = traffic.pool
    user_sequence = [pool[k % len(pool)].user_id for k in range(total)]
    cap = reference.cap_for_refusal_share(user_sequence, COST.epsilon, REFUSED_SHARE)
    gc.freeze()

    service, setup = _in_process_setups(ctx, lambda i: _build_device(ctx, traffic, cap=cap))
    try:
        rec = {"reasons": [None] * total, "t_submit": np.zeros(total), "t_ack": np.zeros(total)}
        _drive_device(service, pool, 0, warm, pump_every=pump_every, rec=rec)
        with Window(ctx) as window:
            _drive_device(service, pool, warm, total, pump_every=pump_every, rec=rec,
                          after_group=window.tick)
            service.flush()
            service.sync_workers()
        final = _finish(result, window, service, traffic, claims=(total - warm) * 8, max_batch=1024,
                        setup=setup, gen_s=gen_s)
        # Devices do not read; the operator does, once the data is in.
        # (A dirty read beside the writes sat on the edge of a bimodal
        # distribution here and its median moved 12-23% between runs.)
        read_s, read_truths, read_cids, read_factor = _reads_after_window(
            ctx, "bench.reads", service.snapshot, traffic.campaign_ids
        )
        _latency_metrics(result, read_factor, read_s=read_s,
                         ack_s=(rec["t_ack"] - rec["t_submit"])[warm:],
                         ack_factor=window.gauge.factor)
        result.info.update(submissions=total, warm_up_submissions=warm, epsilon_cap=cap)
        if ctx.post:
            reference.check_bitwise(result.verdicts, read_truths, [final[cid] for cid in read_cids],
                                    "read after the window == final truths")
            reference.check_device_outcomes(
                result.verdicts, user_sequence=user_sequence, reasons=rec["reasons"],
                epsilon=COST.epsilon, cap=cap, claims_per_submission=8, service=service,
            )
            accepted = sum(reason == "" for reason in rec["reasons"]) * 8
            result.verdicts.check(
                _claims_aggregated(service, traffic.campaign_ids) == accepted,
                "claims aggregated == claims accepted",
            )
    finally:
        service.close()
        gc.unfreeze()
    return result


def run_device_paced_durable(ctx: Context) -> Result:
    result = Result()
    traffic, gen_s = _device_traffic(ctx, "paced")
    pool = traffic.pool
    warm = 2048
    paced = int(ctx.seconds * PACED_SUBMISSIONS_PER_S)
    gc.freeze()

    def build(i: int):
        config = DurabilityConfig(directory=ctx.fresh_dir(f"wal{i}"), fsync="batch")
        return _build_device(ctx, traffic, cap=1e9, topology=Topology.in_process(durability=config))

    service, setup = _in_process_setups(ctx, build)
    try:
        reasons = [None] * (warm + paced)
        for k in range(warm):
            reasons[k] = service.submit(pool[k % len(pool)]).reason
        service.flush()
        pacer = measure.OpenLoopPacer(
            np.arange(paced) / PACED_SUBMISSIONS_PER_S,
            tick_s=PACED_FLUSH_INTERVAL_S,
            # A front end bounds its flush group; with an unbounded one
            # a slow system would never show a backlog, only latency.
            max_batch=PACED_SUBMISSIONS_PER_S // 5,
            drain_s=0.5,
            # Waiting for the tick is a span of its own, so it does not
            # count as time the trace failed to attribute.
            sleep=time.sleep if ctx.tracer is None else ctx.tracer.wrap("bench.idle", time.sleep),
        )
        read_s = []
        submit = service.submit
        with Window(ctx) as window:
            pacer.start()
            while True:
                batch = pacer.next_batch()
                if batch is None:
                    break
                lo, hi = batch
                for k in range(warm + lo, warm + hi):
                    reasons[k] = submit(pool[k % len(pool)]).reason
                service.flush()
                pacer.acknowledge(lo, hi)
                start = clock()
                service.snapshot(traffic.campaign_ids[len(read_s) % len(traffic.campaign_ids)])
                read_s.append(clock() - start)
                # In the idle part of the cycle (the system keeps up
                # with a quarter of it to spare).
                window.sample(4)
        taken = pacer.taken
        _finish(result, window, service, traffic, claims=taken * 8, max_batch=1024,
                setup=setup, gen_s=gen_s, rate_on_schedule=True)
        _latency_metrics(result, window.gauge.factor, ack_s=pacer.latencies_s(), read_s=read_s,
                         ack_factor=1.0)
        total_claims = (warm + taken) * 8
        result.ungated["wal_bytes_per_claim"] = (
            _directory_bytes(Path(service.durability.directory)) / total_claims
        )
        late_ms, _, _ = measure.percentile_ms(pacer.lateness_s(), 99.0)
        result.counts["bench.gen_late_p99_ms"] = late_ms
        result.counts["bench.backlog_end"] = pacer.backlog_end
        result.info.update(offered_per_s=PACED_SUBMISSIONS_PER_S, submissions=paced)
        if ctx.post:
            verdicts = result.verdicts
            verdicts.check_many([r == "" for r in reasons[: warm + taken]], "submission accepted")
            verdicts.check(pacer.backlog_end == 0, "bench.backlog_end == 0")
            verdicts.check(
                _claims_aggregated(service, traffic.campaign_ids) == total_claims,
                "claims aggregated == claims accepted",
            )
    finally:
        service.close()
        gc.unfreeze()
    return result


# ======================================================================
# Bulk path (columnar chunks)
# ======================================================================
class BulkRecord:
    """What a bulk drive loop observed, per chunk and per read."""

    def __init__(self, chunks: int) -> None:
        self.t_submit = np.zeros(chunks)
        self.t_ack = np.zeros(chunks)
        self.accepted = np.zeros(chunks, dtype=np.int64)
        self.read_s: list[float] = []
        self.read_truths: list[np.ndarray] = []


def _drive_bulk(service, pool, lo: int, hi: int, *, pump_every: int, read_every: int,
                campaign_ids, rec: BulkRecord, after_group=None) -> None:
    """Chunks ``lo..hi-1`` closed loop; ``hi - lo`` is whole pump groups.

    ``read_every`` pumps a snapshot of one campaign (round robin) is
    read; 0 reads nothing.  ``after_group()`` runs after each pump and
    its read (the window's speed sample).
    """
    submit = service.submit_columns
    size = len(pool)
    group = lo
    for i in range(lo, hi):
        chunk = pool[i % size]
        rec.t_submit[i] = clock()
        rec.accepted[i] = submit(
            chunk.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
        ).accepted
        if (i + 1) % pump_every:
            continue
        service.pump()
        rec.t_ack[group:i + 1] = clock()
        group = i + 1
        pumps = (i + 1) // pump_every
        if read_every and pumps % read_every == 0:
            start = clock()
            snap = service.snapshot(campaign_ids[(pumps // read_every) % len(campaign_ids)])
            rec.read_s.append(clock() - start)
            rec.read_truths.append(snap.truths)
        if after_group is not None:
            after_group()


def _bulk_traffic(ctx: Context, prefix: str, pool_claims: int):
    start = clock()
    traffic = traffic_mod.bulk_traffic(
        ctx.seed,
        campaign_ids=[f"{prefix}-c{i}" for i in range(BULK["campaigns"])],
        users=BULK["users"], objects=BULK["objects"],
        pool_claims=pool_claims // 8 if ctx.quick else pool_claims,
    )
    _time_perturb(ctx, traffic_mod.bulk_columns(traffic, traffic.campaign_ids[0]))
    return traffic, clock() - start


def _build_bulk(traffic, topology, *, max_batch: int = CHUNK, methods=None, obs: bool = True):
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=max_batch, obs=obs), topology=topology
    )
    try:
        for gen in traffic.generators:
            method = "crh" if methods is None else methods[gen.campaign_id]
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=gen.num_users, method=method
            )
    except BaseException:
        service.close()
        raise
    return service


def _bulk_sizes(ctx: Context, chunks_per_s: int, pump_every: int) -> tuple[int, int]:
    """``(warm, total)`` chunk counts; both whole pump groups."""
    warm = 8 * pump_every
    timed = max(int(ctx.seconds * chunks_per_s) // pump_every, 1) * pump_every
    return warm, warm + timed


def _finish_bulk(result: Result, ctx: Context, window: Window, service, traffic, rec: BulkRecord,
                 warm: int, total: int, setup: tuple[float, float],
                 gen_s: float) -> dict[str, np.ndarray]:
    truths = _finish(result, window, service, traffic, claims=(total - warm) * CHUNK,
                     max_batch=CHUNK, setup=setup, gen_s=gen_s)
    result.info.update(chunks=total, warm_up_chunks=warm)
    if ctx.post:
        result.verdicts.check_many(rec.accepted[:total] == CHUNK, "chunk accepted whole")
    return truths


def run_bulk_durable(ctx: Context) -> Result:
    result = Result()
    pump_every = 4
    traffic, gen_s = _bulk_traffic(ctx, "bulk", 2_000_000)
    warm, total = _bulk_sizes(ctx, BULK_DURABLE_CHUNKS_PER_S, pump_every)

    def build(i: int):
        config = DurabilityConfig(
            directory=ctx.fresh_dir(f"wal{i}"), fsync="batch",
            checkpoint_every_claims=500_000 if ctx.quick else 5_000_000,
        )
        return _build_bulk(traffic, Topology.in_process(durability=config), obs=ctx.obs)

    service, setup = _in_process_setups(ctx, build)
    try:
        rec = BulkRecord(total)
        # A read every 16 pumps: enough samples for a median without
        # turning the workload's one fsync per pump into two.
        drive = dict(pump_every=pump_every, read_every=16, campaign_ids=traffic.campaign_ids, rec=rec)
        _drive_bulk(service, traffic.pool, 0, warm, **drive)
        warm_reads = len(rec.read_s)
        with Window(ctx) as window:
            _drive_bulk(service, traffic.pool, warm, total, after_group=window.tick, **drive)
            service.flush()
            service.sync_workers()
        live = _finish_bulk(result, ctx, window, service, traffic, rec, warm, total, setup, gen_s)
        _latency_metrics(result, window.gauge.factor, ack_s=(rec.t_ack - rec.t_submit)[warm:total],
                         read_s=rec.read_s[warm_reads:])
        wal_dir = Path(service.durability.directory)
        result.ungated["wal_bytes_per_claim"] = _directory_bytes(wal_dir) / (total * CHUNK)
        if ctx.post:
            # The crash image: the directory as it is at the durable
            # watermark, taken while the log is still open.
            image = ctx.fresh_dir("crash-image")
            shutil.copytree(wal_dir, image)
            recover_s = []
            for _ in range(ctx.repeats(5)):
                with ctx.phase("bench.recover"):
                    start = clock()
                    recovered = RecoveryManager(image).recover()
                    recover_s.append(clock() - start)
                try:
                    reference.check_bitwise(
                        result.verdicts,
                        [recovered.service.snapshot(cid).truths for cid in traffic.campaign_ids],
                        [live[cid] for cid in traffic.campaign_ids],
                        "recovered truths == live truths",
                    )
                finally:
                    recovered.service.close()
                result.counts["durable.recovery.claims_replayed"] = recovered.report.claims_replayed
            result.ungated["recover_s"] = statistics.median(recover_s)
            result.info["recoveries"] = len(recover_s)
    finally:
        service.close()
    return result


def run_fabric_rpc(ctx: Context) -> Result:
    result = Result()
    pump_every = 4
    traffic, gen_s = _bulk_traffic(ctx, "fab", 1_000_000)
    warm, total = _bulk_sizes(ctx, FABRIC_CHUNKS_PER_S, pump_every)
    cids = traffic.campaign_ids
    # One fresh chunk per kill: it makes the read that follows dirty, so
    # that read must cross the wire (a clean one is served from the
    # proxy's cache without noticing the dead host).
    kill_chunks = [
        traffic.pool[(total + k) % len(traffic.pool)]
        for k in range(ctx.repeats(5) if ctx.post else 0)
    ]

    service, setup = _spawning_setups(
        ctx, lambda i: _build_bulk(traffic, Topology.fabric(1, supervise=True), obs=ctx.obs)
    )
    try:
        rec = BulkRecord(total)
        drive = dict(pump_every=pump_every, read_every=1, campaign_ids=cids)
        _drive_bulk(service, traffic.pool, 0, warm, rec=rec, **drive)
        warm_reads = len(rec.read_s)
        with Window(ctx, _child_pids(service)) as window:
            _drive_bulk(service, traffic.pool, warm, total, rec=rec, after_group=window.tick,
                        **drive)
            service.flush()
            service.sync_workers()
        final = _finish_bulk(result, ctx, window, service, traffic, rec, warm, total, setup, gen_s)
        _latency_metrics(result, window.gauge.factor, ack_s=(rec.t_ack - rec.t_submit)[warm:total],
                         read_s=rec.read_s[warm_reads:])

        failover_s, after_kill = [], []
        for chunk in kill_chunks:
            host = service.worker_pool.handles[0].process
            host.kill()
            host.join(10.0)
            with ctx.phase("bench.failover"):
                start = clock()
                service.submit_columns(
                    chunk.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
                )
                after_kill.append(service.snapshot(chunk.campaign_id).truths)
                failover_s.append(clock() - start)
        if kill_chunks:
            result.ungated["failover_s"] = statistics.median(failover_s)
            result.info["failovers"] = len(kill_chunks)
            result.counts.update(_service_counts(service, cids, CHUNK))
        end_state = _final_truths(service, cids)
    finally:
        service.close()

    if ctx.post:
        verdicts = result.verdicts
        verdicts.check(
            result.counts["net.supervisor.restarts"] == len(kill_chunks), "one restart per kill"
        )
        # The same call sequence against an in-process, volatile service.
        with ctx.untraced():
            twin = _build_bulk(traffic, Topology.in_process())
            try:
                twin_rec = BulkRecord(total)
                _drive_bulk(twin, traffic.pool, 0, total, rec=twin_rec, **drive)
                twin.flush()
                twin_final = _final_truths(twin, cids)
                twin_after_kill = []
                for chunk in kill_chunks:
                    twin.submit_columns(
                        chunk.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
                    )
                    twin_after_kill.append(twin.snapshot(chunk.campaign_id).truths)
                twin_end = _final_truths(twin, cids)
            finally:
                twin.close()
        reference.check_bitwise(verdicts, rec.read_truths, twin_rec.read_truths,
                                "RPC read == in-process read")
        reference.check_bitwise(verdicts, [final[c] for c in cids], [twin_final[c] for c in cids],
                                "final truths == in-process run")
        reference.check_bitwise(verdicts, after_kill, twin_after_kill,
                                "read after failover == in-process read")
        reference.check_bitwise(verdicts, [end_state[c] for c in cids], [twin_end[c] for c in cids],
                                "truths after failovers == in-process run")
    return result


def run_replicated_bulk(ctx: Context) -> Result:
    result = Result()
    pump_every = 4
    traffic, gen_s = _bulk_traffic(ctx, "repl", 1_000_000)
    warm, total = _bulk_sizes(ctx, REPLICATED_CHUNKS_PER_S, pump_every)

    def build(i: int):
        config = DurabilityConfig(directory=ctx.fresh_dir(f"wal{i}"), fsync="batch")
        # The standby replicates into "<directory>.standby0" beside it.
        ctx.fresh_dir(f"wal{i}.standby0")
        return _build_bulk(
            traffic, Topology.replicated(standbys=1, sync="async", durability=config), obs=ctx.obs
        )

    service, setup = _spawning_setups(ctx, build)
    try:
        rec = BulkRecord(total)
        sender = service.replication
        lag = [0]

        drive = dict(pump_every=pump_every, read_every=0, campaign_ids=traffic.campaign_ids, rec=rec)
        _drive_bulk(service, traffic.pool, 0, warm, **drive)
        with Window(ctx, _child_pids(service)) as window:

            def after_group() -> None:
                lag[0] = max(lag[0], sender.lag_lsn(sender.links[0]))
                window.tick()

            _drive_bulk(service, traffic.pool, warm, total, after_group=after_group, **drive)
            service.flush()
            service.sync_workers()
            replicated = sender.wait_replicated(service.durability.durable_lsn, timeout=120.0)
        primary = _finish_bulk(result, ctx, window, service, traffic, rec, warm, total, setup, gen_s)
        result.counts["replication.lag_lsn_max"] = lag[0]
        result.ungated["wal_bytes_per_claim"] = (
            _directory_bytes(Path(service.durability.directory)) / (total * CHUNK)
        )
        with service.standbys.handles[0].client() as client:
            read_s, replica_truths, read_cids, read_factor = _reads_after_window(
                ctx, "bench.replica_reads", client.snapshot, traffic.campaign_ids
            )
        _latency_metrics(result, read_factor, read_s=read_s,
                         ack_s=(rec.t_ack - rec.t_submit)[warm:total],
                         ack_factor=window.gauge.factor)
        if ctx.post:
            result.verdicts.check(replicated, "wait_replicated(durable_lsn)")
            reference.check_bitwise(
                result.verdicts, replica_truths, [primary[cid] for cid in read_cids],
                "replica read == primary truths",
            )
    finally:
        service.close()
    return result


# ======================================================================
# Reads beside writes
# ======================================================================
def run_read_mix(ctx: Context) -> Result:
    result = Result()
    methods = READ["methods"]
    start = clock()
    campaign_ids = [f"read-{m}" for m in methods]
    per_method_pool = (64 if ctx.quick else 256) * CHUNK
    traffic = traffic_mod.bulk_traffic(
        ctx.seed, campaign_ids=campaign_ids, users=READ["users"], objects=READ["objects"],
        pool_claims=per_method_pool * len(methods),
    )
    _time_perturb(ctx, traffic_mod.bulk_columns(traffic, campaign_ids[0]))
    gen_s = clock() - start
    method_of = dict(zip(campaign_ids, methods))
    n = len(methods)
    warm = 8
    rounds = warm + max(int(ctx.seconds * READ_MIX_ROUNDS_PER_S), 1)
    pool = traffic.pool  # interleaved: round r is pool[r*n : r*n + n], cycled

    service, setup = _in_process_setups(
        ctx, lambda i: _build_bulk(traffic, Topology.in_process(), methods=method_of, obs=ctx.obs)
    )
    try:
        t_submit = np.zeros(rounds * n)
        t_ack = np.zeros(rounds * n)
        dirty_s, clean_s, dirty_truths, clean_same = [], [], [], []

        def drive(lo: int, hi: int, after_group=None) -> None:
            for r in range(lo, hi):
                for j in range(n):
                    chunk = pool[(r * n + j) % len(pool)]
                    t_submit[r * n + j] = clock()
                    service.submit_columns(
                        chunk.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
                    )
                service.pump()
                t_ack[r * n:(r + 1) * n] = clock()
                fresh = []
                for cid in campaign_ids:
                    begin = clock()
                    snap = service.snapshot(cid)
                    dirty_s.append(clock() - begin)
                    fresh.append(snap.truths)
                dirty_truths.extend(fresh)
                # Nothing arrived since: the re-read is clean.
                for cid, seen in zip(campaign_ids, fresh):
                    begin = clock()
                    snap = service.snapshot(cid)
                    clean_s.append(clock() - begin)
                    clean_same.append(np.array_equal(snap.truths, seen))
                if after_group is not None:
                    after_group()

        drive(0, warm)
        with Window(ctx) as window:
            drive(warm, rounds, window.tick)
            service.flush()
            service.sync_workers()
        _finish(result, window, service, traffic, claims=(rounds - warm) * n * CHUNK,
                max_batch=CHUNK, setup=setup, gen_s=gen_s)
        _latency_metrics(
            result, window.gauge.factor, ack_s=(t_ack - t_submit)[warm * n:],
            read_s=dirty_s[warm * n:], clean_s=clean_s[warm * n:],
        )
        result.info.update(rounds=rounds, warm_up_rounds=warm)
        refine_sweeps = service.config.refine_sweeps
    finally:
        service.close()

    if ctx.post:
        verdicts = result.verdicts
        verdicts.check_many(clean_same, "clean re-read == dirty read")
        bare = reference.BareStreams(
            method_of, users=READ["users"], objects=READ["objects"], refine_sweeps=refine_sweeps
        )
        expected = []
        with ctx.untraced():
            for r in range(rounds):
                for j in range(n):
                    bare.ingest(pool[(r * n + j) % len(pool)])
                expected.extend(bare.truths(cid) for cid in campaign_ids)
        reference.check_bitwise(verdicts, dirty_truths, expected, "dirty read == bare estimator")
        for method in methods:
            with ctx.phase("bench.agreement"):
                rmse = reference.dense_agreement_rmse(method, ctx.seed)
            result.info[f"dense_agreement_rmse_{method}"] = rmse
            verdicts.check(rmse <= reference.AGREEMENT_RMSE, f"{method} within 1e-3 of full refit")
    return result


RUNNERS = {
    "device_submit": run_device_submit,
    "bulk_durable": run_bulk_durable,
    "read_mix": run_read_mix,
    "fabric_rpc": run_fabric_rpc,
    "replicated_bulk": run_replicated_bulk,
    "device_paced_durable": run_device_paced_durable,
}


def run(name: str, ctx: Context) -> Result:
    """One run of one workload, starting from a clean heap."""
    gc.collect()
    measure.reset_peak_rss()
    result = RUNNERS[name](ctx)
    result.ungated["error_share"] = result.verdicts.error_share
    return result
