"""The control path: ``Controller`` ops with a write-ahead log, and recovery.

``control`` runs back-to-back *sessions*, each from the same state: a
fresh batched backend behind a ``Controller`` with
``WriteAheadLog(sync="flush")``; both tenants admitted and their tables
seeded through the controller (the timed set-up), then one closed-loop
client per tenant keeping :data:`IN_FLIGHT` ``update_resource`` ops in
flight until it has had :data:`SESSION_OPS` acked.  Every
:data:`CHECKPOINT_EVERY` acked ops a ``Controller.checkpoint`` is
submitted.  After the session ``recover()`` rebuilds the switch from the
log into a fresh backend.  The session length fixes the history that
recovery reads, so ``recovery_s`` and ``disk_bytes`` do not grow with
throughput.  The host-speed probe (:mod:`pace`) runs between sessions
and, every :data:`~pace.PERIOD_NS`, on the controller's event loop: ops
in flight wait for it, alike on every commit.

:func:`checkpoint_live` and :func:`recover_once` are the restart the
data-path workloads measure: a checkpoint of the serving switch through
a controller, then ``recover()`` of that log.
"""

from __future__ import annotations

import asyncio
import contextlib
import pathlib
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.serving import (
    Controller,
    WriteAheadLog,
    build_backend,
    canonical_bytes,
    recover,
)
from repro.tenancy.manager import TenantManager

from pace import PERIOD_NS, Pace
from scenario import (
    PLAN_LEN,
    TENANTS,
    ControlInputs,
    new_manager,
    seed_writes,
    settle,
    tenant_specs,
)

#: Ops each tenant's client has in flight.
IN_FLIGHT = 16
#: Acked ops per tenant in one session (8.5 checkpoint intervals in all).
SESSION_OPS = 8704
#: A checkpoint is submitted every this many acked ops.
CHECKPOINT_EVERY = 2048
_clock = time.perf_counter_ns


def fresh_backend(ckpt):
    """The empty backend ``recover()`` restores into."""
    if ckpt is None:
        return build_backend("batched", new_manager())
    return build_backend("batched", TenantManager(
        ckpt.metric_names, ckpt.pipeline_params(),
        smbm_capacity=ckpt.smbm_capacity))


def _snapshot_bytes(backend) -> bytes:
    return canonical_bytes(backend.snapshot().payload())


@dataclass
class Restarts:
    """What recovery measured over a run; times as ``(at_ns, value)``."""

    seconds: list[tuple[int, float]] = field(default_factory=list)
    read_ns: list[int] = field(default_factory=list)
    replayed: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    disk_bytes: list[int] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    def record_disk(self, wal_path: pathlib.Path, ckpt_path: pathlib.Path):
        size = ckpt_path.stat().st_size if ckpt_path.exists() else 0
        self.checkpoint_bytes.append(size)
        self.disk_bytes.append(wal_path.stat().st_size + size)


def recover_once(wal_path: pathlib.Path, pace: Pace, restarts: Restarts,
                 live: bytes, what: str, rec) -> None:
    """One timed ``recover()`` of ``wal_path``, checked against ``live``."""
    settle()
    pace.tick(force=True)
    if rec is not None:
        rec.phase = "recover"
        first = len(rec.spans)
    t0 = _clock()
    report = recover(wal_path, fresh_backend)
    restarts.seconds.append((t0, (_clock() - t0) / 1e9))
    if rec is not None:
        rec.phase = "check"
        restarts.read_ns.append(sum(s[2] - s[1] for s in rec.spans[first:]
                                    if s[0] == "recovery.read_wal"))
    restarts.replayed.append(report.replayed)
    restarts.skipped.append(report.skipped)
    if report.errors or report.unclean:
        restarts.mismatches.append(
            f"{what}: recovery errors={report.errors} "
            f"unclean={report.unclean}")
    elif _snapshot_bytes(report.backend) != live:
        restarts.mismatches.append(f"{what}: recovered switch diverged")


def checkpoint_live(backend, workdir: pathlib.Path, restarts: Restarts,
                    rec=None) -> tuple[pathlib.Path, bytes]:
    """Checkpoint the live switch through a controller with a log; returns
    the log, which :func:`recover_once` restores, and the switch's
    canonical snapshot at that moment, which the recovered one must
    equal."""
    wal_path, ckpt_path = workdir / "restart.wal", workdir / "restart.ckpt"

    async def checkpoint() -> None:
        wal = WriteAheadLog(wal_path, sync="flush")
        try:
            async with Controller(backend, wal=wal) as ctl:
                await ctl.checkpoint(ckpt_path)
        finally:
            wal.close()

    if rec is not None:
        rec.phase = "checkpoint"
    asyncio.run(checkpoint())
    if rec is not None:
        rec.phase = "check"
    restarts.record_disk(wal_path, ckpt_path)
    return wal_path, _snapshot_bytes(backend)


@dataclass
class ControlStats:
    """Accumulated over a run's sessions; times as ``(at_ns, value)``."""

    setup_s: list[tuple[int, float]] = field(default_factory=list)
    #: Client time of each session, stamped at its midpoint.
    run_s: list[tuple[int, float]] = field(default_factory=list)
    acked: int = 0
    attempted: int = 0
    failed: int = 0
    #: Submit-to-ack time of each acked op, stamped at submit.
    latencies_ns: list[tuple[int, int]] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)


def _expected_tables(inputs: ControlInputs, ops: int):
    """Each tenant's table after its seed and its first ``ops`` updates."""
    expected = {}
    for name in TENANTS:
        table = {rid: dict(row) for rid, row in enumerate(inputs.tables[name])}
        plan = inputs.plans[name]
        for i in range(ops):
            rid, row = plan[i % PLAN_LEN]
            table[rid] = dict(row)
        expected[name] = table
    return expected


async def _pacer(pace: Pace) -> None:
    while True:
        await asyncio.sleep(PERIOD_NS / 1e9)
        pace.tick()


async def _session(inputs: ControlInputs, workdir: pathlib.Path,
                   ops_per_tenant: int, pace: Pace, stats: ControlStats,
                   rec):
    """One session; returns the live switch's canonical snapshot and the
    paths of its log and checkpoint."""
    wal_path, ckpt_path = workdir / "ops.wal", workdir / "switch.ckpt"
    for path in (wal_path, ckpt_path):
        path.unlink(missing_ok=True)
    settle()
    pace.tick(force=True)
    if rec is not None:
        rec.phase = "setup"
    t0 = _clock()
    backend = build_backend("batched", new_manager())
    wal = WriteAheadLog(wal_path, sync="flush")
    try:
        async with Controller(backend, wal=wal) as ctl:
            for spec in tenant_specs(inputs.pols):
                await ctl.add_tenant(spec)
            for name in TENANTS:
                await ctl.write_batch(name, seed_writes(inputs.tables, name))
            stats.setup_s.append((t0, (_clock() - t0) / 1e9))
            settle()
            pace.tick(force=True)
            if rec is not None:
                rec.begin_run()
            checkpoints: list[asyncio.Future] = []
            acked = 0
            latencies = stats.latencies_ns

            async def client(name: str) -> None:
                plan = inputs.plans[name]
                indices = iter(range(ops_per_tenant))

                async def worker() -> None:
                    nonlocal acked
                    for i in indices:
                        rid, row = plan[i % PLAN_LEN]
                        root = rec.op(name) if rec is not None else None
                        submit = _clock()
                        try:
                            await ctl.update_resource(name, rid, row)
                        except ReproError:
                            stats.failed += 1
                            continue
                        ack = _clock()
                        if root is not None:
                            root[2] = ack
                        latencies.append((submit, ack - submit))
                        acked += 1
                        if acked % CHECKPOINT_EVERY == 0:
                            checkpoints.append(asyncio.ensure_future(
                                ctl.checkpoint(ckpt_path)))

                await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))

            pacer = asyncio.ensure_future(_pacer(pace))
            t_run = _clock()
            try:
                await asyncio.gather(*(client(name) for name in TENANTS))
                await asyncio.gather(*checkpoints)
            finally:
                t_end = _clock()
                pacer.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await pacer
            stats.run_s.append(((t_run + t_end) // 2, (t_end - t_run) / 1e9))
            stats.acked += acked
            stats.attempted += ops_per_tenant * len(TENANTS)
            if rec is not None:
                rec.end_run()
    finally:
        wal.close()
    pace.tick(force=True)
    for name, table in _expected_tables(inputs, ops_per_tenant).items():
        if backend.manager.get(name).module.smbm.snapshot() != table:
            stats.mismatches.append(f"{name}: live table differs from the "
                                    "table its acked ops describe")
    return _snapshot_bytes(backend), wal_path, ckpt_path


def run_sessions(inputs: ControlInputs, workdir: pathlib.Path,
                 seconds: float, pace: Pace, stats: ControlStats,
                 restarts: Restarts, rec=None) -> None:
    """Back-to-back sessions until ``seconds`` of client time are spent."""
    spent = 0.0
    while spent < seconds:
        live, wal_path, ckpt_path = asyncio.run(_session(
            inputs, workdir, SESSION_OPS, pace, stats, rec))
        spent += stats.run_s[-1][1]
        restarts.record_disk(wal_path, ckpt_path)
        recover_once(wal_path, pace, restarts, live, "control", rec)


def one_pass(inputs: ControlInputs, workdir: pathlib.Path,
             pace: Pace) -> None:
    """Set-up plus one pass over the generated plans (the heap probe)."""
    asyncio.run(_session(inputs, workdir, PLAN_LEN, pace, ControlStats(),
                         None))
