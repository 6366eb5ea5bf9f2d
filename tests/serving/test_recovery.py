"""Crash recovery: exactly-once replay, checkpoint suffixes, migrations.

Every scenario compares the recovered backend against a *golden twin* —
the same op schedule applied to a controller that never crashed — using
the canonical checkpoint encoding, so "recovered" means bit-identical,
not merely plausible.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil

import pytest

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.faults import FaultInjector, SimulatedCrash
from repro.serving._atomic import canonical_bytes
from repro.serving.backend import SwitchBackend
from repro.serving.checkpoint import load_checkpoint
from repro.serving.controller import Controller
from repro.serving.recovery import recover
from repro.serving.wal import WriteAheadLog, read_wal, spec_from_dict
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")


def _policy(kind: str = "min") -> Policy:
    table = TableRef()
    if kind == "min":
        return Policy(min_of(table, "cpu"), name="least-loaded")
    return Policy(predicate(table, "cpu", RelOp.LT, 50), name="under")


def _spec(name: str, kind: str = "min") -> TenantSpec:
    return TenantSpec(name=name, policy=_policy(kind), smbm_quota=8)


def _backend() -> SwitchBackend:
    return SwitchBackend(TenantManager(METRICS, smbm_capacity=16))


def _factory(_ckpt) -> SwitchBackend:
    return _backend()


def _state(backend) -> bytes:
    return canonical_bytes(backend.snapshot().payload())


async def _schedule(ctl: Controller) -> None:
    """The shared op schedule golden twins and victims both run."""
    await ctl.add_tenant(_spec("a"))
    for i in range(4):
        await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})
    await ctl.hot_swap("a", _policy("pred"))
    await ctl.add_tenant(_spec("b", "pred"))
    await ctl.update_resource("b", 1, {"cpu": 9, "mem": 2})
    await ctl.remove_resource("a", 2)
    await ctl.remove_tenant("b")


def _run_golden() -> SwitchBackend:
    backend = _backend()

    async def run() -> None:
        async with Controller(backend) as ctl:
            await _schedule(ctl)

    asyncio.run(run())
    return backend


def test_clean_shutdown_replays_bit_identically(tmp_path):
    golden = _run_golden()
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await _schedule(ctl)

    asyncio.run(run())
    wal.close()
    assert read_wal(tmp_path / "ops.wal").records[-1].kind == "shutdown"

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        # Clean shutdown: no crash detected.
        assert registry.value_of(
            "faults_detected_total", {"kind": "controller_crash"}
        ) == 0
        assert registry.value_of("wal_records_replayed_total") == 10
    assert not report.unclean and report.torn == 0 and not report.errors
    assert report.replayed == 10 and report.skipped == 0
    assert _state(report.backend) == _state(golden) == _state(backend)


def test_crash_recovers_to_golden_twin_and_is_detected(tmp_path):
    # Golden twin for a crash after the 4th applied op: admit + 3 writes.
    golden = _backend()

    async def run_golden() -> None:
        async with Controller(golden) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(3):
                await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})

    asyncio.run(run_golden())

    injector = FaultInjector(3)
    hook = injector.arm_crash("ctl.after_apply", at_op=3)
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal", crash_hook=hook)

    async def run_victim() -> str:
        ctl = Controller(backend, wal=wal, crash_hook=hook)
        try:
            await _schedule(ctl)
        except SimulatedCrash:
            return "crashed"
        return "survived"

    assert asyncio.run(run_victim()) == "crashed"
    assert injector.injected("controller_crash") == 1

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        detected = registry.value_of(
            "faults_detected_total", {"kind": "controller_crash"}
        )
    assert detected == 1  # injected == detected parity
    assert report.unclean and not report.errors
    assert report.replayed == 4  # admit + 3 writes, the acked prefix
    assert _state(report.backend) == _state(golden)


def test_checkpoint_bounds_replay_to_the_suffix(tmp_path):
    golden = _run_golden()
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(4):
                await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})
            await ctl.checkpoint(tmp_path / "mid.ckpt")
            await ctl.hot_swap("a", _policy("pred"))
            await ctl.add_tenant(_spec("b", "pred"))
            await ctl.update_resource("b", 1, {"cpu": 9, "mem": 2})
            await ctl.remove_resource("a", 2)
            await ctl.remove_tenant("b")

    asyncio.run(run())
    wal.close()

    report = recover(tmp_path / "ops.wal", _factory)
    assert report.checkpoint_path == str(tmp_path / "mid.ckpt")
    assert report.restored_tenants == 1
    # The 5 pre-checkpoint ops are inside the restored checkpoint.
    assert report.skipped == 5 and report.replayed == 5
    assert _state(report.backend) == _state(golden)


def test_corrupt_checkpoint_falls_back_to_full_replay(tmp_path):
    golden = _run_golden()
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(4):
                await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})
            await ctl.checkpoint(tmp_path / "mid.ckpt")
            await ctl.hot_swap("a", _policy("pred"))
            await ctl.add_tenant(_spec("b", "pred"))
            await ctl.update_resource("b", 1, {"cpu": 9, "mem": 2})
            await ctl.remove_resource("a", 2)
            await ctl.remove_tenant("b")

    asyncio.run(run())
    wal.close()
    # Rot the checkpoint file: the marker must not be trusted blindly.
    (tmp_path / "mid.ckpt").write_text("garbage, not a checkpoint")

    report = recover(tmp_path / "ops.wal", _factory)
    assert report.checkpoint_path is None and report.restored_tenants == 0
    assert report.skipped == 0 and report.replayed == 10
    assert _state(report.backend) == _state(golden)


def test_recovery_is_idempotent(tmp_path):
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await _schedule(ctl)

    asyncio.run(run())
    wal.close()
    first = recover(tmp_path / "ops.wal", _factory)
    second = recover(tmp_path / "ops.wal", _factory)
    assert _state(first.backend) == _state(second.backend)
    assert (first.replayed, first.skipped) == (second.replayed,
                                               second.skipped)


def test_torn_tail_is_truncated_and_counted(tmp_path):
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            await ctl.update_resource("a", 1, {"cpu": 5, "mem": 6})

    asyncio.run(run())
    wal.close()
    with open(tmp_path / "ops.wal", "ab") as fh:
        fh.write(b"\x00\x00\x01\x00torn-half-frame")

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        assert registry.value_of("wal_torn_records_total") == 1
    assert report.torn == 1
    # The shutdown marker is still the last *trusted* record, so the
    # torn garbage does not masquerade as a crash.
    assert not report.unclean
    assert report.replayed == 2
    assert sorted(t.name for t in report.backend.manager) == ["a"]


def test_migration_cutover_rolls_forward_on_the_source(tmp_path):
    """A logged cutover is the commit point: recovery evicts the tenant
    from the source and skips later writes addressed to it."""
    source = _backend()
    dest = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(source, wal=wal) as ctl:
            await ctl.add_tenant(_spec("m"))
            await ctl.update_resource("m", 1, {"cpu": 1, "mem": 1})
            await ctl.add_tenant(_spec("keep", "pred"))
            await ctl.begin_migration("m", dest)
            await ctl.update_resource("m", 2, {"cpu": 2, "mem": 2})
            await ctl.cutover("m")
            # Post-cutover writes land on the destination; replay on the
            # source must skip them.
            await ctl.update_resource("m", 3, {"cpu": 3, "mem": 3})
            await ctl.update_resource("keep", 1, {"cpu": 7, "mem": 7})

    asyncio.run(run())
    wal.close()

    report = recover(tmp_path / "ops.wal", _factory)
    assert not report.errors
    assert sorted(t.name for t in report.backend.manager) == ["keep"]
    assert _state(report.backend) == _state(source)
    # And the destination really does hold the moved tenant's writes.
    assert sorted(dest.manager.get("m").module.smbm.snapshot()) == [1, 2, 3]


def test_migration_without_cutover_rolls_back_on_the_source(tmp_path):
    """No cutover record means the move never committed: the tenant
    keeps serving on the recovered source with every write intact."""
    source = _backend()
    dest = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(source, wal=wal) as ctl:
            await ctl.add_tenant(_spec("m"))
            await ctl.update_resource("m", 1, {"cpu": 1, "mem": 1})
            await ctl.begin_migration("m", dest)
            await ctl.update_resource("m", 2, {"cpu": 2, "mem": 2})
            await ctl.abort_migration("m")
            await ctl.update_resource("m", 3, {"cpu": 3, "mem": 3})

    asyncio.run(run())
    wal.close()

    report = recover(tmp_path / "ops.wal", _factory)
    assert not report.errors
    assert sorted(t.name for t in report.backend.manager) == ["m"]
    assert sorted(
        report.backend.manager.get("m").module.smbm.snapshot()
    ) == [1, 2, 3]
    assert _state(report.backend) == _state(source)


def test_replay_errors_are_counted_not_fatal(tmp_path):
    """A deterministic apply failure (op that failed pre-crash too) is
    recorded and skipped; everything after it still recovers."""
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            with pytest.raises(Exception):
                # Write to a tenant that was never admitted: logged,
                # then fails apply — deterministically, both times.
                await ctl.update_resource("ghost", 0, {"cpu": 0, "mem": 0})
            await ctl.update_resource("a", 1, {"cpu": 5, "mem": 6})

    asyncio.run(run())
    wal.close()

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        assert registry.value_of("wal_replay_errors_total") == 1
    assert len(report.errors) == 1
    assert report.errors[0][1] == "update_resource"
    assert report.replayed == 2
    assert _state(report.backend) == _state(backend)


def test_th016_replay_coverage_is_clean():
    from repro.analysis.replay import (
        audit_replay_registry,
        verify_replay_coverage,
    )

    assert verify_replay_coverage().clean

    # The audit actually bites in both directions.
    gap = audit_replay_registry(("add_tenant", "new_op"),
                                {"add_tenant": object()})
    assert [f.rule for f in gap.errors] == ["TH016"]
    assert "new_op" in gap.errors[0].message
    dead = audit_replay_registry(("add_tenant",),
                                 {"add_tenant": object(),
                                  "renamed_op": object()})
    assert [f.rule for f in dead.errors] == ["TH016"]
    assert "renamed_op" in dead.errors[0].message


#: A WAL and its mid-log checkpoint written by an earlier release whose
#: admission specs still carried a ``codegen`` flag (tenant "a" admitted
#: with ``codegen=True``, tenant "b" with ``codegen=False``).
LEGACY_DIR = pathlib.Path(__file__).parent / "data" / "legacy_codegen"


def test_legacy_codegen_flag_records_still_decode_and_replay(tmp_path):
    for name in ("ops.wal", "legacy.ckpt"):
        shutil.copy(LEGACY_DIR / name, tmp_path / name)
    scan = read_wal(tmp_path / "ops.wal")
    admits = [r for r in scan.records if r.kind == "add_tenant"]
    assert [r.args["spec"]["codegen"] for r in admits] == [True, False]
    assert [spec_from_dict(r.args["spec"]).name for r in admits] == ["a", "b"]
    raw = json.loads((tmp_path / "legacy.ckpt").read_text())
    assert raw["payload"]["tenants"][0]["codegen"] is True
    assert [t.name for t in load_checkpoint(tmp_path / "legacy.ckpt").tenants
            ] == ["a"]

    report = recover(tmp_path / "ops.wal", _factory)
    assert report.restored_tenants == 1 and not report.errors
    assert report.skipped == 5 and report.replayed == 3

    # Golden twin: the same schedule admitted by today's specs.
    golden = _backend()

    async def run() -> None:
        async with Controller(golden) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(4):
                await ctl.update_resource("a", i, {"cpu": 10 - i, "mem": i})
            await ctl.add_tenant(_spec("b", "pred"))
            await ctl.update_resource("b", 1, {"cpu": 9, "mem": 2})
            await ctl.update_resource("a", 5, {"cpu": 1, "mem": 7})

    asyncio.run(run())
    assert _state(report.backend) == _state(golden)
    for name in ("a", "b"):
        assert report.backend.manager.get(name).module.codegen is not None
