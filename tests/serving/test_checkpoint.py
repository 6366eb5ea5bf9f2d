"""Checkpoint/restore: bit-identical round trips and hostile files.

Property acceptance: ``restore(snapshot(smbm))`` reproduces the stored
words, the FIFO enqueue order, *and* the version counter exactly — under
arbitrary write histories, under :class:`ReplicatedSMBM` (per-replica,
divergence preserved), and with an :class:`ECCStore` attached (check
words rebuild to the source's).  Corrupted, truncated, or alien files are
rejected with :class:`~repro.errors.CheckpointError`, never half-restored.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import RelOp
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    intersection,
    min_of,
    predicate,
    random_pick,
    round_robin,
)
from repro.core.smbm import SMBM
from repro.errors import CapacityError, CheckpointError, ConfigurationError
from repro.faults.scrub import ECCStore
from repro.serving.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_MAGIC,
    load_checkpoint,
    policy_from_dict,
    policy_to_dict,
    save_checkpoint,
)
from repro.switch.replication import ReplicatedSMBM

METRICS = ("cpu", "mem")


def _ops_strategy():
    """A write history: interleaved adds, updates and deletes."""
    return st.lists(
        st.tuples(
            st.sampled_from(("add", "update", "delete")),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=40,
    )


def _apply(smbm: SMBM, ops) -> None:
    for kind, rid, val in ops:
        metrics = {"cpu": val, "mem": val % 97}
        try:
            if kind == "add":
                smbm.add(rid, metrics)
            elif kind == "update":
                smbm.update(rid, metrics)
            else:
                smbm.delete(rid)
        except Exception:
            # Invalid transitions (add of a present id, update/delete of
            # an absent one) are part of a realistic history: skipped ops
            # still leave a valid table to checkpoint.
            pass


# -- SMBM state round trip -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=_ops_strategy())
def test_restore_of_snapshot_is_bit_identical(ops):
    source = SMBM(8, METRICS)
    _apply(source, ops)
    state = source.export_state()
    target = SMBM(8, METRICS)
    target.restore_state(state)
    assert target.export_state() == state
    assert target.version == source.version
    assert list(target.snapshot()) == list(source.snapshot())


@settings(max_examples=40, deadline=None)
@given(ops=_ops_strategy(), pre=_ops_strategy())
def test_restore_overwrites_any_prior_contents(ops, pre):
    source = SMBM(8, METRICS)
    _apply(source, ops)
    target = SMBM(8, METRICS)
    _apply(target, pre)  # dirty the target first
    target.restore_state(source.export_state())
    assert target.export_state() == source.export_state()


@settings(max_examples=40, deadline=None)
@given(ops=_ops_strategy())
def test_ecc_state_rebuilds_across_restore(ops):
    source = SMBM(8, METRICS)
    source_ecc = ECCStore(source)
    _apply(source, ops)
    target = SMBM(8, METRICS)
    target_ecc = ECCStore(target)
    target.restore_state(source.export_state())
    assert target_ecc.snapshot() == source_ecc.snapshot()


def test_restore_preserves_fifo_tie_order():
    # Two rows with equal metric values: rank order is decided by the
    # FIFO enqueue sequence, which must survive the round trip.
    source = SMBM(4, METRICS)
    source.add(2, {"cpu": 5, "mem": 5})
    source.add(0, {"cpu": 5, "mem": 5})
    source.add(1, {"cpu": 5, "mem": 5})
    target = SMBM(4, METRICS)
    target.restore_state(source.export_state())
    assert (target.rank_of(2, "cpu"), target.rank_of(0, "cpu"),
            target.rank_of(1, "cpu")) == (
        source.rank_of(2, "cpu"), source.rank_of(0, "cpu"),
        source.rank_of(1, "cpu"))


def test_restore_rejects_schema_and_capacity_mismatch():
    source = SMBM(4, METRICS)
    source.add(1, {"cpu": 1, "mem": 2})
    state = source.export_state()
    with pytest.raises(ConfigurationError):
        SMBM(4, ("cpu",)).restore_state(state)
    with pytest.raises((ConfigurationError, CapacityError)):
        SMBM(2, METRICS).restore_state(
            {**state, "capacity": 2, "rows": {i: {"cpu": 1, "mem": 2}
                                              for i in range(3)},
             "seq": {i: i for i in range(3)}}
        )


# -- ReplicatedSMBM --------------------------------------------------------------------


def test_replicated_roundtrip_preserves_every_replica():
    rep = ReplicatedSMBM(3, 4, METRICS)
    rep.issue_update(0, 1, {"cpu": 10, "mem": 1})
    rep.commit_cycle()
    rep.issue_update(1, 2, {"cpu": 20, "mem": 2})
    rep.commit_cycle()
    # Manufacture divergence directly on one replica: the checkpoint must
    # reproduce the replicas as they are, not as they should be.
    rep.replica(2).update(1, {"cpu": 99, "mem": 1})
    state = rep.export_state()
    target = ReplicatedSMBM(3, 4, METRICS)
    target.restore_state(state)
    assert target.export_state() == state
    for i in range(3):
        assert (target.replica(i).export_state()
                == rep.replica(i).export_state())


def test_replicated_restore_rejects_wrong_replica_count():
    rep = ReplicatedSMBM(2, 4, METRICS)
    with pytest.raises(ConfigurationError):
        ReplicatedSMBM(3, 4, METRICS).restore_state(rep.export_state())


# -- policy document round trip --------------------------------------------------------


def _policies():
    table = TableRef()
    shared = predicate(table, "cpu", RelOp.LT, 70)
    return [
        Policy(table, name="pass-through"),
        Policy(min_of(shared, "mem", k=2), name="k-min"),
        Policy(intersection(shared, min_of(shared, "mem")), name="fanout"),
        Policy(Conditional(random_pick(shared), random_pick(table)),
               name="conditional"),
        Policy(round_robin(table, "cpu"), name="stateful"),
        Policy(predicate(TableRef(input_index=1), "cpu", RelOp.GE, 3),
               name="extra-input"),
    ]


@pytest.mark.parametrize("policy", _policies(), ids=lambda p: p.name)
def test_policy_document_roundtrip(policy):
    doc = policy_to_dict(policy)
    rebuilt = policy_from_dict(doc)
    assert policy_to_dict(rebuilt) == doc
    assert rebuilt.name == policy.name


def test_policy_roundtrip_preserves_shared_fanout():
    table = TableRef()
    shared = predicate(table, "cpu", RelOp.LT, 70)
    policy = Policy(intersection(shared, min_of(shared, "mem")))
    rebuilt = policy_from_dict(policy_to_dict(policy))
    root = rebuilt.root
    assert root.left is root.right.child  # one node object, not a clone


def test_policy_document_rejects_garbage():
    with pytest.raises(CheckpointError):
        policy_from_dict({"name": "x"})
    with pytest.raises(CheckpointError):
        policy_from_dict({"name": "x", "root": 0,
                          "nodes": [{"type": "alien"}]})
    with pytest.raises(CheckpointError):
        # Forward reference: node 0 referring to node 1.
        policy_from_dict({"name": "x", "root": 0, "nodes": [
            {"type": "binary", "op": "union", "left": 1, "right": 1,
             "choice": None},
            {"type": "table", "input": None},
        ]})


# -- on-disk format --------------------------------------------------------------------


def _switch_checkpoint():
    from repro.serving.backend import SwitchBackend, TableWrite
    from repro.tenancy.manager import TenantManager, TenantSpec

    manager = TenantManager(METRICS, smbm_capacity=16)
    backend = SwitchBackend(manager)
    backend.program_tenant(TenantSpec(
        name="t", policy=Policy(min_of(TableRef(), "cpu"), name="ll"),
        smbm_quota=8,
    ))
    backend.write_batch([
        TableWrite("t", i, {"cpu": i * 3, "mem": i}) for i in range(5)
    ])
    return backend, backend.snapshot()


def test_file_roundtrip_is_bit_identical(tmp_path):
    backend, checkpoint = _switch_checkpoint()
    path = save_checkpoint(tmp_path / "c.json", checkpoint)
    loaded = load_checkpoint(path)
    assert loaded == checkpoint
    assert (loaded.tenants[0].smbm_state
            == backend.manager.get("t").module.smbm.export_state())


def test_file_roundtrip_survives_two_digit_row_ids(tmp_path):
    """Regression: int row ids sort numerically at save time but their
    JSON string forms sort lexicographically ("10" < "2"), so the
    checksum canonicalization must hash what a reader of the file sees
    — any table with a row id >= 10 used to fail verification."""
    from repro.serving.backend import SwitchBackend, TableWrite
    from repro.tenancy.manager import TenantManager, TenantSpec

    backend = SwitchBackend(TenantManager(METRICS, smbm_capacity=16))
    backend.program_tenant(TenantSpec(
        name="t", policy=Policy(min_of(TableRef(), "cpu"), name="ll"),
        smbm_quota=16,
    ))
    backend.write_batch([
        TableWrite("t", rid, {"cpu": rid, "mem": 1})
        for rid in (12, 10, 2, 1, 15)
    ])
    path = save_checkpoint(tmp_path / "c.json", backend.snapshot())
    loaded = load_checkpoint(path)
    assert (loaded.tenants[0].smbm_state
            == backend.manager.get("t").module.smbm.export_state())


def test_truncated_file_rejected(tmp_path):
    _, checkpoint = _switch_checkpoint()
    path = save_checkpoint(tmp_path / "c.json", checkpoint)
    text = path.read_text()
    for cut in (0, 10, len(text) // 2, len(text) - 2):
        path.write_text(text[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_corrupted_payload_rejected(tmp_path):
    _, checkpoint = _switch_checkpoint()
    path = save_checkpoint(tmp_path / "c.json", checkpoint)
    body = json.loads(path.read_text())
    body["payload"]["tenants"][0]["smbm_state"]["version"] += 1
    path.write_text(json.dumps(body))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_alien_magic_and_format_rejected(tmp_path):
    _, checkpoint = _switch_checkpoint()
    path = save_checkpoint(tmp_path / "c.json", checkpoint)
    body = json.loads(path.read_text())
    path.write_text(json.dumps({**body, "magic": "not-a-checkpoint"}))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    path.write_text(json.dumps({**body, "format": CHECKPOINT_FORMAT + 1}))
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(path)
    assert body["magic"] == CHECKPOINT_MAGIC  # the writer stamped it


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.json")
