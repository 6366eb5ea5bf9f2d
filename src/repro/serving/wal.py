"""The checksummed, length-prefixed write-ahead op log.

Every control operation the controller applies — admit, evict, hot-swap,
resource update, table-write batch, migration begin/cutover/abort — is
assigned a monotonic op-id and appended here *before* it touches the
backend.  A controller crash therefore loses at most the ops it had not
yet acknowledged; everything acknowledged is on disk and is replayed by
:mod:`repro.serving.recovery` on restart.

On-disk format (binary, append-only)::

    header:  b"thanos-wal\\x00v1\\n"                     (14 bytes)
    record:  u32 big-endian payload length
             payload (canonical JSON bytes, sorted keys)
             8-byte checksum (SHA-256 prefix of the payload)

A frame's payload is either one JSON object ``{"op": <id>, "kind":
..., "tenant": ..., "args": {...}}`` or a *group-commit frame* ``{"grp":
<first op id>, "tenant": ..., "kinds": [...], "args": [...]}`` — ops the
controller drained from one tenant's queue in one batch, made durable
with a single encode, write, and flush
(:meth:`WriteAheadLog.append_group`).  The group form exploits two
invariants of a queue drain — one tenant per group, consecutive op-ids —
so the burst shares one envelope instead of repeating it per record,
which is what keeps the encode (the dominant cost of an append) cheap
per op.  The payload is a sorted compact dump; unlike the checkpoint
checksum it needs no key normalization, because the frame checksum
covers the payload bytes exactly as written and the reader hashes what
it reads back, never a re-encode.  A frame is trusted only when its
length fits the file, its checksum matches, and every record in its
payload validates structurally; the *first* untrusted frame truncates
the log — everything after a torn write is discarded and the truncation
is counted exactly once as ``wal_torn_records_total``.  A torn group
frame drops the whole group: none of its ops were acknowledged (the
controller acks only after the frame is durable), so truncating all of
them loses nothing a client was promised.

Two marker kinds ride in the same log next to the control ops:

* ``checkpoint`` — a :class:`~repro.serving.checkpoint.SwitchCheckpoint`
  was written; ``args`` carries its path and the per-tenant op-id
  high-water mark, so recovery restores the checkpoint and replays only
  the suffix;
* ``shutdown`` — the controller closed cleanly; a log whose last record
  is anything else witnesses a crash (what recovery counts as
  ``faults_detected_total{kind="controller_crash"}``).

Durability model: ``sync="flush"`` (the default) flushes each record to
the OS before the append returns — durable across *process* crash, the
fault class the chaos harness injects.  ``sync="fsync"`` additionally
fsyncs for power-loss durability; ``sync="none"`` leaves buffering to
the file object (benchmarks only).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro import obs
from repro.errors import ConfigurationError, WalError
from repro.serving.checkpoint import policy_from_dict, policy_to_dict
from repro.tenancy.manager import TenantSpec

__all__ = [
    "WAL_MAGIC",
    "CONTROL_OP_KINDS",
    "MARKER_KINDS",
    "OP_KINDS",
    "WalRecord",
    "WalReadResult",
    "WriteAheadLog",
    "read_wal",
    "spec_to_dict",
    "spec_from_dict",
]

#: File header; the trailing ``v1`` is the format version — bump on any
#: incompatible frame or payload change.
WAL_MAGIC = b"thanos-wal\x00v1\n"

_LEN = struct.Struct(">I")
#: Bytes of the SHA-256 digest stored per record.
_CHECKSUM_BYTES = 8
#: Defensive bound: no single control-op payload is anywhere near this.
_MAX_RECORD_BYTES = 16 * 1024 * 1024

#: Every control-op kind the controller logs.  Recovery must hold a
#: replay handler for each — the TH016 lint audits exactly this tuple
#: against :data:`repro.serving.recovery.REPLAY_HANDLERS`.
CONTROL_OP_KINDS = (
    "add_tenant",
    "remove_tenant",
    "hot_swap",
    "update_resource",
    "remove_resource",
    "write_batch",
    "begin_migration",
    "cutover",
    "abort_migration",
)

#: Non-op records that structure the log rather than mutate the backend.
MARKER_KINDS = ("checkpoint", "shutdown")

OP_KINDS = CONTROL_OP_KINDS + MARKER_KINDS
#: O(1) membership for the append hot path.
_OP_KIND_SET = frozenset(OP_KINDS)


# -- spec (de)serialization ------------------------------------------------------------


def spec_to_dict(spec: TenantSpec) -> dict[str, Any]:
    """Serialize an admission spec (policy DAG included) for a WAL record."""
    return {
        "name": spec.name,
        "policy": policy_to_dict(spec.policy),
        "smbm_quota": spec.smbm_quota,
        "columns": spec.columns,
        "cell_quota": spec.cell_quota,
        "lfsr_seed": spec.lfsr_seed,
        "memoize": spec.memoize,
        "self_healing": spec.self_healing,
        "sanitize": spec.sanitize,
    }


def spec_from_dict(raw: Mapping[str, Any]) -> TenantSpec:
    """Rebuild an admission spec from :func:`spec_to_dict` output."""
    try:
        return TenantSpec(
            name=str(raw["name"]),
            policy=policy_from_dict(raw["policy"]),
            smbm_quota=int(raw["smbm_quota"]),
            columns=int(raw["columns"]),
            cell_quota=(None if raw["cell_quota"] is None
                        else int(raw["cell_quota"])),
            lfsr_seed=int(raw["lfsr_seed"]),
            memoize=bool(raw["memoize"]),
            self_healing=bool(raw["self_healing"]),
            sanitize=bool(raw["sanitize"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WalError(f"malformed tenant spec document: {exc!r}") from None


# -- records ---------------------------------------------------------------------------


class WalRecord(NamedTuple):
    """One logged op: monotonic id, kind, owning tenant, JSON-safe args.

    A ``NamedTuple`` rather than a frozen dataclass: construction sits
    on the append hot path, and ``tuple.__new__`` costs a fraction of a
    frozen dataclass's per-field ``object.__setattr__``.
    """

    op_id: int
    kind: str
    tenant: str
    args: dict[str, Any]

    def payload(self) -> dict[str, Any]:
        return {"op": self.op_id, "kind": self.kind, "tenant": self.tenant,
                "args": self.args}

    @classmethod
    def from_payload(cls, raw: Any) -> "WalRecord":
        if (not isinstance(raw, dict)
                or not isinstance(raw.get("op"), int)
                or not isinstance(raw.get("kind"), str)
                or not isinstance(raw.get("tenant"), str)
                or not isinstance(raw.get("args"), dict)):
            raise WalError(f"structurally invalid WAL record: {raw!r}")
        return cls(op_id=raw["op"], kind=raw["kind"], tenant=raw["tenant"],
                   args=raw["args"])


def _expand_group(doc: dict[str, Any]) -> list[WalRecord]:
    """Unpack a group-commit frame into its records (all or none).

    A group shares one tenant and consecutive op-ids starting at
    ``grp``, so each record carries only its kind and args.
    """
    first = doc.get("grp")
    tenant = doc.get("tenant")
    kinds = doc.get("kinds")
    argses = doc.get("args")
    if (not isinstance(first, int) or not isinstance(tenant, str)
            or not isinstance(kinds, list) or not isinstance(argses, list)
            or not kinds or len(kinds) != len(argses)
            or not all(isinstance(k, str) for k in kinds)
            or not all(isinstance(a, dict) for a in argses)):
        raise WalError(f"structurally invalid WAL group frame: {doc!r}")
    return [WalRecord(first + i, kinds[i], tenant, argses[i])
            for i in range(len(kinds))]


@dataclass(frozen=True)
class WalReadResult:
    """One pass over a log file: the trusted prefix plus tail forensics.

    ``torn`` is 1 when a torn or corrupt record cut the scan short (and
    was counted as ``wal_torn_records_total``), 0 for a log that ends on
    a record boundary.  ``valid_bytes`` is the byte length of the trusted
    prefix — what recovery truncates the file back to before appending.
    """

    records: tuple[WalRecord, ...]
    valid_bytes: int
    torn: int
    header_ok: bool


#: One preconstructed encoder: ``json.dumps`` rebuilds its encoder per
#: call, which costs more than the encoding itself on the append path.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode_record(record: WalRecord) -> bytes:
    # Plain sorted dump, not canonical_bytes: the checksum covers the
    # frame bytes exactly as written (the reader hashes what it reads
    # back, never a re-encode), and json stringifies any int dict key at
    # write time, so writer and reader agree without the normalization
    # pass — which would otherwise dominate the append hot path.
    payload = _ENCODE(record.payload()).encode()
    checksum = hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES]
    return _LEN.pack(len(payload)) + payload + checksum


def read_wal(path: "str | pathlib.Path") -> WalReadResult:
    """Scan a log, returning the trusted prefix and truncating nothing.

    Never raises on torn or corrupt bytes: the first record that fails
    its length bound, checksum, JSON decode, or structural validation
    ends the trusted prefix, increments ``wal_torn_records_total`` once,
    and everything after it is ignored.  A missing file or an invalid
    header reads as an empty log (``header_ok=False`` distinguishes the
    header case so recovery can report it).
    """
    path = pathlib.Path(path)
    try:
        blob = path.read_bytes()
    except OSError:
        return WalReadResult((), 0, 0, False)

    def _torn() -> None:
        obs.get_registry().counter(
            "wal_torn_records_total", {},
            help="torn/corrupt WAL tails truncated at recovery",
        ).inc()

    if blob[:len(WAL_MAGIC)] != WAL_MAGIC:
        if blob:
            _torn()
            return WalReadResult((), 0, 1, False)
        return WalReadResult((), 0, 0, False)

    records: list[WalRecord] = []
    valid = len(WAL_MAGIC)
    torn = 0
    while valid < len(blob):
        offset = valid
        if offset + _LEN.size > len(blob):
            torn = 1
            break
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if length > _MAX_RECORD_BYTES or offset + length + _CHECKSUM_BYTES > len(blob):
            torn = 1
            break
        payload = blob[offset:offset + length]
        offset += length
        stored = blob[offset:offset + _CHECKSUM_BYTES]
        offset += _CHECKSUM_BYTES
        if hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES] != stored:
            torn = 1
            break
        try:
            doc = json.loads(payload.decode())
            if isinstance(doc, dict) and "grp" in doc:
                frame_records = _expand_group(doc)
            else:
                frame_records = [WalRecord.from_payload(doc)]
        except (WalError, UnicodeDecodeError, json.JSONDecodeError):
            # A structurally-bad payload behind a good checksum is next
            # to impossible from bit rot; treat it like a torn record so
            # recovery stays total either way.
            torn = 1
            break
        records.extend(frame_records)
        valid = offset
    if torn:
        _torn()
    return WalReadResult(tuple(records), valid, torn, True)


class WriteAheadLog:
    """Append-only op log with crash-point hooks for the chaos harness.

    ``crash_hook(site, record)`` — when set (by the fault injector) — is
    invoked at three sites per append: ``wal.before_append`` (nothing
    durable yet), ``wal.torn_append`` (a crash here leaves *half* the
    frame on disk — the torn-tail generator), and ``wal.after_append``
    (the record is durable but unapplied).  A hook that raises aborts the
    append exactly as a process death at that point would.
    """

    def __init__(self, path: "str | pathlib.Path", *, sync: str = "flush",
                 crash_hook: "Callable[[str, WalRecord], None] | None" = None):
        if sync not in ("none", "flush", "fsync"):
            raise ConfigurationError(
                f"sync must be none|flush|fsync, got {sync!r}"
            )
        self.path = pathlib.Path(path)
        self.sync = sync
        self.crash_hook = crash_hook
        registry = obs.get_registry()
        self._obs_appends = registry.counter(
            "wal_appends_total", {},
            help="records appended to the write-ahead log",
        )
        self._obs_bytes = registry.counter(
            "wal_bytes_written_total", {},
            help="bytes appended to the write-ahead log",
        )
        self._obs_frames = registry.counter(
            "wal_frames_total", {},
            help="frames written (a group-commit frame carries many "
                 "records; appends/frames is the mean group size)",
        )
        self._obs_fsync = registry.counter(
            "wal_fsync_total", {},
            help="fsync barriers issued by the write-ahead log",
        )
        existing = read_wal(self.path)
        if self.path.exists() and existing.header_ok:
            # Continue an existing log: drop any torn tail, then append.
            with open(self.path, "r+b") as fh:
                fh.truncate(max(existing.valid_bytes, len(WAL_MAGIC)))
            self._next_op = (max(r.op_id for r in existing.records) + 1
                             if existing.records else 0)
            self._file = open(self.path, "ab")
        else:
            self._next_op = 0
            self._file = open(self.path, "wb")
            self._file.write(WAL_MAGIC)
            self._flush()
        self._closed = False

    # -- internals ---------------------------------------------------------------------

    def _flush(self) -> None:
        self._file.flush()
        if self.sync == "fsync":
            os.fsync(self._file.fileno())
            self._obs_fsync.inc()

    # -- the one write path ------------------------------------------------------------

    @property
    def next_op_id(self) -> int:
        return self._next_op

    def append(self, kind: str, tenant: str,
               args: Mapping[str, Any] | None = None) -> WalRecord:
        """Assign the next op-id, frame the record, make it durable.

        This sits on every control op's latency path (append *before*
        apply), so the body stays flat: one cached-encoder dump, one
        digest, one buffered write, one flush.
        """
        if self._closed:
            raise WalError("write-ahead log is closed", path=str(self.path))
        if kind not in _OP_KIND_SET:
            raise WalError(f"unknown WAL op kind {kind!r}",
                           path=str(self.path))
        record = WalRecord(self._next_op, kind, tenant,
                           dict(args) if args else {})
        frame = _encode_record(record)
        file = self._file
        hook = self.crash_hook
        if hook is not None:
            hook("wal.before_append", record)
            try:
                hook("wal.torn_append", record)
            except BaseException:
                # Simulated mid-write death: half the frame reaches the
                # disk before the process dies — the torn tail recovery
                # truncates.
                file.write(frame[: max(1, len(frame) // 2)])
                file.flush()
                raise
        file.write(frame)
        if self.sync == "flush":
            file.flush()
        elif self.sync == "fsync":
            file.flush()
            os.fsync(file.fileno())
            self._obs_fsync.inc()
        self._next_op += 1
        self._obs_appends.inc()
        self._obs_frames.inc()
        self._obs_bytes.inc(len(frame))
        if hook is not None:
            hook("wal.after_append", record)
        return record

    def append_group(
        self, entries: "Sequence[tuple[str, str, Mapping[str, Any] | None]]",
    ) -> list[WalRecord]:
        """Append a burst of ops as one group-commit frame.

        ``entries`` is ``[(kind, tenant, args), ...]`` in apply order;
        every op gets its own consecutive op-id, but the burst shares a
        single envelope, JSON encode, checksum, write, and flush — the
        per-record costs that dominate a one-op append amortize across
        the group, which is what keeps WAL overhead on a pipelined
        control stream low.  The group frame requires one tenant across
        the burst (the controller drains per-tenant queues, so this is
        free); a mixed-tenant burst, a single entry, or any append while
        a crash hook is armed falls back to plain per-record
        :meth:`append` frames — byte-identical to unbatched appends,
        preserving the chaos harness's per-record crash-site semantics.
        """
        if not entries:
            return []
        tenant0 = entries[0][1]
        if (len(entries) == 1 or self.crash_hook is not None
                or any(tenant != tenant0 for _, tenant, _ in entries)):
            return [self.append(kind, tenant, args)
                    for kind, tenant, args in entries]
        if self._closed:
            raise WalError("write-ahead log is closed", path=str(self.path))
        kinds: list[str] = []
        argses: list[dict[str, Any]] = []
        for kind, _tenant, args in entries:
            if kind not in _OP_KIND_SET:
                raise WalError(f"unknown WAL op kind {kind!r}",
                               path=str(self.path))
            kinds.append(kind)
            argses.append(dict(args) if args else {})
        first = self._next_op
        records = [WalRecord(first + i, kinds[i], tenant0, argses[i])
                   for i in range(len(kinds))]
        payload = _ENCODE({"grp": first, "tenant": tenant0,
                           "kinds": kinds, "args": argses}).encode()
        checksum = hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES]
        frame = _LEN.pack(len(payload)) + payload + checksum
        file = self._file
        file.write(frame)
        if self.sync == "flush":
            file.flush()
        elif self.sync == "fsync":
            file.flush()
            os.fsync(file.fileno())
            self._obs_fsync.inc()
        self._next_op += len(records)
        self._obs_appends.inc(len(records))
        self._obs_frames.inc()
        self._obs_bytes.inc(len(frame))
        return records

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
