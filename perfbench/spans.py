"""In-memory spans around the public entry points of each layer.

:func:`instrument` patches the entry points listed in :data:`SPANS`
(and the per-packet ones in :data:`CHEAP`) for the duration of a
``with`` block; the program itself is not edited.  A span is the list
``[name, start_ns, end_ns, parent, info, phase]``: ``parent`` is the
index of the enclosing span (``-1`` for a top-level call), ``info``
carries what a layer metric needs (rows, tenant, group size) and
``phase`` is the run phase the span was opened in (``setup``,
``warmup``, ``run``, ``checkpoint``, ``recover`` or ``check``), so
set-up, recovery and the correctness check never pollute the serving
numbers.

Per-packet entry points (``ProbeCodec.decode``, ``TenantDemux.resolve``)
get a cheaper wrapper: no span, only a call count and nanoseconds added
to the enclosing span's aggregate.  Wrapping them still costs a Python
call and two clock reads per packet, which is why the traced run also
reports its overhead against an untraced phase of the same run.

Control-path roots are ops, submit to ack, which interleave on the
event loop; they are recorded by the client (:meth:`Recorder.op`) and
joined to their WAL group and apply spans per tenant in FIFO order by
:func:`control_layers`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

from repro import obs
from repro.core.compiler import CompiledPolicy
from repro.core.smbm import SMBM
from repro.engine.batch import PacketBatch
from repro.engine.codegen import PlanCodegen
from repro.engine.columnar import BatchedEvaluator
from repro.rmt.probe import ProbeCodec
from repro.serving import BatchedBackend, WriteAheadLog
from repro.serving import controller as controller_module
from repro.serving import recovery as recovery_module
from repro.switch.filter_module import FilterModule
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.demux import TenantDemux
from repro.tenancy.manager import TenantManager

_clock = time.perf_counter_ns

NAME, START, END, PARENT, INFO, PHASE = range(6)


def counter_totals(registry: obs.MetricsRegistry) -> dict[str, float]:
    """Counter totals from the public registry snapshot, summed over
    label sets; ``name:path`` and ``name:outcome`` keep those labels."""
    totals: dict[str, float] = defaultdict(float)
    for key, value in obs.snapshot(registry)["counters"].items():
        name = key.split("{", 1)[0]
        totals[name] += value
        for label in ("path", "outcome"):
            match = re.search(label + r'="(\w+)"', key)
            if match:
                totals[f"{name}:{match.group(1)}"] += value
    return totals


class Recorder:
    """Spans, per-packet aggregates and control ops, kept in memory.

    ``registry`` is the metrics registry the traced program was built
    under; :meth:`begin_run`/:meth:`end_run` accumulate its counter
    deltas over the ``run`` phase into :attr:`run_counters`.
    """

    def __init__(self, registry: obs.MetricsRegistry) -> None:
        self.registry = registry
        self.run_counters: dict[str, float] = defaultdict(float)
        self._before: dict[str, float] = {}
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        #: (name, parent span) -> [calls, ns] for the per-packet layers.
        self.agg: dict[tuple[str, int], list[int]] = defaultdict(
            lambda: [0, 0])
        #: Control roots in submit order: [tenant, submit_ns, ack_ns].
        self.ops: list[list[Any]] = []
        self.phase = "setup"
        #: (id(smbm), metric) -> table version its index was last built at.
        self._index_seen: dict[tuple[int, str], int] = {}

    def span(self, name: str, fn: Callable, info_of=None) -> Callable:
        """Wrap ``fn`` in a span; a call made inside a span of the same
        name (``SMBM.update`` calling ``delete`` and ``add``) opens none."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            info = info_of(*args, **kwargs) if info_of is not None else None
            spans.append([name, _clock(), 0, stack[-1] if stack else -1,
                          info, self.phase])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = _clock()

        return wrapper

    def cheap(self, name: str, fn: Callable) -> Callable:
        stack, agg = self.stack, self.agg
        last = [-2, [0, 0]]  # the enclosing span seen last, and its slot

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = _clock()
            out = fn(*args)
            t1 = _clock()
            parent = stack[-1] if stack else -1
            if parent != last[0]:
                last[0], last[1] = parent, agg[(name, parent)]
            slot = last[1]
            slot[0] += 1
            slot[1] += t1 - t0
            return out

        return wrapper

    def index_rebuild(self, fn: Callable) -> Callable:
        """Span ``SMBM.metric_index`` only when it rebuilds (the table
        version moved since this wrapper last saw that index built)."""
        spanned = self.span("smbm.index", fn)
        seen = self._index_seen

        @functools.wraps(fn)
        def wrapper(smbm, metric):
            key = (id(smbm), metric)
            if seen.get(key) == smbm.version:
                return fn(smbm, metric)
            seen[key] = smbm.version
            return spanned(smbm, metric)

        return wrapper

    def begin_run(self) -> None:
        self._before = counter_totals(self.registry)
        self.phase = "run"

    def end_run(self) -> None:
        self.phase = "check"
        for name, value in counter_totals(self.registry).items():
            self.run_counters[name] += value - self._before.get(name, 0)

    def op(self, tenant: str) -> list[Any]:
        """Open a control root; the caller sets ``[2]`` at ack."""
        root = [tenant, _clock(), 0]
        self.ops.append(root)
        return root

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:4] + [s[PHASE]]) + "\n")


def _rows(_cls, packets, *rest, **kw):
    return len(packets)


def _masks(_engine, _smbm, masks, *rest, **kw):
    return len(masks)


def _write_tenant(_self, writes):
    return writes[0].tenant if writes else None


def _group(_self, entries):
    return (entries[0][1], len(entries)) if entries else (None, 0)


#: (owner, attribute, span name, info extractor) — the layer entry points.
SPANS = (
    (BatchedBackend, "process_batch", "backend.process_batch", None),
    (BatchedBackend, "write_batch", "backend.write_batch", _write_tenant),
    (BatchedBackend, "snapshot", "checkpoint.snapshot", None),
    (ThanosSwitch, "process_batch", "switch.process_batch", None),
    (TenantDemux, "partition", "demux.partition", None),
    (PacketBatch, "from_packets", "batch.from_packets", _rows),
    (PacketBatch, "scatter", "batch.scatter", None),
    (FilterModule, "evaluate_batch", "filter.evaluate_batch", None),
    (FilterModule, "evaluate", "filter.evaluate", None),
    (CompiledPolicy, "evaluate", "pipeline.evaluate", None),
    (CompiledPolicy, "evaluate_restricted", "pipeline.evaluate", None),
    (PlanCodegen, "evaluate", "pipeline.evaluate", None),
    (BatchedEvaluator, "evaluate_masks", "engine.evaluate_masks", _masks),
    (PlanCodegen, "evaluate_masks", "engine.evaluate_masks", _masks),
    (SMBM, "add", "smbm.write", None),
    (SMBM, "delete", "smbm.write", None),
    (SMBM, "update", "smbm.write", None),
    (WriteAheadLog, "append_group", "wal.append_group", _group),
    (TenantManager, "admit", "admit", None),
    (controller_module, "save_checkpoint", "checkpoint.save", None),
    (recovery_module, "read_wal", "recovery.read_wal", None),
)

#: Per-packet entry points: counted and timed into the enclosing span.
CHEAP = (
    (ProbeCodec, "decode", "probe.decode"),
    (TenantDemux, "resolve", "demux.resolve"),
)

_MISSING = object()


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Patch every layer entry point for the ``with`` block, then put the
    originals back exactly as they were."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        raw = (owner.__dict__.get(attr, _MISSING)
               if isinstance(owner, type) else getattr(owner, attr))
        saved.append((owner, attr, raw))
        current = getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(current))

    try:
        for owner, attr, name, info_of in SPANS:
            patch(owner, attr,
                  lambda fn, name=name, info_of=info_of:
                  rec.span(name, fn, info_of))
        for owner, attr, name in CHEAP:
            patch(owner, attr, lambda fn, name=name: rec.cheap(name, fn))
        patch(SMBM, "metric_index", rec.index_rebuild)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# -- layer tables -----------------------------------------------------------------


def _durations(spans, phase):
    """Self time of every span of ``phase`` (children and per-packet
    aggregates subtracted) and each span's top-level ancestor."""
    covered: dict[int, int] = defaultdict(int)
    root: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[PHASE] != phase:
            continue
        parent = s[PARENT]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            covered[parent] += s[END] - s[START]
    return covered, root


#: Layer metrics of the data path and of the control path; a workload
#: that never reaches a layer reports it as 0.
PATH_KEYS = (
    "backend.self_ns", "switch.self_ns", "switch.runs_per_burst",
    "probe.decode_calls", "probe.decode_ns", "demux.calls_per_burst",
    "demux.ns", "columnarize.ns", "scatter.ns", "batch.rows",
    "filter.evaluate_ns", "pipeline.calls", "pipeline.ns", "engine.rows",
    "engine.ns_per_row", "smbm.writes", "smbm.write_ns", "smbm.index_ns",
    "controller.self_ns", "controller.queue_wait_ns",
    "controller.group_wait_ns",
    "controller.group_size", "wal.append_ns", "apply.ns",
)


def _with_zeros(values: dict[str, float]) -> dict[str, float]:
    return {**dict.fromkeys(PATH_KEYS, 0.0), **values}


DATA_LAYERS = {
    "backend.process_batch": "backend",
    "switch.process_batch": "switch",
    "demux.partition": "demux",
    "demux.resolve": "demux",
    "probe.decode": "probe.decode",
    "batch.from_packets": "columnarize",
    "batch.scatter": "scatter",
    "filter.evaluate_batch": "filter",
    "filter.evaluate": "filter",
    "pipeline.evaluate": "pipeline",
    "engine.evaluate_masks": "engine",
    "smbm.write": "smbm.write",
    "smbm.index": "smbm.index",
}


def data_layers(rec: Recorder) -> dict[str, float]:
    """Per-burst layer table of the data path (roots are
    ``SwitchBackend.process_batch`` calls of the ``run`` phase)."""
    spans = rec.spans
    covered, root = _durations(spans, "run")
    for (name, parent), (_calls, ns) in rec.agg.items():
        if parent in root:
            covered[parent] += ns
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    roots = [i for i, r in root.items()
             if r == i and spans[i][NAME] == "backend.process_batch"]
    root_set = set(roots)
    root_total = sum(spans[i][END] - spans[i][START] for i in roots)
    engine_rows = 0
    for i, r in root.items():
        if r not in root_set:
            continue
        s = spans[i]
        name = s[NAME]
        self_ns[DATA_LAYERS[name]] += s[END] - s[START] - covered[i]
        parent_name = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "smbm.write":
            counts["smbm.writes"] += 1
            counts["smbm.write_total_ns"] += s[END] - s[START]
        elif name == "demux.partition":
            counts["demux.calls"] += 1
            if parent_name == "switch.process_batch":
                counts["switch.runs"] += 1
        elif name == "batch.from_packets":
            counts["batch.rows"] += s[INFO]
        elif name == "pipeline.evaluate":
            counts["pipeline.calls"] += 1
        elif name == "engine.evaluate_masks":
            engine_rows += s[INFO]
    for (name, parent), (calls, ns) in rec.agg.items():
        if root.get(parent) in root_set:
            self_ns[DATA_LAYERS[name]] += ns
            counts[name + ".calls"] += calls
    attributed = sum(self_ns.values())
    if attributed != root_total:
        raise AssertionError(
            f"layer self times sum to {attributed} ns, roots to {root_total}")
    n = max(1, len(roots))
    writes = counts["smbm.writes"]
    return _with_zeros({
        "roots": len(roots),
        "trace.root_ns": root_total / n,
        "backend.self_ns": self_ns["backend"] / n,
        "switch.self_ns": self_ns["switch"] / n,
        "switch.runs_per_burst": counts["switch.runs"] / n,
        "probe.decode_calls": counts["probe.decode.calls"] / n,
        "probe.decode_ns": self_ns["probe.decode"] / n,
        "demux.calls_per_burst": counts["demux.calls"] / n,
        "demux.ns": self_ns["demux"] / n,
        "columnarize.ns": self_ns["columnarize"] / n,
        "scatter.ns": self_ns["scatter"] / n,
        "batch.rows": counts["batch.rows"] / n,
        "filter.evaluate_ns": self_ns["filter"] / n,
        "pipeline.calls": counts["pipeline.calls"] / n,
        "pipeline.ns": self_ns["pipeline"] / n,
        "engine.rows": engine_rows / n,
        "engine.ns_per_row": self_ns["engine"] / max(1, engine_rows),
        "smbm.writes": writes / n,
        "smbm.write_ns": counts["smbm.write_total_ns"] / max(1, writes),
        "smbm.index_ns": self_ns["smbm.index"] / n,
        "trace.attributed_share": 1 - self_ns["backend"] / max(1, root_total),
    })


def control_layers(rec: Recorder) -> dict[str, float]:
    """Per-op layer table of the control path.

    Each op (submit to ack) is joined, per tenant in FIFO order, to the
    WAL group frame that logged it and to its own
    ``SwitchBackend.write_batch`` apply.  The op's time splits into
    queue wait (submit to the start of its group's append), the group's
    append, the group wait (earlier ops of its group applying), its
    apply (SMBM writes separately) and the root's own remainder: from
    the end of its apply until the client resumes with the ack, which is
    event-loop scheduling.
    """
    spans = rec.spans
    covered, root = _durations(spans, "run")
    groups: dict[str, list[list[Any]]] = defaultdict(list)
    applies: dict[str, list[int]] = defaultdict(list)
    write_ns = writes = 0
    for i, r in root.items():
        s = spans[i]
        if r == i and s[NAME] == "wal.append_group":
            groups[s[INFO][0]].append(s)
        elif r == i and s[NAME] == "backend.write_batch":
            applies[s[INFO]].append(i)
        elif s[NAME] == "smbm.write":
            writes += 1
            write_ns += s[END] - s[START]
    ops: dict[str, list[list[Any]]] = defaultdict(list)
    for op in rec.ops:
        ops[op[0]].append(op)
    totals: dict[str, float] = defaultdict(float)
    n_ops = 0
    for tenant, tenant_ops in ops.items():
        frames = [g for g in groups[tenant] for _ in range(g[INFO][1])]
        if len(frames) != len(tenant_ops) or len(applies[tenant]) != len(
                tenant_ops):
            raise AssertionError(
                f"tenant {tenant}: {len(tenant_ops)} ops, {len(frames)} "
                f"logged, {len(applies[tenant])} applied")
        for (_t, submit, ack), frame, a in zip(tenant_ops, frames,
                                               applies[tenant]):
            apply_total = spans[a][END] - spans[a][START]
            queue_wait = frame[START] - submit
            group_wait = spans[a][START] - frame[END]
            remainder = ack - spans[a][END]
            if min(queue_wait, group_wait, remainder) < 0:
                raise AssertionError("op spans do not nest in submit..ack")
            totals["root"] += ack - submit
            totals["self"] += remainder
            totals["group_wait"] += group_wait
            totals["queue_wait"] += queue_wait
            totals["group_size"] += frame[INFO][1]
            totals["apply"] += apply_total - covered[a]
        n_ops += len(tenant_ops)
    n = max(1, n_ops)
    frames = [g for tenant_groups in groups.values() for g in tenant_groups]
    return _with_zeros({
        "roots": n_ops,
        "trace.root_ns": totals["root"] / n,
        "controller.self_ns": totals["self"] / n,
        "controller.queue_wait_ns": totals["queue_wait"] / n,
        "controller.group_wait_ns": totals["group_wait"] / n,
        "controller.group_size": totals["group_size"] / n,
        "wal.append_ns": (sum(g[END] - g[START] for g in frames)
                          / max(1, len(frames))),
        "apply.ns": totals["apply"] / n,
        "smbm.writes": writes / n,
        "smbm.write_ns": write_ns / max(1, writes),
        "trace.attributed_share": 1 - totals["self"] / max(1, totals["root"]),
    })


def phase_means(rec: Recorder, phase: str) -> dict[str, float]:
    """Mean duration of each top-level span name opened in ``phase``."""
    sums: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for s in rec.spans:
        if s[PHASE] == phase and s[PARENT] < 0:
            slot = sums[s[NAME]]
            slot[0] += 1
            slot[1] += s[END] - s[START]
    return {name: ns / calls for name, (calls, ns) in sums.items()}
