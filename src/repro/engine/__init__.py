"""Batched columnar evaluation and verified-plan policy codegen.

The engine is the throughput tier above the per-packet fast path:

* :class:`~repro.engine.batch.PacketBatch` — the columnar
  (struct-of-arrays) packet buffer;
* :class:`~repro.engine.codegen.PlanCodegen` — the one fast evaluator: a
  per-plan specialized int-bitmask kernel, cached on
  ``(plan_hash, smbm.version)``, that serves memo misses and masked rows;
* :class:`~repro.engine.columnar.BatchedEvaluator` — the interpreted
  int-mask walk that serves masked rows for plans without a kernel.
"""

from repro.engine.batch import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
)
from repro.engine.codegen import PlanCodegen, generate_plan_source, plan_hash_of
from repro.engine.columnar import BatchedEvaluator

__all__ = [
    "PacketBatch",
    "BatchedEvaluator",
    "PlanCodegen",
    "generate_plan_source",
    "plan_hash_of",
    "META_FILTER_INPUT",
    "META_FILTER_OUTPUT",
    "META_FILTER_REQUEST",
    "META_FILTER_SELECTED",
]
