"""Property-based SMBM tests (hypothesis): random write sequences preserve
sortedness and bidirectional-map consistency, the fast-path MetricIndex
always agrees with a naive scan of the sorted lists, and an index patched
by an update equals a fresh build."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.operators import RelOp  # noqa: E402
from repro.core.smbm import SMBM, MetricIndex  # noqa: E402

CAP = 16
METRICS = ("a", "b")
VALUE_RANGE = 8  # tiny range: lots of FIFO ties in the sorted lists

# One SMBM write: (resource id, op selector, metric values).
_write = st.tuples(
    st.integers(0, CAP - 1),
    st.sampled_from(["add", "update", "delete"]),
    st.tuples(st.integers(0, VALUE_RANGE - 1), st.integers(0, VALUE_RANGE - 1)),
)
_writes = st.lists(_write, max_size=80)


def _apply(smbm: SMBM, model: dict[int, dict[str, int]],
           rid: int, op: str, values: tuple[int, int]) -> None:
    """Apply one write to both the SMBM and the plain-dict model."""
    metrics = dict(zip(METRICS, values))
    if op == "delete":
        smbm.delete(rid)  # the paper's delete: no-op when absent
        model.pop(rid, None)
    elif op == "add" and rid not in model and len(model) < CAP:
        smbm.add(rid, metrics)
        model[rid] = metrics
    elif rid in model:  # add on present / update on present -> update
        smbm.update(rid, metrics)
        model[rid] = metrics
    # add on a full table / update on absent: skipped, not part of the API


class TestWriteSequences:
    @given(_writes)
    def test_invariants_and_model_agreement(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
            smbm.check_invariants()
        assert smbm.snapshot() == model
        assert len(smbm) == len(model)
        assert smbm.ids() == sorted(model)
        assert smbm.id_mask() == sum(1 << rid for rid in model)

    @given(_writes)
    def test_dimension_lists_stay_sorted_with_fifo_ties(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
            for metric in METRICS:
                entries = smbm.attr_list(metric)
                assert [v for v, _ in entries] == sorted(
                    v for v, _ in entries
                ), f"{metric} list lost sortedness"
                assert {rid_ for _, rid_ in entries} == set(model)

    @given(_writes)
    def test_bidirectional_pointers_round_trip(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
        for metric in METRICS:
            entries = smbm.attr_list(metric)
            for rid in model:
                # forward map: id -> value matches the model
                assert smbm.metric_of(rid, metric) == model[rid][metric]
                # reverse map: id -> rank lands on this id's entry
                rank = smbm.rank_of(rid, metric)
                assert entries[rank] == (model[rid][metric], rid)

    @given(_writes)
    def test_version_moves_exactly_with_committed_writes(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            before = smbm.version
            size_before = len(model)
            present = rid in model
            _apply(smbm, model, rid, op, values)
            delta = smbm.version - before
            if op == "delete":
                assert delta == (1 if present else 0)
            elif present:
                assert delta == 2  # update = delete + add
            elif len(model) > size_before:
                assert delta == 1  # committed add
            else:
                assert delta == 0  # rejected (full table)


def _naive_scan(entries: list[tuple[int, int]], rel: RelOp, val: int,
                inp: int) -> tuple[int, int, int]:
    """(predicate, min, max) masks by a direct scan of a sorted list of
    (value, id) entries: the oracle for the index."""
    pred = 0
    for value, rid in entries:
        if rel.apply(value, val) and (inp >> rid) & 1:
            pred |= 1 << rid
    live = [rid for _v, rid in entries if (inp >> rid) & 1]
    return pred, (1 << live[0] if live else 0), (1 << live[-1] if live else 0)


def _masks(index: MetricIndex, rel: RelOp, val: int,
           inp: int) -> tuple[int, int, int]:
    return (index.predicate_mask(rel, val, inp), index.min_mask(inp),
            index.max_mask(inp))


class TestMetricIndexAgainstNaiveScan:
    @given(
        _writes,
        st.sampled_from(METRICS),
        st.sampled_from(list(RelOp)),
        st.integers(-2, VALUE_RANGE + 2),
        st.integers(0, 2 ** CAP - 1),
    )
    @settings(max_examples=200)
    def test_masks_match_naive_scan(self, writes, metric, rel, val, inp):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
        index = smbm.metric_index(metric)
        assert _masks(index, rel, val, inp) == _naive_scan(
            smbm.attr_list(metric), rel, val, inp)

    @given(_writes, st.sampled_from(METRICS))
    def test_index_is_reused_until_the_next_write(self, writes, metric):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
        first = smbm.metric_index(metric)
        assert smbm.metric_index(metric) is first  # version unchanged
        if len(model) < CAP:
            free = next(r for r in range(CAP) if r not in model)
            smbm.add(free, {m: 0 for m in METRICS})
            assert smbm.metric_index(metric) is not first


def _assert_masks_match_naive_scan(smbm: SMBM, metric: str,
                                   index: MetricIndex) -> None:
    """Every relational predicate at every value, and min/max, over a few
    inputs."""
    entries = smbm.attr_list(metric)
    full = (1 << CAP) - 1
    for inp in (full, 0x5555 & full, 0xF0F0 & full, smbm.id_mask() >> 1):
        for rel in RelOp:
            for val in range(-1, VALUE_RANGE + 1):
                assert _masks(index, rel, val, inp) == _naive_scan(
                    entries, rel, val, inp)


def _assert_current_indexes_fresh(smbm: SMBM, scanned: set | None = None
                                  ) -> None:
    """Each index cached at the current version equals a fresh build and
    the naive-scan oracle; stale ones are never served, so not checked.
    An index in ``scanned`` (a set of index objects) already passed the
    scan against this same table, so only the fresh-build comparison
    repeats for it."""
    for metric in METRICS:
        index = smbm._current_index(metric)
        if index is None:
            continue
        fresh = MetricIndex(smbm._metric_lists[metric])
        assert index.values == fresh.values
        assert index.prefix == fresh.prefix
        if scanned is None or index not in scanned:
            _assert_masks_match_naive_scan(smbm, metric, index)
            if scanned is not None:
                scanned.add(index)


_values = st.tuples(st.integers(0, VALUE_RANGE - 1),
                    st.integers(0, VALUE_RANGE - 1))
# One step of a read/write interleaving: (kind, id, values, metric, bit),
# each kind using the fields it needs.  Reads make indexes current, so the
# updates after them patch; the other writes only invalidate.  Reads and
# updates are weighted up so most runs patch many times.
_KINDS = ("read", "read", "read", "update", "update", "update", "add",
          "delete", "repair", "corrupt", "save", "restore")
_step = st.tuples(st.sampled_from(_KINDS), st.integers(0, CAP - 1), _values,
                  st.sampled_from(METRICS), st.integers(0, 2))


def _run_step(smbm: SMBM, step: tuple, saved: list) -> None:
    kind, rid, values, metric, bit = step
    metrics = dict(zip(METRICS, values))
    if kind == "read":
        smbm.metric_index(metric)
    elif kind == "update":
        if rid in smbm or not smbm.is_full():
            smbm.update(rid, metrics)
    elif kind == "add":
        if rid not in smbm and not smbm.is_full():
            smbm.add(rid, metrics)
    elif kind == "delete":
        smbm.delete(rid)
    elif kind == "repair":
        if rid in smbm:
            smbm.repair_row(rid, metrics)
    elif kind == "corrupt":
        if rid in smbm:
            smbm.corrupt_stored_bit(rid, metric, bit)
    elif kind == "save":
        saved.append(smbm.export_state())
    elif saved:  # restore the latest saved state
        smbm.restore_state(saved[-1])


def _read_all(smbm: SMBM) -> dict[str, MetricIndex]:
    return {m: smbm.metric_index(m) for m in METRICS}


class TestIndexPatching:
    @given(st.lists(_values, min_size=1, max_size=CAP),
           st.lists(_step, min_size=20, max_size=80))
    @settings(max_examples=200)
    def test_cached_indexes_match_a_fresh_build_after_every_step(
            self, seed_rows, steps):
        smbm = SMBM(CAP, METRICS)
        for rid, values in enumerate(seed_rows):
            smbm.add(rid, dict(zip(METRICS, values)))
        saved: list = []
        scanned: set[MetricIndex] = set()
        for step in steps:
            _run_step(smbm, step, saved)
            smbm.check_invariants()
            _assert_current_indexes_fresh(smbm, scanned)

    def _table(self, values: list[int]) -> tuple[SMBM, obs.MetricsRegistry]:
        """A table of ``a`` values (``b`` all zero) counting into its own
        registry."""
        with obs.use_registry() as reg:
            smbm = SMBM(CAP, METRICS)
        for rid, value in enumerate(values):
            smbm.add(rid, {"a": value, "b": 0})
        return smbm, reg

    def _patch(self, table: tuple[SMBM, obs.MetricsRegistry],
               rid: int, value: int) -> tuple[int, int]:
        """Read, update ``rid`` to ``value``, assert the update patched
        every index without a rebuild; returns the (old, new) rank of its
        ``a`` entry."""
        smbm, reg = table
        before = _read_all(smbm)
        rebuilds = reg.value_of("smbm_index_rebuilds_total")
        patches = reg.value_of("smbm_index_patches_total")
        old = smbm.rank_of(rid, "a")
        smbm.update(rid, {"a": value, "b": 0})
        after = _read_all(smbm)
        assert reg.value_of("smbm_index_rebuilds_total") == rebuilds
        assert reg.value_of("smbm_index_patches_total") == (
            patches + len(METRICS))
        assert all(after[m] is not before[m] for m in METRICS)
        _assert_current_indexes_fresh(smbm)
        return old, smbm.rank_of(rid, "a")

    def test_move_in_place(self):
        table = self._table([1, 3, 3, 5])
        assert self._patch(table, 3, 5) == (3, 3)  # still last, same value
        assert self._patch(table, 2, 3) == (2, 2)  # still last of its tie run

    def test_move_to_rank_zero(self):
        table = self._table([2, 4, 4, 6, 7])
        assert self._patch(table, 4, 0) == (4, 0)
        assert self._patch(table, 2, 2) == (3, 2)  # FIFO: after the older 2

    def test_move_to_the_last_rank(self):
        table = self._table([2, 4, 4, 6, 7])
        assert self._patch(table, 0, 7) == (0, 4)  # FIFO: after the older 7
        assert self._patch(table, 1, 6) == (0, 2)

    def test_one_row_table(self):
        table = self._table([5])
        assert self._patch(table, 0, 1) == (0, 0)
        assert _read_all(table[0])["a"].values == [1]

    def test_update_of_an_absent_id_is_an_add_and_rebuilds(self):
        smbm, reg = self._table([2, 4])
        first = _read_all(smbm)
        rebuilds = reg.value_of("smbm_index_rebuilds_total")
        smbm.update(5, {"a": 3, "b": 0})
        assert all(smbm._current_index(m) is None for m in METRICS)
        after = _read_all(smbm)
        assert reg.value_of("smbm_index_patches_total") == 0
        assert reg.value_of("smbm_index_rebuilds_total") == (
            rebuilds + len(METRICS))
        assert after["a"] is not first["a"]
        assert after["a"].values == [2, 3, 4]
        _assert_current_indexes_fresh(smbm)

    def test_an_unread_patched_index_is_not_patched_again(self):
        """A write burst after one read patches each index once; the
        following updates leave it stale, and the next read rebuilds it
        once: at most one patch per metric per read."""
        smbm, reg = self._table([1, 2, 3, 4])
        _read_all(smbm)
        for rid, value in ((0, 9), (1, 0), (2, 5)):
            smbm.update(rid, {"a": value, "b": 0})
            smbm.check_invariants()
            _assert_current_indexes_fresh(smbm)
        assert reg.value_of("smbm_index_patches_total") == len(METRICS)
        rebuilds = reg.value_of("smbm_index_rebuilds_total")
        assert _read_all(smbm)["a"].values == [0, 4, 5, 9]
        assert reg.value_of("smbm_index_rebuilds_total") == (
            rebuilds + len(METRICS))

    def test_a_patched_index_is_patched_again_once_read(self):
        """Reading a patched index serves it, so the next update patches
        it in turn: read/update alternation never rebuilds."""
        smbm, reg = self._table([1, 2, 3, 4])
        _read_all(smbm)
        rebuilds = reg.value_of("smbm_index_rebuilds_total")
        for rid, value in ((0, 9), (1, 0), (2, 5)):
            smbm.update(rid, {"a": value, "b": 0})
            _read_all(smbm)
        assert reg.value_of("smbm_index_patches_total") == 3 * len(METRICS)
        assert reg.value_of("smbm_index_rebuilds_total") == rebuilds
        _assert_current_indexes_fresh(smbm)

    def test_a_stale_index_is_not_patched(self):
        """Only an index current when the update starts is patched: a
        write-only stream leaves the index for one rebuild at the read."""
        smbm, reg = self._table([1, 2, 3])
        _read_all(smbm)
        smbm.add(3, {"a": 4, "b": 0})  # invalidates; nothing read since
        smbm.update(0, {"a": 9, "b": 0})
        smbm.update(1, {"a": 0, "b": 0})
        assert reg.value_of("smbm_index_patches_total") == 0
        _assert_current_indexes_fresh(smbm)
        assert _read_all(smbm)["a"].values == [0, 3, 4, 9]


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
