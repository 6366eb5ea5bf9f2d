"""The repository benchmark: serve and control paths, end to end and per layer.

One run::

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 10 --trace 0

measures one workload (``uniform``, ``masked``, ``churn`` or
``control``; see ``perfbench/design.json`` for why each exists and
which layer metric each should move) and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from
a run whose first half is untraced (for the tracing overhead) and whose
second half records spans around every layer's public entry point.  A
run whose outputs disagree with the reference interpreter, or whose
recovered switch differs from the live one, prints ``"correct": false``
and exits 1.

``--workload all`` runs every workload once, each in its own process;
``--steady N`` runs each chosen workload N times with seeds 1..N, each in
its own process, and prints every end-to-end metric's median, quartiles
and spread against its bound.

The program is imported from ``src/`` next to this directory; there is
nothing to build.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - imported once src/ is on the path
    from control import Restarts

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("uniform", "masked", "churn", "control")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile of sorted samples, in microseconds."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1e3


def _heap_mb(fn) -> float:
    """Peak traced heap while ``fn`` runs (allocations made before it,
    such as the generated inputs, are not traced)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


@dataclass
class Run:
    """One phase's measurements; times are ``(at_ns, value)`` pairs, so
    they can be scaled by the host speed around ``at``."""

    restarts: "Restarts"
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    examples: list[str] = field(default_factory=list)
    checked: int = 0
    #: Burst (data) or op (control) latencies in ns.
    latencies: list[tuple[int, int]] = field(default_factory=list)
    #: Ops completed over ``busy`` seconds: the throughput.
    work: int = 0
    busy: list[tuple[int, float]] = field(default_factory=list)
    setup_s: list[tuple[int, float]] = field(default_factory=list)
    mem_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)

    def ops_per_s(self, scale) -> float:
        return self.work / sum(scale(at, s) for at, s in self.busy)


def _data_phase(inputs, seed, seconds, pace, workdir, rec=None) -> Run:
    """Serve for ``seconds`` in :data:`~scenario.SLICES` slices; after
    each, outside the timed region, time one more set-up and one
    recovery of a checkpoint taken after warm-up.  Spread over the run,
    their medians see the host as the serving did."""
    from control import Restarts, checkpoint_live, recover_once
    from datapath import WARMUP_BURSTS, Checker, Server
    from scenario import SLICES, build_switch, settle

    run = Run(Restarts())
    checker = Checker(inputs, seed)
    server = Server(inputs, checker, pace)
    if rec is not None:
        rec.phase = "setup"
    backend, _took = build_switch(inputs.pols, inputs.tables)
    if rec is not None:
        rec.phase = "warmup"
    server.serve(backend, bursts=WARMUP_BURSTS)
    wal_path, live = checkpoint_live(backend, workdir, run.restarts, rec)
    for _ in range(SLICES):
        settle()
        if rec is not None:
            rec.begin_run()
        run.work += server.serve(backend, seconds=seconds / SLICES,
                                 samples=run.latencies, rec=rec)
        if rec is not None:
            rec.end_run()
        settle()
        pace.tick(force=True)
        if rec is not None:
            rec.phase = "setup"
        at = time.perf_counter_ns()
        _spare, took = build_switch(inputs.pols, inputs.tables)
        run.setup_s.append((at, took))
        if rec is not None:
            rec.phase = "check"
        del _spare
        recover_once(wal_path, pace, run.restarts, live, "restart", rec)
    run.attempted = run.work
    run.busy = [(at, ns / 1e9) for at, ns in run.latencies]
    run.failed = server.failed
    run.checked = checker.checked
    run.mismatches = checker.mismatches + len(run.restarts.mismatches)
    run.examples = checker.examples + run.restarts.mismatches
    return run


def _control_phase(inputs, seconds, pace, workdir, rec=None) -> Run:
    from control import ControlStats, Restarts, run_sessions

    stats = ControlStats()
    run = Run(Restarts())
    run_sessions(inputs, workdir, seconds, pace, stats, run.restarts, rec)
    run.attempted = stats.attempted
    run.failed = stats.failed
    run.checked = run.work = stats.acked
    run.latencies = stats.latencies_ns
    run.busy = stats.run_s
    run.setup_s = stats.setup_s
    run.mismatches = len(stats.mismatches) + len(run.restarts.mismatches)
    run.examples = stats.mismatches + run.restarts.mismatches
    return run


def _measure(workload, seed, seconds, traced, pace, serving,
             workdir) -> list[Run]:
    """The untraced run (with the heap probe), or an untraced first half
    and a traced second half."""
    from repro import obs

    import control
    import spans
    from scenario import build_switch, control_inputs, data_inputs

    if workload == "control":
        inputs = control_inputs(seed)

        def phase(secs, rec=None):
            return _control_phase(inputs, secs, pace, workdir, rec)

        def one_pass():
            control.one_pass(inputs, workdir, pace)

        layers = spans.control_layers
    else:
        inputs = data_inputs(workload, seed)
        bursts = [inputs.burst(i) for i in range(len(inputs.bursts))]

        def phase(secs, rec=None):
            return _data_phase(inputs, seed, secs, pace, workdir, rec)

        def one_pass():
            fresh, _took = build_switch(inputs.pols, inputs.tables)
            for burst in bursts:
                fresh.process_batch(burst)

        layers = spans.data_layers
    untraced = phase(seconds / 2 if traced else seconds)
    if not traced:
        untraced.mem_mb = _heap_mb(one_pass)
        return [untraced]
    gc.collect()
    registry = obs.MetricsRegistry()
    rec = spans.Recorder(registry)
    with obs.use_registry(registry), spans.instrument(rec):
        run = phase(seconds / 2, rec)
    run.layers = _layer_metrics(rec, layers(rec), run, untraced, pace,
                                serving)
    rec.dump(OUT / f"trace_{workload}.jsonl")
    return [untraced, run]


# -- metric assembly ---------------------------------------------------------------


def _layer_metrics(rec, layers: dict, run: Run, untraced: Run, pace,
                   serving: str) -> dict[str, float]:
    """Every per-layer metric: the span table, the registry's counter
    deltas over the run phase, and the set-up/checkpoint/recovery spans.
    A layer the workload never reaches reads 0.  Times (unit ``ns``) are
    scaled by the host speed for ``serving`` work over the traced run
    phase."""
    import spans

    counters = rec.run_counters
    roots = max(1, layers["roots"])
    out = {name: value for name, value in layers.items() if name != "roots"}
    hits = counters["filter_memo_hits_total"]
    misses = counters["filter_memo_misses_total"]
    paths = ("broadcast", "engine", "fallback")
    rows = sum(counters[f"filter_batch_path_rows_total:{p}"] for p in paths)
    for path in paths:
        out[f"filter.rows_{path}_share"] = (
            counters[f"filter_batch_path_rows_total:{path}"] / max(1, rows))
    out["filter.memo_hit_ratio"] = hits / max(1, hits + misses)
    rebuilds = counters["smbm_index_rebuilds_total"]
    out["smbm.index_rebuilds"] = rebuilds / roots
    out["smbm.rebuilds_per_write"] = rebuilds / max(
        1, out["smbm.writes"] * roots)
    out["codegen.cache_hits"] = counters["codegen_cache_hits_total"] / roots
    frames = counters["wal_frames_total"]
    out["wal.frames"] = frames / roots
    out["wal.bytes"] = counters["wal_bytes_written_total"] / roots
    out["wal.records_per_frame"] = (
        counters["wal_appends_total"] / max(1, frames))
    top = {**spans.phase_means(rec, "checkpoint"),
           **spans.phase_means(rec, "run")}
    out["checkpoint.ns"] = top.get("checkpoint.save", 0.0)
    out["checkpoint.snapshot_ns"] = top.get("checkpoint.snapshot", 0.0)
    restarts = run.restarts
    out["checkpoint.bytes"] = _median(restarts.checkpoint_bytes)
    read_ns = _median(restarts.read_ns)
    out["recovery.read_ns"] = read_ns
    out["recovery.replay_ns"] = (
        _median([s for _at, s in restarts.seconds]) * 1e9 - read_ns)
    out["recovery.replayed_records"] = _median(restarts.replayed)
    out["recovery.skipped_records"] = _median(restarts.skipped)
    out["admit.ns"] = spans.phase_means(rec, "setup").get("admit", 0.0)
    step = max(1, len(run.latencies) // 256)
    factor = _median([pace.factor(at, serving)
                      for at, _ns in run.latencies[::step]])
    for m in _spec()["per_layer"]:
        if m["unit"] == "ns":
            out[m["name"]] *= factor
    def scale(at, value):
        return pace.scale(at, value, serving)

    out["trace.untraced_ops_per_s"] = untraced.ops_per_s(scale)
    out["trace.traced_ops_per_s"] = run.ops_per_s(scale)
    out["trace.overhead_pct"] = (
        out["trace.untraced_ops_per_s"] / out["trace.traced_ops_per_s"]
        - 1) * 100
    out["trace.spans"] = len(rec.spans)
    return out


def _end_to_end(run: Run, pace,
                serving: str) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics scaled to the reference host speed, and the
    raw timings they came from.  Serving times scale by the probe for
    ``serving`` work; set-up and recovery are interpreter work."""
    def scaled(kind):
        return lambda at, value: pace.scale(at, value, kind)

    def unscaled(_at, value):
        return value

    metrics, raw = {}, {}
    for out, serve, oneshot in (
            (metrics, scaled(serving), scaled("interpreter")),
            (raw, unscaled, unscaled)):
        lat = sorted(serve(at, ns) for at, ns in run.latencies)
        out["ops_per_s"] = run.ops_per_s(serve)
        out["latency_p50_us"] = _percentile(lat, 0.5)
        out["latency_p90_us"] = _percentile(lat, 0.9)
        out["setup_s"] = _median([oneshot(at, s) for at, s in run.setup_s])
        out["recovery_s"] = _median(
            [oneshot(at, s) for at, s in run.restarts.seconds])
    metrics["mem_mb"] = run.mem_mb
    metrics["disk_bytes"] = _median(run.restarts.disk_bytes)
    return metrics, raw


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from pace import Pace

    spec = _spec()
    wanted = spec["per_layer" if traced else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    # masked is served mostly by the batch engine's numpy lane (when
    # numpy is installed; without it the engine runs plain ints).
    numpy_lane = (workload == "masked"
                  and importlib.util.find_spec("numpy") is not None)
    pace = Pace(arrays=numpy_lane)
    serving = "numpy" if numpy_lane else "interpreter"
    try:
        runs = _measure(workload, seed, seconds, traced, pace, serving,
                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pace.tick(force=True)
    raw: dict[str, float] = {}
    if traced:
        values = runs[-1].layers
    else:
        values, raw = _end_to_end(runs[0], pace, serving)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  "
          f"checked {sum(r.checked for r in runs)} outputs")
    for m in wanted:
        name = m["name"]
        unscaled = f"   (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<32} {values[name]:>16.6g} {m['unit']}{unscaled}")
    lat = runs[-1].latencies
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    print(f"  latency samples {len(lat)} ({beyond} beyond p90); "
          f"error_rate {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted})")
    mismatches = sum(r.mismatches for r in runs)
    for run in runs:
        for example in run.examples:
            print(f"  MISMATCH {example}", file=sys.stderr)
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if mismatches == 0 else 1


# -- many runs, each in its own process --------------------------------------------


def _child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1]) if lines else {"correct": False}
    result["returncode"] = proc.returncode
    return result


def run_all(seed: int, seconds: float, traced: bool) -> int:
    results = {w: _child(w, seed, seconds, traced) for w in WORKLOADS}
    ok = all(r["returncode"] == 0 and r.get("correct") for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def run_steady(workloads, repeats: int, seconds: float) -> int:
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    ok = True
    for workload in workloads:
        runs = [_child(workload, seed, seconds, False)
                for seed in range(1, repeats + 1)]
        ok = ok and all(r["returncode"] == 0 and r["correct"] for r in runs)
        print(f"== {workload}: {repeats} runs")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if "metrics" in r]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {name:<16} median {median:>14.6g} {m['unit']:<6} "
                  f"q1 {q1:>12.6g} q3 {q3:>12.6g} spread {spread:7.2%} "
                  f"(bound {m['bound']:.0%}) {flag}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run each workload N times (seeds 1..N) and "
                             "print medians and quartiles")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.steady:
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        return run_steady(chosen, args.steady, args.seconds)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
