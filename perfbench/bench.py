"""Set-up, timed loop, traced loop and metrics of one benchmark run.

An untraced run reports the end-to-end metrics; a traced run, made
separately, reports the per-layer ones.  Both do whole cycles of the
workload's op mix, never "as many ops as fit", so two runs with the same
arguments do identical work.

Times are host wall time from ``time.perf_counter``, scaled to the speed of
a reference host.  A shared 2-vCPU KVM guest on a 2.1 GHz Xeon ran the same
code up to 1.7 times slower for minutes at a time, which no run length
averages out: over ten unscaled beer-recovery runs, the distance between
the first and third quartiles was 48% of the median; scaled, 5-9%.  So a
fixed probe that runs no library code is timed before and after every op,
and each op's time is divided by how much slower than on the reference host
the probes either side of it ran.  The host wall times are printed on a
``#`` line before the result.

Stores are written under the checkout.  ``os.fsync`` does nothing while a
run lasts: disk and fsync latency are out of scope, as they would be on
tmpfs, wherever the checkout lives.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.obs import TRACER

from perfbench.tracing import Breakdown, Recorder
from perfbench.workloads import WORKLOADS, Workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds :func:`_probe` takes on the reference host (a 2-vCPU KVM guest on a
#: 2.1 GHz Xeon) at its usual speed.
PROBE_REFERENCE_S = 0.02


def _probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    Dictionary updates in a Python loop, then one pass over an 8 MB array:
    of the probes tried, this mix tracked the op times of all four workloads
    best.  It runs no ``repro`` code, so no change to the library can move
    it; only the host's speed does.  The collector is paused so that garbage
    an op left behind is not collected on the probe's time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(60_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        words = np.arange(1 << 20, dtype=np.uint64)
        int(np.bitwise_xor.reduce((words * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(7)))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _slowdown(before: float, after: float) -> float:
    """How much slower than the reference host this one ran, from the probes either side."""
    return (before + after) / (2 * PROBE_REFERENCE_S)


def _at_reference_speed(times: List[float], probes: List[float]) -> List[float]:
    """Each time divided by the slowdown of the probes before and after it."""
    return [t / _slowdown(before, after) for t, before, after in zip(times, probes, probes[1:])]


@dataclass(frozen=True)
class Metric:
    """A reported metric: its name and unit, and which direction is better."""

    name: str
    unit: str
    better: str
    #: Per-op value from a traced op's breakdown, outputs and library
    #: counters; ``None`` for metrics computed once per run.
    of_op: Optional[Callable[[Breakdown, Dict[str, float], Dict[str, float]], float]] = None


END_TO_END = (
    Metric("ops_per_s", "1/s", "higher"),
    Metric("op_p50_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)


def _total(name: str) -> Callable[..., float]:
    return lambda b, outputs, counters: b.total[name]


def _own(name: str) -> Callable[..., float]:
    return lambda b, outputs, counters: b.self_time[name]


def _attr(name: str, attr: str) -> Callable[..., float]:
    return lambda b, outputs, counters: b.attr_sum(name, attr)


def _output(name: str) -> Callable[..., float]:
    return lambda b, outputs, counters: outputs.get(name, 0)


def _counter(name: str) -> Callable[..., float]:
    return lambda b, outputs, counters: counters.get(name, 0)


def _einsim_kind(kind: str) -> Callable[..., float]:
    return lambda b, outputs, counters: b.seconds_where("einsim.execute", "kind", kind)


def _words_per_s(b: Breakdown, outputs: Dict[str, float], counters: Dict[str, float]) -> float:
    seconds = b.total["einsim.execute"]
    return b.attr_sum("einsim.execute", "words") / seconds if seconds else 0.0


def _put_growth(prefix: str) -> Callable[..., float]:
    """Mean time of the last tenth of puts over the first tenth (0 without puts)."""

    def growth(b: Breakdown, outputs: Dict[str, float], counters: Dict[str, float]) -> float:
        puts = [span.seconds for span in b.spans if span.name == prefix + ".put"]
        tenth = len(puts) // 10
        return sum(puts[-tenth:]) / sum(puts[:tenth]) if tenth else 0.0

    return growth


def _store_layout_metrics(version: str) -> List[Metric]:
    prefix = "store." + version
    return [
        Metric(f"{prefix}.{call}_s", "s", "lower", _total(f"{prefix}.{call}"))
        for call in ("open", "put", "keys", "contains", "get")
    ] + [Metric(prefix + ".put_growth", "ratio", "lower", _put_growth(prefix))]


#: Every per-layer metric, reported by every traced run.  A layer that a
#: workload does not reach reads 0 there.
PER_LAYER = (
    # repro.dram, on beer-recovery
    Metric("dram.build_s", "s", "lower", _total("dram.build")),
    Metric("dram.write_s", "s", "lower", _total("dram.write")),
    Metric("dram.pause_s", "s", "lower", _total("dram.pause")),
    Metric("dram.read_s", "s", "lower", _total("dram.read")),
    Metric("dram.words_written", "count", "lower", _attr("dram.write", "words")),
    Metric("dram.words_read", "count", "lower", _attr("dram.read", "words")),
    Metric("dram.pauses", "count", "lower", _attr("dram.pause", "pauses")),
    # repro.core, on beer-recovery
    Metric("core.discover_s", "s", "lower", _total("core.discover")),
    Metric("core.measure_s", "s", "lower", _total("core.measure")),
    Metric("core.measure_self_s", "s", "lower", _own("core.measure")),
    Metric("core.profile_s", "s", "lower", _total("core.profile")),
    Metric("core.solve_s", "s", "lower", _total("core.solve")),
    Metric("core.solve_nodes", "count", "lower", _output("core.solve_nodes")),
    Metric("core.candidates", "count", "lower", _output("core.candidates")),
    Metric(
        "core.words_per_pattern_min", "count", "higher", _output("core.words_per_pattern_min")
    ),
    # repro.einsim, on einsim-sweep
    Metric("einsim.execute_s", "s", "lower", _total("einsim.execute")),
    Metric("einsim.retention_s", "s", "lower", _einsim_kind("retention")),
    Metric("einsim.beep_s", "s", "lower", _einsim_kind("beep")),
    Metric("einsim.two_error_s", "s", "lower", _einsim_kind("two_error")),
    Metric("einsim.words_per_s", "1/s", "higher", _words_per_s),
    Metric("einsim.words", "count", "higher", _attr("einsim.execute", "words")),
    Metric(
        "einsim.miscorrected_words", "count", "lower", _attr("einsim.execute", "miscorrected")
    ),
    Metric(
        "einsim.uncorrectable_words", "count", "lower", _attr("einsim.execute", "uncorrectable")
    ),
    # repro.scenarios and its store calls, on einsim-sweep
    Metric("scenarios.expand_s", "s", "lower", _total("scenarios.expand")),
    Metric("scenarios.runner_self_s", "s", "lower", _own("scenarios.run")),
    Metric("store.open_s", "s", "lower", _total("store.open")),
    Metric(
        "store.lookup_s",
        "s",
        "lower",
        lambda b, outputs, counters: b.total["store.contains"] + b.total["store.get"],
    ),
    Metric("store.put_s", "s", "lower", _total("store.put")),
    # repro.store, on store-ingest
    *_store_layout_metrics("v1"),
    *_store_layout_metrics("v2"),
    Metric("store.appends", "count", "lower", _counter("store.appends")),
    Metric("store.bytes_appended", "bytes", "lower", _counter("store.bytes_appended")),
    Metric("store.lazy_record_loads", "count", "lower", _counter("store.lazy_record_loads")),
    Metric("store.index.loads", "count", "lower", _counter("store.index.loads")),
    # repro.sat, on sat-solve
    Metric("sat.solve_s", "s", "lower", _total("sat.solve")),
    Metric("sat.models", "count", "lower", _output("sat.models")),
    Metric("sat.solve_calls", "count", "lower", _output("sat.solve_calls")),
    Metric("sat.conflicts", "count", "lower", _output("sat.conflicts")),
    Metric("sat.propagations", "count", "lower", _output("sat.propagations")),
    Metric("sat.useful_model_ratio", "ratio", "higher", _output("sat.useful_model_ratio")),
    # every workload
    Metric("unattributed_s", "s", "lower", lambda b, outputs, counters: b.unattributed_s),
    Metric("trace_overhead", "ratio", "lower"),
    Metric("import_s", "s", "lower"),
)


@dataclass
class Tally:
    """Ops attempted and failed in a run, warm-up ops included."""

    attempted: int = 0
    failed: int = 0

    def attempt(self, call: Callable[..., Any], *args: Any) -> Any:
        """Return ``call(*args)``, or None after counting its exception as a failed op."""
        self.attempted += 1
        try:
            return call(*args)
        except Exception as error:  # any exception is a failed op
            self.failed += 1
            print(f"op failed: {type(error).__name__}: {error}", file=sys.stderr)
            return None


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: str,
    import_s: float,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Run one workload; returns the result object the benchmark prints."""
    factory = WORKLOADS[workload_name]
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=root)
    try:
        with _fsync_disabled():
            if trace:
                return _traced_run(factory, seed, seconds, workdir, root, import_s, smoke)
            return _timed_run(factory, seed, seconds, workdir, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _set_up(
    factory: Callable[..., Workload], seed: int, workdir: str, smoke: bool, tally: Tally
) -> Workload:
    """Generate the inputs, then warm up on the first ops of the cycle."""
    workload = factory(seed, smoke)
    directory = os.path.join(workdir, "warmup")
    for index in range(workload.warmup_ops):
        tally.attempt(workload.op, index, directory)
        shutil.rmtree(directory, ignore_errors=True)
    return workload


def _schedule(workload: Workload, seconds: float) -> range:
    cycles = max(1, round(seconds / workload.cycle_seconds))
    return range(cycles * workload.cycle_length)


def _timed_run(
    factory: Callable[..., Workload], seed: int, seconds: float, workdir: str, smoke: bool
) -> Dict[str, Any]:
    tally = Tally()
    setup_times: List[float] = []
    setup_probes = [_probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = _set_up(factory, seed, workdir, smoke, tally)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(_probe())

    failed_before = tally.failed
    op_times: List[float] = []
    gc.collect()
    probes = [_probe()]
    for index in _schedule(workload, seconds):
        start = time.perf_counter()
        tally.attempt(workload.op, index, os.path.join(workdir, f"op{index}"))
        op_times.append(time.perf_counter() - start)
        probes.append(_probe())

    completed = len(op_times) - (tally.failed - failed_before)
    scaled = _at_reference_speed(op_times, probes)
    print(
        f"# {workload.name}: {completed} of {len(op_times)} timed ops; host wall time: "
        f"{sum(op_times):.3f} s in ops, op_p50 {statistics.median(op_times):.4f} s, "
        f"setup {statistics.median(setup_times):.4f} s; host slowdown "
        f"{statistics.median(probes) / PROBE_REFERENCE_S:.3f}"
    )
    values = {
        "ops_per_s": completed / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "setup_s": statistics.median(_at_reference_speed(setup_times, setup_probes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _result(workload, tally, END_TO_END, values)


def _traced_run(
    factory: Callable[..., Workload],
    seed: int,
    seconds: float,
    workdir: str,
    root: str,
    import_s: float,
    smoke: bool,
) -> Dict[str, Any]:
    """Each op runs untraced, then traced; both must give the same answer.

    Per-layer times are scaled by the probes around the traced op; counts
    and ratios are not, and ``import_s`` stays host wall time.
    """
    tally = Tally()
    workload = _set_up(factory, seed, workdir, smoke, tally)
    recorder = Recorder()
    untraced_times: List[float] = []
    traced_times: List[float] = []
    plain_dir = os.path.join(workdir, "untraced")
    traced_dir = os.path.join(workdir, "traced")

    def paired(index: int) -> Dict[str, float]:
        before = _probe()
        start = time.perf_counter()
        expected = workload.op(index, plain_dir)
        untraced_seconds = time.perf_counter() - start
        between = _probe()
        TRACER.enable(record_events=False)
        try:
            with recorder.op(index):
                answer, outputs = workload.traced_op(index, traced_dir, recorder)
            counters = TRACER.counter_totals()
        finally:
            TRACER.disable()
        slowdown = _slowdown(between, _probe())
        if answer != expected or _tree_bytes(traced_dir) != _tree_bytes(plain_dir):
            raise AssertionError("the traced op disagrees with the untraced op")
        b = recorder.breakdown(index)
        untraced_times.append(untraced_seconds / _slowdown(before, between))
        traced_times.append(b.op_seconds / slowdown)
        return {
            m.name: _per_reference_speed(m, m.of_op(b, outputs, counters), slowdown)
            for m in PER_LAYER
            if m.of_op
        }

    per_op = []
    gc.collect()
    for index in _schedule(workload, seconds):
        metrics = tally.attempt(paired, index)
        if metrics is not None:
            per_op.append(metrics)
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)

    values = {
        m.name: statistics.median(op[m.name] for op in per_op) if per_op else 0.0
        for m in PER_LAYER
        if m.of_op
    }
    values["trace_overhead"] = (
        statistics.median(traced_times) / statistics.median(untraced_times)
        if traced_times
        else 0.0
    )
    values["import_s"] = import_s
    print(f"# {workload.name}: {len(per_op)} traced ops, per-layer medians over them")
    trace_dir = os.path.join(root, ".perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    recorder.write_jsonl(os.path.join(trace_dir, f"{workload.name}-seed{seed}.jsonl"))
    return _result(workload, tally, PER_LAYER, values)


def _result(
    workload: Workload, tally: Tally, metrics: Sequence[Metric], values: Dict[str, float]
) -> Dict[str, Any]:
    """The printed result; ``correct`` needs every op and the final check to pass."""
    correct = tally.failed == 0
    try:
        workload.final_check()
    except Exception as error:  # reported as an incorrect run
        print(f"final check failed: {type(error).__name__}: {error}", file=sys.stderr)
        correct = False
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
    }


def _per_reference_speed(metric: Metric, value: float, slowdown: float) -> float:
    """Scale a time, or a rate per second, to the reference host's speed."""
    if metric.unit == "s":
        return value / slowdown
    if metric.unit == "1/s":
        return value * slowdown
    return value


def _tree_bytes(directory: str) -> Dict[str, bytes]:
    """Every file under ``directory`` (lock files aside) by relative path."""
    contents = {}
    for parent, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".lock"):
                continue
            path = os.path.join(parent, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, directory)] = handle.read()
    return contents


def _no_fsync(fd: int) -> None:
    """Stands in for ``os.fsync`` during a run; the data stays in the page cache."""


@contextlib.contextmanager
def _fsync_disabled() -> Iterator[None]:
    original = os.fsync
    os.fsync = _no_fsync
    try:
        yield
    finally:
        os.fsync = original
