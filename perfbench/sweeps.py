"""The two ``run_sweep`` workloads: ``sim-adversarial`` and ``analytic-grid``.

One *rep* runs one batch (see :mod:`perfbench.workloads`) through
``repro.api.sweep.run_sweep`` into a fresh SQLite store (the cold
sweep), then re-runs the same batch against that store
:data:`WARM_PASSES` times (the warm sweep; every item must be a hit and
no engine may run).  Warm passes get freshly generated scenario
objects, so run-key canonicalisation is paid again as it would be in a
new process.

Untraced runs make a number of reps fixed by ``--seconds`` (see
:func:`timed_reps`) and report medians over reps.  The cold sweep and
the warm passes of a rep are each bracketed by reference passes and
their times scaled to nominal host speed (:mod:`perfbench.calibration`).
Traced runs make :data:`TRACE_PAIRS` pairs of one untraced and one
traced rep, so the per-layer counts come from a fixed set of batches
and repeat exactly; the tracing overhead is the traced reps' median
calibrated wall over the untraced reps', minus one.

Trace accounting: spans are timed in thread CPU time, and a traced rep
also takes the CPU time the operating system charged this process
(``time.process_time_ns``) and its reaped pool workers
(``RUSAGE_CHILDREN``; ``run_sweep`` joins its pool before it returns).
That CPU time is the busy time, and ``other`` is busy time minus every
layer's self time: what no span covers, such as pickling and the pool's
own threads.  On each side, parent and workers, the layers' self times
must not exceed the charged CPU time by more than
:data:`ACCOUNTING_TOLERANCE` of it.
"""

from __future__ import annotations

import inspect
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from random import Random
from typing import Any

from perfbench import calibration, checks, tracing, workloads
from perfbench.workloads import Item
from repro.api.engine import get_engine
from repro.api.sweep import run_key, run_sweep
from repro.lab.store import SqliteStore

#: Warm passes per rep, enough for the warm timing to resolve.
WARM_PASSES = {"sim-adversarial": 8, "analytic-grid": 2}
#: Rep 0 pays the process's first-use costs (worker imports, the shape
#: memo's hot shapes); it is checked and digested but not timed.
WARMUP_REPS = 1
MIN_TIMED_REPS = 5
#: Seconds one rep takes on a 2-core machine: a run makes enough reps to
#: measure for about ``--seconds`` there, and the same reps everywhere.
NOMINAL_REP_S = {"sim-adversarial": 2.0, "analytic-grid": 1.4}
#: Cold runs whose latency an untraced run must collect, so that even
#: the p99 in the meta line has ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
TRACE_PAIRS = 3
#: Items of batch 0 of ``analytic-grid`` re-run on the simulator.
SIMULATED_SAMPLE = 8
#: Trace accounting: the layers' self times may exceed the CPU time
#: charged to the traced processes by at most this share of it (plus
#: two clock ticks for the operating system's rounding).
ACCOUNTING_TOLERANCE = 0.01
TICK_NS = 1e9 / os.sysconf("SC_CLK_TCK")


def sweep_options() -> dict[str, Any]:
    """``fast_path=True`` while ``run_sweep`` still offers the flag;
    once the closed form is the default the flag is gone and the same
    workload runs without it."""
    if "fast_path" in inspect.signature(run_sweep).parameters:
        return {"fast_path": True}
    return {}


def timed_reps(workload: str, seconds: float) -> int:
    """Timed reps of an untraced run: a function of the arguments only,
    so the same seed and ``--seconds`` give the same inputs."""
    return max(
        MIN_TIMED_REPS,
        math.ceil(MIN_LATENCY_SAMPLES / workloads.BATCH_SIZES[workload]),
        round(seconds / NOMINAL_REP_S[workload]),
    )


def analytic(sweep: Any) -> int:
    """Runs a sweep answered in closed form; a ``SweepReport`` without
    the counter (once the closed form is folded into the one resolution
    path) is read as reporting none separately."""
    return getattr(sweep, "analytic", 0)


def children_cpu_ns() -> int:
    """CPU time charged to this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def cpu_now() -> tuple[int, int]:
    """CPU time charged to this process and to its reaped children."""
    return time.process_time_ns(), children_cpu_ns()


def cpu_since(start: tuple[int, int]) -> tuple[int, int]:
    now = cpu_now()
    return now[0] - start[0], now[1] - start[1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class Timing:
    """What one timed rep measured, and its calibration scales."""

    items: int
    cold_ns: int
    warm_ns: list[int]
    latencies_s: list[float]
    """Each cold run's own ``wall_seconds``."""
    cold_scale: float
    warm_scale: float


class SweepRun:
    """Everything one invocation measured, checked and counted."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.batch = workloads.BATCHES[workload]
        self.options = sweep_options()
        self.check = checks.Check()
        self.attempted = 0
        self.failed = 0
        self.timed: list[Timing] = []
        self.references: list[float] = []
        self.rep_walls: dict[bool, list[float]] = {False: [], True: []}
        self.classes: dict[str, int] = {}
        self.batch_zero: list[tuple[Item, str, dict]] = []
        # Traced reps only: exact counts and the merged span tables.
        self.profile = tracing.Profile()
        self.paths = {"simulated": 0, "analytic": 0, "cached": 0}
        self.events_fired = 0
        self.published_bytes = 0
        self.store_lookups = 0
        self.store_hits = 0
        self.parent_self_ns = 0
        self.parent_cpu_ns = 0
        self.worker_cpu_ns = 0
        self.pool_wall_ns = 0
        self.pool_workers = 0
        self.pool_executed = 0

    # -- one rep -------------------------------------------------------------

    def rep(self, rep: int, tracer: tracing.Tracer | None = None) -> None:
        items = self.batch(self.seed, rep)
        pairs = [(item.engine, item.scenario) for item in items]
        warm_pairs = [
            [(item.engine, item.scenario) for item in self.batch(self.seed, rep)]
            for _ in range(WARM_PASSES[self.workload])
        ]
        path = os.path.join(self.workdir, f"rep{rep}.sqlite")
        store = SqliteStore(path)
        # Reference passes before the cold sweep, between it and the
        # warm passes, and after them; outside the CPU-time windows of
        # the trace accounting.
        chain = calibration.Chain()
        try:
            if tracer is not None:
                tracer.install()
            chain.mark()
            cpu = cpu_now()
            begin = time.perf_counter_ns()
            cold = run_sweep(pairs, store=store, **self.options)
            cold_ns = time.perf_counter_ns() - begin
            cpu = cpu_since(cpu)
            chain.mark()
            warm_cpu = cpu_now()
            warm_reports = []
            warm_ns = []
            for passes in warm_pairs:
                begin = time.perf_counter_ns()
                warm_reports.append(run_sweep(passes, store=store, **self.options))
                warm_ns.append(time.perf_counter_ns() - begin)
            warm_cpu = cpu_since(warm_cpu)
            chain.mark()
            cpu = (cpu[0] + warm_cpu[0], cpu[1] + warm_cpu[1])
        finally:
            if tracer is not None:
                tracer.uninstall()
            store.close()
            for suffix in ("", "-wal", "-shm", "-journal"):
                if os.path.exists(path + suffix):
                    os.remove(path + suffix)
        if tracer is not None:
            self._absorb_trace(tracer, cold, warm_reports, cpu, len(items))
        cold_scale, warm_scale = chain.scales()
        self.references.extend(chain.refs)
        if rep >= WARMUP_REPS:
            self.rep_walls[tracer is not None].append(
                (cold_ns * cold_scale + sum(warm_ns) * warm_scale) / 1e9
            )
        if tracer is None and rep >= WARMUP_REPS:
            self.timed.append(Timing(
                len(items), cold_ns, warm_ns, [r.wall_seconds for r in cold.reports],
                cold_scale, warm_scale,
            ))
        self._check_rep(rep, items, cold, warm_reports)

    def _check_rep(self, rep: int, items: list[Item], cold: Any, warm_reports: list[Any]) -> None:
        check = self.check
        self.attempted += len(items) * (1 + len(warm_reports))
        self.failed += len(cold.failures) + sum(len(w.failures) for w in warm_reports)
        for item in items:
            self.classes[item.cls] = self.classes.get(item.cls, 0) + 1
        check.expect(not cold.failures, f"rep {rep}: {len(cold.failures)} cold runs failed")
        check.expect(len(cold.reports) == len(items), f"rep {rep}: cold sweep lost reports")
        cold_dicts = [report.to_dict() for report in cold.reports]
        keys = [run_key(item.engine, item.scenario) for item in items]
        for item, key, report in zip(items, keys, cold_dicts):
            check.theorems(item, report)
        for index, warm in enumerate(warm_reports):
            check.expect(
                warm.cached == len(items) and warm.executed == 0 and analytic(warm) == 0,
                f"rep {rep} warm pass {index}: {warm.cached} hits, {warm.executed} "
                f"executed, {analytic(warm)} analytic of {len(items)}",
            )
            check.expect(len(warm.reports) == len(items), f"rep {rep}: warm sweep lost reports")
            for key, expected, actual in zip(keys, cold_dicts, warm.reports):
                check.same(key, expected, actual.to_dict(), f"rep {rep} warm vs cold")
        if rep == 0:
            self.batch_zero = list(zip(items, keys, cold_dicts))

    def _absorb_trace(
        self, tracer: tracing.Tracer, cold: Any, warm_reports: list[Any],
        cpu: tuple[int, int], size: int,
    ) -> None:
        parent = tracer.take()
        self.profile.add(parent)
        self.profile.drain_spool(tracer.spool or "")
        self.parent_self_ns += sum(row[2] for row in parent["layers"].values())
        self.parent_cpu_ns += cpu[0]
        self.worker_cpu_ns += cpu[1]
        for sweep in [cold, *warm_reports]:
            self.store_lookups += size
            self.store_hits += sweep.cached
            self.paths["cached"] += sweep.cached
        self.paths["analytic"] += analytic(cold)
        self.paths["simulated"] += cold.executed
        if cold.mode == "process-pool":
            self.pool_wall_ns += int(cold.wall_seconds * 1e9)
            self.pool_workers = cold.workers
            self.pool_executed += cold.executed
        for report in cold.reports:
            # A closed-form report states the events a simulation would
            # have fired; only simulated runs fire them.
            if report.extra.get("path") != "analytic":
                self.events_fired += report.events_fired
            self.published_bytes += report.published_bytes

    # -- after the reps ------------------------------------------------------

    def finish(self) -> str:
        """Run the batch-0 oracles; returns the batch-0 digest."""
        check = self.check
        value = checks.digest((key, checks.comparable(report)) for _, key, report in self.batch_zero)
        check.digest(self.workload, self.seed, value)
        item, key, report = self.batch_zero[0]
        check.expect(checks.self_test(item, key, report), "self-test: a corrupted report passed")
        if self.workload == "analytic-grid":
            herlihy = get_engine(workloads.ENGINE)
            sample = Random(workloads.stream_seed("oracle", self.seed)).sample(
                self.batch_zero, SIMULATED_SAMPLE
            )
            for item, key, report in sample:
                simulated = herlihy.run(item.scenario).to_dict()
                check.same(key, simulated, report, "analytic vs simulated herlihy")
        return value

    def end_to_end(self, calibrated: bool = True) -> dict[str, float]:
        """Medians over the timed reps, calibrated to nominal host speed
        (:mod:`perfbench.calibration`) or as measured."""
        cold_rates, warm_rates, latencies_ms = [], [], []
        for t in self.timed:
            cold, warm = (t.cold_scale, t.warm_scale) if calibrated else (1.0, 1.0)
            cold_rates.append(t.items / (t.cold_ns * cold / 1e9))
            warm_rates.extend(t.items / (ns * warm / 1e9) for ns in t.warm_ns)
            latencies_ms.extend(seconds * 1000 * cold for seconds in t.latencies_s)
        return {
            "runs_per_s": statistics.median(cold_rates),
            "warm_runs_per_s": statistics.median(warm_rates),
            "latency_ms_p50": percentile(latencies_ms, 0.50),
            "latency_ms_p95": percentile(latencies_ms, 0.95),
            "latency_ms_p99": percentile(latencies_ms, 0.99),
        }

    def per_layer(self, unmeasured: list[str]) -> dict[str, float | None]:
        p = self.profile
        pool_items = int(p.extra.get("pool.items", 0))
        self.check.expect(
            pool_items == self.pool_executed,
            f"trace: workers reported {pool_items} items, the pool executed {self.pool_executed}",
        )
        worker_self_ns = p.self_total_ns() - self.parent_self_ns
        for side, self_ns, cpu_ns in (
            ("parent", self.parent_self_ns, self.parent_cpu_ns),
            ("pool worker", worker_self_ns, self.worker_cpu_ns),
        ):
            self.check.expect(
                self_ns <= cpu_ns * (1 + ACCOUNTING_TOLERANCE) + 2 * TICK_NS,
                f"trace: {side} layer self times {self_ns / 1e6:.1f} ms exceed "
                f"the {cpu_ns / 1e6:.1f} ms of CPU time charged",
            )
        busy_ns = self.parent_cpu_ns + self.worker_cpu_ns
        return {
            **p.metrics(unmeasured, (self.pool_wall_ns, self.pool_workers)),
            "lab.store.hit_ratio": self.store_hits / self.store_lookups,
            "sim.loop.events": self.events_fired,
            **dict.fromkeys(tracing.SERVE_METRICS, 0),
            "runs.simulated": self.paths["simulated"],
            "runs.analytic": self.paths["analytic"],
            "runs.cached": self.paths["cached"],
            "report.published_bytes": self.published_bytes,
            "other.ms": (busy_ns - p.self_total_ns()) / 1e6,
            "trace.busy_ms": busy_ns / 1e6,
            "trace.overhead_frac": (
                statistics.median(self.rep_walls[True]) / statistics.median(self.rep_walls[False]) - 1
            ),
        }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    sweep = SweepRun(workload, seed, workdir)
    if trace:
        tracer = tracing.Tracer()
        tracer.spool = os.path.join(workdir, "spool")
        os.makedirs(tracer.spool, exist_ok=True)
        for pair in range(TRACE_PAIRS):
            sweep.rep(2 * pair)
            sweep.rep(2 * pair + 1, tracer)
    else:
        tracer = None
        for rep in range(WARMUP_REPS + timed_reps(workload, seconds)):
            sweep.rep(rep)
    value = sweep.finish()
    counts: dict[str, Any] = {
        "timed_reps": len(sweep.rep_walls[False]) + len(sweep.rep_walls[True]),
        "items_per_batch": len(sweep.batch_zero),
        "items_by_class": sweep.classes,
    }
    result: dict[str, Any] = {
        "check": sweep.check,
        "attempted": sweep.attempted,
        "failed": sweep.failed,
        "digest": value,
        "counts": counts,
        "options": sweep.options,
        "references": sweep.references,
    }
    if tracer is None:
        metrics = sweep.end_to_end()
        raw = sweep.end_to_end(calibrated=False)
        counts["latency_samples"] = sum(len(t.latencies_s) for t in sweep.timed)
        counts["latency_ms_p99"] = metrics.pop("latency_ms_p99")
        raw.pop("latency_ms_p99")
        result["metrics"], result["raw"] = metrics, raw
    else:
        result["metrics"] = sweep.per_layer(sorted(tracer.unmeasured))
        result["unmeasured"] = sorted(tracer.unmeasured)
        result["layers"] = sweep.profile.layers
    return result
