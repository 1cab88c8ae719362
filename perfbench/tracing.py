"""Layer spans recorded from outside the program.

The tracer wraps public functions of ``repro`` at fixed layer boundaries
(see :data:`TARGETS`) and keeps, per layer, the number of calls, the
total span time and the *self* time: a span's duration minus the time
its child spans cover.  Nothing is written inside the program; the
wrappers are installed by rebinding module and class attributes, and
removed the same way.

Spans are timed in the running thread's CPU time, not wall time.  The
threads of a process share one interpreter lock, and pool workers share
the machine's cores, so a wall-clock span would count time spent
waiting as the layer's own.  CPU time also lets the benchmark check its
accounting against a figure the spans do not produce: the CPU time the
operating system charged to the traced processes.

Spans nest per thread, so a multi-threaded process (the serve daemon)
keeps one stack per thread.  A forked child (a ``run_sweep`` pool
worker) starts from empty tables: each :class:`Tracer` registers an
at-fork hook, so the parent's spans are never counted twice.  Workers
write their tables to ``<spool>/<pid>.json`` after every chunk and the
benchmark merges those files when the sweep has ended.

A target that no longer exists (renamed or deleted) is recorded in
:attr:`Tracer.unmeasured` and its layer is reported as ``unmeasured``;
it never fails the run.

Which end-to-end metric each layer should move, and where:

* ``api.key`` — ``warm_runs_per_s`` on both sweeps, ``runs_per_s`` on
  ``analytic-grid``;
* ``lab.store`` — get: ``warm_runs_per_s``; put and flush:
  ``runs_per_s`` on ``analytic-grid`` (negligible on cold
  ``sim-adversarial``);
* ``api.report`` — ``warm_runs_per_s``, ``runs_per_s`` on
  ``analytic-grid``;
* ``core.prepare``, ``sim.loop``, ``analysis.finalize`` — ``runs_per_s``
  on ``sim-adversarial``, the latency tail on ``serve-mixed``; absent on
  ``analytic-grid``;
* ``chain.encode``/``chain.hash`` — ``runs_per_s`` on
  ``sim-adversarial`` and the fresh-shape tail of ``analytic-grid``;
* ``analysis.*`` — ``runs_per_s`` on ``analytic-grid``,
  ``latency_ms_p50`` on ``serve-mixed``;
* ``api.sweep.pool`` — ``runs_per_s`` on ``sim-adversarial``; no pool
  item runs on ``analytic-grid``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time
from typing import Any, Callable, Collection

#: (layer, "module:Qualified.name", counter) for every wrapped call.
#: ``counter`` names an extra per-call quantity: "bytes" adds
#: ``len(result)``, "events" adds the returned event count.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("api.key", "repro.api.sweep:run_key", ""),
    ("lab.store.get", "repro.lab.store:SqliteStore.get", ""),
    ("lab.store.put", "repro.lab.store:SqliteStore.put", ""),
    ("lab.store.flush", "repro.lab.store:SqliteStore.flush", ""),
    ("api.report.build", "repro.api.report:RunReport.from_result", ""),
    ("api.report.to_dict", "repro.api.report:RunReport.to_dict", ""),
    ("api.report.from_dict", "repro.api.report:RunReport.from_dict", ""),
    ("core.prepare", "repro.api.engine:Engine.open", ""),
    ("core.prepare.diameter", "repro.core.spec:compute_diameter_for_spec", ""),
    ("sim.loop", "repro.sim.scheduler:Scheduler.run", "events"),
    ("sim.loop", "repro.sim.scheduler:Scheduler.step", "events"),
    ("chain.encode", "repro.chain.ledger:canonical_encode", "bytes"),
    ("chain.hash", "repro.chain.ledger:Block.compute_hash", ""),
    ("analysis.finalize", "repro.sim.harness:SimulationHarness.collect", ""),
    ("analysis.lookup", "repro.analysis.engine:analyze_for_fast_path", ""),
    ("analysis.analyze", "repro.analysis.protocol:analyze_scenario", ""),
    ("analysis.synthesize", "repro.analysis.engine:synthesize_report", ""),
    ("api.sweep.pool", "repro.api.sweep:execute_chunk", ""),
)

#: Layers whose spans are a pool worker's root: the worker writes its
#: tables to the spool after each of these calls returns.
WORKER_ROOT = "api.sweep.pool"


class Tracer:
    """Per-layer call counts, span time and self time, in nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns) -> None:
        self.clock = clock
        self.unmeasured: set[str] = set()
        self.spool: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables: list[dict[str, list[int]]] = []
        self.extra: dict[str, int] = {}

    def _state(self) -> tuple[list[int], dict[str, list[int]]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return stack, local.table

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, counter: str = "") -> Callable:
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, table = tracer._state()
            stack.append(0)
            begin = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - begin
                child = stack.pop()
                row = table.get(layer)
                if row is None:
                    row = table[layer] = [0, 0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - child
                if counter == "bytes" and result is not None:
                    row[3] += len(result)
                elif counter == "events":
                    row[3] += result if isinstance(result, int) else int(result is not None)
                if stack:
                    stack[-1] += duration
                if layer == WORKER_ROOT and not stack and tracer.spool:
                    tracer._spool_chunk(args, result)

        return traced

    def install(self, targets: tuple[tuple[str, str, str], ...] = TARGETS) -> None:
        """Wrap every target; a missing one marks its layer unmeasured."""
        for layer, spec, counter in targets:
            try:
                self._patch(layer, spec, counter)
            except (ImportError, AttributeError, KeyError):
                self.unmeasured.add(layer)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, layer: str, spec: str, counter: str) -> None:
        module_name, _, qualname = spec.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".", 1)
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new: Any = staticmethod(self.wrap(layer, raw.__func__, counter))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(layer, raw.__func__, counter))
            else:
                new = self.wrap(layer, raw, counter)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(module, qualname)
        wrapped = self.wrap(layer, original, counter)
        # ``from m import f`` copies the binding, so rebind every module
        # of the package that holds the original function object.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)

    # -- pool workers --------------------------------------------------------

    def _spool_chunk(self, args: tuple, result: Any) -> None:
        """Worker side: count the chunk's pickled bytes, then write the
        cumulative tables where the parent will find them."""
        payloads = args[0] if args else ()
        sent = len(pickle.dumps(list(payloads), pickle.HIGHEST_PROTOCOL))
        returned = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        self.extra["pool.pickle_bytes"] = self.extra.get("pool.pickle_bytes", 0) + sent + returned
        self.extra["pool.items"] = self.extra.get("pool.items", 0) + len(payloads)
        assert self.spool is not None
        path = os.path.join(self.spool, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)

    def snapshot(self) -> dict[str, Any]:
        """Merged tables of every thread: ``{"layers": {layer: [calls,
        total_ns, self_ns, counter]}, "extra": {...}}``."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, row in list(table.items()):
                into = merged.setdefault(layer, [0, 0, 0, 0])
                for i, value in enumerate(row):
                    into[i] += value
        return {"layers": merged, "extra": dict(self.extra)}

    def take(self) -> dict[str, Any]:
        """:meth:`snapshot`, then start every table from zero."""
        taken = self.snapshot()
        with self._lock:
            for table in self._tables:
                table.clear()
        self.extra.clear()
        return taken


class Profile:
    """Accumulated tables from any number of processes and passes."""

    def __init__(self) -> None:
        self.layers: dict[str, list[int]] = {}
        self.extra: dict[str, float] = {}

    def add(self, snapshot: dict[str, Any]) -> None:
        for layer, row in snapshot["layers"].items():
            into = self.layers.setdefault(layer, [0, 0, 0, 0])
            for i, value in enumerate(row):
                into[i] += value
        for name, value in snapshot.get("extra", {}).items():
            self.extra[name] = self.extra.get(name, 0) + value

    def drain_spool(self, spool: str) -> None:
        """Merge and delete every worker file in ``spool``."""
        for name in sorted(os.listdir(spool)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(spool, name)
            with open(path, encoding="utf-8") as handle:
                self.add(json.load(handle))
            os.remove(path)

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0, 0, 0])[0]

    def total_ns(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0, 0, 0])[1]

    def self_ns(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0, 0, 0])[2]

    def counter(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0, 0, 0])[3]

    def self_total_ns(self) -> int:
        return sum(row[2] for row in self.layers.values())

    def us(self, layer: str) -> float:
        """Mean self time per call, in microseconds."""
        calls = self.calls(layer)
        return self.self_ns(layer) / calls / 1e3 if calls else 0.0

    def ms(self, *layers: str) -> float:
        """Total self time of ``layers``, in milliseconds."""
        return sum(self.self_ns(layer) for layer in layers) / 1e6

    def metrics(
        self, unmeasured: Collection[str] = (), pool: tuple[int, int] | None = None
    ) -> dict[str, float | None]:
        """Every per-layer metric that comes from the span tables, by
        layer.  A metric is ``None`` when one of the layers it is taken
        from is in ``unmeasured``.  ``pool`` is ``(sweep wall ns,
        workers)`` of the pooled sweeps; without it (no sweep ran on a
        pool, or the daemon, which runs engines on threads) the pool
        metrics are 0."""
        lookups = self.calls("analysis.lookup")
        events = self.counter("sim.loop")
        encoded = self.counter("chain.encode")
        pool_busy_ns = self.total_ns(WORKER_ROOT)
        pool_wall_ns, workers = pool if pool and pool[0] else (0, 1)
        by_layers: dict[tuple[str, ...], dict[str, float]] = {
            ("api.key",): {
                "api.key.calls": self.calls("api.key"),
                "api.key.us": self.us("api.key"),
            },
            ("lab.store.get",): {"lab.store.get.us": self.us("lab.store.get")},
            ("lab.store.put",): {"lab.store.put.us": self.us("lab.store.put")},
            ("lab.store.flush",): {"lab.store.flush.ms": self.ms("lab.store.flush")},
            ("api.report.build",): {"api.report.build.us": self.us("api.report.build")},
            ("api.report.to_dict",): {"api.report.to_dict.us": self.us("api.report.to_dict")},
            ("api.report.from_dict",): {
                "api.report.from_dict.us": self.us("api.report.from_dict"),
            },
            ("core.prepare",): {"core.prepare.ms": self.ms("core.prepare")},
            ("core.prepare.diameter",): {
                "core.prepare.diameter.ms": self.ms("core.prepare.diameter"),
            },
            ("sim.loop",): {
                "sim.loop.ms": self.ms("sim.loop"),
                "sim.loop.us_per_event": (
                    self.self_ns("sim.loop") / events / 1e3 if events else 0.0
                ),
            },
            ("chain.encode",): {
                "chain.encode.calls": self.calls("chain.encode"),
                "chain.encode.bytes": encoded,
                "chain.encode.ms": self.ms("chain.encode"),
                "chain.encode.ns_per_byte": (
                    self.self_ns("chain.encode") / encoded if encoded else 0.0
                ),
            },
            ("chain.hash",): {"chain.hash.ms": self.ms("chain.hash")},
            ("analysis.finalize",): {"analysis.finalize.ms": self.ms("analysis.finalize")},
            ("analysis.lookup", "analysis.analyze"): {
                "analysis.analyze.calls": lookups,
                "analysis.analyze.ms": self.ms("analysis.lookup", "analysis.analyze"),
                "analysis.memo.hit_ratio": (
                    1 - self.calls("analysis.analyze") / lookups if lookups else 0.0
                ),
            },
            ("analysis.synthesize",): {
                "analysis.synthesize.calls": self.calls("analysis.synthesize"),
                "analysis.synthesize.ms": self.ms("analysis.synthesize"),
            },
            (WORKER_ROOT,): {
                "pool.busy_ratio": (
                    pool_busy_ns / (pool_wall_ns * workers) if pool_wall_ns else 0.0
                ),
                "pool.overhead_ms": (
                    (pool_wall_ns - pool_busy_ns / workers) / 1e6 if pool_wall_ns else 0.0
                ),
                "pool.items": int(self.extra.get("pool.items", 0)),
                "pool.pickle_bytes": int(self.extra.get("pool.pickle_bytes", 0)),
            },
        }
        return {
            name: None if any(layer in unmeasured for layer in layers) else value
            for layers, group in by_layers.items()
            for name, value in group.items()
        }


#: Per-layer metrics of the serve daemon, taken from its clients and
#: ``/v1/status``; a sweep has no daemon and reports them as 0.
SERVE_METRICS = (
    "serve.submit.ms_p50",
    "serve.wait.ms_p50",
    "serve.latency.cached.ms_p50",
    "serve.latency.analytic.ms_p50",
    "serve.latency.simulated.ms_p50",
    "serve.executed",
    "serve.analytic",
    "serve.cache_hits",
)
