"""The ``serve-mixed`` workload: a ``python -m repro serve`` subprocess.

The daemon runs with a SQLite store, ``--concurrency`` = nproc, the
rate limit off and the fast path on (while ``--help`` offers it).  A
closed loop of :data:`CLIENTS` client threads each submit a request and
wait for it to settle before sending the next; each client follows its
own fixed sequence from :func:`perfbench.workloads.serve_requests`.

Set-up time is daemon start until ``/v1/healthz`` answers, taken over
:data:`SETUP_SAMPLES` starts (the last start serves the stream).  After
the stream, every distinct request is resubmitted :data:`WARM_PASSES`
times (the warm passes): each must be a cache hit, and the daemon's
``executed`` counter must not move.  The daemon is always reaped, also
when a run fails.

Every figure is calibrated to nominal host speed
(:mod:`perfbench.calibration`): each set-up sample by reference passes
before and after it, and each window of the stream and of the warm
passes by a sampler process's passes during it.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

from perfbench import calibration, checks, sweeps, workloads
from perfbench.sweeps import percentile
from perfbench.tracing import Profile
from repro.api.sweep import run_sweep
from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.http import build_parser

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CLIENTS = 2
SETUP_SAMPLES = 11
#: Requests per client per second of ``--seconds``: about the rate of a
#: 2-core machine, so a run measures for roughly ``--seconds`` while its
#: request count stays a function of its arguments alone.
NOMINAL_RATE = 40
#: At least this many requests per client, so that even the p99 in the
#: meta line has ten samples beyond it.
MIN_REQUESTS = 500
#: Throughput is the median rate over this many consecutive windows of
#: completions, so a burst of load from outside that slows part of a
#: run does not set its figure.  Each window is calibrated on its own,
#: so windows must be shorter than the host's speed phases: about a
#: second each at ``--seconds 20``.  Over the same seven seeds, five
#: windows left the stream's rate and p95 spread 13% and 15%, twenty
#: 8% and 9%.
WINDOWS = 20
#: Warm passes over the stream's distinct requests: enough that the warm
#: windows last about as long as the stream's (with three, the warm
#: rate's quartile spread over six seeds reached 15%).
WARM_PASSES = 6
#: Requests per client of each stream of a traced run (fixed, so the
#: per-layer counts repeat exactly).
TRACE_REQUESTS = 300
#: Requests per client whose reports enter the digest.
DIGEST_PREFIX = 250
START_TIMEOUT_S = 60.0
WAIT_TIMEOUT_S = 60.0


def serve_options() -> list[str]:
    """``--fast-path`` while ``repro serve --help`` still offers it."""
    return ["--fast-path"] if "--fast-path" in build_parser().format_help() else []


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def die_with_parent() -> None:
    """In the daemon, before exec: have Linux send SIGTERM when the
    benchmark process dies, so not even a killed run leaks a daemon."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


class Daemon:
    """One ``repro serve`` subprocess; :meth:`stop` always reaps it."""

    def __init__(self, workdir: str, name: str, trace_dump: str | None = None) -> None:
        self.store = os.path.join(workdir, f"{name}.sqlite")
        self.log = os.path.join(workdir, f"{name}.log")
        self.trace_dump = trace_dump
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Start the daemon; returns seconds until ``/v1/healthz`` answers."""
        args = [
            "--host", "127.0.0.1", "--port", "0", "--store", self.store,
            "--concurrency", str(os.cpu_count() or 2), "--rate", "0",
            *serve_options(),
        ]
        if self.trace_dump:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), self.trace_dump, *args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        begin = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=die_with_parent,
            )
        deadline = begin + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start: {self.tail()}")
            with open(self.log, encoding="utf-8", errors="replace") as log:
                for line in log:
                    if "listening on http://" in line:
                        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        client = ServeClient("127.0.0.1", self.port, timeout=5.0)
        while not client.healthy():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon never answered /v1/healthz: {self.tail()}")
            time.sleep(0.005)
        return time.perf_counter() - begin

    def tail(self) -> str:
        try:
            with open(self.log, encoding="utf-8", errors="replace") as log:
                return log.read()[-2000:]
        except OSError:
            return "(no log)"

    def dump_trace(self) -> dict:
        """Ask a traced daemon for its tables and wait for the file."""
        assert self.proc is not None and self.trace_dump is not None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30
        while not os.path.exists(self.trace_dump):
            if time.perf_counter() > deadline:
                raise RuntimeError("traced daemon wrote no span dump")
            time.sleep(0.01)
        with open(self.trace_dump, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc = None
        for suffix in ("", "-wal", "-shm", "-journal"):
            if os.path.exists(self.store + suffix):
                os.remove(self.store + suffix)


class Sample:
    """One settled request as the client saw it."""

    __slots__ = ("client", "index", "kind", "answer", "key", "report", "latency", "submit", "wait",
                 "start", "done", "ok")

    def __init__(self, client: int, index: int, kind: str) -> None:
        self.client, self.index, self.kind = client, index, kind
        self.answer = ""
        self.key = ""
        self.report: dict | None = None
        self.latency = self.submit = self.wait = 0.0
        self.start = self.done = 0.0
        """``time.perf_counter()`` at submit and when settled."""
        self.ok = False


def request(client: Any, item: workloads.Item, payload: dict, sample: Sample) -> None:
    begin = sample.start = time.perf_counter()
    status, doc = client.submit(payload, engine=item.engine)
    submitted = time.perf_counter()
    sample.submit = submitted - begin
    if status == 200:
        sample.answer, sample.key = "cached", doc["key"]
        sample.report = doc.get("report")
        sample.ok = doc.get("report") is not None
    elif status == 202:
        sample.answer, sample.key = doc["status"], doc["key"]
        final = client.wait_settled(doc["key"], timeout=WAIT_TIMEOUT_S)
        sample.wait = time.perf_counter() - submitted
        sample.report = final.get("report")
        sample.ok = final["status"] == "settled" and sample.report is not None
    else:
        sample.answer = f"http-{status}"
    sample.latency = time.perf_counter() - begin


def stream(port: int, plans: list[list[tuple[str, workloads.Item, dict]]]) -> tuple[list[Sample], float]:
    """Drive every plan to its end in a closed loop; returns every
    sample and the wall time."""
    samples: list[list[Sample]] = [[] for _ in plans]
    began = time.perf_counter()

    def loop(client_id: int) -> None:
        client = ServeClient("127.0.0.1", port, client_id=f"bench-{client_id}", timeout=WAIT_TIMEOUT_S)
        for index, (kind, item, payload) in enumerate(plans[client_id]):
            sample = Sample(client_id, index, kind)
            try:
                request(client, item, payload, sample)
            except (OSError, ValueError, KeyError, ReproError) as error:
                sample.answer = f"error {error!r}"
            sample.done = time.perf_counter()
            samples[client_id].append(sample)

    # Daemon threads: a run cut short by the run's deadline must not wait
    # for clients that are still polling.
    threads = [
        threading.Thread(target=loop, args=(c,), name=f"bench-client-{c}", daemon=True)
        for c in range(len(plans))
    ]
    # The clients keep every settled report for the checks.  With this
    # process's garbage collector on, its full collections over them
    # stall both clients: on a 2-core VM they cut the warm rate by a
    # third, measuring the load generator instead of the daemon.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    return [s for per_client in samples for s in per_client], time.perf_counter() - began


class ServeRun:
    """The checks and the reports of one serve run's streams."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.check = checks.Check()
        self.attempted = 0
        self.failed = 0
        self.fresh: dict[str, tuple[workloads.Item, dict]] = {}
        self.digest_keys: set[str] = set()

    def plans(self, count: int) -> list[list[tuple[str, workloads.Item, dict]]]:
        plans = []
        for client in range(CLIENTS):
            requests = workloads.serve_requests(self.seed, client)
            plan = []
            for _ in range(count):
                kind, item = next(requests)
                plan.append((kind, item, item.scenario.to_dict()))
            plans.append(plan)
        return plans

    def absorb(self, samples: list[Sample], plans: list) -> None:
        """Check one stream's answers and remember its fresh reports."""
        check = self.check
        expected = {"simulated": ("accepted",), "analytic": ("analytic", "accepted"), "resubmit": ("cached",)}
        self.attempted += len(samples)
        for sample in samples:
            if not sample.ok:
                self.failed += 1
                check.expect(False, f"request {sample.client}/{sample.index} ended {sample.answer}")
                continue
            check.expect(
                sample.answer in expected[sample.kind],
                f"request {sample.client}/{sample.index} ({sample.kind}) answered {sample.answer}",
            )
            item = plans[sample.client][sample.index][1]
            check.theorems(item, sample.report)
            if sample.kind == "resubmit":
                continue
            held = self.fresh.get(sample.key)
            if held is None:
                self.fresh[sample.key] = (item, sample.report)
            else:
                check.same(sample.key, held[1], sample.report, "serve stream vs earlier stream")
            if sample.index < DIGEST_PREFIX:
                self.digest_keys.add(sample.key)

    def warm_pass(self, daemon: Daemon, samples: list[Sample], plans: list, passes: int) -> list[Sample]:
        """Resubmit every distinct request of the stream ``passes``
        times; returns the resubmissions."""
        status = ServeClient("127.0.0.1", daemon.port)
        executed = status.status()["executed"]
        warm_plans: list[list] = [[] for _ in range(CLIENTS)]
        for sample in samples:
            if sample.ok and sample.kind != "resubmit":
                warm_plans[sample.client].append(("resubmit",) + plans[sample.client][sample.index][1:])
        warm_plans = [plan * passes for plan in warm_plans]
        warm, _ = stream(daemon.port, warm_plans)
        self.attempted += len(warm)
        for sample in warm:
            item = warm_plans[sample.client][sample.index][1]
            if not sample.ok or sample.answer != "cached":
                self.failed += 1
                self.check.expect(False, f"warm resubmission answered {sample.answer}")
                continue
            self.check.same(sample.key, self.fresh[sample.key][1], sample.report, "warm vs cold serve")
            self.check.theorems(item, sample.report)
        moved = status.status()["executed"] - executed
        self.check.expect(moved == 0, f"warm pass executed {moved} engines")
        return warm

    def finish(self) -> str:
        """Oracles over every fresh report: ``run_sweep`` must produce
        the same bytes; then the digest of the first requests."""
        keys = sorted(self.fresh)
        pairs = [(self.fresh[key][0].engine, self.fresh[key][0].scenario) for key in keys]
        swept = run_sweep(pairs, **sweeps.sweep_options())
        self.check.expect(not swept.failures, f"oracle sweep: {len(swept.failures)} runs failed")
        for key, report in zip(keys, swept.reports):
            self.check.same(key, report.to_dict(), self.fresh[key][1], "serve vs run_sweep")
        value = checks.digest(
            (key, checks.comparable(self.fresh[key][1])) for key in sorted(self.digest_keys)
        )
        self.check.digest("serve-mixed", self.seed, value)
        key = keys[0]
        self.check.expect(
            checks.self_test(self.fresh[key][0], key, self.fresh[key][1]),
            "self-test: a corrupted report passed",
        )
        return value


def status_counts(daemon: Daemon) -> dict[str, int]:
    doc = ServeClient("127.0.0.1", daemon.port).status()
    return {name: doc[name] for name in ("executed", "analytic", "cache_hits", "submitted")}


def windowed(samples: list[Sample], sampler: calibration.Sampler | None = None) -> tuple[float, list[float]]:
    """Cut the settled requests, in completion order, into
    :data:`WINDOWS` consecutive windows.  Returns the median over the
    windows of their completions per second, and every settled
    request's latency in ms; with a ``sampler``, each window's figures
    are scaled to nominal host speed by the passes made during it."""
    done = sorted((s for s in samples if s.ok), key=lambda s: s.done)
    size = len(done) // WINDOWS
    rates: list[float] = []
    latencies: list[float] = []
    start = min(s.start for s in done)
    for window in range(WINDOWS):
        last = len(done) if window == WINDOWS - 1 else (window + 1) * size
        members = done[window * size:last]
        end = done[(window + 1) * size - 1].done
        factor = sampler.scale(start, end) if sampler else 1.0
        rates.append(size / ((end - start) * factor))
        latencies.extend(s.latency * 1000 * factor for s in members)
        start = end
    return statistics.median(rates), latencies


def class_p50(samples: list[Sample], answer: str) -> float:
    values = [s.latency * 1000 for s in samples if s.ok and s.answer == answer]
    return statistics.median(values) if values else 0.0


def measure(serve: ServeRun, plans: list, workdir: str) -> tuple[dict, dict, list[float], calibration.Chain, dict]:
    """The untraced run: end-to-end metrics, counts, set-up times, the
    reference passes between the starts, and the uncalibrated metrics."""
    daemons = [Daemon(workdir, f"serve{attempt}") for attempt in range(SETUP_SAMPLES)]
    chain = calibration.Chain()
    sampler = calibration.Sampler(die_with_parent)
    try:
        setup = []
        chain.mark()
        for index, daemon in enumerate(daemons):
            setup.append(daemon.start())
            chain.mark()
            if index < len(daemons) - 1:
                daemon.stop()
        sampler.start()
        samples, _ = stream(daemon.port, plans)
        serve.absorb(samples, plans)
        warm = serve.warm_pass(daemon, samples, plans, WARM_PASSES)
    finally:
        sampler.stop()
        for daemon in daemons:
            daemon.stop()
    figures = {}
    for calibrated in (True, False):
        rate, latencies = windowed(samples, sampler if calibrated else None)
        figures[calibrated] = {
            "runs_per_s": rate,
            "warm_runs_per_s": windowed(warm, sampler if calibrated else None)[0],
            "latency_ms_p50": percentile(latencies, 0.50),
            "latency_ms_p95": percentile(latencies, 0.95),
            "latency_ms_p99": percentile(latencies, 0.99),
        }
    counts = {
        "requests": len(samples),
        "latency_samples": len(latencies),
        "latency_ms_p99": figures[True].pop("latency_ms_p99"),
        "reference_passes": len(sampler.passes),
    }
    figures[False].pop("latency_ms_p99")
    return figures[True], counts, setup, chain, figures[False]


def measure_traced(serve: ServeRun, plans: list, workdir: str) -> tuple[dict, dict, list[str]]:
    """The traced run: one stream against a plain daemon, then the same
    stream against a traced one; per-layer metrics of the second."""
    plain = Daemon(workdir, "plain")
    traced = Daemon(workdir, "traced", os.path.join(workdir, "daemon-spans.json"))
    try:
        plain.start()
        untraced, untraced_wall = stream(plain.port, plans)
        plain.stop()
        serve.absorb(untraced, plans)
        traced.start()
        pid = traced.proc.pid
        before, cpu_before = status_counts(traced), cpu_seconds(pid)
        before_dump = traced.dump_trace()
        os.remove(traced.trace_dump)
        samples, wall = stream(traced.port, plans)
        after, cpu_after = status_counts(traced), cpu_seconds(pid)
        dump = traced.dump_trace()
        serve.absorb(samples, plans)
        serve.warm_pass(traced, samples, plans, 1)
    finally:
        plain.stop()
        traced.stop()
    metrics = per_layer(
        serve, samples, before_dump, dump,
        {name: after[name] - before[name] for name in after},
        cpu_after - cpu_before, wall / untraced_wall - 1,
    )
    return metrics, {"requests": len(samples) + len(untraced)}, dump.get("unmeasured", [])


def run(seed: int, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    serve = ServeRun(seed)
    if trace:
        plans = serve.plans(TRACE_REQUESTS)
        metrics, counts, unmeasured = measure_traced(serve, plans, workdir)
        setup: list[float] = []
        chain = calibration.Chain()
        raw = {}
    else:
        plans = serve.plans(max(MIN_REQUESTS, round(seconds * NOMINAL_RATE)))
        metrics, counts, setup, chain, raw = measure(serve, plans, workdir)
        unmeasured = []
    value = serve.finish()
    classes: dict[str, int] = {}
    for per_client in plans:
        for kind, _, _ in per_client:
            classes[kind] = classes.get(kind, 0) + 1
    counts["items_by_class"] = classes
    counts["distinct_runs"] = len(serve.fresh)
    return {
        "check": serve.check,
        "attempted": serve.attempted,
        "failed": serve.failed,
        "digest": value,
        "setup": setup,
        "setup_scales": chain.scales(),
        "references": chain.refs,
        "raw": raw,
        "counts": counts,
        "options": {"serve": serve_options(), "sweep": sweeps.sweep_options()},
        "metrics": metrics,
        "unmeasured": unmeasured,
    }


def per_layer(serve: ServeRun, samples: list[Sample], before: dict, dump: dict,
              status: dict[str, int], cpu_s: float, overhead: float) -> dict[str, float | None]:
    """Per-layer metrics of a traced stream: daemon spans (CPU time)
    and counters, plus what the clients saw."""
    p = Profile()
    p.add(dump)
    # What the daemon traced before the stream (its start-up) is not
    # the stream's.
    for layer, row in before["layers"].items():
        p.layers[layer] = [a - b for a, b in zip(p.layers[layer], row)]
    busy_ns = cpu_s * 1e9
    other_ns = busy_ns - p.self_total_ns()
    serve.check.expect(
        other_ns >= -sweeps.ACCOUNTING_TOLERANCE * busy_ns - 2 * sweeps.TICK_NS,
        f"trace: daemon layer self times exceed its CPU time by {-other_ns / 1e6:.1f} ms",
    )
    settled = [s for s in samples if s.ok]
    fresh = [s for s in settled if s.kind != "resubmit"]
    by_answer = {answer: sum(1 for s in settled if s.answer == answer)
                 for answer in ("accepted", "analytic", "cached")}
    return {
        # No ``pool``: the daemon runs engines on threads, so the pool
        # metrics are 0.
        **p.metrics(dump.get("unmeasured", [])),
        "lab.store.hit_ratio": status["cache_hits"] / status["submitted"],
        "sim.loop.events": sum(s.report["events_fired"] for s in fresh if s.answer == "accepted"),
        "serve.submit.ms_p50": statistics.median(s.submit * 1000 for s in settled),
        "serve.wait.ms_p50": statistics.median(s.wait * 1000 for s in settled if s.answer != "cached"),
        "serve.latency.cached.ms_p50": class_p50(samples, "cached"),
        "serve.latency.analytic.ms_p50": class_p50(samples, "analytic"),
        "serve.latency.simulated.ms_p50": class_p50(samples, "accepted"),
        "serve.executed": status["executed"],
        "serve.analytic": status["analytic"],
        "serve.cache_hits": status["cache_hits"],
        "runs.simulated": by_answer["accepted"],
        "runs.analytic": by_answer["analytic"],
        "runs.cached": by_answer["cached"],
        "report.published_bytes": sum(s.report["published_bytes"] for s in fresh),
        "other.ms": other_ns / 1e6,
        "trace.busy_ms": busy_ns / 1e6,
        "trace.overhead_frac": overhead,
    }
