"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Drives the real pipeline from outside — ``Scenario → run key → (store
hit | closed form | simulator) → RunReport → store`` — through
``repro.api.sweep.run_sweep`` and a ``python -m repro serve``
subprocess.  Run it from the repository root::

    python3 perfbench/run.py --workload sim-adversarial --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``sim-adversarial`` — lab families × adversary mixes that the closed
  form does not cover, through ``run_sweep``'s process pool; cold
  store, then warm.  See :mod:`perfbench.sweeps`.
* ``analytic-grid`` — all-conforming uniform-timing scenarios the
  closed form covers: 90% hot shapes × fresh seeds, 10% fresh random
  shapes; cold store, then warm.
* ``serve-mixed`` — 40% simulated, 40% closed-form and 20% resubmitted
  requests from two closed-loop clients against the daemon.  See
  :mod:`perfbench.serving`.

With ``--trace 0`` the last line of output carries the end-to-end
metrics of ``BENCHMARK.json``:

* ``runs_per_s`` — runs completed per second: the cold sweeps (median
  over reps), or the closed-loop stream for serve (median over five
  windows of completions);
* ``warm_runs_per_s`` — the same runs again against the store they
  filled; every one must be a hit and no engine may run;
* ``latency_ms_p50``/``_p95`` — per run: submit to settled as the serve
  client sees it; for sweeps, each cold run's own ``wall_seconds`` (a
  run inside a batch has no settle time of its own).  The p99 and the
  sample count are in the ``meta`` line: with this workload's heavy
  simulated tail, resampling 1600 serve latencies moves the p99 by 23%
  (quartile spread) against 4% for the p95, so only the p95 is steady
  enough to hold a regression bound;
* ``setup_s`` — median of fifteen set-ups: a fresh interpreter importing
  the pipeline, generating batch 0 and opening a SQLite store; for
  serve, of eleven daemon starts until ``/v1/healthz`` answers;
* ``peak_rss_mb`` — peak RSS of this process plus the largest child
  (pool worker, set-up probe or daemon).

Times are calibrated to nominal host speed by a fixed reference loop
(:mod:`perfbench.calibration`), because the small shared machines this
runs on change speed by up to 1.8x from one few-second phase to the
next: the sweeps and every set-up sample by passes right before and
after them, the serve streams by a sampler process's passes during
each window.  The ``meta`` line gives the uncalibrated figures under
``calibration.raw``.

Failed operations are the ``failed`` field of the result (failed runs
of a sweep; non-2xx answers, 429s and jobs that end ``failed`` or
``aborted`` for serve) out of ``attempted``.

With ``--trace 1`` the line carries the per-layer metrics instead, from
a separate traced run (:mod:`perfbench.tracing`).  ``.us`` metrics are
mean self time per call, ``.ms`` metrics total self time over the
traced part, counts are totals over it; times are CPU time.  A metric
of a layer whose wrapped function no longer exists reports ``"value":
null`` with ``"unmeasured": true``.

Every run checks its outputs (:mod:`perfbench.checks`), prints a
``meta`` line (machine fingerprint, seed, item counts, digest) and
writes the full result to ``perfbench/results/``.  The exit code is 0
only when the check passed.  ``--self-test`` shows that a corrupted
report fails the check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import calibration  # noqa: E402  (needs the path above)

WORKLOADS = ("sim-adversarial", "analytic-grid", "serve-mixed")
DEFAULT_SEED = 1
#: A run that has not finished by then stops, reaps what it started and
#: exits non-zero without a result.
DEADLINE_S = 170
SETUP_SAMPLES = 15
WORK_ROOT = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that a corrupted report fails the output check")
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def setup_probe(workload: str, seed: int, workdir: str) -> int:
    """Child side of one set-up sample: import, generate, open a store."""
    from perfbench import sweeps, workloads
    from repro.api.sweep import run_key  # noqa: F401
    from repro.lab.store import SqliteStore

    sweeps.sweep_options()
    workloads.BATCHES[workload](seed, 0)
    path = os.path.join(workdir, f"probe-{os.getpid()}.sqlite")
    store = SqliteStore(path)
    print("ready", flush=True)
    store.close()
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    return 0


def measure_setup(workload: str, seed: int, workdir: str) -> tuple[list[float], calibration.Chain]:
    """Set-up samples, and the reference passes between them."""
    samples = []
    chain = calibration.Chain()
    chain.mark()
    for _ in range(SETUP_SAMPLES):
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", workdir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline() if proc.stdout else ""
            samples.append(time.perf_counter() - begin)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if proc.stdout:
                proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        chain.mark()
    return samples, chain


def remove_orphans() -> None:
    """Remove work directories left by runs that were killed outright."""
    for name in os.listdir(WORK_ROOT):
        pid = name.split("-", 1)[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(WORK_ROOT, name), ignore_errors=True)
        except PermissionError:
            pass


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def run_self_test() -> int:
    from perfbench import checks, workloads
    from repro.api.engine import get_engine
    from repro.api.sweep import run_key

    item = workloads.sim_adversarial_batch(DEFAULT_SEED, 0)[0]
    report = get_engine(item.engine).run(item.scenario).to_dict()
    caught = checks.self_test(item, run_key(item.engine, item.scenario), report)
    print(f"self-test: a corrupted report {'fails' if caught else 'PASSES'} the output check")
    return 0 if caught else 1


def main(argv: list[str]) -> int:
    args = parse(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from src/: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.setup_probe)
    if args.self_test:
        return run_self_test()

    from perfbench import serving, sweeps

    def stop(signum: int, frame: object) -> None:
        raise SystemExit(f"perfbench: stopped by signal {signum}")

    # Both turn into SystemExit in the main thread, so every ``finally``
    # below runs: daemons are reaped and the work directory removed.
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGALRM, stop)
    signal.alarm(DEADLINE_S)
    os.makedirs(WORK_ROOT, exist_ok=True)
    remove_orphans()
    workdir = tempfile.mkdtemp(prefix=f"{os.getpid()}-{args.workload}-", dir=WORK_ROOT)
    began = time.perf_counter()
    try:
        if args.workload == "serve-mixed":
            result = serving.run(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            setup, chain = ([], calibration.Chain()) if args.trace else measure_setup(
                args.workload, args.seed, workdir
            )
            result = sweeps.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
            result["setup"], result["setup_scales"] = setup, chain.scales()
            result["references"] = chain.refs + result["references"]
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    metrics = dict(result["metrics"])
    setup = [raw * scale for raw, scale in zip(result["setup"], result["setup_scales"])]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb()
    out = {}
    for metric in declared_metrics(bool(args.trace)):
        name = metric["name"]
        out[name] = {"value": metrics[name], "unit": metric["unit"]}
        if metrics[name] is None:
            out[name]["unmeasured"] = True
    check = result["check"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "options": result["options"],
        "counts": result["counts"],
        "digest": result["digest"],
        "checks": check.checked,
        "check_failures": check.failures[:20],
        "setup_samples_s": setup,
        "calibration": {
            "nominal_s": calibration.NOMINAL_S,
            "reference_s_median": statistics.median(result["references"]) if result["references"] else None,
            "raw": {**result.get("raw", {}), "setup_s": statistics.median(result["setup"])}
            if result["setup"] else None,
            "raw_setup_samples_s": result["setup"],
        },
        "wall_s": time.perf_counter() - began,
    }
    if args.trace:
        meta["unmeasured"] = sorted(result.get("unmeasured", []))
    for name, metric in out.items():
        value = metric["value"]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {metric['unit']}")
    for failure in check.failures[:20]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": out, "layers": result.get("layers")}, handle,
                  indent=1, sort_keys=True)
    print(json.dumps({
        "correct": check.ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
