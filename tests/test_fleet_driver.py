"""The fleet driver, the CLI verbs, and crash injection.

The acceptance-critical scenarios:

* a multi-worker subprocess fleet drains a grid to a store key-for-key
  identical to a serial ``run_sweep`` — zero duplicates, zero losses;
* a worker SIGKILLed mid-chunk is harmless: its lease expires, the
  chunk re-issues, and the drained store still matches serial exactly;
* a fleet whose workers all die with work outstanding raises
  ``FleetError`` instead of hanging;
* the ``lab work`` / ``lab run --fleet`` / ``lab fleet status`` verbs
  round-trip through ``repro.__main__`` with structured errors for
  unsafe backends.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time

import pytest

import repro.fleet.driver as driver_mod
from repro.__main__ import main
from repro.api import Scenario, Sweep, run_sweep
from repro.digraph.generators import cycle_digraph
from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetCoordinator, FleetWorker, run_fleet
from repro.fleet.driver import _worker_command, _worker_env
from repro.lab.store import open_store

from test_fleet_coordinator import small_sweep
from test_fleet_worker import comparable


def slow_sweep(count: int = 24) -> Sweep:
    """Scenarios slow enough (~25ms each) that a worker is reliably
    mid-chunk when the crash test pulls the trigger: jittered timing is
    not covered by the closed form, so every item simulates."""
    sweep = Sweep("fleet-slow")
    for index in range(count):
        sweep.add(
            "herlihy",
            Scenario(
                topology=cycle_digraph(6), seed=index, name=f"slow#{index}",
                timing="jittered",
            ),
        )
    return sweep


def serial_reference(tmp_path, sweep):
    with open_store(str(tmp_path / "serial.sqlite")) as store:
        run_sweep(sweep, store=store, parallel=False)
        return {key: store.get(key) for key in store.keys()}


def assert_parity(path, expected):
    """The drained store holds exactly the serial key set, entry-equal
    modulo wall time — no duplicates, no losses."""
    with open_store(str(path)) as drained:
        assert set(drained.keys()) == set(expected)
        assert len(drained) == len(expected)
        for key, entry in expected.items():
            assert comparable(drained.get(key)) == comparable(entry)


class TestRunFleet:
    def test_four_worker_drain_matches_serial(self, tmp_path):
        sweep = slow_sweep(16)
        expected = serial_reference(tmp_path, sweep)
        path = tmp_path / "fleet.sqlite"
        report = run_fleet(
            sweep, path, workers=4, config=FleetConfig(chunk_size=2),
        )
        assert report.receipt.enqueued == len(expected)
        assert report.workers == 4
        assert set(report.exit_codes.values()) == {0}
        assert report.status["counts"]["pending"] == 0
        assert report.status["counts"]["leased"] == 0
        assert_parity(path, expected)

    def test_fully_warm_fleet_spawns_no_workers(self, tmp_path):
        sweep = small_sweep(4)
        path = tmp_path / "fleet.sqlite"
        config = FleetConfig(chunk_size=2)
        with FleetCoordinator(path, config) as coordinator:
            coordinator.enqueue(sweep.items())
        FleetWorker(path, config, worker_id="preheat").run()
        report = run_fleet(sweep, path, workers=3, config=config)
        assert report.receipt.warm == 4
        assert report.exit_codes == {}  # nothing spawned

    def test_merge_into_destination(self, tmp_path):
        sweep = small_sweep(4)
        path = tmp_path / "fleet.sqlite"
        dest = tmp_path / "all.sqlite"
        report = run_fleet(
            sweep, path, workers=2, config=FleetConfig(chunk_size=2),
            into=dest,
        )
        assert report.merged == 4
        with open_store(str(dest)) as merged:
            assert len(merged) == 4

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(FleetError):
            run_fleet(small_sweep(2), tmp_path / "f.sqlite", workers=0)

    def test_all_workers_dead_raises(self, tmp_path, monkeypatch):
        import sys

        monkeypatch.setattr(
            driver_mod,
            "_worker_command",
            lambda *a, **k: [sys.executable, "-c", "raise SystemExit(3)"],
        )
        with pytest.raises(FleetError) as excinfo:
            run_fleet(
                small_sweep(4), tmp_path / "f.sqlite", workers=2,
                poll_interval=0.05,
            )
        assert "outstanding" in str(excinfo.value)

    def test_timeout_raises_and_reaps(self, tmp_path, monkeypatch):
        import sys

        monkeypatch.setattr(
            driver_mod,
            "_worker_command",
            lambda *a, **k: [
                sys.executable, "-c", "import time; time.sleep(60)",
            ],
        )
        started = time.monotonic()
        with pytest.raises(FleetError) as excinfo:
            run_fleet(
                small_sweep(4), tmp_path / "f.sqlite", workers=1,
                timeout=0.3, poll_interval=0.05,
            )
        assert "exceeded" in str(excinfo.value)
        # The straggler was terminated, not left running for 60s.
        assert time.monotonic() - started < 30


class TestCrashInjection:
    """SIGKILL a worker mid-chunk; the fleet must converge exactly."""

    def test_sigkilled_worker_chunk_reissues_and_store_matches_serial(
        self, tmp_path
    ):
        sweep = slow_sweep(24)
        expected = serial_reference(tmp_path, sweep)
        path = tmp_path / "fleet.sqlite"
        config = FleetConfig(lease_ttl=1.0, skew_grace=0.25, chunk_size=8)
        with FleetCoordinator(path, config) as coordinator:
            receipt = coordinator.enqueue(sweep.items())
            assert receipt.chunks == 3

            victim = subprocess.Popen(
                _worker_command(path, config, "victim"),
                env=_worker_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                # Wait until the victim holds a lease, then shoot it
                # mid-chunk (~25ms/item × 8 items leaves a wide window).
                deadline = time.monotonic() + 60
                leased = None
                while time.monotonic() < deadline:
                    leased = next(
                        (
                            chunk
                            for chunk in coordinator.status()["chunks"]
                            if chunk["state"] == "leased"
                        ),
                        None,
                    )
                    if leased is not None:
                        break
                    time.sleep(0.01)
                assert leased is not None, "worker never claimed a chunk"
                os.kill(victim.pid, signal.SIGKILL)
            finally:
                victim.wait(timeout=30)

            # The dead worker's lease expires; a fresh in-process worker
            # inherits the chunk and drains the queue.
            stats = FleetWorker(
                path, config, worker_id="survivor"
            ).run()
            assert stats.items_committed > 0
            assert coordinator.outstanding() == 0
            status = coordinator.status()

        # The killed chunk was re-issued (a second claim attempt) —
        # unless the kill landed exactly on the commit boundary, in
        # which case the chunk is simply done on attempt one.
        reissued = [c for c in status["chunks"] if c["attempts"] >= 2]
        committed_by_victim = [
            w for w in status["workers"]
            if w["worker_id"] == "victim" and w["chunks_done"] > 0
        ]
        assert reissued or committed_by_victim

        # Key-for-key identical to serial: zero duplicates, zero losses.
        assert_parity(path, expected)
        assert status["counts"]["items_done"] == len(expected)


class TestCli:
    def test_run_fleet_then_status_then_warm_rerun(self, tmp_path, capsys):
        store = str(tmp_path / "fleet.sqlite")
        assert main([
            "lab", "run", "--preset", "smoke", "--fleet", "2",
            "--store", store, "--chunk-size", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 worker(s)" in out

        assert main(["lab", "fleet", "status", "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert set(status) == {"store", "config", "counts", "chunks", "workers"}
        assert status["counts"]["pending"] == 0
        assert status["counts"]["leased"] == 0
        assert status["counts"]["done"] > 0
        assert status["counts"]["items_done"] == status["counts"]["items_queued"]

        # Warm re-run: everything cached, no workers spawned.
        assert main([
            "lab", "run", "--preset", "smoke", "--fleet", "2",
            "--store", store, "--chunk-size", "3",
        ]) == 0
        assert "drained 0 run(s)" in capsys.readouterr().out

        # A worker pointed at the drained store exits immediately.
        assert main(["lab", "work", "--store", store, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["chunks_committed"] == 0
        assert stats["claims"] == 0

    def test_work_refuses_jsonl_store(self, tmp_path, capsys):
        store = str(tmp_path / "runs.jsonl")
        assert main(["lab", "work", "--store", store]) == 1
        err = capsys.readouterr().err
        assert "concurrent-writer safety" in err
        assert "sqlite" in err.lower()

    def test_work_refuses_memory_store(self, capsys):
        assert main(["lab", "work", "--store", ":memory:"]) == 1
        assert "concurrent-writer safety" in capsys.readouterr().err

    def test_work_requires_existing_store(self, tmp_path, capsys):
        assert main([
            "lab", "work", "--store", str(tmp_path / "nope.sqlite"),
        ]) == 1
        assert "no such fleet store" in capsys.readouterr().err

    def test_fleet_refuses_no_store(self, capsys):
        assert main([
            "lab", "run", "--preset", "smoke", "--fleet", "2", "--no-store",
        ]) == 1
        assert "--no-store" in capsys.readouterr().err

    def test_fleet_refuses_jsonl_store(self, tmp_path, capsys):
        assert main([
            "lab", "run", "--preset", "smoke", "--fleet", "2",
            "--store", str(tmp_path / "runs.jsonl"),
        ]) == 1
        assert "concurrent-writer safety" in capsys.readouterr().err

    def test_status_requires_existing_store(self, tmp_path, capsys):
        assert main([
            "lab", "fleet", "status", "--store", str(tmp_path / "no.sqlite"),
        ]) == 1
        assert "no such store" in capsys.readouterr().err

    def test_status_human_tables(self, tmp_path, capsys):
        store = str(tmp_path / "fleet.sqlite")
        config = FleetConfig(chunk_size=2)
        with FleetCoordinator(store, config) as coordinator:
            coordinator.enqueue(small_sweep(2).items())
            coordinator.claim("w1")
        assert main(["lab", "fleet", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 leased" in out
        assert "w1" in out
