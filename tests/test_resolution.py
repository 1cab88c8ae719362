"""One resolution path across the three runtimes.

``run_sweep``, the fleet worker and ``repro.serve`` all resolve a store
miss the same way: the closed form
(:func:`repro.analysis.engine.closed_form`) when the analyzer certifies
the scenario, else the simulator.  Both halves must leave the same
store entry behind whichever runtime resolved it, and a refusal by the
closed-form replay must fall back to simulation in every runtime, not
abort it.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.analysis.engine as analytic_engine
from repro.api.scenario import Scenario
from repro.api.sweep import run_key, run_sweep
from repro.digraph.generators import triangle
from repro.errors import AnalysisError
from repro.fleet import FleetCoordinator, FleetWorker
from repro.lab.store import MemoryStore, open_store
from repro.serve.service import ServiceConfig, SwapService

COVERED = Scenario(topology=triangle(), seed=3, name="resolve:covered")
UNCOVERED = Scenario(
    topology=triangle(), seed=3, name="resolve:jittered", timing="jittered"
)


def sweep_entries(items) -> dict[str, dict]:
    store = MemoryStore()
    run_sweep(items, parallel=False, store=store)
    return dict(store.entries())


def fleet_entries(items, tmp_path) -> dict[str, dict]:
    path = tmp_path / "fleet.sqlite"
    with FleetCoordinator(path) as coordinator:
        coordinator.enqueue(items)
    with FleetWorker(path, worker_id="resolve-w0") as worker:
        worker.run()
    with open_store(str(path)) as store:
        return {key: store.get(key) for key in store.keys()}


def serve_entries(items) -> dict[str, dict]:
    async def run() -> dict[str, dict]:
        service = SwapService(ServiceConfig(rate=0.0), store=MemoryStore())
        await service.start()
        keys = [service.submit(scenario, engine=engine).key for engine, scenario in items]
        for key in keys:
            assert (await service.wait(key, timeout=30)).status == "settled"
        await service.stop()
        return dict(service.store.entries())

    return asyncio.run(run())


def without_wall_time(entry: dict) -> dict:
    entry = json.loads(json.dumps(entry))
    entry["report"].pop("wall_seconds")
    return entry


def path_of(entry: dict) -> str:
    return entry["report"]["extra"]["path"]


class TestOneEntryFormat:
    def test_every_runtime_stores_the_same_entries(self, tmp_path):
        items = [("herlihy", COVERED), ("herlihy", UNCOVERED)]
        keys = [run_key(engine, scenario) for engine, scenario in items]
        by_runtime = {
            "run_sweep": sweep_entries(items),
            "fleet": fleet_entries(items, tmp_path),
            "serve": serve_entries(items),
        }
        for name, entries in by_runtime.items():
            assert sorted(entries) == sorted(keys), name
            assert [path_of(entries[key]) for key in keys] == [
                "analytic", "simulated",
            ], name
            assert all(entries[key]["milestones"] for key in keys), name
        reference = {key: without_wall_time(by_runtime["run_sweep"][key]) for key in keys}
        for name in ("fleet", "serve"):
            assert {
                key: without_wall_time(by_runtime[name][key]) for key in keys
            } == reference, name


class TestRefusalFallsBack:
    """A replay refusal (``AnalysisError``) means "simulate", everywhere."""

    @pytest.fixture(autouse=True)
    def refusing_replay(self, monkeypatch):
        def refuse(scenario, prediction):
            raise AnalysisError("replay refused")

        monkeypatch.setattr(analytic_engine, "synthesize_report", refuse)

    def assert_simulated(self, entries: dict[str, dict]) -> None:
        entry = entries[run_key("herlihy", COVERED)]
        assert entry["ok"] and path_of(entry) == "simulated"
        assert set(entry["report"]["outcomes"].values()) == {"Deal"}

    def test_the_closed_form_answers_none(self):
        assert analytic_engine.closed_form("herlihy", COVERED) is None

    def test_run_sweep_simulates(self):
        report = run_sweep([("herlihy", COVERED)], parallel=False, store=MemoryStore())
        assert report.analytic == 0 and report.executed == 1
        self.assert_simulated(sweep_entries([("herlihy", COVERED)]))

    def test_fleet_worker_simulates(self, tmp_path):
        self.assert_simulated(fleet_entries([("herlihy", COVERED)], tmp_path))

    def test_serve_simulates(self):
        self.assert_simulated(serve_entries([("herlihy", COVERED)]))
