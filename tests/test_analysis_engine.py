"""The closed form (``repro.analysis.engine``) and the plumbing it rides on.

The acceptance bar for :mod:`repro.analysis.engine`: for every scenario
the analyzer certifies with ``coverage="full"``, the ``analytic`` engine
must produce the **byte-identical** ``RunReport.to_dict()`` the
``herlihy`` simulator produces — same run keys, same serialized bytes —
modulo exactly two declared non-deterministic fields (``wall_seconds``
and the ``extra["path"]`` provenance stamp).  For everything else it
must *refuse* the closed form and fall back to the real simulation.

Also covered here: the cached :meth:`Scenario.canonical_text` identity
(run keys build on it), the sweep's closed-form partition and
provenance stamps, and ``lab check --verify`` executing zero engines on
a warm store.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.analysis.engine import (
    PATH_ANALYTIC,
    PATH_KEY,
    PATH_SIMULATED,
    analyze_for_fast_path,
    closed_form,
    synthesize_report,
)
from repro.analysis.protocol import COVERAGE_FULL, analyze_scenario
from repro.api.engine import get_engine, list_engines
from repro.api.scenario import Scenario, canonical_json
from repro.api.sweep import Sweep, run_key, run_sweep
from repro.digraph.generators import (
    cycle_digraph,
    random_strongly_connected,
    triangle,
)
from repro.lab.registry import get_family, list_families
from repro.lab.store import MemoryStore, open_store
from repro.sim.faults import Crash, CrashPoint, FaultPlan

FAMILIES = sorted(list_families())


def family_scenario(name: str) -> Scenario:
    family = get_family(name)
    return Scenario(family.generate(dict(family.defaults), seed=11))


def comparable(report) -> dict:
    """``to_dict()`` minus the two declared non-deterministic fields."""
    data = report.to_dict()
    data.pop("wall_seconds", None)
    (data.get("extra") or {}).pop(PATH_KEY, None)
    return data


def assert_byte_parity(scenario: Scenario) -> None:
    analytic = get_engine("analytic").run(scenario)
    simulated = get_engine("herlihy").run(scenario)
    assert analytic.extra[PATH_KEY] == PATH_ANALYTIC
    assert comparable(analytic) == comparable(simulated)
    # Same keys: the synthesized report is indistinguishable in the store.
    assert run_key("herlihy", analytic.scenario) == run_key(
        "herlihy", simulated.scenario
    )
    assert analytic.milestone_counts() == simulated.milestone_counts()


# ---------------------------------------------------------------------------
# byte parity: the family matrix and the conforming variants
# ---------------------------------------------------------------------------


class TestByteParity:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_fully_covered_family(self, name):
        scenario = family_scenario(name)
        if analyze_scenario(scenario).coverage != COVERAGE_FULL:
            pytest.skip(f"{name} is not fully covered — no closed form")
        assert_byte_parity(scenario)

    @pytest.mark.parametrize("n,p,gseed", [(10, 0.15, 1), (15, 0.12, 2), (20, 0.10, 3)])
    def test_sparse_random_graphs(self, n, p, gseed):
        # Sparse topologies with deep Phase One chains are where the
        # closed form earns its keep: contract publication gates key
        # propagation per arc, and same-tick route ties are broken by
        # scheduler order (the _phase_schedule replay).  Regression for
        # both — dense families never exercise either.
        digraph = random_strongly_connected(n, p, Random(gseed))
        assert_byte_parity(Scenario(digraph, seed=5, exact_limit=12))

    def test_warm_shape_memo_serves_other_seeds(self):
        # The shape memo synthesizes once per *shape*: a later seed must
        # still match its own simulation bit for bit (the memoized
        # template is seed-invariant apart from the scenario block).
        digraph = random_strongly_connected(10, 0.15, Random(1))
        for seed in (21, 22):
            assert_byte_parity(Scenario(digraph, seed=seed, exact_limit=12))

    def test_chain_delays(self):
        assert_byte_parity(
            Scenario(triangle(),
                     chain_delays={"Alice->Bob": 120, "Carol->Alice": 40})
        )

    def test_timeout_slack(self):
        assert_byte_parity(Scenario(triangle(), timeout_slack=2))

    def test_explicit_start_time(self):
        assert_byte_parity(Scenario(triangle(), start_time=777))

    def test_explicit_multi_leader_set(self):
        assert_byte_parity(Scenario(cycle_digraph(5), leaders=("P01", "P03")))

    def test_nondefault_conforming_fractions(self):
        assert_byte_parity(
            Scenario(triangle(), reaction_fraction=0.3, action_fraction=0.35)
        )

    def test_larger_delta(self):
        assert_byte_parity(Scenario(cycle_digraph(4), delta=5000))

    def test_synthesized_report_wall_seconds_left_for_caller(self):
        scenario = Scenario(triangle())
        analysis = analyze_scenario(scenario)
        report = synthesize_report(scenario, analysis.prediction)
        assert report.wall_seconds == 0.0
        assert report.extra == {}


# ---------------------------------------------------------------------------
# refusal: everything the analyzer cannot certify falls back
# ---------------------------------------------------------------------------


class TestFallback:
    @pytest.mark.parametrize("timing", ["jittered", "stragglers"])
    def test_nondefault_timing_simulates(self, timing):
        scenario = Scenario(cycle_digraph(4), seed=3, timing=timing)
        report = get_engine("analytic").run(scenario)
        assert report.extra[PATH_KEY] == PATH_SIMULATED
        # ... and the fallback is byte-identical to herlihy directly.
        assert comparable(report) == comparable(get_engine("herlihy").run(scenario))

    def test_timed_crash_simulates(self):
        scenario = Scenario(
            triangle(), faults=FaultPlan(crashes={"Carol": Crash(at_time=50)})
        )
        report = get_engine("analytic").run(scenario)
        assert report.extra[PATH_KEY] == PATH_SIMULATED

    def test_phase_crash_simulates(self):
        scenario = Scenario(
            triangle(),
            faults=FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        report = get_engine("analytic").run(scenario)
        assert report.extra[PATH_KEY] == PATH_SIMULATED
        assert not report.all_deal()

    def test_deviating_strategy_simulates(self):
        scenario = Scenario(triangle(), strategies={"Carol": "last-moment-unlock"})
        report = get_engine("analytic").run(scenario)
        assert report.extra[PATH_KEY] == PATH_SIMULATED

    def test_infeasible_deadlines_simulate(self):
        scenario = Scenario(
            triangle(), delta=50, reaction_fraction=0.4, action_fraction=0.5
        )
        report = get_engine("analytic").run(scenario)
        assert report.extra[PATH_KEY] == PATH_SIMULATED
        assert not report.all_deal()

    def test_open_is_always_a_real_session(self):
        # Stepping/probes have no closed form: open() must simulate even
        # on a fully covered scenario, and still match the one-shot run.
        scenario = Scenario(triangle())
        execution = get_engine("analytic").open(scenario)
        report = execution.run_to_completion()
        simulated = get_engine("herlihy").run(scenario)
        assert comparable(report) == comparable(simulated)

    def test_gate_rejects_other_engines(self):
        # Non-herlihy engines always simulate; we do not even analyze.
        assert analyze_for_fast_path(Scenario(triangle()), "2pc") is None
        assert analyze_for_fast_path(Scenario(triangle()), "multiswap") is None

    def test_gate_accepts_both_fast_path_spellings(self):
        for engine in ("herlihy", "analytic"):
            assert analyze_for_fast_path(Scenario(triangle()), engine) is not None
            report = closed_form(engine, Scenario(triangle()))
            assert report is not None and report.extra[PATH_KEY] == PATH_ANALYTIC

    def test_eligibility_requires_full_coverage(self):
        scenario = Scenario(triangle(), timing="jittered")
        assert analyze_scenario(scenario).coverage != COVERAGE_FULL
        assert closed_form("herlihy", scenario) is None


# ---------------------------------------------------------------------------
# Scenario.canonical_text: one cached encoding under every key
# ---------------------------------------------------------------------------


class TestCanonicalText:
    def test_identical_string_object_returned(self):
        scenario = Scenario(triangle())
        assert scenario.canonical_text() is scenario.canonical_text()

    def test_matches_uncached_encoding(self):
        scenario = Scenario(cycle_digraph(4), seed=5, timing="jittered")
        assert scenario.canonical_text() == canonical_json(scenario.canonical_dict())

    def test_run_key_matches_from_scratch_composition(self):
        # The textual composition in run_key must reproduce the dict
        # encoding byte for byte — this is what keeps every historical
        # store entry addressable.
        scenario = Scenario(triangle(), chain_delays={"Alice->Bob": 60})
        from repro.api.sweep import RUN_KEY_SCHEMA
        from repro.crypto.hashing import sha256

        payload = canonical_json({
            "schema": RUN_KEY_SCHEMA,
            "engine": "herlihy",
            "scenario": scenario.canonical_dict(),
        })
        assert run_key("herlihy", scenario) == sha256(payload.encode()).hex()

    def test_equal_scenarios_share_keys_not_cache(self):
        a = Scenario(triangle(), name="first")
        b = Scenario(triangle(), name="second")  # display name excluded
        assert a.canonical_text() == b.canonical_text()
        assert run_key("herlihy", a) == run_key("herlihy", b)


# ---------------------------------------------------------------------------
# sweep plumbing: the closed-form partition, stamps, shared warm stores
# ---------------------------------------------------------------------------


class TestSweepFastPath:
    def sweep(self):
        return (
            Sweep("fp", base_seed=3)
            .add("herlihy", Scenario(triangle(), name="fp:covered", seed=1))
            .add("herlihy",
                 Scenario(triangle(), name="fp:jittered", seed=1,
                          timing="jittered"))
            .add("2pc", Scenario(triangle(), name="fp:2pc", seed=1))
        )

    def test_partition_and_stamps(self):
        report = run_sweep(self.sweep(), parallel=False)
        assert report.analytic == 1 and report.executed == 2
        paths = [r.extra.get(PATH_KEY) for r in report.reports]
        assert paths == [PATH_ANALYTIC, PATH_SIMULATED, PATH_SIMULATED]

    def test_all_covered_reports_mode_analytic(self):
        sweep = Sweep("fp").add(
            "herlihy", Scenario(triangle(), name="fp:only", seed=1)
        )
        report = run_sweep(sweep, parallel=False)
        assert report.mode == "analytic"
        assert report.executed == 0 and report.analytic == 1

    def test_unstamped_store_entries_are_served_as_stored(self):
        # Entries recorded before the stamp existed carry no path; a
        # warm sweep serves them byte for byte, without stamping.
        store = MemoryStore()
        for engine, scenario in self.sweep().items():
            report = get_engine(engine).run(scenario)
            assert PATH_KEY not in report.extra
            store.put(run_key(engine, scenario), {"ok": True, "report": report.to_dict()})
        warm = run_sweep(self.sweep(), parallel=False, store=store)
        assert warm.cached == 3 and warm.executed == 0 and warm.analytic == 0
        assert all(PATH_KEY not in r.extra for r in warm.reports)

    def test_fast_path_warms_the_same_store(self, tmp_path):
        # Keys ignore the provenance stamp, so a warm re-run answers
        # every run, closed-form ones included, from the store.
        with open_store(str(tmp_path / "runs.sqlite")) as store:
            first = run_sweep(self.sweep(), parallel=False, store=store)
            assert first.analytic == 1 and first.executed == 2
            second = run_sweep(self.sweep(), parallel=False, store=store)
            assert second.cached == 3 and second.executed == 0
            assert second.mode == "cached"
            assert [comparable(r) for r in first.reports] == [
                comparable(r) for r in second.reports
            ]

    def test_analytic_engine_rides_the_fast_path_too(self):
        sweep = Sweep("fp").add(
            "analytic", Scenario(triangle(), name="fp:analytic", seed=1)
        )
        report = run_sweep(sweep, parallel=False)
        assert report.analytic == 1 and report.executed == 0


# ---------------------------------------------------------------------------
# lab check --verify: a warm simulated store means zero engine executions
# ---------------------------------------------------------------------------


VERIFY_FLAGS = ["--family", "cycle", "--grid", "n=3", "--mix", "all-conforming"]


def stored_paths(store_path: str) -> list[str]:
    with open_store(store_path) as store:
        return [store.get(key)["report"]["extra"][PATH_KEY] for key in store.keys()]


class TestVerifyStoreReuse:
    def test_warm_store_executes_no_engine(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        store_path = str(tmp_path / "runs.sqlite")
        flags = [*VERIFY_FLAGS, "--store", store_path]
        # Warm the store by simulation: with the closed form refusing,
        # the entry is an engine's report, i.e. evidence verify may reuse.
        with monkeypatch.context() as patch:
            patch.setattr("repro.api.sweep.closed_form", lambda engine, scenario: None)
            assert main(["lab", "run", *flags, "--serial"]) == 0
        capsys.readouterr()
        assert stored_paths(store_path) == [PATH_SIMULATED]

        def boom(self, scenario):
            raise AssertionError("engine executed despite a warm store")

        for name in list_engines():
            engine = get_engine(name)
            monkeypatch.setattr(type(engine), "run", boom)
            monkeypatch.setattr(type(engine), "open", boom)
        assert main(["lab", "check", *flags, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "1 stored" in out

    def test_closed_form_entry_is_simulated_not_reused(self, tmp_path, capsys):
        # A store warmed by the default resolution holds the closed
        # form's own report; verifying against it would check the
        # prediction against itself, so verify must run the engine.
        from repro.__main__ import main

        store_path = str(tmp_path / "runs.sqlite")
        flags = [*VERIFY_FLAGS, "--store", store_path]
        assert main(["lab", "run", *flags, "--serial"]) == 0
        capsys.readouterr()
        assert stored_paths(store_path) == [PATH_ANALYTIC]

        assert main(["lab", "check", *flags, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "0 prediction failure(s) (1 executed)" in out
