"""The closed form: ``RunReport`` synthesis without simulation.

E22 measures ~10-30 ms of pure-python event dispatch per warm
``herlihy`` run — yet for conforming scenarios every quantity in the
report is already known in closed form: :mod:`repro.analysis.predict`
computes the Fig. 3 end states, the §4 deadline ladder, completion
time, unlock-call counts, and the Theorem 4.10 contract bytes, and
:mod:`repro.analysis.protocol` defines exactly which scenarios that
model covers (``coverage="full"``).  This module closes the loop:
:func:`closed_form` *synthesizes* the simulator's ``RunReport`` —
byte-identical ``to_dict()`` output, same run keys — without firing a
single scheduler event, and answers ``None`` whenever the analyzer
cannot certify the scenario (``coverage="verdict"``/``"none"``).

It is the default resolution: ``run_sweep``, the fleet worker and
``repro.serve`` try it on every store miss before they simulate, and
:func:`report_entry` gives each of them the same store entry.  The
simulator stays the oracle the closed form is checked against:
``get_engine(name).run()`` always runs the named engine (the
``analytic`` engine excepted, which is this closed form with a
simulator fallback), and ``lab check --verify`` never synthesizes.

Three report fields are not in :class:`~repro.analysis.predict.
Prediction` and are reconstructed here by **transcript synthesis** —
re-enacting the ledger's record sequence on real
:class:`~repro.core.contract.SwapContract` objects instead of
re-deriving byte formulas (so any change to ``state_view()`` or the
canonical record encoding is picked up automatically, not silently
diverged from):

``published_bytes`` / ``stored_bytes``
    Per arc, the chain appends exactly ``asset_registered``,
    ``contract_published``, ``|L|`` unlock ``contract_call`` records
    (in landing order — the key-propagation schedule below), one claim
    ``contract_call`` and one ``asset_transfer``.  Payload bytes are
    independent of tick values (no timestamps inside payloads), and
    every registered signature scheme has a fixed ``signature_size``,
    so placeholder signatures of the right length reproduce the exact
    canonical-encoding byte counts.  Stored bytes add one
    80-byte block header per record (the ledger seals one record per
    block).

``events_fired``
    A census of the conforming schedule: ``|V|`` party starts,
    ``|V| - |L|`` follower publish wakes, ``2·|A|·(|L| + 3)``
    observation deliveries (each arc's chain has two watchers; the
    asset-registration record predates subscription so it delivers
    nothing), ``|A|·|L|`` unlock wakes, ``|A|`` claim wakes, and one
    refund watch per *distinct* lock timeout per arc.

The key-propagation schedule (which lock unlocks when, in what order,
and the hashkey path it carries) comes from :func:`_phase_schedule` — a
minimal FIFO replay of the conforming cascade.  ``predict``'s gated
Dijkstra pins every *time* in that schedule, but when two routes
deliver a secret at the same tick the simulator's scheduler order picks
the surviving path, so the replay mirrors that ordering rule instead of
approximating it with a tie-break heuristic.

Parity is CI-gated: ``tests/test_analysis_engine.py`` sweeps every
registered family and every conforming variant, asserting
``analytic``-vs-``herlihy`` byte equality of ``to_dict()`` modulo the
two declared non-deterministic fields (``wall_seconds`` and the
``extra["path"]`` provenance stamp, which is excluded from run-key
hashing so warm stores stay warm).
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Any

from repro.analysis.outcomes import Outcome
from repro.analysis.predict import Prediction, resolve_leaders
from repro.analysis.protocol import (
    COVERAGE_FULL,
    ScenarioAnalysis,
    analyze_scenario,
    model_supports,
)
from repro.api.engine import Engine, get_engine, register_engine
from repro.api.execution import Execution, PreparedSimulation
from repro.api.report import RunReport
from repro.api.scenario import Scenario, canonical_json
from repro.chain.assets import Asset
from repro.chain.ledger import _BLOCK_HEADER_BYTES, Record
from repro.chain.network import chain_id_for_arc
from repro.core.contract import SwapContract
from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.crypto.signatures import get_scheme
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import AnalysisError
from repro.sim.clock import ticks
from repro.sim.harness import derive_secret
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    PHASE2_COMPLETE,
    SECRET_RELEASED,
    SETTLED,
    Milestone,
)

#: ``RunReport.extra`` key recording which path produced the report.
PATH_KEY = "path"
PATH_ANALYTIC = "analytic"
PATH_SIMULATED = "simulated"

#: The engine the closed form reproduces (and falls back to).
FALLBACK_ENGINE = "herlihy"


def _may_cover(scenario: Scenario, engine: str) -> bool:
    """The closed form's cheap refusal, before any analysis: the engine
    it reproduces, a scenario the model supports, and no crashes (a
    crashed party can never end Deal, so crashes never reach full
    coverage)."""
    return (
        engine in (FALLBACK_ENGINE, AnalyticEngine.name)
        and not scenario.faults.crashes
        and model_supports(scenario, FALLBACK_ENGINE)
    )


def analyze_for_fast_path(scenario: Scenario, engine: str) -> ScenarioAnalysis | None:
    """The analysis gating the closed form, or ``None`` when the closed
    form cannot cover the run.

    Uncovered runs are refused before any analysis: an engine other
    than the one the closed form reproduces, or a scenario that fails
    :func:`~repro.analysis.protocol.model_supports` or has any crash,
    returns ``None`` without structural diagnostics, FVS or diameter
    work, and without taking a slot in the shape memo.  These runs
    always simulate, so analyzing them would buy nothing.

    Otherwise the analysis is memoized by scenario *shape* (see
    :func:`_shape_key`), so a seed grid over one topology analyzes once.
    Callers must treat the result as shape-level: use it for
    eligibility, and — only when coverage is full — its prediction,
    which is seed-independent by the same argument the report memo
    rests on.  Per-scenario diagnostics (``lab check``) must call
    :func:`analyze_scenario` directly.
    """
    if not _may_cover(scenario, engine):
        return None
    key = _shape_key(scenario)
    analysis = _lru_get(_ANALYSES, key)
    if analysis is None:
        analysis = analyze_scenario(scenario, engine=FALLBACK_ENGINE)
        _lru_put(_ANALYSES, key, analysis)
    return analysis


def closed_form(engine_name: str, scenario: Scenario) -> RunReport | None:
    """The run's report in closed form, or ``None`` when it must simulate.

    The one resolution step every runtime takes before it simulates:
    the cheap refusal of scenarios the model cannot cover, the
    shape-memoized gate (:func:`analyze_for_fast_path`), then the
    synthesis for a ``coverage="full"`` scenario.  ``None`` means the
    analyzer cannot certify the scenario, or the replay refused it (an
    :class:`~repro.errors.AnalysisError`, e.g. a hashkey expiry the
    feasibility gate missed): the caller simulates rather than guesses.
    The report carries the synthesis's wall time and the
    ``extra["path"] = "analytic"`` stamp.
    """
    if not _may_cover(scenario, engine_name):
        return None
    analysis = analyze_for_fast_path(scenario, engine_name)
    if (
        analysis is None
        or analysis.coverage != COVERAGE_FULL
        or analysis.prediction is None
    ):
        return None
    started = time.perf_counter()
    try:
        report = synthesize_report(scenario, analysis.prediction)
    except AnalysisError:
        return None
    report.wall_seconds = time.perf_counter() - started
    report.extra[PATH_KEY] = PATH_ANALYTIC
    return report


def report_entry(report: RunReport) -> dict[str, Any]:
    """The store entry of a successful run, in every runtime's format.

    A report without a provenance stamp came from an engine and is
    stamped ``"simulated"``.  Milestone counts ride *beside* the report,
    not inside it: the report dict stays byte-identical to pre-session
    releases while the store still learns the lifecycle shape of every
    fresh run (a deserialized report has none to give).
    """
    report.extra.setdefault(PATH_KEY, PATH_SIMULATED)
    entry: dict[str, Any] = {"ok": True, "report": report.to_dict()}
    counts = report.milestone_counts()
    if counts is not None:
        entry["milestones"] = counts
    return entry


# ---------------------------------------------------------------------------
# the shape memo
# ---------------------------------------------------------------------------
#
# For every scenario the closed form accepts (coverage="full": uniform
# timing, no faults, no deviating strategies), the synthesized report is
# a pure function of the scenario's *shape* — its canonical content
# minus the seed.  The seed only varies the leader secrets, and those
# are fixed-width (32-byte digests, hex-encoded into fixed-size
# payloads), so byte counts, event censuses, deadlines, and milestones
# are all seed-invariant; ``tests/test_analysis_engine.py`` pins this
# with cross-seed byte-parity cases.  Memoizing analysis + synthesis by
# shape is what makes seed grids — the ROADMAP's million-scenario sweep
# workload — amortize to a dictionary probe per scenario (bench E28).

#: LRU bound for the shape memos (a serve process lives for days).
_MEMO_LIMIT = 256
_ANALYSES: OrderedDict[str, ScenarioAnalysis] = OrderedDict()
_TEMPLATES: OrderedDict[str, RunReport] = OrderedDict()


def _shape_key(scenario: Scenario) -> str:
    """The scenario's canonical content with the seed masked out."""
    data = scenario.canonical_dict()
    data.pop("seed", None)
    return canonical_json(data)


def _lru_get(memo: OrderedDict[str, Any], key: str) -> Any | None:
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
    return value


def _lru_put(memo: OrderedDict[str, Any], key: str, value: Any) -> None:
    memo[key] = value
    if len(memo) > _MEMO_LIMIT:
        memo.popitem(last=False)


# ---------------------------------------------------------------------------
# the key-propagation schedule
# ---------------------------------------------------------------------------

#: One synthesized unlock: (lock index, hashkey path, landing tick).
Unlock = tuple[int, tuple[Vertex, ...], int]


def _phase_schedule(
    scenario: Scenario,
    digraph: Digraph,
    leaders: tuple[Vertex, ...],
    prediction: Prediction,
) -> dict[Arc, list[Unlock]]:
    """Per arc, the unlocks that land on its chain — in landing order,
    with the hashkey path each one carries.

    A faithful replay of the conforming two-phase cascade on a
    minimal FIFO event queue — times, paths, and same-tick ordering
    only; no contracts, signatures, or ledger records.  A closed-form
    relaxation (the gated Dijkstra :func:`repro.analysis.predict.
    predict` runs) pins every *time* in this schedule, but not every
    *path*: when two routes deliver a secret at the same tick, the
    simulator keeps whichever observation its scheduler fires first,
    and that order recurses through the whole cascade back to the
    iteration order of ``_schedule_unlocks`` over entering arcs.
    Replaying the cascade with the scheduler's own ordering rule
    (FIFO by insertion within a tick — all protocol steps share the
    WAKE priority band) reproduces those choices by construction.

    Only order-relevant events are replayed; deliveries the parties
    ignore (a head observing its own published contract, a tail
    observing its own unlock, claim observations) shift insertion
    sequence numbers uniformly and never change relative order.
    """
    delta = scenario.delta
    reaction = ticks(delta, scenario.reaction_fraction)
    action = ticks(delta, scenario.action_fraction)
    start = prediction.start_time
    lead = set(leaders)
    lock_of = {leader: i for i, leader in enumerate(leaders)}
    nlock = len(leaders)
    diam, slack = prediction.diam, scenario.timeout_slack

    def lag(u: Vertex, v: Vertex) -> int:
        return scenario.chain_delays.get(f"{u}->{v}", 0)

    heap: list[tuple[int, int]] = []
    actions: list[Any] = []

    def at(when: int, fn: Any) -> None:
        heapq.heappush(heap, (when, len(actions)))
        actions.append(fn)

    entering = {v: digraph.in_arcs(v) for v in digraph.vertices}
    leaving = {v: digraph.out_arcs(v) for v in digraph.vertices}
    seen: dict[Vertex, set[Arc]] = {v: set() for v in digraph.vertices}
    #: lock -> hashkey path, in learn order (dict preserves insertion).
    known: dict[Vertex, dict[int, tuple[Vertex, ...]]] = {
        v: {} for v in digraph.vertices
    }
    unlocked: dict[Arc, set[int]] = {arc: set() for arc in digraph.arcs}
    published: set[Vertex] = set()
    schedule: dict[Arc, list[Unlock]] = {arc: [] for arc in digraph.arcs}

    def publish_outgoing(v: Vertex, now: int) -> None:
        if v in published:
            return
        published.add(v)
        for arc in leaving[v]:
            tail = arc[1]
            at(now + reaction + lag(*arc),
               lambda t, w=tail, a=arc: observe_contract(w, a, t))

    def observe_contract(v: Vertex, arc: Arc, now: int) -> None:
        if arc in seen[v]:
            return
        seen[v].add(arc)
        # A late-arriving contract releases already-known keys first...
        for i in known[v]:
            schedule_unlock(v, arc, i, now)
        # ... then advances the phase (leaders synchronously, followers
        # one action later), exactly as _on_contract_published does.
        if len(seen[v]) == len(entering[v]):
            if v in lead:
                begin_phase_two(v, now)
            elif v not in published:
                at(now + action, lambda t, w=v: publish_outgoing(w, t))

    def begin_phase_two(v: Vertex, now: int) -> None:
        i = lock_of[v]
        known[v][i] = (v,)
        for arc in entering[v]:
            schedule_unlock(v, arc, i, now)

    def schedule_unlock(v: Vertex, arc: Arc, i: int, now: int) -> None:
        if arc not in seen[v] or i in unlocked[arc]:
            return
        at(now + action, lambda t, w=v, a=arc, li=i: send_unlock(w, a, li, t))

    def send_unlock(v: Vertex, arc: Arc, i: int, now: int) -> None:
        if i in unlocked[arc]:
            return
        path = known[v][i]
        if now >= start + (diam + len(path) - 1 + slack) * delta:
            # A rational party does not submit an expired hashkey.  The
            # analyzer's feasibility gate is conservative, so a fully
            # covered scenario never reaches this; fail loudly if the
            # two models ever disagree rather than synthesize a report
            # the simulator would contradict.
            raise AnalysisError(
                f"analytic replay: hashkey for lock {i} on arc {arc} "
                f"expired before its unlock at t={now}"
            )
        unlocked[arc].add(i)
        schedule[arc].append((i, path, now))
        head = arc[0]
        at(now + reaction + lag(*arc),
           lambda t, w=head, li=i, p=path: observe_unlock(w, li, p, t))

    def observe_unlock(w: Vertex, i: int, path: tuple[Vertex, ...], now: int) -> None:
        if i in known[w] or w in path:
            return
        known[w][i] = (w, *path)
        for arc in entering[w]:
            schedule_unlock(w, arc, i, now)

    for v in digraph.vertices:
        if v in lead:
            at(start, lambda t, w=v: publish_outgoing(w, t))
    while heap:
        when, index = heapq.heappop(heap)
        actions[index](when)
        actions[index] = None  # free the closure

    if any(len(schedule[arc]) != nlock for arc in digraph.arcs):
        raise AnalysisError(
            "analytic replay: conforming cascade quiesced with locked "
            "hashlocks remaining — prediction and replay disagree"
        )
    return schedule


# ---------------------------------------------------------------------------
# transcript synthesis
# ---------------------------------------------------------------------------


def synthesize_report(scenario: Scenario, prediction: Prediction) -> RunReport:
    """Build the simulator's all-Deal ``RunReport`` in closed form.

    Precondition: ``analyze_scenario(scenario)`` returned
    ``coverage="full"`` with this ``prediction`` attached (the caller's
    responsibility — :func:`closed_form` checks it).  The result
    carries ``engine="herlihy"`` — the engine whose run it reproduces —
    so run keys and serialized bytes match the simulated report;
    ``wall_seconds`` is left at ``0.0`` for the caller to stamp.

    Memoized by scenario shape: the first scenario of a shape pays the
    full transcript synthesis, every later seed of the same shape is a
    template copy (the report is seed-invariant — see the shape-memo
    notes above).  Always returns a fresh top-level object (private
    ``extra``/``outcomes``), so callers may stamp and mutate freely.
    """
    key = _shape_key(scenario)
    template = _lru_get(_TEMPLATES, key)
    if template is None:
        template = _synthesize(scenario, prediction)
        _lru_put(_TEMPLATES, key, template)
    return replace(
        template,
        scenario=scenario,
        outcomes=dict(template.outcomes),
        extra={},
        wall_seconds=0.0,
    )


def _synthesize(scenario: Scenario, prediction: Prediction) -> RunReport:
    """The uncached transcript synthesis behind :func:`synthesize_report`."""
    digraph = scenario.digraph()
    leaders = resolve_leaders(scenario, digraph)
    nlock = len(leaders)
    action = ticks(scenario.delta, scenario.action_fraction)
    scheme = get_scheme(scenario.scheme_name)
    placeholder_sig = b"\x00" * scheme.signature_size

    secrets = {
        leader: derive_secret("secret", scenario.seed, leader) for leader in leaders
    }
    spec = SwapSpec(
        digraph=digraph,
        leaders=leaders,
        hashlocks=tuple(hash_secret(secrets[leader]) for leader in leaders),
        start_time=prediction.start_time,
        delta=scenario.delta,
        diam=prediction.diam,
        timeout_slack=scenario.timeout_slack,
    )
    unlock_schedule = _phase_schedule(scenario, digraph, leaders, prediction)

    published_bytes = 0
    record_count = 0

    def append(kind: str, author: str, payload: dict[str, Any]) -> None:
        nonlocal published_bytes, record_count
        published_bytes += Record(
            kind=kind, author=author, payload=payload
        ).encoded_size_bytes()
        record_count += 1

    refund_watches = 0
    escrow_milestones: list[Milestone] = []
    release_times: list[tuple[int, Arc, Vertex]] = []
    for arc in digraph.arcs:
        u, v = arc
        contract_id = f"{chain_id_for_arc(arc)}/contract-0"
        asset_id = f"asset@{u}->{v}"
        asset = Asset(asset_id=asset_id, description=f"asset {u} owes {v}", value=1)
        contract = SwapContract(spec, arc, asset)
        append("asset_registered", u, {"asset_id": asset_id, "owner": u})
        append(
            "contract_published",
            u,
            {
                "contract_id": contract_id,
                "contract_type": "SwapContract",
                "asset_id": asset_id,
                "storage_bytes": contract.storage_size_bytes(),
                "state": contract.state_view(),
            },
        )
        escrow_milestones.append(
            Milestone(
                index=0, time=prediction.publish_times[u],
                kind=CONTRACT_ESCROWED, party=u, arc=arc,
            )
        )
        for i, path, landed in unlock_schedule[arc]:
            contract.unlocked[i] = True
            append(
                "contract_call",
                v,
                {
                    "contract_id": contract_id,
                    "method": "unlock",
                    "args": {
                        "lock_index": i,
                        "secret": secrets[leaders[i]],
                        "path": list(path),
                        "sig_layers": [placeholder_sig] * len(path),
                    },
                    "ok": True,
                    "state": contract.state_view(),
                },
            )
            release_times.append((landed, arc, v))
        contract.claimed = True
        contract._halt()
        append(
            "contract_call",
            v,
            {
                "contract_id": contract_id,
                "method": "claim",
                "args": {},
                "ok": True,
                "state": contract.state_view(),
            },
        )
        append(
            "asset_transfer",
            contract_id,
            {"asset_id": asset_id, "from": contract_id, "to": v},
        )
        refund_watches += len(
            {spec.lock_final_timeout(arc, i) for i in range(nlock)}
        )

    # Event census of the conforming schedule (see the module docstring).
    vertex_count = len(digraph.vertices)
    arc_count = digraph.arc_count()
    events_fired = (
        vertex_count                      # party starts
        + (vertex_count - nlock)          # follower publish wakes
        + 2 * arc_count * (nlock + 3)     # observation deliveries
        + arc_count * nlock               # unlock wakes
        + arc_count                       # claim wakes
        + refund_watches
    )

    settled_time = (
        max(
            spec.lock_final_timeout(arc, i)
            for arc in digraph.arcs
            for i in range(nlock)
        )
        + action
    )
    milestones: list[Milestone] = [
        Milestone(index=0, time=prediction.start_time, kind=PHASE1_START)
    ]
    timeline: list[Milestone] = sorted(
        escrow_milestones, key=lambda m: (m.time, m.arc or ())
    ) + [
        Milestone(index=0, time=when, kind=SECRET_RELEASED, party=party, arc=arc)
        for when, arc, party in sorted(release_times)
    ]
    timeline.sort(key=lambda m: m.time)
    timeline.append(
        Milestone(index=0, time=prediction.completion_time, kind=PHASE2_COMPLETE)
    )
    timeline.append(Milestone(index=0, time=settled_time, kind=SETTLED))
    for event in timeline:
        milestones.append(
            Milestone(
                index=len(milestones), time=event.time, kind=event.kind,
                party=event.party, arc=event.arc,
            )
        )

    return RunReport(
        engine=FALLBACK_ENGINE,
        scenario=scenario,
        outcomes={v: Outcome.DEAL for v in digraph.vertices},
        conforming=tuple(sorted(digraph.vertices)),
        leaders=leaders,
        triggered=tuple(sorted(digraph.arcs)),
        refunded=(),
        stuck_in_escrow=(),
        completion_time=prediction.completion_time,
        phase_two_bound=prediction.phase_two_bound,
        events_fired=events_fired,
        stored_bytes=published_bytes + _BLOCK_HEADER_BYTES * record_count,
        contract_storage_bytes=prediction.contract_storage_bytes,
        published_bytes=published_bytes,
        unlock_calls=prediction.unlock_calls,
        wall_seconds=0.0,
        extra={},
        milestones=tuple(milestones),
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class AnalyticEngine(Engine):
    """The closed form under an engine name of its own.

    ``run()`` is :func:`closed_form`, falling back to the real
    ``herlihy`` simulation when that refuses; either way the report
    records its provenance in ``extra["path"]``.  Every runtime already
    tries the closed form first, so the name mostly matters for the run
    keys of stores that recorded it.  ``open()`` always returns a real
    (simulated) execution session — stepping, probes, and interventions
    have no closed form by definition.
    """

    name = "analytic"
    description = "closed form (coverage=full), simulator fallback"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        return get_engine(FALLBACK_ENGINE).prepare(scenario)

    def open(self, scenario: Scenario) -> Execution:
        # Sessions are simulated even on fully-covered scenarios, and
        # carry the fallback engine's name so their reports stay
        # byte-identical with the runs they reproduce.
        return get_engine(FALLBACK_ENGINE).open(scenario)

    def run(self, scenario: Scenario) -> RunReport:
        report = closed_form(self.name, scenario)
        if report is None:
            report = get_engine(FALLBACK_ENGINE).run(scenario)
            report.extra[PATH_KEY] = PATH_SIMULATED
        return report


# Self-registration (rather than construction inside repro.api.engines)
# keeps the import graph acyclic: this module imports repro.api.engine,
# and repro.api.engines imports *this module* as its final statement —
# whichever side is imported first, both finish executing exactly once.
ANALYTIC: Engine = register_engine(AnalyticEngine())
