"""Closed-form predictions for conforming scenarios (Fig. 3 quantities).

Everything the simulator measures on an all-conforming uniform-timing
run is computable from the swap digraph alone — without firing a single
event.  With ``r = reaction`` and ``a = action`` ticks, start time ``T``
and per-arc chain lag ``lag(u, v)``:

* **Phase One escrow times** — leaders publish at ``T``; a follower
  ``v`` publishes once every entering contract is observed:
  ``p(v) = max over arcs (u, v) of [p(u) + r + lag(u, v)] + a``
  (well-founded because removing the leaders leaves the follower
  subgraph acyclic — the definition of a feedback vertex set).

* **Phase Two key propagation** — leader ``L`` enters Phase Two at
  ``o(L) = max over arcs (u, L) of [p(u) + r + lag(u, L)]`` and unlocks
  its own entering arcs; a party ``v`` learns secret ``i`` at the
  cheapest moment any of its out-arc counterparties' unlocks become
  observable — a shortest-path (Dijkstra) relaxation over
  ``know(v, i) = min over arcs (v, x) of
  [max(know(x, i), p(v) + r + lag(v, x)) + a + r + lag(v, x)]``
  (the inner ``max`` is the Phase One gate: ``x`` cannot unlock chain
  ``(v, x)`` before observing that chain's contract).

* **Completion** — an arc ``(w, v)`` is claimed ``2a`` after its last
  unlock lands, each unlock gated by the arc's own contract:
  ``completion = max over arcs (w, v) of
  [max(max_i know(v, i), p(w) + r + lag(w, v)) + 2a]``, which
  Theorem 4.7 bounds by ``T + (2·diam + slack)·Δ``.

* **Deadline ladder** (§4.1) — a hashkey carrying a path of length
  ``ℓ`` expires at ``T + (diam + ℓ + slack)·Δ``; the ladder is the
  table of those expiries for ``ℓ = 0 .. diam``.

* **Counts and bytes** — ``|A|`` escrows, ``|A|·|L|`` unlock calls and
  ``secret-released`` milestones, and the Theorem 4.10 storage bill:
  every contract stores the digraph encoding, the leader/hashlock/
  timelock vectors, the scalars, its own asset name and endpoints, and
  one path slot per leader.

These formulas are cross-validated byte-for-byte against the full
simulator over every strongly connected topology family in
``tests/test_analysis_parity.py`` (and in CI via ``lab check
--verify``) — that parity is what lets the closed form
(:func:`repro.analysis.engine.closed_form`) stand in for the simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from repro.analysis.diagnostics import Diagnostic, warning
from repro.api.scenario import Scenario
from repro.digraph.digraph import Digraph, Vertex
from repro.digraph.feedback import feedback_vertex_set
from repro.digraph.paths import diameter, shortest_path_length
from repro.errors import AnalysisError
from repro.sim.clock import ticks
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    PHASE2_COMPLETE,
    SECRET_RELEASED,
    SETTLED,
)


@dataclass(frozen=True)
class Prediction:
    """The closed-form run profile of a conforming scenario.

    Times are absolute ticks (the simulator's model time); the
    quantities mirror :class:`repro.api.report.RunReport` so parity is
    a field-by-field comparison.
    """

    leaders: tuple[Vertex, ...]
    diam: int
    start_time: int
    delta: int
    publish_times: dict[Vertex, int]
    phase_two_start: dict[Vertex, int]
    deadline_ladder: dict[int, int]
    completion_time: int
    phase_two_bound: int
    escrow_count: int
    unlock_calls: int
    milestone_counts: dict[str, int]
    contract_storage_bytes: int
    deadline_feasible: bool

    def completion_in_delta(self) -> float:
        """Completion time expressed in Δ units past the start."""
        return (self.completion_time - self.start_time) / self.delta

    def to_dict(self) -> dict[str, Any]:
        return {
            "leaders": list(self.leaders),
            "diam": self.diam,
            "start_time": self.start_time,
            "delta": self.delta,
            "publish_times": dict(self.publish_times),
            "phase_two_start": dict(self.phase_two_start),
            "deadline_ladder": {str(k): v for k, v in self.deadline_ladder.items()},
            "completion_time": self.completion_time,
            "completion_in_delta": self.completion_in_delta(),
            "phase_two_bound": self.phase_two_bound,
            "escrow_count": self.escrow_count,
            "unlock_calls": self.unlock_calls,
            "milestone_counts": dict(self.milestone_counts),
            "contract_storage_bytes": self.contract_storage_bytes,
            "deadline_feasible": self.deadline_feasible,
        }


def resolve_leaders(scenario: Scenario, digraph: Digraph) -> tuple[Vertex, ...]:
    """The leader set an engine would use, in vertex order."""
    if scenario.leaders is not None:
        return tuple(scenario.leaders)
    chosen = feedback_vertex_set(digraph, exact_limit=scenario.exact_limit)
    return tuple(v for v in digraph.vertices if v in chosen)


def _stored_fields_bytes(
    digraph: Digraph, leaders: tuple[Vertex, ...]
) -> int:
    """Fig. 4's long-lived per-contract fields (one hashlock and one
    timelock per leader, plus the digraph copy and scalar timing)."""
    digraph_bytes = digraph.encoded_size_bytes()
    leaders_bytes = sum(len(leader.encode()) for leader in leaders)
    hashlock_bytes = 32 * len(leaders)
    timelock_bytes = 8 * len(leaders)
    scalars = 8 * 4  # start, delta, diam, slack
    return digraph_bytes + leaders_bytes + hashlock_bytes + timelock_bytes + scalars


def predict(scenario: Scenario) -> tuple[Prediction, tuple[Diagnostic, ...]]:
    """Compute the closed-form run profile of a conforming scenario.

    Precondition: the scenario passed :func:`~repro.analysis.structure
    .check_scenario` with no errors (strongly connected digraph,
    non-empty feedback vertex set of leaders).  The returned diagnostics
    are advisory — currently only the deadline-feasibility warning when
    chain delays push a predicted unlock past its hashkey expiry.
    """
    digraph = scenario.digraph()
    leaders = resolve_leaders(scenario, digraph)
    if not leaders:
        raise AnalysisError(
            "predict() needs a non-empty leader set; run check_scenario() "
            "first and only predict structurally conforming scenarios"
        )
    lead = set(leaders)
    delta = scenario.delta
    reaction = ticks(delta, scenario.reaction_fraction)
    action = ticks(delta, scenario.action_fraction)
    start = scenario.start_time if scenario.start_time is not None else delta

    def lag(u: Vertex, v: Vertex) -> int:
        return scenario.chain_delays.get(f"{u}->{v}", 0)

    # Phase One: leaders escrow at T; followers react to the last
    # entering contract.  The recursion terminates because the follower
    # subgraph is acyclic (leaders form a feedback vertex set).
    publish: dict[Vertex, int] = {}

    def publish_time(v: Vertex) -> int:
        cached = publish.get(v)
        if cached is not None:
            return cached
        if v in lead:
            publish[v] = start
            return start
        when = (
            max(
                publish_time(u) + reaction + lag(u, v)
                for u in digraph.in_neighbors(v)
            )
            + action
        )
        publish[v] = when
        return when

    for v in digraph.vertices:
        publish_time(v)

    # Phase Two entry: a leader releases its secret once every entering
    # contract is observable.
    phase_two_start: dict[Vertex, int] = {
        leader: max(
            publish[u] + reaction + lag(u, leader)
            for u in digraph.in_neighbors(leader)
        )
        for leader in leaders
    }

    # Key propagation: know(v, i) via Dijkstra over the min-relaxation.
    # Phase One gates Phase Two per arc: x cannot unlock chain (v, x)
    # before observing that chain's *contract*, so the unlock lands at
    # max(know(x, i), publish(v) + observe) + a — not know(x, i) + a —
    # and v then learns at land + observe.  Dense topologies never bind
    # the gate (publishing finishes before keys travel back), but sparse
    # graphs with deep Phase One chains do, and the ungated relaxation
    # would predict knowledge times the simulator cannot achieve.
    know: dict[tuple[Vertex, int], int] = {}
    for i, leader in enumerate(leaders):
        dist: dict[Vertex, int] = {leader: phase_two_start[leader]}
        heap: list[tuple[int, Vertex]] = [(phase_two_start[leader], leader)]
        while heap:
            when, x = heapq.heappop(heap)
            if when > dist.get(x, when):
                continue
            for v in digraph.in_neighbors(x):
                observe = reaction + lag(v, x)
                candidate = max(when, publish[v] + observe) + action + observe
                best = dist.get(v)
                if best is None or candidate < best:
                    dist[v] = candidate
                    heapq.heappush(heap, (candidate, v))
        for v, when in dist.items():
            know[(v, i)] = when

    # Completion: per arc (u, v), the claim fires one action after the
    # last unlock lands, and each unlock is gated by v's observation of
    # that arc's contract (published by u) exactly as above.
    indices = range(len(leaders))
    completion = max(
        max(
            max(know[(v, i)] for i in indices),
            publish[u] + reaction + lag(u, v),
        )
        + 2 * action
        for (u, v) in digraph.arcs
    )
    diam = scenario.diam_override or diameter(
        digraph, exact_limit=scenario.exact_limit
    )
    slack = scenario.timeout_slack
    bound = start + (2 * diam + slack) * delta
    ladder = {
        length: start + (diam + length + slack) * delta
        for length in range(diam + 1)
    }

    # Conservative deadline feasibility: the hashkey a party presents for
    # secret i carries a path from itself to leader i, so its expiry is
    # at least T + (diam + hops(v, L_i) + slack)·Δ where hops is the
    # *shortest* path length; the unlock lands know(v, i) + a.  Chain
    # delays can push the unlock past that floor — flag it, because the
    # all-Deal prediction is then no longer certain.
    feasible = True
    diagnostics: list[Diagnostic] = []
    for i, leader in enumerate(leaders):
        for v in digraph.vertices:
            hops = (
                0
                if v == leader
                else shortest_path_length(digraph, v, leader)
            )
            if hops is None:
                continue
            expiry = start + (diam + hops + slack) * delta
            if know[(v, i)] + action >= expiry:
                feasible = False
                diagnostics.append(
                    warning(
                        "predict/deadline-at-risk",
                        "/chain_delays",
                        f"party {v!r} is predicted to unlock secret of "
                        f"{leader!r} at t={know[(v, i)] + action}, at or "
                        f"past the ladder floor {expiry} (§4.1): the "
                        "all-Deal prediction is not certain under these "
                        "chain delays",
                    )
                )

    arc_count = digraph.arc_count()
    base = _stored_fields_bytes(digraph, leaders)
    storage = sum(
        base + len(u) + len(v) + len(f"asset@{u}->{v}") + len(leaders)
        for (u, v) in digraph.arcs
    )
    milestone_counts = {
        PHASE1_START: 1,
        CONTRACT_ESCROWED: arc_count,
        SECRET_RELEASED: arc_count * len(leaders),
        PHASE2_COMPLETE: 1,
        SETTLED: 1,
    }
    prediction = Prediction(
        leaders=leaders,
        diam=diam,
        start_time=start,
        delta=delta,
        publish_times=publish,
        phase_two_start=phase_two_start,
        deadline_ladder=ladder,
        completion_time=completion,
        phase_two_bound=bound,
        escrow_count=arc_count,
        unlock_calls=arc_count * len(leaders),
        milestone_counts=milestone_counts,
        contract_storage_bytes=storage,
        deadline_feasible=feasible,
    )
    return prediction, tuple(diagnostics)
